//! E10 — ablations of three design choices of Xheal's cloud machinery:
//!
//! (a) **no secondary clouds** — every multi-cloud repair combines, the
//!     amortized path the secondary machinery exists to avoid (since
//!     `combine` splices members into the surviving cloud rather than
//!     dissolving and rebuilding, a single combine is cheap — what the
//!     machinery still buys is *fewer* forced merges and better structure);
//! (b) **no free-node sharing** — a cloud without its own free node forces
//!     combining;
//! (c) **κ sweep** — degree/cost trade-off.
//!
//! Measured over the distributed protocol so the message cost of combining
//! is real (BFS flood + convergecast + broadcast).

use rand::{rngs::StdRng, Rng, SeedableRng};
use xheal_bench::{f, header, row, srow, verdict};
use xheal_core::XhealConfig;
use xheal_dist::DistXheal;
use xheal_graph::generators;
use xheal_spectral::normalized_algebraic_connectivity;

struct Outcome {
    combines: usize,
    msgs_avg: f64,
    rounds_max: u64,
    lambda: f64,
}

fn run_one(cfg: XhealConfig, n: usize, seed: u64) -> Outcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let g0 = generators::random_regular(n, 6, &mut rng);
    let mut net = DistXheal::new(&g0, cfg);
    for _ in 0..n / 2 {
        let nodes = net.graph().node_vec();
        let victim = nodes[rng.random_range(0..nodes.len())];
        net.delete(victim).unwrap();
    }
    let costs = net.costs();
    Outcome {
        combines: costs.iter().filter(|c| c.combined).count(),
        msgs_avg: costs.iter().map(|c| c.messages as f64).sum::<f64>() / costs.len() as f64,
        rounds_max: costs.iter().map(|c| c.rounds).max().unwrap_or(0),
        lambda: normalized_algebraic_connectivity(net.graph()),
    }
}

fn main() {
    header("E10", "ablations: secondary clouds, sharing, and kappa");
    srow(&["variant", "combines", "msgs avg", "rounds max", "lambda"]);
    let n = 96usize;

    let variants: Vec<(&str, XhealConfig)> = vec![
        ("full (k=6)", XhealConfig::new(6).with_seed(10)),
        (
            "no-secondary",
            XhealConfig::new(6).with_seed(10).without_secondary_clouds(),
        ),
        (
            "no-sharing",
            XhealConfig::new(6).with_seed(10).without_sharing(),
        ),
        ("k=4", XhealConfig::new(4).with_seed(10)),
        ("k=8", XhealConfig::new(8).with_seed(10)),
    ];

    let mut results = Vec::new();
    for (name, cfg) in variants {
        let o = run_one(cfg, n, 0xE10);
        row(&[
            name.to_string(),
            o.combines.to_string(),
            f(o.msgs_avg),
            o.rounds_max.to_string(),
            f(o.lambda),
        ]);
        results.push((name, o));
    }

    let full = &results[0].1;
    let nosec = &results[1].1;
    // Splice-combine absorbs members into the surviving cloud instead of
    // dissolving and rebuilding, so one combine is no longer the dominant
    // message cost this ablation was first written around. The machinery's
    // measurable value is structural: fewer forced merges, tighter
    // worst-case rounds, better expansion.
    let ok = nosec.combines > full.combines
        && nosec.rounds_max >= full.rounds_max
        && nosec.lambda < full.lambda;
    verdict(
        ok,
        &format!(
            "disabling secondary clouds forces {:.2}x the combines and degrades \
             expansion lambda {} -> {} (rounds max {} -> {}); msgs avg {} -> {} — \
             splice-combine made single merges cheap, so secondaries now pay in \
             messages and pay back in structure",
            nosec.combines as f64 / full.combines.max(1) as f64,
            f(full.lambda),
            f(nosec.lambda),
            full.rounds_max,
            nosec.rounds_max,
            f(full.msgs_avg),
            f(nosec.msgs_avg)
        ),
    );
}
