//! E5 — Theorem 5: repairs take O(log n) rounds and amortized
//! O(κ·log n·A(p)) messages, where A(p) = (1/p)·Σ deg(v_i) is Lemma 5's
//! lower bound.
//!
//! The distributed protocol runs as per-node actor state machines with
//! real message envelopes over the event-queue engine. Part 1 measures it
//! at zero latency — the synchronous LOCAL model, every message delivered
//! one round after its send; part 2 re-runs the identical schedules with
//! seeded per-link latency L ∈ [1, 3] plus jitter, verifying the healed
//! topology is bit-identical to the zero-latency run and that recovery
//! time only dilates by the worst-case delivery delay; part 3 measures
//! burst (batch) deletions under latency.
//! Tables report measured mean/max rounds per repair, mean messages, A(p),
//! and the overhead ratio `messages / (κ·log2 n·A(p))` which Theorem 5
//! bounds by a constant.

use rand::{rngs::StdRng, Rng, SeedableRng};
use xheal_bench::{f, header, row, srow, verdict};
use xheal_core::XhealConfig;
use xheal_dist::{DistXheal, Msg, RepairCost};
use xheal_graph::{components, generators, Graph, NodeId};
use xheal_sim::{AsyncConfig, AsyncNetwork};
use xheal_workload::bfs_rack;

const KAPPA: usize = 6;

struct Measured {
    rounds_avg: f64,
    rounds_max: f64,
    msgs_avg: f64,
    a_p: f64,
    overhead: f64,
    repairs: usize,
}

fn measure(costs: &[RepairCost], n: usize) -> Measured {
    let p = costs.len() as f64;
    let rounds_avg = costs.iter().map(|c| c.rounds as f64).sum::<f64>() / p;
    let rounds_max = costs.iter().map(|c| c.rounds).max().unwrap_or(0) as f64;
    let msgs_avg = costs.iter().map(|c| c.messages as f64).sum::<f64>() / p;
    let a_p = costs.iter().map(|c| c.black_degree as f64).sum::<f64>() / p;
    let log2n = (n as f64).log2();
    Measured {
        rounds_avg,
        rounds_max,
        msgs_avg,
        a_p,
        overhead: msgs_avg / (KAPPA as f64 * log2n * a_p.max(1.0)),
        repairs: costs.len(),
    }
}

fn victims_for(n: u64, g0: &Graph, deletions: usize) -> Vec<NodeId> {
    // The shared deletion schedule of parts 1 and 2: replayed
    // against a scratch healer so the surviving-node draws line up.
    let mut rng = StdRng::seed_from_u64(n ^ 0x5EED);
    let mut scratch = DistXheal::new(g0, XhealConfig::new(KAPPA).with_seed(4));
    let mut victims = Vec::with_capacity(deletions);
    for _ in 0..deletions {
        let nodes = scratch.graph().node_vec();
        let victim = nodes[rng.random_range(0..nodes.len())];
        scratch.delete(victim).unwrap();
        victims.push(victim);
    }
    victims
}

fn run_engine(g0: &Graph, victims: &[NodeId], delivery: AsyncConfig) -> DistXheal {
    let engine = AsyncNetwork::new(delivery);
    let mut net = DistXheal::with_engine(g0, XhealConfig::new(KAPPA).with_seed(4), engine);
    for &v in victims {
        net.delete(v).unwrap();
    }
    net
}

fn main() {
    header(
        "E5",
        "distributed cost: O(log n) rounds, amortized O(kappa log n A(p)) messages (Thm 5)",
    );

    println!("\n-- part 1: zero latency (synchronous LOCAL-model rounds) --");
    srow(&[
        "n",
        "del",
        "rounds avg",
        "rounds max",
        "msgs avg",
        "A(p)",
        "overhead",
    ]);
    let mut max_round_ratio: f64 = 0.0;
    let mut max_overhead: f64 = 0.0;
    // Per size: (n, initial graph, deletion schedule, healed topology).
    let mut zero_latency_runs: Vec<(usize, Graph, Vec<NodeId>, Graph)> = Vec::new();

    for n in [32usize, 64, 128, 256, 512] {
        let mut rng = StdRng::seed_from_u64(n as u64 ^ 0xE5);
        let g0 = generators::random_regular(n, 6, &mut rng);
        let victims = victims_for(n as u64, &g0, n * 2 / 5);
        let net = run_engine(&g0, &victims, AsyncConfig::zero_latency());
        let m = measure(net.costs(), n);
        let log2n = (n as f64).log2();
        max_round_ratio = max_round_ratio.max(m.rounds_max / log2n);
        max_overhead = max_overhead.max(m.overhead);
        row(&[
            n.to_string(),
            m.repairs.to_string(),
            f(m.rounds_avg),
            f(m.rounds_max),
            f(m.msgs_avg),
            f(m.a_p),
            f(m.overhead),
        ]);
        zero_latency_runs.push((n, g0, victims, net.graph().clone()));
    }

    // Part 2: the same schedules under latency.
    let lat = AsyncConfig::uniform(1, 3, 0xA5).with_jitter(1);
    let worst = lat.worst_case_delay();
    println!(
        "\n-- part 2: per-link latency in [1, 3] + jitter 1 \
         (worst delay L = {worst}) --"
    );
    srow(&[
        "n",
        "del",
        "rounds avg",
        "rounds max",
        "r/L*log2n",
        "identical",
    ]);
    let mut max_latency_ratio: f64 = 0.0;
    let mut all_identical = true;
    for &(n, ref g0, ref victims, ref zero_latency_graph) in &zero_latency_runs {
        let net = run_engine(g0, victims, lat);
        let m = measure(net.costs(), n);
        let ratio = m.rounds_max / (worst as f64 * (n as f64).log2());
        max_latency_ratio = max_latency_ratio.max(ratio);
        let identical = net.graph() == zero_latency_graph;
        all_identical &= identical;
        row(&[
            n.to_string(),
            m.repairs.to_string(),
            f(m.rounds_avg),
            f(m.rounds_max),
            f(ratio),
            identical.to_string(),
        ]);
    }

    // Part 3: burst (batch) deletions under latency — per-stage costs.
    println!("\n-- part 3: burst deletions (batch) under the same latency model --");
    srow(&["n", "bursts", "stages", "rounds max", "connected"]);
    let mut bursts_ok = true;
    let mut burst_rounds_max = 0u64;
    for n in [128usize, 256] {
        let mut rng = StdRng::seed_from_u64(n as u64 ^ 0xB0);
        let g0 = generators::random_regular(n, 6, &mut rng);
        let mut net = DistXheal::with_engine(
            &g0,
            XhealConfig::new(KAPPA).with_seed(4),
            AsyncNetwork::<Msg>::new(lat),
        );
        let bursts = 8usize;
        for _ in 0..bursts {
            let nodes = net.graph().node_vec();
            let seed = nodes[rng.random_range(0..nodes.len())];
            let rack = bfs_rack(net.graph(), seed, 4);
            net.delete_batch(&rack).unwrap();
        }
        let connected = components::is_connected(net.graph());
        bursts_ok &= connected;
        let rounds_max = net.costs().iter().map(|c| c.rounds).max().unwrap_or(0);
        burst_rounds_max = burst_rounds_max.max(rounds_max);
        bursts_ok &= (rounds_max as f64) <= 4.0 * worst as f64 * (n as f64).log2();
        row(&[
            n.to_string(),
            bursts.to_string(),
            net.costs().len().to_string(),
            rounds_max.to_string(),
            connected.to_string(),
        ]);
    }

    verdict(
        max_round_ratio <= 4.0
            && max_overhead <= 2.0
            && all_identical
            && max_latency_ratio <= 4.0
            && bursts_ok,
        &format!(
            "zero latency: max rounds/log2(n) = {} (O(log n) recovery), message overhead \
             vs kappa*log(n)*A(p) = {} (constant); latency: topologies bit-identical = \
             {all_identical}, max rounds/(L*log2 n) = {} (latency-scaled O(log n)); \
             bursts under latency stay connected within budget (max {} rounds)",
            f(max_round_ratio),
            f(max_overhead),
            f(max_latency_ratio),
            burst_rounds_max
        ),
    );
}
