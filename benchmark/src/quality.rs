//! The paper's guarantees measured on a healed graph by the benchmark's own
//! walks: connectivity, and degree increase and stretch against the
//! insertion-only graph `G'`.

use xheal_graph::{CsrView, Graph};

use crate::inputs::Rng;
use crate::report::Report;

/// Breadth-first search sources for the stretch sample.
const SOURCES: usize = 32;

/// Breadth-first distances from `src` over `csr` (`u32::MAX` = unreached);
/// `queue` ends holding the nodes reached.
fn bfs(csr: &CsrView, src: usize, dist: &mut Vec<u32>, queue: &mut Vec<u32>) {
    dist.clear();
    dist.resize(csr.len(), u32::MAX);
    queue.clear();
    dist[src] = 0;
    queue.push(src as u32);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head] as usize;
        head += 1;
        for &w in csr.neighbors_of(u) {
            if dist[w as usize] == u32::MAX {
                dist[w as usize] = dist[u] + 1;
                queue.push(w);
            }
        }
    }
}

/// Connected components of `csr`.
pub fn components(csr: &CsrView) -> usize {
    let (mut dist, mut queue) = (Vec::new(), Vec::new());
    let mut seen = vec![false; csr.len()];
    let mut count = 0;
    for s in 0..csr.len() {
        if !seen[s] {
            count += 1;
            bfs(csr, s, &mut dist, &mut queue);
            for &v in &queue {
                seen[v as usize] = true;
            }
        }
    }
    count
}

/// Reports connectivity (gated: one component), degree increase and
/// sampled stretch of `healed` against `gprime`. Means are the metrics: the
/// maxima hang on single nodes and pairs, so they swing from seed to seed,
/// and print as notes.
pub fn report(r: &mut Report, healed: &Graph, gprime: &Graph, seed: u64) {
    let g = healed.csr_view();
    let p = gprime.csr_view();
    // Both snapshots list nodes ascending; G' holds every node of G.
    let mut in_p = Vec::with_capacity(g.len());
    let mut j = 0;
    for &v in g.nodes() {
        while p.node(j) != v {
            j += 1;
        }
        in_p.push(j);
    }

    let increases: Vec<f64> = (0..g.len())
        .filter(|&i| p.degree_of(in_p[i]) > 0)
        .map(|i| g.degree_of(i) as f64 / p.degree_of(in_p[i]) as f64)
        .collect();
    let inc_max = increases.iter().copied().fold(0.0, f64::max);

    let mut rng = Rng::stream(seed, "stretch");
    let (mut dg, mut dp, mut queue) = (Vec::new(), Vec::new(), Vec::new());
    let (mut sum, mut pairs, mut worst) = (0.0, 0u64, 0.0f64);
    for _ in 0..SOURCES {
        let s = rng.below(g.len());
        bfs(&g, s, &mut dg, &mut queue);
        bfs(&p, in_p[s], &mut dp, &mut queue);
        for t in (0..g.len()).filter(|&t| t != s && dp[in_p[t]] != u32::MAX) {
            let ratio = f64::from(dg[t]) / f64::from(dp[in_p[t]]);
            sum += ratio;
            pairs += 1;
            worst = worst.max(ratio);
        }
    }

    let comps = components(&g);
    r.check("components == 1", comps == 1, format!("{comps}"));
    r.set("components", comps as f64, "healed graph");
    r.set(
        "deg_inc_mean",
        increases.iter().sum::<f64>() / increases.len() as f64,
        format!("{} live nodes, max {inc_max:.3}", increases.len()),
    );
    r.set(
        "stretch_mean",
        sum / pairs as f64,
        format!("{pairs} pairs from {SOURCES} sources, max {worst:.3}"),
    );
}
