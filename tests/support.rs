//! Shared helpers for the cross-crate integration tests.

#![forbid(unsafe_code)]

use rand::{rngs::StdRng, Rng, SeedableRng};
use xheal_core::{Xheal, XhealConfig};
use xheal_graph::{generators, NodeId};
use xheal_metrics::GPrime;

/// A standard churn schedule: returns the healer after `steps` mixed events
/// and the insertion-only graph `G'` recorded from the same insertions.
pub fn churned_xheal(
    start_n: usize,
    steps: usize,
    p_insert: f64,
    kappa: usize,
    seed: u64,
) -> (Xheal, GPrime) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g0 = generators::connected_erdos_renyi(start_n, 0.1, &mut rng);
    let mut healer = Xheal::new(&g0, XhealConfig::new(kappa).with_seed(seed ^ 0xF00D));
    let mut gprime = GPrime::new(&g0);
    let mut next = start_n as u64;
    for _ in 0..steps {
        let nodes = healer.graph().node_vec();
        if rng.random::<f64>() < p_insert || nodes.len() <= 4 {
            let mut nbrs = Vec::new();
            for _ in 0..rng.random_range(1..=3usize.min(nodes.len())) {
                let u = nodes[rng.random_range(0..nodes.len())];
                if !nbrs.contains(&u) {
                    nbrs.push(u);
                }
            }
            let v = NodeId::new(next);
            next += 1;
            healer.heal_insert(v, &nbrs).unwrap();
            gprime.record_insert(v, &nbrs).unwrap();
        } else {
            let victim = nodes[rng.random_range(0..nodes.len())];
            healer.heal_delete(victim).unwrap();
        }
    }
    (healer, gprime)
}
