//! Property tests: the paper's structural guarantees hold on random
//! adversarial schedules.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use xheal_core::{invariants, Xheal, XhealConfig};
use xheal_graph::{components, generators, NodeId};
use xheal_metrics::GPrime;

/// Replays a random insert/delete schedule, checking invariants and
/// connectivity after every step; returns the healer and the insertion-only
/// graph G' recorded from the same insertions.
fn run_schedule(
    start_n: usize,
    steps: usize,
    p_insert: f64,
    kappa: usize,
    seed: u64,
) -> (Xheal, GPrime) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g0 = generators::connected_erdos_renyi(start_n, 0.12, &mut rng);
    let mut gprime = GPrime::new(&g0);
    let mut x = Xheal::new(&g0, XhealConfig::new(kappa).with_seed(seed ^ 0xABCD));
    let mut next_id = start_n as u64;

    for step in 0..steps {
        let nodes = x.graph().node_vec();
        if rng.random::<f64>() < p_insert || nodes.len() <= 3 {
            let count = rng.random_range(1..=3usize.min(nodes.len().max(1)));
            let mut nbrs: Vec<NodeId> = Vec::new();
            for _ in 0..count {
                let u = nodes[rng.random_range(0..nodes.len())];
                if !nbrs.contains(&u) {
                    nbrs.push(u);
                }
            }
            let v = NodeId::new(next_id);
            next_id += 1;
            x.heal_insert(v, &nbrs).unwrap();
            gprime.record_insert(v, &nbrs).unwrap();
        } else {
            let victim = nodes[rng.random_range(0..nodes.len())];
            x.heal_delete(victim).unwrap();
        }
        invariants::check_invariants(&x).unwrap_or_else(|e| panic!("step {step}: {e}"));
        assert!(
            components::is_connected(x.graph()),
            "step {step}: healed graph disconnected"
        );
    }
    (x, gprime)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn invariants_and_connectivity_hold(
        seed in any::<u64>(),
        start_n in 8usize..28,
        steps in 10usize..50,
        p_insert in 0.1f64..0.6,
        kappa in prop::sample::select(vec![4usize, 6]),
    ) {
        let _ = run_schedule(start_n, steps, p_insert, kappa, seed);
    }

    #[test]
    fn degree_bound_theorem_2_1(
        seed in any::<u64>(),
        start_n in 10usize..24,
        steps in 10usize..40,
    ) {
        // Theorem 2(1) / Lemma 3: deg_G(x) <= kappa * deg_G'(x) + 2*kappa.
        // Our label-set strengthening can add one extra kappa of slack per
        // shared node; we assert the paper's envelope with that slack.
        let kappa = 4usize;
        let (x, gprime) = run_schedule(start_n, steps, 0.3, kappa, seed);
        for v in x.graph().nodes() {
            let d = x.graph().degree(v).unwrap() as f64;
            let dprime = gprime.graph().degree(v).unwrap_or(0) as f64;
            let bound = kappa as f64 * dprime + 3.0 * kappa as f64;
            prop_assert!(
                d <= bound,
                "node {v}: degree {d} exceeds kappa*d' + 3kappa = {bound} (d'={dprime})"
            );
        }
    }

    #[test]
    fn deleted_nodes_leave_no_trace(
        seed in any::<u64>(),
        start_n in 8usize..20,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g0 = generators::connected_erdos_renyi(start_n, 0.15, &mut rng);
        let mut x = Xheal::new(&g0, XhealConfig::new(4).with_seed(seed));
        // Delete half the nodes.
        for _ in 0..start_n / 2 {
            let nodes = x.graph().node_vec();
            let victim = nodes[rng.random_range(0..nodes.len())];
            x.heal_delete(victim).unwrap();
            prop_assert!(!x.graph().contains_node(victim));
            prop_assert!(x.node_state(victim).is_none());
            // No cloud contains the victim.
            for (c, _) in x.cloud_colors() {
                prop_assert!(!x.cloud(c).unwrap().members().contains(&victim));
            }
        }
    }
}

#[test]
fn long_delete_only_run_shrinks_to_triangle() {
    // Delete everything down to 3 nodes; connectivity must never break.
    let mut rng = StdRng::seed_from_u64(77);
    let g0 = generators::connected_erdos_renyi(60, 0.07, &mut rng);
    let mut x = Xheal::new(&g0, XhealConfig::new(6).with_seed(99));
    while x.graph().node_count() > 3 {
        let nodes = x.graph().node_vec();
        let victim = nodes[rng.random_range(0..nodes.len())];
        x.heal_delete(victim).unwrap();
        assert!(components::is_connected(x.graph()));
    }
    invariants::check_invariants(&x).unwrap();
}

#[test]
fn ablation_disable_secondary_still_connected() {
    let mut rng = StdRng::seed_from_u64(5);
    let g0 = generators::connected_erdos_renyi(30, 0.1, &mut rng);
    let mut x = Xheal::new(
        &g0,
        XhealConfig::new(4).with_seed(3).without_secondary_clouds(),
    );
    for _ in 0..20 {
        let nodes = x.graph().node_vec();
        let victim = nodes[rng.random_range(0..nodes.len())];
        x.heal_delete(victim).unwrap();
        assert!(components::is_connected(x.graph()));
        invariants::check_invariants(&x).unwrap();
    }
    // With secondaries disabled, every multi-cloud repair combines.
    assert_eq!(x.stats().secondaries_built, 0);
}

#[test]
fn ablation_disable_sharing_still_connected() {
    let mut rng = StdRng::seed_from_u64(6);
    let g0 = generators::connected_erdos_renyi(30, 0.1, &mut rng);
    let mut x = Xheal::new(&g0, XhealConfig::new(4).with_seed(4).without_sharing());
    for _ in 0..20 {
        let nodes = x.graph().node_vec();
        let victim = nodes[rng.random_range(0..nodes.len())];
        x.heal_delete(victim).unwrap();
        assert!(components::is_connected(x.graph()));
        invariants::check_invariants(&x).unwrap();
    }
    assert_eq!(x.stats().shares, 0);
}
