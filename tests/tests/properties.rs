//! Cross-crate property tests: arbitrary adversarial schedules against the
//! full stack (core + dist + metrics + spectral).

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use xheal_core::{invariants, Xheal, XhealConfig};
use xheal_dist::DistXheal;
use xheal_graph::{components, generators, NodeId};
use xheal_workload::{replay, run, RandomChurn};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The distributed and centralized implementations stay bit-identical on
    /// arbitrary random-churn schedules.
    #[test]
    fn dist_central_equivalence(
        seed in any::<u64>(),
        n in 10usize..30,
        steps in 5usize..40,
        p_insert in 0.1f64..0.7,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g0 = generators::connected_erdos_renyi(n, 0.15, &mut rng);
        let cfg = XhealConfig::new(4).with_seed(seed ^ 1);

        let mut central = Xheal::new(&g0, cfg.clone());
        let mut adv = RandomChurn::new(p_insert, 3, 4, &g0);
        let summary = run(&mut central, &mut adv, steps, seed ^ 2);

        let mut dist = DistXheal::new(&g0, cfg);
        replay(&mut dist, &summary.events);
        prop_assert_eq!(central.graph(), dist.graph());
    }

    /// Batch deletion preserves connectivity and invariants for arbitrary
    /// victim sets (including adjacent victims).
    #[test]
    fn batch_deletion_safe(
        seed in any::<u64>(),
        n in 12usize..36,
        batch in 2usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g0 = generators::connected_erdos_renyi(n, 0.14, &mut rng);
        let mut x = Xheal::new(&g0, XhealConfig::new(4).with_seed(seed ^ 3));
        // A couple of sequential deletions first so clouds exist.
        for _ in 0..3 {
            let nodes = x.graph().node_vec();
            let victim = nodes[rng.random_range(0..nodes.len())];
            x.heal_delete(victim).unwrap();
        }
        let nodes = x.graph().node_vec();
        let mut victims: Vec<NodeId> = Vec::new();
        for _ in 0..batch.min(nodes.len().saturating_sub(4)) {
            let v = nodes[rng.random_range(0..nodes.len())];
            if !victims.contains(&v) {
                victims.push(v);
            }
        }
        if victims.is_empty() {
            return Ok(());
        }
        x.heal_delete_batch(&victims).unwrap();
        prop_assert!(components::is_connected(x.graph()));
        invariants::check_invariants(&x).map_err(|e| {
            TestCaseError::fail(format!("invariants: {e}"))
        })?;
    }

    /// Distributed per-deletion costs are always accounted (one entry per
    /// deletion, rounds >= messages > 0 for non-trivial repairs).
    #[test]
    fn dist_costs_accounted(seed in any::<u64>(), n in 10usize..24) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g0 = generators::connected_erdos_renyi(n, 0.2, &mut rng);
        let mut net = DistXheal::new(&g0, XhealConfig::new(4).with_seed(seed));
        let deletions = n / 2;
        for _ in 0..deletions {
            let nodes = net.graph().node_vec();
            let victim = nodes[rng.random_range(0..nodes.len())];
            net.delete(victim).unwrap();
        }
        prop_assert_eq!(net.costs().len(), deletions);
        for c in net.costs() {
            if c.black_degree >= 2 {
                prop_assert!(c.messages > 0, "non-trivial repair sent no messages");
                prop_assert!(c.rounds > 0);
            }
        }
    }

    /// Healed graphs never contain stale cloud colors (label/registry
    /// consistency after arbitrary schedules) — exercised through the
    /// workload runner like the experiment harness does.
    #[test]
    fn no_stale_labels_via_trait(seed in any::<u64>(), steps in 5usize..30) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g0 = generators::connected_erdos_renyi(16, 0.2, &mut rng);
        let mut healer = Xheal::new(&g0, XhealConfig::new(4).with_seed(seed));
        let mut adv = RandomChurn::new(0.4, 3, 4, &g0);
        let _ = run(&mut healer, &mut adv, steps, seed ^ 9);
        invariants::check_invariants(&healer).map_err(|e| {
            TestCaseError::fail(format!("invariants: {e}"))
        })?;
        prop_assert!(healer.graph().validate().is_ok());
    }
}
