//! The kept snapshot behind `Graph::csr_view`: after every kind of edit the
//! view equals a full build, and two views of one graph state share storage.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use xheal_graph::{generators, CloudColor, EdgeLabels, EdgeMutation, Graph, NodeId};

/// The ids the random edits draw from: small dense ids; 300 and 301, which
/// leave the live ids too sparse for an id table while either lives; and
/// spill ids at and past 2^24, which the arena interns through its hash map.
const IDS: [u64; 24] = [
    0,
    1,
    2,
    3,
    4,
    5,
    6,
    7,
    8,
    9,
    10,
    11,
    12,
    13,
    14,
    15,
    300,
    301,
    1 << 24,
    (1 << 24) + 1,
    (1 << 24) + 9,
    1 << 40,
    1 << 40 | 3,
    u64::MAX - 1,
];

/// Ids no edit ever adds, for `index_of` misses inside and past the table.
const NEVER: [u64; 5] = [16, 299, 302, (1 << 24) + 2, u64::MAX];

fn n(raw: u64) -> NodeId {
    NodeId::new(raw)
}

fn pick(rng: &mut StdRng) -> NodeId {
    n(IDS[rng.random_range(0..IDS.len())])
}

/// One random edit through one of the graph's mutators. Errors (an absent
/// endpoint, a self-loop, a node added twice) are part of the input: they
/// must leave the snapshot as it was.
fn random_edit(g: &mut Graph, rng: &mut StdRng, incident: &mut Vec<(NodeId, EdgeLabels)>) {
    let (a, b) = (pick(rng), pick(rng));
    let c = CloudColor::new(rng.random_range(0..3u64));
    match rng.random_range(0..20u32) {
        0..=3 => {
            let _ = g.add_node(a);
        }
        4 => {
            let _ = g.remove_node(a);
        }
        5 => {
            incident.clear();
            let _ = g.remove_node_into(a, incident);
        }
        6..=8 => {
            let _ = g.add_black_edge(a, b);
        }
        9..=11 => {
            let _ = g.add_colored_edge(a, b, c);
        }
        12..=13 => {
            g.strip_color(a, b, c);
        }
        14 => {
            g.strip_black(a, b);
        }
        15 => {
            let _ = g.remove_edge(a, b);
        }
        16..=18 => {
            let batch = random_batch(g, rng);
            g.apply_delta(&batch)
                .expect("adds name live, distinct endpoints");
        }
        _ => *g = g.clone(),
    }
}

/// An `apply_delta` batch: adds between live, distinct endpoints (the batch
/// validates them up front), strips anywhere (absent endpoints and labels
/// are no-ops), so one batch can create, relabel and drop edges.
fn random_batch(g: &Graph, rng: &mut StdRng) -> Vec<EdgeMutation> {
    let len = rng.random_range(0..12usize);
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let (a, b) = (pick(rng), pick(rng));
        let color = rng
            .random::<bool>()
            .then(|| CloudColor::new(rng.random_range(0..3u64)));
        let add = rng.random::<bool>();
        if add && (a == b || !g.contains_node(a) || !g.contains_node(b)) {
            continue;
        }
        out.push(EdgeMutation { a, b, color, add });
    }
    out
}

/// `g.csr_view()`, built from the kept snapshot, equals a clone's, which
/// has none and so reads every row from the arena, and both list exactly
/// the graph's live nodes.
fn assert_equals_a_full_build(g: &Graph) -> Result<(), TestCaseError> {
    let kept = g.csr_view();
    let full = g.clone().csr_view();
    let live = g.node_vec();
    prop_assert_eq!(full.nodes(), live.as_slice());
    prop_assert_eq!(kept.nodes(), full.nodes());
    prop_assert_eq!(kept.offsets(), full.offsets());
    prop_assert_eq!(kept.neighbors_flat(), full.neighbors_flat());
    for &id in IDS.iter().chain(&NEVER) {
        prop_assert_eq!(kept.index_of(n(id)), full.index_of(n(id)));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random runs of every mutator, one to three edits between snapshots,
    /// with recycled slots, re-added ids, spill ids, sparse ids, label-only
    /// edits and clones along the way.
    #[test]
    fn every_snapshot_equals_a_full_build(seed in any::<u64>(), steps in 20usize..160) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = Graph::new();
        let mut incident = Vec::new();
        for _ in 0..steps {
            for _ in 0..rng.random_range(1..=3usize) {
                random_edit(&mut g, &mut rng, &mut incident);
            }
            assert_equals_a_full_build(&g)?;
        }
        prop_assert!(g.validate().is_ok(), "{:?}", g.validate());
    }
}

#[test]
fn snapshots_of_one_graph_state_share_storage() {
    let mut g = generators::ring_with_chords(64);
    let a = g.csr_view();
    let b = g.csr_view();
    assert_eq!(a.neighbors_flat().as_ptr(), b.neighbors_flat().as_ptr());

    // A label-only edit changes no neighbor set: still the same storage.
    assert!(!g.add_colored_edge(n(0), n(1), CloudColor::new(5)).unwrap());
    assert!(!g.strip_black(n(0), n(1)));
    let c = g.csr_view();
    assert_eq!(a.neighbors_flat().as_ptr(), c.neighbors_flat().as_ptr());

    // A clone keeps no snapshot; an edge drop forces a rebuild.
    let d = g.clone().csr_view();
    assert_ne!(a.neighbors_flat().as_ptr(), d.neighbors_flat().as_ptr());
    g.remove_edge(n(0), n(1)).unwrap();
    let e = g.csr_view();
    assert_ne!(a.neighbors_flat().as_ptr(), e.neighbors_flat().as_ptr());
    assert_eq!(
        a.edge_count(),
        e.edge_count() + 1,
        "the old view is unchanged"
    );
    assert_equals_a_full_build(&g).unwrap();
}
