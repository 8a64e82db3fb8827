//! Error atomicity for every engine of the arena's roster: an invalid
//! event returns `Err` and leaves the engine exactly as it was, so a twin
//! that never saw it stays bit-identical from then on.

use rand::{rngs::StdRng, Rng, SeedableRng};
use xheal_bench::arena::{build_engine, ENGINES};
use xheal_core::Event;
use xheal_graph::{generators, Graph, NodeId};

const WARMUP: usize = 80;
const AFTER: usize = 200;
/// Deletions stop at this many live nodes.
const MIN_NODES: usize = 24;

/// One valid event drawn from the live graph: an insertion with one to
/// three contacts, a deletion, or a batch of two or three victims.
fn valid_event(g: &Graph, rng: &mut StdRng, next_id: &mut u64) -> Event {
    let mut live = g.node_vec();
    let roll = rng.random_range(0..10u32);
    if roll < 5 || live.len() <= MIN_NODES {
        let node = NodeId::new(*next_id);
        *next_id += 1;
        let k = rng.random_range(1..=3usize);
        let mut neighbors = Vec::with_capacity(k);
        for _ in 0..k {
            neighbors.push(live.swap_remove(rng.random_range(0..live.len())));
        }
        Event::Insert { node, neighbors }
    } else if roll < 9 {
        let node = live[rng.random_range(0..live.len())];
        Event::Delete { node }
    } else {
        let k = rng.random_range(2..=3usize);
        let nodes = (0..k)
            .map(|_| live.swap_remove(rng.random_range(0..live.len())))
            .collect();
        Event::DeleteBatch { nodes }
    }
}

/// The six invalid events: an existing id, an absent contact, a self
/// contact, an absent victim, a batch with an absent victim, and a batch
/// that lists one victim twice. `unused` is an id no event ever takes.
fn invalid_events(g: &Graph, unused: u64) -> Vec<Event> {
    let live = g.node_vec();
    let (a, b) = (live[0], live[live.len() / 2]);
    let (fresh, absent) = (NodeId::new(unused), NodeId::new(unused + 1));
    vec![
        Event::Insert {
            node: a,
            neighbors: vec![b],
        },
        Event::Insert {
            node: fresh,
            neighbors: vec![b, absent],
        },
        Event::Insert {
            node: fresh,
            neighbors: vec![b, fresh],
        },
        Event::Delete { node: absent },
        Event::DeleteBatch {
            nodes: vec![a, absent],
        },
        Event::DeleteBatch {
            nodes: vec![a, b, a],
        },
    ]
}

#[test]
fn invalid_events_leave_every_engine_unchanged() {
    let g0 = generators::random_regular(64, 6, &mut StdRng::seed_from_u64(11));
    for key in ENGINES {
        let mut probed = build_engine(key, &g0, 5);
        let mut twin = build_engine(key, &g0, 5);
        let mut rng = StdRng::seed_from_u64(0xA70);
        let mut next_id = 1_000;
        for step in 0..WARMUP {
            let e = valid_event(probed.graph(), &mut rng, &mut next_id);
            assert!(probed.apply(&e).is_ok(), "{key} warm-up {step}: {e:?}");
            assert!(twin.apply(&e).is_ok(), "{key} warm-up {step}: {e:?}");
        }

        let fingerprint = probed.graph().edge_fingerprint();
        let nodes = probed.graph().node_count();
        for e in invalid_events(probed.graph(), 1 << 40) {
            assert!(probed.apply(&e).is_err(), "{key} accepted {e:?}");
            assert_eq!(
                probed.graph().edge_fingerprint(),
                fingerprint,
                "{key}: {e:?} changed the edges"
            );
            assert_eq!(
                probed.graph().node_count(),
                nodes,
                "{key}: {e:?} changed the nodes"
            );
        }

        for step in 0..AFTER {
            let e = valid_event(twin.graph(), &mut rng, &mut next_id);
            assert!(probed.apply(&e).is_ok(), "{key} step {step}: {e:?}");
            assert!(twin.apply(&e).is_ok(), "{key} step {step}: {e:?}");
            assert_eq!(
                probed.graph().edge_fingerprint(),
                twin.graph().edge_fingerprint(),
                "{key} diverged from its twin at step {step}"
            );
        }
        assert_eq!(probed.graph(), twin.graph(), "{key}");
    }
}
