//! The pay-for-what-you-use contract, measured with the counting global
//! allocator (`--features bench`): disabled hooks allocate nothing at all,
//! an attached tracer's steady-state recording allocates nothing after its
//! preallocated ring warms up, and the transport's steady-state rounds
//! (send, step, find and drain the inboxes with mail) allocate nothing once
//! every inbox, wheel bucket and drain buffer has been used.
//!
//! The counter is process-global, so the tests take turns on one lock: one
//! test's allocations never land in another's window. The libtest harness
//! still allocates from its own threads (progress lines, panic payloads),
//! so each window is measured best-of-N: harness noise is transient, while
//! a real per-call allocation would taint every attempt with one count per
//! loop iteration.
#![cfg(feature = "bench")]

use std::sync::{Mutex, MutexGuard, PoisonError};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xheal_bench::alloc_count;
use xheal_core::{Xheal, XhealConfig};
use xheal_graph::{generators, NodeId};
use xheal_sim::{AsyncConfig, AsyncNetwork, NetworkEngine};
use xheal_trace::{hook, Layer, SharedTracer, Tracer};

const ATTEMPTS: usize = 8;

static TURN: Mutex<()> = Mutex::new(());

/// Holds the allocation counter for one test. The lock guards no data, so a
/// failed test's poisoned lock is taken over as is.
fn turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Smallest allocation delta of `ATTEMPTS` runs of `window`.
fn min_delta(mut window: impl FnMut()) -> u64 {
    (0..ATTEMPTS)
        .map(|_| {
            let before = alloc_count();
            window();
            alloc_count() - before
        })
        .min()
        .expect("at least one attempt")
}

#[test]
fn disabled_hooks_allocate_nothing() {
    let _turn = turn();
    let none: Option<SharedTracer> = None;
    // Warm any lazy allocator state before the measured windows.
    hook::begin(&none, Layer::Executor, "exec.repair", 1, 0);
    let delta = min_delta(|| {
        for i in 0..10_000u64 {
            hook::begin(&none, Layer::Executor, "exec.repair", i, 0);
            hook::instant(&none, Layer::Planner, "plan.case", i, 2);
            hook::begin_lane(&none, 3, Layer::Planner, "spec.component", i, 0);
            hook::end_lane(&none, 3, Layer::Planner, "spec.component", i, 0);
            hook::bump(&none, "repairs", 1);
            hook::end(&none, Layer::Executor, "exec.repair", i, 0);
        }
    });
    assert_eq!(delta, 0, "the disabled-tracer path must be branch-only");
}

#[test]
fn attached_tracer_records_without_steady_state_allocations() {
    let _turn = turn();
    let tracer = Tracer::shared(1 << 10);
    let handle = Some(tracer.clone());
    // Warm-up: touch every lane and the metrics counter once (first use
    // allocates their registry entries), and wrap the ring at least once.
    for i in 0..2_000u64 {
        hook::begin(&handle, Layer::Executor, "exec.repair", i, 0);
        hook::begin_lane(&handle, 1, Layer::Planner, "spec.component", i, 0);
        hook::end_lane(&handle, 1, Layer::Planner, "spec.component", i, 0);
        hook::bump(&handle, "repairs", 1);
        hook::end(&handle, Layer::Executor, "exec.repair", i, 0);
    }
    let delta = min_delta(|| {
        for i in 0..10_000u64 {
            hook::begin(&handle, Layer::Executor, "exec.repair", i, 0);
            hook::begin_lane(&handle, 1, Layer::Planner, "spec.component", i, 0);
            hook::end_lane(&handle, 1, Layer::Planner, "spec.component", i, 0);
            hook::bump(&handle, "repairs", 1);
            hook::end(&handle, Layer::Executor, "exec.repair", i, 0);
        }
    });
    assert_eq!(
        delta, 0,
        "steady-state recording must reuse the preallocated ring"
    );
    let t = hook::lock(&tracer);
    assert!(t.dropped() > 0, "the ring should have wrapped");
    assert_eq!(t.len(), t.capacity());
}

#[test]
fn untraced_engine_churn_is_alloc_identical_to_seed_behavior() {
    let _turn = turn();
    // The instrumented engine with no tracer attached must allocate
    // exactly as much as an identical run: the hooks contribute zero, so
    // two identical seeded schedules have identical allocation counts.
    let run = || {
        min_delta(|| {
            let g0 = generators::ring_with_chords(96);
            let mut eng = Xheal::new(&g0, XhealConfig::new(4).with_seed(11));
            for i in 0..24u64 {
                let v = NodeId::new((i * 7) % 96);
                if eng.graph().contains_node(v) {
                    eng.heal_delete(v).expect("victim is live");
                }
            }
        })
    };
    let (a, b) = (run(), run());
    assert!(a > 0, "engine churn should allocate (sanity)");
    assert_eq!(a, b);
}

#[test]
fn transport_steady_state_rounds_allocate_nothing() {
    let _turn = turn();
    let csr = generators::ring_with_chords(2000).csr_view();
    let mut net: AsyncNetwork<u64> =
        AsyncNetwork::new(AsyncConfig::uniform(1, 2, 42).with_jitter(1));
    for i in 0..csr.len() {
        net.add_node(csr.node(i));
    }
    let mut with_mail: Vec<NodeId> = Vec::new();
    let mut mail = Vec::with_capacity(64);
    // Warm sweep: an inbox allocates on its first delivery, so one
    // self-addressed message per node, delivered and drained, touches
    // every inbox (and sizes the wheel buckets and `with_mail`).
    for i in 0..csr.len() {
        net.send(csr.node(i), csr.node(i), 0);
    }
    while net.has_pending() {
        net.step();
        net.nodes_with_mail_into(&mut with_mail);
        for &v in &with_mail {
            net.drain_inbox_into(v, &mut mail);
        }
    }
    // 512 messages random-walk over the CSR: every delivery is forwarded
    // to a random neighbour of its recipient, so the in-flight count stays
    // 512 and every round sends, steps and drains.
    let mut rng = StdRng::seed_from_u64(7);
    let hop = |rng: &mut StdRng, i: usize| {
        let nbrs = csr.neighbors_of(i);
        csr.node(nbrs[rng.random_range(0..nbrs.len())] as usize)
    };
    for _ in 0..512 {
        let i = rng.random_range(0..csr.len());
        let next = hop(&mut rng, i);
        net.send(csr.node(i), next, 0);
    }
    let mut round = || {
        net.step();
        net.nodes_with_mail_into(&mut with_mail);
        for &v in &with_mail {
            net.drain_inbox_into(v, &mut mail);
            for env in mail.drain(..) {
                let i = csr.index_of(env.to).expect("every node stays live");
                let next = hop(&mut rng, i);
                net.send(env.to, next, env.payload + 1);
            }
        }
    };
    for _ in 0..50 {
        round();
    }
    let delta = min_delta(|| {
        for _ in 0..300 {
            round();
        }
    });
    assert_eq!(delta, 0, "steady-state transport rounds allocated");
    assert_eq!(net.in_flight(), 512, "the walk lost messages");
}
