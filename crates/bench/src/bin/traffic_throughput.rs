//! Routed-traffic throughput harness: millions of seeded request routings
//! over the healed overlay, driven through the `xheal-sim` message
//! substrate under churn.
//!
//! Two measurements:
//!
//! - **substrate microbench** — the calendar-wheel + mailbox-arena engine
//!   ([`AsyncNetwork`]) driven through a seeded send/step schedule at
//!   ≥ 100k messages in flight, reporting ns/send and ns/delivery;
//! - **routed traffic run** — a `generators::ring_with_chords` overlay of `n`
//!   processors, greedy ring-distance routing
//!   ([`xheal_workload::greedy_next_hop`]) forwarded hop-by-hop as real
//!   engine messages under per-link latency + jitter, while a seeded
//!   adversary deletes processors mid-flight and Xheal heals around them
//!   (CSR snapshot refreshed per churn event). Reports messages/sec,
//!   effective ns/send, steady-state allocations per step (the
//!   zero-alloc ledger), hop and stretch distributions, per-request
//!   tick-latency percentiles (p50/p95/p99 of injection-to-delivery
//!   engine rounds), and delivered/lost accounting.
//!
//! A third section drives the distributed repair protocol over the async
//! substrate and reports its per-kind message breakdown
//! (`DistXheal::message_breakdown`), so the JSON records *where* the
//! communication budget goes, not just its total.
//!
//! Output is `BENCH_traffic.json` (schema `xheal-bench-traffic/v4`,
//! override the path with `--out`); `--smoke` shrinks sizes for CI. With
//! the `bench` feature the shared counting allocator records the
//! allocation ledger. `--trace <path>` additionally captures a fully
//! instrumented cross-layer companion run as chrome://tracing JSON (see
//! `xheal_bench::capture_trace`). Run the full measurement with:
//!
//! ```text
//! cargo run --release -p xheal-bench --features bench --bin traffic_throughput
//! ```

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xheal_bench::{alloc_count, ALLOC_COUNTING};
use xheal_core::{Xheal, XhealConfig};
use xheal_dist::{DistXheal, Msg};
use xheal_graph::{generators, CsrView, NodeId};
use xheal_sim::{AsyncConfig, AsyncNetwork, Envelope, NetworkEngine};
use xheal_workload::{
    bfs_distance, greedy_next_hop, route_hops, BfsScratch, RoutingRequest, TrafficGen,
};

const KAPPA: usize = 4;
const PLANNER_SEED: u64 = 7;
const TRAFFIC_SEED: u64 = 0x007A_FF1C;
const LINK_SEED: u64 = 42;

// ---------------------------------------------------------------------------
// Substrate microbench
// ---------------------------------------------------------------------------

struct MicroResult {
    ns_per_send: f64,
    ns_per_delivery: f64,
    delivered: u64,
}

/// Times `timed` sends at ≥ `preload` messages already in flight, then the
/// full drain (step + inbox sweeps).
fn micro(
    net: &mut AsyncNetwork<RoutingRequest>,
    k: u64,
    preload: usize,
    timed: usize,
) -> MicroResult {
    for i in 0..k {
        net.add_node(NodeId::new(i));
    }
    let mut rng = StdRng::seed_from_u64(0x1417);
    let mut pairs = Vec::with_capacity(preload + timed);
    for _ in 0..preload + timed {
        let a = rng.random_range(0..k);
        let mut b = rng.random_range(0..k - 1);
        if b >= a {
            b += 1;
        }
        pairs.push((NodeId::new(a), NodeId::new(b)));
    }
    let req = RoutingRequest {
        dst: NodeId::new(0),
        hops: 0,
        ttl: 0,
        born: 0,
    };
    for &(a, b) in &pairs[..preload] {
        net.send(a, b, req);
    }
    let t0 = Instant::now();
    for &(a, b) in &pairs[preload..] {
        net.send(a, b, req);
    }
    let ns_per_send = t0.elapsed().as_nanos() as f64 / timed as f64;

    let mut with_mail = Vec::new();
    let mut mail = Vec::new();
    let mut delivered = 0u64;
    let t1 = Instant::now();
    while net.has_pending() {
        net.step();
        net.nodes_with_mail_into(&mut with_mail);
        for &v in &with_mail {
            net.drain_inbox_into(v, &mut mail);
            delivered += mail.len() as u64;
        }
    }
    let ns_per_delivery = t1.elapsed().as_nanos() as f64 / delivered.max(1) as f64;
    MicroResult {
        ns_per_send,
        ns_per_delivery,
        delivered,
    }
}

// ---------------------------------------------------------------------------
// Routed traffic run
// ---------------------------------------------------------------------------

const HIST: usize = 256;
/// Tick-latency histogram width: TTL hops × worst-case per-link delay
/// stays well inside this; the last bucket absorbs any tail.
const LAT_HIST: usize = 4096;

#[derive(Default)]
struct Stats {
    completed: u64,
    lost: u64,
    hops_hist: Vec<u64>,
    lat_hist: Vec<u64>,
}

/// The smallest value whose cumulative count reaches quantile `q` of
/// `total` (histogram bucket index = value).
fn hist_quantile(hist: &[u64], total: u64, q: f64) -> u64 {
    let target = ((total as f64 * q).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (v, &cnt) in hist.iter().enumerate() {
        seen += cnt;
        if seen >= target {
            return v as u64;
        }
    }
    hist.len().saturating_sub(1) as u64
}

struct TrafficRun {
    engine: AsyncNetwork<RoutingRequest>,
    csr: CsrView,
    ring: u64,
    ttl: u32,
    gen: TrafficGen,
    stats: Stats,
    with_mail: Vec<NodeId>,
    mail: Vec<Envelope<RoutingRequest>>,
    dropbuf: Vec<Envelope<RoutingRequest>>,
    open: u64,
    injected: u64,
    steps: u64,
}

impl TrafficRun {
    fn inject_one(&mut self) {
        let (si, di) = self.gen.pair(&self.csr);
        self.injected += 1;
        match greedy_next_hop(&self.csr, si, di, self.ring, 1) {
            Some(next) => {
                self.engine.send(
                    self.csr.node(si),
                    self.csr.node(next),
                    RoutingRequest {
                        dst: self.csr.node(di),
                        hops: 1,
                        ttl: self.ttl,
                        born: self.steps,
                    },
                );
                self.open += 1;
            }
            None => self.stats.lost += 1, // isolated source: never, post-heal
        }
    }

    /// One engine round: deliver, then complete/forward/lose every message.
    fn drive_step(&mut self) {
        self.engine.step();
        self.steps += 1;
        self.engine.nodes_with_mail_into(&mut self.with_mail);
        for i in 0..self.with_mail.len() {
            let at = self.with_mail[i];
            let mut mail = std::mem::take(&mut self.mail);
            self.engine.drain_inbox_into(at, &mut mail);
            for env in mail.drain(..) {
                let req = env.payload;
                if env.to == req.dst {
                    self.stats.completed += 1;
                    self.stats.hops_hist[(req.hops as usize).min(HIST - 1)] += 1;
                    let latency = (self.steps - req.born) as usize;
                    self.stats.lat_hist[latency.min(LAT_HIST - 1)] += 1;
                    self.open -= 1;
                } else {
                    self.forward(env.to, req);
                }
            }
            self.mail = mail;
        }
        let mut dropbuf = std::mem::take(&mut self.dropbuf);
        self.engine.drain_dropped_into(&mut dropbuf);
        self.stats.lost += dropbuf.len() as u64;
        self.open -= dropbuf.len() as u64;
        dropbuf.clear();
        self.dropbuf = dropbuf;
    }

    fn forward(&mut self, at: NodeId, req: RoutingRequest) {
        if req.ttl == 0 {
            self.stats.lost += 1;
            self.open -= 1;
            return;
        }
        let (Some(ai), Some(di)) = (self.csr.index_of(at), self.csr.index_of(req.dst)) else {
            // The destination was deleted while the request was in flight.
            self.stats.lost += 1;
            self.open -= 1;
            return;
        };
        match greedy_next_hop(&self.csr, ai, di, self.ring, u64::from(req.hops)) {
            Some(next) => self.engine.send(
                at,
                self.csr.node(next),
                RoutingRequest {
                    dst: req.dst,
                    hops: req.hops + 1,
                    ttl: req.ttl - 1,
                    born: req.born,
                },
            ),
            None => {
                self.stats.lost += 1;
                self.open -= 1;
            }
        }
    }

    /// Deletes one random live processor, heals around it, refreshes the
    /// CSR snapshot, and settles the worst-case delay so in-flight traffic
    /// to the victim drains (allocation-attributed to churn, not steady
    /// state).
    fn churn_one(&mut self, healer: &mut Xheal, rng: &mut StdRng) {
        let victim = self.csr.node(rng.random_range(0..self.csr.len()));
        healer.heal_delete(victim).expect("victim is live");
        self.engine.remove_node(victim);
        self.csr = healer.graph().csr_view();
        for _ in 0..self.engine.config().worst_case_delay() {
            self.drive_step();
        }
    }
}

struct TrafficReport {
    nodes: usize,
    requests: u64,
    completed: u64,
    lost: u64,
    churn_events: u64,
    steps: u64,
    sends: u64,
    wall_seconds: f64,
    messages_per_sec: f64,
    ns_per_send_effective: f64,
    steady_steps: u64,
    steady_allocs: u64,
    hops_mean: f64,
    hops_p99: u64,
    latency_mean: f64,
    latency_p50: u64,
    latency_p95: u64,
    latency_p99: u64,
    stretch_samples: usize,
    stretch_mean: f64,
    stretch_p99: f64,
    stretch_unreachable: usize,
}

#[allow(clippy::too_many_arguments)]
fn traffic(
    n: usize,
    requests: u64,
    window: u64,
    ttl: u32,
    churn_events: u64,
    stretch_samples: usize,
) -> TrafficReport {
    println!("\nbuilding ring+chords overlay: n = {n} ...");
    let g0 = generators::ring_with_chords(n);
    let mut healer = Xheal::new(&g0, XhealConfig::new(KAPPA).with_seed(PLANNER_SEED));
    let mut engine: AsyncNetwork<RoutingRequest> =
        AsyncNetwork::new(AsyncConfig::uniform(1, 2, LINK_SEED).with_jitter(1));
    for v in g0.nodes() {
        engine.add_node(v);
    }
    // Pre-warm sweep: every inbox buffer allocates lazily on its first-ever
    // delivery, so without this the coupon-collector tail of
    // never-yet-mailed processors would trickle one-time allocations deep
    // into the measured phase. One self-addressed broadcast, drained and
    // discarded, touches every slot (and sizes the drain buffers) before
    // the clock starts.
    let mut with_mail = Vec::new();
    let mut mail = Vec::new();
    let warm = RoutingRequest {
        dst: NodeId::new(u64::MAX),
        hops: 0,
        ttl: 0,
        born: 0,
    };
    for v in g0.nodes() {
        engine.send(v, v, warm);
    }
    for _ in 0..engine.config().worst_case_delay() {
        engine.step();
        engine.nodes_with_mail_into(&mut with_mail);
        let warmed = std::mem::take(&mut with_mail);
        for &v in &warmed {
            engine.drain_inbox_into(v, &mut mail);
        }
        with_mail = warmed;
    }
    assert!(!engine.has_pending(), "warm sweep failed to drain");
    // The sweep leaves the per-round drain buffer sized for one message;
    // give the bench-side buffers real headroom while setup may allocate.
    mail.reserve(1024);
    let dropbuf = Vec::with_capacity(1024);
    let c0 = engine.counters();
    let mut run = TrafficRun {
        engine,
        csr: healer.graph().csr_view(),
        ring: n as u64,
        ttl,
        gen: TrafficGen::new(TRAFFIC_SEED),
        stats: Stats {
            hops_hist: vec![0; HIST],
            lat_hist: vec![0; LAT_HIST],
            ..Stats::default()
        },
        with_mail,
        mail,
        dropbuf,
        open: 0,
        injected: 0,
        steps: 0,
    };
    let mut churn_rng = StdRng::seed_from_u64(0xC4u64);
    let churn_every = (requests / (churn_events + 1)).max(1);
    let warmup = requests / 10;
    let mut churned = 0u64;
    let mut steady_allocs = 0u64;
    let mut steady_steps = 0u64;

    println!(
        "routing {requests} requests (window {window}, ttl {ttl}, \
         {churn_events} churn deletions) ..."
    );
    let t0 = Instant::now();
    loop {
        let steady = run.injected >= warmup;
        let a0 = alloc_count();
        while run.injected < requests && run.open < window {
            run.inject_one();
        }
        run.drive_step();
        if steady {
            steady_allocs += alloc_count() - a0;
            steady_steps += 1;
        }
        if churned < churn_events && run.injected >= (churned + 1) * churn_every {
            run.churn_one(&mut healer, &mut churn_rng);
            churned += 1;
        }
        if run.injected == requests && run.open == 0 {
            break;
        }
    }
    let wall = t0.elapsed().as_secs_f64();

    let c = run.engine.counters();
    let sends = (c.messages - c0.messages) + (c.dropped - c0.dropped);
    assert_eq!(
        run.stats.completed + run.stats.lost,
        requests,
        "request accounting leaked"
    );

    // Observed hop distribution of completed requests.
    let hops_total: u64 = run
        .stats
        .hops_hist
        .iter()
        .enumerate()
        .map(|(h, &cnt)| h as u64 * cnt)
        .sum();
    let hops_mean = hops_total as f64 / run.stats.completed.max(1) as f64;
    let p99_target = run.stats.completed - run.stats.completed / 100;
    let mut seen = 0u64;
    let mut hops_p99 = 0u64;
    for (h, &cnt) in run.stats.hops_hist.iter().enumerate() {
        seen += cnt;
        if seen >= p99_target {
            hops_p99 = h as u64;
            break;
        }
    }

    // Per-request tick latency of completed requests (injection to
    // delivery, engine rounds: link delays included, unlike the hop
    // count).
    let lat_total: u64 = run
        .stats
        .lat_hist
        .iter()
        .enumerate()
        .map(|(l, &cnt)| l as u64 * cnt)
        .sum();
    let latency_mean = lat_total as f64 / run.stats.completed.max(1) as f64;
    let latency_p50 = hist_quantile(&run.stats.lat_hist, run.stats.completed, 0.50);
    let latency_p95 = hist_quantile(&run.stats.lat_hist, run.stats.completed, 0.95);
    let latency_p99 = hist_quantile(&run.stats.lat_hist, run.stats.completed, 0.99);

    // Stretch on the final healed snapshot: greedy hops vs BFS shortest
    // path over a fresh request sample.
    let mut sgen = TrafficGen::new(TRAFFIC_SEED ^ 0x57);
    let mut scratch = BfsScratch::default();
    let mut ratios = Vec::with_capacity(stretch_samples);
    let mut unreachable = 0usize;
    for _ in 0..stretch_samples {
        let (s, d) = sgen.pair(&run.csr);
        match (
            route_hops(&run.csr, s, d, run.ring, ttl),
            bfs_distance(&run.csr, s, d, &mut scratch),
        ) {
            (Some(h), Some(b)) => ratios.push(f64::from(h) / f64::from(b.max(1))),
            _ => unreachable += 1,
        }
    }
    ratios.sort_unstable_by(f64::total_cmp);
    let stretch_mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    let stretch_p99 = ratios
        .get(ratios.len().saturating_sub(1 + ratios.len() / 100))
        .copied()
        .unwrap_or(f64::NAN);

    TrafficReport {
        nodes: n,
        requests,
        completed: run.stats.completed,
        lost: run.stats.lost,
        churn_events: churned,
        steps: run.steps,
        sends,
        wall_seconds: wall,
        messages_per_sec: sends as f64 / wall,
        ns_per_send_effective: wall * 1e9 / sends as f64,
        steady_steps,
        steady_allocs,
        hops_mean,
        hops_p99,
        latency_mean,
        latency_p50,
        latency_p95,
        latency_p99,
        stretch_samples: ratios.len(),
        stretch_mean,
        stretch_p99,
        stretch_unreachable: unreachable,
    }
}

// ---------------------------------------------------------------------------
// Protocol message breakdown
// ---------------------------------------------------------------------------

struct ProtocolReport {
    nodes: usize,
    deletions: u64,
    batch_victims: u64,
    rounds: u64,
    messages: u64,
    kinds: Vec<(&'static str, u64)>,
}

/// Drives the distributed repair protocol over the async substrate through
/// a seeded deletion schedule (singles plus `DeleteBatch` bursts) and
/// breaks its communication complexity down by message kind — the
/// per-phase counters behind [`DistXheal::message_breakdown`], showing
/// where the budget goes (probe/grant fan-out vs. splice gossip).
fn protocol_breakdown(n: usize, deletions: usize, batches: usize) -> ProtocolReport {
    let g0 = generators::ring_with_chords(n);
    let mut net = DistXheal::builder()
        .kappa(KAPPA)
        .seed(PLANNER_SEED)
        .engine(AsyncNetwork::<Msg>::new(AsyncConfig::uniform(
            1, 3, LINK_SEED,
        )))
        .build(&g0);
    let mut rng = StdRng::seed_from_u64(0xB4EAD);
    let mut live: Vec<NodeId> = g0.nodes().collect();
    for _ in 0..deletions {
        let v = live.swap_remove(rng.random_range(0..live.len()));
        net.delete(v).expect("victim is live");
    }
    let mut batch_victims = 0u64;
    for _ in 0..batches {
        let victims: Vec<NodeId> = (0..8)
            .map(|_| live.swap_remove(rng.random_range(0..live.len())))
            .collect();
        batch_victims += victims.len() as u64;
        net.delete_batch(&victims).expect("victims are live");
    }
    let c = net.counters();
    let (labels, counts) = net.message_breakdown();
    ProtocolReport {
        nodes: n,
        deletions: deletions as u64,
        batch_victims,
        rounds: c.rounds,
        messages: c.messages,
        kinds: labels.iter().copied().zip(counts.iter().copied()).collect(),
    }
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_traffic.json".to_string());

    let (micro_nodes, preload, timed) = if smoke {
        (2_000u64, 5_000usize, 40_000usize)
    } else {
        (100_000, 120_000, 1_000_000)
    };
    let (n, requests, window, ttl, churn_events, stretch_samples) = if smoke {
        (2_000usize, 2_500u64, 256u64, 64u32, 6u64, 40usize)
    } else {
        (100_000, 1_200_000, 8_192, 128, 48, 200)
    };

    println!("traffic_throughput: substrate microbench + routed traffic run");
    println!(
        "mode: {}, alloc counting: {ALLOC_COUNTING}",
        if smoke { "smoke" } else { "full" }
    );

    println!(
        "\nsubstrate microbench: {micro_nodes} processors, {preload} preloaded \
         in flight, {timed} timed sends"
    );
    let mut calendar: AsyncNetwork<RoutingRequest> =
        AsyncNetwork::new(AsyncConfig::uniform(1, 8, LINK_SEED).with_jitter(4));
    let sub = micro(&mut calendar, micro_nodes, preload, timed);
    assert_eq!(
        sub.delivered,
        (preload + timed) as u64,
        "lossless substrate must deliver every send"
    );
    println!(
        "  calendar wheel : {:8.1} ns/send  {:8.1} ns/delivery",
        sub.ns_per_send, sub.ns_per_delivery
    );

    let (proto_nodes, proto_dels, proto_batches) = if smoke {
        (200usize, 12usize, 2usize)
    } else {
        (2_000, 60, 6)
    };
    let proto = protocol_breakdown(proto_nodes, proto_dels, proto_batches);
    println!(
        "\nprotocol message breakdown: {} processors, {} deletions + {} victims batched",
        proto.nodes, proto.deletions, proto.batch_victims
    );
    println!(
        "  totals         : {} messages over {} rounds",
        proto.messages, proto.rounds
    );
    let sent_total: u64 = proto.kinds.iter().map(|&(_, c)| c).sum();
    for &(label, count) in &proto.kinds {
        println!(
            "  {label:<15}: {count:>8}  ({:.1}%)",
            count as f64 * 100.0 / sent_total.max(1) as f64
        );
    }

    let t = traffic(n, requests, window, ttl, churn_events, stretch_samples);
    let allocs_per_step = t.steady_allocs as f64 / t.steady_steps.max(1) as f64;
    let allocs_per_million = t.steady_allocs as f64 * 1e6 / t.sends.max(1) as f64;
    println!("\nrouted traffic over the healed overlay:");
    println!("  requests       : {} ({} lost)", t.requests, t.lost);
    println!(
        "  engine traffic : {} sends over {} rounds in {:.2}s",
        t.sends, t.steps, t.wall_seconds
    );
    println!(
        "  throughput     : {:.0} messages/sec  ({:.1} ns/send effective, \
         full routing loop)",
        t.messages_per_sec, t.ns_per_send_effective
    );
    println!(
        "  steady state   : {} allocs over {} steps ({:.4} allocs/step)",
        t.steady_allocs, t.steady_steps, allocs_per_step
    );
    println!(
        "  hops           : mean {:.2}, p99 {}",
        t.hops_mean, t.hops_p99
    );
    println!(
        "  tick latency   : mean {:.2}, p50 {}, p95 {}, p99 {}",
        t.latency_mean, t.latency_p50, t.latency_p95, t.latency_p99
    );
    println!(
        "  stretch        : mean {:.3}, p99 {:.3} over {} samples \
         ({} unreachable)",
        t.stretch_mean, t.stretch_p99, t.stretch_samples, t.stretch_unreachable
    );

    // Acceptance gates (full mode; smoke sizes are too small to be fair).
    if !smoke {
        assert!(
            t.requests >= 1_000_000,
            "full run must route at least 1M requests"
        );
        assert!(
            t.completed as f64 >= 0.99 * t.requests as f64,
            "delivery rate collapsed: {} of {}",
            t.completed,
            t.requests
        );
        if ALLOC_COUNTING {
            assert_eq!(
                t.steady_allocs, 0,
                "steady-state stepping allocated ({allocs_per_step:.4}/step)"
            );
        }
    }

    let kinds_json = proto
        .kinds
        .iter()
        .map(|&(label, count)| format!("\"{label}\": {count}"))
        .collect::<Vec<_>>()
        .join(", ");
    let proto_json = format!(
        "{{\"nodes\": {}, \"deletions\": {}, \"batch_victims\": {}, \"rounds\": {}, \
         \"messages\": {}, \"kinds\": {{{kinds_json}}}}}",
        proto.nodes, proto.deletions, proto.batch_victims, proto.rounds, proto.messages,
    );
    let json = format!(
        "{{\n  \"schema\": \"xheal-bench-traffic/v4\",\n  \"smoke\": {smoke},\n  \
         \"protocol\": {proto_json},\n  \
         \"alloc_counting\": {ALLOC_COUNTING},\n  \"substrate\": {{\n    \
         \"nodes\": {micro_nodes},\n    \"preload_in_flight\": {preload},\n    \
         \"timed_sends\": {timed},\n    \"calendar\": {{\"ns_per_send\": {:.2}, \
         \"ns_per_delivery\": {:.2}}},\n    \"delivered\": {}\n  }},\n  \
         \"traffic\": {{\n    \
         \"nodes\": {},\n    \"requests\": {},\n    \"completed\": {},\n    \
         \"lost\": {},\n    \"churn_events\": {},\n    \"rounds\": {},\n    \
         \"messages_sent\": {},\n    \"wall_seconds\": {:.3},\n    \
         \"messages_per_sec\": {:.0},\n    \"ns_per_send_effective\": {:.2},\n    \
         \"steady\": {{\"steps\": {}, \"allocs\": {}, \"allocs_per_step\": {:.4}, \
         \"allocs_per_million_messages\": {:.2}}},\n    \
         \"hops\": {{\"mean\": {:.3}, \"p99\": {}}},\n    \
         \"latency_ticks\": {{\"mean\": {:.3}, \"p50\": {}, \"p95\": {}, \
         \"p99\": {}}},\n    \
         \"stretch\": {{\"samples\": {}, \"mean\": {:.4}, \"p99\": {:.4}, \
         \"unreachable\": {}}}\n  }}\n}}\n",
        sub.ns_per_send,
        sub.ns_per_delivery,
        sub.delivered,
        t.nodes,
        t.requests,
        t.completed,
        t.lost,
        t.churn_events,
        t.steps,
        t.sends,
        t.wall_seconds,
        t.messages_per_sec,
        t.ns_per_send_effective,
        t.steady_steps,
        t.steady_allocs,
        allocs_per_step,
        allocs_per_million,
        t.hops_mean,
        t.hops_p99,
        t.latency_mean,
        t.latency_p50,
        t.latency_p95,
        t.latency_p99,
        t.stretch_samples,
        t.stretch_mean,
        t.stretch_p99,
        t.stretch_unreachable,
    );
    std::fs::write(&out_path, &json).expect("write traffic report");
    println!("\nwrote {out_path}");

    if let Some(trace_path) = xheal_bench::trace_arg(&args) {
        xheal_bench::capture_trace(&trace_path, PLANNER_SEED);
    }
}
