//! `routed-traffic`: greedy-routed requests over a ring+chords overlay on
//! the calendar-queue transport, while `Xheal` heals deletions mid-flight.

use std::time::Instant;

use xheal_core::{Event, Xheal, XhealConfig};
use xheal_graph::{CsrView, Graph, NodeId};
use xheal_sim::{AsyncConfig, AsyncNetwork, Envelope, NetworkEngine};
use xheal_workload::{bfs_distance, greedy_next_hop, route_hops, BfsScratch, RoutingRequest};

use crate::inputs::{self, Rng, RoutedTape};
use crate::measure::{median, quantile, secs, Off, Probe, Span, Traced};
use crate::quality;
use crate::report::Report;
use crate::{passes, report_timing, Config, Timing};

const KAPPA: usize = 4;
const PLANNER_SEED: u64 = 7;
const TTL: u32 = 128;
/// Tick-latency histogram width; the last bucket absorbs any tail.
const LAT_HIST: usize = 4096;

struct Size {
    n: usize,
    requests: usize,
    window: u64,
    deletions: usize,
}

/// The overlay a pass drives: the healer, the transport, and the routing
/// snapshot of the healed graph.
struct Overlay {
    healer: Xheal,
    net: AsyncNetwork<RoutingRequest>,
    csr: CsrView,
    ring: u64,
}

impl Overlay {
    /// Builds the engines, then warms every mailbox once (a self-addressed
    /// message per processor, drained) so the pass starts from steady state.
    fn new(g0: &Graph, link_seed: u64) -> Overlay {
        let healer = Xheal::new(g0, XhealConfig::new(KAPPA).with_seed(PLANNER_SEED));
        let mut net = AsyncNetwork::new(AsyncConfig::uniform(1, 2, link_seed).with_jitter(1));
        let warm = RoutingRequest {
            dst: NodeId::new(u64::MAX),
            hops: 0,
            ttl: 0,
            born: 0,
        };
        for v in g0.nodes() {
            net.add_node(v);
            net.send(v, v, warm);
        }
        let (mut with_mail, mut mail) = (Vec::new(), Vec::new());
        while net.has_pending() {
            net.step();
            net.nodes_with_mail_into(&mut with_mail);
            for &v in &with_mail {
                net.drain_inbox_into(v, &mut mail);
            }
        }
        let csr = healer.graph().csr_view();
        Overlay {
            healer,
            net,
            csr,
            ring: g0.node_count() as u64,
        }
    }
}

/// What one pass delivered and measured.
struct Traffic {
    completed: u64,
    lost: u64,
    retried: u64,
    sends: u64,
    hops: u64,
    lat_hist: Vec<u64>,
    /// The heals: `events_per_s` and `heal_p*_us` time `heal_delete`.
    timing: Timing,
    edge_ops: u64,
    errors: u64,
    rounds: u64,
}

/// Sends every queued hop, in queue order.
fn send_all(
    net: &mut AsyncNetwork<RoutingRequest>,
    outbox: &mut Vec<(NodeId, NodeId, RoutingRequest)>,
    probe: &mut impl Probe,
) {
    probe.time(Span::SimSend, || {
        for (from, to, req) in outbox.drain(..) {
            net.send(from, to, req);
        }
    });
}

/// One pass over the tape in rounds: inject up to the window and send, step,
/// drain, route what arrived and send; every `requests / (deletions + 1)`
/// injections one victim is deleted and healed and the routing snapshot
/// refreshed. Each phase covers a whole round, so a traced pass pays a few
/// timer reads per round, and the transport sees the sends in the order a
/// hop-by-hop loop would issue them.
fn pass(o: &mut Overlay, tape: &RoutedTape, window: u64, probe: &mut impl Probe) -> Traffic {
    let mut t = Traffic {
        completed: 0,
        lost: 0,
        retried: 0,
        sends: 0,
        hops: 0,
        lat_hist: vec![0; LAT_HIST],
        timing: Timing::default(),
        edge_ops: 0,
        errors: 0,
        rounds: 0,
    };
    let requests = tape.requests.len();
    let churn_every = requests / (tape.victims.len() + 1);
    let mut outbox: Vec<(NodeId, NodeId, RoutingRequest)> = Vec::new();
    let (mut with_mail, mut mail, mut arrived, mut dropped): (Vec<NodeId>, _, _, _) = (
        Vec::new(),
        Vec::new(),
        Vec::<Envelope<RoutingRequest>>::new(),
        Vec::new(),
    );
    let (mut next, mut open, mut steps, mut churned) = (0usize, 0u64, 0u64, 0usize);
    let c0 = o.net.counters();
    let t0 = Instant::now();
    probe.start();
    loop {
        probe.time(Span::TrafficRoute, || {
            while next < requests && open < window {
                let (s, d) = tape.requests[next];
                next += 1;
                let si = o.csr.index_of(s).expect("sources are never deleted");
                let di = o.csr.index_of(d).expect("destinations are never deleted");
                match greedy_next_hop(&o.csr, si, di, o.ring, 1) {
                    Some(h) => {
                        let req = RoutingRequest {
                            dst: d,
                            hops: 1,
                            ttl: TTL,
                            born: steps,
                        };
                        outbox.push((s, o.csr.node(h), req));
                        open += 1;
                    }
                    None => t.lost += 1,
                }
            }
        });
        send_all(&mut o.net, &mut outbox, probe);
        probe.time(Span::SimStep, || o.net.step());
        steps += 1;
        probe.time(Span::SimDrain, || {
            o.net.nodes_with_mail_into(&mut with_mail);
            for &v in &with_mail {
                o.net.drain_inbox_into(v, &mut mail);
                arrived.append(&mut mail);
            }
            o.net.drain_dropped_into(&mut dropped);
        });
        probe.time(Span::TrafficRoute, || {
            for env in arrived.drain(..) {
                let req = env.payload;
                if env.to == req.dst {
                    t.completed += 1;
                    t.hops += u64::from(req.hops);
                    t.lat_hist[((steps - req.born) as usize).min(LAT_HIST - 1)] += 1;
                    open -= 1;
                    continue;
                }
                let at = o.csr.index_of(env.to).expect("mail reaches live nodes");
                let di = o
                    .csr
                    .index_of(req.dst)
                    .expect("destinations are never deleted");
                match greedy_next_hop(&o.csr, at, di, o.ring, u64::from(req.hops)) {
                    Some(h) if req.ttl > 0 => {
                        let fwd = RoutingRequest {
                            hops: req.hops + 1,
                            ttl: req.ttl - 1,
                            ..req
                        };
                        outbox.push((env.to, o.csr.node(h), fwd));
                    }
                    _ => {
                        t.lost += 1;
                        open -= 1;
                    }
                }
            }
            // A next hop deleted with the request in flight: the sender
            // routes it again over the healed overlay.
            for env in dropped.drain(..) {
                let req = env.payload;
                let hop = match (o.csr.index_of(env.from), o.csr.index_of(req.dst)) {
                    (Some(at), Some(di)) => {
                        greedy_next_hop(&o.csr, at, di, o.ring, u64::from(req.hops))
                    }
                    _ => None,
                };
                match hop {
                    Some(h) => {
                        t.retried += 1;
                        outbox.push((env.from, o.csr.node(h), req));
                    }
                    None => {
                        t.lost += 1;
                        open -= 1;
                    }
                }
            }
        });
        send_all(&mut o.net, &mut outbox, probe);
        if churned < tape.victims.len() && next >= (churned + 1) * churn_every {
            let victim = tape.victims[churned];
            churned += 1;
            let begin = Instant::now();
            let healed = probe.time(Span::ExecutorHeal, || o.healer.heal_delete(victim));
            let dt = secs(begin);
            match healed {
                Ok(report) => {
                    t.timing.record(dt, true);
                    t.edge_ops += (report.edges_added + report.edges_removed) as u64;
                }
                Err(_) => {
                    t.timing.record(dt, false);
                    t.errors += 1;
                }
            }
            probe.time(Span::SimDrain, || o.net.remove_node(victim));
            probe.time(Span::GraphSnapshot, || o.csr = o.healer.graph().csr_view());
        }
        if next == requests && open == 0 {
            break;
        }
    }
    t.timing.wall_s = secs(t0);
    probe.stop();
    t.rounds = steps;
    let c = o.net.counters();
    t.sends = (c.messages - c0.messages) + (c.dropped - c0.dropped);
    t
}

/// `routed-traffic` at full or smoke size.
pub fn routed(cfg: &Config) -> Report {
    let size = if cfg.smoke {
        Size {
            n: 2_000,
            requests: 20_000,
            window: 512,
            deletions: 10,
        }
    } else {
        Size {
            n: 4_096,
            requests: 200_000,
            window: 2_048,
            deletions: 200,
        }
    };
    let t = Instant::now();
    let top = inputs::ring_with_chords(size.n, &mut Rng::stream(cfg.seed, "routed.graph"));
    let tape = inputs::routed_tape(
        &top,
        size.deletions,
        size.requests,
        &mut Rng::stream(cfg.seed, "routed.tape"),
    );
    let link_seed = Rng::stream(cfg.seed, "routed.links").next_u64();
    let g0 = top.graph();
    let gen_s = secs(t);
    let deletions: Vec<Event> = tape
        .victims
        .iter()
        .map(|&node| Event::Delete { node })
        .collect();
    let fingerprint = inputs::fingerprint(&top, &deletions, &tape.requests) ^ link_seed;
    drop(top);

    let mut r = Report::default();
    let mut healed = None;
    let (passes, setups) = passes(
        cfg,
        || Overlay::new(&g0, link_seed),
        |mut overlay, i| {
            let p = pass(&mut overlay, &tape, size.window, &mut Off);
            if i == 0 {
                healed = Some(overlay);
            }
            p
        },
    );
    let healed = healed.expect("at least one pass");

    let first = &passes[0];
    let requests = tape.requests.len() as u64;
    r.attempted = passes.len() as u64 * (requests + tape.victims.len() as u64);
    r.failed = passes.iter().map(|p| p.lost + p.errors).sum();
    r.check(
        "routed accounting",
        passes.iter().all(|p| p.completed + p.lost == requests),
        format!(
            "{} completed, {} lost, {} retried",
            first.completed, first.lost, first.retried
        ),
    );
    r.check(
        "lost <= 1%",
        passes.iter().all(|p| p.lost * 100 <= requests),
        format!("{} lost of {requests}", first.lost),
    );
    r.check(
        "no apply returns Err",
        passes.iter().all(|p| p.errors == 0),
        format!("{} heals per pass", first.timing.events()),
    );
    r.check(
        "passes agree",
        passes
            .iter()
            .all(|p| p.sends == first.sends && p.lat_hist == first.lat_hist),
        format!("{} passes, {} sends", passes.len(), first.sends),
    );
    let mut walls: Vec<f64> = passes.iter().map(|p| p.timing.wall_s).collect();
    let untraced_wall = median(&mut walls);
    r.note(format!(
        "  routed: {} sends per pass, {:.0} msgs/s at the median pass",
        first.sends,
        first.sends as f64 / untraced_wall
    ));
    report_timing(&mut r, passes.iter().map(|p| &p.timing), setups);
    r.set(
        "edge_ops_per_repair",
        first.edge_ops as f64 / tape.victims.len() as f64,
        format!("{} deletions", tape.victims.len()),
    );
    r.set("harness.gen_s", gen_s, "input and tape generation");
    r.set(
        "traffic.hops_mean",
        first.hops as f64 / first.completed as f64,
        "completed requests",
    );
    r.set(
        "traffic.route_p99_ticks",
        hist_quantile(&first.lat_hist, first.completed, 0.99),
        format!("{} requests", first.completed),
    );
    r.set(
        "traffic.stretch_p99",
        route_stretch_p99(&healed.csr, healed.ring, cfg.seed),
        "200 sampled routes",
    );

    if cfg.trace {
        let comps = quality::components(&healed.csr);
        r.check("components == 1", comps == 1, format!("{comps}"));
        drop(healed);
        let mut overlay = Overlay::new(&g0, link_seed);
        let mut probe = Traced::new(16 * (first.rounds as usize + tape.victims.len()) + 64);
        let traced = pass(&mut overlay, &tape, size.window, &mut probe);
        r.check(
            "traced pass matches",
            traced.sends == first.sends && traced.lat_hist == first.lat_hist,
            format!("{} sends", traced.sends),
        );
        r.set(
            "trace.overhead",
            traced.timing.wall_s / untraced_wall - 1.0,
            "traced vs untraced pass",
        );
        r.layers(probe.finish(&cfg.timer), cfg);
    } else {
        quality::report(&mut r, healed.healer.graph(), &g0, cfg.seed);
    }
    r.fingerprint = fingerprint;
    r
}

/// The smallest value whose cumulative count reaches quantile `q` of
/// `total` (bucket index = value).
fn hist_quantile(hist: &[u64], total: u64, q: f64) -> f64 {
    let target = ((total as f64 * q).ceil() as u64).max(1);
    let mut seen = 0;
    for (v, &count) in hist.iter().enumerate() {
        seen += count;
        if seen >= target {
            return v as f64;
        }
    }
    (hist.len() - 1) as f64
}

/// p99 of greedy route length over shortest path, on the final snapshot.
fn route_stretch_p99(csr: &CsrView, ring: u64, seed: u64) -> f64 {
    let mut rng = Rng::stream(seed, "routed.stretch");
    let mut scratch = BfsScratch::default();
    let mut ratios: Vec<f64> = (0..200)
        .filter_map(|_| {
            let (s, d) = (rng.below(csr.len()), rng.below(csr.len()));
            let hops = route_hops(csr, s, d, ring, TTL)?;
            let best = bfs_distance(csr, s, d, &mut scratch)?;
            Some(f64::from(hops) / f64::from(best.max(1)))
        })
        .collect();
    quantile(&mut ratios, 0.99)
}
