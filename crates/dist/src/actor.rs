//! Per-node repair state machines and the runtime that hosts them.
//!
//! Every processor of the network owns a [`RepairActor`]: a small state
//! machine advanced purely by message arrivals. A repair is *coordinated*
//! by its least-id live participant, whose actor walks the
//! probe → grant → link → splice phases; every other participant reacts
//! statelessly (grant on probe, ack on splice). All messages carry their
//! repair's sequence number, so any number of repairs can be in flight
//! concurrently — the actors demultiplex, and the runtime attributes
//! per-repair rounds and messages by tag.
//!
//! The [`ActorRuntime`] is the simulation harness around the actors: it
//! owns the [`NetworkEngine`], steps it, delivers mail to the actors, and
//! plays two oracle roles a deployment would implement differently:
//!
//! - **failure detection** — when a message is dropped (its recipient died
//!   mid-protocol, or a fault ate it), the runtime cancels the matching
//!   expectation at the repair's coordinator instead of letting it wait
//!   forever on a reply that cannot come (a real system would time out);
//! - **coordinator failover** — when a coordinator dies, its repair state
//!   moves to the next live participant, which finishes the remaining
//!   phases (participants hold the same plan after the grant exchange).
//!
//! The actors never touch the network graph: plans are applied to the
//! graph by the executor, which is what keeps the distributed topologies
//! bit-identical to the centralized ones.

use std::collections::BTreeSet;

use xheal_core::{HealCase, PlanAction, RepairCost};
use xheal_graph::{CloudColor, FxHashMap, NodeId};
use xheal_sim::{Counters, Envelope, NetworkEngine};

use crate::messages::Msg;

/// One planned edge instruction: both live endpoints must install/strip.
#[derive(Clone, Debug)]
struct LinkCmd {
    a: NodeId,
    b: NodeId,
    color: CloudColor,
    install: bool,
}

/// One cloud under construction: its splice gossip runs `waves` =
/// ⌈log₂ m⌉ acknowledged waves over the member rotation.
#[derive(Clone, Debug)]
struct SpliceScript {
    color: CloudColor,
    members: Vec<NodeId>,
    waves: u32,
}

/// Cost labels the executor attaches to a repair before kickoff.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CostMeta {
    pub case: HealCase,
    pub black_degree: usize,
    pub degree: usize,
    pub combined: bool,
}

/// The immutable script of one repair, distilled from its plan actions at
/// kickoff: who participates, which edge instructions to disseminate, and
/// which splice gossips to run.
#[derive(Clone, Debug)]
struct RepairScript {
    /// Announced victims of this repair — known-dead, never addressed.
    dead: Vec<NodeId>,
    /// Participants alive at kickoff, ascending; `[0]` coordinates.
    participants: Vec<NodeId>,
    links: Vec<LinkCmd>,
    splices: Vec<SpliceScript>,
    meta: CostMeta,
}

/// Mutable runtime bookkeeping of one in-flight repair.
#[derive(Clone, Debug)]
struct ScriptState {
    script: RepairScript,
    /// Current coordinator (changes on failover).
    coordinator: NodeId,
    /// Engine round at kickoff.
    start_round: u64,
    /// Messages of this repair currently in flight.
    in_flight: u64,
    /// Messages of this repair delivered so far.
    delivered: u64,
}

/// Progress of one splice gossip at the coordinator.
#[derive(Clone, Debug)]
struct TrackState {
    next_wave: u32,
    awaiting: Option<u32>,
    done: bool,
}

/// Coordinator-side state of one repair: the phase the state machine is in,
/// expressed as what it is still waiting for.
#[derive(Clone, Debug)]
struct Coordination {
    /// Participants still owing a Grant.
    pending_grants: BTreeSet<NodeId>,
    /// Per-splice progress, parallel to the script's `splices`.
    tracks: Vec<TrackState>,
    /// Link/unlink instructions (and wave 0) have been disseminated.
    links_sent: bool,
    /// All phases finished; the repair completes once its last message
    /// lands.
    done: bool,
}

/// Per-node protocol state: the repairs this node currently coordinates.
#[derive(Clone, Debug, Default)]
pub(crate) struct RepairActor {
    coordinating: FxHashMap<u64, Coordination>,
}

/// The simulation harness hosting the actors over a [`NetworkEngine`].
#[derive(Clone, Debug)]
pub(crate) struct ActorRuntime<N> {
    engine: N,
    actors: FxHashMap<NodeId, RepairActor>,
    active: FxHashMap<u64, ScriptState>,
    completed: Vec<RepairCost>,
    // Reusable per-round buffers: the delivery loop allocates nothing.
    buf_nodes: Vec<NodeId>,
    buf_mail: Vec<Envelope<Msg>>,
    buf_dropped: Vec<Envelope<Msg>>,
    buf_sends: Vec<(NodeId, NodeId, Msg)>,
}

impl<N: NetworkEngine<Msg>> ActorRuntime<N> {
    pub(crate) fn new(engine: N) -> Self {
        ActorRuntime {
            engine,
            actors: FxHashMap::default(),
            active: FxHashMap::default(),
            completed: Vec::new(),
            buf_nodes: Vec::new(),
            buf_mail: Vec::new(),
            buf_dropped: Vec::new(),
            buf_sends: Vec::new(),
        }
    }

    pub(crate) fn engine(&self) -> &N {
        &self.engine
    }

    pub(crate) fn engine_mut(&mut self) -> &mut N {
        &mut self.engine
    }

    pub(crate) fn counters(&self) -> Counters {
        self.engine.counters()
    }

    pub(crate) fn add_node(&mut self, v: NodeId) {
        self.engine.add_node(v);
    }

    /// Removes a processor: in-flight messages to it will drop, and any
    /// repair it coordinated fails over to its next live participant.
    pub(crate) fn remove_node(&mut self, v: NodeId) {
        self.engine.remove_node(v);
        let Some(actor) = self.actors.remove(&v) else {
            return;
        };
        for (repair, coordination) in actor.coordinating {
            self.fail_over(repair, coordination);
        }
    }

    /// Moves a dead coordinator's repair state to its successor — the next
    /// live participant — or finishes the repair if none is left.
    fn fail_over(&mut self, repair: u64, mut coordination: Coordination) {
        let successor = {
            let engine = &self.engine;
            let Some(st) = self.active.get(&repair) else {
                return;
            };
            st.script
                .participants
                .iter()
                .copied()
                .find(|&p| engine.contains(p))
        };
        match successor {
            None => self.finish(repair),
            Some(s) => {
                self.active
                    .get_mut(&repair)
                    .expect("checked above")
                    .coordinator = s;
                // The successor's own pending contributions are local now.
                coordination.pending_grants.remove(&s);
                self.actors
                    .entry(s)
                    .or_default()
                    .coordinating
                    .insert(repair, coordination);
                self.advance(repair);
            }
        }
    }

    /// Registers and kicks off one repair distilled from `actions`. The
    /// coordinator's probe wave is staged immediately; repairs with no live
    /// participants complete on the spot with zero cost.
    ///
    /// `dead` are the announced victims (sorted).
    pub(crate) fn begin_repair(
        &mut self,
        repair: u64,
        actions: &[PlanAction],
        dead: &[NodeId],
        meta: CostMeta,
    ) {
        debug_assert!(dead.is_sorted());
        let participant_set: BTreeSet<NodeId> = actions
            .iter()
            .flat_map(PlanAction::participants)
            .filter(|&p| dead.binary_search(&p).is_err() && self.engine.contains(p))
            .collect();
        let participants: Vec<NodeId> = participant_set.into_iter().collect();
        let Some(&coordinator) = participants.first() else {
            // Nothing to coordinate (degree <= 1 drop, or empty stage).
            self.completed.push(RepairCost {
                repair,
                rounds: 0,
                messages: 0,
                black_degree: meta.black_degree,
                degree: meta.degree,
                case: meta.case,
                combined: meta.combined,
            });
            return;
        };

        let mut links = Vec::new();
        let mut splices = Vec::new();
        for action in actions {
            let color = action.color();
            let delta = action.delta();
            for &(a, b) in &delta.removed {
                links.push(LinkCmd {
                    a,
                    b,
                    color,
                    install: false,
                });
            }
            for &(a, b) in &delta.added {
                links.push(LinkCmd {
                    a,
                    b,
                    color,
                    install: true,
                });
            }
            if let PlanAction::BuildCloud { color, members, .. } = action {
                if members.len() >= 2 {
                    let m = members.len();
                    splices.push(SpliceScript {
                        color: *color,
                        members: members.clone(),
                        // ceil(log2 m) gossip waves finish the splice.
                        waves: usize::BITS - (m - 1).leading_zeros(),
                    });
                }
            }
        }

        // Everyone but the coordinator, whose own state is local.
        let pending_grants: BTreeSet<NodeId> = participants[1..].iter().copied().collect();
        let tracks = vec![
            TrackState {
                next_wave: 0,
                awaiting: None,
                done: false,
            };
            splices.len()
        ];
        self.active.insert(
            repair,
            ScriptState {
                script: RepairScript {
                    dead: dead.to_vec(),
                    participants,
                    links,
                    splices,
                    meta,
                },
                coordinator,
                start_round: self.engine.counters().rounds,
                in_flight: 0,
                delivered: 0,
            },
        );
        for p in pending_grants.iter().copied().collect::<Vec<_>>() {
            self.post(coordinator, p, Msg::Probe { repair });
        }
        self.actors
            .entry(coordinator)
            .or_default()
            .coordinating
            .insert(
                repair,
                Coordination {
                    pending_grants,
                    tracks,
                    links_sent: false,
                    done: false,
                },
            );
        self.advance(repair);
        self.finalize_completed();
    }

    /// Runs every active repair to completion. If the engine goes quiet
    /// while repairs remain (every live participant of them died), the
    /// stuck repairs are closed out with the cost they accrued.
    pub(crate) fn run_active(&mut self) {
        self.finalize_completed();
        while !self.active.is_empty() {
            if !self.engine.has_pending() {
                let stuck: Vec<u64> = self.active.keys().copied().collect();
                for repair in stuck {
                    self.finish(repair);
                }
                break;
            }
            self.step_once();
        }
    }

    /// One engine round: step, deliver all mail to the actors, process
    /// drops, finalize completed repairs.
    pub(crate) fn step_once(&mut self) {
        self.engine.step();
        let mut nodes = std::mem::take(&mut self.buf_nodes);
        let mut mail = std::mem::take(&mut self.buf_mail);
        self.engine.nodes_with_mail_into(&mut nodes);
        for &v in &nodes {
            self.engine.drain_inbox_into(v, &mut mail);
            for env in mail.drain(..) {
                self.handle_delivery(env);
            }
        }
        self.buf_nodes = nodes;
        self.buf_mail = mail;
        self.process_drops();
        self.finalize_completed();
    }

    /// True when messages are staged or in flight.
    pub(crate) fn has_pending(&self) -> bool {
        self.engine.has_pending()
    }

    /// Hands over the costs of repairs finished since the last call,
    /// ascending by repair sequence.
    pub(crate) fn take_completed(&mut self) -> Vec<RepairCost> {
        let mut out = std::mem::take(&mut self.completed);
        out.sort_by_key(|c| c.repair);
        out
    }

    // ------------------------------------------------------------------
    // Message plumbing
    // ------------------------------------------------------------------

    /// Stages a protocol message, counting it against its repair.
    fn post(&mut self, from: NodeId, to: NodeId, msg: Msg) {
        if let Some(st) = self.active.get_mut(&msg.repair()) {
            st.in_flight += 1;
        }
        self.engine.send(from, to, msg);
    }

    fn handle_delivery(&mut self, env: Envelope<Msg>) {
        let repair = env.payload.repair();
        let Some(st) = self.active.get_mut(&repair) else {
            return; // stale tail of an already-closed repair
        };
        st.in_flight -= 1;
        st.delivered += 1;
        match env.payload {
            Msg::Probe { repair } => self.post(env.to, env.from, Msg::Grant { repair }),
            Msg::Grant { repair } => self.grant_received(repair, env.from),
            // Edge instructions are local installs at the endpoint; the
            // executor applies the identical plan deltas to the graph.
            Msg::Link { .. } | Msg::Unlink { .. } => {}
            Msg::Splice {
                repair,
                color,
                wave,
            } => {
                self.post(
                    env.to,
                    env.from,
                    Msg::SpliceAck {
                        repair,
                        color,
                        wave,
                    },
                );
            }
            Msg::SpliceAck {
                repair,
                color,
                wave,
            } => self.ack_received(repair, color, wave),
        }
    }

    /// Cancels expectations on messages that will never arrive: a dropped
    /// probe or grant waives the grant, a dropped splice or ack waives the
    /// wave — the runtime's failure-detector oracle.
    fn process_drops(&mut self) {
        let mut dropped = std::mem::take(&mut self.buf_dropped);
        self.engine.drain_dropped_into(&mut dropped);
        for env in dropped.drain(..) {
            let repair = env.payload.repair();
            let Some(st) = self.active.get_mut(&repair) else {
                continue;
            };
            st.in_flight -= 1;
            match env.payload {
                Msg::Probe { repair } => self.grant_received(repair, env.to),
                Msg::Grant { repair, .. } => self.grant_received(repair, env.from),
                Msg::Splice {
                    repair,
                    color,
                    wave,
                }
                | Msg::SpliceAck {
                    repair,
                    color,
                    wave,
                } => self.ack_received(repair, color, wave),
                Msg::Link { .. } | Msg::Unlink { .. } => {}
            }
        }
        self.buf_dropped = dropped;
    }

    // ------------------------------------------------------------------
    // Coordinator transitions
    // ------------------------------------------------------------------

    /// A grant (or its waiver) arrived from `from`.
    fn grant_received(&mut self, repair: u64, from: NodeId) {
        let Some(st) = self.active.get(&repair) else {
            return;
        };
        let coordinator = st.coordinator;
        if let Some(c) = self
            .actors
            .get_mut(&coordinator)
            .and_then(|a| a.coordinating.get_mut(&repair))
        {
            c.pending_grants.remove(&from);
        }
        self.advance(repair);
    }

    /// A splice ack (or its waiver) for `(color, wave)` arrived.
    fn ack_received(&mut self, repair: u64, color: CloudColor, wave: u32) {
        let Some(st) = self.active.get(&repair) else {
            return;
        };
        let coordinator = st.coordinator;
        let Some(c) = self
            .actors
            .get_mut(&coordinator)
            .and_then(|a| a.coordinating.get_mut(&repair))
        else {
            return;
        };
        let Some(i) = st.script.splices.iter().position(|s| s.color == color) else {
            return;
        };
        let track = &mut c.tracks[i];
        if track.awaiting != Some(wave) {
            return; // stale or duplicate ack
        }
        track.awaiting = None;
        track.next_wave = wave + 1;
        if track.next_wave >= st.script.splices[i].waves {
            track.done = true;
        }
        self.advance(repair);
    }

    /// Drives the coordinator's state machine as far as current knowledge
    /// allows: disseminate once grants are complete, launch the next wave
    /// of any idle splice track, mark done when nothing is left.
    fn advance(&mut self, repair: u64) {
        let Some(st) = self.active.get(&repair) else {
            return;
        };
        let coordinator = st.coordinator;
        let Some(c) = self
            .actors
            .get(&coordinator)
            .and_then(|a| a.coordinating.get(&repair))
        else {
            return;
        };
        if !c.pending_grants.is_empty() || c.done {
            return;
        }

        let mut sends = std::mem::take(&mut self.buf_sends);
        sends.clear();
        // Re-borrow mutably now that the sends buffer is detached.
        let st = self.active.get(&repair).expect("checked above");
        let script = &st.script;
        let c = self
            .actors
            .get_mut(&coordinator)
            .and_then(|a| a.coordinating.get_mut(&repair))
            .expect("checked above");

        if !c.links_sent {
            c.links_sent = true;
            for cmd in &script.links {
                let msg = |other: NodeId| {
                    if cmd.install {
                        Msg::Link {
                            repair,
                            color: cmd.color,
                            other,
                        }
                    } else {
                        Msg::Unlink {
                            repair,
                            color: cmd.color,
                            other,
                        }
                    }
                };
                // Each live endpoint installs its side; the coordinator's
                // own side is local computation, announced victims are
                // known-dead and skipped. An *unannounced* casualty still
                // gets addressed — the engine drops the message and the
                // failure detector reacts, exactly like a real deployment.
                for (end, other) in [(cmd.a, cmd.b), (cmd.b, cmd.a)] {
                    if end != coordinator && script.dead.binary_search(&end).is_err() {
                        sends.push((coordinator, end, msg(other)));
                    }
                }
            }
        }
        // Launch the next wave of every idle, unfinished track.
        for (i, track) in c.tracks.iter_mut().enumerate() {
            if track.done || track.awaiting.is_some() {
                continue;
            }
            let sp = &script.splices[i];
            let eligible: Vec<NodeId> = sp
                .members
                .iter()
                .copied()
                .filter(|&u| u != coordinator && script.dead.binary_search(&u).is_err())
                .collect();
            if eligible.is_empty() {
                // The whole splice is local computation at the coordinator.
                track.done = true;
                continue;
            }
            let wave = track.next_wave;
            let target = eligible[wave as usize % eligible.len()];
            track.awaiting = Some(wave);
            sends.push((
                coordinator,
                target,
                Msg::Splice {
                    repair,
                    color: sp.color,
                    wave,
                },
            ));
        }
        if c.tracks.iter().all(|t| t.done) {
            c.done = true;
        }
        for (from, to, msg) in sends.drain(..) {
            self.post(from, to, msg);
        }
        self.buf_sends = sends;
    }

    // ------------------------------------------------------------------
    // Completion
    // ------------------------------------------------------------------

    /// Closes every repair whose coordinator is done and whose last message
    /// has landed.
    fn finalize_completed(&mut self) {
        let ready: Vec<u64> = self
            .active
            .iter()
            .filter(|(repair, st)| {
                st.in_flight == 0
                    && self
                        .actors
                        .get(&st.coordinator)
                        .and_then(|a| a.coordinating.get(repair))
                        .is_some_and(|c| c.done)
            })
            .map(|(&repair, _)| repair)
            .collect();
        for repair in ready {
            self.finish(repair);
        }
    }

    /// Records the repair's cost and clears its protocol state.
    fn finish(&mut self, repair: u64) {
        let Some(st) = self.active.remove(&repair) else {
            return;
        };
        if let Some(actor) = self.actors.get_mut(&st.coordinator) {
            actor.coordinating.remove(&repair);
        }
        let meta = st.script.meta;
        self.completed.push(RepairCost {
            repair,
            rounds: self.engine.counters().rounds - st.start_round,
            messages: st.delivered,
            black_degree: meta.black_degree,
            degree: meta.degree,
            case: meta.case,
            combined: meta.combined,
        });
    }
}
