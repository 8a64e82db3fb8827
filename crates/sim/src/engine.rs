//! The engine abstraction: what any message-delivery substrate must provide.

use xheal_graph::NodeId;
use xheal_trace::SharedTracer;

/// One in-flight message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sender.
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// Payload (arbitrary size — LOCAL model).
    pub payload: M,
}

/// Cumulative cost counters of a network.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Synchronous rounds stepped.
    pub rounds: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Messages dropped (recipient left the network, or a fault ate them).
    pub dropped: u64,
}

impl Counters {
    /// Component-wise difference (`self - earlier`), for per-operation costs.
    pub fn since(&self, earlier: Counters) -> Counters {
        Counters {
            rounds: self.rounds - earlier.rounds,
            messages: self.messages - earlier.messages,
            dropped: self.dropped - earlier.dropped,
        }
    }
}

/// A message-delivery substrate for the distributed protocol.
///
/// Implementations own the processor membership, the in-flight message
/// store, and the cost counters (the paper's success metrics 4 and 5:
/// recovery time in rounds, communication in messages). The protocol layer
/// (`xheal-dist`'s actor runtime) is generic over this trait;
/// [`crate::AsyncNetwork`] implements it for every delivery model, from
/// lockstep LOCAL rounds to latency, reordering and drop faults.
///
/// The contract every implementation upholds:
///
/// - messages are never delivered in the round they were sent — the earliest
///   delivery is the next [`NetworkEngine::step`];
/// - delivery is deterministic given the send sequence (engines with
///   randomness must seed it);
/// - messages addressed to unregistered processors are *dropped*, counted in
///   [`Counters::dropped`], and surfaced through
///   [`NetworkEngine::drain_dropped_into`] so the protocol layer can observe
///   the loss.
pub trait NetworkEngine<M> {
    /// Registers a processor. Idempotent.
    fn add_node(&mut self, v: NodeId);

    /// Removes a processor; its pending inbox is discarded and in-flight
    /// messages to it will be dropped at delivery time.
    fn remove_node(&mut self, v: NodeId);

    /// Is the processor registered?
    fn contains(&self, v: NodeId) -> bool;

    /// Number of registered processors.
    fn len(&self) -> usize;

    /// True when no processors are registered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Submits a message for future delivery.
    ///
    /// # Panics
    ///
    /// Panics if the sender is not registered (recipients may legitimately
    /// disappear before delivery; senders cannot).
    fn send(&mut self, from: NodeId, to: NodeId, payload: M);

    /// Advances one round, delivering everything due. Returns the number of
    /// messages delivered into inboxes this round.
    fn step(&mut self) -> usize;

    /// Are any messages still staged or in flight?
    fn has_pending(&self) -> bool;

    /// Appends the ids of nodes with non-empty inboxes to `out`, ascending.
    /// Takes a caller-owned buffer so the protocol loop allocates nothing
    /// per round.
    fn nodes_with_mail_into(&self, out: &mut Vec<NodeId>);

    /// Moves all messages waiting at `v` into `out` (cleared first).
    fn drain_inbox_into(&mut self, v: NodeId, out: &mut Vec<Envelope<M>>);

    /// Moves every message dropped since the last call into `out` (cleared
    /// first) — the protocol layer uses these to cancel expectations on
    /// responses that will never arrive.
    fn drain_dropped_into(&mut self, out: &mut Vec<Envelope<M>>);

    /// Cost counters so far.
    fn counters(&self) -> Counters;

    /// Installs a payload classifier for per-kind send accounting: every
    /// subsequent [`NetworkEngine::send`] tallies its payload under
    /// `labels[classify(&payload)]` (out-of-range indices are ignored).
    /// Installing a classifier resets any previous tally. The protocol
    /// layer uses this to break communication complexity down by message
    /// type without the engine knowing the payload enum.
    ///
    /// The default implementation ignores the classifier — engines
    /// without per-kind accounting report empty [`NetworkEngine::kind_counts`].
    fn set_classifier(&mut self, labels: &'static [&'static str], classify: fn(&M) -> usize) {
        let _ = (labels, classify);
    }

    /// The per-kind sent-message breakdown as parallel `(labels, counts)`
    /// slices — both empty until a classifier is installed via
    /// [`NetworkEngine::set_classifier`].
    fn kind_counts(&self) -> (&'static [&'static str], &[u64]) {
        (&[], &[])
    }

    /// Attaches (or detaches, with `None`) a tracer recording a `net.step`
    /// transport instant per delivering round. The default implementation
    /// ignores the handle — engines without transport instrumentation stay
    /// silent in traces.
    fn set_tracer(&mut self, tracer: Option<SharedTracer>) {
        let _ = tracer;
    }
}
