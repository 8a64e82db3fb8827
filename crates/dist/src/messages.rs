//! The recovery protocol's message vocabulary.
//!
//! The per-repair cost record ([`xheal_core::RepairCost`]) lives in
//! `xheal-core` so structured [`xheal_core::Outcome`]s are executor-neutral;
//! this crate re-exports it.

use xheal_graph::{CloudColor, NodeId};

/// Messages of the distributed recovery protocol (Section 5's LOCAL model:
/// unbounded payloads, one hop per round).
///
/// A repair runs in phases, each a message-driven transition of the
/// per-node actors: the coordinator **probes** every affected node,
/// affected nodes **grant** their local cloud state back, the coordinator
/// disseminates **link**/**unlink** edge instructions, and cloud
/// construction finishes with O(log m) **splice** gossip waves (the
/// distributed Hamilton-cycle splice of the Law–Siu expander), each wave
/// acknowledged so the next can launch without a global clock.
///
/// Every message carries the sequence number of the repair it belongs to,
/// so any number of repairs can be in flight at once — actors demultiplex
/// on it, and the runtime attributes per-repair costs with it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Msg {
    /// Coordinator → participant: report your cloud memberships for this
    /// repair.
    Probe {
        /// Sequence number of the repair.
        repair: u64,
    },
    /// Participant → coordinator: the answer to a probe. It carries no
    /// state, because every participant already holds the plan.
    Grant {
        /// Sequence number of the repair.
        repair: u64,
    },
    /// Coordinator → edge endpoint: install a colored cloud edge to `other`.
    Link {
        /// Sequence number of the repair.
        repair: u64,
        /// Cloud color of the new edge.
        color: CloudColor,
        /// The other endpoint.
        other: NodeId,
    },
    /// Coordinator → edge endpoint: strip `color` from the edge to `other`.
    Unlink {
        /// Sequence number of the repair.
        repair: u64,
        /// Cloud color to strip.
        color: CloudColor,
        /// The other endpoint.
        other: NodeId,
    },
    /// Coordinator → splice target: run gossip wave `wave` of the cloud of
    /// `color` under construction.
    Splice {
        /// Sequence number of the repair.
        repair: u64,
        /// Cloud under construction.
        color: CloudColor,
        /// Gossip wave number (0-based).
        wave: u32,
    },
    /// Splice target → coordinator: wave done, launch the next one. (Under
    /// latency there is no shared round clock, so wave sequencing must be
    /// message-driven.)
    SpliceAck {
        /// Sequence number of the repair.
        repair: u64,
        /// Cloud under construction.
        color: CloudColor,
        /// The acknowledged wave.
        wave: u32,
    },
}

impl Msg {
    /// Labels of the per-kind message breakdown, indexed by
    /// [`Msg::kind_index`]. The executors install this pair as the engine's
    /// payload classifier (see `xheal_sim::NetworkEngine::set_classifier`),
    /// so communication complexity can be read per protocol phase.
    pub const KIND_LABELS: &'static [&'static str] =
        &["probe", "grant", "link", "unlink", "splice", "splice_ack"];

    /// Index of this variant in [`Msg::KIND_LABELS`].
    pub fn kind_index(&self) -> usize {
        match self {
            Msg::Probe { .. } => 0,
            Msg::Grant { .. } => 1,
            Msg::Link { .. } => 2,
            Msg::Unlink { .. } => 3,
            Msg::Splice { .. } => 4,
            Msg::SpliceAck { .. } => 5,
        }
    }

    /// The repair this message belongs to.
    pub fn repair(&self) -> u64 {
        match self {
            Msg::Probe { repair }
            | Msg::Grant { repair, .. }
            | Msg::Link { repair, .. }
            | Msg::Unlink { repair, .. }
            | Msg::Splice { repair, .. }
            | Msg::SpliceAck { repair, .. } => *repair,
        }
    }
}
