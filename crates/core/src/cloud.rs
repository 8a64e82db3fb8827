//! Cloud and per-node bookkeeping state.

use std::collections::{BTreeMap, BTreeSet};

use xheal_expander::MaintainedExpander;
use xheal_graph::{CloudColor, CloudKind, NodeId};

/// One expander cloud: its kind, its maintained expander topology, and (for
/// secondary clouds) the bridge attachments.
#[derive(Clone, Debug)]
pub struct Cloud {
    kind: CloudKind,
    expander: MaintainedExpander,
    /// Secondary clouds only: which primary cloud each member bridges for.
    /// Keys are exactly the expander members (invariant I4).
    attachments: BTreeMap<NodeId, CloudColor>,
    /// Primary clouds only: the members currently *free* (no secondary
    /// duty), maintained incrementally by the planner so free-node picks
    /// never scan the full membership. Invariant I7:
    /// `free_members = members ∩ {v | v.secondary == None}`.
    free_members: BTreeSet<NodeId>,
}

impl Cloud {
    pub(crate) fn new(kind: CloudKind, expander: MaintainedExpander) -> Self {
        Cloud {
            kind,
            expander,
            attachments: BTreeMap::new(),
            free_members: BTreeSet::new(),
        }
    }

    /// Primary or secondary.
    pub fn kind(&self) -> CloudKind {
        self.kind
    }

    /// The underlying expander structure.
    pub fn expander(&self) -> &MaintainedExpander {
        &self.expander
    }

    pub(crate) fn expander_mut(&mut self) -> &mut MaintainedExpander {
        &mut self.expander
    }

    /// Members of the cloud, ascending.
    pub fn members(&self) -> &[NodeId] {
        self.expander.members()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.expander.len()
    }

    /// True when the cloud has no members.
    pub fn is_empty(&self) -> bool {
        self.expander.is_empty()
    }

    /// Bridge attachments (secondary clouds): member → the primary cloud it
    /// bridges for.
    pub fn attachments(&self) -> &BTreeMap<NodeId, CloudColor> {
        &self.attachments
    }

    pub(crate) fn attachments_mut(&mut self) -> &mut BTreeMap<NodeId, CloudColor> {
        &mut self.attachments
    }

    /// Members with no secondary duty, ascending (primary clouds; empty for
    /// secondaries). Maintained incrementally — reading it is free.
    pub fn free_members(&self) -> &BTreeSet<NodeId> {
        &self.free_members
    }

    pub(crate) fn free_members_mut(&mut self) -> &mut BTreeSet<NodeId> {
        &mut self.free_members
    }
}

/// Per-node cloud membership state.
///
/// A node is *free* (available for bridge duty) exactly when it belongs to no
/// secondary cloud — the paper's "free nodes are nodes that belong to only
/// primary clouds".
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeState {
    /// Primary clouds this node belongs to (a node can be in many — Figure 2
    /// of the paper).
    pub primaries: BTreeSet<CloudColor>,
    /// The at-most-one secondary cloud this node belongs to.
    pub secondary: Option<CloudColor>,
}

impl NodeState {
    /// Is this node free (no secondary duties)?
    pub fn is_free(&self) -> bool {
        self.secondary.is_none()
    }

    /// Does the node belong to no cloud at all?
    pub fn is_cloudless(&self) -> bool {
        self.primaries.is_empty() && self.secondary.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_state_freeness() {
        let mut s = NodeState::default();
        assert!(s.is_free());
        assert!(s.is_cloudless());
        s.primaries.insert(CloudColor::new(1));
        assert!(s.is_free(), "primary membership keeps a node free");
        assert!(!s.is_cloudless());
        s.secondary = Some(CloudColor::new(2));
        assert!(!s.is_free());
    }
}
