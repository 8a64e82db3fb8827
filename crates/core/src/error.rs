//! Error type shared by all healers.

use std::error::Error;
use std::fmt;

use xheal_graph::NodeId;

/// Errors returned by healing operations (adversary-event preconditions).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HealError {
    /// Insertion of a node that already exists.
    NodeExists(NodeId),
    /// Deletion of a node that is not in the network.
    NodeMissing(NodeId),
    /// Insertion referencing a neighbor that is not in the network.
    NeighborMissing(NodeId),
    /// A batch deletion naming the same victim more than once.
    DuplicateVictim(NodeId),
}

impl fmt::Display for HealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealError::NodeExists(v) => write!(f, "node {v} already exists"),
            HealError::NodeMissing(v) => write!(f, "node {v} is not in the network"),
            HealError::NeighborMissing(v) => write!(f, "neighbor {v} is not in the network"),
            HealError::DuplicateVictim(v) => write!(f, "victim {v} is listed more than once"),
        }
    }
}

impl Error for HealError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = HealError::NodeMissing(NodeId::new(3));
        assert_eq!(e.to_string(), "node n3 is not in the network");
        let e = HealError::DuplicateVictim(NodeId::new(3));
        assert_eq!(e.to_string(), "victim n3 is listed more than once");
    }
}
