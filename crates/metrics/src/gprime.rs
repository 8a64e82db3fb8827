//! The insertion-only reference graph `G'_t`.
//!
//! The paper's success metrics (its Figure 1) compare the healed graph `G_t`
//! against `G'_t`, "the graph consisting solely of the original nodes and
//! insertions without regard to deletions and healings". Deleted nodes stay
//! in `G'_t` — a shortest path there may run through dead nodes.
//!
//! [`GPrime`] is the workspace's one `G'`: the run summary, the monitor and
//! the tests all grow it from the event tape's insertions, never from the
//! edges an engine reports.

use xheal_graph::{Graph, GraphError, NodeId};

/// Tracker for `G'_t`: feed it the same insertions the healer sees. It has
/// no deletion entry point — a deletion leaves `G'` as it is.
///
/// # Examples
///
/// ```
/// use xheal_graph::{generators, NodeId};
/// use xheal_metrics::GPrime;
///
/// let mut gp = GPrime::new(&generators::cycle(4));
/// gp.record_insert(NodeId::new(9), &[NodeId::new(0)])?;
/// assert_eq!(gp.graph().node_count(), 5);
/// # Ok::<(), xheal_graph::GraphError>(())
/// ```
#[derive(Clone, Debug)]
pub struct GPrime {
    graph: Graph,
}

impl GPrime {
    /// Starts tracking from the initial network `G_0`, every edge of it
    /// whatever its colour.
    pub fn new(initial: &Graph) -> Self {
        GPrime {
            graph: initial.clone(),
        }
    }

    /// Records an adversarial insertion: `v` joins `G'` with an edge to
    /// each of its `contacts`. A repeated contact, `v` itself, or a contact
    /// `G'` never held adds no edge.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeExists`] when `G'` already holds `v` (ids are never
    /// reused: `G'` keeps every node that ever lived); `G'` is unchanged.
    pub fn record_insert(&mut self, v: NodeId, contacts: &[NodeId]) -> Result<(), GraphError> {
        self.graph.add_node(v)?;
        for &u in contacts {
            if u != v {
                let _ = self.graph.add_black_edge(v, u);
            }
        }
        Ok(())
    }

    /// The current `G'_t`.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xheal_graph::generators;

    #[test]
    fn deletions_never_reach_gprime() {
        let gp = GPrime::new(&generators::star(5));
        // There is no delete API at all; the graph is append-only.
        assert_eq!(gp.graph().node_count(), 5);
    }

    #[test]
    fn insert_appends() {
        let mut gp = GPrime::new(&generators::star(3));
        gp.record_insert(NodeId::new(10), &[NodeId::new(0), NodeId::new(1)])
            .unwrap();
        assert_eq!(gp.graph().degree(NodeId::new(10)), Some(2));
        assert!(gp.record_insert(NodeId::new(10), &[]).is_err());
    }
}
