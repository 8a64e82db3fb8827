//! Structural invariants of the Xheal state.
//!
//! These are checked after every heal in the test suites and property tests;
//! each corresponds to a structural fact the paper's analysis relies on.

use std::collections::{BTreeMap, BTreeSet};

use xheal_expander::EdgePair;
use xheal_graph::{CloudColor, CloudKind, NodeId};

use crate::cloud::NodeState;
use crate::heal::Xheal;

/// Checks all structural invariants, returning the first violation found.
///
/// - **I2** cloud members are live graph nodes; every cloud edge is present
///   in the graph carrying the cloud's color;
/// - **I3** a node's `secondary` field matches the secondary cloud's
///   attachment map, and each bridge's target primary is one of its own
///   primary clouds;
/// - **I4** every secondary cloud has at least 2 members and its attachment
///   keys are exactly its member set;
/// - **I5** membership symmetry: `node.primaries` contains a color iff that
///   primary cloud contains the node;
/// - **I6** every color on any graph edge belongs to a live cloud that lists
///   the edge;
/// - **I7** each primary cloud's maintained free-member set is exactly its
///   members with no secondary duty (the incremental bookkeeping never
///   drifts from a recomputation);
/// - **I8** the planner's reverse attachment index matches the bridge
///   counts recomputed from the live secondary clouds.
pub fn check_invariants(x: &Xheal) -> Result<(), String> {
    x.planner().validate_attachment_index()?;
    let graph = x.graph();

    // Collect node -> primaries from the cloud side for the symmetry check.
    let mut from_clouds: BTreeMap<NodeId, Vec<CloudColor>> = BTreeMap::new();
    // Each cloud's projection, computed once for I2 and I6.
    let mut projections: BTreeMap<CloudColor, Vec<EdgePair>> = BTreeMap::new();

    for (color, kind) in x.cloud_colors() {
        let cloud = x.cloud(color).expect("listed cloud exists");
        if cloud.is_empty() {
            return Err(format!("cloud {color} is empty but registered"));
        }
        for &m in cloud.members() {
            if !graph.contains_node(m) {
                return Err(format!("cloud {color} member {m} not in graph"));
            }
            if kind == CloudKind::Primary {
                from_clouds.entry(m).or_default().push(color);
            }
        }
        // I2: installed edges present with the right color.
        let edges = cloud.expander().edges();
        for &(u, w) in &edges {
            match graph.edge_labels(u, w) {
                Some(l) if l.has_color(color) => {}
                Some(_) => {
                    return Err(format!("edge ({u},{w}) missing color {color} of its cloud"))
                }
                None => return Err(format!("cloud {color} edge ({u},{w}) absent from graph")),
            }
        }
        projections.insert(color, edges);
        // I7: maintained free sets match a recomputation from node states.
        if kind == CloudKind::Primary {
            let recomputed: BTreeSet<NodeId> = cloud
                .members()
                .iter()
                .copied()
                .filter(|m| x.node_state(*m).is_some_and(NodeState::is_free))
                .collect();
            if &recomputed != cloud.free_members() {
                return Err(format!(
                    "cloud {color}: free set {:?} != recomputed {recomputed:?}",
                    cloud.free_members()
                ));
            }
        }
        // I4: secondary structure.
        if kind == CloudKind::Secondary {
            if cloud.len() < 2 {
                return Err(format!("secondary {color} has {} member(s)", cloud.len()));
            }
            if cloud.attachments().len() != cloud.len() {
                return Err(format!(
                    "secondary {color}: {} attachments for {} members",
                    cloud.attachments().len(),
                    cloud.len()
                ));
            }
            for (&bridge, &prim) in cloud.attachments() {
                if !cloud.members().contains(&bridge) {
                    return Err(format!(
                        "secondary {color}: attachment key {bridge} not a member"
                    ));
                }
                let st = x
                    .node_state(bridge)
                    .ok_or_else(|| format!("bridge {bridge} has no node state"))?;
                if st.secondary != Some(color) {
                    return Err(format!(
                        "bridge {bridge}: secondary field {:?} != cloud {color}",
                        st.secondary
                    ));
                }
                match x.cloud(prim) {
                    None => {
                        return Err(format!(
                            "secondary {color}: bridge {bridge} targets dead primary {prim}"
                        ))
                    }
                    Some(p) => {
                        if p.kind() != CloudKind::Primary {
                            return Err(format!("secondary {color}: target {prim} is not primary"));
                        }
                        if !p.members().contains(&bridge) {
                            return Err(format!(
                                "bridge {bridge} not a member of its primary {prim}"
                            ));
                        }
                    }
                }
            }
        }
    }

    // I3 + I5 from the node side.
    for v in graph.nodes() {
        let st = x
            .node_state(v)
            .ok_or_else(|| format!("live node {v} missing state"))?;
        let mut from_cloud_side = from_clouds.remove(&v).unwrap_or_default();
        from_cloud_side.sort_unstable();
        let from_node_side: Vec<CloudColor> = st.primaries.iter().copied().collect();
        if from_cloud_side != from_node_side {
            return Err(format!(
                "node {v}: primaries {from_node_side:?} but clouds say {from_cloud_side:?}"
            ));
        }
        if let Some(f) = st.secondary {
            let cloud = x
                .cloud(f)
                .ok_or_else(|| format!("node {v} references dead secondary {f}"))?;
            if !cloud.attachments().contains_key(&v) {
                return Err(format!("node {v} not attached in its secondary {f}"));
            }
        }
    }
    if let Some((orphan, colors)) = from_clouds.into_iter().next() {
        return Err(format!(
            "cloud-side membership for absent node {orphan}: {colors:?}"
        ));
    }

    // I6: every edge color belongs to a live cloud listing the edge.
    for (u, w, labels) in graph.edges() {
        for &c in labels.colors() {
            match x.cloud(c) {
                None => return Err(format!("edge ({u},{w}) carries dead color {c}")),
                Some(_) => {
                    let key = if u < w { (u, w) } else { (w, u) };
                    let listed = projections
                        .get(&c)
                        .is_some_and(|edges| edges.binary_search(&key).is_ok());
                    if !listed {
                        return Err(format!(
                            "edge ({u},{w}) carries color {c} not in that cloud's edge set"
                        ));
                    }
                }
            }
        }
    }

    graph.validate().map_err(|e| format!("graph invalid: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Xheal, XhealConfig};
    use xheal_graph::generators;

    #[test]
    fn fresh_network_satisfies_invariants() {
        let x = Xheal::new(&generators::cycle(8), XhealConfig::default());
        check_invariants(&x).unwrap();
    }

    #[test]
    fn invariants_hold_across_heavy_churn() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::connected_erdos_renyi(36, 0.09, &mut rng);
        let mut x = Xheal::new(&g, XhealConfig::new(4).with_seed(23));
        let mut next_id = 100u64;
        for step in 0..80 {
            if rng.random::<f64>() < 0.35 && x.graph().node_count() > 0 {
                // Insert with 1..=3 random neighbors.
                let nodes = x.graph().node_vec();
                let mut nbrs = Vec::new();
                for _ in 0..rng.random_range(1..=3usize.min(nodes.len())) {
                    nbrs.push(nodes[rng.random_range(0..nodes.len())]);
                }
                nbrs.dedup();
                x.heal_insert(NodeId::new(next_id), &nbrs).unwrap();
                next_id += 1;
            } else if x.graph().node_count() > 3 {
                let nodes = x.graph().node_vec();
                let victim = nodes[rng.random_range(0..nodes.len())];
                x.heal_delete(victim).unwrap();
            }
            check_invariants(&x).unwrap_or_else(|e| panic!("step {step}: {e}"));
        }
    }
}
