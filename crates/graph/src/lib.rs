//! # xheal-graph
//!
//! Dynamic labeled-edge graph substrate for the reproduction of
//! *Xheal: Localized Self-healing using Expanders* (Pandurangan & Trehan,
//! PODC 2011).
//!
//! The paper's model (its Figure 1) works over an undirected simple graph
//! whose edges are either *black* (original or adversary-inserted) or carry
//! the *color* of an expander cloud installed by the healing algorithm. This
//! crate provides:
//!
//! - [`Graph`]: a deterministic, mutation-friendly simple graph whose edges
//!   carry an [`EdgeLabels`] set (black flag + cloud colors — a *set* rather
//!   than the paper's single color, so two clouds can share an edge and a
//!   cloud dropping a recolored edge never erases a black one),
//! - [`traversal`]: BFS distances, diameter (stretch metric),
//! - [`components`]: connectivity and articulation points (adversary tooling),
//! - [`cuts`]: exact edge expansion `h(G)` and conductance `φ(G)` for small
//!   graphs by enumeration,
//! - [`generators`]: the topologies used by experiments (star, grid, G(n,p),
//!   random regular, preferential attachment, the Cheeger-gap clique pair).
//!
//! # Examples
//!
//! Build a star, delete its center, and watch connectivity break — the
//! scenario Xheal exists to repair:
//!
//! ```
//! use xheal_graph::{components, generators, NodeId};
//!
//! let mut g = generators::star(8);
//! assert!(components::is_connected(&g));
//! let incident = g.remove_node(NodeId::new(0))?; // the center
//! assert_eq!(incident.len(), 7);
//! assert!(!components::is_connected(&g));
//! # Ok::<(), xheal_graph::GraphError>(())
//! ```

// `deny` rather than `forbid`: the one sanctioned exception is the raw
// `madvise` syscall behind `graph::advise_huge_pages`, an `asm!` block on
// x86_64 Linux (see its safety comment). Everything else in the crate must
// stay safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod graph;
mod ids;
mod labels;

/// The seed `BTreeMap` representation, kept as the model for the arena's
/// property tests.
#[cfg(test)]
mod baseline;
pub mod components;
pub mod cuts;
pub mod generators;
pub mod traversal;

pub use graph::{CsrView, EdgeMutation, FxHashMap, FxHasher, Graph, GraphError};
pub use ids::{IdAllocator, NodeId};
pub use labels::{CloudColor, CloudKind, EdgeLabels};
