//! # xheal-workload
//!
//! Adversarial workload machinery for the node insert/delete/repair model:
//! the [`Event`] vocabulary (insertions, deletions, and simultaneous
//! [`Event::DeleteBatch`] bursts — owned by `xheal-core` and re-exported
//! here), [`Adversary`] strategies (random churn, targeted deletion —
//! including articulation-point hunting by the omniscient adversary —
//! growth-only, correlated [`BurstDeletions`] rack-failures, and scripted
//! replays), the [`run`] and [`replay`] drivers that feed any
//! [`xheal_core::HealingEngine`] while tracking the insertion-only
//! reference graph `G'` and aggregating the structured
//! [`xheal_core::Outcome`]s ([`run_observed`] adds a per-event
//! [`xheal_core::RunObserver`]), and the greedy-routing helpers the
//! end-to-end benchmark drives its routed traffic with.
//!
//! The crate names no engine: the drivers take any `HealingEngine`, and the
//! roster of the workspace's ten engines lives with the arena in
//! `xheal-bench`.
//!
//! # Examples
//!
//! ```
//! use xheal_core::{Xheal, XhealConfig};
//! use xheal_graph::{components, generators};
//! use xheal_workload::{run, DeleteOnly, Targeting};
//!
//! let g0 = generators::cycle(12);
//! let mut healer = Xheal::new(&g0, XhealConfig::default());
//! let mut adversary = DeleteOnly::new(Targeting::HighestDegree, 6);
//! let summary = run(&mut healer, &mut adversary, 100, 42);
//! assert_eq!(summary.deletions, 6);
//! assert!(components::is_connected(healer.graph()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod runner;
mod traffic;

pub use adversary::{
    bfs_rack, Adversary, BurstDeletions, DeleteOnly, InsertOnly, RandomChurn, Scripted, Targeting,
};
pub use runner::{replay, run, run_observed, RunSummary};
pub use traffic::{
    bfs_distance, greedy_next_hop, ring_distance, route_hops, BfsScratch, RoutingRequest,
};
pub use xheal_core::Event;
