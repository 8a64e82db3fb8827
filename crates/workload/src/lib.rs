//! # xheal-workload
//!
//! Adversarial workload machinery for the node insert/delete/repair model:
//! the [`Event`] vocabulary (insertions, deletions, and simultaneous
//! [`Event::DeleteBatch`] bursts — owned by `xheal-core` and re-exported
//! here), [`Adversary`] strategies (random churn, targeted deletion —
//! including articulation-point hunting by the omniscient adversary —
//! growth-only, correlated [`BurstDeletions`] rack-failures, and scripted
//! replays), and the [`run`] driver that feeds any
//! [`xheal_core::HealingEngine`] while tracking the insertion-only
//! reference graph `G'` and aggregating the structured
//! [`xheal_core::Outcome`]s.
//!
//! The [`run_arena`] harness composes all of it into a cross-algorithm
//! shoot-out: [`standard_registry`] builds every engine in the workspace,
//! [`ArenaSchedule::standard`] fixes three seeded adversary tapes, and any
//! [`ArenaScorer`] turns each run into a trade-off [`ArenaMatrix`] cell.
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
mod arena;
mod runner;
mod traffic;

pub use adversary::{
    bfs_rack, Adversary, BurstDeletions, DeleteOnly, InsertOnly, RandomChurn, Scripted, Targeting,
};
pub use arena::{
    run_arena, standard_registry, ArenaCell, ArenaMatrix, ArenaQuality, ArenaSchedule, ArenaScorer,
    NoScorer,
};
pub use runner::{replay, run, run_observed, HealthNote, RunObserver, RunSummary, Severity};
pub use traffic::{
    bfs_distance, greedy_next_hop, ring_distance, route_hops, BfsScratch, RoutingRequest,
};
pub use xheal_core::Event;
