//! # xheal-core
//!
//! The Xheal self-healing algorithm of *Xheal: Localized Self-healing using
//! Expanders* (Pandurangan & Trehan, PODC 2011).
//!
//! Xheal repairs adversarial node deletions by installing κ-regular expander
//! *clouds* among the affected nodes: a **primary cloud** replaces the ball
//! around a deleted node, and **secondary clouds** stitch together the
//! primary clouds a deleted node belonged to — bridged by *free nodes*,
//! shared across clouds when scarce, and collapsed (*combined*) into a single
//! primary cloud when they run out. The result (the paper's Theorem 2)
//! preserves connectivity, edge expansion, O(log n) stretch, and per-node
//! degree up to an O(κ) factor relative to the insertion-only graph `G'`.
//!
//! Entry points:
//!
//! - [`HealingEngine`]: the one executor API — event-driven
//!   [`HealingEngine::apply`] consuming [`Event`]s and returning structured
//!   [`Outcome`]s, implemented by every executor (this crate's [`Xheal`],
//!   `xheal-dist`'s `DistXheal`, and all `xheal-baselines` strategies);
//! - [`TopologySink`] / [`TopologyDelta`]: the subscription layer — every
//!   structural change streams to registered sinks; [`DeltaMirror`] is the
//!   built-in shadow-graph consumer;
//! - [`RunObserver`]: the per-event hook of a run driver, recording
//!   [`HealthNote`]s of a [`Severity`] — the interface a live invariant
//!   monitor implements without linking any engine;
//! - [`Xheal`]: the centralized healing network state ([`Xheal::builder`],
//!   [`Xheal::heal_insert`], [`Xheal::heal_delete`],
//!   [`Xheal::heal_delete_batch`]);
//! - [`XhealConfig`]: κ, seeding, and ablation switches;
//! - [`RepairPlanner`] / [`RepairPlan`]: healing decisions as data, shared
//!   verbatim by the centralized and distributed executors;
//! - [`invariants::check_invariants`]: structural self-checks used heavily
//!   by the test suites.
//!
//! # Examples
//!
//! ```
//! use xheal_core::{Xheal, XhealConfig};
//! use xheal_graph::{components, generators, NodeId};
//!
//! let mut net = Xheal::new(&generators::star(16), XhealConfig::new(4));
//! net.heal_delete(NodeId::new(0))?; // adversary kills the hub
//! assert!(components::is_connected(net.graph()));
//! // The repair installed an expander among the 15 orphaned leaves.
//! assert!(net.graph().edge_count() >= 15);
//! # Ok::<(), xheal_core::HealError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod cloud;
mod config;
mod engine;
mod error;
mod event;
mod heal;
pub mod invariants;
mod parallel;
mod plan;
mod planner;
mod shard;
mod stats;

pub use batch::{BatchRepairPlan, BatchReport, BatchStage, BatchVictim};
pub use cloud::{Cloud, NodeState};
pub use config::XhealConfig;
pub use engine::{
    DeltaMirror, DistCost, HealingEngine, HealthNote, Outcome, RepairCost, RunObserver, Severity,
    SinkRegistry, TopologyDelta, TopologySink,
};
pub use error::HealError;
pub use event::Event;
pub use heal::{Xheal, XhealBuilder};
pub use parallel::ParallelXheal;
pub use plan::{ApplyScratch, PlanAction, RepairPlan};
pub use planner::RepairPlanner;
pub use stats::{DeletionReport, HealCase, HealStats};
