//! # xheal-metrics
//!
//! The success metrics of the paper's node insert/delete/repair model
//! (its Figure 1): degree increase, edge expansion, network stretch — all
//! measured against the insertion-only reference graph `G'_t` tracked by
//! [`GPrime`]. Recovery time and message complexity (metrics 4 and 5) are
//! measured by `xheal-dist`, which runs the actual distributed protocol.
//!
//! # Examples
//!
//! ```
//! use xheal_graph::{generators, NodeId};
//! use xheal_metrics::{degree_increase, stretch, GPrime};
//!
//! let g0 = generators::cycle(8);
//! let gp = GPrime::new(&g0);
//! assert_eq!(degree_increase(&g0, gp.graph()), 1.0);
//! assert_eq!(stretch(&g0, gp.graph(), 100, 4), Some(1.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gprime;
mod report;

pub use gprime::GPrime;
pub use report::{degree_increase, expansion_report, stretch, ExpansionReport};
