//! # xheal-sim
//!
//! The message-delivery substrate for the paper's distributed model
//! (Section 2): the protocol layer in `xheal-dist` is written against the
//! [`NetworkEngine`] trait (membership, send, step, drain, counters), and
//! [`AsyncNetwork`] implements it as a **deterministic event queue**. Every
//! directed link gets a seeded base latency, messages can carry extra
//! jitter and overtake each other (reordering), and an optional seeded
//! fault rate loses messages in flight.
//!
//! [`AsyncConfig::zero_latency`] — the engine's [`Default`] — is the
//! **LOCAL model taken literally**: unbounded message sizes, reliable
//! private channels, every message delivered exactly one synchronous round
//! after it was sent. The paper's recovery-time (rounds) and communication
//! (messages) metrics are read straight off its [`Counters`].
//!
//! The engine counts rounds, delivered messages, and drops — exactly the
//! paper's success metrics 4 (recovery time) and 5 (communication
//! complexity) plus the loss the fault injector needs to observe. Dropped
//! messages are kept (not just counted) and handed to the protocol layer
//! via [`NetworkEngine::drain_dropped_into`], which is how the actor
//! runtime in `xheal-dist` cancels expectations on replies that will never
//! arrive.
//!
//! The engine is payload-generic; `xheal-dist` instantiates it with the
//! Xheal recovery protocol's message enum.
//!
//! # Examples
//!
//! ```
//! use xheal_graph::NodeId;
//! use xheal_sim::{AsyncConfig, AsyncNetwork, NetworkEngine};
//!
//! let mut net: AsyncNetwork<&'static str> = AsyncNetwork::new(AsyncConfig::zero_latency());
//! let (a, b) = (NodeId::new(1), NodeId::new(2));
//! net.add_node(a);
//! net.add_node(b);
//! net.send(a, b, "ping");
//! assert_eq!(net.step(), 1); // delivered in the next round
//! let mut inbox = Vec::new();
//! net.drain_inbox_into(b, &mut inbox);
//! assert_eq!(inbox[0].payload, "ping");
//! assert_eq!(net.counters().rounds, 1);
//! assert_eq!(net.counters().messages, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod event_queue;
mod mailbox;

pub use engine::{Counters, Envelope, NetworkEngine};
pub use event_queue::{AsyncConfig, AsyncNetwork};
