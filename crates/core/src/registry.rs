//! A name-keyed registry of [`HealingEngine`] constructors.
//!
//! The arena harness (and any sweep driver) needs to build *fresh* engines of
//! every flavor over the same initial graph, repeatedly and by name. Engine
//! crates sit above `xheal-core` in the dependency graph, so the registry
//! stores type-erased builder closures: each maps `(initial graph, seed)` to
//! a boxed engine. `xheal-workload`'s `arena::standard_registry` populates
//! one with every engine in the workspace.
//!
//! Registry keys are distinct even where engine *names* collide (the
//! zero-latency and the latency distributed executors both answer
//! `"xheal-dist"` from [`HealingEngine::name`]); tables should label rows by
//! registry key.

use std::collections::BTreeMap;

use crate::engine::HealingEngine;
use xheal_graph::Graph;

/// A type-erased engine constructor: builds a fresh engine over an initial
/// graph, with all internal randomness derived from `seed`.
pub type EngineBuilder = Box<dyn Fn(&Graph, u64) -> Box<dyn HealingEngine>>;

/// Name-keyed collection of [`EngineBuilder`]s, iterated in key order.
///
/// # Examples
///
/// ```
/// use xheal_core::{EngineRegistry, Xheal, XhealConfig};
/// use xheal_graph::generators;
///
/// let mut reg = EngineRegistry::new();
/// reg.register("xheal", |g, seed| {
///     Box::new(Xheal::new(g, XhealConfig::new(4).with_seed(seed)))
/// });
/// let engine = reg.build("xheal", &generators::cycle(8), 7).unwrap();
/// assert_eq!(engine.name(), "xheal");
/// ```
#[derive(Default)]
pub struct EngineRegistry {
    builders: BTreeMap<String, EngineBuilder>,
}

impl EngineRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `builder` under `key`, replacing any previous entry.
    pub fn register(
        &mut self,
        key: impl Into<String>,
        builder: impl Fn(&Graph, u64) -> Box<dyn HealingEngine> + 'static,
    ) {
        self.builders.insert(key.into(), Box::new(builder));
    }

    /// Registered keys, ascending.
    pub fn keys(&self) -> Vec<&str> {
        self.builders.keys().map(String::as_str).collect()
    }

    /// Number of registered builders.
    pub fn len(&self) -> usize {
        self.builders.len()
    }

    /// Whether no builders are registered.
    pub fn is_empty(&self) -> bool {
        self.builders.is_empty()
    }

    /// Builds a fresh engine for `key` over `initial`, or `None` if the key
    /// is unknown.
    pub fn build(&self, key: &str, initial: &Graph, seed: u64) -> Option<Box<dyn HealingEngine>> {
        self.builders.get(key).map(|b| b(initial, seed))
    }

    /// Builds one fresh engine per registered key, in key order.
    pub fn build_all(&self, initial: &Graph, seed: u64) -> Vec<(String, Box<dyn HealingEngine>)> {
        self.builders
            .iter()
            .map(|(k, b)| (k.clone(), b(initial, seed)))
            .collect()
    }
}

impl std::fmt::Debug for EngineRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineRegistry")
            .field("keys", &self.keys())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Xheal, XhealConfig};
    use xheal_graph::generators;

    #[test]
    fn register_build_and_iterate_in_key_order() {
        let mut reg = EngineRegistry::new();
        assert!(reg.is_empty());
        reg.register("b-engine", |g, s| {
            Box::new(Xheal::new(g, XhealConfig::new(4).with_seed(s)))
        });
        reg.register("a-engine", |g, s| {
            Box::new(Xheal::new(g, XhealConfig::new(6).with_seed(s)))
        });
        assert_eq!(reg.keys(), ["a-engine", "b-engine"]);
        assert_eq!(reg.len(), 2);
        let g0 = generators::cycle(10);
        assert!(reg.build("missing", &g0, 0).is_none());
        let built = reg.build_all(&g0, 3);
        assert_eq!(built.len(), 2);
        assert_eq!(built[0].0, "a-engine");
        assert_eq!(built[0].1.graph(), &g0);
    }

    #[test]
    fn replacing_a_key_keeps_len() {
        let mut reg = EngineRegistry::new();
        for _ in 0..2 {
            reg.register("x", |g, s| {
                Box::new(Xheal::new(g, XhealConfig::new(4).with_seed(s)))
            });
        }
        assert_eq!(reg.len(), 1);
    }
}
