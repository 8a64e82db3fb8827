//! Drives a healing engine through an adversary's events, recording `G'`
//! from the tape alongside and aggregating the structured outcomes.

use rand::rngs::StdRng;
use rand::SeedableRng;

use xheal_core::{Event, HealingEngine, HealthNote, Outcome, RunObserver, Severity};
use xheal_graph::Graph;
use xheal_metrics::GPrime;

use crate::adversary::Adversary;

/// The no-op observer behind plain [`run`].
struct NoObserver;

impl RunObserver for NoObserver {
    fn on_event(&mut self, _: usize, _: &Event, _: &Outcome, _: &Graph) {}
}

/// Outcome of a run: the insertion-only reference graph, event counts, and
/// the costs aggregated from every applied event's [`Outcome`].
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// The insertion-only graph `G'` after the run: the engine's graph at
    /// the start plus every insertion of the tape.
    pub gprime: GPrime,
    /// Events applied (in order).
    pub events: Vec<Event>,
    /// Number of insertions applied.
    pub insertions: usize,
    /// Number of deletions applied (batch events count every victim).
    pub deletions: usize,
    /// Colored edges added by repairs across the run.
    pub edges_added: usize,
    /// Colored-edge labels stripped by repairs across the run.
    pub edges_removed: usize,
    /// Wall-clock protocol rounds spent healing (0 for centralized
    /// engines, which report no [`xheal_core::DistCost`]).
    pub rounds: u64,
    /// Protocol messages delivered while healing (0 for centralized
    /// engines).
    pub messages: u64,
    /// The share of [`RunSummary::rounds`] attributable to insertions —
    /// nonzero only for engines whose insertions rewire (DEX virtual-node
    /// splits and spare takeovers).
    pub insert_rounds: u64,
    /// The share of [`RunSummary::messages`] attributable to insertions.
    pub insert_messages: u64,
    /// Health observations recorded by the [`RunObserver`] (empty for
    /// unobserved runs).
    pub health: Vec<HealthNote>,
}

impl RunSummary {
    fn new(gprime: GPrime) -> Self {
        RunSummary {
            gprime,
            events: Vec::new(),
            insertions: 0,
            deletions: 0,
            edges_added: 0,
            edges_removed: 0,
            rounds: 0,
            messages: 0,
            insert_rounds: 0,
            insert_messages: 0,
            health: Vec::new(),
        }
    }

    /// Worst severity recorded during the run, if any note was.
    pub fn worst_severity(&self) -> Option<Severity> {
        self.health.iter().map(|n| n.severity).max()
    }

    /// Folds one applied event's outcome into the aggregates; `G'` grows on
    /// insertions (deletions never touch it, per the model).
    fn absorb(&mut self, event: &Event, outcome: &Outcome) {
        match outcome {
            Outcome::Inserted { cost } => {
                let Event::Insert { node, neighbors } = event else {
                    unreachable!("engines report Inserted only for Event::Insert");
                };
                self.gprime
                    .record_insert(*node, neighbors)
                    .expect("fresh in gprime");
                self.insertions += 1;
                if let Some(c) = cost {
                    self.insert_rounds += c.rounds;
                    self.insert_messages += c.messages;
                }
            }
            Outcome::Healed { .. } | Outcome::Batch { .. } => {
                self.deletions += outcome.victims();
            }
        }
        self.edges_added += outcome.edges_added();
        self.edges_removed += outcome.edges_removed();
        if let Some(cost) = outcome.cost() {
            self.rounds += cost.rounds;
            self.messages += cost.messages;
        }
    }
}

/// Runs `adversary` against `engine` for at most `steps` events,
/// maintaining `G'` (insertions only, no deletions) from the returned
/// [`Outcome`]s for the success metrics.
///
/// The adversary's randomness comes from `seed` — disjoint from the
/// engine's internal randomness, which the model requires the adversary not
/// to see.
///
/// Generic over [`HealingEngine`], so it accepts `&mut Xheal`, any
/// `&mut DistXheal<_>`, every baseline, and `Box<dyn HealingEngine>`
/// contents alike.
///
/// # Panics
///
/// Panics if the adversary produces an invalid event (deleting an absent
/// node, inserting a duplicate): adversaries are trusted test machinery.
pub fn run<E: HealingEngine + ?Sized>(
    engine: &mut E,
    adversary: &mut dyn Adversary,
    steps: usize,
    seed: u64,
) -> RunSummary {
    run_observed(engine, adversary, steps, seed, &mut NoObserver)
}

/// Like [`run`], with a [`RunObserver`] hook called after every applied
/// event — the attachment point for live invariant monitors. The observer's
/// drained [`HealthNote`]s are recorded into [`RunSummary::health`].
///
/// # Panics
///
/// Panics on invalid adversary events, as in [`run`].
pub fn run_observed<E: HealingEngine + ?Sized>(
    engine: &mut E,
    adversary: &mut dyn Adversary,
    steps: usize,
    seed: u64,
    observer: &mut dyn RunObserver,
) -> RunSummary {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut summary = RunSummary::new(GPrime::new(engine.graph()));

    for step in 0..steps {
        let Some(event) = adversary.next_event(engine.graph(), &mut rng) else {
            break;
        };
        let outcome = engine
            .apply(&event)
            .unwrap_or_else(|e| panic!("adversary produced bad event: {e}"));
        observer.on_event(step, &event, &outcome, engine.graph());
        summary.absorb(&event, &outcome);
        summary.events.push(event);
    }

    summary.health = observer.drain_notes();
    summary
}

/// Replays a recorded event list against a healing engine (for
/// cross-validation of the centralized and distributed implementations on
/// identical schedules).
///
/// # Panics
///
/// Panics on invalid events, as in [`run`].
pub fn replay<E: HealingEngine + ?Sized>(engine: &mut E, events: &[Event]) {
    for event in events {
        engine
            .apply(event)
            .unwrap_or_else(|e| panic!("replay bad event: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{DeleteOnly, RandomChurn, Targeting};
    use xheal_core::{Xheal, XhealConfig};
    use xheal_graph::{components, generators};

    #[test]
    fn run_tracks_gprime_and_counts() {
        let g0 = generators::connected_erdos_renyi(20, 0.15, &mut StdRng::seed_from_u64(1));
        let mut healer = Xheal::new(&g0, XhealConfig::new(4).with_seed(7));
        let mut adv = RandomChurn::new(0.5, 3, 4, &g0);
        let summary = run(&mut healer, &mut adv, 40, 99);
        assert_eq!(summary.insertions + summary.deletions, summary.events.len());
        assert_eq!(summary.events.len(), 40);
        // G' has exactly initial + inserted nodes.
        assert_eq!(summary.gprime.graph().node_count(), 20 + summary.insertions);
        assert!(components::is_connected(healer.graph()));
        // Aggregates mirror the healer's own statistics.
        assert_eq!(summary.edges_added, healer.stats().edges_added);
        assert_eq!(summary.edges_removed, healer.stats().edges_removed);
        // A centralized engine reports no protocol cost.
        assert_eq!((summary.rounds, summary.messages), (0, 0));
    }

    #[test]
    fn delete_only_run_stops_at_min() {
        let g0 = generators::cycle(10);
        let mut healer = Xheal::new(&g0, XhealConfig::default());
        let mut adv = DeleteOnly::new(Targeting::Random, 5);
        let summary = run(&mut healer, &mut adv, 100, 3);
        assert_eq!(summary.deletions, 5);
        assert_eq!(healer.graph().node_count(), 5);
    }

    #[test]
    fn burst_run_heals_batches_and_counts_victims() {
        use crate::adversary::BurstDeletions;
        let g0 = generators::connected_erdos_renyi(30, 0.12, &mut StdRng::seed_from_u64(4));
        let mut healer = Xheal::new(&g0, XhealConfig::new(4).with_seed(8));
        let mut adv = BurstDeletions::new(3, 4, 2, 8, &g0);
        let summary = run(&mut healer, &mut adv, 24, 77);
        assert!(
            summary.deletions > summary.events.iter().filter(|e| e.is_delete()).count(),
            "batches count every victim"
        );
        assert!(components::is_connected(healer.graph()));
        // Replay drives the same batches through apply().
        let mut b = Xheal::new(&g0, XhealConfig::new(4).with_seed(8));
        replay(&mut b, &summary.events);
        assert_eq!(healer.graph(), b.graph());
    }

    #[test]
    fn replay_reproduces_topology() {
        let g0 = generators::connected_erdos_renyi(16, 0.2, &mut StdRng::seed_from_u64(2));
        let mut a = Xheal::new(&g0, XhealConfig::new(4).with_seed(5));
        let mut adv = RandomChurn::new(0.4, 2, 3, &g0);
        let summary = run(&mut a, &mut adv, 30, 11);

        // Same healer seed + same events => identical graphs.
        let mut b = Xheal::new(&g0, XhealConfig::new(4).with_seed(5));
        replay(&mut b, &summary.events);
        assert_eq!(a.graph(), b.graph());
    }

    #[test]
    fn observer_sees_every_event_and_notes_land_in_summary() {
        struct Counter {
            seen: usize,
            victims: usize,
        }
        impl RunObserver for Counter {
            fn on_event(&mut self, step: usize, _: &Event, outcome: &Outcome, graph: &Graph) {
                assert_eq!(step, self.seen, "steps arrive in order");
                self.seen += 1;
                self.victims += outcome.victims();
                assert!(graph.node_count() > 0, "post-repair graph is live");
            }
            fn drain_notes(&mut self) -> Vec<HealthNote> {
                vec![HealthNote {
                    step: self.seen,
                    severity: Severity::Info,
                    message: format!("{} victims", self.victims),
                }]
            }
        }
        let g0 = generators::cycle(12);
        let mut healer = Xheal::new(&g0, XhealConfig::default());
        let mut adv = DeleteOnly::new(Targeting::Random, 5);
        let mut obs = Counter {
            seen: 0,
            victims: 0,
        };
        let summary = run_observed(&mut healer, &mut adv, 100, 9, &mut obs);
        // The adversary deletes down to its 5-node floor: 7 deletions.
        assert_eq!(summary.events.len(), 7);
        assert_eq!(summary.health.len(), 1);
        assert_eq!(summary.health[0].message, "7 victims");
        assert_eq!(summary.worst_severity(), Some(Severity::Info));
        assert!(Severity::Info < Severity::Warning && Severity::Warning < Severity::Critical);
    }

    #[test]
    fn run_accepts_boxed_trait_objects() {
        let g0 = generators::cycle(12);
        let mut engine: Box<dyn HealingEngine> = Box::new(Xheal::new(&g0, XhealConfig::default()));
        let mut adv = DeleteOnly::new(Targeting::Random, 6);
        let summary = run(engine.as_mut(), &mut adv, 100, 5);
        assert_eq!(summary.deletions, 6);
        assert!(components::is_connected(engine.graph()));
    }
}
