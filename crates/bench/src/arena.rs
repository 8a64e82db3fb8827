//! The engine arena: every healing engine of the workspace, identical
//! adversary schedules, one scorer, one trade-off matrix.
//!
//! [`ENGINES`] is the roster, the registry keys of all ten engines, and
//! [`build_engine`] builds each one over an initial graph. This module is
//! the only code in the workspace that names every engine, so the monitor
//! and the workload crate link none of them. [`ArenaSchedule::standard`]
//! gives three seeded schedules (uniform churn, clustered bursts and
//! insert-heavy growth), and [`run_arena`] drives every engine through
//! every schedule. Each run is scored by `xheal-monitor`'s [`MonitorHook`]:
//! a monitor subscribed to the engine's delta stream and handed each
//! insertion of the tape. DEX's hard degree cap ([`dex_degree_cap`]) is
//! asserted on that monitor after every applied event.
//!
//! The output [`ArenaMatrix`] sets healing *cost* (rounds, messages, edge
//! operations) against invariant *quality* per engine per adversary.
//!
//! Two caveats the numbers only mean something with:
//!
//! - Schedules are *identically seeded*, not identically materialized:
//!   uniform churn and insert-heavy growth pick victims and contact points
//!   by membership only, so their event streams are bit-identical across
//!   engines; clustered bursts gather BFS racks over each engine's healed
//!   topology, so victim *sets* legitimately differ per engine while the
//!   burst cadence and seeds stay fixed.
//! - Reference-relative metrics (degree increase, stretch) are scored
//!   against `G'`: the engine's graph at attach time plus the tape's
//!   insertions, the same `G'` as [`RunSummary::gprime`]. For nine engines
//!   that graph starts from the shared `g0`; DEX rebuilds topology at
//!   construction, so its `G'` starts from its own bootstrap projection.
//!
//! # Examples
//!
//! ```
//! use xheal_bench::arena::{run_arena, ArenaSchedule, ENGINES};
//! use xheal_graph::generators;
//!
//! let g0 = generators::ring_with_chords(24);
//! let matrix = run_arena(&ArenaSchedule::standard(12), &g0, 7, 4);
//! assert_eq!(matrix.cells.len(), ENGINES.len() * 3);
//! ```

use std::rc::Rc;
use std::time::Instant;

use xheal_baselines::{BinaryTreeHeal, CycleHeal, ForgivingLike, NoHeal, StarHeal};
use xheal_core::{Event, HealingEngine, HealthNote, Outcome, RunObserver, Severity, Xheal};
use xheal_dex::{Dex, DexConfig};
use xheal_dist::{DistXheal, Msg};
use xheal_graph::Graph;
use xheal_metrics::stretch;
use xheal_monitor::MonitorHook;
use xheal_sim::{AsyncConfig, AsyncNetwork};
use xheal_workload::{
    run_observed, Adversary, BurstDeletions, InsertOnly, RandomChurn, RunSummary,
};

/// κ of the four Xheal executors in the arena.
pub const KAPPA: usize = 4;

/// Registry keys of the ten engines, ascending: the matrix lists its cells
/// in this order within each schedule. Keys stay distinct where engine
/// names collide (both distributed rows answer `"xheal-dist"`).
pub const ENGINES: [&str; 10] = [
    "binary-tree-heal",
    "cycle-heal",
    "dex",
    "forgiving-like",
    "no-heal",
    "star-heal",
    "xheal",
    "xheal-dist-async",
    "xheal-dist-sync",
    "xheal-par",
];

/// A fresh engine of registry key `key` over `g0`, its internal randomness
/// drawn from `seed`.
///
/// The Xheal family runs at [`KAPPA`]. Both distributed rows run
/// `AsyncNetwork`: `xheal-dist-sync` at zero latency (`DistXheal::builder`'s
/// default, synchronous LOCAL-model rounds), `xheal-dist-async` with uniform
/// 1–3 tick latency seeded from `seed`. `xheal-par` heals on two threads.
/// DEX runs its default degree-8 / load-3 overlay.
///
/// # Panics
///
/// Panics when `key` is not in [`ENGINES`].
pub fn build_engine(key: &str, g0: &Graph, seed: u64) -> Box<dyn HealingEngine> {
    match key {
        "binary-tree-heal" => Box::new(BinaryTreeHeal::new(g0)),
        "cycle-heal" => Box::new(CycleHeal::new(g0)),
        "dex" => Box::new(Dex::new(
            g0,
            DexConfig {
                seed,
                ..DexConfig::default()
            },
        )),
        "forgiving-like" => Box::new(ForgivingLike::new(g0)),
        "no-heal" => Box::new(NoHeal::new(g0)),
        "star-heal" => Box::new(StarHeal::new(g0)),
        "xheal" => Box::new(Xheal::builder().kappa(KAPPA).seed(seed).build(g0)),
        "xheal-dist-async" => Box::new(
            DistXheal::builder()
                .kappa(KAPPA)
                .seed(seed)
                .engine(AsyncNetwork::<Msg>::new(AsyncConfig::uniform(1, 3, seed)))
                .build(g0),
        ),
        "xheal-dist-sync" => Box::new(DistXheal::builder().kappa(KAPPA).seed(seed).build(g0)),
        "xheal-par" => Box::new(
            Xheal::builder()
                .kappa(KAPPA)
                .seed(seed)
                .build_parallel(g0, 2),
        ),
        _ => panic!("no engine has registry key {key:?}"),
    }
}

/// DEX's hard degree cap in the arena: `degree × max_load` of its default
/// overlay.
pub fn dex_degree_cap() -> usize {
    let config = DexConfig::default();
    config.degree * config.max_load
}

/// One adversary schedule of the arena: a named, seeded event-stream shape.
#[derive(Clone, Copy, Debug)]
pub struct ArenaSchedule {
    /// Stable schedule name (a column key of `BENCH_arena.json`).
    pub name: &'static str,
    /// Maximum events the schedule feeds each engine.
    pub steps: usize,
    kind: ScheduleKind,
}

#[derive(Clone, Copy, Debug)]
enum ScheduleKind {
    /// Balanced insert/delete churn, victims uniform over membership.
    UniformChurn,
    /// Growth punctuated by clustered `DeleteBatch` racks (BFS holes).
    ClusteredBursts,
    /// Pure growth: insertions only.
    InsertHeavy,
}

impl ArenaSchedule {
    /// Balanced uniform churn (~45% inserts, uniform single deletions).
    pub fn uniform_churn(steps: usize) -> Self {
        ArenaSchedule {
            name: "uniform-churn",
            steps,
            kind: ScheduleKind::UniformChurn,
        }
    }

    /// Insert-leaning growth punctured by clustered rack deletions: every
    /// fourth event batch-deletes a BFS rack of 5.
    pub fn clustered_bursts(steps: usize) -> Self {
        ArenaSchedule {
            name: "clustered-bursts",
            steps,
            kind: ScheduleKind::ClusteredBursts,
        }
    }

    /// Insertions only — measures what maintenance costs when nothing dies.
    pub fn insert_heavy(steps: usize) -> Self {
        ArenaSchedule {
            name: "insert-heavy",
            steps,
            kind: ScheduleKind::InsertHeavy,
        }
    }

    /// The canonical three-schedule arena sweep.
    pub fn standard(steps: usize) -> Vec<ArenaSchedule> {
        vec![
            Self::uniform_churn(steps),
            Self::clustered_bursts(steps),
            Self::insert_heavy(steps),
        ]
    }

    /// Instantiates this schedule's adversary over `g0`.
    pub fn adversary(&self, g0: &Graph) -> Box<dyn Adversary> {
        match self.kind {
            ScheduleKind::UniformChurn => Box::new(RandomChurn::new(0.45, 4, 8, g0)),
            ScheduleKind::ClusteredBursts => Box::new(BurstDeletions::new(5, 4, 4, 8, g0)),
            ScheduleKind::InsertHeavy => Box::new(InsertOnly::new(3, g0)),
        }
    }

    /// The adversary seed for this schedule under arena seed `base`: fixed
    /// per schedule so every engine faces the same random tape.
    pub fn seed(&self, base: u64) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ base;
        for b in self.name.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Invariant-quality readings of one finished arena cell.
#[derive(Clone, Debug)]
pub struct ArenaQuality {
    /// Largest node degree in the final graph.
    pub max_degree: usize,
    /// Worst degree over `G'` degree (the paper's degree-increase metric);
    /// `None` while `G'` lacks a live node.
    pub degree_increase: Option<f64>,
    /// Exact stretch of the final graph against `G'`: the maximum over all
    /// live pairs. `None` when the degree increase is, and when the graph
    /// has disconnected.
    pub stretch: Option<f64>,
    /// Sweep-cut edge expansion of the final graph (0 when disconnected).
    pub expansion: Option<f64>,
    /// Algebraic connectivity λ₂ of the final normalized Laplacian.
    pub spectral_gap: f64,
    /// Second-order drift: λ₃ of the final normalized Laplacian.
    pub lambda3: Option<f64>,
    /// Connected components of the final graph (1 = healed connectivity).
    pub components: usize,
    /// Warning-severity health notes recorded during the run.
    pub warn_notes: usize,
    /// Critical-severity health notes recorded during the run.
    pub critical_notes: usize,
}

/// One engine × schedule cell of the trade-off matrix: healing cost on the
/// left, invariant quality on the right.
#[derive(Clone, Debug)]
pub struct ArenaCell {
    /// Registry key of the engine.
    pub engine: &'static str,
    /// Schedule name.
    pub schedule: &'static str,
    /// Events actually applied (schedules may exhaust early).
    pub steps_applied: usize,
    /// Insertions applied.
    pub insertions: usize,
    /// Deletions applied (batch victims all count).
    pub deletions: usize,
    /// Repair edges added across the run.
    pub edges_added: usize,
    /// Repair edge labels stripped across the run.
    pub edges_removed: usize,
    /// Protocol rounds spent healing (0 for engines reporting no cost).
    pub rounds: u64,
    /// Protocol messages spent healing (0 for engines reporting no cost).
    pub messages: u64,
    /// The share of [`ArenaCell::rounds`] attributable to insertions
    /// (DEX reconfiguration; 0 for engines whose insertions are free).
    pub insert_rounds: u64,
    /// The share of [`ArenaCell::messages`] attributable to insertions.
    pub insert_messages: u64,
    /// Node count of the final graph.
    pub nodes: usize,
    /// Edge count of the final graph.
    pub edges: usize,
    /// Wall-clock nanoseconds of the engine+scorer run.
    pub wall_nanos: u128,
    /// The scorer's quality readings.
    pub quality: ArenaQuality,
}

/// The full trade-off matrix of one arena sweep.
#[derive(Clone, Debug)]
pub struct ArenaMatrix {
    /// Node count of the shared initial graph.
    pub n0: usize,
    /// Base seed of the sweep.
    pub seed: u64,
    /// All cells, schedule-major then in [`ENGINES`] order.
    pub cells: Vec<ArenaCell>,
}

impl ArenaMatrix {
    /// Looks up one cell by registry key and schedule name.
    pub fn cell(&self, engine: &str, schedule: &str) -> Option<&ArenaCell> {
        self.cells
            .iter()
            .find(|c| c.engine == engine && c.schedule == schedule)
    }

    /// Distinct engine keys, ascending.
    pub fn engines(&self) -> Vec<&str> {
        let mut keys: Vec<&str> = self.cells.iter().map(|c| c.engine).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Distinct schedule names in first-seen order.
    pub fn schedules(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for c in &self.cells {
            if !names.contains(&c.schedule) {
                names.push(c.schedule);
            }
        }
        names
    }

    /// Whether every engine × schedule combination is present exactly once.
    pub fn is_complete(&self) -> bool {
        let engines = self.engines();
        let schedules = self.schedules();
        self.cells.len() == engines.len() * schedules.len()
            && engines.iter().all(|e| {
                schedules.iter().all(|s| {
                    self.cells
                        .iter()
                        .filter(|c| c.engine == *e && c.schedule == *s)
                        .count()
                        == 1
                })
            })
    }
}

/// The observer of one cell: the monitor scorer, plus, for DEX, its hard
/// degree cap checked on the monitor after every event.
struct CellObserver {
    hook: MonitorHook,
    degree_cap: Option<usize>,
    label: String,
}

impl CellObserver {
    /// Subscribes a fresh monitor scorer to `engine` (its post-construction
    /// graph, so `G'` starts where the run does); a `dex` cell gets the cap.
    fn attach(
        key: &str,
        schedule: &str,
        engine: &mut dyn HealingEngine,
        checkpoint_every: usize,
    ) -> Self {
        let hook = MonitorHook::scorer(engine.graph(), checkpoint_every);
        engine.subscribe(Box::new(Rc::clone(hook.monitor())));
        CellObserver {
            hook,
            degree_cap: (key == "dex").then(dex_degree_cap),
            label: format!("{key}/{schedule}"),
        }
    }

    /// Checkpoints once more and reads the cell's quality. The stretch is
    /// exact: the maximum over all live pairs, from `xheal_metrics::stretch`
    /// against the monitor's `G'`, not the checkpoint's sample.
    fn finish(&self, graph: &Graph, summary: &RunSummary) -> ArenaQuality {
        let mut m = self.hook.monitor().borrow_mut();
        assert_eq!(
            (m.node_count(), m.edge_count()),
            (graph.node_count(), graph.edge_count()),
            "{}: monitor drifted from the engine graph",
            self.label
        );
        let report = m.checkpoint();
        let notes = |s| summary.health.iter().filter(|n| n.severity == s).count();
        ArenaQuality {
            max_degree: report.max_degree,
            degree_increase: report.degree_increase,
            stretch: report
                .degree_increase
                .and_then(|_| stretch(graph, m.gprime().graph(), graph.node_count(), 0)),
            expansion: report.expansion,
            spectral_gap: report.spectral_gap.lambda,
            lambda3: report.spectral_gap.lambda3,
            components: report.components,
            warn_notes: notes(Severity::Warning),
            critical_notes: notes(Severity::Critical),
        }
    }
}

impl RunObserver for CellObserver {
    fn on_event(&mut self, step: usize, event: &Event, outcome: &Outcome, graph: &Graph) {
        self.hook.on_event(step, event, outcome, graph);
        if let Some(cap) = self.degree_cap {
            let worst = self.hook.monitor().borrow().degrees().max();
            assert!(
                worst <= cap,
                "{}: degree bound violated at step {step}: {worst} > {cap}",
                self.label
            );
        }
    }

    fn drain_notes(&mut self) -> Vec<HealthNote> {
        self.hook.drain_notes()
    }
}

/// Runs every engine of [`ENGINES`] through every schedule and scores each
/// cell with a fresh monitor scorer that checkpoints every
/// `checkpoint_every` events (0: only at the end).
///
/// Engines are seeded with `seed`; each schedule's adversary tape is fixed
/// across engines via [`ArenaSchedule::seed`].
///
/// # Panics
///
/// Panics when DEX's degree exceeds [`dex_degree_cap`] after any event, or
/// when the monitor's delta-fed mirror drifts from an engine's graph.
pub fn run_arena(
    schedules: &[ArenaSchedule],
    g0: &Graph,
    seed: u64,
    checkpoint_every: usize,
) -> ArenaMatrix {
    let mut cells = Vec::new();
    for sched in schedules {
        for key in ENGINES {
            let mut engine = build_engine(key, g0, seed);
            let mut observer =
                CellObserver::attach(key, sched.name, engine.as_mut(), checkpoint_every);
            let mut adversary = sched.adversary(g0);
            let start = Instant::now();
            let summary = run_observed(
                engine.as_mut(),
                adversary.as_mut(),
                sched.steps,
                sched.seed(seed),
                &mut observer,
            );
            let wall_nanos = start.elapsed().as_nanos();
            let quality = observer.finish(engine.graph(), &summary);
            cells.push(ArenaCell {
                engine: key,
                schedule: sched.name,
                steps_applied: summary.events.len(),
                insertions: summary.insertions,
                deletions: summary.deletions,
                edges_added: summary.edges_added,
                edges_removed: summary.edges_removed,
                rounds: summary.rounds,
                messages: summary.messages,
                insert_rounds: summary.insert_rounds,
                insert_messages: summary.insert_messages,
                nodes: engine.graph().node_count(),
                edges: engine.graph().edge_count(),
                wall_nanos,
                quality,
            });
        }
    }
    ArenaMatrix {
        n0: g0.node_count(),
        seed,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xheal_graph::{generators, NodeId};

    #[test]
    fn standard_registry_has_all_ten_engines() {
        // Ascending keys keep each schedule's cells in the record's order.
        assert!(ENGINES.windows(2).all(|w| w[0] < w[1]));
        let g0 = generators::ring_with_chords(16);
        let names: Vec<&str> = ENGINES
            .iter()
            .map(|key| build_engine(key, &g0, 1).name())
            .collect();
        assert_eq!(
            names,
            [
                "binary-tree-heal",
                "cycle-heal",
                "dex",
                "forgiving-like",
                "no-heal",
                "star-heal",
                "xheal",
                "xheal-dist",
                "xheal-dist",
                "xheal-par",
            ]
        );
    }

    #[test]
    fn arena_covers_every_cell() {
        let g0 = generators::ring_with_chords(24);
        let schedules = ArenaSchedule::standard(10);
        let matrix = run_arena(&schedules, &g0, 99, 0);
        assert_eq!(matrix.cells.len(), 30);
        assert!(matrix.is_complete());
        assert_eq!(matrix.engines().len(), 10);
        assert_eq!(
            matrix.schedules(),
            ["uniform-churn", "clustered-bursts", "insert-heavy"]
        );
        for cell in &matrix.cells {
            assert!(cell.steps_applied > 0, "{}/{}", cell.engine, cell.schedule);
            assert!(cell.nodes > 0);
            assert!(cell.quality.max_degree > 0);
        }
        // Insert-heavy growth is deletion-free by construction.
        for e in matrix.engines() {
            let cell = matrix.cell(e, "insert-heavy").unwrap();
            assert_eq!(cell.deletions, 0, "{e}");
            assert_eq!(cell.insertions, cell.steps_applied, "{e}");
        }
    }

    #[test]
    fn membership_only_schedules_are_identical_across_engines() {
        // Uniform churn and insert-heavy pick events from membership alone,
        // so engines with identical memberships see identical event tapes.
        let g0 = generators::ring_with_chords(16);
        let schedules = [
            ArenaSchedule::uniform_churn(14),
            ArenaSchedule::insert_heavy(8),
        ];
        for sched in &schedules {
            let mut tapes = Vec::new();
            for key in ["xheal", "dex", "cycle-heal"] {
                let mut engine = build_engine(key, &g0, 5);
                let mut adversary = sched.adversary(&g0);
                let summary = xheal_workload::run(
                    engine.as_mut(),
                    adversary.as_mut(),
                    sched.steps,
                    sched.seed(5),
                );
                tapes.push(summary.events);
            }
            assert_eq!(tapes[0], tapes[1], "{}", sched.name);
            assert_eq!(tapes[0], tapes[2], "{}", sched.name);
        }
    }

    #[test]
    fn dex_degree_stays_bounded_in_arena() {
        let g0 = generators::ring_with_chords(20);
        let matrix = run_arena(&ArenaSchedule::standard(20), &g0, 3, 0);
        let bound = DexConfig::default().degree * DexConfig::default().max_load;
        for sched in matrix.schedules() {
            let cell = matrix.cell("dex", sched).unwrap();
            assert!(
                cell.quality.max_degree <= bound,
                "{sched}: {} > {bound}",
                cell.quality.max_degree
            );
        }
    }

    /// Observes a `dex` cell over `no-heal` on a star whose hub sits at
    /// DEX's cap, and inserts a leaf at a leaf, then one at the hub when
    /// `past_cap`.
    fn grow_star_at_the_cap(past_cap: bool) {
        let cap = dex_degree_cap();
        let g0 = generators::star(cap + 1);
        let mut engine = NoHeal::new(&g0);
        let mut observer = CellObserver::attach("dex", "star", &mut engine, 0);
        let contacts = [NodeId::new(1), NodeId::new(0)];
        let steps = if past_cap { 2 } else { 1 };
        for (step, &contact) in contacts[..steps].iter().enumerate() {
            let event = Event::Insert {
                node: NodeId::new((cap + 1 + step) as u64),
                neighbors: vec![contact],
            };
            let outcome = engine.apply(&event).expect("a fresh node");
            observer.on_event(step, &event, &outcome, engine.graph());
        }
        assert_eq!(engine.graph().degree(NodeId::new(0)), Some(cap));
    }

    #[test]
    fn dex_cap_check_passes_at_the_cap() {
        grow_star_at_the_cap(false);
    }

    #[test]
    #[should_panic(expected = "dex/star: degree bound violated at step 1")]
    fn dex_cap_check_panics_above_the_cap() {
        grow_star_at_the_cap(true);
    }
}
