//! The metrics a run reports, its correctness checks, and the output: one
//! line per metric with its unit and sample count, then the result object
//! as the last line of standard output.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("events_per_s", "events/s"),
    ("heal_p50_us", "us"),
    ("heal_p90_us", "us"),
    ("pass_s", "s"),
    ("deg_inc_mean", "ratio"),
    ("stretch_mean", "ratio"),
    ("components", "count"),
    ("edge_ops_per_repair", "ops"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. Shares
/// are the layer's time over the traced pass wall; a layer a workload never
/// calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("planner.share", "ratio"),
    ("planner.combines", "count"),
    ("graph.insert_share", "ratio"),
    ("graph.remove_share", "ratio"),
    ("graph.capture_share", "ratio"),
    ("graph.apply_share", "ratio"),
    ("graph.snapshot_share", "ratio"),
    ("executor.overhead_share", "ratio"),
    ("executor.heal_share", "ratio"),
    ("shard.par_speedup", "ratio"),
    ("dist.share", "ratio"),
    ("dist.rounds_per_repair", "rounds"),
    ("dist.msgs_per_repair", "msgs"),
    ("dist.msgs.probe", "count"),
    ("dist.msgs.grant", "count"),
    ("dist.msgs.link", "count"),
    ("dist.msgs.unlink", "count"),
    ("dist.msgs.splice", "count"),
    ("dist.msgs.splice_ack", "count"),
    ("sim.step_share", "ratio"),
    ("sim.drain_share", "ratio"),
    ("sim.send_share", "ratio"),
    ("traffic.route_share", "ratio"),
    ("traffic.hops_mean", "hops"),
    ("traffic.route_p99_ticks", "rounds"),
    ("traffic.stretch_p99", "ratio"),
    ("monitor.ingest_share", "ratio"),
    ("monitor.policy_share", "ratio"),
    ("monitor.checkpoint_share", "ratio"),
    ("monitor.snapshot_share", "ratio"),
    ("monitor.components_share", "ratio"),
    ("monitor.deltas_per_event", "deltas"),
    ("spectral.gap_share", "ratio"),
    ("spectral.sweep_share", "ratio"),
    ("spectral.lambda2_min", "ratio"),
    ("harness.share", "ratio"),
    ("harness.gen_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.timer_ns", "ns"),
    ("layers.attributed", "ratio"),
];

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, String)>,
    checks: Vec<(String, bool, String)>,
    notes: Vec<String>,
    /// Operations attempted: applied events plus routed requests.
    pub attempted: u64,
    /// Attempted operations that failed: `Err` from `apply`, lost requests.
    pub failed: u64,
    /// Fingerprint of the inputs the workload generated.
    pub fingerprint: u64,
}

impl Report {
    /// Records a metric with a note on where it came from (sample count).
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.values.insert(name, (value, note.into()));
    }

    /// Records a correctness check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    /// Adds a free-form line to the human-readable output.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1)
    }

    /// Renders the run: header, notes, metrics, checks, and the result
    /// object as the last line. Declared metrics that were not measured or
    /// are not finite fail the run.
    pub fn render(mut self, header: &str, trace: bool) -> (String, bool) {
        let spec = if trace { PER_LAYER } else { END_TO_END };
        let mut out = String::new();
        let _ = writeln!(out, "{header}");
        for line in &self.notes {
            let _ = writeln!(out, "{line}");
        }
        let mut json = Vec::new();
        for &(name, unit) in spec {
            if trace && !self.values.contains_key(name) {
                self.set(name, 0.0, "layer not exercised by this workload");
            }
            match self.values.get(name) {
                Some(&(v, ref note)) if v.is_finite() => {
                    let _ = writeln!(out, "  {name:<26} {v:>16.6} {unit:<9} {note}");
                    json.push(format!("{name:?}: {{\"value\": {v}, \"unit\": {unit:?}}}"));
                }
                other => {
                    let detail = format!("{name} = {:?}", other.map(|o| o.0));
                    self.checks.push(("metric measured".into(), false, detail));
                }
            }
        }
        for (name, ok, detail) in &self.checks {
            let verdict = if *ok { "ok" } else { "FAILED" };
            let _ = writeln!(out, "check {name}: {verdict} ({detail})");
        }
        let correct = self.correct();
        let _ = writeln!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            json.join(", ")
        );
        (out, correct)
    }
}
