//! Threshold policies over the monitored invariants and the structured
//! alerts they emit.
//!
//! A [`HealthPolicy`] encodes the operator's budget for each maintained
//! invariant (the paper's Theorem 2 family: bounded degree increase,
//! expansion no worse than a constant factor, connectivity) plus the
//! spectral-gap floor. [`HealthPolicy::evaluate`] compares a metrics
//! snapshot against the budgets and emits **edge-triggered**
//! [`HealthEvent`]s: one `Critical` alert when a metric crosses into
//! breach, one `Info` recovery when it crosses back — no per-event alert
//! spam while a breach persists (the per-metric [`Band`] lives in the
//! caller's [`BreachState`]).
//!
//! Each continuous metric optionally carries a **warn edge** between the
//! healthy zone and the breach limit, turning the policy into a three-band
//! machine with hysteresis: crossing the warn edge emits one `Warning`,
//! crossing the breach limit one `Critical`, and — crucially — a metric in
//! breach only *recovers* once it comes back past the warn edge. A value
//! oscillating around the breach limit therefore fires exactly one alert
//! instead of a `Critical`/`Info` pair per oscillation. Warn edges default
//! to `None`, which collapses the warn band to zero width and reproduces
//! the plain two-band behavior exactly.

use std::fmt;

use xheal_core::Severity;

/// Which monitored invariant an alert concerns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MetricKind {
    /// `max_v deg_G(v) / deg_{G'}(v)` (success metric 1).
    DegreeIncrease,
    /// λ₂ of the normalized Laplacian (success metric 4's spectral side).
    SpectralGap,
    /// Sweep-cut expansion upper bound (success metric 2).
    Expansion,
    /// Connected-component count (success metric: connectivity).
    Connectivity,
}

impl fmt::Display for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricKind::DegreeIncrease => write!(f, "degree-increase"),
            MetricKind::SpectralGap => write!(f, "spectral-gap"),
            MetricKind::Expansion => write!(f, "expansion"),
            MetricKind::Connectivity => write!(f, "connectivity"),
        }
    }
}

/// The band a monitored metric currently sits in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Band {
    /// Within budget (below the warn edge).
    #[default]
    Ok,
    /// Past the warn edge but not the breach limit.
    Warn,
    /// Past the breach limit — and, by hysteresis, still past the warn
    /// edge on the way back.
    Breach,
}

/// One structured alert from the policy layer.
#[derive(Clone, Debug)]
pub struct HealthEvent {
    /// Topology generation the triggering snapshot was computed at.
    pub generation: u64,
    /// `Critical` on breach, `Warning` on entering the warn band, `Info`
    /// on recovery.
    pub severity: Severity,
    /// The invariant concerned.
    pub metric: MetricKind,
    /// Measured value.
    pub value: f64,
    /// The configured budget it was compared against.
    pub limit: f64,
}

impl fmt::Display for HealthEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[gen {}] {} {}: {:.4} vs limit {:.4}",
            self.generation, self.severity, self.metric, self.value, self.limit
        )
    }
}

/// The values a policy evaluation consumes. Expensive entries are optional
/// so cheap per-event evaluations can skip them.
#[derive(Clone, Copy, Debug, Default)]
pub struct MetricsSnapshot {
    /// Topology generation the snapshot describes.
    pub generation: u64,
    /// Maintained max degree increase vs `G'`, when `G'` covers every
    /// live node.
    pub degree_increase: Option<f64>,
    /// Warm-started λ₂ of the normalized Laplacian, when computed.
    pub spectral_gap: Option<f64>,
    /// Sweep-cut expansion estimate, when computed.
    pub expansion: Option<f64>,
    /// Connected components, when computed.
    pub components: Option<usize>,
}

/// Configurable invariant budgets. `None` disables a check; `warn_*`
/// edges are optional and add a [`Band::Warn`] buffer (with hysteresis)
/// inside the corresponding budget.
#[derive(Clone, Copy, Debug)]
pub struct HealthPolicy {
    /// Alert when the max degree increase exceeds this factor. The paper
    /// guarantees O(κ); a sensible budget is `c·κ` for small `c`.
    pub max_degree_increase: Option<f64>,
    /// Warn edge below [`HealthPolicy::max_degree_increase`] (clamped to
    /// it): crossing it emits a `Warning`, and a degree-increase breach
    /// only recovers once the value drops back under this edge.
    pub warn_degree_increase: Option<f64>,
    /// Alert when λ₂ of the normalized Laplacian falls below this floor.
    pub min_spectral_gap: Option<f64>,
    /// Warn edge above [`HealthPolicy::min_spectral_gap`] (clamped to it).
    pub warn_spectral_gap: Option<f64>,
    /// Alert when the sweep-cut expansion estimate falls below this floor.
    pub min_expansion: Option<f64>,
    /// Warn edge above [`HealthPolicy::min_expansion`] (clamped to it).
    pub warn_expansion: Option<f64>,
    /// Alert when the component count exceeds this (usually 1).
    pub max_components: Option<usize>,
}

impl Default for HealthPolicy {
    /// Connectivity-only: the one invariant every deployment cares about.
    fn default() -> Self {
        HealthPolicy {
            max_degree_increase: None,
            warn_degree_increase: None,
            min_spectral_gap: None,
            warn_spectral_gap: None,
            min_expansion: None,
            warn_expansion: None,
            max_components: Some(1),
        }
    }
}

/// Edge-trigger memory: the [`Band`] each metric currently sits in.
#[derive(Clone, Copy, Debug, Default)]
pub struct BreachState {
    degree_increase: Band,
    spectral_gap: Band,
    expansion: Band,
    connectivity: Band,
}

impl BreachState {
    /// Is any monitored invariant currently in breach?
    pub fn any(&self) -> bool {
        [
            self.degree_increase,
            self.spectral_gap,
            self.expansion,
            self.connectivity,
        ]
        .contains(&Band::Breach)
    }

    /// The band `metric` currently sits in.
    pub fn band(&self, metric: MetricKind) -> Band {
        match metric {
            MetricKind::DegreeIncrease => self.degree_increase,
            MetricKind::SpectralGap => self.spectral_gap,
            MetricKind::Expansion => self.expansion,
            MetricKind::Connectivity => self.connectivity,
        }
    }
}

impl HealthPolicy {
    /// Compares `snap` against the budgets, appending edge-triggered
    /// alerts to `out` and updating `state`.
    ///
    /// Per measured metric the tuple is `(value, breach limit, warn edge,
    /// beyond breach?, beyond warn?)`; the band machine then applies the
    /// hysteresis rule — a metric in [`Band::Breach`] that retreats into
    /// the warn zone *stays* in breach until it clears the warn edge too.
    pub fn evaluate(
        &self,
        snap: &MetricsSnapshot,
        state: &mut BreachState,
        out: &mut Vec<HealthEvent>,
    ) {
        let mut check = |kind: MetricKind,
                         measured: Option<(f64, f64, f64, bool, bool)>,
                         band: &mut Band| {
            let Some((value, breach_lim, warn_lim, beyond_breach, beyond_warn)) = measured else {
                return; // metric not measured this round: hold state
            };
            let next = if beyond_breach || (beyond_warn && *band == Band::Breach) {
                Band::Breach
            } else if beyond_warn {
                Band::Warn
            } else {
                Band::Ok
            };
            if next == *band {
                return;
            }
            *band = next;
            let (severity, limit) = match next {
                Band::Breach => (Severity::Critical, breach_lim),
                Band::Warn => (Severity::Warning, warn_lim),
                Band::Ok => (Severity::Info, warn_lim),
            };
            out.push(HealthEvent {
                generation: snap.generation,
                severity,
                metric: kind,
                value,
                limit,
            });
        };

        check(
            MetricKind::DegreeIncrease,
            match (self.max_degree_increase, snap.degree_increase) {
                (Some(lim), Some(v)) => {
                    let warn = self.warn_degree_increase.unwrap_or(lim).min(lim);
                    Some((v, lim, warn, v > lim, v > warn))
                }
                _ => None,
            },
            &mut state.degree_increase,
        );
        check(
            MetricKind::SpectralGap,
            match (self.min_spectral_gap, snap.spectral_gap) {
                (Some(lim), Some(v)) => {
                    let warn = self.warn_spectral_gap.unwrap_or(lim).max(lim);
                    Some((v, lim, warn, v < lim, v < warn))
                }
                _ => None,
            },
            &mut state.spectral_gap,
        );
        check(
            MetricKind::Expansion,
            match (self.min_expansion, snap.expansion) {
                (Some(lim), Some(v)) => {
                    let warn = self.warn_expansion.unwrap_or(lim).max(lim);
                    Some((v, lim, warn, v < lim, v < warn))
                }
                _ => None,
            },
            &mut state.expansion,
        );
        check(
            MetricKind::Connectivity,
            match (self.max_components, snap.components) {
                (Some(lim), Some(c)) => {
                    let (v, l) = (c as f64, lim as f64);
                    Some((v, l, l, c > lim, c > lim))
                }
                _ => None,
            },
            &mut state.connectivity,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alerts_are_edge_triggered() {
        let policy = HealthPolicy {
            max_degree_increase: Some(4.0),
            min_spectral_gap: Some(0.05),
            ..HealthPolicy::default()
        };
        let mut state = BreachState::default();
        let mut out = Vec::new();
        let healthy = MetricsSnapshot {
            generation: 1,
            degree_increase: Some(2.0),
            spectral_gap: Some(0.2),
            expansion: None,
            components: Some(1),
        };
        policy.evaluate(&healthy, &mut state, &mut out);
        assert!(out.is_empty() && !state.any());

        // Breach two metrics: exactly two Critical alerts.
        let sick = MetricsSnapshot {
            generation: 2,
            degree_increase: Some(9.0),
            spectral_gap: Some(0.2),
            expansion: None,
            components: Some(3),
        };
        policy.evaluate(&sick, &mut state, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|e| e.severity == Severity::Critical));
        assert!(state.any());

        // Same breach persists: no new alerts.
        policy.evaluate(
            &MetricsSnapshot {
                generation: 3,
                ..sick
            },
            &mut state,
            &mut out,
        );
        assert_eq!(out.len(), 2, "steady breach must not spam");

        // Recovery: Info alerts, state clears.
        policy.evaluate(
            &MetricsSnapshot {
                generation: 4,
                ..healthy
            },
            &mut state,
            &mut out,
        );
        assert_eq!(out.len(), 4);
        assert!(out[2..].iter().all(|e| e.severity == Severity::Info));
        assert!(!state.any());
        assert!(out[2].to_string().contains("info"));
    }

    #[test]
    fn warn_band_and_hysteresis() {
        let policy = HealthPolicy {
            max_degree_increase: Some(4.0),
            warn_degree_increase: Some(3.0),
            ..HealthPolicy::default()
        };
        let mut state = BreachState::default();
        let mut out = Vec::new();
        let at = |generation: u64, degree_increase: f64| MetricsSnapshot {
            generation,
            degree_increase: Some(degree_increase),
            components: Some(1),
            ..MetricsSnapshot::default()
        };

        // Ok → Warn: one Warning against the warn edge.
        policy.evaluate(&at(1, 3.5), &mut state, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].severity, Severity::Warning);
        assert_eq!(out[0].limit, 3.0);
        assert_eq!(state.band(MetricKind::DegreeIncrease), Band::Warn);
        assert!(!state.any(), "warn is not a breach");

        // Warn → Breach: one Critical against the breach limit.
        policy.evaluate(&at(2, 4.5), &mut state, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].severity, Severity::Critical);
        assert_eq!(out[1].limit, 4.0);
        assert!(state.any());

        // Oscillating around the breach limit while above the warn edge:
        // hysteresis holds the breach, no alert flapping.
        for (gen, v) in [(3, 3.9), (4, 4.1), (5, 3.2)] {
            policy.evaluate(&at(gen, v), &mut state, &mut out);
        }
        assert_eq!(out.len(), 2, "no events inside the hysteresis band");
        assert_eq!(state.band(MetricKind::DegreeIncrease), Band::Breach);

        // Only clearing the warn edge recovers — straight to Ok.
        policy.evaluate(&at(6, 2.0), &mut state, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[2].severity, Severity::Info);
        assert_eq!(out[2].limit, 3.0, "recovery is judged at the warn edge");
        assert_eq!(state.band(MetricKind::DegreeIncrease), Band::Ok);

        // Warn → Ok also recovers with an Info.
        policy.evaluate(&at(7, 3.5), &mut state, &mut out);
        policy.evaluate(&at(8, 1.0), &mut state, &mut out);
        assert_eq!(out.len(), 5);
        assert_eq!(out[3].severity, Severity::Warning);
        assert_eq!(out[4].severity, Severity::Info);
    }

    #[test]
    fn warn_floor_guards_lower_bounded_metrics() {
        // Spectral gap: breach below 0.05, warn below 0.1.
        let policy = HealthPolicy {
            min_spectral_gap: Some(0.05),
            warn_spectral_gap: Some(0.1),
            max_components: None,
            ..HealthPolicy::default()
        };
        let mut state = BreachState::default();
        let mut out = Vec::new();
        let gap = |generation: u64, g: f64| MetricsSnapshot {
            generation,
            spectral_gap: Some(g),
            ..MetricsSnapshot::default()
        };
        policy.evaluate(&gap(1, 0.08), &mut state, &mut out);
        assert_eq!(out.last().unwrap().severity, Severity::Warning);
        policy.evaluate(&gap(2, 0.04), &mut state, &mut out);
        assert_eq!(out.last().unwrap().severity, Severity::Critical);
        // Back into the warn zone: still breached (hysteresis).
        policy.evaluate(&gap(3, 0.08), &mut state, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(state.band(MetricKind::SpectralGap), Band::Breach);
        policy.evaluate(&gap(4, 0.2), &mut state, &mut out);
        assert_eq!(out.last().unwrap().severity, Severity::Info);
        assert_eq!(state.band(MetricKind::SpectralGap), Band::Ok);
    }

    #[test]
    fn unmeasured_metrics_hold_state() {
        let policy = HealthPolicy {
            min_spectral_gap: Some(0.1),
            max_components: None,
            ..HealthPolicy::default()
        };
        let mut state = BreachState::default();
        let mut out = Vec::new();
        policy.evaluate(
            &MetricsSnapshot {
                generation: 1,
                spectral_gap: Some(0.01),
                ..MetricsSnapshot::default()
            },
            &mut state,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        // A cheap evaluation without the gap measured leaves the breach be.
        policy.evaluate(
            &MetricsSnapshot {
                generation: 2,
                spectral_gap: None,
                ..MetricsSnapshot::default()
            },
            &mut state,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert!(state.any());
    }
}
