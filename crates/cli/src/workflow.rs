//! Declarative workload workflows.
//!
//! A workflow composes reusable **phases** (plateau, ramp, flash crowd,
//! diurnal, oscillating) into per-API tracks, plus a fault schedule and
//! a controller arm, and compiles down to the plain [`Scenario`] schema
//! — so the simulator, the live plane, and the sharded plane all run
//! workflow-generated scenarios unchanged. The compiler is a pure
//! function: the same workflow always produces byte-identical step
//! schedules, which is what makes matrix runs and fuzz findings
//! reproducible.

use crate::schema::{
    AppSpec, ControllerSpec, FaultSpecJson, RateSpec, ReportSpec, ResilienceSpec, Scenario,
    ShardingSpec, WorkloadSpec,
};
use serde::{Deserialize, Serialize};

/// Sampling resolution (seconds) for curved phases (ramp, diurnal).
/// Piecewise-constant steps at this grid approximate the curve; 2 s is
/// well below the controller's reaction time, so finer sampling only
/// bloats the schedule.
const SAMPLE_SECS: u64 = 2;

/// One workload phase. Phases play back to back on the scenario clock;
/// `duration_secs` is the phase length, rates are requests/second.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case", deny_unknown_fields)]
pub enum PhaseSpec {
    /// Hold `rate` for the whole phase.
    Plateau { duration_secs: u64, rate: f64 },
    /// Linear ramp from `from` to `to`.
    Ramp {
        duration_secs: u64,
        from: f64,
        to: f64,
    },
    /// Plateau at `base` with a burst to `peak` over
    /// `[burst_from_secs, burst_until_secs)` (phase-relative).
    FlashCrowd {
        duration_secs: u64,
        base: f64,
        peak: f64,
        burst_from_secs: u64,
        burst_until_secs: u64,
    },
    /// `base + amplitude · sin(2π t / period)` — a compressed day.
    Diurnal {
        duration_secs: u64,
        base: f64,
        amplitude: f64,
        period_secs: u64,
    },
    /// Square wave between `low` and `high`, starting low, switching
    /// every `period_secs / 2`.
    Oscillate {
        duration_secs: u64,
        low: f64,
        high: f64,
        period_secs: u64,
    },
}

impl PhaseSpec {
    pub(crate) fn duration_secs(&self) -> u64 {
        match self {
            PhaseSpec::Plateau { duration_secs, .. }
            | PhaseSpec::Ramp { duration_secs, .. }
            | PhaseSpec::FlashCrowd { duration_secs, .. }
            | PhaseSpec::Diurnal { duration_secs, .. }
            | PhaseSpec::Oscillate { duration_secs, .. } => *duration_secs,
        }
    }

    /// Offered rate `t` seconds into the phase (pure; the compiler
    /// samples this curve).
    fn rate_at(&self, t: f64) -> f64 {
        match self {
            PhaseSpec::Plateau { rate, .. } => *rate,
            PhaseSpec::Ramp {
                duration_secs,
                from,
                to,
            } => {
                let d = (*duration_secs).max(1) as f64;
                from + (to - from) * (t / d).clamp(0.0, 1.0)
            }
            PhaseSpec::FlashCrowd {
                base,
                peak,
                burst_from_secs,
                burst_until_secs,
                ..
            } => {
                if t >= *burst_from_secs as f64 && t < *burst_until_secs as f64 {
                    *peak
                } else {
                    *base
                }
            }
            PhaseSpec::Diurnal {
                base,
                amplitude,
                period_secs,
                ..
            } => {
                let p = (*period_secs).max(1) as f64;
                (base + amplitude * (std::f64::consts::TAU * t / p).sin()).max(0.0)
            }
            PhaseSpec::Oscillate {
                low,
                high,
                period_secs,
                ..
            } => {
                let half = ((*period_secs).max(2) / 2) as f64;
                if ((t / half) as u64).is_multiple_of(2) {
                    *low
                } else {
                    *high
                }
            }
        }
    }

    /// Every rate parameter of the phase (for validation).
    fn rates(&self) -> Vec<f64> {
        match self {
            PhaseSpec::Plateau { rate, .. } => vec![*rate],
            PhaseSpec::Ramp { from, to, .. } => vec![*from, *to],
            PhaseSpec::FlashCrowd { base, peak, .. } => vec![*base, *peak],
            PhaseSpec::Diurnal {
                base, amplitude, ..
            } => vec![*base, *amplitude],
            PhaseSpec::Oscillate { low, high, .. } => vec![*low, *high],
        }
    }

    fn validate(&self, ctx: &str) -> Result<(), String> {
        if self.duration_secs() == 0 {
            return Err(format!("{ctx}: phase duration_secs must be positive"));
        }
        for r in self.rates() {
            if !r.is_finite() || r < 0.0 {
                return Err(format!("{ctx}: rates must be finite and non-negative"));
            }
        }
        match self {
            PhaseSpec::FlashCrowd {
                duration_secs,
                burst_from_secs,
                burst_until_secs,
                ..
            } if burst_from_secs >= burst_until_secs || burst_until_secs > duration_secs => {
                return Err(format!(
                    "{ctx}: burst window [{burst_from_secs}, {burst_until_secs}) must be \
                     non-empty and inside the {duration_secs}s phase"
                ));
            }
            PhaseSpec::Diurnal { period_secs, .. } | PhaseSpec::Oscillate { period_secs, .. }
                if *period_secs < 2 =>
            {
                return Err(format!("{ctx}: period_secs must be at least 2"));
            }
            _ => {}
        }
        Ok(())
    }

    /// Emit the phase's `(offset_from_phase_start, rate)` steps.
    fn steps(&self, out: &mut Vec<(u64, f64)>) {
        let d = self.duration_secs();
        match self {
            PhaseSpec::Plateau { rate, .. } => out.push((0, *rate)),
            PhaseSpec::FlashCrowd {
                base,
                peak,
                burst_from_secs,
                burst_until_secs,
                ..
            } => {
                out.push((0, *base));
                out.push((*burst_from_secs, *peak));
                if *burst_until_secs < d {
                    out.push((*burst_until_secs, *base));
                }
            }
            PhaseSpec::Oscillate { period_secs, .. } => {
                let half = (*period_secs).max(2) / 2;
                let mut t = 0;
                while t < d {
                    out.push((t, self.rate_at(t as f64)));
                    t += half;
                }
            }
            PhaseSpec::Ramp { .. } | PhaseSpec::Diurnal { .. } => {
                let mut t = 0;
                while t < d {
                    out.push((t, self.rate_at(t as f64)));
                    t += SAMPLE_SECS;
                }
            }
        }
    }
}

/// One API's phase sequence.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TrackSpec {
    pub api: String,
    pub phases: Vec<PhaseSpec>,
}

impl TrackSpec {
    fn duration_secs(&self) -> u64 {
        self.phases.iter().map(PhaseSpec::duration_secs).sum()
    }

    /// Compile to the scenario schema's step schedule.
    fn to_rate_spec(&self) -> RateSpec {
        let mut steps: Vec<(u64, f64)> = Vec::new();
        let mut start = 0u64;
        for p in &self.phases {
            let mut phase_steps = Vec::new();
            p.steps(&mut phase_steps);
            for (off, rate) in phase_steps {
                steps.push((start + off, rate));
            }
            start += p.duration_secs();
        }
        // Drop steps that repeat the previous rate — they are no-ops
        // for the workload and only bloat the compiled scenario.
        let mut dedup: Vec<(u64, f64)> = Vec::with_capacity(steps.len());
        for (t, r) in steps {
            if dedup.last().is_some_and(|&(_, prev)| prev == r) {
                continue;
            }
            dedup.push((t, r));
        }
        RateSpec {
            api: self.api.clone(),
            steps: dedup,
        }
    }
}

/// A declarative workflow: per-API phase tracks × a fault schedule × a
/// controller arm, over an app topology.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct WorkflowSpec {
    #[serde(default = "default_name")]
    pub name: String,
    #[serde(default = "crate::schema::default_seed")]
    pub seed: u64,
    #[serde(default = "crate::schema::default_slo_ms")]
    pub slo_ms: u64,
    pub app: AppSpec,
    pub tracks: Vec<TrackSpec>,
    #[serde(default)]
    pub controller: ControllerSpec,
    #[serde(default)]
    pub faults: Vec<FaultSpecJson>,
    #[serde(default)]
    pub resilience: Option<ResilienceSpec>,
    #[serde(default)]
    pub sharding: Option<ShardingSpec>,
    #[serde(default = "crate::schema::default_measure_from")]
    pub measure_from_secs: u64,
}

fn default_name() -> String {
    "workflow".into()
}

impl WorkflowSpec {
    /// Total scenario duration: the longest track.
    pub fn duration_secs(&self) -> u64 {
        self.tracks
            .iter()
            .map(TrackSpec::duration_secs)
            .max()
            .unwrap_or(0)
    }

    /// The time after which the input stops changing: the last rate
    /// step and the last fault window have both passed. `None` when the
    /// workflow contains a permanent disturbance (pod kills don't
    /// "clear", so there is nothing to re-converge to).
    pub fn quiesce_secs(&self) -> Option<f64> {
        let mut q = 0u64;
        for f in &self.faults {
            match f {
                FaultSpecJson::PodKill { .. } => return None,
                FaultSpecJson::SlowPods { until_secs, .. }
                | FaultSpecJson::NetworkDegrade { until_secs, .. }
                | FaultSpecJson::TelemetryDropout { until_secs, .. }
                | FaultSpecJson::TelemetryStaleness { until_secs, .. }
                | FaultSpecJson::TelemetryNoise { until_secs, .. }
                | FaultSpecJson::ControllerStall { until_secs, .. } => q = q.max(*until_secs),
            }
        }
        for tr in &self.tracks {
            for (t, _) in &tr.to_rate_spec().steps {
                q = q.max(*t);
            }
        }
        Some(q as f64)
    }

    /// Windows where a fault injects latency the controller cannot shed
    /// (slow pods, network degrade). The sustained-p99 objective skips
    /// these spans — a breach the controller can't influence is not a
    /// controller weakness.
    pub(crate) fn latency_fault_windows(&self) -> Vec<(f64, f64)> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                FaultSpecJson::SlowPods {
                    from_secs,
                    until_secs,
                    ..
                } => Some((*from_secs as f64, *until_secs as f64)),
                FaultSpecJson::NetworkDegrade {
                    from_secs,
                    until_secs,
                    extra_latency_ms,
                    loss,
                    ..
                } if *extra_latency_ms > 0 || *loss > 0.0 => {
                    Some((*from_secs as f64, *until_secs as f64))
                }
                _ => None,
            })
            .collect()
    }

    /// Structural validation (the compiled scenario gets the full
    /// engine-level check on top via `crate::validate_scenario`).
    pub fn validate(&self) -> Result<(), String> {
        if self.tracks.is_empty() {
            return Err("workflow has no tracks: nothing would offer load".into());
        }
        for (i, tr) in self.tracks.iter().enumerate() {
            if tr.phases.is_empty() {
                return Err(format!("track[{i}] ('{}') has no phases", tr.api));
            }
            for (j, p) in tr.phases.iter().enumerate() {
                p.validate(&format!("track[{i}] ('{}') phase[{j}]", tr.api))?;
            }
        }
        Ok(())
    }

    /// Compile to the plain scenario schema. The output runs on every
    /// plane the repo has: `topfull run`, `topfull live`, sharded.
    pub fn compile(&self) -> Result<Scenario, String> {
        self.validate()?;
        Ok(Scenario {
            name: self.name.clone(),
            seed: self.seed,
            duration_secs: self.duration_secs(),
            slo_ms: self.slo_ms,
            pod_startup_secs: None,
            app: self.app.clone(),
            workload: WorkloadSpec::OpenLoop {
                rates: self.tracks.iter().map(TrackSpec::to_rate_spec).collect(),
            },
            controller: self.controller.clone(),
            autoscaler: None,
            faults: self.faults.clone(),
            resilience: self.resilience.clone(),
            live: None,
            sharding: self.sharding.clone(),
            admission: None,
            slo: None,
            report: ReportSpec {
                measure_from_secs: self.measure_from_secs,
                // The timeline is the eyeball surface for control
                // behavior (shed → recover arcs); emitted scenarios
                // should show it by default.
                timeline: true,
            },
        })
    }
}

/// Parse a workflow spec from JSON text. Every type in it denies
/// unknown fields, so a misspelt key at any depth is an error naming its
/// path (`tracks[0].phases[1] (plateau)`) and the nearest valid key.
pub fn parse_workflow(json: &str) -> Result<WorkflowSpec, String> {
    serde_json::from_str(json).map_err(|e| format!("invalid workflow: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tier_app() -> AppSpec {
        match Scenario::example().app {
            app @ AppSpec::Inline { .. } => app,
            _ => unreachable!("example app is inline"),
        }
    }

    fn wf(phases: Vec<PhaseSpec>) -> WorkflowSpec {
        WorkflowSpec {
            name: "t".into(),
            seed: 7,
            slo_ms: 1000,
            app: two_tier_app(),
            tracks: vec![TrackSpec {
                api: "get".into(),
                phases,
            }],
            controller: ControllerSpec::default(),
            faults: vec![],
            resilience: None,
            sharding: None,
            measure_from_secs: 10,
        }
    }

    #[test]
    fn plateau_and_flash_compile_to_exact_steps() {
        let w = wf(vec![
            PhaseSpec::Plateau {
                duration_secs: 20,
                rate: 50.0,
            },
            PhaseSpec::FlashCrowd {
                duration_secs: 40,
                base: 50.0,
                peak: 300.0,
                burst_from_secs: 10,
                burst_until_secs: 25,
            },
        ]);
        let sc = w.compile().expect("compiles");
        assert_eq!(sc.duration_secs, 60);
        let WorkloadSpec::OpenLoop { rates } = &sc.workload else {
            panic!("open loop")
        };
        // (0,50) deduped through the flash base, then the burst edges.
        assert_eq!(rates[0].steps, vec![(0, 50.0), (30, 300.0), (45, 50.0)]);
    }

    #[test]
    fn ramp_samples_monotonically() {
        let w = wf(vec![PhaseSpec::Ramp {
            duration_secs: 10,
            from: 0.0,
            to: 100.0,
        }]);
        let sc = w.compile().expect("compiles");
        let WorkloadSpec::OpenLoop { rates } = &sc.workload else {
            panic!("open loop")
        };
        let steps = &rates[0].steps;
        assert_eq!(steps.first(), Some(&(0, 0.0)));
        assert!(steps.windows(2).all(|w| w[0].1 < w[1].1), "{steps:?}");
        assert!(steps.windows(2).all(|w| w[0].0 < w[1].0), "{steps:?}");
    }

    #[test]
    fn oscillate_emits_square_edges() {
        let w = wf(vec![PhaseSpec::Oscillate {
            duration_secs: 40,
            low: 20.0,
            high: 200.0,
            period_secs: 20,
        }]);
        let sc = w.compile().expect("compiles");
        let WorkloadSpec::OpenLoop { rates } = &sc.workload else {
            panic!("open loop")
        };
        assert_eq!(
            rates[0].steps,
            vec![(0, 20.0), (10, 200.0), (20, 20.0), (30, 200.0)]
        );
    }

    #[test]
    fn quiesce_tracks_faults_and_steps() {
        let mut w = wf(vec![PhaseSpec::FlashCrowd {
            duration_secs: 60,
            base: 40.0,
            peak: 400.0,
            burst_from_secs: 10,
            burst_until_secs: 20,
        }]);
        assert_eq!(w.quiesce_secs(), Some(20.0));
        w.faults.push(FaultSpecJson::NetworkDegrade {
            from_secs: 25,
            until_secs: 45,
            service: None,
            extra_latency_ms: 500,
            loss: 0.0,
        });
        assert_eq!(w.quiesce_secs(), Some(45.0));
        assert_eq!(w.latency_fault_windows(), vec![(25.0, 45.0)]);
        w.faults.push(FaultSpecJson::PodKill {
            at_secs: 30,
            service: "backend".into(),
            pods: 1,
        });
        assert_eq!(w.quiesce_secs(), None, "pod kills never clear");
    }

    #[test]
    fn validation_rejects_degenerate_phases() {
        let w = wf(vec![PhaseSpec::Plateau {
            duration_secs: 0,
            rate: 10.0,
        }]);
        assert!(w.compile().unwrap_err().contains("duration_secs"));
        let w = wf(vec![PhaseSpec::FlashCrowd {
            duration_secs: 30,
            base: 10.0,
            peak: 100.0,
            burst_from_secs: 20,
            burst_until_secs: 40,
        }]);
        assert!(w.compile().unwrap_err().contains("burst window"));
        let mut w = wf(vec![PhaseSpec::Plateau {
            duration_secs: 10,
            rate: 10.0,
        }]);
        w.tracks.clear();
        assert!(w.compile().unwrap_err().contains("no tracks"));
    }

    #[test]
    fn parse_rejects_unknown_keys_at_depth() {
        let json = r#"{
            "app": {"type": "builtin", "name": "online-boutique"},
            "tracks": [{"api": "getproduct", "phases": [
                {"kind": "plateau", "duration_secs": 30, "rte": 100.0}
            ]}]
        }"#;
        let err = parse_workflow(json).expect_err("phase typo rejected");
        assert!(err.contains(" tracks[0].phases[0] (plateau): "), "{err}");
        assert!(err.contains("did you mean 'rate'?"), "{err}");
    }

    #[test]
    fn compiled_scenario_passes_full_validation() {
        let w = wf(vec![PhaseSpec::Diurnal {
            duration_secs: 60,
            base: 80.0,
            amplitude: 60.0,
            period_secs: 40,
        }]);
        let sc = w.compile().expect("compiles");
        crate::validate_scenario(&sc).expect("engine-level check passes");
    }
}
