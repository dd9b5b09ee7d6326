//! The fault plane: scheduled gray failures and degraded telemetry.
//!
//! [`crate::failure`] models the paper's two *crash* mechanisms (injected
//! pod kills, overload crash-loops). Real clusters also fail *gray*: pods
//! slow down without dying, links add latency and drop packets, and the
//! observability pipeline itself degrades — metrics go missing, arrive
//! late, or arrive wrong. A [`FaultSpec`] schedules any of these against
//! the simulated cluster; the [`FaultPlane`] runtime answers the engine's
//! per-event queries deterministically from its own forked RNG stream, so
//! enabling a fault never perturbs the base simulation's randomness.
//!
//! Telemetry faults distort only what the *control plane* sees (the
//! observation handed to controllers through
//! [`crate::engine::Engine::latest_observation`]); the cluster underneath
//! keeps running on its true state, which is exactly what makes gray
//! failures dangerous — the controller is flying on bad instruments.

use crate::observe::ClusterObservation;
use crate::types::ServiceId;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use simnet::{SimDuration, SimTime};
use std::collections::VecDeque;

/// One scheduled fault. Instantaneous faults carry an `at` time; windowed
/// faults are active on `[from, until)`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum FaultSpec {
    /// Kill `pods` ready pods of `service` at `at` (the Fig. 18
    /// mechanism; replacements recreate after the pod startup delay).
    PodKill {
        at: SimTime,
        service: ServiceId,
        pods: u32,
    },
    /// Gray slowdown: every call processed by `service` takes `factor`×
    /// its normal service time while active. Pods stay alive and probes
    /// stay green — only throughput quietly collapses.
    SlowPods {
        from: SimTime,
        until: SimTime,
        service: ServiceId,
        factor: f64,
    },
    /// Degrade the network path *into* `service` (`None` = every hop):
    /// each forward call gains `extra_latency` and is lost with
    /// probability `loss`.
    NetworkDegrade {
        from: SimTime,
        until: SimTime,
        service: Option<ServiceId>,
        extra_latency: SimDuration,
        loss: f64,
    },
    /// Metric dropout: the utilization of `service` (`None` = all
    /// services) reads as NaN while active.
    TelemetryDropout {
        from: SimTime,
        until: SimTime,
        service: Option<ServiceId>,
    },
    /// The whole observation pipeline lags: controllers see the snapshot
    /// from `by` ago instead of the current window.
    TelemetryStaleness {
        from: SimTime,
        until: SimTime,
        by: SimDuration,
    },
    /// Multiplicative log-normal noise (mean-preserving, sigma `sigma`)
    /// on every reported service utilization.
    TelemetryNoise {
        from: SimTime,
        until: SimTime,
        sigma: f64,
    },
    /// The control plane itself stalls: the harness skips control ticks
    /// while active (observations are still recorded).
    ControllerStall { from: SimTime, until: SimTime },
}

impl FaultSpec {
    fn is_telemetry(&self) -> bool {
        matches!(
            self,
            FaultSpec::TelemetryDropout { .. }
                | FaultSpec::TelemetryStaleness { .. }
                | FaultSpec::TelemetryNoise { .. }
        )
    }
}

fn active(now: SimTime, from: SimTime, until: SimTime) -> bool {
    now >= from && now < until
}

/// Effect of the network faults on one forward hop.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NetEffect {
    /// The call is lost in transit.
    pub dropped: bool,
    /// Added one-way latency (zero when no fault is active).
    pub extra: SimDuration,
}

/// How many true observations to retain for staleness replay.
const HISTORY_CAP: usize = 64;

/// Cumulative fault-plane telemetry counters: how often the plane
/// distorted what the control plane saw. Registered under
/// `topfull_fault_telemetry_total{kind=…}` plus
/// `topfull_fault_net_drops_total`; the engine journals per-window deltas
/// so a decision timeline shows when the controller was flying blind.
#[derive(Clone, Debug, Default)]
pub struct FaultTelemetryCounters {
    /// Service utilizations blanked to NaN by a dropout window.
    pub dropouts: obs::Counter,
    /// Service utilizations perturbed by telemetry noise.
    pub noisy: obs::Counter,
    /// Observations replaced by a stale snapshot.
    pub stale: obs::Counter,
    /// Forward calls lost to a degraded network path.
    pub net_drops: obs::Counter,
}

impl FaultTelemetryCounters {
    pub fn register_into(&self, reg: &obs::Registry) {
        for (kind, c) in [
            ("dropout", &self.dropouts),
            ("noise", &self.noisy),
            ("stale", &self.stale),
        ] {
            reg.register_counter("topfull_fault_telemetry_total", &[("kind", kind)], c);
        }
        reg.register_counter("topfull_fault_net_drops_total", &[], &self.net_drops);
    }
}

/// Runtime evaluating a schedule of [`FaultSpec`]s. Owned by the engine;
/// all randomness comes from a dedicated forked RNG so the base event
/// streams are identical with and without faults installed.
pub struct FaultPlane {
    specs: Vec<FaultSpec>,
    rng: SmallRng,
    /// Recent *true* observations, oldest first, for staleness replay.
    history: VecDeque<ClusterObservation>,
    has_telemetry: bool,
    has_net: bool,
    has_slow: bool,
    counters: FaultTelemetryCounters,
}

impl FaultPlane {
    /// An empty plane drawing from the engine's `"faults"` RNG fork.
    pub fn new(rng: SmallRng) -> Self {
        FaultPlane {
            specs: Vec::new(),
            rng,
            history: VecDeque::new(),
            has_telemetry: false,
            has_net: false,
            has_slow: false,
            counters: FaultTelemetryCounters::default(),
        }
    }

    /// The plane's cumulative telemetry-distortion counters.
    pub fn counters(&self) -> &FaultTelemetryCounters {
        &self.counters
    }

    /// Install faults. Pod kills are returned as `(at, service, pods)` for
    /// the engine to schedule on its event queue; everything else is
    /// evaluated by query.
    pub fn add(&mut self, specs: Vec<FaultSpec>) -> Vec<(SimTime, ServiceId, u32)> {
        let mut kills = Vec::new();
        for spec in specs {
            if let FaultSpec::PodKill { at, service, pods } = spec {
                kills.push((at, service, pods));
            } else {
                self.has_telemetry |= spec.is_telemetry();
                self.has_net |= matches!(spec, FaultSpec::NetworkDegrade { .. });
                self.has_slow |= matches!(spec, FaultSpec::SlowPods { .. });
                self.specs.push(spec);
            }
        }
        kills
    }

    /// The installed (non-kill) schedule.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Combined service-time multiplier for `svc` at `now` (1.0 = none).
    /// Overlapping slowdowns compound; non-finite or non-positive factors
    /// are ignored rather than corrupting the clock.
    pub fn slow_factor(&self, now: SimTime, svc: ServiceId) -> f64 {
        if !self.has_slow {
            return 1.0;
        }
        let mut f = 1.0;
        for s in &self.specs {
            if let FaultSpec::SlowPods {
                from,
                until,
                service,
                factor,
            } = s
            {
                if *service == svc
                    && active(now, *from, *until)
                    && factor.is_finite()
                    && *factor > 0.0
                {
                    f *= factor;
                }
            }
        }
        f
    }

    /// Network effect on a forward hop into `svc` at `now`. Consumes RNG
    /// only while a matching degrade window is active, keeping runs
    /// bit-identical outside fault windows.
    pub fn net_effect(&mut self, now: SimTime, svc: ServiceId) -> NetEffect {
        let mut eff = NetEffect::default();
        if !self.has_net {
            return eff;
        }
        for s in &self.specs {
            if let FaultSpec::NetworkDegrade {
                from,
                until,
                service,
                extra_latency,
                loss,
            } = s
            {
                let matches = service.is_none_or(|t| t == svc);
                if matches && active(now, *from, *until) {
                    eff.extra += *extra_latency;
                    let p = loss.clamp(0.0, 1.0);
                    if p > 0.0 && self.rng.gen::<f64>() < p && !eff.dropped {
                        eff.dropped = true;
                        self.counters.net_drops.inc();
                    }
                }
            }
        }
        eff
    }

    /// Whether the control plane is stalled at `now` (the harness skips
    /// its control tick).
    pub fn control_stalled(&self, now: SimTime) -> bool {
        self.specs.iter().any(|s| {
            matches!(s, FaultSpec::ControllerStall { from, until } if active(now, *from, *until))
        })
    }

    /// Distort the freshly finalized observation into what the control
    /// plane sees: staleness replays an old snapshot, dropout blanks
    /// utilizations to NaN, noise multiplies them. The true `obs` is
    /// archived for future staleness replay either way.
    pub fn distort(&mut self, now: SimTime, obs: ClusterObservation) -> ClusterObservation {
        if !self.has_telemetry {
            return obs;
        }
        self.history.push_back(obs.clone());
        if self.history.len() > HISTORY_CAP {
            self.history.pop_front();
        }
        let lag = self
            .specs
            .iter()
            .filter_map(|s| match s {
                FaultSpec::TelemetryStaleness { from, until, by } if active(now, *from, *until) => {
                    Some(*by)
                }
                _ => None,
            })
            .max()
            .unwrap_or(SimDuration::ZERO);
        let mut seen = if lag.is_zero() {
            obs
        } else {
            self.counters.stale.inc();
            // Newest archived snapshot at least `lag` old; the oldest we
            // have if the pipeline lag exceeds the archive.
            self.history
                .iter()
                .rev()
                .find(|o| now.duration_since(o.now) >= lag)
                .or_else(|| self.history.front())
                .cloned()
                .expect("history holds at least the current observation")
        };
        for s in &self.specs {
            match s {
                FaultSpec::TelemetryDropout {
                    from,
                    until,
                    service,
                } if active(now, *from, *until) => {
                    for w in &mut seen.services {
                        if service.is_none_or(|t| t == w.service) {
                            w.utilization = f64::NAN;
                            self.counters.dropouts.inc();
                        }
                    }
                }
                FaultSpec::TelemetryNoise { from, until, sigma }
                    if active(now, *from, *until) && *sigma > 0.0 && sigma.is_finite() =>
                {
                    for w in &mut seen.services {
                        if w.utilization.is_finite() {
                            // Mean-preserving log-normal multiplier, from
                            // two independent uniforms (Box–Muller).
                            let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
                            let u2: f64 = self.rng.gen();
                            let z =
                                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                            let mult = (-sigma * sigma / 2.0 + sigma * z).exp();
                            w.utilization = (w.utilization * mult).clamp(0.0, 2.0);
                            self.counters.noisy.inc();
                        }
                    }
                }
                _ => {}
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{ApiWindow, ServiceWindow};
    use simnet::rng;

    fn plane(specs: Vec<FaultSpec>) -> FaultPlane {
        let mut p = FaultPlane::new(rng::fork(1, "faults"));
        let kills = p.add(specs);
        assert!(kills.is_empty());
        p
    }

    fn obs_at(now: SimTime, utils: &[f64]) -> ClusterObservation {
        ClusterObservation {
            now,
            window: SimDuration::from_secs(1),
            services: utils
                .iter()
                .enumerate()
                .map(|(i, u)| ServiceWindow {
                    service: ServiceId(i as u32),
                    name: format!("s{i}"),
                    utilization: *u,
                    alive_pods: 1,
                    desired_pods: 1,
                    queue_len: 0,
                    mean_queuing_delay: SimDuration::ZERO,
                    started_calls: 1,
                    dropped_calls: 0,
                })
                .collect(),
            apis: Vec::<ApiWindow>::new(),
            api_paths: vec![],
            slo: SimDuration::from_secs(1),
            resilience: Default::default(),
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pod_kills_are_handed_back_to_the_engine() {
        let mut p = FaultPlane::new(rng::fork(1, "faults"));
        let kills = p.add(vec![FaultSpec::PodKill {
            at: t(30),
            service: ServiceId(2),
            pods: 5,
        }]);
        assert_eq!(kills, vec![(t(30), ServiceId(2), 5)]);
        assert!(p.specs().is_empty());
    }

    #[test]
    fn slow_factor_windows_and_compounds() {
        let p = plane(vec![
            FaultSpec::SlowPods {
                from: t(10),
                until: t(20),
                service: ServiceId(0),
                factor: 3.0,
            },
            FaultSpec::SlowPods {
                from: t(15),
                until: t(25),
                service: ServiceId(0),
                factor: 2.0,
            },
        ]);
        assert_eq!(p.slow_factor(t(5), ServiceId(0)), 1.0);
        assert_eq!(p.slow_factor(t(12), ServiceId(0)), 3.0);
        assert_eq!(p.slow_factor(t(17), ServiceId(0)), 6.0);
        assert_eq!(
            p.slow_factor(t(20), ServiceId(0)),
            2.0,
            "until is exclusive"
        );
        assert_eq!(
            p.slow_factor(t(12), ServiceId(1)),
            1.0,
            "other services untouched"
        );
    }

    #[test]
    fn slow_factor_ignores_degenerate_factors() {
        let p = plane(vec![FaultSpec::SlowPods {
            from: t(0),
            until: t(10),
            service: ServiceId(0),
            factor: f64::NAN,
        }]);
        assert_eq!(p.slow_factor(t(5), ServiceId(0)), 1.0);
    }

    #[test]
    fn net_effect_adds_latency_and_drops() {
        let mut p = plane(vec![FaultSpec::NetworkDegrade {
            from: t(0),
            until: t(100),
            service: Some(ServiceId(1)),
            extra_latency: SimDuration::from_millis(20),
            loss: 0.5,
        }]);
        // Unmatched service: no effect, no RNG consumed.
        assert_eq!(p.net_effect(t(1), ServiceId(0)), NetEffect::default());
        let mut drops = 0;
        for _ in 0..1000 {
            let e = p.net_effect(t(1), ServiceId(1));
            assert_eq!(e.extra, SimDuration::from_millis(20));
            drops += u32::from(e.dropped);
        }
        assert!((350..650).contains(&drops), "≈50% loss, got {drops}/1000");
    }

    #[test]
    fn controller_stall_window() {
        let p = plane(vec![FaultSpec::ControllerStall {
            from: t(10),
            until: t(20),
        }]);
        assert!(!p.control_stalled(t(9)));
        assert!(p.control_stalled(t(10)));
        assert!(p.control_stalled(t(19)));
        assert!(!p.control_stalled(t(20)));
    }

    #[test]
    fn dropout_blanks_utilization_to_nan() {
        let mut p = plane(vec![FaultSpec::TelemetryDropout {
            from: t(0),
            until: t(100),
            service: Some(ServiceId(1)),
        }]);
        let seen = p.distort(t(1), obs_at(t(1), &[0.5, 0.9]));
        assert_eq!(seen.services[0].utilization, 0.5);
        assert!(seen.services[1].utilization.is_nan());
        assert_eq!(p.counters().dropouts.get(), 1);
        assert_eq!(p.counters().noisy.get(), 0);
        assert_eq!(p.counters().stale.get(), 0);
    }

    #[test]
    fn telemetry_counters_register_and_count_distortions() {
        let mut p = plane(vec![FaultSpec::TelemetryStaleness {
            from: t(0),
            until: t(100),
            by: SimDuration::from_secs(1),
        }]);
        p.distort(t(1), obs_at(t(1), &[0.5]));
        p.distort(t(2), obs_at(t(2), &[0.6]));
        assert_eq!(p.counters().stale.get(), 2);
        let reg = obs::Registry::new();
        p.counters().register_into(&reg);
        assert_eq!(reg.len(), 4);
        let text = reg.render_prometheus();
        assert!(text.contains("topfull_fault_telemetry_total{kind=\"stale\"} 2"));
        assert!(text.contains("topfull_fault_net_drops_total 0"));
    }

    #[test]
    fn staleness_replays_old_snapshots() {
        let mut p = plane(vec![FaultSpec::TelemetryStaleness {
            from: t(5),
            until: t(100),
            by: SimDuration::from_secs(3),
        }]);
        for s in 1..=10u64 {
            let seen = p.distort(t(s), obs_at(t(s), &[s as f64 / 100.0]));
            if s < 5 {
                assert_eq!(seen.now, t(s), "inactive: passthrough");
            } else {
                // Newest snapshot at least 3 s old.
                assert_eq!(seen.now, t(s - 3), "at t={s}");
            }
        }
    }

    #[test]
    fn staleness_longer_than_history_serves_oldest() {
        let mut p = plane(vec![FaultSpec::TelemetryStaleness {
            from: t(0),
            until: t(100),
            by: SimDuration::from_secs(60),
        }]);
        let first = p.distort(t(1), obs_at(t(1), &[0.1]));
        assert_eq!(first.now, t(1), "nothing older exists yet");
        let second = p.distort(t(2), obs_at(t(2), &[0.2]));
        assert_eq!(second.now, t(1), "oldest available");
    }

    #[test]
    fn noise_is_mean_preserving_and_bounded() {
        let mut p = plane(vec![FaultSpec::TelemetryNoise {
            from: t(0),
            until: t(1_000_000),
            sigma: 0.3,
        }]);
        let mut sum = 0.0;
        let n = 2000;
        for i in 0..n {
            let seen = p.distort(t(i), obs_at(t(i), &[0.8]));
            let u = seen.services[0].utilization;
            assert!((0.0..=2.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((0.74..0.86).contains(&mean), "mean ≈ 0.8, got {mean}");
    }

    #[test]
    fn specs_serialize_round_trip() {
        let specs = vec![
            FaultSpec::PodKill {
                at: t(30),
                service: ServiceId(1),
                pods: 3,
            },
            FaultSpec::SlowPods {
                from: t(10),
                until: t(20),
                service: ServiceId(0),
                factor: 4.0,
            },
            FaultSpec::NetworkDegrade {
                from: t(0),
                until: t(5),
                service: None,
                extra_latency: SimDuration::from_millis(10),
                loss: 0.1,
            },
            FaultSpec::TelemetryDropout {
                from: t(1),
                until: t(2),
                service: Some(ServiceId(7)),
            },
            FaultSpec::TelemetryStaleness {
                from: t(1),
                until: t(2),
                by: SimDuration::from_secs(5),
            },
            FaultSpec::TelemetryNoise {
                from: t(1),
                until: t(2),
                sigma: 0.5,
            },
            FaultSpec::ControllerStall {
                from: t(1),
                until: t(2),
            },
        ];
        let json = serde_json::to_string(&specs).expect("serialize");
        assert!(json.contains("\"kind\""));
        let back: Vec<FaultSpec> = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, specs);
    }
}
