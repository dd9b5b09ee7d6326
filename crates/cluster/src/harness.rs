//! Run loop coupling an [`Engine`] with an entry-point [`Controller`].
//!
//! TopFull's control loop is: observe the cluster once per second, decide,
//! and move per-API rate limits at the gateway (§5). The [`Harness`] steps
//! that loop ([`ControlLoop`]) over simulated time and records the
//! per-interval series every experiment in the paper plots — per-API
//! goodput, latencies, rate limits, pod counts and vCPU usage.

use crate::control_loop::{ControlLoop, Plane, WatchdogStats};
use crate::controller::Controller;
use crate::engine::Engine;
use crate::observe::ClusterObservation;
use crate::resilience::ResilienceStats;
use crate::types::ApiId;
use simnet::stats;
use simnet::{SimDuration, SimTime};
use std::sync::Arc;

/// Per-interval sample of one run.
#[derive(Clone, Debug)]
pub struct TickSample {
    pub at: SimTime,
    /// Per-API goodput (requests/s), indexed by `ApiId`.
    pub goodput: Vec<f64>,
    /// Per-API offered rate.
    pub offered: Vec<f64>,
    /// Per-API current rate limit.
    pub rate_limit: Vec<f64>,
    /// Per-API p99 end-to-end latency (seconds; 0 when no responses).
    pub p99: Vec<f64>,
    /// Total ready pods.
    pub pods: u32,
    /// vCPUs allocated.
    pub vcpus: f64,
    /// Request-plane resilience counters for this window (doomed work
    /// cancelled, retries suppressed, breaker activity, …).
    pub resilience: ResilienceStats,
}

impl TickSample {
    fn goodput_of(&self, api: ApiId) -> f64 {
        self.goodput.get(api.idx()).copied().unwrap_or(0.0)
    }
}

/// Result of a control-loop run — simulated ([`Harness`]) or live
/// (`liveserve::run`): the full per-interval timeline plus the control
/// system's decision journal.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// One sample per control interval. Boxed, so that growing the
    /// timeline copies a pointer per tick rather than the sample: a long
    /// run's resident memory then rises with the ticks it records, not
    /// in jumps at each doubling of the timeline's capacity.
    pub samples: Vec<Box<TickSample>>,
    pub num_apis: usize,
    /// Decision journal entries recorded over the run (detector
    /// transitions, re-clusterings, rate actions, watchdog events, plane
    /// aggregates). Filled by [`Harness::into_result`].
    pub journal: Vec<obs::JournalEntry>,
}

impl RunResult {
    /// Append one interval's sample, read off the window `obs`.
    pub fn record(&mut self, obs: &ClusterObservation, vcpus: f64) {
        self.num_apis = obs.apis.len();
        self.samples.push(Box::new(TickSample {
            at: obs.now,
            goodput: obs.apis.iter().map(|a| a.goodput).collect(),
            offered: obs.apis.iter().map(|a| a.offered).collect(),
            rate_limit: obs.apis.iter().map(|a| a.rate_limit).collect(),
            p99: obs
                .apis
                .iter()
                .map(|a| a.p99.map(SimDuration::as_secs_f64).unwrap_or(0.0))
                .collect(),
            pods: obs.services.iter().map(|s| s.alive_pods).sum(),
            vcpus,
            resilience: obs.resilience,
        }));
    }

    /// Mean of `f` over the samples in an inclusive time range (seconds).
    pub fn mean_over(&self, from_s: f64, to_s: f64, f: impl Fn(&TickSample) -> f64) -> f64 {
        let in_range = |s: &&TickSample| (from_s..=to_s).contains(&s.at.as_secs_f64());
        let ticks = self.samples.iter().map(Box::as_ref);
        let xs: Vec<f64> = ticks.filter(in_range).map(f).collect();
        stats::mean(&xs)
    }

    /// `f` per sample as a `(seconds, value)` timeline.
    pub fn series(&self, f: impl Fn(&TickSample) -> f64) -> Vec<(f64, f64)> {
        let point = |s: &TickSample| (s.at.as_secs_f64(), f(s));
        self.samples.iter().map(Box::as_ref).map(point).collect()
    }

    /// Mean goodput of one API over an inclusive time range (seconds).
    /// An `ApiId` outside this run's topology reads as 0 rps.
    pub fn mean_goodput_api(&self, api: ApiId, from_s: f64, to_s: f64) -> f64 {
        self.mean_over(from_s, to_s, |s| s.goodput_of(api))
    }

    /// Mean total goodput over an inclusive time range (seconds).
    pub fn mean_total_goodput(&self, from_s: f64, to_s: f64) -> f64 {
        self.mean_over(from_s, to_s, |s| s.goodput.iter().sum())
    }

    /// Per-API goodput timeline as `(seconds, rps)` pairs. An `ApiId`
    /// outside this run's topology reads as 0 rps.
    pub fn goodput_series(&self, api: ApiId) -> Vec<(f64, f64)> {
        self.series(|s| s.goodput_of(api))
    }

    /// Total goodput timeline as `(seconds, rps)` pairs.
    pub fn total_goodput_series(&self) -> Vec<(f64, f64)> {
        self.series(|s| s.goodput.iter().sum())
    }
}

/// A simulated [`Plane`] the [`Harness`] can drive: the [`Engine`]
/// itself, or a plane stacked in front of one (`topfull::shard`'s
/// virtual gateway shards). The harness advances the engine's clock and
/// reads ground truth off it whatever sits in front.
pub trait SimPlane: Plane {
    fn engine(&self) -> &Engine;
    fn engine_mut(&mut self) -> &mut Engine;
    /// Route every layer's decision-journal entries to `journal`.
    fn set_journal(&mut self, journal: Arc<obs::Journal>);
}

impl SimPlane for Engine {
    fn engine(&self) -> &Engine {
        self
    }

    fn engine_mut(&mut self) -> &mut Engine {
        self
    }

    fn set_journal(&mut self, journal: Arc<obs::Journal>) {
        Engine::set_journal(self, journal);
    }
}

/// Couples a simulated plane and a [`ControlLoop`] at the control
/// cadence and records the timeline.
pub struct Harness<P: SimPlane = Engine> {
    /// The plane under control — for the plain harness, the engine.
    pub engine: P,
    ctl: ControlLoop,
    result: RunResult,
    next_tick: SimTime,
}

impl Harness {
    /// [`Harness::new`] with the hardened loop's watchdog
    /// ([`ControlLoop::with_watchdog`]).
    pub fn with_watchdog(engine: Engine, controller: Box<dyn Controller>) -> Self {
        let mut h = Harness::new(engine, controller);
        h.ctl = h.ctl.with_watchdog();
        h
    }
}

impl<P: SimPlane> Harness<P> {
    /// Wrap `plane` — an [`Engine`], or one behind gateway shards
    /// (`Harness::new(Sharded::sim(engine, cfg)?, controller)`) —
    /// controlled by `controller`. A shared decision journal is created
    /// and attached to both: the controller records its verdicts, the
    /// engine its per-window plane aggregates.
    pub fn new(mut plane: P, controller: Box<dyn Controller>) -> Self {
        let ctl = ControlLoop::new(controller);
        plane.set_journal(Arc::clone(ctl.journal()));
        let engine = plane.engine();
        Harness {
            result: RunResult {
                num_apis: engine.topology().num_apis(),
                ..RunResult::default()
            },
            next_tick: SimTime::ZERO + engine.config().control_interval,
            engine: plane,
            ctl,
        }
    }

    /// The shared decision journal.
    pub fn journal(&self) -> &Arc<obs::Journal> {
        self.ctl.journal()
    }

    /// Replace the SLO burn-rate monitor's objective/windows. Resets any
    /// accumulated burn history, so call before the run starts.
    pub fn set_slo_config(&mut self, cfg: obs::SloConfig) {
        self.ctl.set_slo_config(cfg);
    }

    /// What the watchdog did so far (zeroes when none is attached).
    pub fn watchdog_stats(&self) -> WatchdogStats {
        self.ctl.watchdog_stats()
    }

    /// Run until `t`, ticking the control loop at every control interval.
    pub fn run_until(&mut self, t: SimTime) {
        let interval = self.engine.engine().config().control_interval;
        while self.next_tick <= t {
            self.engine.engine_mut().run_until(self.next_tick);
            // Measurement records ground truth; the controller sees the
            // (possibly fault-distorted) observability-pipeline view.
            let engine = self.engine.engine();
            if let Some(truth) = engine.latest_true_observation() {
                self.result.record(truth, engine.vcpus_used());
            }
            self.ctl.tick(&mut self.engine);
            self.next_tick += interval;
        }
        self.engine.engine_mut().run_until(t);
    }

    /// Convenience: run for `secs` of simulated time from the start.
    pub fn run_for_secs(&mut self, secs: u64) {
        self.run_until(SimTime::from_secs(secs));
    }

    /// The timeline recorded so far.
    pub fn result(&self) -> &RunResult {
        &self.result
    }

    /// Consume the harness, returning the timeline with the decision
    /// journal embedded.
    pub fn into_result(mut self) -> RunResult {
        self.result.journal = self.ctl.journal().snapshot();
        self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{NoControl, RateLimitUpdate};
    use crate::engine::EngineConfig;
    use crate::topology::{ApiSpec, CallNode, ServiceSpec, Topology};
    use crate::workload::OpenLoopWorkload;

    fn engine(rate: f64) -> Engine {
        let mut topo = Topology::new("t");
        let s = topo.add_service(ServiceSpec::new("s", 1));
        let api = topo.add_api(ApiSpec::single(
            "a",
            CallNode::leaf(s, SimDuration::from_millis(10)),
        ));
        let w = OpenLoopWorkload::constant(vec![(api, rate)]);
        Engine::new(
            topo,
            EngineConfig {
                service_jitter: 0.0,
                ..EngineConfig::default()
            },
            Box::new(w),
        )
    }

    #[test]
    fn harness_records_one_sample_per_interval() {
        let mut h = Harness::new(engine(50.0), Box::new(NoControl));
        h.run_for_secs(10);
        assert_eq!(h.result().samples.len(), 10);
        assert_eq!(h.result().num_apis, 1);
        // Monotone timestamps at 1 s cadence.
        for (i, s) in h.result().samples.iter().enumerate() {
            assert_eq!(s.at, SimTime::from_secs(i as u64 + 1));
        }
    }

    #[test]
    fn controller_updates_reach_the_gateway() {
        /// Clamps API 0 to 30 rps on the first tick.
        struct ClampOnce(bool);
        impl Controller for ClampOnce {
            fn control(&mut self, _o: &ClusterObservation) -> Vec<RateLimitUpdate> {
                if self.0 {
                    return Vec::new();
                }
                self.0 = true;
                vec![RateLimitUpdate::limit(ApiId(0), 30.0)]
            }
        }
        let mut h = Harness::new(engine(100.0), Box::new(ClampOnce(false)));
        h.run_for_secs(20);
        let r = h.result();
        // After the clamp, goodput settles near 30 rps.
        let late = r.mean_goodput_api(ApiId(0), 10.0, 20.0);
        assert!(
            (24.0..=36.0).contains(&late),
            "clamped goodput ≈30 rps, got {late}"
        );
        // And the recorded rate limit reflects it.
        assert_eq!(r.samples.last().unwrap().rate_limit[0], 30.0);
    }

    #[test]
    fn out_of_range_api_reads_as_zero() {
        let mut h = Harness::new(engine(50.0), Box::new(NoControl));
        h.run_for_secs(5);
        let r = h.result();
        // The topology has one API; ApiId(7) must not panic.
        assert_eq!(r.mean_goodput_api(ApiId(7), 0.0, 5.0), 0.0);
        let series = r.goodput_series(ApiId(7));
        assert_eq!(series.len(), 5);
        assert!(series.iter().all(|(_, v)| *v == 0.0));
    }

    #[test]
    fn sustained_overload_journals_a_page_severity_burn() {
        // 1 pod × 10 ms service time ≈ 100 rps capacity; offering 600 rps
        // with no control drowns the SLO, so the fast burn windows blow
        // past the page threshold within seconds.
        let mut h = Harness::new(engine(600.0), Box::new(NoControl));
        h.run_for_secs(30);
        let entries = h.journal().snapshot();
        let burns: Vec<_> = entries
            .iter()
            .filter_map(|e| match e {
                obs::JournalEntry::SloBurn { to, api_name, .. } => {
                    Some((to.clone(), api_name.clone()))
                }
                _ => None,
            })
            .collect();
        assert!(
            burns.iter().any(|(to, _)| to == "page"),
            "expected a page-severity SloBurn, got {burns:?}"
        );
        assert!(burns.iter().all(|(_, name)| name == "a"), "{burns:?}");
    }

    #[test]
    fn healthy_run_journals_no_burn_transitions() {
        let mut h = Harness::new(engine(20.0), Box::new(NoControl));
        h.run_for_secs(30);
        let entries = h.journal().snapshot();
        assert!(
            !entries
                .iter()
                .any(|e| matches!(e, obs::JournalEntry::SloBurn { .. })),
            "an unloaded run must not page"
        );
    }

    #[test]
    fn mean_helpers_aggregate_windows() {
        let mut h = Harness::new(engine(50.0), Box::new(NoControl));
        h.run_for_secs(10);
        let r = h.result();
        let total = r.mean_total_goodput(2.0, 10.0);
        let api = r.mean_goodput_api(ApiId(0), 2.0, 10.0);
        assert!((total - api).abs() < 1e-9, "single API: total == api");
        assert!(total > 30.0);
        assert_eq!(r.goodput_series(ApiId(0)).len(), 10);
        assert_eq!(r.total_goodput_series().len(), 10);
    }
}
