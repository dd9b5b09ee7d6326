//! Metric accumulators, window close, and observation building.
//!
//! Per-API counters accumulate into [`ApiAccum`]s (window-scoped) and
//! [`ApiTotals`] (run-scoped); per-service accumulators live on the pod
//! runtime and are drained here at each metrics tick, when the window is
//! folded into a [`ClusterObservation`] for the control plane.

use super::{Engine, Ev};
use crate::observe::{ApiWindow, ClusterObservation, ServiceWindow};
use crate::types::{ApiId, ServiceId};
use simnet::{LatencyHistogram, SimDuration, SimTime};

/// Per-API per-window metric accumulators.
#[derive(Clone)]
pub(super) struct ApiAccum {
    pub(super) offered: u64,
    pub(super) admitted: u64,
    pub(super) good: u64,
    pub(super) slo_violated: u64,
    pub(super) failed: u64,
    pub(super) latencies: LatencyHistogram,
}

impl ApiAccum {
    pub(super) fn new() -> Self {
        ApiAccum {
            offered: 0,
            admitted: 0,
            good: 0,
            slo_violated: 0,
            failed: 0,
            latencies: LatencyHistogram::new(),
        }
    }

    pub(super) fn reset(&mut self) {
        *self = ApiAccum::new();
    }
}

/// Cumulative per-API counters over the whole run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ApiTotals {
    pub offered: u64,
    pub admitted: u64,
    pub good: u64,
    pub slo_violated: u64,
    pub failed: u64,
    pub rejected_entry: u64,
    /// Shed by the front-door priority gate before the token bucket.
    pub rejected_shed: u64,
}

/// The engine's metric state: window accumulators, run totals, and the
/// latest finalized observations.
pub(super) struct MetricsState {
    pub(super) api_accums: Vec<ApiAccum>,
    pub(super) api_totals: Vec<ApiTotals>,
    pub(super) window_start: SimTime,
    pub(super) latest_obs: Option<ClusterObservation>,
    pub(super) latest_true_obs: Option<ClusterObservation>,
    /// Static per-API service paths (topology union), used when path
    /// learning is disabled.
    pub(super) api_paths: Vec<Vec<ServiceId>>,
    /// Plane-veto counter values at the last journaled window close.
    pub(super) veto_base: (u64, u64, u64),
    /// Fault-telemetry counter values (dropouts, noisy, stale) at the
    /// last journaled window close.
    pub(super) fault_base: (u64, u64, u64),
}

impl MetricsState {
    pub(super) fn new(num_apis: usize, api_paths: Vec<Vec<ServiceId>>) -> Self {
        MetricsState {
            api_accums: vec![ApiAccum::new(); num_apis],
            api_totals: vec![ApiTotals::default(); num_apis],
            window_start: SimTime::ZERO,
            latest_obs: None,
            latest_true_obs: None,
            api_paths,
            veto_base: (0, 0, 0),
            fault_base: (0, 0, 0),
        }
    }
}

impl Engine {
    pub(super) fn on_metrics_tick(&mut self, now: SimTime) {
        let obs = self.finalize_window(now);
        // Admission controllers update their thresholds on fresh metrics.
        self.planes.admission.on_interval(&obs);
        // The front-door priority gate adapts on the same true window.
        self.front_tick(now, &obs);
        // Crash-loop probes.
        self.run_probes(now);
        // HPA sync on its own cadence (evaluated at metric ticks).
        self.run_hpa(now, &obs);
        // Telemetry faults distort only what leaves the cluster toward
        // the control plane; admission, probes and the HPA above ran on
        // the true window (they are in-cluster mechanisms, not part of
        // the observability pipeline being degraded). The true window is
        // kept alongside for ground-truth measurement.
        self.metrics.latest_true_obs = Some(obs.clone());
        self.metrics.latest_obs = Some(self.planes.faults.distort(now, obs));
        self.journal_window_aggregates(now);
        self.queue
            .schedule(now + self.cfg.control_interval, Ev::MetricsTick);
    }

    /// Advance the front-door plane one window: adapt the priority
    /// gate to the cluster's queuing-delay signal (the identical law
    /// the live gateway applies to its own observation), refresh its
    /// gauges, and journal verdict aggregates plus threshold moves.
    fn front_tick(&mut self, now: SimTime, obs: &ClusterObservation) {
        let rate_limited: u64 = self
            .metrics
            .api_totals
            .iter()
            .map(|t| t.rejected_entry)
            .sum();
        let Some(front) = self.front.as_mut() else {
            return;
        };
        let overloaded = front.door.overloaded(obs);
        let tick = front.door.tick(overloaded);
        let dr = rate_limited - front.rate_limited_base;
        front.rate_limited_base = rate_limited;
        let Some(journal) = self.journal.as_ref() else {
            return;
        };
        let t = now.as_secs_f64();
        if tick.window.any() || dr > 0 {
            journal.record(obs::JournalEntry::AdmissionWindow {
                t,
                cache_hits: tick.window.cache_hits,
                follower_hits: tick.window.follower_hits,
                misses: tick.window.misses,
                shed: tick.window.shed,
                rate_limited: dr,
            });
        }
        if let Some(mv) = tick.threshold {
            journal.record(obs::JournalEntry::PriorityThreshold {
                t,
                from: mv.from,
                to: mv.to,
                admitted: mv.admitted,
                shed: mv.shed,
                reason: mv.reason.to_string(),
            });
        }
    }

    /// Journal per-window plane-veto and fault-telemetry deltas (only for
    /// windows in which the counters actually moved). Runs after
    /// `distort`, so this window's telemetry distortions are included.
    fn journal_window_aggregates(&mut self, now: SimTime) {
        let Some(journal) = self.journal.as_ref() else {
            return;
        };
        let t = now.as_secs_f64();
        let v = self.planes.vetoes.snapshot();
        let base = self.metrics.veto_base;
        let (dr, da, df) = (v.0 - base.0, v.1 - base.1, v.2 - base.2);
        if (dr, da, df) != (0, 0, 0) {
            journal.record(obs::JournalEntry::PlaneVetoes {
                t,
                resilience: dr,
                admission: da,
                faults: df,
            });
        }
        self.metrics.veto_base = v;
        let fc = self.planes.faults.counters();
        let f = (fc.dropouts.get(), fc.noisy.get(), fc.stale.get());
        let base = self.metrics.fault_base;
        let (dd, dn, ds) = (f.0 - base.0, f.1 - base.1, f.2 - base.2);
        if (dd, dn, ds) != (0, 0, 0) {
            journal.record(obs::JournalEntry::FaultTelemetry {
                t,
                dropouts: dd,
                noisy: dn,
                stale: ds,
            });
        }
        self.metrics.fault_base = f;
    }

    pub(super) fn finalize_window(&mut self, now: SimTime) -> ClusterObservation {
        let window = now.duration_since(self.metrics.window_start);
        let window_ns = window.as_nanos().max(1);
        let mut services = Vec::with_capacity(self.services.len());
        for (i, svc) in self.services.iter_mut().enumerate() {
            svc.accumulate_alive(now);
            // Credit partial busy time of in-flight calls to this window.
            let mut busy = svc.busy_ns;
            for p in &svc.pods {
                if let Some(fl) = p.busy {
                    busy += now
                        .duration_since(fl.started.max(self.metrics.window_start))
                        .as_nanos();
                }
            }
            let denom = svc.alive_integral_ns;
            let queue_len: u64 = svc.pods.iter().map(|p| p.queue.len() as u64).sum();
            let utilization = if denom > 0 {
                (busy as f64 / denom as f64).min(1.0)
            } else if queue_len > 0 || svc.dropped_calls > 0 {
                1.0 // all pods down with work arriving: fully overloaded
            } else {
                0.0
            };
            let mean_qd = svc
                .queuing_delay_ns
                .checked_div(svc.started_calls)
                .map_or(SimDuration::ZERO, SimDuration::from_nanos);
            let sid = ServiceId(i as u32);
            services.push(ServiceWindow {
                service: sid,
                name: self.topo.service(sid).name.clone(),
                utilization,
                alive_pods: svc.ready_pods(),
                desired_pods: svc.desired,
                queue_len,
                mean_queuing_delay: mean_qd,
                started_calls: svc.started_calls,
                dropped_calls: svc.dropped_calls,
            });
            // Reset window accumulators.
            svc.busy_ns = 0;
            svc.queuing_delay_ns = 0;
            svc.started_calls = 0;
            svc.dropped_calls = 0;
            svc.alive_integral_ns = 0;
            svc.alive_last_change = now;
        }
        let secs = window_ns as f64 / 1e9;
        let mut apis = Vec::with_capacity(self.metrics.api_accums.len());
        for (i, acc) in self.metrics.api_accums.iter_mut().enumerate() {
            let aid = ApiId(i as u32);
            let spec = self.topo.api(aid);
            apis.push(ApiWindow {
                api: aid,
                name: spec.name.clone(),
                business: spec.business,
                offered: acc.offered as f64 / secs,
                admitted: acc.admitted as f64 / secs,
                goodput: acc.good as f64 / secs,
                slo_violated: acc.slo_violated as f64 / secs,
                failed: acc.failed as f64 / secs,
                p50: acc.latencies.quantile(0.50),
                p95: acc.latencies.quantile(0.95),
                p99: acc.latencies.quantile(0.99),
                rate_limit: self.entry.rate_limit(aid),
            });
            acc.reset();
        }
        self.metrics.window_start = now;
        let api_paths = match self.tracer.as_mut() {
            Some(tr) => {
                tr.compact(now);
                tr.learned_paths(now)
            }
            None => self.metrics.api_paths.clone(),
        };
        let resilience = self
            .planes
            .resilience
            .close_window(self.workload.retry_stats());
        ClusterObservation {
            now,
            window,
            services,
            apis,
            api_paths,
            slo: self.cfg.slo,
            resilience,
        }
    }
}
