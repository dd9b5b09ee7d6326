//! Cluster observation: what the control plane sees once per interval.
//!
//! The paper's distributed tracing collector gathers (a) per-microservice
//! resource utilization via cAdvisor every second and (b) per-API traces —
//! execution paths and end-to-end latencies — via Istio (§5). A
//! [`ClusterObservation`] is that snapshot: per-service windows, per-API
//! windows, and the static API→services map.

use crate::resilience::ResilienceStats;
use crate::types::{ApiId, BusinessPriority, ServiceId};
use serde::{Deserialize, Serialize};
use simnet::{SimDuration, SimTime};

/// Per-service metrics over one observation window.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServiceWindow {
    pub service: ServiceId,
    pub name: String,
    /// Busy-time fraction of alive pods in the window, in `[0, 1]`
    /// (the CPU-utilization signal; overload when above a threshold).
    pub utilization: f64,
    /// Pods alive (ready) at the end of the window.
    pub alive_pods: u32,
    /// Pods desired by the autoscaler (≥ alive while scaling up).
    pub desired_pods: u32,
    /// Total queued calls across pods at the end of the window.
    pub queue_len: u64,
    /// Mean time calls spent queued before processing started, over calls
    /// that *started* in this window.
    pub mean_queuing_delay: SimDuration,
    /// Calls that started processing in this window.
    pub started_calls: u64,
    /// Calls dropped at this service this window (overflow/admission).
    pub dropped_calls: u64,
}

/// Per-API metrics over one observation window.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ApiWindow {
    pub api: ApiId,
    pub name: String,
    pub business: BusinessPriority,
    /// Requests/s offered by clients (before the entry rate limiter).
    pub offered: f64,
    /// Requests/s admitted past the entry rate limiter.
    pub admitted: f64,
    /// Requests/s that completed within the SLO (the paper's goodput).
    pub goodput: f64,
    /// Requests/s that completed but violated the SLO.
    pub slo_violated: f64,
    /// Requests/s that failed inside the cluster (drops, crashes).
    pub failed: f64,
    /// End-to-end latency percentiles over responses completed this
    /// window (`None` when no response completed).
    pub p50: Option<SimDuration>,
    pub p95: Option<SimDuration>,
    pub p99: Option<SimDuration>,
    /// The entry rate limit currently applied (requests/s;
    /// `f64::INFINITY` when unlimited).
    pub rate_limit: f64,
}

impl ApiWindow {
    /// The latency percentile the RL state uses, falling back through
    /// p99 → p95 → p50 → zero.
    pub fn tail_latency(&self) -> SimDuration {
        self.p99
            .or(self.p95)
            .or(self.p50)
            .unwrap_or(SimDuration::ZERO)
    }
}

/// A full snapshot handed to controllers each interval.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterObservation {
    /// End of the observation window.
    pub now: SimTime,
    /// Window length.
    pub window: SimDuration,
    pub services: Vec<ServiceWindow>,
    pub apis: Vec<ApiWindow>,
    /// For each API (indexed by `ApiId`), every service on any of its
    /// possible execution paths.
    pub api_paths: Vec<Vec<ServiceId>>,
    /// The latency SLO in force.
    pub slo: SimDuration,
    /// Request-plane resilience counters for this window (doomed work
    /// cancelled, deadline rejects, retry-budget suppression, breaker
    /// activity). All-zero unless [`crate::resilience`] is enabled.
    #[serde(default)]
    pub resilience: ResilienceStats,
}

impl ClusterObservation {
    /// Services whose utilization exceeds `threshold`.
    pub fn overloaded_services(&self, threshold: f64) -> Vec<ServiceId> {
        self.services
            .iter()
            .filter(|s| s.utilization > threshold)
            .map(|s| s.service)
            .collect()
    }

    /// Total goodput across APIs (requests/s).
    pub fn total_goodput(&self) -> f64 {
        self.apis.iter().map(|a| a.goodput).sum()
    }

    /// Per-service window by id.
    pub fn service(&self, id: ServiceId) -> &ServiceWindow {
        &self.services[id.idx()]
    }

    /// Per-API window by id.
    pub fn api(&self, id: ApiId) -> &ApiWindow {
        &self.apis[id.idx()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs() -> ClusterObservation {
        let mk_svc = |i: u32, util: f64| ServiceWindow {
            service: ServiceId(i),
            name: format!("s{i}"),
            utilization: util,
            alive_pods: 2,
            desired_pods: 2,
            queue_len: 0,
            mean_queuing_delay: SimDuration::ZERO,
            started_calls: 10,
            dropped_calls: 0,
        };
        let mk_api = |i: u32, goodput: f64| ApiWindow {
            api: ApiId(i),
            name: format!("a{i}"),
            business: BusinessPriority(i as u8),
            offered: goodput + 5.0,
            admitted: goodput + 2.0,
            goodput,
            slo_violated: 1.0,
            failed: 1.0,
            p50: Some(SimDuration::from_millis(10)),
            p95: None,
            p99: None,
            rate_limit: f64::INFINITY,
        };
        ClusterObservation {
            now: SimTime::from_secs(1),
            window: SimDuration::from_secs(1),
            services: vec![mk_svc(0, 0.5), mk_svc(1, 0.95), mk_svc(2, 0.81)],
            apis: vec![mk_api(0, 100.0), mk_api(1, 50.0)],
            api_paths: vec![vec![ServiceId(0), ServiceId(1)], vec![ServiceId(2)]],
            slo: SimDuration::from_secs(1),
            resilience: ResilienceStats::default(),
        }
    }

    #[test]
    fn overloaded_services_by_threshold() {
        let o = obs();
        assert_eq!(o.overloaded_services(0.8), vec![ServiceId(1), ServiceId(2)]);
        assert_eq!(o.overloaded_services(0.99), vec![]);
    }

    #[test]
    fn total_goodput_sums_apis() {
        assert_eq!(obs().total_goodput(), 150.0);
    }

    #[test]
    fn tail_latency_falls_back() {
        let o = obs();
        // p99 and p95 are None → falls back to p50.
        assert_eq!(o.api(ApiId(0)).tail_latency(), SimDuration::from_millis(10));
        let mut a = o.apis[0].clone();
        a.p50 = None;
        assert_eq!(a.tail_latency(), SimDuration::ZERO);
        a.p99 = Some(SimDuration::from_millis(99));
        assert_eq!(a.tail_latency(), SimDuration::from_millis(99));
    }

    #[test]
    fn indexed_accessors() {
        let o = obs();
        assert_eq!(o.service(ServiceId(1)).name, "s1");
        assert_eq!(o.api(ApiId(1)).name, "a1");
    }
}
