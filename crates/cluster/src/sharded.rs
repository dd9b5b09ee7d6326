//! Virtual gateway shards over one simulated cluster.
//!
//! The sharded control plane (see `topfull::shard`) models N replicated
//! front doors in front of a single backend fleet. Running N separate
//! engines would distort the physics (capacity, queueing, and latency
//! all scale with pod counts, which don't divide evenly), so the sim
//! keeps ONE engine as ground truth and *slices* its controller-facing
//! [`ClusterObservation`] into per-shard views: API arrival rates split
//! by shard weight, integer service counters apportioned exactly
//! (largest remainder), and shared-backend signals (utilization,
//! latency percentiles) replicated — each gateway shard scrapes the
//! same cAdvisor fleet, so each sees the same utilization.
//!
//! The slice is built so that the shard plane's weighted merge of all
//! slices reproduces the original observation (round-trip identity up
//! to float error), which is exactly the property `tests/sharding.rs`
//! pins.
//!
//! [`ShardFault`] schedules the failure modes the robustness plane must
//! absorb: telemetry partition of one shard, abrupt shard death (its
//! clients fail over to the survivors), and loss of the central
//! controller.

use crate::observe::ClusterObservation;
use crate::resilience::ResilienceStats;
use simnet::SimTime;

/// One scheduled shard-plane fault.
#[derive(Clone, Debug)]
pub enum ShardFault {
    /// Telemetry partition: the shard keeps serving traffic, but its
    /// reports never reach the controller and limit pushes never reach
    /// the shard (it must degrade locally).
    Dropout {
        shard: usize,
        from: SimTime,
        until: SimTime,
    },
    /// The shard's gateway dies abruptly at `at`: it stops serving and
    /// reporting forever; its client share fails over to the survivors.
    Kill { shard: usize, at: SimTime },
    /// The central controller is unreachable for every shard.
    ControllerLoss { from: SimTime, until: SimTime },
}

/// Slices one engine's observation into per-shard views under a static
/// client-affinity weighting plus a fault schedule.
#[derive(Clone, Debug)]
pub struct ShardSlicer {
    /// Normalized share of client traffic pinned to each shard.
    weights: Vec<f64>,
    faults: Vec<ShardFault>,
}

impl ShardSlicer {
    /// `weights = None` gives a uniform split. Explicit weights must be
    /// non-negative, sum to something positive, and match `shards`.
    pub fn new(shards: usize, weights: Option<Vec<f64>>) -> Result<ShardSlicer, String> {
        if shards == 0 {
            return Err("sharding requires at least one shard".into());
        }
        let weights = match weights {
            None => vec![1.0 / shards as f64; shards],
            Some(w) => {
                if w.len() != shards {
                    return Err(format!(
                        "sharding: {} weights given for {shards} shards",
                        w.len()
                    ));
                }
                if w.iter().any(|x| !x.is_finite() || *x < 0.0) {
                    return Err("sharding: weights must be finite and non-negative".into());
                }
                let sum: f64 = w.iter().sum();
                if sum <= 0.0 {
                    return Err("sharding: weights must sum to a positive value".into());
                }
                w.iter().map(|x| x / sum).collect()
            }
        };
        Ok(ShardSlicer {
            weights,
            faults: Vec::new(),
        })
    }

    pub fn with_faults(mut self, faults: Vec<ShardFault>) -> Self {
        self.faults = faults;
        self
    }

    pub fn shards(&self) -> usize {
        self.weights.len()
    }

    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Which shards are serving traffic at `t` (not killed).
    pub fn serving(&self, t: SimTime) -> Vec<bool> {
        let mut up = vec![true; self.shards()];
        for f in &self.faults {
            if let ShardFault::Kill { shard, at } = f {
                if *shard < up.len() && t >= *at {
                    up[*shard] = false;
                }
            }
        }
        up
    }

    /// Which shards' telemetry reaches the controller at `t` (serving
    /// and not inside a dropout window).
    pub fn reporting(&self, t: SimTime) -> Vec<bool> {
        let mut rep = self.serving(t);
        for f in &self.faults {
            if let ShardFault::Dropout { shard, from, until } = f {
                if *shard < rep.len() && t >= *from && t < *until {
                    rep[*shard] = false;
                }
            }
        }
        rep
    }

    /// Is the central controller unreachable at `t`?
    pub fn controller_lost(&self, t: SimTime) -> bool {
        self.faults.iter().any(|f| match f {
            ShardFault::ControllerLoss { from, until } => t >= *from && t < *until,
            _ => false,
        })
    }

    /// Effective traffic share per shard at `t`: a killed shard's
    /// clients fail over, so its weight is redistributed across the
    /// surviving shards proportionally. Zero everywhere only if every
    /// shard is dead.
    pub fn effective_weights(&self, t: SimTime) -> Vec<f64> {
        let serving = self.serving(t);
        let alive_sum: f64 = self
            .weights
            .iter()
            .zip(&serving)
            .filter(|(_, up)| **up)
            .map(|(w, _)| *w)
            .sum();
        self.weights
            .iter()
            .zip(&serving)
            .map(|(w, up)| {
                if *up && alive_sum > 0.0 {
                    w / alive_sum
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Slice `obs` into per-shard local views at `t`. A killed shard
    /// yields `None`; a dropped-out shard still yields its local view
    /// (it keeps serving — only the *report* to the controller is
    /// suppressed, which [`ShardSlicer::reporting`] tracks).
    pub fn slice(&self, obs: &ClusterObservation, t: SimTime) -> Vec<Option<ClusterObservation>> {
        let n = self.shards();
        let serving = self.serving(t);
        let w = self.effective_weights(t);

        // Integer service counters are apportioned exactly so that the
        // per-shard views sum back to the engine's ground truth.
        let svc_parts: Vec<ServicePartition> = obs
            .services
            .iter()
            .map(|s| ServicePartition {
                alive_pods: apportion(u64::from(s.alive_pods), &w),
                desired_pods: apportion(u64::from(s.desired_pods), &w),
                queue_len: apportion(s.queue_len, &w),
                started_calls: apportion(s.started_calls, &w),
                dropped_calls: apportion(s.dropped_calls, &w),
            })
            .collect();
        let res = resilience_partition(&obs.resilience, &w);

        (0..n)
            .map(|s| {
                if !serving[s] {
                    return None;
                }
                let mut view = obs.clone();
                for (svc, part) in view.services.iter_mut().zip(&svc_parts) {
                    svc.alive_pods = part.alive_pods[s] as u32;
                    svc.desired_pods = part.desired_pods[s] as u32;
                    svc.queue_len = part.queue_len[s];
                    svc.started_calls = part.started_calls[s];
                    svc.dropped_calls = part.dropped_calls[s];
                    // utilization and mean_queuing_delay stay as-is:
                    // every shard scrapes the same shared backend.
                }
                for api in view.apis.iter_mut() {
                    api.offered *= w[s];
                    api.admitted *= w[s];
                    api.goodput *= w[s];
                    api.slo_violated *= w[s];
                    api.failed *= w[s];
                    // Latency percentiles are backend-wide; rate_limit
                    // is overwritten by the harness with the shard's
                    // current quota.
                }
                view.resilience = res[s];
                Some(view)
            })
            .collect()
    }
}

struct ServicePartition {
    alive_pods: Vec<u64>,
    desired_pods: Vec<u64>,
    queue_len: Vec<u64>,
    started_calls: Vec<u64>,
    dropped_calls: Vec<u64>,
}

fn resilience_partition(r: &ResilienceStats, w: &[f64]) -> Vec<ResilienceStats> {
    let doomed = apportion(r.doomed_cancelled, w);
    let deadline = apportion(r.deadline_rejected, w);
    let client = apportion(r.client_cancelled, w);
    let issued = apportion(r.retries_issued, w);
    let suppressed = apportion(r.retries_suppressed, w);
    let rejected = apportion(r.breaker_rejected, w);
    let transitions = apportion(r.breaker_transitions, w);
    (0..w.len())
        .map(|s| ResilienceStats {
            doomed_cancelled: doomed[s],
            deadline_rejected: deadline[s],
            client_cancelled: client[s],
            retries_issued: issued[s],
            retries_suppressed: suppressed[s],
            breaker_rejected: rejected[s],
            breaker_transitions: transitions[s],
        })
        .collect()
}

/// Largest-remainder apportionment of `v` across `weights` (assumed to
/// sum to ~1 over the non-zero entries): exact conservation, ties
/// broken toward the lowest index for determinism.
pub fn apportion(v: u64, weights: &[f64]) -> Vec<u64> {
    let n = weights.len();
    let mut out = vec![0u64; n];
    let wsum: f64 = weights.iter().filter(|x| x.is_finite() && **x > 0.0).sum();
    if v == 0 || wsum <= 0.0 {
        return out;
    }
    let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(n);
    let mut assigned = 0u64;
    for (i, w) in weights.iter().enumerate() {
        let w = if w.is_finite() && *w > 0.0 { *w } else { 0.0 };
        let exact = v as f64 * (w / wsum);
        let floor = exact.floor();
        out[i] = floor as u64;
        assigned += out[i];
        fracs.push((i, exact - floor));
    }
    // Remainder seats go to the largest fractional parts.
    let mut rest = v.saturating_sub(assigned);
    fracs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut cursor = 0usize;
    while rest > 0 && cursor < fracs.len() {
        let (i, _) = fracs[cursor];
        if weights[i].is_finite() && weights[i] > 0.0 {
            out[i] += 1;
            rest -= 1;
        }
        cursor += 1;
    }
    // Pathological float edge (all remainders zero-weighted): dump the
    // leftovers on the heaviest shard so the total is always conserved.
    if rest > 0 {
        let heaviest = weights
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        out[heaviest] += rest;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ApiId, BusinessPriority, ServiceId};
    use simnet::SimDuration;

    fn obs() -> ClusterObservation {
        ClusterObservation {
            now: SimTime::from_secs(10),
            window: SimDuration::from_secs(1),
            services: vec![crate::observe::ServiceWindow {
                service: ServiceId(0),
                name: "backend".into(),
                utilization: 0.9,
                alive_pods: 7,
                desired_pods: 8,
                queue_len: 13,
                mean_queuing_delay: SimDuration::from_millis(5),
                started_calls: 101,
                dropped_calls: 3,
            }],
            apis: vec![crate::observe::ApiWindow {
                api: ApiId(0),
                name: "get".into(),
                business: BusinessPriority(1),
                offered: 300.0,
                admitted: 240.0,
                goodput: 210.0,
                slo_violated: 15.0,
                failed: 15.0,
                p50: Some(SimDuration::from_millis(20)),
                p95: Some(SimDuration::from_millis(60)),
                p99: Some(SimDuration::from_millis(90)),
                rate_limit: 250.0,
            }],
            api_paths: vec![vec![ServiceId(0)]],
            slo: SimDuration::from_millis(100),
            resilience: ResilienceStats::default(),
        }
    }

    #[test]
    fn apportion_conserves_and_is_deterministic() {
        for v in [0u64, 1, 7, 100, 101, 999] {
            for w in [
                vec![1.0, 1.0, 1.0],
                vec![0.5, 0.3, 0.2],
                vec![0.0, 1.0, 0.0],
                vec![0.9, 0.05, 0.05],
            ] {
                let parts = apportion(v, &w);
                assert_eq!(parts.iter().sum::<u64>(), v, "v={v} w={w:?}");
                assert_eq!(parts, apportion(v, &w), "non-deterministic");
            }
        }
        // Zero-weight shards get nothing.
        assert_eq!(apportion(10, &[0.0, 1.0])[0], 0);
    }

    #[test]
    fn slices_sum_back_to_ground_truth() {
        let slicer = ShardSlicer::new(3, Some(vec![0.5, 0.3, 0.2])).unwrap();
        let o = obs();
        let views = slicer.slice(&o, SimTime::from_secs(10));
        let views: Vec<_> = views.into_iter().flatten().collect();
        assert_eq!(views.len(), 3);
        let offered: f64 = views.iter().map(|v| v.apis[0].offered).sum();
        let goodput: f64 = views.iter().map(|v| v.apis[0].goodput).sum();
        let pods: u32 = views.iter().map(|v| v.services[0].alive_pods).sum();
        let started: u64 = views.iter().map(|v| v.services[0].started_calls).sum();
        assert!((offered - 300.0).abs() < 1e-9);
        assert!((goodput - 210.0).abs() < 1e-9);
        assert_eq!(pods, 7);
        assert_eq!(started, 101);
        // Shared-backend signals replicate unchanged.
        for v in &views {
            assert_eq!(v.services[0].utilization, 0.9);
            assert_eq!(v.apis[0].p99, Some(SimDuration::from_millis(90)));
        }
    }

    #[test]
    fn kill_fails_traffic_over_to_survivors() {
        let slicer = ShardSlicer::new(3, None)
            .unwrap()
            .with_faults(vec![ShardFault::Kill {
                shard: 1,
                at: SimTime::from_secs(5),
            }]);
        let before = slicer.effective_weights(SimTime::from_secs(4));
        assert!((before[1] - 1.0 / 3.0).abs() < 1e-12);
        let after = slicer.effective_weights(SimTime::from_secs(5));
        assert_eq!(after[1], 0.0);
        assert!((after[0] - 0.5).abs() < 1e-12);
        assert!((after[2] - 0.5).abs() < 1e-12);

        let views = slicer.slice(&obs(), SimTime::from_secs(6));
        assert!(views[1].is_none(), "killed shard has no view");
        let total: f64 = views.iter().flatten().map(|v| v.apis[0].offered).sum();
        assert!((total - 300.0).abs() < 1e-9, "failover conserves traffic");
    }

    #[test]
    fn dropout_suppresses_reports_but_not_serving() {
        let slicer = ShardSlicer::new(2, None)
            .unwrap()
            .with_faults(vec![ShardFault::Dropout {
                shard: 0,
                from: SimTime::from_secs(10),
                until: SimTime::from_secs(20),
            }]);
        let t = SimTime::from_secs(15);
        assert_eq!(slicer.serving(t), vec![true, true]);
        assert_eq!(slicer.reporting(t), vec![false, true]);
        assert!(slicer.slice(&obs(), t)[0].is_some());
        assert_eq!(slicer.reporting(SimTime::from_secs(20)), vec![true, true]);
    }

    #[test]
    fn controller_loss_window() {
        let slicer =
            ShardSlicer::new(2, None)
                .unwrap()
                .with_faults(vec![ShardFault::ControllerLoss {
                    from: SimTime::from_secs(30),
                    until: SimTime::from_secs(40),
                }]);
        assert!(!slicer.controller_lost(SimTime::from_secs(29)));
        assert!(slicer.controller_lost(SimTime::from_secs(30)));
        assert!(!slicer.controller_lost(SimTime::from_secs(40)));
    }

    #[test]
    fn rejects_bad_weights() {
        assert!(ShardSlicer::new(0, None).is_err());
        assert!(ShardSlicer::new(2, Some(vec![1.0])).is_err());
        assert!(ShardSlicer::new(2, Some(vec![-1.0, 2.0])).is_err());
        assert!(ShardSlicer::new(2, Some(vec![0.0, 0.0])).is_err());
    }
}
