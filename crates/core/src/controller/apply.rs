//! Algorithm 1: who receives a decision's step, and how the limits
//! move.
//!
//! Negative steps hit the lowest-business-priority candidates still
//! contributing load; positive steps raise the highest-priority
//! candidates, and only those with no *other* hot service on their path
//! (§4.1's rate-increase rule). A limit that has stayed comfortably
//! above the offered load is removed entirely.

use super::{flagged, Decision, Subject, TopFull, UNLIMITED};
use cluster::observe::ClusterObservation;
use cluster::types::ApiId;
use cluster::RateLimitUpdate;

/// Narrow `pool` to its highest (`increase`) or lowest
/// business-priority members, all ties included.
fn retain_priority_targets(obs: &ClusterObservation, pool: &mut Vec<ApiId>, increase: bool) {
    let key = |a: &ApiId| obs.api(*a).business;
    let best = if increase {
        pool.iter().map(key).min()
    } else {
        pool.iter().map(key).max()
    };
    pool.retain(|a| Some(key(a)) == best);
}

impl TopFull {
    /// Pick the decision's recipients and move their limits. `hot` flags
    /// the services currently above the detector's enter threshold.
    pub(super) fn apply(
        &mut self,
        obs: &ClusterObservation,
        hot: &[bool],
        d: &mut Decision,
        updates: &mut Vec<RateLimitUpdate>,
    ) {
        // The recipients are the candidates, narrowed in place.
        let mut pool = d.candidates.clone();
        match d.subject {
            Subject::Target(target) if d.action >= 0.0 => {
                // §4.1 rate-increase rule: only candidates whose path
                // has no hot service other than the target.
                pool.retain(|a| {
                    let path = &obs.api_paths[a.idx()];
                    let blocker = path.iter().find(|s| **s != target && flagged(hot, s.idx()));
                    if let Some(s) = blocker {
                        d.blocked.push((*a, *s));
                    }
                    blocker.is_none()
                });
                retain_priority_targets(obs, &mut pool, true);
            }
            Subject::Target(_) => {
                // Rate-limiting an API that carries no load — or one
                // already cut to the floor — cannot relieve the target;
                // cut among the candidates still contributing traffic
                // (DESIGN.md §5, refinement 2). The ablation flag reverts
                // to verbatim Algorithm 1.
                if self.cfg.restrict_cuts_to_contributing {
                    pool.retain(|a| {
                        let carries_load = obs.api(*a).admitted > 0.5 || obs.api(*a).offered > 0.5;
                        carries_load && self.apis[a.idx()].limit > self.cfg.min_rate
                    });
                }
                retain_priority_targets(obs, &mut pool, false);
            }
            // A probe's path is free of hot services and its one API is
            // the whole pool, whichever way the step points.
            Subject::Probe(_) => {}
        }
        d.applied_to = pool;
        self.apply_group_action(obs, &d.applied_to, d.action, updates);
    }

    /// Apply one step to a target group.
    ///
    /// Decreases are multiplicative per API ("we reduce the rates of
    /// corresponding APIs equally" — the same factor for everyone);
    /// increases distribute the group's total step in **equal absolute
    /// shares**. The combination is the Chiu–Jain fairness argument:
    /// proportional cuts + equal gains converge same-priority APIs
    /// toward an even split of the bottleneck, instead of freezing
    /// whatever ratio the initial transient produced (DESIGN.md §5,
    /// refinement 3).
    pub(super) fn apply_group_action(
        &mut self,
        obs: &ClusterObservation,
        apis: &[ApiId],
        action: f64,
        updates: &mut Vec<RateLimitUpdate>,
    ) {
        // A poisoned action (NaN from an unhardened policy) must not
        // poison the limit mirror — drop the step entirely.
        if !action.is_finite() {
            return;
        }
        let action = action.clamp(-0.5, 0.5);
        let (floor, ceil) = (self.cfg.min_rate, self.cfg.max_rate);
        // First pass: who takes part, and their total, which drives the
        // step size. Every participant leaves it with a finite limit, so
        // the second pass knows the ones skipped here by theirs.
        let (mut total, mut members) = (0.0, 0usize);
        for &api in apis {
            let slot = &mut self.apis[api.idx()];
            if !slot.limit.is_finite() {
                // Raising only applies to already-limited APIs.
                if action >= 0.0 {
                    continue;
                }
                // First throttle: the limit starts from the observed
                // admitted rate — from the floor when that is NaN
                // (degraded telemetry).
                let adm = obs.api(api).admitted;
                slot.limit = if adm.is_finite() {
                    adm.max(floor)
                } else {
                    floor
                };
                slot.init_tick = Some(self.ticks);
            }
            total += slot.limit;
            members += 1;
        }
        let share = action * total / members as f64;
        for &api in apis {
            let slot = &mut self.apis[api.idx()];
            let base = slot.limit;
            if !base.is_finite() {
                continue;
            }
            let next = if action >= 0.0 && self.cfg.fair_group_steps {
                // Equal absolute gains across the group.
                base + share
            } else {
                // Proportional (multiplicative) steps.
                base * (1.0 + action)
            }
            .clamp(floor, ceil);
            slot.limit = next;
            slot.headroom_ticks = 0;
            updates.push(RateLimitUpdate::limit(api, next));
        }
    }

    /// Count an interval of headroom for a probe candidate — its limit
    /// at least `release_headroom` × the offered load with latency inside
    /// the SLO — and, after `release_after` in a row, remove the limit
    /// and everything remembered about it. Returns whether it released.
    pub(super) fn release_if_idle(&mut self, obs: &ClusterObservation, api: ApiId) -> bool {
        let w = obs.api(api);
        let slot = &mut self.apis[api.idx()];
        if slot.limit >= w.offered * self.cfg.release_headroom && w.tail_latency() <= obs.slo {
            slot.headroom_ticks += 1;
            if slot.headroom_ticks >= self.cfg.release_after {
                *slot = UNLIMITED;
                return true;
            }
        } else {
            slot.headroom_ticks = 0;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{obs, sid};
    use super::super::TopFullConfig;
    use super::*;
    use crate::MimdController;
    use cluster::Controller;
    use cluster::{ApiSpec, CallNode, Engine, EngineConfig, Harness, OpenLoopWorkload};
    use cluster::{ServiceSpec, Topology};
    use simnet::{SimDuration, SimTime};
    use std::sync::Arc;

    const HOT: (f64, f64, f64, u64, u8, f64) = (200.0, 200.0, 50.0, 2000, 0, f64::INFINITY);

    #[test]
    fn decrease_hits_lowest_priority_only() {
        let mut tf = TopFull::new(TopFullConfig::default());
        // Both APIs pass overloaded service 0; API1 has lower priority
        // (higher value).
        let low = (200.0, 200.0, 50.0, 2000, 3, f64::INFINITY);
        let ups = tf.control(&obs(&[0.95], &[HOT, low], vec![sid(&[0]), sid(&[0])]));
        assert_eq!(ups.len(), 1, "only the lowest priority is cut");
        assert_eq!(ups[0].api, ApiId(1));
    }

    #[test]
    fn equal_priorities_are_cut_together() {
        let mut tf = TopFull::new(TopFullConfig::default());
        let ups = tf.control(&obs(&[0.95], &[HOT, HOT], vec![sid(&[0]), sid(&[0])]));
        assert_eq!(ups.len(), 2, "§4.1: reduce corresponding APIs equally");
    }

    /// Two overloaded services; API0 touches both, API1 only service 1.
    /// Latency is below the SLO, so MIMD raises.
    fn two_hot_services() -> ClusterObservation {
        obs(
            &[0.5, 0.95, 0.95],
            &[
                (200.0, 100.0, 100.0, 100, 0, 100.0),
                (200.0, 100.0, 100.0, 100, 1, 100.0),
            ],
            vec![sid(&[1, 2]), sid(&[1])],
        )
    }

    #[test]
    fn increase_requires_overload_free_path_beyond_target() {
        let mut tf = TopFull::new(
            TopFullConfig::default()
                .with_rate_controller(Arc::new(MimdController::with_steps(0.05, 0.2))),
        );
        tf.preset_limits(&[100.0, 100.0]);
        let ups = tf.control(&two_hot_services());
        // Cluster contains both APIs (share service 1). First target =
        // svc 2 (1 user); candidate {API0} is blocked from increasing
        // because API0 also passes hot svc 1. Second target = svc 1;
        // remaining candidate {API1} only touches its own target, so the
        // probe increase applies to it alone.
        assert_eq!(ups.len(), 1, "only API1 may be raised: {ups:?}");
        assert_eq!(ups[0].api, ApiId(1));
        assert!(
            !tf.last_decisions
                .iter()
                .any(|d| d.applied_to.contains(&ApiId(0))),
            "increase must not leak past other overloads"
        );
    }

    #[test]
    fn an_increase_vetoed_by_a_hot_service_is_journaled() {
        // "Hot" is the detector's 0.8: API0 is not raised through hot
        // svc 1, and the veto is recorded.
        let mut tf = TopFull::new(
            TopFullConfig::default()
                .with_rate_controller(Arc::new(MimdController::with_steps(0.05, 0.2))),
        );
        let journal = obs::Journal::shared();
        tf.attach_journal(std::sync::Arc::clone(&journal));
        tf.preset_limits(&[100.0, 100.0]);
        let ups = tf.control(&two_hot_services());
        assert!(
            ups.iter().all(|u| u.api != ApiId(0)),
            "API0 crosses hot svc 1 and must not be raised: {ups:?}"
        );
        let blocked: Vec<u32> = journal
            .snapshot()
            .iter()
            .filter_map(|e| match e {
                obs::JournalEntry::RateBlocked { api, .. } => Some(*api),
                _ => None,
            })
            .collect();
        assert_eq!(blocked, vec![0], "the veto is journaled");
    }

    #[test]
    fn recovery_raises_limited_api_when_path_clear() {
        let mut tf = TopFull::new(TopFullConfig::default());
        tf.preset_limits(&[100.0]);
        // No overload anywhere; API0 is limited to 100 while offering
        // 300 → recovery controller should raise it (MIMD +1%).
        let o = obs(
            &[0.5],
            &[(300.0, 100.0, 100.0, 50, 0, 100.0)],
            vec![sid(&[0])],
        );
        let ups = tf.control(&o);
        assert_eq!(ups.len(), 1);
        assert!((ups[0].rate - 101.0).abs() < 1e-9, "got {}", ups[0].rate);
    }

    #[test]
    fn longstanding_headroom_releases_the_limit() {
        let mut tf = TopFull::new(TopFullConfig {
            release_after: 3,
            ..TopFullConfig::default()
        });
        tf.preset_limits(&[1000.0]);
        // Offered 100 ≪ limit 1000 (headroom 10×) with low latency.
        let o = obs(
            &[0.3],
            &[(100.0, 100.0, 100.0, 50, 0, 1000.0)],
            vec![sid(&[0])],
        );
        let mut released = false;
        for _ in 0..5 {
            for u in tf.control(&o) {
                if u.rate.is_infinite() {
                    released = true;
                }
            }
        }
        assert!(released, "limit should be released after headroom ticks");
        assert!(tf.apis[0].limit.is_infinite());
    }

    #[test]
    fn verbatim_algorithm1_can_cut_idle_apis() {
        // Overloaded service 0; an idle low-priority API shares its path.
        let mk_obs = || {
            let mut o = obs(
                &[0.95],
                &[
                    (300.0, 300.0, 80.0, 2000, 0, f64::INFINITY),
                    (0.0, 0.0, 0.0, 0, 5, f64::INFINITY),
                ],
                vec![sid(&[0]), sid(&[0])],
            );
            (o.apis[1].p50, o.apis[1].p95, o.apis[1].p99) = (None, None, None);
            o
        };
        // Refined behaviour: the busy API is cut.
        let mut refined = TopFull::new(TopFullConfig::default());
        let ups = refined.control(&mk_obs());
        assert_eq!(ups.len(), 1);
        assert_eq!(ups[0].api, ApiId(0), "refined controller cuts the load");
        // Verbatim Algorithm 1: the idle lowest-priority API is cut
        // (uselessly) instead.
        let mut verbatim = TopFull::new(TopFullConfig {
            restrict_cuts_to_contributing: false,
            ..TopFullConfig::default()
        });
        let ups = verbatim.control(&mk_obs());
        assert_eq!(ups.len(), 1);
        assert_eq!(ups[0].api, ApiId(1), "verbatim targets the idle API");
    }

    #[test]
    fn unfair_group_steps_preserve_the_skew() {
        // Directly exercise apply_group_action on a skewed pair.
        let healthy = (100.0, 100.0, 100.0, 0, 0, f64::INFINITY);
        let o = obs(&[0.5], &[healthy, healthy], vec![sid(&[0]), sid(&[0])]);
        let raise = |fair: bool| {
            let mut tf = TopFull::new(TopFullConfig {
                fair_group_steps: fair,
                ..TopFullConfig::default()
            });
            tf.preset_limits(&[300.0, 100.0]); // 3:1 skew
            tf.apply_group_action(&o, &[ApiId(0), ApiId(1)], 0.2, &mut Vec::new());
            (tf.apis[0].limit, tf.apis[1].limit)
        };
        let (fa, fb) = raise(true);
        let (ua, ub) = raise(false);
        // Fair: equal absolute gains shrink the relative skew.
        assert!(fa / fb < 3.0, "fair steps reduce the ratio: {fa}/{fb}");
        // Unfair: multiplicative raise keeps the 3:1 ratio exactly.
        assert!((ua / ub - 3.0).abs() < 1e-9, "unfair keeps 3:1: {ua}/{ub}");
    }

    /// Two same-priority APIs share one bottleneck; whatever skew the
    /// initial transient creates, the Chiu–Jain group actions must
    /// converge the pair toward an even split.
    #[test]
    fn equal_priority_apis_converge_to_fair_share() {
        let mut topo = Topology::new("fair");
        let s = topo.add_service(ServiceSpec::new("shared", 2));
        let mk = |t: &mut Topology, name: &str, s| {
            t.add_api(ApiSpec::single(
                name,
                CallNode::leaf(s, SimDuration::from_millis(10)),
            ))
        };
        let a = mk(&mut topo, "a", s);
        let b = mk(&mut topo, "b", s);
        // Capacity 200 rps; offered very asymmetrically: 900 vs 300.
        let w = OpenLoopWorkload::constant(vec![(a, 900.0), (b, 300.0)]);
        let engine = Engine::new(
            topo,
            EngineConfig {
                seed: 5,
                service_jitter: 0.0,
                ..EngineConfig::default()
            },
            Box::new(w),
        );
        let tf = TopFull::new(TopFullConfig::default().with_mimd());
        let mut h = Harness::new(engine, Box::new(tf));
        h.run_until(SimTime::from_secs(600));
        let ga = h.result().mean_goodput_api(a, 450.0, 600.0);
        let gb = h.result().mean_goodput_api(b, 450.0, 600.0);
        assert!(ga + gb > 120.0, "bottleneck well utilized: {ga} + {gb}");
        // The offered skew is 3:1; multiplicative cuts + equal-share
        // raises must pull the served split well inside that.
        let ratio = ga.max(gb) / ga.min(gb).max(1.0);
        assert!(
            ratio < 2.5,
            "equal-priority split should approach fairness: {ga} vs {gb}"
        );
    }

    /// Distinct priorities must NOT be fair: the high-priority API gets
    /// the bottleneck, the low one survives at the floor.
    #[test]
    fn distinct_priorities_prefer_the_important_api() {
        let mut topo = Topology::new("prio");
        let s = topo.add_service(ServiceSpec::new("shared", 2));
        let a = topo.add_api(
            ApiSpec::single("vip", CallNode::leaf(s, SimDuration::from_millis(10)))
                .business(cluster::types::BusinessPriority(0)),
        );
        let b = topo.add_api(
            ApiSpec::single("batch", CallNode::leaf(s, SimDuration::from_millis(10)))
                .business(cluster::types::BusinessPriority(5)),
        );
        let w = OpenLoopWorkload::constant(vec![(a, 400.0), (b, 400.0)]);
        let engine = Engine::new(
            topo,
            EngineConfig {
                seed: 6,
                service_jitter: 0.0,
                ..EngineConfig::default()
            },
            Box::new(w),
        );
        let tf = TopFull::new(TopFullConfig::default().with_mimd());
        let mut h = Harness::new(engine, Box::new(tf));
        h.run_until(SimTime::from_secs(240));
        let ga = h.result().mean_goodput_api(a, 150.0, 240.0);
        let gb = h.result().mean_goodput_api(b, 150.0, 240.0);
        assert!(
            ga > 2.0 * gb,
            "priority must dominate the split: vip={ga} batch={gb}"
        );
    }
}
