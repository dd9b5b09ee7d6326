//! Cross-crate property-based tests (proptest): invariants that must
//! hold for arbitrary topologies, workloads and controller inputs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use topfull_suite::cluster::types::{ApiId, ServiceId};
use topfull_suite::cluster::{
    ApiSpec, CallNode, Engine, EngineConfig, FaultSpec, Harness, OpenLoopWorkload, ServiceSpec,
    Topology,
};
use topfull_suite::simnet::{SimDuration, SimTime};
use topfull_suite::topfull::{
    cluster_apis, RateController, RateState, SafeRateController, TopFull, TopFullConfig,
};

/// Strategy: random API paths over `n_services`.
fn paths_strategy(n_services: u32, n_apis: usize) -> impl Strategy<Value = Vec<Vec<ServiceId>>> {
    prop::collection::vec(prop::collection::btree_set(0..n_services, 1..6), 1..=n_apis).prop_map(
        |apis| {
            apis.into_iter()
                .map(|set| set.into_iter().map(ServiceId).collect())
                .collect()
        },
    )
}

/// A step policy replaying an arbitrary (possibly hostile) script:
/// NaN, infinities, and values far outside the `[-0.5, 0.5]` contract.
struct ScriptedRateController {
    script: Vec<f64>,
    cursor: AtomicUsize,
}

impl RateController for ScriptedRateController {
    fn decide(&self, _s: RateState) -> f64 {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        self.script[i % self.script.len()]
    }

    fn name(&self) -> &str {
        "scripted"
    }
}

/// Decode a generated `(kind, from, len, param)` row into a fault.
fn decode_fault(
    kind: u32,
    from: u64,
    len: u64,
    param: f64,
    a: ServiceId,
    b: ServiceId,
) -> FaultSpec {
    let from_t = SimTime::from_secs(from);
    let until = SimTime::from_secs(from + len);
    match kind {
        0 => FaultSpec::PodKill {
            at: from_t,
            service: a,
            pods: 1,
        },
        1 => FaultSpec::SlowPods {
            from: from_t,
            until,
            service: b,
            factor: param,
        },
        2 => FaultSpec::NetworkDegrade {
            from: from_t,
            until,
            service: None,
            extra_latency: SimDuration::from_millis(param as u64),
            loss: (param / 100.0).clamp(0.0, 0.3),
        },
        3 => FaultSpec::TelemetryDropout {
            from: from_t,
            until,
            service: None,
        },
        4 => FaultSpec::TelemetryStaleness {
            from: from_t,
            until,
            by: SimDuration::from_secs((param as u64 % 8) + 1),
        },
        5 => FaultSpec::TelemetryNoise {
            from: from_t,
            until,
            sigma: param / 10.0,
        },
        _ => FaultSpec::ControllerStall {
            from: from_t,
            until,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Equation 2: clusters partition the involved APIs, every cluster's
    /// overloaded services are disjoint from other clusters', and every
    /// cluster contains at least one API and one overloaded service.
    #[test]
    fn clustering_is_a_partition(
        paths in paths_strategy(12, 10),
        overloaded_mask in prop::collection::vec(any::<bool>(), 12),
    ) {
        let overloaded: Vec<ServiceId> = overloaded_mask
            .iter()
            .enumerate()
            .filter(|(_, b)| **b)
            .map(|(i, _)| ServiceId(i as u32))
            .collect();
        let clusters = cluster_apis(&paths, &overloaded);
        // APIs appear in at most one cluster.
        let mut seen_apis = std::collections::HashSet::new();
        for c in &clusters {
            prop_assert!(!c.apis.is_empty());
            prop_assert!(!c.overloaded.is_empty());
            for a in &c.apis {
                prop_assert!(seen_apis.insert(*a), "API {a} in two clusters");
            }
        }
        // Overloaded services appear in at most one cluster.
        let mut seen_svc = std::collections::HashSet::new();
        for c in &clusters {
            for s in &c.overloaded {
                prop_assert!(seen_svc.insert(*s), "{s} in two clusters");
            }
        }
        // Exactly the involved APIs are covered.
        let over_set: std::collections::HashSet<ServiceId> =
            overloaded.iter().copied().collect();
        for (i, path) in paths.iter().enumerate() {
            let involved = path.iter().any(|s| over_set.contains(s));
            prop_assert_eq!(
                involved,
                seen_apis.contains(&ApiId(i as u32)),
                "API {} coverage mismatch", i
            );
        }
        // Equation 2 soundness: two APIs sharing an overloaded service
        // are in the same cluster.
        for i in 0..paths.len() {
            for j in (i + 1)..paths.len() {
                let share = paths[i]
                    .iter()
                    .any(|s| over_set.contains(s) && paths[j].contains(s));
                if share {
                    let ci = clusters.iter().position(|c| c.apis.contains(&ApiId(i as u32)));
                    let cj = clusters.iter().position(|c| c.apis.contains(&ApiId(j as u32)));
                    prop_assert_eq!(ci, cj, "APIs {} and {} must share a cluster", i, j);
                }
            }
        }
    }

    /// Engine conservation: every admitted request terminates exactly
    /// once (good, SLO-violated, or failed) once the system drains.
    #[test]
    fn request_accounting_conserves(
        seed in 0u64..500,
        rate in 20.0f64..400.0,
        cost_ms in 1u64..20,
        replicas in 1u32..4,
    ) {
        let mut topo = Topology::new("prop");
        let s = topo.add_service(ServiceSpec::new("s", replicas).queue_capacity(64));
        let api = topo.add_api(ApiSpec::single(
            "a",
            CallNode::leaf(s, SimDuration::from_millis(cost_ms)),
        ));
        let w = OpenLoopWorkload::constant(vec![(api, rate)]);
        let mut engine = Engine::new(
            topo,
            EngineConfig { seed, ..EngineConfig::default() },
            Box::new(w),
        );
        engine.run_until(SimTime::from_secs(10));
        // Let in-flight work drain: the workload stops producing after we
        // stop advancing ticks, so just run a little beyond.
        let t = engine.api_totals(api);
        prop_assert!(t.offered >= t.admitted + t.rejected_entry - 1);
        // Terminated ≤ admitted (some may be in flight at the horizon).
        prop_assert!(t.good + t.slo_violated + t.failed <= t.admitted);
        // Unterminated requests are bounded by what fits in the system:
        // the queues (replicas × 64) plus in-flight work and one tick of
        // arrivals in transit.
        let capacity_bound = u64::from(replicas) * 64 + u64::from(replicas) + 20;
        prop_assert!(
            t.admitted - (t.good + t.slo_violated + t.failed) <= capacity_bound,
            "too many unterminated requests: {:?}", t
        );
    }

    /// Goodput can never exceed the admitted rate, and utilization stays
    /// within [0, 1].
    #[test]
    fn observation_invariants(
        seed in 0u64..200,
        rate in 50.0f64..800.0,
    ) {
        let mut topo = Topology::new("prop2");
        let a = topo.add_service(ServiceSpec::new("a", 2));
        let b = topo.add_service(ServiceSpec::new("b", 1));
        let api = topo.add_api(ApiSpec::single(
            "x",
            CallNode::with_children(
                a,
                SimDuration::from_millis(2),
                vec![CallNode::leaf(b, SimDuration::from_millis(5))],
            ),
        ));
        let w = OpenLoopWorkload::constant(vec![(api, rate)]);
        let mut engine = Engine::new(
            topo,
            EngineConfig { seed, ..EngineConfig::default() },
            Box::new(w),
        );
        for t in 1..=8u64 {
            engine.run_until(SimTime::from_secs(t));
            let obs = engine.latest_observation().expect("tick passed").clone();
            for svc in &obs.services {
                prop_assert!((0.0..=1.0).contains(&svc.utilization));
            }
            let aw = obs.api(api);
            prop_assert!(aw.goodput <= aw.admitted + 1e-9 + 60.0,
                "goodput {} admitted {}", aw.goodput, aw.admitted);
            prop_assert!(aw.admitted <= aw.offered + 1e-9);
        }
    }

    /// Safety net: for ANY fault schedule and ANY rate-controller output
    /// stream (NaN, ±inf, huge steps), the hardened loop keeps every
    /// recorded rate limit either `+inf` (released) or finite within
    /// `[min_rate, max_rate]`, and never panics.
    #[test]
    fn hardened_limits_bounded_under_arbitrary_chaos(
        seed in 0u64..200,
        rate in 200.0f64..900.0,
        fault_rows in prop::collection::vec(
            (0u32..7, 0u64..25, 1u64..12, 1.0f64..12.0),
            0..5,
        ),
        script_rows in prop::collection::vec((0u32..6, -50.0f64..50.0), 3..10),
    ) {
        let mut topo = Topology::new("chaos-prop");
        let a = topo.add_service(ServiceSpec::new("a", 3));
        let b = topo.add_service(ServiceSpec::new("b", 1).queue_capacity(64));
        let api1 = topo.add_api(ApiSpec::single(
            "x",
            CallNode::with_children(
                a,
                SimDuration::from_millis(1),
                vec![CallNode::leaf(b, SimDuration::from_millis(3))],
            ),
        ));
        let api2 = topo.add_api(ApiSpec::single(
            "y",
            CallNode::leaf(a, SimDuration::from_millis(2)),
        ));
        let w = OpenLoopWorkload::constant(vec![(api1, rate), (api2, rate / 2.0)]);
        let mut engine = Engine::new(
            topo,
            EngineConfig { seed, ..EngineConfig::default() },
            Box::new(w),
        );
        engine.inject_faults(
            fault_rows
                .iter()
                .map(|&(k, f, l, p)| decode_fault(k, f, l, p, a, b))
                .collect(),
        );

        let script: Vec<f64> = script_rows
            .iter()
            .map(|&(kind, v)| match kind {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => v,
            })
            .collect();
        const FLOOR: f64 = 1.0;
        const CEIL: f64 = 5_000.0;
        let cfg = TopFullConfig::default()
            .with_rate_controller(Arc::new(SafeRateController::with_defaults(Arc::new(
                ScriptedRateController { script, cursor: AtomicUsize::new(0) },
            ))))
            .with_rate_bounds(FLOOR, CEIL);
        let mut h = Harness::with_watchdog(engine, Box::new(TopFull::new(cfg)));
        h.run_for_secs(40);

        for s in &h.result().samples {
            for (i, l) in s.rate_limit.iter().enumerate() {
                prop_assert!(!l.is_nan(), "NaN limit for api {} at {:?}", i, s.at);
                if l.is_finite() {
                    prop_assert!(
                        (FLOOR..=CEIL).contains(l),
                        "limit {} for api {} at {:?} outside [{}, {}]",
                        l, i, s.at, FLOOR, CEIL
                    );
                } else {
                    prop_assert!(*l > 0.0, "-inf limit for api {}", i);
                }
            }
        }
    }
}
