//! Engine behavior tests, grouped by the module they exercise most.

mod core {
    use crate::autoscaler::{HpaConfig, VmPoolConfig};
    use crate::engine::lifecycle::sample_weighted;
    use crate::engine::{Engine, EngineConfig};
    use crate::faults::FaultSpec;
    use crate::resilience::{BreakerConfig, DeadlineConfig, ResilienceConfig, ResilienceStats};
    use crate::topology::{ApiSpec, CallNode, ServiceSpec, Topology};
    use crate::types::{ApiId, ServiceId};
    use crate::workload::OpenLoopWorkload;
    use simnet::{SimDuration, SimTime};

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    /// One service, one API: pod capacity = 1/cost per pod.
    fn tiny_topo(replicas: u32, cost_ms: u64) -> (Topology, ApiId, ServiceId) {
        let mut t = Topology::new("tiny");
        let s = t.add_service(ServiceSpec::new("s", replicas));
        let api = t.add_api(ApiSpec::single("api", CallNode::leaf(s, ms(cost_ms))));
        (t, api, s)
    }

    fn run(topo: Topology, rate: f64, secs: u64) -> Engine {
        let apis: Vec<ApiId> = topo.apis().map(|(id, _)| id).collect();
        let w = OpenLoopWorkload::constant(apis.into_iter().map(|a| (a, rate)).collect());
        let mut e = Engine::new(
            topo,
            EngineConfig {
                service_jitter: 0.0,
                ..EngineConfig::default()
            },
            Box::new(w),
        );
        e.run_until(SimTime::from_secs(secs));
        e
    }

    #[test]
    fn underloaded_service_serves_everything() {
        // 2 pods × 10ms cost = 200 rps capacity; offer 50 rps.
        let (topo, api, _) = tiny_topo(2, 10);
        let e = run(topo, 50.0, 20);
        let t = e.api_totals(api);
        assert!(
            t.offered > 800,
            "Poisson 50rps × 20s ≈ 1000, got {}",
            t.offered
        );
        assert_eq!(t.good + t.slo_violated + t.failed, t.admitted);
        assert_eq!(t.failed, 0);
        assert_eq!(t.slo_violated, 0, "underloaded: everything within SLO");
        assert_eq!(t.good, t.offered, "no entry limiter installed");
    }

    #[test]
    fn overloaded_service_saturates_at_capacity() {
        // 1 pod × 10ms = 100 rps capacity; offer 300 rps.
        let (topo, api, s) = tiny_topo(1, 10);
        let mut e = run(topo, 300.0, 30);
        let t = e.api_totals(api);
        // Goodput can't exceed capacity; most excess violates SLO or drops.
        let good_rate = t.good as f64 / 30.0;
        assert!(good_rate <= 110.0, "goodput {good_rate} > capacity");
        assert!(
            t.slo_violated + t.failed > 0,
            "overload must violate SLOs or drop"
        );
        // Utilization reported as saturated.
        e.run_until(SimTime::from_secs(31));
        let obs = e.latest_observation().unwrap();
        assert!(obs.service(s).utilization > 0.95);
    }

    #[test]
    fn entry_rate_limit_caps_admission() {
        let (topo, api, _) = tiny_topo(1, 10);
        let apis = vec![(api, 300.0)];
        let w = OpenLoopWorkload::constant(apis);
        let mut e = Engine::new(
            topo,
            EngineConfig {
                service_jitter: 0.0,
                ..EngineConfig::default()
            },
            Box::new(w),
        );
        e.set_rate_limit(api, 80.0);
        e.run_until(SimTime::from_secs(30));
        let t = e.api_totals(api);
        let admitted_rate = t.admitted as f64 / 30.0;
        assert!(
            (70.0..=90.0).contains(&admitted_rate),
            "admitted {admitted_rate} ≈ 80 rps"
        );
        // A few requests may still be in flight at the horizon.
        assert!(
            t.admitted - t.good <= 3,
            "admitted load is within capacity: good={} admitted={}",
            t.good,
            t.admitted
        );
        assert!(t.rejected_entry > 0);
    }

    #[test]
    fn latency_composes_along_call_tree() {
        // frontend(5ms) → backend(10ms): e2e ≈ 5+10 + 4 hops×0.5ms ≈ 17ms.
        let mut topo = Topology::new("chain");
        let f = topo.add_service(ServiceSpec::new("front", 2));
        let b = topo.add_service(ServiceSpec::new("back", 2));
        let api = topo.add_api(ApiSpec::single(
            "get",
            CallNode::with_children(f, ms(5), vec![CallNode::leaf(b, ms(10))]),
        ));
        let e = run(topo, 20.0, 10);
        let _ = api;
        let obs = e.latest_observation().unwrap();
        let p50 = obs.apis[0].p50.unwrap();
        assert!(
            (15.0..25.0).contains(&p50.as_millis_f64()),
            "p50 {p50} should be ≈17ms"
        );
    }

    #[test]
    fn parallel_fanout_latency_is_max_not_sum() {
        let mut topo = Topology::new("fan");
        let f = topo.add_service(ServiceSpec::new("front", 4));
        let a = topo.add_service(ServiceSpec::new("a", 4));
        let b = topo.add_service(ServiceSpec::new("b", 4));
        topo.add_api(ApiSpec::single(
            "get",
            CallNode::with_children(
                f,
                ms(1),
                vec![CallNode::leaf(a, ms(10)), CallNode::leaf(b, ms(30))],
            ),
        ));
        let e = run(topo, 10.0, 10);
        let obs = e.latest_observation().unwrap();
        let p50 = obs.apis[0].p50.unwrap().as_millis_f64();
        assert!(
            (30.0..40.0).contains(&p50),
            "fan-out joins at max(10,30)+overheads, got {p50}ms"
        );
    }

    #[test]
    fn queue_overflow_fails_requests() {
        let mut topo = Topology::new("q");
        let s = topo.add_service(ServiceSpec::new("s", 1).queue_capacity(4));
        topo.add_api(ApiSpec::single("x", CallNode::leaf(s, ms(100))));
        // Capacity 10 rps; offer 200 rps → queues overflow instantly.
        let e = run(topo, 200.0, 10);
        let t = e.api_totals(ApiId(0));
        assert!(t.failed > 0, "bounded queue must drop");
    }

    #[test]
    fn observation_cadence_matches_interval() {
        let (topo, _, _) = tiny_topo(1, 10);
        let e = run(topo, 10.0, 5);
        let obs = e.latest_observation().unwrap();
        assert_eq!(obs.now, SimTime::from_secs(5));
        assert!((obs.window.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn determinism_same_seed_same_totals() {
        let totals = |seed: u64| {
            let (topo, api, _) = tiny_topo(2, 10);
            let w = OpenLoopWorkload::constant(vec![(api, 150.0)]);
            let mut e = Engine::new(
                topo,
                EngineConfig {
                    seed,
                    ..EngineConfig::default()
                },
                Box::new(w),
            );
            e.run_until(SimTime::from_secs(10));
            e.api_totals(api)
        };
        assert_eq!(totals(7), totals(7));
        assert_ne!(totals(7).offered, totals(8).offered);
    }

    #[test]
    fn injected_failure_kills_and_recovers_pods() {
        let (topo, _, s) = tiny_topo(10, 10);
        let w = OpenLoopWorkload::constant(vec![(ApiId(0), 100.0)]);
        let mut e = Engine::new(
            topo,
            EngineConfig {
                service_jitter: 0.0,
                pod_startup: SimDuration::from_secs(5),
                ..EngineConfig::default()
            },
            Box::new(w),
        );
        e.inject_faults(vec![FaultSpec::PodKill {
            at: SimTime::from_secs(10),
            service: s,
            pods: 7,
        }]);
        e.run_until(SimTime::from_secs(11));
        assert_eq!(e.ready_pods(s), 3, "7 of 10 pods killed");
        e.run_until(SimTime::from_secs(20));
        assert_eq!(e.ready_pods(s), 10, "replacements ready after startup");
    }

    #[test]
    fn crash_loop_fires_under_saturation() {
        let mut topo = Topology::new("crash");
        let s = topo.add_service(
            ServiceSpec::new("frag", 1)
                .queue_capacity(16)
                .crash_on_overload(),
        );
        topo.add_api(ApiSpec::single("x", CallNode::leaf(s, ms(50))));
        // Capacity 20 rps; offer 500 → queue pinned at cap → crash.
        let w = OpenLoopWorkload::constant(vec![(ApiId(0), 500.0)]);
        let mut e = Engine::new(topo, EngineConfig::default(), Box::new(w));
        e.run_until(SimTime::from_secs(20));
        assert!(e.crash_events > 0, "saturated pod should crash-loop");
    }

    #[test]
    fn hpa_scales_up_under_load() {
        let (topo, api, s) = tiny_topo(2, 10);
        // Capacity 200 rps; offer 500.
        let w = OpenLoopWorkload::constant(vec![(api, 500.0)]);
        let mut e = Engine::new(
            topo,
            EngineConfig {
                service_jitter: 0.0,
                pod_startup: SimDuration::from_secs(5),
                ..EngineConfig::default()
            },
            Box::new(w),
        );
        e.enable_hpa(HpaConfig::default());
        e.run_until(SimTime::from_secs(120));
        assert!(
            e.ready_pods(s) >= 4,
            "HPA should have scaled up, pods={}",
            e.ready_pods(s)
        );
        // With enough pods, goodput recovers near offered rate.
        let obs = e.latest_observation().unwrap();
        assert!(
            obs.apis[0].goodput > 350.0,
            "goodput {} should approach 500 rps after scaling",
            obs.apis[0].goodput
        );
    }

    #[test]
    fn vm_pool_delays_scale_up() {
        let (topo, api, s) = tiny_topo(2, 10);
        let w = OpenLoopWorkload::constant(vec![(api, 800.0)]);
        let mut e = Engine::new(
            topo,
            EngineConfig {
                service_jitter: 0.0,
                pod_startup: SimDuration::from_secs(2),
                ..EngineConfig::default()
            },
            Box::new(w),
        );
        e.set_vm_pool(VmPoolConfig {
            vcpus_per_vm: 4,
            initial_vms: 1,
            max_vms: 3,
            vm_startup: SimDuration::from_secs(30),
        });
        e.enable_hpa(HpaConfig::default());
        e.run_until(SimTime::from_secs(25));
        // Only 4 vCPUs → at most 4 pods before the new VM lands.
        assert!(e.ready_pods(s) <= 4);
        e.run_until(SimTime::from_secs(120));
        assert!(e.vms() > 1, "VM autoscaler should have provisioned");
        assert!(e.ready_pods(s) > 4, "pods land after VM startup");
    }

    #[test]
    fn weighted_sampling_prefers_heavy_branch() {
        let items = vec![(0.9, "a"), (0.1, "b")];
        let mut rng = simnet::rng::fork(3, "t");
        let heavy = (0..1000)
            .filter(|_| sample_weighted(&items, &mut rng) == 0)
            .count();
        assert!((850..=950).contains(&heavy), "got {heavy}");
    }

    /// 4 users with a 1 s timeout against a 3 s single-pod service:
    /// every request is doomed, queued calls pile up behind the pod.
    fn doomed_engine(cancel: bool) -> Engine {
        let (topo, api, _) = tiny_topo(1, 3000);
        let w = crate::workload::ClosedLoopWorkload::fixed(vec![(api, 1.0)], 4, ms(100))
            .timeout(Some(SimDuration::from_secs(1)));
        let mut e = Engine::new(
            topo,
            EngineConfig {
                service_jitter: 0.0,
                ..EngineConfig::default()
            },
            Box::new(w),
        );
        if cancel {
            e.set_resilience(ResilienceConfig {
                deadlines: Some(DeadlineConfig::default()),
                breakers: None,
            });
        }
        e.run_until(SimTime::from_secs(30));
        e
    }

    #[test]
    fn client_timeout_tears_down_doomed_work() {
        let e = doomed_engine(true);
        let t = e.api_totals(ApiId(0));
        assert_eq!(t.good, 0, "nothing completes within a 1 s timeout");
        // ≤: the 4 users' final requests may still be in flight.
        assert!(t.good + t.slo_violated + t.failed <= t.admitted);
        assert!(t.admitted - (t.good + t.slo_violated + t.failed) <= 4);
        let r = e.resilience_totals();
        assert!(r.client_cancelled > 0, "timeouts tear requests down: {r:?}");
        assert!(
            r.doomed_cancelled > 0,
            "queued calls behind the pod are skipped, not executed: {r:?}"
        );
    }

    #[test]
    fn late_response_after_timeout_neither_counts_goodput_nor_resurrects_user() {
        // The seed's wasted-work default: the pod finishes the 3 s call
        // after the 1 s client timeout already gave up. The late
        // completion must not count as goodput, and the stale
        // notification must not re-activate the user (which would
        // inflate the offered rate).
        let e = doomed_engine(false);
        let t = e.api_totals(ApiId(0));
        assert_eq!(t.good, 0, "late completions are not goodput");
        // Without cancellation, abandoned requests linger in the queue
        // and drain at 1 per 3 s — most are unfinished at the horizon.
        assert!(t.good + t.slo_violated + t.failed <= t.admitted);
        // 4 users cycling timeout (1 s) + think (0.1 s) ≈ 27 requests
        // each over 30 s. Resurrected users would roughly double this.
        assert!(
            (80..=130).contains(&t.offered),
            "one request per user per cycle, got {}",
            t.offered
        );
        // Resilience disabled: no counters move.
        assert_eq!(e.resilience_totals(), ResilienceStats::default());
    }

    #[test]
    fn breaker_opens_on_failing_edge_and_sheds_dispatch() {
        // front (fast, wide) → back (1 pod, 100 ms, queue of 2): the
        // downstream edge fails almost every call, so its breaker opens
        // and dispatches are declined at the caller.
        let mut topo = Topology::new("brk");
        let f = topo.add_service(ServiceSpec::new("front", 4));
        let b = topo.add_service(ServiceSpec::new("back", 1).queue_capacity(2));
        let api = topo.add_api(ApiSpec::single(
            "x",
            CallNode::with_children(f, ms(1), vec![CallNode::leaf(b, ms(100))]),
        ));
        let w = OpenLoopWorkload::constant(vec![(api, 300.0)]);
        let mut e = Engine::new(
            topo,
            EngineConfig {
                service_jitter: 0.0,
                ..EngineConfig::default()
            },
            Box::new(w),
        );
        e.set_resilience(ResilienceConfig {
            deadlines: None,
            breakers: Some(BreakerConfig::default()),
        });
        e.run_until(SimTime::from_secs(20));
        let r = e.resilience_totals();
        assert!(
            r.breaker_rejected > 0,
            "open breaker rejects dispatch: {r:?}"
        );
        assert!(r.breaker_transitions > 0, "breaker changed state: {r:?}");
        let t = e.api_totals(api);
        assert_eq!(t.good + t.slo_violated + t.failed, t.admitted);
        // The healthy entry edge (gateway → front) stays closed.
        assert_eq!(
            e.breakers().unwrap().state(None, f),
            crate::resilience::BreakerState::Closed
        );
    }

    #[test]
    fn resilience_determinism_same_seed_same_counters() {
        let run = |seed: u64| {
            let (topo, api, _) = tiny_topo(1, 20);
            let w =
                crate::workload::RetryStormWorkload::new(vec![(api, 1.0)], 120, ms(100), 5, ms(10))
                    .with_retry_budget(crate::resilience::RetryBudgetConfig::default());
            let mut e = Engine::new(
                topo,
                EngineConfig {
                    seed,
                    ..EngineConfig::default()
                },
                Box::new(w),
            );
            e.set_resilience(ResilienceConfig {
                deadlines: Some(DeadlineConfig::default()),
                breakers: Some(BreakerConfig::default()),
            });
            e.run_until(SimTime::from_secs(20));
            (e.api_totals(api), e.resilience_totals())
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0.offered, run(12).0.offered);
    }

    #[test]
    fn deadline_expiry_rejects_queued_work_without_cancellation() {
        // Deadlines on but doomed-work cancellation off: queued calls
        // whose deadline passed are rejected when the pod reaches them
        // (DeadlineExpired), not silently executed.
        let (topo, api, _) = tiny_topo(1, 500);
        let w = OpenLoopWorkload::constant(vec![(api, 50.0)]);
        let mut e = Engine::new(
            topo,
            EngineConfig {
                service_jitter: 0.0,
                ..EngineConfig::default()
            },
            Box::new(w),
        );
        e.set_resilience(ResilienceConfig {
            deadlines: Some(DeadlineConfig {
                budget: Some(SimDuration::from_secs(1)),
                cancel_doomed: false,
            }),
            breakers: None,
        });
        e.run_until(SimTime::from_secs(20));
        let r = e.resilience_totals();
        assert!(r.deadline_rejected > 0, "expired deadlines reject: {r:?}");
        assert_eq!(r.doomed_cancelled, 0, "cancellation was off");
        let t = e.api_totals(api);
        assert!(t.good + t.slo_violated + t.failed <= t.admitted);
    }
}

mod tracing_tests {
    use crate::engine::{Engine, EngineConfig};
    use crate::topology::{ApiSpec, CallNode, ServiceSpec, Topology};
    use crate::types::{ApiId, ServiceId};
    use crate::workload::OpenLoopWorkload;
    use simnet::{SimDuration, SimTime};

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    /// A branching API: branch A → {front, a}, branch B → {front, b}.
    fn branching_topo() -> (Topology, ApiId, ServiceId, ServiceId) {
        let mut t = Topology::new("traced");
        let front = t.add_service(ServiceSpec::new("front", 4));
        let a = t.add_service(ServiceSpec::new("a", 2));
        let b = t.add_service(ServiceSpec::new("b", 2));
        let api = t.add_api(ApiSpec::branching(
            "br",
            vec![
                (
                    0.9,
                    CallNode::with_children(front, ms(1), vec![CallNode::leaf(a, ms(2))]),
                ),
                (
                    0.1,
                    CallNode::with_children(front, ms(1), vec![CallNode::leaf(b, ms(2))]),
                ),
            ],
        ));
        (t, api, a, b)
    }

    #[test]
    fn learned_paths_converge_to_exercised_branches() {
        let (topo, api, a, b) = branching_topo();
        let w = OpenLoopWorkload::constant(vec![(api, 200.0)]);
        let mut e = Engine::new(
            topo,
            EngineConfig {
                learn_paths: true,
                trace_raw_buffer: 1000,
                ..EngineConfig::default()
            },
            Box::new(w),
        );
        e.run_until(SimTime::from_secs(10));
        let obs = e.latest_observation().expect("ran").clone();
        let path = &obs.api_paths[api.idx()];
        // With 2000 requests at 90/10 branching, both branches have been
        // exercised, so the learned path covers everything.
        assert!(path.contains(&a), "hot branch learned: {path:?}");
        assert!(path.contains(&b), "cold branch learned: {path:?}");
        // A full raw buffer: at least 1 000 spans were recorded.
        let tracer = e.trace_collector().expect("enabled");
        assert_eq!(tracer.raw_spans().count(), 1000);
    }

    #[test]
    fn learned_paths_start_empty_and_grow() {
        let (topo, api, _, _) = branching_topo();
        let w = OpenLoopWorkload::constant(vec![(api, 50.0)]);
        let mut e = Engine::new(
            topo,
            EngineConfig {
                learn_paths: true,
                ..EngineConfig::default()
            },
            Box::new(w),
        );
        e.run_until(SimTime::from_secs(1));
        let early = e.latest_observation().expect("tick").api_paths[api.idx()].len();
        e.run_until(SimTime::from_secs(20));
        let late = e.latest_observation().expect("tick").api_paths[api.idx()].len();
        assert!(late >= early, "paths only grow under steady traffic");
        assert!(late >= 2, "at least front + one branch learned");
    }

    /// Span assembly across the engine lifecycle hooks: a two-service
    /// chain must emit one span per call, with the child span pointing at
    /// its parent service, times ordered by the actual execution
    /// (parent's CPU completes before the child's call arrives), and the
    /// admitted verdict on every span.
    #[test]
    fn spans_assemble_parent_child_across_lifecycle() {
        use crate::tracing::SpanVerdict;
        let mut t = Topology::new("chain");
        let front = t.add_service(ServiceSpec::new("front", 2));
        let back = t.add_service(ServiceSpec::new("back", 2));
        let api = t.add_api(ApiSpec::single(
            "get",
            CallNode::with_children(front, ms(1), vec![CallNode::leaf(back, ms(2))]),
        ));
        let w = OpenLoopWorkload::constant(vec![(api, 50.0)]);
        let mut e = Engine::new(
            t,
            EngineConfig {
                learn_paths: true,
                trace_raw_buffer: 4096,
                service_jitter: 0.0,
                ..EngineConfig::default()
            },
            Box::new(w),
        );
        e.run_until(SimTime::from_secs(5));
        let tracer = e.trace_collector().expect("enabled");
        let mut by_req: std::collections::HashMap<u64, Vec<_>> = std::collections::HashMap::new();
        for s in tracer.raw_spans() {
            by_req.entry(s.request).or_default().push(*s);
        }
        let mut checked = 0;
        for spans in by_req.values() {
            if spans.len() != 2 {
                continue; // request straddling the buffer edge
            }
            let front_span = spans.iter().find(|s| s.service == front).expect("front");
            let back_span = spans.iter().find(|s| s.service == back).expect("back");
            assert_eq!(front_span.parent, None, "entry span has no parent");
            assert_eq!(back_span.parent, Some(front), "child links to caller");
            assert_eq!(front_span.api, api);
            assert_eq!(front_span.verdict, SpanVerdict::Admitted);
            assert_eq!(back_span.verdict, SpanVerdict::Admitted);
            // The parent's CPU completes before the child call arrives.
            assert!(front_span.end <= back_span.start);
            assert_eq!(front_span.duration(), ms(1));
            assert_eq!(back_span.duration(), ms(2));
            checked += 1;
        }
        assert!(checked > 50, "enough complete requests checked: {checked}");
    }

    /// Entry-gateway rejections surface as zero-duration spans carrying
    /// the rejection verdict, and never teach the path learner.
    #[test]
    fn entry_rejections_emit_verdict_spans() {
        use crate::tracing::SpanVerdict;
        let (topo, api, _, _) = branching_topo();
        let entry = topo.api(api).paths[0].1.service;
        let w = OpenLoopWorkload::constant(vec![(api, 100.0)]);
        let mut e = Engine::new(
            topo,
            EngineConfig {
                learn_paths: true,
                trace_raw_buffer: 1024,
                ..EngineConfig::default()
            },
            Box::new(w),
        );
        e.set_rate_limit(api, 0.0); // admit nothing
        e.run_until(SimTime::from_secs(3));
        let tracer = e.trace_collector().expect("enabled");
        assert!(tracer.rejected_recorded() > 100, "rejections were traced");
        // The buffer holds every span (1 024 > 3 s × 100 rps), and the
        // loop below finds each a rejection: nothing was admitted.
        assert_eq!(
            tracer.raw_spans().count() as u64,
            tracer.rejected_recorded(),
            "every span recorded is a rejection"
        );
        for s in tracer.raw_spans() {
            assert_eq!(s.verdict, SpanVerdict::RejectedAtEntry);
            assert_eq!(s.service, entry, "rejection marked at the entry");
            assert_eq!(s.start, s.end, "zero-duration marker");
        }
        let obs = e.latest_observation().expect("tick").clone();
        assert!(
            obs.api_paths[api.idx()].is_empty(),
            "rejected spans must not teach paths: {:?}",
            obs.api_paths[api.idx()]
        );
    }

    #[test]
    fn static_paths_remain_default() {
        let (topo, api, a, b) = branching_topo();
        let w = OpenLoopWorkload::constant(vec![(api, 10.0)]);
        let mut e = Engine::new(topo, EngineConfig::default(), Box::new(w));
        assert!(e.trace_collector().is_none());
        e.run_until(SimTime::from_secs(2));
        let obs = e.latest_observation().expect("tick").clone();
        // Static union: every possible branch present from the start.
        let path = &obs.api_paths[api.idx()];
        assert!(path.contains(&a) && path.contains(&b));
    }
}

mod lifecycle_tests {
    use crate::autoscaler::{HpaConfig, STABILIZATION};
    use crate::engine::{Engine, EngineConfig, ARRIVAL_LANE, HOP_LANE, TIMEOUT_LANE};
    use crate::faults::FaultSpec;
    use crate::topology::{ApiSpec, CallNode, ServiceSpec, Topology};
    use crate::types::{ApiId, ServiceId};
    use crate::workload::{ClosedLoopWorkload, OpenLoopWorkload, RateSchedule};
    use simnet::{SimDuration, SimTime};

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    #[test]
    fn hpa_scales_down_after_load_drops() {
        let mut topo = Topology::new("downscale");
        let s = topo.add_service(ServiceSpec::new("s", 2));
        let api = topo.add_api(ApiSpec::single("a", CallNode::leaf(s, ms(10))));
        // Load for 60 s, then quiet for the rest.
        let w = OpenLoopWorkload::new(vec![(
            api,
            RateSchedule::steps(vec![(SimTime::ZERO, 600.0), (SimTime::from_secs(60), 10.0)]),
        )]);
        let mut e = Engine::new(
            topo,
            EngineConfig {
                service_jitter: 0.0,
                pod_startup: SimDuration::from_secs(2),
                ..EngineConfig::default()
            },
            Box::new(w),
        );
        // Scale-down waits out the 60 s stabilization window.
        assert_eq!(STABILIZATION, SimDuration::from_secs(60));
        e.enable_hpa(HpaConfig::default());
        e.run_until(SimTime::from_secs(55));
        let peak = e.ready_pods(s);
        assert!(peak >= 4, "scaled up under load, pods={peak}");
        e.run_until(SimTime::from_secs(200));
        let settled = e.ready_pods(s);
        assert!(
            settled < peak,
            "scaled down after the load dropped: {peak} → {settled}"
        );
        assert!(settled >= 2, "never below the min replicas");
    }

    #[test]
    fn grow_service_adds_ready_pods_immediately() {
        let mut topo = Topology::new("grow");
        let s = topo.add_service(ServiceSpec::new("s", 1));
        topo.add_api(ApiSpec::single("a", CallNode::leaf(s, ms(10))));
        let w = OpenLoopWorkload::constant(vec![(ApiId(0), 50.0)]);
        let mut e = Engine::new(topo, EngineConfig::default(), Box::new(w));
        e.run_until(SimTime::from_secs(2));
        assert_eq!(e.ready_pods(s), 1);
        e.grow_service(s, 5);
        assert_eq!(e.ready_pods(s), 5, "growth is immediate (no startup)");
        let used = e.vcpus_used();
        assert!((used - 5.0).abs() < 1e-9, "vCPU accounting follows: {used}");
    }

    #[test]
    fn closed_loop_client_timeout_keeps_users_alive() {
        // One pod at 10 ms with a huge queue: responses take far longer
        // than the 10 s client timeout under heavy overload, yet users
        // keep issuing (via the timeout path), so offered load persists.
        let mut topo = Topology::new("timeout");
        let s = topo.add_service(ServiceSpec::new("s", 1).queue_capacity(100_000));
        let api = topo.add_api(ApiSpec::single("a", CallNode::leaf(s, ms(10))));
        let w = ClosedLoopWorkload::fixed(vec![(api, 1.0)], 500, SimDuration::from_secs(1));
        let mut e = Engine::new(
            topo,
            EngineConfig {
                service_jitter: 0.0,
                ..EngineConfig::default()
            },
            Box::new(w),
        );
        e.run_until(SimTime::from_secs(60));
        let t = e.api_totals(api);
        // 500 users, ~100 rps capacity → backlog far beyond the timeout.
        // Users must still have issued many generations of requests.
        assert!(
            t.offered > 1500,
            "timed-out users keep issuing, offered={}",
            t.offered
        );
    }

    #[test]
    fn closed_loop_queue_is_mostly_parked_client_timeouts() {
        // The population `simnet::event`'s timeout lane exists for (and
        // the far tier, which parks the timeouts the lane declines): a
        // healthy closed loop answers in milliseconds, yet each
        // request's 10 s client timeout stays queued until it fires as a
        // no-op — ten per user at one request a second — while only the
        // events of the next few milliseconds need ordering. If timeouts
        // ever become cancellable the first bound fails: the lane has
        // lost its reason.
        let users = 400;
        let mut topo = Topology::new("parked");
        let s = topo.add_service(ServiceSpec::new("s", 4));
        let api = topo.add_api(ApiSpec::single("a", CallNode::leaf(s, ms(2))));
        let w = ClosedLoopWorkload::fixed(vec![(api, 1.0)], users, SimDuration::from_secs(1));
        let mut e = Engine::new(topo, EngineConfig::default(), Box::new(w));
        // Sampled every simulated millisecond once the first timeouts
        // have come due and the population is steady.
        let (mut fewest_pending, mut deepest_near) = (usize::MAX, 0);
        for at_ms in 12_000..30_000 {
            e.run_until(SimTime::from_millis(at_ms));
            fewest_pending = fewest_pending.min(e.queue.len());
            deepest_near = deepest_near.max(e.queue.near_len());
        }
        assert!(
            fewest_pending >= 8 * users as usize,
            "{fewest_pending} pending events for {users} users"
        );
        assert!(
            deepest_near * 50 <= fewest_pending,
            "near tier {deepest_near} deep with {fewest_pending} events pending"
        );
    }

    /// A front end fanning out to two back ends under 400 closed-loop
    /// users thinking 100 ms: ≈ 3 600 requests/s of five hops each.
    fn fan_out_loop() -> (Engine, ApiId, ServiceId) {
        let mut topo = Topology::new("hops");
        let f = topo.add_service(ServiceSpec::new("f", 8));
        let b = topo.add_service(ServiceSpec::new("b", 8));
        let c = topo.add_service(ServiceSpec::new("c", 8));
        let kids = vec![CallNode::leaf(b, ms(2)), CallNode::leaf(c, ms(2))];
        let api = topo.add_api(ApiSpec::single(
            "a",
            CallNode::with_children(f, ms(1), kids),
        ));
        let w = ClosedLoopWorkload::fixed(vec![(api, 1.0)], 400, ms(100));
        (
            Engine::new(topo, EngineConfig::default(), Box::new(w)),
            api,
            b,
        )
    }

    #[test]
    fn hop_events_ride_the_lane_undeclined() {
        // The population `simnet::event`'s lane exists for: every call
        // and every join travels `HOP_LATENCY`, one constant, so hop
        // events are scheduled in the order they fire and none needs a
        // sift. If the hop ever becomes per-edge or jittered the second
        // assert fails: the lane has lost its reason.
        let (mut e, api, _) = fan_out_loop();
        let (first_ms, samples) = (2_000, 4_000);
        let mut occupied = 0;
        for at_ms in first_ms..first_ms + samples {
            e.run_until(SimTime::from_millis(at_ms));
            occupied += u64::from(e.queue.lane_len(HOP_LANE) > 0);
        }
        assert!(
            occupied * 10 >= samples * 9,
            "lane held a hop in {occupied} of {samples} samples"
        );
        assert_eq!(
            e.queue.declined_hints(HOP_LANE),
            0,
            "no fault plan: every hop sorted"
        );
        assert!(e.api_totals(api).good > 10_000);
    }

    #[test]
    fn closed_loop_arrivals_and_timeouts_ride_their_lanes() {
        // A user's next request is paced one think time after its last
        // was issued, so arrivals are scheduled in nearly the order they
        // fire — out of it only by how response times differ — and their
        // timeouts a constant later. Past the ramp (whose staggered first
        // requests are not sorted) all but a few take their lanes. If
        // pacing ever stops being from the issue time, this fails.
        let (mut e, api, _) = fan_out_loop();
        let lanes = [ARRIVAL_LANE, TIMEOUT_LANE];
        e.run_until(SimTime::from_secs(2));
        let offered = e.api_totals(api).offered;
        let declined = lanes.map(|lane| e.queue.declined_hints(lane));
        e.run_until(SimTime::from_secs(12));
        let offered = e.api_totals(api).offered - offered;
        assert!(offered > 30_000, "{offered}");
        for (lane, before) in lanes.into_iter().zip(declined) {
            let declined = e.queue.declined_hints(lane) - before;
            assert!(
                declined * 100 <= 3 * offered,
                "lane {lane}: {declined} of ≈ {offered} hints declined"
            );
        }
        assert!(
            e.queue.lane_len(TIMEOUT_LANE) > 30_000,
            "ten seconds of timeouts wait there"
        );
        // An open loop's arrivals, drawn per API, keep `schedule`.
        let mut topo = Topology::new("open");
        let s = topo.add_service(ServiceSpec::new("s", 8));
        let api = topo.add_api(ApiSpec::single("a", CallNode::leaf(s, ms(1))));
        let w = OpenLoopWorkload::constant(vec![(api, 2_000.0)]);
        let mut e = Engine::new(topo, EngineConfig::default(), Box::new(w));
        for at_ms in (0..3_000).step_by(10) {
            e.run_until(SimTime::from_millis(at_ms));
            for lane in lanes {
                assert_eq!(
                    (e.queue.lane_len(lane), e.queue.declined_hints(lane)),
                    (0, 0)
                );
            }
        }
        assert!(e.api_totals(api).good > 5_000);
    }

    #[test]
    fn delayed_hops_are_declined_and_requests_still_conserve() {
        // Calls into `b` gain 20 ms and push the lane's tail ahead of the
        // clock; every other hop scheduled meanwhile is behind it, falls
        // through to `schedule`, and nothing is lost or reordered.
        let (mut e, api, b) = fan_out_loop();
        e.inject_faults(vec![FaultSpec::NetworkDegrade {
            from: SimTime::from_secs(1),
            until: SimTime::from_secs(3),
            service: Some(b),
            extra_latency: ms(20),
            loss: 0.0,
        }]);
        e.run_until(SimTime::from_secs(5));
        assert!(
            e.queue.declined_hints(HOP_LANE) > 1_000,
            "hops behind a delayed tail"
        );
        let t = e.api_totals(api);
        assert_eq!(t.offered, t.admitted + t.rejected_entry + t.rejected_shed);
        assert!(t.good > 10_000, "the loop kept running: {t:?}");
        // In flight at the end: admitted, not yet answered; at most one a user.
        let answered = t.good + t.slo_violated + t.failed;
        assert!(t.admitted - answered <= 400, "{t:?}");
    }

    #[test]
    fn learned_and_static_paths_agree_for_non_branching_apis() {
        let mut topo = Topology::new("agree");
        let f = topo.add_service(ServiceSpec::new("f", 2));
        let b = topo.add_service(ServiceSpec::new("b", 2));
        let api = topo.add_api(ApiSpec::single(
            "a",
            CallNode::with_children(f, ms(1), vec![CallNode::leaf(b, ms(2))]),
        ));
        let static_paths = topo.api_service_map();
        let w = OpenLoopWorkload::constant(vec![(api, 100.0)]);
        let mut e = Engine::new(
            topo,
            EngineConfig {
                learn_paths: true,
                ..EngineConfig::default()
            },
            Box::new(w),
        );
        e.run_until(SimTime::from_secs(5));
        let mut learned = e.latest_observation().expect("tick").api_paths[api.idx()].clone();
        learned.sort();
        let mut want = static_paths[api.idx()].clone();
        want.sort();
        assert_eq!(learned, want);
    }
}

mod pod_pick {
    use crate::engine::pods::{shortest_queue, InFlight, Pod, PodPhase, QueuedCall};
    use crate::engine::requests::ReqId;
    use proptest::prelude::*;
    use simnet::{SimDuration, SimTime};

    /// The iterator chain `shortest_queue` replaced: the `(load, index)`
    /// minimum over ready pods, every pod visited.
    fn min_by_load_then_index(pods: &[Pod]) -> Option<usize> {
        pods.iter()
            .enumerate()
            .filter(|(_, p)| p.is_ready())
            .min_by_key(|(i, p)| (p.load(), *i))
            .map(|(i, _)| i)
    }

    fn pod(phase: u8, queued: usize, busy: bool) -> Pod {
        let (req, node, at) = (ReqId::from_bits(0), 0, SimTime::ZERO);
        let mut p = Pod::fresh();
        p.phase = match phase {
            0 => PodPhase::Ready,
            1 => PodPhase::Down,
            _ => PodPhase::Removed,
        };
        p.queue.extend((0..queued).map(|_| QueuedCall {
            req,
            node,
            cost: SimDuration::ZERO,
            enqueued: at,
        }));
        p.busy = busy.then_some(InFlight {
            req,
            node,
            started: at,
            done_at: at,
        });
        p
    }

    #[test]
    fn no_ready_pod_and_all_equal_loads() {
        assert_eq!(shortest_queue(&[]), None);
        assert_eq!(shortest_queue(&[pod(1, 0, false), pod(2, 0, false)]), None);
        let level = [pod(1, 0, false), pod(0, 2, true), pod(0, 3, false)];
        assert_eq!(shortest_queue(&level), Some(1), "first of the equals");
    }

    proptest! {
        #[test]
        fn matches_the_min_by_key_chain(
            // Three pods in five ready, loads 0–3 so ties and idle pods are common.
            spec in prop::collection::vec((0u8..5, 0usize..3, any::<bool>()), 0..12),
        ) {
            let pods: Vec<Pod> = spec
                .into_iter()
                .map(|(phase, queued, busy)| pod(phase.saturating_sub(2), queued, busy))
                .collect();
            prop_assert_eq!(shortest_queue(&pods), min_by_load_then_index(&pods));
        }
    }
}

mod front {
    use crate::engine::{Engine, EngineConfig};
    use crate::front::{CoalesceConfig, FrontConfig, PriorityConfig};
    use crate::topology::{ApiSpec, CallNode, ServiceSpec, Topology};
    use crate::types::{ApiId, BusinessPriority};
    use crate::workload::OpenLoopWorkload;
    use simnet::{SimDuration, SimTime};

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    fn engine(topo: Topology, rates: Vec<(ApiId, f64)>) -> Engine {
        Engine::new(
            topo,
            EngineConfig {
                service_jitter: 0.0,
                ..EngineConfig::default()
            },
            Box::new(OpenLoopWorkload::constant(rates)),
        )
    }

    #[test]
    fn coalescing_multiplies_flash_crowd_goodput() {
        // 1 pod × 10 ms = 100 rps capacity; a read-heavy flash crowd
        // offers 500 rps over only 4 hot keys. Coalescing must lift
        // goodput far beyond raw capacity (leaders do the work once).
        let mut t = Topology::new("reads");
        let s = t.add_service(ServiceSpec::new("s", 1));
        let api = t.add_api(ApiSpec::single("read", CallNode::leaf(s, ms(10))));
        let mut e = engine(t, vec![(api, 500.0)]);
        e.set_front_door(
            FrontConfig {
                coalesce: Some(CoalesceConfig {
                    cache_capacity: 64,
                    cache_ttl: SimDuration::from_millis(500),
                }),
                priority: None,
            },
            vec![4],
        );
        e.run_until(SimTime::from_secs(20));
        let tot = e.api_totals(api);
        let stats = e.front_stats().expect("front door enabled");
        assert!(stats.cache_hits.get() > 0, "cache must serve hits");
        assert!(stats.follower_hits.get() > 0, "flights must coalesce");
        let good_rate = tot.good as f64 / 20.0;
        assert!(
            good_rate >= 200.0,
            "coalesced goodput {good_rate} rps must be ≥2× the 100 rps capacity"
        );
        assert_eq!(tot.failed, 0, "no failures in a cache-served crowd");
        assert_eq!(tot.good + tot.slo_violated, tot.admitted);
    }

    #[test]
    fn priority_gate_sheds_low_business_tier_first() {
        let mut t = Topology::new("tiers");
        let s = t.add_service(ServiceSpec::new("s", 1));
        let hi = t.add_api(
            ApiSpec::single("hi", CallNode::leaf(s, ms(10))).business(BusinessPriority(0)),
        );
        let lo = t.add_api(
            ApiSpec::single("lo", CallNode::leaf(s, ms(10))).business(BusinessPriority(7)),
        );
        let mut e = engine(t, vec![(hi, 150.0), (lo, 150.0)]);
        e.set_front_door(
            FrontConfig {
                coalesce: None,
                priority: Some(PriorityConfig::default()),
            },
            vec![],
        );
        let journal = obs::Journal::shared();
        e.set_journal(journal.clone());
        e.run_until(SimTime::from_secs(60));
        let hi_t = e.api_totals(hi);
        let lo_t = e.api_totals(lo);
        assert!(lo_t.rejected_shed > 0, "overload must shed the low tier");
        assert!(
            lo_t.rejected_shed > hi_t.rejected_shed,
            "low tier shed ({}) must exceed high tier shed ({})",
            lo_t.rejected_shed,
            hi_t.rejected_shed
        );
        let hi_frac = hi_t.admitted as f64 / hi_t.offered as f64;
        let lo_frac = lo_t.admitted as f64 / lo_t.offered as f64;
        assert!(
            hi_frac > lo_frac,
            "high tier admitted fraction {hi_frac} must beat low tier {lo_frac}"
        );
        // Every threshold move and verdict window is journaled.
        let entries = journal.snapshot();
        assert!(entries
            .iter()
            .any(|e| matches!(e, obs::JournalEntry::PriorityThreshold { .. })));
        assert!(entries
            .iter()
            .any(|e| matches!(e, obs::JournalEntry::AdmissionWindow { shed, .. } if *shed > 0)));
    }

    #[test]
    fn leader_failure_fails_followers_without_hangs() {
        // Queue capacity 0 at the backend: every led flight that
        // reaches a full pod fails, and parked followers must fail
        // with it (never hang as ghost admitted-but-unresolved work).
        let mut t = Topology::new("fail");
        let mut spec = ServiceSpec::new("s", 1);
        spec.queue_capacity = 1;
        let s = t.add_service(spec);
        let api = t.add_api(ApiSpec::single("read", CallNode::leaf(s, ms(200))));
        let mut e = engine(t, vec![(api, 200.0)]);
        e.set_front_door(
            FrontConfig {
                coalesce: Some(CoalesceConfig {
                    cache_capacity: 16,
                    cache_ttl: SimDuration::from_millis(100),
                }),
                priority: None,
            },
            vec![16],
        );
        e.run_until(SimTime::from_secs(10));
        let tot = e.api_totals(api);
        assert!(tot.failed > 0, "overflow must fail some flights");
        // Conservation: every admitted request resolves. Only work
        // genuinely in flight at the cutoff instant may be pending —
        // bounded by the key space, not growing with run length (which
        // is what parked-forever followers would do).
        let unresolved = tot.admitted - (tot.good + tot.slo_violated + tot.failed);
        assert!(
            unresolved <= 64,
            "unresolved admitted work must stay bounded, got {unresolved}"
        );
    }
}

mod request_table {
    use crate::engine::{Engine, EngineConfig};
    use crate::resilience::{DeadlineConfig, ResilienceConfig};
    use crate::topology::{ApiSpec, CallNode, ServiceSpec, Topology};
    use crate::types::{ApiId, ServiceId};
    use crate::workload::{
        Arrival, ClosedLoopWorkload, RateSchedule, ResponseKind, UserRef, Workload,
    };
    use rand::rngs::SmallRng;
    use simnet::{SimDuration, SimTime};

    fn us(x: u64) -> SimDuration {
        SimDuration::from_micros(x)
    }

    /// Open-loop arrivals at fixed instants.
    struct Script(Vec<Arrival>);

    impl Workload for Script {
        fn on_tick(&mut self, now: SimTime, _rng: &mut SmallRng, out: &mut Vec<Arrival>) {
            let horizon = now + self.tick_interval();
            out.extend(self.0.iter().filter(|a| a.at >= now && a.at < horizon));
        }

        fn on_response(
            &mut self,
            _user: UserRef,
            _kind: ResponseKind,
            _now: SimTime,
            _rng: &mut SmallRng,
        ) -> Option<Arrival> {
            None
        }
    }

    /// `root → [a → [c], d → [last, e]]`, every service one idle pod.
    /// With 0.5 ms hops and no jitter a request admitted at `t` has, at
    /// `t + 4.7 ms` when `last` and `e` are reached: `NodeJoin(a)`
    /// pending for `t + 5.0 ms`, the call to `e` arriving in the same
    /// instant as the one to `last` (scheduled right behind it), and
    /// `e`'s `PodDone` due at `t + 9.7 ms`.
    fn tree(svc: &[ServiceId; 5], last: ServiceId) -> CallNode {
        let [root, a, c, d, e] = *svc;
        CallNode::with_children(
            root,
            us(1000),
            vec![
                CallNode::with_children(a, us(1000), vec![CallNode::leaf(c, us(1000))]),
                CallNode::with_children(
                    d,
                    us(2200),
                    vec![CallNode::leaf(last, us(1000)), CallNode::leaf(e, us(5000))],
                ),
            ],
        )
    }

    /// A request fails (queue overflow) with a join, a sibling call and —
    /// once that call is served as wasted work — a pod completion still
    /// addressed to it; the next request takes over its slab slot with
    /// the same tree shape before any of them lands. The late events
    /// must find the request gone: the join credited to the new tenant
    /// would underflow its counters (a debug-build panic), and the
    /// wasted completion would stand in for the tenant's own call to
    /// `e`, still queued behind it, and finish the tenant 4.2 ms early.
    #[test]
    fn late_events_for_a_failed_request_miss_the_slot_s_next_tenant() {
        let mut t = Topology::new("stale");
        let svc = ["root", "a", "c", "d", "e"].map(|n| t.add_service(ServiceSpec::new(n, 1)));
        let healthy = t.add_service(ServiceSpec::new("healthy", 1));
        let mut full = ServiceSpec::new("full", 1);
        full.queue_capacity = 0; // every call overflows
        let full = t.add_service(full);
        let doomed = t.add_api(ApiSpec::single("doomed", tree(&svc, full)));
        let ok = t.add_api(ApiSpec::single("ok", tree(&svc, healthy)));
        let arrive = |at_us, api| Arrival {
            at: SimTime::ZERO + us(at_us),
            api,
            user: None,
        };
        // `doomed` fails at 4.7 ms; `ok` is admitted at 4.8 ms, ahead of
        // the join (5.0 ms) and the wasted completion (9.7 ms, by when
        // `ok` has fanned out below `d` and waits for `e`'s pod).
        let w = Script(vec![arrive(0, doomed), arrive(4800, ok)]);
        let mut e = Engine::new(
            t,
            EngineConfig {
                service_jitter: 0.0,
                ..EngineConfig::default()
            },
            Box::new(w),
        );
        e.run_until(SimTime::ZERO + us(4750));
        assert_eq!(
            e.api_totals(doomed).failed,
            1,
            "overflow failed the request"
        );
        assert_eq!(e.requests.len(), 0);
        e.run_until(SimTime::ZERO + us(4900));
        assert_eq!(e.requests.len(), 1, "the second request is live");
        assert_eq!(e.requests.slots(), 1, "…in the slot the first one left");
        e.run_until(SimTime::from_secs(1));
        let tot = e.api_totals(ok);
        assert_eq!(
            (tot.good, tot.failed),
            (1, 0),
            "the tenant completes untouched"
        );
        assert_eq!(e.requests.len(), 0);
        let obs = e.latest_observation().expect("one window closed");
        // Exactly its own critical path: `e` reached at 9.5 ms, its pod
        // free at 9.7 ms, 5 ms of work, two joins of one hop each.
        let p50 = obs.apis[ok.idx()].p50.expect("one sample").as_millis_f64();
        assert!((10.6..11.2).contains(&p50), "latency 10.9 ms, got {p50}");
        // The call to `e` that outlived its request was still served —
        // wasted work — next to the tenant's own.
        assert_eq!(obs.services[svc[4].idx()].started_calls, 2);
        assert_eq!(obs.services[healthy.idx()].started_calls, 1);
    }

    /// An overloaded closed loop with client-timeout teardown whose
    /// population then drops to zero: once only the two periodic ticks
    /// remain queued, no request and no user→request entry is left
    /// behind, and the slab never grew past the peak concurrency.
    #[test]
    fn a_drained_run_leaves_the_request_table_empty() {
        let mut t = Topology::new("drain");
        let s = t.add_service(ServiceSpec::new("s", 1));
        let api = t.add_api(ApiSpec::single("x", CallNode::leaf(s, us(20_000))));
        let users = RateSchedule::steps(vec![(SimTime::ZERO, 80.0), (SimTime::from_secs(5), 0.0)]);
        let w = ClosedLoopWorkload::new(vec![(api, 1.0)], users, SimDuration::from_millis(100))
            .timeout(Some(SimDuration::from_secs(1)));
        let mut e = Engine::new(t, EngineConfig::default(), Box::new(w));
        e.set_resilience(ResilienceConfig {
            deadlines: Some(DeadlineConfig::default()),
            breakers: None,
        });
        e.run_until(SimTime::from_secs(4));
        assert!(e.requests.len() > 0, "overloaded: requests in flight");
        assert!(e.user_reqs.iter().any(|live| !live.is_empty()));
        e.run_until(SimTime::from_secs(20));
        assert_eq!(e.queue.len(), 2, "only the metrics and workload ticks");
        assert_eq!(e.requests.len(), 0);
        assert!(e.user_reqs.iter().all(Vec::is_empty));
        let tot = e.api_totals(ApiId(0));
        assert_eq!(tot.good + tot.slo_violated + tot.failed, tot.admitted);
        assert!(e.resilience_totals().client_cancelled > 0);
        assert!(
            e.requests.slots() <= 80 && tot.admitted > 160,
            "{} slots served {} requests",
            e.requests.slots(),
            tot.admitted
        );
    }
}
