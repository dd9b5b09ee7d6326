//! §6.4 "Online deployment overhead cost" micro-benchmarks.
//!
//! The paper reports, per control cycle: clustering ≈ 1.26 × 10⁶ cycles
//! on Train Ticket (41 services) and a single RL inference ≈ 2.33 × 10⁶
//! cycles, concluding one Xeon core can control ≈15 000 microservices
//! with 1 000 independent clusters. These benches measure the same
//! operations in this implementation (convert: cycles ≈ seconds × clock;
//! EXPERIMENTS.md records the comparison at 2.8 GHz).
//!
//! Everything else a request or a tick pays is a row of the gated
//! benchmark's `--trace 1` layer table (`benchmark/README.md`), not a
//! bench here — except the front door's priority gate, which no gated
//! workload turns on: `front/priority-check` below is its only price.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::SeedableRng;

/// Clustering cost on Train Ticket (41 services, paper's benchmark).
fn bench_clustering_trainticket(c: &mut Criterion) {
    let tt = apps::TrainTicket::build();
    let paths = tt.topology.api_service_map();
    // A representative overloaded set: the shared query core.
    let overloaded = vec![tt.basic, tt.station, tt.order, tt.travel];
    c.bench_function("clustering/train-ticket-41svc", |b| {
        b.iter(|| topfull::cluster_apis(black_box(&paths), black_box(&overloaded)))
    });
}

/// Clustering cost on the 127-service real-trace demo.
fn bench_clustering_demo(c: &mut Criterion) {
    let demo = apps::AlibabaDemo::build(7);
    let paths = demo.topology.api_service_map();
    let overloaded = demo.hot_services.clone();
    c.bench_function("clustering/trace-demo-127svc", |b| {
        b.iter(|| topfull::cluster_apis(black_box(&paths), black_box(&overloaded)))
    });
}

/// Clustering cost at Alibaba-trace scale (23 481 services, 68
/// overloaded → 57 clusters; the §6.4 scalability claim).
fn bench_clustering_trace(c: &mut Criterion) {
    let tr = apps::trace::SyntheticTrace::generate(1);
    let paths: Vec<Vec<cluster::ServiceId>> = tr
        .api_paths
        .iter()
        .map(|p| p.iter().map(|s| cluster::ServiceId(*s)).collect())
        .collect();
    let overloaded: Vec<cluster::ServiceId> = tr
        .overloaded(apps::trace::OVERLOAD_THRESHOLD)
        .into_iter()
        .map(cluster::ServiceId)
        .collect();
    c.bench_function("clustering/alibaba-trace-23k", |b| {
        b.iter(|| topfull::cluster_apis(black_box(&paths), black_box(&overloaded)))
    });
}

/// A single RL inference (the paper's 2.33 × 10⁶-cycle number), the
/// call the controller makes per decision.
fn bench_rl_inference(c: &mut Criterion) {
    use topfull::RateController;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
    let rl = topfull::RlRateController::new(rl::policy::PolicyValue::new(2, &mut rng));
    let state = topfull::RateState {
        goodput_ratio: 0.93,
        latency_ratio: 1.2,
        total_limit: 1000.0,
    };
    c.bench_function("rl/inference", |b| b.iter(|| rl.decide(black_box(state))));
}

/// Token-bucket admission (per-request gateway cost).
fn bench_token_bucket(c: &mut Criterion) {
    use simnet::{SimTime, TokenBucket};
    let mut bucket = TokenBucket::new(1e6, 1e4, SimTime::ZERO);
    let mut t = 0u64;
    c.bench_function("gateway/token-bucket-admit", |b| {
        b.iter(|| {
            t += 1_000;
            bucket.try_admit(black_box(SimTime::from_nanos(t)))
        })
    });
}

/// Event-queue throughput (the simulator substrate itself).
fn bench_event_queue(c: &mut Criterion) {
    use simnet::{EventQueue, SimTime};
    c.bench_function("simnet/event-queue-push-pop-1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.schedule(SimTime::from_nanos((i * 7919) % 100_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            acc
        })
    });
}

/// One pop + one push at a standing depth of 4096 — the hold pattern
/// of a running simulation, and the shape of the gated benchmark's
/// `simnet.event.push_pop_ns` layer (firing times spread over the next
/// simulated second), so the queue can be re-measured outside
/// `benchmark/`.
fn bench_event_queue_hold(c: &mut Criterion) {
    use rand::Rng;
    use simnet::{EventQueue, SimTime};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..4096u64 {
        q.schedule(SimTime::from_nanos(rng.gen_range(0..1_000_000_000)), i);
    }
    c.bench_function("simnet/event-queue-hold-4096", |b| {
        b.iter(|| {
            let (at, e) = q.pop().expect("standing depth");
            let next = at.as_nanos() + rng.gen_range(0..1_000_000_000u64);
            q.schedule(SimTime::from_nanos(next), e);
            e
        })
    });
}

/// The front door's stage 2 (DESIGN.md §17): level computation +
/// threshold compare + per-level admitted histogram update, cycling
/// through users like real traffic — what every non-coalesced request
/// pays before the token bucket when the priority gate is on.
fn bench_priority_check(c: &mut Criterion) {
    use cluster::front::{FrontConfig, FrontDoor, PriorityConfig};
    let mut fd = FrontDoor::new(FrontConfig {
        coalesce: None,
        priority: Some(PriorityConfig::default()),
    });
    let now = simnet::SimTime::ZERO;
    let mut user: u8 = 0;
    c.bench_function("front/priority-check", |b| {
        b.iter(|| {
            user = user.wrapping_add(1) & 127;
            black_box(fd.pre_admit(cluster::ApiId(0), None, 1, user, now));
        })
    });
}

/// One full TopFull control decision on a Train Ticket observation
/// (clustering + state building + RL inferences + Algorithm 1).
fn bench_full_control_cycle(c: &mut Criterion) {
    use cluster::Controller;
    let tt = apps::TrainTicket::build();
    let rates: Vec<(cluster::ApiId, f64)> = tt.apis().iter().map(|a| (*a, 1100.0)).collect();
    let w = cluster::OpenLoopWorkload::constant(rates);
    let mut engine = cluster::Engine::new(
        tt.topology.clone(),
        cluster::EngineConfig::default(),
        Box::new(w),
    );
    engine.run_until(simnet::SimTime::from_secs(5));
    let obs = engine.latest_observation().expect("ran 5s").clone();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
    let policy = rl::policy::PolicyValue::new(2, &mut rng);
    let mut tf = topfull::TopFull::new(topfull::TopFullConfig::default().with_rl(policy));
    c.bench_function("topfull/control-cycle-train-ticket", |b| {
        b.iter(|| tf.control(black_box(&obs)))
    });
}

criterion_group!(
    benches,
    bench_clustering_trainticket,
    bench_clustering_demo,
    bench_clustering_trace,
    bench_rl_inference,
    bench_token_bucket,
    bench_event_queue,
    bench_event_queue_hold,
    bench_priority_check,
    bench_full_control_cycle,
);
criterion_main!(benches);
