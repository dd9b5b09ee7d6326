//! Per-layer micro-timings: public calls into one layer at a time,
//! timed from outside over inputs drawn from the workloads' own
//! generated streams. Ungated; each names in README.md the end-to-end
//! metric it should move.
//!
//! ns-scale calls loop >= 1 M times, µs-scale calls >= 1 k times.

use crate::harness::{ns_per_call, Outcome};
use crate::live::{echo_topology, Stream, BATCH};
use cluster::front::{CoalesceConfig, FrontConfig, FrontDoor, PreVerdict};
use cluster::tracing::{Span, SpanVerdict, TraceCollector};
use cluster::{ApiId, EntryAdmission, ServiceId};
use liveserve::executors::{Job, ReplySink, WorkerPool};
use liveserve::poller::{Poller, Waker};
use liveserve::wire::{LineDecoder, WireItem};
use liveserve::{AppDescriptor, LiveMetrics, WallClock};
use simnet::{EventQueue, LatencyHistogram, SimDuration, SimTime, TokenBucket};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const M: u64 = 1 << 20;
const SLO: Duration = Duration::from_secs(1);

/// Every micro-timing on the live and simulator planes.
pub fn run(seed: u64, out: &mut Outcome) {
    live_request_path(seed, out);
    live_control_path(out);
    live_handoff(out);
    sim_layers(out);
    build_costs(out);
}

/// What one request line costs each layer it crosses.
fn live_request_path(seed: u64, out: &mut Outcome) {
    // Wire decode over live.cached's bytes (keys and trace tokens make
    // them the longer lines of the two streams).
    let keyed = Stream::generate(seed, true);
    let bytes = keyed.conn0_bytes();
    let lines = (keyed.lines[0].len() * BATCH) as u64;
    let mut decoder = LineDecoder::new();
    let mut items: Vec<WireItem> = Vec::with_capacity(lines as usize);
    let passes = M / lines + 1;
    let per_pass = ns_per_call(passes, |_| {
        items.clear();
        decoder.feed(black_box(&bytes), &mut items);
        black_box(items.len());
    });
    out.layer(
        "liveserve.wire.decode_ns_per_line",
        per_pass / lines as f64,
        "ns",
    );
    out.gate(items.len() as u64 == lines, || {
        format!("decoder framed {} of {lines} generated lines", items.len())
    });

    // The reject path: bucket, bank, span marker, counters.
    let mut bucket = TokenBucket::new(0.0, 0.0, SimTime::ZERO);
    out.layer(
        "simnet.token_bucket.try_admit_ns",
        ns_per_call(4 * M, |i| {
            black_box(bucket.try_admit(SimTime::from_nanos(i * 100)));
        }),
        "ns",
    );
    let mut bank = EntryAdmission::new(1, 0.05);
    bank.set_rate_limit(ApiId(0), 0.0, SimTime::ZERO);
    out.layer(
        "cluster.entry_admission.reject_ns",
        ns_per_call(4 * M, |i| {
            black_box(bank.try_admit(ApiId(0), SimTime::from_nanos(i * 100)));
        }),
        "ns",
    );
    // The live tracer's shape: 60 s window, 2048-span raw buffer, full.
    let mut tracer = TraceCollector::new(1, SimDuration::from_secs(60)).with_raw_buffer(2048);
    let marker = |i: u64| Span {
        request: i,
        api: ApiId(0),
        service: ServiceId(0),
        parent: None,
        start: SimTime::from_nanos(i),
        end: SimTime::from_nanos(i),
        verdict: SpanVerdict::RejectedAtEntry,
    };
    for i in 0..2048 {
        tracer.record(marker(i));
    }
    out.layer(
        "cluster.tracing.record_span_ns",
        ns_per_call(2 * M, |i| tracer.record(black_box(marker(i)))),
        "ns",
    );
    let metrics = LiveMetrics::new(1, 1);
    out.layer(
        "liveserve.metrics.on_reject_ns",
        ns_per_call(2 * M, |_| {
            metrics.on_offered(0);
            metrics.on_rejected(0);
        }),
        "ns",
    );

    // The cache-hit path: front door, then serve-side bookkeeping.
    let mut door = FrontDoor::new(FrontConfig {
        coalesce: Some(CoalesceConfig {
            cache_capacity: 1024,
            cache_ttl: SimDuration::from_secs(3600),
        }),
        priority: None,
    });
    let now = SimTime::from_secs(1);
    for (i, k) in keyed.keys.iter().enumerate() {
        // The first lookup of a key misses and leads; completing the
        // flight caches its payload, as the warm-up does on the wire.
        if let PreVerdict::Proceed { lead: true } = door.pre_admit(ApiId(0), Some(*k), 0, 0, now) {
            door.begin_flight(ApiId(0), *k, i as u64);
            door.complete_flight(ApiId(0), *k, Arc::from("5"), now);
        }
    }
    let stream_keys: Vec<u64> = keyed.lines[0]
        .iter()
        .flatten()
        .filter_map(|l| l.key)
        .collect();
    let mut hits = 0u64;
    out.layer(
        "cluster.front.pre_admit_hit_ns",
        ns_per_call(2 * M, |i| {
            let key = stream_keys[i as usize % stream_keys.len()];
            if let PreVerdict::CacheHit(p) = door.pre_admit(ApiId(0), Some(key), 0, 0, now) {
                hits += 1;
                black_box(p);
            }
        }),
        "ns",
    );
    let stats = door.stats();
    let lookups = stats.cache_hits.get() + stats.follower_hits.get() + stats.misses.get();
    out.layer(
        "cluster.front.hit_ratio",
        stats.cache_hits.get() as f64 / lookups.max(1) as f64,
        "ratio",
    );
    out.gate(hits == 2 * M, || {
        format!("front door served {hits} of {} warm keyed reads", 2 * M)
    });
    let sample = liveserve::loadgen::TRACE_SAMPLE;
    out.layer(
        "liveserve.metrics.on_complete_ns",
        ns_per_call(2 * M, |i| {
            metrics.on_offered(0);
            metrics.on_admitted(0);
            let trace = i.is_multiple_of(sample).then_some(i);
            metrics.on_complete_traced(0, Duration::ZERO, SLO, trace);
        }),
        "ns",
    );
    let hist = obs::Histogram::unregistered();
    out.layer(
        "obs.registry.hist_record_ns",
        ns_per_call(2 * M, |i| {
            hist.record_with_exemplar(SimDuration::from_nanos(i % 4096), None);
        }),
        "ns",
    );
    let mut window = LatencyHistogram::new();
    out.layer(
        "simnet.histogram.record_ns",
        ns_per_call(4 * M, |i| window.record(SimDuration::from_micros(i % 4096))),
        "ns",
    );
    black_box(window.count());
    let log = obs::TraceLog::new();
    out.layer(
        "obs.trace.push_ns",
        ns_per_call(M, |i| {
            log.push(obs::TraceEvent {
                trace: i,
                request: i,
                api: 0,
                shard: 0,
                stage: "front_door".into(),
                outcome: "cache_hit".into(),
                at: 1.0,
                dur: 0.0,
            });
        }),
        "ns",
    );
    let counter = obs::Counter::unregistered();
    out.layer(
        "obs.registry.counter_inc_ns",
        ns_per_call(8 * M, |_| counter.inc()),
        "ns",
    );
    black_box(counter.get());
}

/// What the control tick holds locks for.
fn live_control_path(out: &mut Outcome) {
    let topo = echo_topology(SimDuration::from_micros(5));
    let desc = AppDescriptor::of(&topo, SLO);
    let metrics = LiveMetrics::new(topo.num_apis(), topo.num_services());
    out.layer(
        "liveserve.metrics.observe_us",
        ns_per_call(20_000, |i| {
            // A window's worth of completions to fold and reset.
            for _ in 0..64 {
                metrics.on_offered(0);
                metrics.on_admitted(0);
                metrics.on_complete(0, Duration::from_micros(i % 512), SLO);
            }
            black_box(metrics.observe(
                &desc,
                SimTime::from_millis(200 * (i + 1)),
                SimDuration::from_millis(200),
                &[f64::INFINITY],
            ));
        }) / 1e3,
        "us",
    );
    // Five APIs: the simulator's Online Boutique tick.
    let mut slo = obs::SloMonitor::new(obs::SloConfig::default());
    let samples: Vec<obs::ApiSloSample> = (0..5)
        .map(|i| obs::ApiSloSample {
            good: 400.0 + f64::from(i),
            bad: f64::from(i),
        })
        .collect();
    out.layer(
        "obs.slo.observe_us",
        ns_per_call(100_000, |i| {
            black_box(slo.observe(i as f64, &samples));
        }) / 1e3,
        "us",
    );
}

/// The worker path's two hand-offs, in isolation: job -> worker ->
/// completion (zero burn), and eventfd wake -> epoll return.
fn live_handoff(out: &mut Outcome) {
    let topo = echo_topology(SimDuration::ZERO);
    let metrics = Arc::new(LiveMetrics::new(1, 1));
    let shutdown = Arc::new(AtomicBool::new(false));
    let clock = WallClock::start();
    let (pool, routing) = WorkerPool::start(&topo, 1.0, SLO, clock, &metrics, &shutdown, None);
    let (tx, rx) = mpsc::channel();
    let waker = Waker::new().expect("eventfd");
    let mut received = 0u64;
    let handoff = ns_per_call(20_000, |i| {
        let now = Instant::now();
        routing.submit(
            Job {
                id: i,
                api: 0,
                accepted: now,
                enqueued: now,
                stage: 0,
                flight: None,
                trace: None,
                reply: ReplySink::new(7, tx.clone(), waker.clone()),
            },
            &metrics,
        );
        if rx.recv_timeout(Duration::from_secs(5)).is_ok() {
            received += 1;
        }
        // The loop would drain here; without it only the first
        // completion pays the eventfd write.
        waker.drain();
    });
    out.layer("liveserve.executors.handoff_us", handoff / 1e3, "us");
    out.gate(received == 20_000, || {
        format!("worker hand-off returned {received} of 20000 completions")
    });
    shutdown.store(true, Ordering::Relaxed);
    drop(routing);
    pool.join();

    // Wake round trip. The waiter announces it is about to block, so a
    // wake never races a drain (the ordering `Waker::drain` gets wrong).
    let waker = Waker::new().expect("eventfd");
    let (ready_tx, ready_rx) = mpsc::channel::<()>();
    let (woke_tx, woke_rx) = mpsc::channel::<Instant>();
    let rounds = 2000usize;
    let waiter_waker = waker.clone();
    let waiter = std::thread::spawn(move || {
        let mut poller = Poller::new().expect("epoll");
        waiter_waker.register(&poller, 1).expect("register waker");
        let mut events = Vec::new();
        for _ in 0..rounds {
            if ready_tx.send(()).is_err() {
                return;
            }
            let _ = poller.wait(&mut events, Some(Duration::from_secs(5)));
            let woke = Instant::now();
            waiter_waker.drain();
            if woke_tx.send(woke).is_err() {
                return;
            }
        }
    });
    let mut took: Vec<f64> = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        if ready_rx.recv_timeout(Duration::from_secs(5)).is_err() {
            break;
        }
        // Give the waiter time to reach `epoll_wait`.
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_micros(50) {
            std::hint::spin_loop();
        }
        let t0 = Instant::now();
        waker.wake();
        match woke_rx.recv_timeout(Duration::from_secs(6)) {
            Ok(woke) => took.push(woke.saturating_duration_since(t0).as_secs_f64() * 1e6),
            Err(_) => break,
        }
    }
    drop(ready_rx);
    drop(woke_rx);
    let joined = waiter.join().is_ok();
    out.gate(joined && took.len() == rounds, || {
        format!(
            "wake round trip completed {} of {rounds} rounds",
            took.len()
        )
    });
    out.layer(
        "liveserve.poller.wake_roundtrip_us",
        crate::harness::median(&mut took),
        "us",
    );
}

/// The simulator's event queue at the depth a 2600-user closed loop
/// keeps it (one pending event per user, plus in-flight calls; the
/// engine does not expose its queue, so the depth is the population
/// rounded up to 4096).
fn sim_layers(out: &mut Outcome) {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut t = 0u64;
    // Deterministic spread of firing times around "one second ahead".
    let mut jitter = crate::live::SplitMix(7);
    for i in 0..4096u64 {
        q.schedule(SimTime::from_nanos(jitter.next() % 1_000_000_000), i);
    }
    out.layer(
        "simnet.event.push_pop_ns",
        ns_per_call(4 * M, |i| {
            if let Some((at, _)) = q.pop() {
                t = at.as_nanos();
            }
            q.schedule(SimTime::from_nanos(t + jitter.next() % 1_000_000_000), i);
        }),
        "ns",
    );
    black_box(q.len());
}

/// Builders a run pays for once.
fn build_costs(out: &mut Outcome) {
    out.layer(
        "apps.alibaba.build_ms",
        ns_per_call(20, |_| {
            black_box(apps::AlibabaDemo::build(7));
        }) / 1e6,
        "ms",
    );
    let path = crate::harness::repo_root().join("scenarios/boutique_surge_topfull.json");
    match std::fs::read_to_string(&path) {
        Ok(json) => {
            let mut failed = 0u64;
            let ms = ns_per_call(100, |_| {
                let built = topfull_cli::parse_scenario(&json)
                    .and_then(|sc| topfull_cli::build_scenario(&sc).map(|_| ()));
                failed += u64::from(built.is_err());
            }) / 1e6;
            out.layer("cli.scenario.build_ms", ms, "ms");
            out.gate(failed == 0, || {
                format!(
                    "{} failed to parse and lower {failed} times",
                    path.display()
                )
            });
        }
        Err(e) => out.gate(false, || format!("cannot read {}: {e}", path.display())),
    }
}
