//! Telemetry-plane overhead.
//!
//! `obs/…` measures the instrument hot paths in isolation: one counter
//! increment, one histogram record (both what the engine's per-request
//! bookkeeping and the live gateway's admit/reject path pay per event),
//! the exemplar-bearing histogram record and bounded trace-log push the
//! tracing plane pays per *sampled* request, the per-batch stage-timer
//! cost (two `Instant` reads + one record, amortized over a whole epoll
//! batch), and a 1000-entry journal fill (ns/iter ÷ 1000 gives the
//! per-decision cost — decisions happen per control tick, not per
//! request).
//!
//! What the instruments cost the engine end to end is not measured
//! here: the registry-backed counters are always live on the
//! per-request path, so the engine's events/s *is* the with-telemetry
//! number — `benches/engine.rs`, or of record the gated benchmark's
//! `sim.boutique` workload (`cargo run --release --offline
//! --manifest-path benchmark/Cargo.toml -- --workload sim.boutique
//! --seed 5 --seconds 20 --trace 0`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use simnet::SimDuration;

fn bench_counter_inc(c: &mut Criterion) {
    let reg = obs::Registry::new();
    let ctr = reg.counter("bench_events_total", &[("api", "0")]);
    c.bench_function("obs/counter-inc", |b| {
        b.iter(|| {
            ctr.inc();
            black_box(ctr.get())
        })
    });
}

fn bench_histogram_record(c: &mut Criterion) {
    let reg = obs::Registry::new();
    let h = reg.histogram("bench_latency_seconds", &[]);
    let mut n: u64 = 0;
    c.bench_function("obs/histogram-record", |b| {
        b.iter(|| {
            // Vary the value so bucket search is not branch-predicted away.
            n = n.wrapping_add(40_961);
            h.record(SimDuration::from_nanos(1_000_000 + (n & 0xf_ffff)));
            black_box(&h);
        })
    });
}

fn bench_histogram_record_exemplar(c: &mut Criterion) {
    let reg = obs::Registry::new();
    let h = reg.histogram("bench_latency_exemplar_seconds", &[]);
    let mut n: u64 = 0;
    c.bench_function("obs/histogram-record-exemplar", |b| {
        b.iter(|| {
            n = n.wrapping_add(40_961);
            h.record_with_exemplar(SimDuration::from_nanos(1_000_000 + (n & 0xf_ffff)), Some(n));
            black_box(&h);
        })
    });
}

fn bench_trace_push(c: &mut Criterion) {
    // Steady state: the bounded log is full, so every push also evicts —
    // the cost the live gateway pays per sampled stage event.
    let log = obs::TraceLog::new();
    let mut n: u64 = 0;
    c.bench_function("obs/trace-push", |b| {
        b.iter(|| {
            n = n.wrapping_add(1);
            log.push(obs::TraceEvent {
                trace: n,
                request: n,
                api: 0,
                shard: 0,
                stage: "worker".into(),
                outcome: "served".into(),
                at: n as f64,
                dur: 0.001,
            });
            black_box(log.evicted())
        })
    });
}

fn bench_stage_timer_batch(c: &mut Criterion) {
    // The per-batch profiling budget: two `Instant` reads plus one
    // histogram record, amortized over the whole batch.
    let reg = obs::Registry::new();
    let h = reg.histogram("bench_loop_stage_seconds", &[("stage", "parse")]);
    c.bench_function("obs/stage-timer-batch", |b| {
        b.iter(|| {
            let t0 = std::time::Instant::now();
            black_box(t0.elapsed());
            h.record(SimDuration::from_nanos(
                u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            ));
            black_box(&h);
        })
    });
}

fn bench_journal_fill(c: &mut Criterion) {
    c.bench_function("obs/journal-record-1k", |b| {
        b.iter(|| {
            // Fresh journal each iter so every record lands under the
            // bound (the post-cap drop path is cheaper and would skew).
            let j = obs::Journal::shared();
            for i in 0..1000u32 {
                j.record(obs::JournalEntry::RateBlocked {
                    t: f64::from(i),
                    api: i,
                    reason: "rate-increase blocked: path contains overloaded svc".into(),
                });
            }
            j.len()
        })
    });
}

criterion_group!(
    benches,
    bench_counter_inc,
    bench_histogram_record,
    bench_histogram_record_exemplar,
    bench_trace_push,
    bench_stage_timer_batch,
    bench_journal_fill,
);
criterion_main!(benches);
