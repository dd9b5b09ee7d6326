//! Front-door admission hot paths.
//!
//! The front door (DESIGN.md §17) runs *before* the token-bucket entry
//! admission that `benches/liveserve.rs` prices at ~6.9 ns/admit, so
//! its per-request cost is pure overhead on the gateway admit path.
//! Three things matter:
//!
//! * `front/coalesce-lookup-*` — stage 1's cache probe, the cost every
//!   keyed read pays (hit: answer from cache; miss: proceed as leader).
//! * `front/priority-check` — stage 2's `(business, user)` level
//!   computation plus threshold compare, the cost every non-coalesced
//!   request pays when the gate is on.
//! * `front/entry-only-admit` — the unchanged PR-8 baseline, re-measured
//!   here so `BENCH_admission.json` can state the overhead ratio against
//!   numbers from the same host and run. When no front door is
//!   configured the gateway never calls `pre_admit` at all, so the
//!   configured-off overhead is structurally zero.
//!
//! Results are recorded in `BENCH_admission.json` at the repo root. What
//! these stages cost *inside the live event loop* — where the per-request
//! bookkeeping around them is now tallied per wakeup — is the gated
//! benchmark's `live.cached` workload (`benchmark/README.md`).

use cluster::front::{CoalesceConfig, FrontConfig, FrontDoor, PreVerdict, PriorityConfig};
use cluster::{ApiId, EntryAdmission};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use simnet::{SimDuration, SimTime};
use std::sync::Arc;

fn coalesce_only() -> FrontDoor {
    FrontDoor::new(FrontConfig {
        coalesce: Some(CoalesceConfig {
            cache_capacity: 1024,
            // Long TTL so the seeded entry stays hot for the whole run.
            cache_ttl: SimDuration::from_secs(3600),
        }),
        priority: None,
    })
}

/// Stage 1 probe: cache hit (the flash-crowd fast path) and miss (the
/// leader path — what a cold key pays on top of plain admission).
fn bench_coalesce_lookup(c: &mut Criterion) {
    let mut fd = coalesce_only();
    let api = ApiId(0);
    let now = SimTime::from_secs(1);
    // Seed one completed flight so key 7 is a warm cache entry.
    assert!(matches!(
        fd.pre_admit(api, Some(7), 0, 0, now),
        PreVerdict::Proceed { lead: true }
    ));
    fd.begin_flight(api, 7, 1);
    fd.complete_flight(api, 7, Arc::from("42"), now);
    // The verdict borrows the door: look at it, do not return it.
    c.bench_function("front/coalesce-lookup-hit", |b| {
        b.iter(|| {
            black_box(fd.pre_admit(api, Some(7), 0, 0, now));
        })
    });
    c.bench_function("front/coalesce-lookup-miss", |b| {
        b.iter(|| {
            black_box(fd.pre_admit(api, Some(8), 0, 0, now));
        })
    });
}

/// Stage 2 check: level computation + threshold compare + per-level
/// admitted histogram update, cycling through users like real traffic.
fn bench_priority_check(c: &mut Criterion) {
    let mut fd = FrontDoor::new(FrontConfig {
        coalesce: None,
        priority: Some(PriorityConfig::default()),
    });
    let now = SimTime::ZERO;
    let mut user: u8 = 0;
    c.bench_function("front/priority-check", |b| {
        b.iter(|| {
            user = user.wrapping_add(1) & 127;
            black_box(fd.pre_admit(ApiId(0), None, 1, user, now));
        })
    });
}

/// The PR-8 baseline admit path, unchanged by this subsystem: the
/// token-bucket `try_admit` the gateway runs after (or without) the
/// front door. Must stay within 10% of BENCH_live.json's 6.9 ns.
fn bench_entry_only(c: &mut Criterion) {
    let mut adm = EntryAdmission::new(4, 0.05);
    adm.set_rate_limit(ApiId(0), 1e9, SimTime::ZERO);
    let mut now = SimTime::ZERO;
    c.bench_function("front/entry-only-admit", |b| {
        b.iter(|| {
            now += SimDuration::from_nanos(100);
            black_box(adm.try_admit(ApiId(0), now))
        })
    });
}

criterion_group!(
    benches,
    bench_coalesce_lookup,
    bench_priority_check,
    bench_entry_only
);
criterion_main!(benches);
