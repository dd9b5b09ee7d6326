//! `control.alibaba`: the cost of one control tick on the largest
//! topology in the repository (127 services, 25 APIs), §4.2's
//! scalability claim.
//!
//! Set-up runs the simulator once under TopFull (the `base.json`
//! policy) and records every observation the controller saw and every
//! update it returned. The measured phase replays that trace through a
//! *fresh* `TopFull` per pass — RL policy, clustering on, a journal
//! attached — so the detector, the clustering, the policy forward pass
//! and the journaling do all the work and the engine none. A pass must
//! return the recorded update vector exactly.

use crate::harness::{
    finish_traced, median_setup_s, ns_per_call, percentiles, slice_medians, Fnv, Outcome,
    Percentiles, Reference, RunSpec, Slice, SliceClock,
};
use crate::spans::SpanLog;
use cluster::observe::ClusterObservation;
use cluster::{Controller, Harness, RateLimitUpdate};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};
use topfull::{
    cluster_apis, merge_observations, split_limit, OverloadDetector, RateController, RateState,
    RlRateController, TopFull, TopFullConfig,
};

/// Control ticks recorded (simulated seconds under the 1.5× surge).
const TRACE_TICKS: u64 = 128;
/// Passes per slice: 8 × 128 ticks gives a slice its >= 1000 samples.
const PASSES_PER_SLICE: usize = 8;

/// The recorded closed-loop run: what the controller saw and said.
pub struct Recorded {
    pub obs: Vec<ClusterObservation>,
    /// FNV-1a over every tick's update vector.
    pub updates_hash: u64,
    pub updates: u64,
    pub policy: rl::policy::PolicyValue,
}

#[derive(Default)]
struct Tape {
    obs: Vec<ClusterObservation>,
    hash: Fnv,
    updates: u64,
}

struct Recorder {
    inner: TopFull,
    tape: Rc<RefCell<Tape>>,
}

fn fold_updates(hash: &mut Fnv, updates: &[RateLimitUpdate]) {
    hash.u64(updates.len() as u64);
    for u in updates {
        hash.u64(u64::from(u.api.0));
        hash.f64(u.rate);
    }
}

impl Controller for Recorder {
    fn control(&mut self, obs: &ClusterObservation) -> Vec<RateLimitUpdate> {
        let updates = self.inner.control(obs);
        let mut tape = self.tape.borrow_mut();
        tape.obs.push(obs.clone());
        fold_updates(&mut tape.hash, &updates);
        tape.updates += updates.len() as u64;
        updates
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn attach_journal(&mut self, journal: std::sync::Arc<obs::Journal>) {
        self.inner.attach_journal(journal);
    }
}

fn topfull(policy: &rl::policy::PolicyValue) -> TopFull {
    TopFull::new(TopFullConfig::default().with_rl(policy.clone()))
}

/// Build the Alibaba demo under a 1.5× surge and record `TRACE_TICKS`
/// control ticks. This whole function is the workload's set-up.
pub fn record(seed: u64) -> Recorded {
    let policy = topfull_bench::models::load("base")
        .expect("artifacts/models/base.json must load (the benchmark never trains)");
    let (_, engine) = topfull_bench::scenarios::alibaba_surged(1.5, seed);
    let tape = Rc::new(RefCell::new(Tape::default()));
    let recorder = Recorder {
        inner: topfull(&policy),
        tape: Rc::clone(&tape),
    };
    let mut h = Harness::new(engine, Box::new(recorder));
    h.run_for_secs(TRACE_TICKS);
    drop(h);
    let tape = Rc::try_unwrap(tape)
        .unwrap_or_else(|_| panic!("the harness held the only other handle"))
        .into_inner();
    Recorded {
        obs: tape.obs,
        updates_hash: tape.hash.0,
        updates: tape.updates,
        policy,
    }
}

/// Replay the trace through a fresh controller; returns the update
/// hash. Pushes one latency per tick.
fn replay(rec: &Recorded, lat: &mut Vec<u64>, spans: &mut SpanLog, pass: u64) -> u64 {
    let mut ctl = topfull(&rec.policy);
    ctl.attach_journal(obs::Journal::shared());
    // Shadow copies of the controller's stages, run on the same input
    // right after it: the controller's internals carry no spans, so a
    // traced tick times the stages side by side with the whole.
    let mut detector = OverloadDetector::new(rec.obs[0].services.len());
    let forward = RlRateController::new(rec.policy.clone());
    let mut hash = Fnv::default();
    for (i, obs) in rec.obs.iter().enumerate() {
        let unit = pass * TRACE_TICKS + i as u64;
        let t0 = Instant::now();
        let updates = ctl.control(obs);
        let t1 = Instant::now();
        lat.push((t1 - t0).as_nanos() as u64);
        fold_updates(&mut hash, &updates);
        if spans.enabled() {
            let tick = spans.open("control.tick", t0, unit);
            spans.record("topfull.controller.control", t0, t1, tick, unit);
            let overloaded = detector.detect(obs);
            let t2 = Instant::now();
            spans.record("topfull.detector.detect", t1, t2, tick, unit);
            let clusters = cluster_apis(&obs.api_paths, &overloaded);
            let t3 = Instant::now();
            spans.record("topfull.clustering.cluster_apis", t2, t3, tick, unit);
            for _ in 0..clusters.len().max(1) {
                std::hint::black_box(forward.decide(rate_state(obs)));
            }
            let t4 = Instant::now();
            spans.record("rl.policy.forward", t3, t4, tick, unit);
            spans.finish(tick, t4);
        }
    }
    hash.0
}

/// A representative policy input: the observation's totals.
fn rate_state(obs: &ClusterObservation) -> RateState {
    let goodput: f64 = obs.apis.iter().map(|a| a.goodput).sum();
    let limit: f64 = obs
        .apis
        .iter()
        .map(|a| a.rate_limit)
        .filter(|l| l.is_finite())
        .sum();
    let p99 = obs
        .apis
        .iter()
        .filter_map(|a| a.p99)
        .map(|d| d.as_secs_f64())
        .fold(0.0, f64::max);
    RateState {
        goodput_ratio: if limit > 0.0 { goodput / limit } else { 1.0 },
        latency_ratio: p99 / obs.slo.as_secs_f64().max(1e-9),
        total_limit: limit,
    }
}

/// Run the workload (or, traced, its layer probe) for `measure`.
pub fn run(spec: &RunSpec, measure: Duration, out: &mut Outcome) {
    // A 2 s set-up repeated 21 times would outlast the measured phase;
    // three cold repetitions still give `setup_s` a median.
    let reps = match (spec.trace, spec.quick) {
        (true, _) => 0,
        (false, true) => 1,
        (false, false) => 3,
    };
    let mut recorded: Option<Recorded> = None;
    let setup_s = median_setup_s(reps, || record(spec.seed), |r| recorded = Some(r));
    let rec = recorded.unwrap_or_else(|| record(spec.seed));
    out.gate(rec.obs.len() as u64 == TRACE_TICKS, || {
        format!(
            "control.alibaba: recorded {} ticks, wanted {TRACE_TICKS}",
            rec.obs.len()
        )
    });

    let mut spans = SpanLog::new(spec.trace, 2_000_000);
    let baseline_until = spec.trace.then(|| Instant::now() + measure / 4);
    let mut slices: Vec<Slice> = Vec::with_capacity(1024);
    let mut baseline: Vec<Slice> = Vec::new();
    let mut pcts: Vec<(u64, u64)> = Vec::with_capacity(1024);
    let mut lat: Vec<u64> = Vec::with_capacity(PASSES_PER_SLICE * TRACE_TICKS as usize);
    let mut pass = 0u64;
    let mut diverged = 0u64;
    // One unrecorded pass warms the caches and the allocator.
    replay(&rec, &mut lat, &mut SpanLog::new(false, 0), 0);
    let mut reference = Reference::new();
    let started = Instant::now();
    while started.elapsed() < measure || slices.is_empty() {
        let in_baseline = baseline_until.is_some_and(|t| Instant::now() < t);
        spans.set_enabled(spec.trace && !in_baseline);
        lat.clear();
        let clock = SliceClock::start();
        for _ in 0..PASSES_PER_SLICE {
            let hash = replay(&rec, &mut lat, &mut spans, pass);
            pass += 1;
            out.attempted += TRACE_TICKS;
            if hash != rec.updates_hash {
                // Every tick of a diverged pass is suspect.
                out.failed += TRACE_TICKS;
                diverged += 1;
            }
        }
        // The controller is the system under test and runs on this
        // thread: there is no generator CPU to take out.
        let slice = clock.close(PASSES_PER_SLICE as u64 * TRACE_TICKS, false, &mut reference);
        if in_baseline {
            baseline.push(slice);
        } else {
            // Shadow stages inflate a traced tick's wall time; latency
            // samples cover `control` alone either way.
            slices.push(slice);
            pcts.push(percentiles(&mut lat));
        }
    }
    out.gate(diverged == 0, || {
        format!("control.alibaba: {diverged} of {pass} replay passes returned a different update vector than the recording")
    });

    let med = slice_medians(&slices, Percentiles::PerSlice(&pcts));
    if !spec.trace {
        out.end_to_end(&med, setup_s);
        return;
    }

    // ---- traced: the layer table --------------------------------------
    let span_us = |name: &str| spans.mean_us(name).unwrap_or(0.0);
    out.layer(
        "topfull.controller.control_us",
        span_us("topfull.controller.control"),
        "us",
    );
    out.layer(
        "topfull.controller.updates_per_tick",
        rec.updates as f64 / TRACE_TICKS as f64,
        "count",
    );
    out.layer(
        "topfull.detector.detect_us",
        span_us("topfull.detector.detect"),
        "us",
    );
    out.layer(
        "topfull.clustering.cluster_us",
        span_us("topfull.clustering.cluster_apis"),
        "us",
    );
    out.layer("rl.policy.forward_us", span_us("rl.policy.forward"), "us");

    // The journal entry a tick records most often.
    // A fresh journal every 64 Ki entries keeps the push path (not the
    // at-capacity drop path) under the timer without holding 1 M entries.
    let mut journal = obs::Journal::with_capacity(1 << 16);
    out.layer(
        "obs.journal.record_ns",
        ns_per_call(1 << 20, |i| {
            if i % (1 << 16) == 0 {
                journal = obs::Journal::with_capacity(1 << 16);
            }
            journal.record(obs::JournalEntry::RateBlocked {
                t: i as f64,
                api: (i % 25) as u32,
                reason: String::new(),
            })
        }),
        "ns",
    );

    // Shard plane: a 4-shard merge of recorded observations, and the
    // water-filling split of one limit back over 4 shards.
    let views: Vec<&ClusterObservation> = rec.obs.iter().take(4).collect();
    out.layer(
        "topfull.shard.merge_us",
        ns_per_call(2000, |_| {
            std::hint::black_box(merge_observations(std::hint::black_box(&views)));
        }) / 1e3,
        "us",
    );
    let arrivals: Vec<f64> = views
        .iter()
        .map(|v| v.apis.iter().map(|a| a.offered).sum::<f64>() + 1.0)
        .collect();
    out.layer(
        "topfull.shard.split_limit_us",
        ns_per_call(200_000, |i| {
            let global = 1000.0 + (i % 64) as f64;
            std::hint::black_box(split_limit(global, &arrivals, &[true; 4], 1.0, None));
        }) / 1e3,
        "us",
    );

    if spec.workload == "control.alibaba" {
        finish_traced(out, "control.alibaba", &med, &baseline, &spans);
    }
}
