//! `sim.boutique`: what a researcher regenerating the paper's figures
//! waits for — the discrete-event simulator under TopFull with the
//! trained Transfer-OB policy, Online Boutique, 2600 closed-loop users.
//!
//! op = one simulated event; latency = wall time per simulated second.
//! The engine, its event queue, the metrics windows and the plane hooks
//! do the work; the controller is about 4% of it and `liveserve` none.

use crate::harness::{
    finish_traced, median_setup_s, percentiles, slice_medians, Fnv, Outcome, Percentiles,
    Reference, RunSpec, Slice, SliceClock,
};
use crate::spans::SpanLog;
use cluster::observe::ClusterObservation;
use cluster::{Controller, Harness, RateLimitUpdate};
use simnet::SimTime;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};
use topfull::{TopFull, TopFullConfig};

/// §6.1: "2600 Locust users invoking 1 request per second".
const USERS: u32 = 2600;
/// Simulated seconds whose event count and goodput series are checked
/// against `golden.json`; also the warm-up (the controller converges
/// inside it).
pub const GOLDEN_SECS: u64 = 120;
/// Simulated seconds per slice (about 75 ms of wall time each): short,
/// so that the reference burst after each slice samples the host close
/// to the work it normalises.
const SLICE_SECS: u64 = 10;

/// Wall time the wrapped controller spent in `control`, per call.
#[derive(Default)]
struct ControlSpans {
    calls: Vec<(Instant, Instant)>,
}

/// Times every `control` call from outside the controller.
struct TimedController {
    inner: TopFull,
    spans: Rc<RefCell<ControlSpans>>,
}

impl Controller for TimedController {
    fn control(&mut self, obs: &ClusterObservation) -> Vec<RateLimitUpdate> {
        let t0 = Instant::now();
        let updates = self.inner.control(obs);
        self.spans.borrow_mut().calls.push((t0, Instant::now()));
        updates
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn attach_journal(&mut self, journal: std::sync::Arc<obs::Journal>) {
        self.inner.attach_journal(journal);
    }
}

/// The trained policy the workload names; loading must never fall back
/// to training one.
fn policy() -> rl::policy::PolicyValue {
    topfull_bench::models::load("transfer_ob")
        .expect("artifacts/models/transfer_ob.json must load (the benchmark never trains)")
}

/// Policy load + topology + `Engine::new` + `Harness::new`.
fn build(seed: u64, timed: Option<Rc<RefCell<ControlSpans>>>) -> Harness {
    let (_, engine) = topfull_bench::scenarios::boutique_closed_loop(USERS, seed);
    let inner = TopFull::new(TopFullConfig::default().with_rl(policy()));
    let controller: Box<dyn Controller> = match timed {
        Some(spans) => Box::new(TimedController { inner, spans }),
        None => Box::new(inner),
    };
    Harness::new(engine, controller)
}

/// Event count and FNV-1a of the per-API goodput series after
/// `GOLDEN_SECS` simulated seconds.
pub fn golden_prefix(seed: u64) -> (u64, u64) {
    let mut h = build(seed, None);
    h.run_for_secs(GOLDEN_SECS);
    fingerprint(&h)
}

fn fingerprint(h: &Harness) -> (u64, u64) {
    let mut fnv = Fnv::default();
    for sample in &h.result().samples {
        for g in &sample.goodput {
            fnv.f64(*g);
        }
    }
    (h.engine.events_processed(), fnv.0)
}

/// Run the workload (or, traced, its layer probe) for `measure`.
pub fn run(spec: &RunSpec, measure: Duration, golden: Option<(u64, u64)>, out: &mut Outcome) {
    let setup_s = if spec.trace {
        (0.0, 0.0)
    } else {
        median_setup_s(spec.setup_reps(), || build(spec.seed, None), drop)
    };
    let control = Rc::new(RefCell::new(ControlSpans::default()));
    let mut h = build(spec.seed, spec.trace.then(|| Rc::clone(&control)));

    // Warm-up doubles as the determinism gate.
    h.run_for_secs(GOLDEN_SECS);
    let got = fingerprint(&h);
    out.attempted += got.0;
    match golden {
        Some(want) => out.gate(got == want, || {
            format!(
                "sim.boutique seed {}: {} events / goodput fnv {:#018x} after {GOLDEN_SECS} s, golden.json says {} / {:#018x}",
                spec.seed, got.0, got.1, want.0, want.1
            )
        }),
        // A seed without a recorded constant still has to be sane.
        None => out.gate(got.0 > 1000 * GOLDEN_SECS, || {
            format!("sim.boutique seed {}: only {} events", spec.seed, got.0)
        }),
    }
    control.borrow_mut().calls.clear();

    // One span per simulated second and its two children.
    let mut spans = SpanLog::new(spec.trace, 400_000);
    let baseline_until = spec.trace.then(|| Instant::now() + measure / 4);
    let mut slices: Vec<Slice> = Vec::with_capacity(4096);
    let mut baseline: Vec<Slice> = Vec::new();
    let mut lat: Vec<u64> = Vec::with_capacity(1 << 16);
    let mut lat_normalised: Vec<u64> = Vec::with_capacity(1 << 16);
    let mut engine_ns = 0u64;
    let mut sim_secs = 0u64;
    let events_at_start = h.engine.events_processed();
    let mut now_s = GOLDEN_SECS;
    let mut reference = Reference::new();
    let started = Instant::now();
    while started.elapsed() < measure {
        let in_baseline = baseline_until.is_some_and(|t| Instant::now() < t);
        let traced = spec.trace && !in_baseline;
        let events_before = h.engine.events_processed();
        let first_sample = lat.len();
        let clock = SliceClock::start();
        for _ in 0..SLICE_SECS {
            now_s += 1;
            let t = SimTime::from_secs(now_s);
            let t0 = Instant::now();
            if traced {
                // Driving the engine to the tick first leaves the
                // harness call nothing but its own tick work: record,
                // SLO fold, controller, limit updates.
                let parent = spans.open("cluster.harness.run", t0, now_s);
                h.engine.run_until(t);
                let t1 = Instant::now();
                spans.record("cluster.engine.run_until", t0, t1, parent, now_s);
                engine_ns += (t1 - t0).as_nanos() as u64;
                h.run_until(t);
                let t2 = Instant::now();
                for (a, b) in control.borrow_mut().calls.drain(..) {
                    spans.record("topfull.controller.control", a, b, parent, now_s);
                }
                spans.finish(parent, t2);
                sim_secs += 1;
                lat.push((t2 - t0).as_nanos() as u64);
            } else {
                h.run_until(t);
                if !in_baseline {
                    lat.push(t0.elapsed().as_nanos() as u64);
                }
            }
        }
        let events = h.engine.events_processed() - events_before;
        let slice = clock.close(events, false, &mut reference);
        // A slice holds 25 samples — too few for a p99 — so percentiles
        // are taken over the whole phase, each sample normalised by the
        // slowdown of the slice it was taken in.
        lat_normalised.extend(
            lat[first_sample..]
                .iter()
                .map(|ns| (*ns as f64 / slice.slowdown.wall) as u64),
        );
        if in_baseline {
            baseline.push(slice);
        } else {
            slices.push(slice);
        }
    }
    out.attempted += h.engine.events_processed() - events_at_start;
    // Every sample of the series must be a finite rate.
    let bad = h
        .result()
        .samples
        .iter()
        .flat_map(|s| &s.goodput)
        .filter(|g| !g.is_finite() || **g < 0.0)
        .count();
    out.failed += bad as u64;

    let samples = lat.len();
    let med = slice_medians(
        &slices,
        Percentiles::WholePhase {
            raw: percentiles(&mut lat),
            normalised: percentiles(&mut lat_normalised),
        },
    );
    out.notes
        .insert("sim.latency_samples".into(), samples as f64);
    if !spec.trace {
        out.end_to_end(&med, setup_s);
        return;
    }

    // ---- traced: the layer table --------------------------------------
    let events: u64 = slices.iter().map(|s| s.ops).sum();
    let secs = sim_secs.max(1) as f64;
    out.layer(
        "cluster.engine.us_per_sim_s",
        engine_ns as f64 / 1e3 / secs,
        "us",
    );
    out.layer(
        "cluster.engine.events_per_sim_s",
        events as f64 / secs,
        "count",
    );
    out.layer(
        "cluster.harness.tick_overhead_us",
        spans.mean_self_us("cluster.harness.run").unwrap_or(0.0),
        "us",
    );
    out.notes.insert(
        "sim.controller_control_us".into(),
        spans.mean_us("topfull.controller.control").unwrap_or(0.0),
    );
    if spec.workload == "sim.boutique" {
        finish_traced(out, "sim.boutique", &med, &baseline, &spans);
    }
}
