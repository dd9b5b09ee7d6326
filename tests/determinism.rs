//! Golden determinism fingerprint for the decomposed engine and the
//! parallel run executor.
//!
//! The simulation is specified to be a pure function of `(topology,
//! config, workload, seed)`: same inputs, same event sequence, same
//! artifacts — on any machine, at any worker count. This test pins that
//! contract to the `engine.determinism` row of `scripts/goldens.txt`: an
//! FNV-1a hash over each run's processed-event count, its per-API goodput
//! series, and its resilience totals. If any change perturbs even one
//! event, the fingerprint moves and the row must be re-recorded
//! **deliberately** (`scripts/goldens.sh --record`), with the behavioral
//! change explained in the commit.
//!
//! The parallel test runs the identical plan on four workers and must
//! reproduce the serial fingerprint bit-for-bit — the run executor is
//! not allowed to reorder, drop, or perturb anything.

mod common;

use baselines::Scheme;
use cluster::runner::RunPlan;
use cluster::{Controller, Harness, NoControl, ResilienceStats, RunResult};
use common::{assert_rows, fnv1a, FNV_OFFSET};
use topfull::{TopFull, TopFullConfig};
use topfull_bench::scenarios::boutique_closed_loop;

const RUN_SECS: u64 = 30;

fn mk_engine() -> cluster::Engine {
    // An overloaded boutique with deadlines enabled, so the fingerprint
    // covers admission, SLO accounting, and the resilience plane.
    let (_, mut e) = boutique_closed_loop(1200, 42);
    e.set_resilience(cluster::ResilienceConfig {
        deadlines: Some(cluster::DeadlineConfig::default()),
        breakers: None,
    });
    e
}

/// What the fingerprint reads of one finished arm.
struct Outcome {
    label: &'static str,
    result: RunResult,
    events_processed: u64,
    crash_events: u64,
    resilience: ResilienceStats,
}

/// The arm `label` names: a per-service scheme installed in the engine,
/// or an entry controller.
fn run_arm(label: &'static str) -> Outcome {
    let mut engine = mk_engine();
    let scheme = match label {
        "dagor" => Some(Scheme::Dagor { alpha: 0.05 }),
        "breakwater" => Some(Scheme::Breakwater),
        _ => None,
    };
    let controller: Box<dyn Controller> = match (label, scheme) {
        (_, Some(scheme)) => {
            scheme.install(&mut engine);
            Box::new(NoControl)
        }
        ("topfull-mimd", None) => Box::new(TopFull::new(TopFullConfig::default().with_mimd())),
        ("no-control", None) => Box::new(NoControl),
        _ => panic!("no arm '{label}'"),
    };
    let mut h = Harness::new(engine, controller);
    h.run_for_secs(RUN_SECS);
    Outcome {
        label,
        events_processed: h.engine.events_processed(),
        crash_events: h.engine.crash_events,
        resilience: h.engine.resilience_totals(),
        result: h.into_result(),
    }
}

fn plan_arms(workers: usize) -> Vec<Outcome> {
    let mut plan = RunPlan::new().with_workers(workers);
    for label in ["no-control", "dagor", "topfull-mimd", "breakwater"] {
        plan.submit(move || run_arm(label));
    }
    plan.run()
}

fn fingerprint(outcomes: &[Outcome]) -> u64 {
    let mut h = FNV_OFFSET;
    for o in outcomes {
        fnv1a(&mut h, o.label.as_bytes());
        fnv1a(&mut h, &o.events_processed.to_le_bytes());
        fnv1a(&mut h, &o.crash_events.to_le_bytes());
        for s in &o.result.samples {
            for g in &s.goodput {
                // Exact bits: determinism means identical floats, not
                // approximately-equal floats.
                fnv1a(&mut h, &g.to_bits().to_le_bytes());
            }
        }
        let r = &o.resilience;
        for c in [
            r.doomed_cancelled,
            r.deadline_rejected,
            r.client_cancelled,
            r.retries_issued,
            r.retries_suppressed,
            r.breaker_rejected,
            r.breaker_transitions,
        ] {
            fnv1a(&mut h, &c.to_le_bytes());
        }
    }
    h
}

#[test]
fn serial_run_matches_golden_fingerprint() {
    assert_rows(&[("engine.determinism", fingerprint(&plan_arms(1)))]);
}

#[test]
fn parallel_run_matches_golden_fingerprint() {
    assert_rows(&[("engine.determinism", fingerprint(&plan_arms(4)))]);
}

/// The decision journal is part of the determinism contract: the JSONL
/// rendering of every arm's journal must be byte-identical between a
/// serial plan and a four-worker plan. Journal writes all happen on the
/// thread driving the control loop, so worker count must not reorder,
/// drop, or reword a single entry.
#[test]
fn journal_jsonl_is_identical_across_worker_counts() {
    let serial = plan_arms(1);
    let parallel = plan_arms(4);
    assert_eq!(serial.len(), parallel.len());
    let mut any_entries = false;
    for (s, p) in serial.iter().zip(&parallel) {
        let s_jsonl = obs::to_jsonl(&s.result.journal);
        let p_jsonl = obs::to_jsonl(&p.result.journal);
        assert_eq!(
            s_jsonl, p_jsonl,
            "arm {}: journal JSONL differs between 1 and 4 workers",
            s.label
        );
        assert_eq!(
            obs::journal_fingerprint(&s_jsonl),
            obs::journal_fingerprint(&p_jsonl),
            "arm {}: journal fingerprint differs between 1 and 4 workers",
            s.label
        );
        any_entries |= !s.result.journal.is_empty();
    }
    assert!(
        any_entries,
        "the overloaded boutique arms should journal at least one decision"
    );
}
