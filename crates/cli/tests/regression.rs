//! Regression pins for fuzzer-found controller weaknesses.
//!
//! Every genome under `scenarios/found/` was produced by `topfull fuzz`
//! (seeded, deterministic) and shrunk to a minimal reproducer. Fixed
//! findings are replayed here and must stay fixed; known-open findings
//! are pinned as *still tripping* so the corpus stays honest — when a
//! future change fixes one, its test fails and the finding graduates
//! into the fixed set.

use std::fs;
use std::path::PathBuf;

use topfull_cli::fuzz::run_pair;
use topfull_cli::objectives::{evaluate, trips, Objective};
use topfull_cli::workflow::{parse_workflow, WorkflowSpec};

fn found_genome(name: &str) -> WorkflowSpec {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios/found")
        .join(name);
    let text = fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()));
    parse_workflow(&text).unwrap_or_else(|e| panic!("parse {}: {e}", p.display()))
}

fn breach_trips(name: &str) -> bool {
    let wf = found_genome(name);
    let (arm, oracle) = run_pair(&wf).expect("reproducer pair runs");
    let violations = evaluate(&wf, &arm, &oracle);
    trips(&violations, Objective::SustainedBreach)
}

/// Fixed: a flash crowd inflates the entry limit (admitted at overload
/// entry ≈ the burst peak) far above backend capacity; the paper's
/// −5%/tick walk-down left p99 above 1.5×SLO for 23 s with zero
/// goodput. The collapse backoff now deepens those cuts.
#[test]
fn flash_crowd_entry_inflation_stays_fixed() {
    assert!(
        !breach_trips("fuzz_1_3_breach.workflow.json"),
        "flash-crowd entry-inflation breach regressed"
    );
}

/// Fixed: the same inflation via a second route — a slow ramp past
/// capacity leaves the limit uninitialized (raises skip unlimited
/// APIs) until the first cut snapshots an admitted rate that has
/// already overshot capacity. The collapse-backoff episode window is
/// keyed on limit initialization, not overload entry, to cover this.
#[test]
fn ramp_first_throttle_inflation_stays_fixed() {
    assert!(
        !breach_trips("fuzz_1_8_breach.workflow.json"),
        "ramp first-throttle inflation breach regressed"
    );
}

/// Fixed: telemetry noise (σ≈0.86) made the overload detector flap, so
/// cuts routed through the per-API recovery-probe path where the
/// collapse backoff did not apply, and the walk-down from an inflated
/// limit was −5%/tick again — p99 pinned past 1.5×SLO with zero
/// goodput for the breach window. The recovery path now runs the same
/// escalation law (per-API anchors, same episode budget); see
/// `TopFull::escalate_recovery_cut`.
#[test]
fn noise_blinded_descent_stays_fixed() {
    assert!(
        !breach_trips("fuzz_2_10_breach.workflow.json"),
        "noise-blinded recovery-path descent regressed"
    );
}
