//! Running committed scenario documents and their one-field variants as
//! arms of one experiment, the way `topfull run` and `topfull compare`
//! run them: shared by the paper figures (`tests/paper.rs`) and the
//! extension experiments (`tests/extensions.rs`).

use topfull_suite::cluster::runner::RunPlan;
use topfull_suite::simnet::stats;
use topfull_suite::topfull_cli::schema::Scenario;
use topfull_suite::topfull_cli::{parse_scenario, run_scenario, ScenarioOutcome};

/// `scenarios/<name>.json`, parsed.
pub fn doc(name: &str) -> Scenario {
    let path = format!("{}/scenarios/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let json = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse_scenario(&json).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// `sc` with one edit applied (the way `topfull compare` derives its
/// controller variants).
pub fn variant(sc: &Scenario, edit: impl FnOnce(&mut Scenario)) -> Scenario {
    let mut v = sc.clone();
    edit(&mut v);
    v
}

/// Run every arm over the worker pool; outcomes come back in arm order.
pub fn run_arms<const N: usize>(arms: [Scenario; N]) -> [ScenarioOutcome; N] {
    let mut plan = RunPlan::new();
    for sc in arms {
        plan.submit(move || run_scenario(&sc).unwrap_or_else(|e| panic!("{}: {e}", sc.name)));
    }
    plan.run().try_into().expect("one outcome per arm")
}

/// Steady goodput of one API.
pub fn api_goodput(o: &ScenarioOutcome, api: &str) -> f64 {
    let found = o.goodput_per_api.iter().find(|(n, _)| n == api);
    found.unwrap_or_else(|| panic!("no API '{api}'")).1
}

/// Mean total goodput over the inclusive window `[from, to]` seconds,
/// as `RunResult::mean_total_goodput` takes it.
pub fn window_mean(o: &ScenarioOutcome, from: f64, to: f64) -> f64 {
    let inside = o.timeline.iter().filter(|(t, _)| (from..=to).contains(t));
    stats::mean(&inside.map(|(_, g)| *g).collect::<Vec<f64>>())
}
