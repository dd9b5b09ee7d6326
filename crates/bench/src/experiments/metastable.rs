//! Extension experiment: metastable retry storms vs the request-plane
//! resilience layer (not a paper figure).
//!
//! A retry storm is the canonical metastable failure: shed load comes
//! back multiplied, so the cluster stays saturated long after the
//! trigger is gone. This experiment quantifies how much of that
//! amplification the resilience layer removes, by crossing three client
//! retry policies — none, unbounded, budgeted (gRPC/Finagle-style token
//! bucket) — with deadline propagation + doomed-work cancellation on or
//! off, under both TopFull(MIMD) entry control and DAGOR per-service
//! admission.
//!
//! The claims under test:
//! * unbounded retries measurably collapse goodput below the no-retry
//!   baseline (the storm feeds itself);
//! * budgeted retries plus deadline cancellation sustain ≥90% of the
//!   no-retry baseline — the budget starves the storm, cancellation
//!   stops doomed work from burning capacity;
//! * the doomed-work-cancelled and retries-suppressed counters are
//!   nonzero, i.e. the mechanisms actually engaged.

use crate::exec;
use crate::report::{f1, ratio, Report};
use crate::scenarios::{Recipe, Roster};
use apps::OnlineBoutique;
use cluster::{DeadlineConfig, ResilienceConfig};

const RUN_SECS: u64 = 150;
const MEASURE_FROM: f64 = 30.0;
const USERS: u32 = 2600;
const SEED: u64 = 23;

/// Client retry policies, `(label, (max retries, budgeted))` — see
/// `Recipe::retry_storm`. "Unbounded" within a client timeout: far more
/// attempts than any request could ever need.
const RETRY_ARMS: [(&str, (u32, bool)); 3] = [
    ("no-retry", (0, false)),
    ("unbounded", (100, false)),
    ("budgeted", (100, true)),
];

pub fn recipe(retries: (u32, bool), deadlines: bool) -> Recipe {
    let ob = OnlineBoutique::build();
    let recipe = Recipe::retry_storm(&ob.topology, &ob.apis(), USERS, retries, SEED);
    if !deadlines {
        return recipe;
    }
    recipe.then(|engine| {
        engine.set_resilience(ResilienceConfig {
            deadlines: Some(DeadlineConfig::default()),
            breakers: None,
        })
    })
}

pub fn run() -> Report {
    let mut r = Report::new(
        "metastable",
        "Extension: retry-storm metastability vs budgeted retries + deadlines",
    );
    for roster in [Roster::TopFullMimd, Roster::Dagor { alpha: 0.05 }] {
        let ctrl = roster.label();
        let mut grid = Vec::new();
        for (label, retries) in RETRY_ARMS {
            for deadlines in [false, true] {
                grid.push((label, retries, deadlines));
            }
        }
        let arms = grid.iter().map(|&(label, retries, deadlines)| {
            (label, roster.clone(), recipe(retries, deadlines))
        });
        let runs = exec::run_arms(arms, RUN_SECS);
        // Per arm: steady-state goodput + the resilience counters.
        let results: Vec<_> = (runs.iter().zip(&grid))
            .map(|(o, (label, _, deadlines))| {
                let good = o.result.mean_total_goodput(MEASURE_FROM, RUN_SECS as f64);
                (*label, *deadlines, good, o.resilience)
            })
            .collect();
        let mut rows = Vec::new();
        for (label, deadlines, good, stats) in &results {
            rows.push(vec![
                (*label).into(),
                if *deadlines { "on" } else { "off" }.into(),
                f1(*good),
                stats.retries_issued.to_string(),
                stats.retries_suppressed.to_string(),
                stats.doomed_cancelled.to_string(),
            ]);
        }
        r.table(
            &format!("{ctrl}: goodput by retry policy × deadlines"),
            &[
                "retries",
                "deadlines",
                "goodput (rps)",
                "issued",
                "suppressed",
                "doomed-cancelled",
            ],
            rows,
        );
        let find = |label: &str, dl: bool| {
            results
                .iter()
                .find(|(l, d, _, _)| *l == label && *d == dl)
                .expect("arm present")
        };
        let baseline = find("no-retry", false).2;
        let unbounded = find("unbounded", false).2;
        let hardened = find("budgeted", true);
        r.compare(
            format!("{ctrl}: budgeted+deadlines ÷ no-retry baseline"),
            "≥0.90 (storm fully defused)",
            ratio(hardened.2, baseline),
            "",
        );
        r.compare(
            format!("{ctrl}: unbounded ÷ no-retry baseline"),
            "<1x (storm collapses goodput)",
            ratio(unbounded, baseline),
            "",
        );
        let s = &hardened.3;
        r.note(format!(
            "{ctrl}: hardened arm engaged its mechanisms — {} retries \
             suppressed, {} doomed calls cancelled, {} client timeouts torn down",
            s.retries_suppressed, s.doomed_cancelled, s.client_cancelled
        ));
    }
    r.note(
        "budgeted retries starve the storm (only successes refill the \
         bucket) while deadline cancellation stops abandoned work from \
         re-consuming the capacity the controller just protected",
    );
    r
}
