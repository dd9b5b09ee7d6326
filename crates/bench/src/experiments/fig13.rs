//! Figure 13 + Table 2: adaptation speed after overload.
//!
//! "The overload is generated with single Post Checkout API, focusing
//! only on the effectiveness of the rate controller. TopFull takes 5s to
//! reach the maximal goodput whereas default DAGOR takes 27s … DAGOR only
//! makes static decisions of 0.05 multiplicative decreases … The
//! comparison of the convergence speed is provided in Table 2":
//! DAGOR(0.05) = 27 s, DAGOR(0.1) = 19 s, DAGOR(0.5) = ∞, TopFull = 5 s.

use crate::exec;
use crate::models;
use crate::report::Report;
use crate::scenarios::{Recipe, Roster};
use apps::OnlineBoutique;
use cluster::RateSchedule;
use simnet::stats;
use simnet::SimTime;

const SURGE_AT: u64 = 10;
const RUN_SECS: u64 = 90;

/// Convergence time after the surge: the first second from which goodput
/// reaches 85% of the maximal sustained level and **never again** drops
/// below 75% of it (the paper's "time to reach the maximal goodput";
/// sawtoothing controllers like DAGOR(0.5) never converge → `None`).
fn convergence_secs(series: &[(f64, f64)]) -> Option<f64> {
    let pts: Vec<(f64, f64)> = series
        .iter()
        .copied()
        .filter(|(t, _)| *t >= SURGE_AT as f64)
        .collect();
    // Maximal sustained goodput = p90 of post-surge samples (robust to
    // single-sample spikes).
    let values: Vec<f64> = pts.iter().map(|(_, v)| *v).collect();
    let maximal = stats::quantile(&values, 0.9)?;
    if maximal <= 0.0 {
        return None;
    }
    let reach = 0.85 * maximal;
    let hold = 0.75 * maximal;
    for i in 0..pts.len() {
        if pts[i].1 >= reach && pts[i..].iter().all(|(_, v)| *v >= hold) {
            // Require a meaningful stable tail, not a last-sample fluke.
            if pts.len() - i >= 10 {
                return Some(pts[i].0 - SURGE_AT as f64);
            }
        }
    }
    None
}

pub fn run() -> Report {
    let mut r = Report::new(
        "fig13_table2",
        "Adaptation speed after overload (Fig. 13, Table 2)",
    );
    let policy = models::policy_for("online-boutique");
    let ob = OnlineBoutique::build();
    // Post Checkout only: 120 rps baseline stepping to 1000 rps — far
    // past the checkout service's ≈400 rps capacity.
    let step = RateSchedule::steps(vec![
        (SimTime::ZERO, 120.0),
        (SimTime::from_secs(SURGE_AT), 1000.0),
    ]);
    let recipe = Recipe::open_loop(&ob.topology, vec![(ob.postcheckout, step)], 100);
    let cases = [
        ("DAGOR (0.05)", Roster::Dagor { alpha: 0.05 }, "27 s"),
        ("DAGOR (0.1)", Roster::Dagor { alpha: 0.1 }, "19 s"),
        ("DAGOR (0.5)", Roster::Dagor { alpha: 0.5 }, "inf"),
        ("TopFull (RL)", Roster::TopFull(policy), "5 s"),
    ];
    let arms = cases
        .clone()
        .map(|(label, roster, _)| (label, roster, recipe.clone()));
    let runs = exec::run_arms(arms, RUN_SECS);
    let mut measured = Vec::new();
    for (o, (label, _, paper)) in runs.iter().zip(cases) {
        let series = o.result.goodput_series(ob.postcheckout);
        let conv = convergence_secs(&series);
        let shown = conv.map_or("inf".to_string(), |c| format!("{c:.0} s"));
        r.compare(format!("convergence: {label}"), paper, &shown, "");
        r.series(label, series);
        measured.push((label, conv));
    }
    // Shape assertions recorded as notes.
    let get = |l: &str| {
        measured
            .iter()
            .find(|(label, _)| *label == l)
            .and_then(|(_, c)| *c)
    };
    if let (Some(tf), Some(d005)) = (get("TopFull (RL)"), get("DAGOR (0.05)")) {
        r.note(format!(
            "shape: TopFull converges {:.1}x faster than DAGOR(0.05) (paper: 5.4x)",
            d005 / tf.max(1.0)
        ));
    }
    r
}
