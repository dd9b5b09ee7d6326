//! Figure 9: goodput vs user demand.
//!
//! "We compare the performance of each load control at different incoming
//! request rates. … TopFull and DAGOR show consistent performance with
//! respect to the number of user demands, while Breakwater suffers from
//! further performance degradation when user demands increase" — the
//! multi-tier `(1-p)^k` effect analyzed in §6.1.

use crate::exec;
use crate::experiments::fig08;
use crate::models;
use crate::report::{f1, Report};
use crate::scenarios::Roster;
use simnet::stats;

const USER_SWEEP: [u32; 5] = [1500, 2000, 2600, 3200, 4000];
const ARMS: [&str; 3] = ["breakwater", "dagor", "topfull"];

pub fn run() -> Report {
    let mut r = Report::new("fig09", "Goodput vs user demand (Online Boutique)");
    let policy = models::policy_for("online-boutique");
    let arms = USER_SWEEP.iter().flat_map(|&users| {
        let rosters = [
            Roster::Breakwater,
            Roster::Dagor { alpha: 0.05 },
            Roster::TopFull(policy.clone()),
        ];
        rosters.map(|roster| (roster.label(), roster, fig08::recipe(users, 42)))
    });
    let totals: Vec<f64> = exec::run_arms(arms, fig08::RUN_SECS)
        .iter()
        .map(|o| {
            o.result
                .mean_total_goodput(fig08::MEASURE_FROM, fig08::RUN_SECS as f64)
        })
        .collect();
    let mut rows = Vec::new();
    for (users, per_arm) in USER_SWEEP.iter().zip(totals.chunks(ARMS.len())) {
        let mut row = vec![users.to_string()];
        row.extend(per_arm.iter().map(|t| f1(*t)));
        rows.push(row);
    }
    r.table(
        "total goodput (rps) vs users",
        &["users", "breakwater", "dagor", "topfull"],
        rows,
    );
    // Consistency = relative spread across the sweep; the paper's claim
    // is that TopFull/DAGOR stay flat while Breakwater degrades.
    for (i, label) in ARMS.iter().enumerate() {
        let totals: Vec<f64> = totals.iter().skip(i).step_by(ARMS.len()).copied().collect();
        let spread = if stats::mean(&totals) > 0.0 {
            stats::std_dev(&totals) / stats::mean(&totals)
        } else {
            0.0
        };
        let paper = match *label {
            "breakwater" => "degrades with demand",
            _ => "consistent",
        };
        r.compare(
            format!("{label}: relative spread across sweep"),
            paper,
            format!("{:.1}%", spread * 100.0),
            "",
        );
    }
    r.note(format!(
        "breakwater goodput from {} to {} rps across the sweep (paper: decreasing)",
        f1(totals[0]),
        f1(totals[totals.len() - ARMS.len()])
    ));
    r
}
