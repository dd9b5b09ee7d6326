//! Figure 19: sensitivity to VM startup time.
//!
//! "we emulated different VM startup times … we tested TopFull with 20s,
//! 40s, and 60s VM startup. … Both autoscaler standalone and TopFull
//! with autoscaler show higher average goodput when VM startup time is
//! reduced. Also, the sensitivity test shows that TopFull still shows up
//! to 1.52x higher average goodput compared to autoscaler standalone."

use crate::exec;
use crate::models;
use crate::report::{f1, ratio, Report};
use crate::scenarios::{boutique_users, Roster};
use cluster::RateSchedule;
use simnet::SimTime;

const RUN_SECS: u64 = 220;
const SURGE_AT: u64 = 20;
const SURGE_END: u64 = 180; // the paper's surge "lasted 160 seconds"

pub fn run() -> Report {
    let mut r = Report::new(
        "fig19",
        "Average goodput vs VM startup time (Online Boutique)",
    );
    let policy = models::policy_for("online-boutique");
    let users = RateSchedule::surge(
        400.0,
        4000.0,
        SimTime::from_secs(SURGE_AT),
        SimTime::from_secs(SURGE_END),
    );
    let startups = [20u64, 40, 60];
    let arms = startups.iter().flat_map(|&startup| {
        // A tight VM pool (one initial VM) so scaling must wait for new
        // VMs, `startup` seconds each.
        let recipe = boutique_users(users.clone(), 19)
            .pod_startup(20)
            .autoscaled(1, startup);
        [Roster::None, Roster::TopFull(policy.clone())]
            .map(|roster| (roster.label(), roster, recipe.clone()))
    });
    let out: Vec<f64> = exec::run_arms(arms, RUN_SECS)
        .iter()
        .map(|o| {
            o.result
                .mean_total_goodput(SURGE_AT as f64, SURGE_END as f64)
        })
        .collect();
    let mut rows = Vec::new();
    let mut best_gain: f64 = 0.0;
    let mut solo_by_startup = Vec::new();
    for (&startup, pair) in startups.iter().zip(out.chunks(2)) {
        let (solo, tf) = (pair[0], pair[1]);
        best_gain = best_gain.max(if solo > 0.0 { tf / solo } else { 0.0 });
        solo_by_startup.push(solo);
        rows.push(vec![
            format!("{startup}s"),
            f1(solo),
            f1(tf),
            ratio(tf, solo),
        ]);
    }
    r.table(
        "avg goodput (rps) during surge",
        &["vm startup", "autoscaler-solo", "topfull", "gain"],
        rows,
    );
    r.compare(
        "max TopFull gain across startup times",
        "up to 1.52x",
        format!("{best_gain:.2}x"),
        "",
    );
    let monotone = solo_by_startup.windows(2).all(|w| w[0] >= w[1] * 0.95);
    r.compare(
        "goodput improves with faster VM startup",
        "yes",
        if monotone { "yes" } else { "no" },
        "",
    );
    r
}
