//! Figure 15: Online Boutique under traffic surge with the autoscaler.
//!
//! "In Online Boutique, TopFull serves 3.91x higher average goodput
//! during a traffic surge compared to the autoscaler solo … and 1.19x …
//! compared to the TopFull(BW). Online Boutique showed significant
//! performance degradation during the traffic surge because
//! Recommendation microservice's pods completely failed at the initial
//! traffic surge. Although the autoscaler provided more Recommendation
//! pods, they kept failing until enough pods are allocated at once."
//! The crash-loop model reproduces that cascade.

use crate::exec::arm;
use crate::experiments::fig14::{self, SURGE_AT, SURGE_END};
use crate::models;
use crate::report::Report;
use crate::scenarios::boutique_users;
use apps::OnlineBoutique;
use cluster::RateSchedule;
use simnet::SimTime;

pub fn run() -> Report {
    let mut r = Report::new(
        "fig15",
        "Online Boutique: performance under traffic surge (with HPA)",
    );
    let policy = models::policy_for("online-boutique");
    // Fig. 14's experiment on the boutique: a user surge that
    // crash-loops Recommendation without overload control, under the
    // HPA on one initial VM.
    let users = RateSchedule::surge(
        400.0,
        8000.0,
        SimTime::from_secs(SURGE_AT),
        SimTime::from_secs(SURGE_END),
    );
    let recipe = boutique_users(users, 15).pod_startup(30).autoscaled(1, 40);
    let apis = OnlineBoutique::build().apis();
    let runs = fig14::figure(recipe, &apis, policy, ["3.91x", "1.19x"]).run(&mut r);
    let crashes = |l| format!("{} crash events", arm(&runs, l).crash_events);
    r.compare(
        "Recommendation crash-loop without control",
        "pods kept failing",
        crashes("autoscaler-solo"),
        "",
    );
    r.compare(
        "crash events under TopFull",
        "none/minimal",
        crashes("topfull"),
        "",
    );
    r
}
