//! Figure 16: resource saving under traffic spikes.
//!
//! "We show the potential resource saving of TopFull by comparing the
//! performance … with and without TopFull while varying the degree of
//! overprovisioning for critical microservices. For the traffic spikes,
//! we generate a temporary load increase that lasts for two minutes. …
//! In Train Ticket, TopFull shows the same or higher average goodput
//! with up to 50% fewer vCPUs … \[and\] 2.98x higher average goodput …
//! when 5 vCPUs allocated. In Online Boutique, … up to 57% fewer vCPUs
//! … \[and\] 12.96x higher … when 15 vCPUs allocated."
//!
//! One vCPU = one pod in the simulator, so "allocated vCPUs" is the
//! total pod count pre-provisioned across the app's critical services.

use crate::exec;
use crate::models;
use crate::report::{f1, ratio, Report};
use crate::scenarios::{boutique_users, Recipe, Roster};
use apps::{OnlineBoutique, TrainTicket};
use cluster::RateSchedule;
use rl::policy::PolicyValue;
use simnet::SimTime;

const RUN_SECS: u64 = 180;
const SPIKE_AT: u64 = 20;
const SPIKE_END: u64 = 140; // two-minute spike
const SEED: u64 = 16;

fn spike(base: f64, peak: f64) -> RateSchedule {
    let (from, until) = (SimTime::from_secs(SPIKE_AT), SimTime::from_secs(SPIKE_END));
    RateSchedule::surge(base, peak, from, until)
}

/// Train Ticket with `vcpus` pods split across its critical services.
pub fn tt_recipe(vcpus: u32) -> Recipe {
    let tt = TrainTicket::build();
    let critical = [tt.travel, tt.ticketinfo, tt.basic, tt.station, tt.seat];
    let rates = tt.apis().iter().map(|a| (*a, spike(80.0, 450.0))).collect();
    Recipe::open_loop(&tt.topology, rates, SEED).provisioned(&critical, vcpus)
}

/// Online Boutique with `vcpus` pods split across its critical services.
pub fn ob_recipe(vcpus: u32) -> Recipe {
    let ob = OnlineBoutique::build();
    let critical = [
        ob.recommendation,
        ob.checkout,
        ob.productcatalog,
        ob.cart,
        ob.frontend,
    ];
    boutique_users(spike(300.0, 3000.0), SEED).provisioned(&critical, vcpus)
}

/// `(vcpus, without, with)` goodput rows for one app. Both arms of
/// every allocation point run through the worker pool; the paired
/// results are reassembled in vCPU order.
fn sweep(mk: fn(u32) -> Recipe, vcpus: &[u32], policy: PolicyValue) -> Vec<(u32, f64, f64)> {
    let pair = |&v: &u32| {
        [Roster::None, Roster::TopFull(policy.clone())]
            .map(|roster| (roster.label(), roster, mk(v)))
    };
    let runs = exec::run_arms(vcpus.iter().flat_map(pair), RUN_SECS);
    let goodput = |o: &exec::ArmOutcome| {
        o.result
            .mean_total_goodput(SPIKE_AT as f64, SPIKE_END as f64)
    };
    let pairs = vcpus.iter().zip(runs.chunks(2));
    pairs
        .map(|(&v, p)| (v, goodput(&p[0]), goodput(&p[1])))
        .collect()
}

/// Resource saving: the smallest vCPU count where TopFull matches the
/// best no-TopFull goodput achieved at any higher vCPU count.
fn saving(rows: &[(u32, f64, f64)]) -> Option<f64> {
    for &(v_with, _, with) in rows {
        for &(v_without, without, _) in rows.iter().rev() {
            if v_without > v_with && with >= without * 0.98 {
                return Some(1.0 - f64::from(v_with) / f64::from(v_without));
            }
        }
    }
    None
}

pub fn run() -> Report {
    let mut r = Report::new(
        "fig16",
        "Average goodput vs pre-allocated vCPUs under spikes",
    );
    let tt_policy = models::policy_for("train-ticket");
    let ob_policy = models::policy_for("online-boutique");
    let tt_rows = sweep(tt_recipe, &[5, 10, 15, 20, 30, 40], tt_policy);
    let ob_rows = sweep(ob_recipe, &[10, 15, 25, 35, 50], ob_policy);
    for (name, rows) in [("train-ticket", &tt_rows), ("online-boutique", &ob_rows)] {
        r.table(
            &format!("{name}: goodput vs allocated vCPUs"),
            &["vcpus", "without topfull", "with topfull"],
            rows.iter()
                .map(|(v, wo, w)| vec![v.to_string(), f1(*wo), f1(*w)])
                .collect(),
        );
    }
    let tt_low = tt_rows[0];
    r.compare(
        "Train Ticket gain at 5 vCPUs (with/without)",
        "2.98x",
        ratio(tt_low.2, tt_low.1),
        "",
    );
    // The paper's 12.96x appears at its most constrained allocation
    // (15 of their vCPU units); ours is the 10-pod point.
    let ob_low = ob_rows[0];
    r.compare(
        "Online Boutique gain at the scarcest allocation",
        "12.96x (at 15 vCPUs)",
        format!("{} (at {} vCPUs)", ratio(ob_low.2, ob_low.1), ob_low.0),
        "",
    );
    for (app, rows, paper) in [
        ("Train Ticket", &tt_rows, "up to 50%"),
        ("Online Boutique", &ob_rows, "up to 57%"),
    ] {
        if let Some(s) = saving(rows) {
            r.compare(
                format!("{app} vCPU saving at equal goodput"),
                paper,
                format!("{:.0}%", s * 100.0),
                "",
            );
        }
    }
    r
}
