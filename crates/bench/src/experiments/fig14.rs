//! Figure 14: Train Ticket under traffic surge with the autoscaler.
//!
//! "TopFull with the autoscaler achieves a higher average goodput at
//! every APIs compared to the standalone autoscaler and TopFull(BW) …
//! In Train Ticket, TopFull serves 1.38x higher average goodput during
//! traffic surge compared to the autoscaler solo while using the same
//! number of vCPUs. TopFull also serves 1.75x … compared to the
//! TopFull(BW)."

use crate::exec::{Figure, Of, Ratio};
use crate::models;
use crate::report::Report;
use crate::scenarios::{Recipe, Roster};
use apps::TrainTicket;
use cluster::{ApiId, RateSchedule};
use rl::policy::PolicyValue;
use simnet::SimTime;

pub const RUN_SECS: u64 = 240;
pub const SURGE_AT: u64 = 20;
pub const SURGE_END: u64 = 200;
/// Means are taken over the surge.
pub const WINDOW: (f64, f64) = (SURGE_AT as f64, SURGE_END as f64);

/// Train Ticket with HPA and a surge on all six APIs.
pub fn recipe(seed: u64) -> Recipe {
    let tt = TrainTicket::build();
    let surge = RateSchedule::surge(
        120.0,
        1400.0,
        SimTime::from_secs(SURGE_AT),
        SimTime::from_secs(SURGE_END),
    );
    let rates = tt.apis().iter().map(|a| (*a, surge.clone())).collect();
    // Scheduling + image pull at scale: new pods take 30 s. A finite
    // node pool: scaling beyond the three initial VMs waits 40 s for
    // cluster-autoscaler provisioning (the timescale gap of §1).
    Recipe::open_loop(&tt.topology, rates, seed)
        .pod_startup(30)
        .autoscaled(3, 40)
}

/// Figs. 14 and 15 as values: `recipe` under the autoscaler alone, with
/// TopFull(BW) and with TopFull — goodput per API and in total over the
/// surge, each arm's total timeline, and the two ratios the paper
/// reports (`paper`: TopFull over the autoscaler, over TopFull(BW)).
pub fn figure(
    recipe: Recipe,
    apis: &[ApiId],
    policy: PolicyValue,
    paper: [&'static str; 2],
) -> Figure {
    let names = ["api1", "api2", "api3", "api4", "api5", "api6"];
    let mut columns: Vec<_> = names
        .into_iter()
        .zip(apis.iter().map(|a| Of::Api(*a)))
        .collect();
    columns.push(("total", Of::Total));
    let arms = vec![
        ("autoscaler-solo", Roster::None),
        ("topfull-bw", Roster::TopFullBw),
        ("topfull", Roster::TopFull(policy)),
    ];
    Figure {
        recipe,
        timelines: arms.iter().map(|(l, _)| (*l, *l, Of::Total)).collect(),
        arms,
        secs: RUN_SECS,
        window: WINDOW,
        table: ("avg goodput (rps) during surge", "controller", columns),
        ratios: vec![
            Ratio {
                label: "TopFull / autoscaler-solo",
                paper: paper[0],
                num: "topfull",
                den: "autoscaler-solo",
                of: Of::Total,
            },
            Ratio {
                label: "TopFull / TopFull(BW)",
                paper: paper[1],
                num: "topfull",
                den: "topfull-bw",
                of: Of::Total,
            },
        ],
    }
}

pub fn run() -> Report {
    let mut r = Report::new(
        "fig14",
        "Train Ticket: performance under traffic surge (with HPA)",
    );
    let policy = models::policy_for("train-ticket");
    let apis = TrainTicket::build().apis();
    figure(recipe(14), &apis, policy, ["1.38x", "1.75x"]).run(&mut r);
    r
}
