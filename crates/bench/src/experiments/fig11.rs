//! Figure 11: per-API goodput with business priorities, DAGOR vs TopFull.
//!
//! "Among API 1, API 2, API 3, and API 4, the former APIs are assigned a
//! higher business priority than the latter APIs. … TopFull achieves
//! 2.60x higher goodput on average. With DAGOR, we observe that APIs with
//! lower business priority experience severe starvation. … TopFull serves
//! 1.58x more requests for API 1 …, 7.55x more for API 2 …, \[and\] 22.45x
//! more [for API 4]."

use crate::exec::{arm, Figure, Of};
use crate::models;
use crate::report::{ratio, Report};
use crate::scenarios::{Recipe, Roster};
use apps::OnlineBoutique;
use cluster::RateSchedule;

const RUN_SECS: u64 = 120;
const MEASURE_FROM: f64 = 40.0;

pub fn run() -> Report {
    let mut r = Report::new(
        "fig11",
        "Per-API goodput with business priorities (DAGOR vs TopFull)",
    );
    let policy = models::policy_for("online-boutique");
    let ob = OnlineBoutique::build();
    // Overload APIs 1–4 simultaneously with explicit business
    // priorities API1 > API2 > API3 > API4 (the paper assigns them for
    // this experiment).
    let ranked = [ob.postcheckout, ob.getproduct, ob.getcart, ob.postcart];
    let rates = [900.0, 700.0, 700.0, 700.0].map(RateSchedule::constant);
    let offered = ranked.into_iter().zip(rates).collect();
    let api = |i: usize| Of::Api(ranked[i]);
    let window = (MEASURE_FROM, RUN_SECS as f64);
    let runs = Figure {
        recipe: Recipe::open_loop(&ob.topology, offered, 11).priorities(&ranked),
        arms: vec![
            ("dagor", Roster::Dagor { alpha: 0.05 }),
            ("topfull", Roster::TopFull(policy)),
        ],
        secs: RUN_SECS,
        window,
        table: (
            "avg goodput (rps); API1 highest priority",
            "controller",
            vec![
                ("api1", api(0)),
                ("api2", api(1)),
                ("api3", api(2)),
                ("api4", api(3)),
            ],
        ),
        timelines: vec![],
    }
    .run(&mut r);
    let means = |l| ranked.map(|a| Of::Api(a).mean(&arm(&runs, l).result, window));
    let (tf, dagor) = (means("topfull"), means("dagor"));
    let avg = |m: [f64; 4]| m.iter().sum::<f64>() / 4.0;
    r.compare(
        "TopFull / DAGOR average goodput",
        "2.60x",
        ratio(avg(tf), avg(dagor)),
        "",
    );
    for (label, paper, i) in [
        ("API 1 (highest priority)", "1.58x", 0),
        ("API 2", "7.55x", 1),
        ("API 4 (lowest priority)", "22.45x", 3),
    ] {
        r.compare(label, paper, ratio(tf[i], dagor[i]), "");
    }
    r.note(
        "shape to hold: DAGOR starves low-priority APIs almost completely; \
         TopFull keeps them alive while preserving high-priority goodput",
    );
    r
}
