//! Figure 12: load-control timeline of API 1 (Post Checkout) and API 2
//! (Get Product).
//!
//! "In local overload at Product microservice, DAGOR prioritizes business
//! logic and sheds all the lower business priority API that passes
//! Product microservice. On the other hand, TopFull manages the load
//! between API 1 and API 2. … when resolving overload at Checkout
//! microservice, API 1 is rate-limited. In response, TopFull re-increases
//! the rate-limit of API 2 to fully utilize the Product microservice."

use crate::exec::{arm, Figure, Of};
use crate::models;
use crate::report::{f1, Report};
use crate::scenarios::{Recipe, Roster};
use apps::OnlineBoutique;
use cluster::RateSchedule;
use rl::policy::PolicyValue;
use simnet::SimTime;

const RUN_SECS: u64 = 120;
const SURGE_AT: u64 = 10;
const MEASURE_FROM: f64 = 40.0;

/// Fig. 4's overload (`scenarios/paper/fig04.json`): Get Product and
/// Post Checkout step up together at `SURGE_AT`, overloading
/// Recommendation and Checkout.
pub fn recipe(ob: &OnlineBoutique, seed: u64) -> Recipe {
    let step = |base, peak| {
        RateSchedule::steps(vec![
            (SimTime::ZERO, base),
            (SimTime::from_secs(SURGE_AT), peak),
        ])
    };
    let rates = vec![
        (ob.getproduct, step(150.0, 1000.0)),
        (ob.postcheckout, step(100.0, 1200.0)),
    ];
    Recipe::open_loop(&ob.topology, rates, seed)
}

/// Fig. 12 as values; `policy` drives the TopFull arm.
pub fn figure(policy: PolicyValue) -> Figure {
    let ob = OnlineBoutique::build();
    let (gp, pc) = (Of::Api(ob.getproduct), Of::Api(ob.postcheckout));
    Figure {
        // The same overload scenario as Fig. 4 — both APIs share
        // Recommendation and ProductCatalog, Post Checkout additionally
        // owns Checkout — with API 1 ranked above API 2.
        recipe: recipe(&ob, 12).priorities(&[ob.postcheckout, ob.getproduct]),
        arms: vec![
            ("dagor", Roster::Dagor { alpha: 0.05 }),
            ("topfull", Roster::TopFull(policy)),
        ],
        secs: RUN_SECS,
        window: (MEASURE_FROM, RUN_SECS as f64),
        table: (
            "avg goodput (rps)",
            "controller",
            vec![("api1 postcheckout", pc), ("api2 getproduct", gp)],
        ),
        timelines: vec![
            ("topfull api1 postcheckout", "topfull", pc),
            ("topfull api2 getproduct", "topfull", gp),
            ("dagor api1 postcheckout", "dagor", pc),
            ("dagor api2 getproduct", "dagor", gp),
        ],
    }
}

pub fn run() -> Report {
    let mut r = Report::new(
        "fig12",
        "Goodput timeline of API 1 (Post Checkout) and API 2 (Get Product)",
    );
    let ob = OnlineBoutique::build();
    let (gp, pc) = (Of::Api(ob.getproduct), Of::Api(ob.postcheckout));
    let runs = figure(models::policy_for("online-boutique")).run(&mut r);
    // The paper's qualitative claim: under TopFull, API 2 recovers while
    // API 1 is held by the Checkout bottleneck — both stay non-zero
    // late in the run (every sample after t = 60 s).
    let late = |of: Of| {
        let series = of.series(&arm(&runs, "topfull").result);
        let after = series.iter().filter(|(t, _)| *t > 60.0);
        simnet::stats::mean(&after.map(|(_, v)| *v).collect::<Vec<f64>>())
    };
    r.compare(
        "TopFull late-run Get Product goodput",
        "recovers (nonzero)",
        f1(late(gp)),
        "rps",
    );
    r.compare(
        "TopFull late-run Post Checkout goodput",
        "held at Checkout capacity",
        f1(late(pc)),
        "rps",
    );
    r
}
