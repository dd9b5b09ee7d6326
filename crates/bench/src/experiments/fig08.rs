//! Figure 8: goodput under overload — TopFull vs DAGOR vs Breakwater vs
//! no control on Online Boutique.
//!
//! "The overload is generated from 2600 Locust users invoking 1 request
//! per second. … TopFull outperforms DAGOR by 1.82x and Breakwater by
//! 2.26x on total average goodput under overload." Breakwater carries no
//! business priorities here ("we regarded all APIs as having the same
//! business priority"), so every controller runs with uniform priorities.

use crate::exec::{Figure, Of, Ratio};
use crate::models;
use crate::report::Report;
use crate::scenarios::{boutique_users, Recipe, Roster};
use apps::OnlineBoutique;
use cluster::RateSchedule;
use rl::policy::PolicyValue;

pub const USERS: u32 = 2600;
pub const RUN_SECS: u64 = 120;
pub const MEASURE_FROM: f64 = 30.0;

/// `users` closed-loop users at uniform business priorities.
pub fn recipe(users: u32, seed: u64) -> Recipe {
    boutique_users(RateSchedule::constant(f64::from(users)), seed).uniform_priorities()
}

/// Fig. 8 as values; `policy` drives the TopFull arm.
pub fn figure(policy: PolicyValue) -> Figure {
    let ob = OnlineBoutique::build();
    Figure {
        recipe: recipe(USERS, 42),
        arms: vec![
            ("no-control", Roster::None),
            ("breakwater", Roster::Breakwater),
            ("wisp", Roster::Wisp),
            ("dagor", Roster::Dagor { alpha: 0.05 }),
            ("topfull", Roster::TopFull(policy)),
        ],
        secs: RUN_SECS,
        window: (MEASURE_FROM, RUN_SECS as f64),
        table: (
            "avg goodput (rps) per API and total",
            "controller",
            vec![
                ("api1 postcheckout", Of::Api(ob.postcheckout)),
                ("api2 getproduct", Of::Api(ob.getproduct)),
                ("api3 getcart", Of::Api(ob.getcart)),
                ("api4 postcart", Of::Api(ob.postcart)),
                ("api5 emptycart", Of::Api(ob.emptycart)),
                ("total", Of::Total),
            ],
        ),
        extra: vec![],
        ratios: vec![
            Ratio {
                label: "TopFull / DAGOR total goodput",
                paper: "1.82x",
                num: "topfull",
                den: "dagor",
                of: Of::Total,
            },
            Ratio {
                label: "TopFull / Breakwater total goodput",
                paper: "2.26x",
                num: "topfull",
                den: "breakwater",
                of: Of::Total,
            },
            Ratio {
                label: "TopFull / no-control total goodput",
                paper: ">1x",
                num: "topfull",
                den: "no-control",
                of: Of::Total,
            },
            Ratio {
                label: "TopFull / WISP total goodput (extension; WISP not in paper eval)",
                paper: ">1x expected (§7 analysis)",
                num: "topfull",
                den: "wisp",
                of: Of::Total,
            },
        ],
        timelines: vec![],
    }
}

pub fn run() -> Report {
    let mut r = Report::new(
        "fig08",
        "Goodput under overload (Online Boutique, 2600 users)",
    );
    figure(models::policy_for("online-boutique")).run(&mut r);
    r
}
