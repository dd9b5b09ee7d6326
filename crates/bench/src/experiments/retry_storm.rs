//! Extension experiment: retry storms (not a paper figure).
//!
//! The paper's introduction lists "retry storm by misbehaving clients"
//! among the overload causes TopFull must handle (§1) but does not
//! evaluate one. This experiment closes that gap: a client population
//! whose failures are retried almost immediately (up to 3 times) turns a
//! moderate overload into a positive feedback loop — every shed request
//! comes back multiplied. An entry-point controller breaks the loop by
//! rejecting excess load *before* it costs anything, keeping latency low
//! so fewer requests fail in the first place.

use crate::exec::{ArmOutcome, Figure, Of, Ratio};
use crate::models;
use crate::report::Report;
use crate::scenarios::{Recipe, Roster};
use apps::OnlineBoutique;

const RUN_SECS: u64 = 150;
const MEASURE_FROM: f64 = 30.0;
const USERS: u32 = 2600;

/// Offered amplification: mean offered rate vs the nominal user rate.
fn amplification(o: &ArmOutcome) -> String {
    let offered = |s: &cluster::harness::TickSample| s.offered.iter().sum();
    let mean = o.result.mean_over(MEASURE_FROM, RUN_SECS as f64, offered);
    format!("{:.2}x", mean / f64::from(USERS))
}

pub fn run() -> Report {
    let mut r = Report::new(
        "retry_storm",
        "Extension: retry storm by misbehaving clients (§1 motivation)",
    );
    let policy = models::policy_for("online-boutique");
    let ob = OnlineBoutique::build();
    Figure {
        // Misbehaving clients: 3 near-immediate retries per failed call.
        recipe: Recipe::retry_storm(&ob.topology, &ob.apis(), USERS, (3, false), 23),
        arms: vec![
            ("no-control", Roster::None),
            ("dagor", Roster::Dagor { alpha: 0.05 }),
            ("topfull", Roster::TopFull(policy)),
        ],
        secs: RUN_SECS,
        window: (MEASURE_FROM, RUN_SECS as f64),
        table: (
            "goodput and offered-load amplification under retries",
            "controller",
            vec![("goodput (rps)", Of::Total)],
        ),
        extra: vec![("offered ÷ nominal", amplification)],
        ratios: vec![Ratio {
            label: "TopFull / no-control goodput under retry storm",
            paper: ">1x (extension; no paper value)",
            num: "topfull",
            den: "no-control",
            of: Of::Total,
        }],
        timelines: vec![],
    }
    .run(&mut r);
    r.note(
        "per-service shedding feeds the storm: every request DAGOR drops \
         is retried up to 3 times, re-consuming upstream capacity; \
         entry-point rejection is amplification-neutral",
    );
    r
}
