//! Figure 18: adaptation to temporary pod failures.
//!
//! "We delete 25 pods among 35 pods of ts-station microservice at time
//! 50s. Then, Kubernetes automatically starts scaling 25 pods … Without
//! TopFull, microservices serve almost zero goodput until the failures
//! are recovered even though 10 ts-station pods are alive. On the
//! contrary, TopFull detects overload in ts-station and starts load
//! control on APIs that pass ts-station microservice, guaranteeing
//! goodput that can be achieved with 10 ts-station pods."

use crate::exec::{arm, Figure, Of};
use crate::models;
use crate::report::{f1, ratio, Report};
use crate::scenarios::{constant, Recipe, Roster};
use apps::TrainTicket;
use cluster::FaultSpec;
use simnet::SimTime;

const RUN_SECS: u64 = 220;
const KILL_AT: u64 = 50;
/// Replacement pods take this long to come back (models image pull +
/// scheduling at scale; the degraded window of the paper's Figure 18).
const POD_STARTUP: u64 = 90;
/// The failure window the figure measures.
const WINDOW: (f64, f64) = ((KILL_AT + 10) as f64, (KILL_AT + POD_STARTUP) as f64);

pub fn recipe(seed: u64) -> Recipe {
    let mut tt = TrainTicket::build();
    // The paper's deployment runs ts-station at 35 pods and the workload
    // keeps it near capacity, so losing 25 pods is a 70% capacity cut.
    // Slower pods (0.1×) put 35 of them at ≈86% utilization under this
    // workload, matching that regime.
    tt.topology.service_mut(tt.station).replicas = 35;
    tt.topology.service_mut(tt.station).pod_speed = 0.1;
    let kill = FaultSpec::PodKill {
        at: SimTime::from_secs(KILL_AT),
        service: tt.station,
        pods: 25,
    };
    Recipe::open_loop(&tt.topology, constant(&tt.apis(), 600.0), seed)
        .pod_startup(POD_STARTUP)
        .then(move |engine| engine.inject_faults(vec![kill]))
}

pub fn run() -> Report {
    let mut r = Report::new(
        "fig18",
        "Adaptation toward temporary pod failures (ts-station)",
    );
    let policy = models::policy_for("train-ticket");
    let runs = Figure {
        recipe: recipe(18),
        arms: vec![
            ("no-topfull", Roster::None),
            ("topfull", Roster::TopFull(policy)),
        ],
        secs: RUN_SECS,
        window: WINDOW,
        table: (
            "goodput during the failure window (rps)",
            "controller",
            vec![("goodput", Of::Total)],
        ),
        timelines: vec![
            ("no topfull", "no-topfull", Of::Total),
            ("topfull", "topfull", Of::Total),
        ],
    }
    .run(&mut r);
    let during = |l| Of::Total.mean(&arm(&runs, l).result, WINDOW);
    r.compare(
        "without TopFull during failures",
        "almost zero goodput",
        f1(during("no-topfull")),
        "rps",
    );
    r.compare(
        "TopFull during failures",
        "≈10/35 of pre-failure capacity",
        f1(during("topfull")),
        "rps",
    );
    r.compare(
        "TopFull / no-TopFull during failures",
        ">>1x",
        ratio(during("topfull"), during("no-topfull")),
        "",
    );
    r
}
