//! Gray-failure chaos: hardened vs unhardened control under a fault
//! schedule the paper's testbed never threw at TopFull.
//!
//! The schedule layers the fault plane's gray failures over a steady
//! Online Boutique workload: a slow-pod brownout of the product catalog,
//! a total telemetry dropout, multiplicative metric noise, a controller
//! stall, and stale observations. The *hardened* stack (safe-fallback
//! rate controller + harness watchdog) must shed load during the
//! brownout, hold limits steady while blind, and recover goodput once
//! the faults clear; the *unhardened* stack — the paper-faithful loop —
//! is the baseline showing what the robustness layer buys.

use crate::exec::{self, ArmOutcome, Of};
use crate::report::{f1, ratio, Report};
use crate::scenarios::{Recipe, Roster};
use apps::OnlineBoutique;
use cluster::{FaultSpec, RateSchedule};
use simnet::{SimDuration, SimTime};
use topfull::TopFullConfig;

const RUN_SECS: u64 = 240;
/// Faults are active inside [40, 130); measurement windows around them.
const PRE_FAULT: (f64, f64) = (20.0, 40.0);
const DURING_FAULT: (f64, f64) = (45.0, 130.0);
const POST_FAULT: (f64, f64) = (200.0, 240.0);

/// The chaos schedule: overlapping gray failures (see module docs).
fn fault_schedule(ob: &OnlineBoutique) -> Vec<FaultSpec> {
    vec![
        FaultSpec::SlowPods {
            from: SimTime::from_secs(40),
            until: SimTime::from_secs(70),
            service: ob.productcatalog,
            factor: 8.0,
        },
        FaultSpec::TelemetryDropout {
            from: SimTime::from_secs(60),
            until: SimTime::from_secs(90),
            service: None,
        },
        FaultSpec::TelemetryNoise {
            from: SimTime::from_secs(90),
            until: SimTime::from_secs(110),
            sigma: 0.5,
        },
        FaultSpec::ControllerStall {
            from: SimTime::from_secs(100),
            until: SimTime::from_secs(112),
        },
        FaultSpec::TelemetryStaleness {
            from: SimTime::from_secs(115),
            until: SimTime::from_secs(130),
            by: SimDuration::from_secs(10),
        },
    ]
}

/// Steady workload kept just under the boutique's crash-loop line so the
/// faults — not the baseline — create the overload.
pub fn recipe(seed: u64) -> Recipe {
    let ob = OnlineBoutique::build();
    let rates = vec![
        (
            ob.getproduct,
            RateSchedule::steps(vec![
                (SimTime::ZERO, 150.0),
                (SimTime::from_secs(15), 300.0),
            ]),
        ),
        (ob.getcart, RateSchedule::constant(100.0)),
        (ob.postcheckout, RateSchedule::constant(60.0)),
    ];
    let faults = fault_schedule(&ob);
    Recipe::open_loop(&ob.topology, rates, seed)
        .then(move |engine| engine.inject_faults(faults.clone()))
}

pub fn run() -> Report {
    let mut r = Report::new(
        "chaos",
        "Gray-failure chaos: hardened vs unhardened control loop",
    );
    // The paper-faithful loop against the safe-fallback rate controller
    // under the harness watchdog.
    let mimd = TopFullConfig::default().with_mimd();
    let hardened = mimd.clone().hardened().with_rate_bounds(1.0, 10_000.0);
    let recipe = recipe(11);
    let arms = [
        ("unhardened", Roster::Config(mimd), recipe.clone()),
        ("hardened", Roster::Watchdog(hardened), recipe),
    ];
    let mut runs = exec::run_arms(arms, RUN_SECS);
    let hard = runs.pop().expect("two runs");
    let plain = runs.pop().expect("two runs");
    let mean = |o: &ArmOutcome, window| Of::Total.mean(&o.result, window);
    let during = |o| mean(o, DURING_FAULT);
    let recovery = |o| mean(o, POST_FAULT) / mean(o, PRE_FAULT).max(1e-9);
    r.series("unhardened", Of::Total.series(&plain.result));
    r.series("hardened", Of::Total.series(&hard.result));
    let row = |stack: &str, o| {
        vec![
            stack.to_string(),
            f1(mean(o, PRE_FAULT)),
            f1(mean(o, DURING_FAULT)),
            f1(mean(o, POST_FAULT)),
            f1(recovery(o)),
        ]
    };
    r.table(
        "total goodput (rps) around the fault window",
        &["stack", "pre-fault", "during", "post-fault", "post/pre"],
        vec![row("unhardened", &plain), row("hardened", &hard)],
    );
    r.table(
        "hardened watchdog activity (control ticks)",
        &["stalled", "frozen", "decayed"],
        vec![vec![
            hard.watchdog.stalled_ticks.to_string(),
            hard.watchdog.frozen_ticks.to_string(),
            hard.watchdog.decayed_ticks.to_string(),
        ]],
    );
    r.compare(
        "hardened post-fault recovery",
        "≥0.9 of pre-fault",
        f1(recovery(&hard)),
        "",
    );
    r.compare(
        "unhardened post-fault recovery",
        "reported",
        f1(recovery(&plain)),
        "",
    );
    r.note(format!(
        "during faults: hardened {} rps vs unhardened {} rps ({}) — the \
         watchdog freezes then decays limits while telemetry is dark, \
         trading fault-window throughput for finite bounded limits, a \
         stall-proof loop, and a ramped re-entry",
        f1(during(&hard)),
        f1(during(&plain)),
        ratio(during(&hard), during(&plain)),
    ));
    // The hardened arm's decision journal: every detector transition,
    // re-clustering, rate action, fallback strike and watchdog event —
    // `topfull explain artifacts/results/chaos.json` renders it.
    r.journal(hard.result.journal);
    r
}
