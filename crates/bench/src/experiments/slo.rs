//! Extension experiment: the SLO burn-rate alert as a *leading*
//! indicator of goodput collapse under flash-crowd waves (not a paper
//! figure; `figures slo`).
//!
//! The scenario is a two-wave flash crowd on Online Boutique's Get
//! Product API. A short precursor wave (700 rps for 4 s against the
//! recommendation bottleneck's ≈500 rps) overflows the bounded queue:
//! a slice of requests fails while *served* goodput barely moves — the
//! classic window where point-in-time dashboards look healthy. Those
//! failures spend error budget, so the multi-window burn-rate monitor
//! pages during the precursor. The full crowd lands 15 s later, pins
//! the queue past the liveness-probe saturation threshold, crash-loops
//! the service, and collapses goodput for the rest of the run.
//!
//! The claims under test:
//! * in the uncontrolled arm, the first page-severity `SloBurn` journal
//!   entry precedes the sustained goodput collapse by ≥2 control ticks
//!   — the alert is actionable *before* the outage;
//! * a TopFull arm fed the same waves sheds at the entry point
//!   (rejected requests spend no budget), keeps the bottleneck below
//!   its crash threshold, and sustains crowd-phase goodput the
//!   uncontrolled arm loses. The arm uses the aggressive end of the
//!   Fig. 13 MIMD step sweep (0.5 decrease): the crowd is a 5×
//!   overshoot and the crash loop fires after 6 saturated probes, so
//!   the paper-default 0.05 step cannot clamp inside the window.

use crate::report::{f1, ratio, Report};
use crate::scenarios::{constant, Recipe, Roster};
use apps::OnlineBoutique;
use cluster::runner::RunPlan;
use cluster::RateSchedule;
use simnet::SimTime;
use topfull::TopFullConfig;

const RUN_SECS: u64 = 40;
const BASELINE_RPS: f64 = 120.0;
/// Precursor wave: above the ≈500 rps recommendation capacity but too
/// brief to trip the 6-probe crash loop.
const PRECURSOR_AT: u64 = 10;
const PRECURSOR_END: u64 = 14;
const PRECURSOR_RPS: f64 = 700.0;
/// Full crowd: pins the bounded queue until the liveness probes crash
/// the service.
const CROWD_AT: u64 = 25;
const CROWD_RPS: f64 = 2600.0;
const SEED: u64 = 31;
/// Collapse = goodput sustained below this fraction of the pre-wave
/// baseline through the end of the run.
const COLLAPSE_FRACTION: f64 = 0.6;

/// One arm's instrumented run.
struct ArmRun {
    goodput: Vec<(f64, f64)>,
    fast_burn: Vec<(f64, f64)>,
    journal: Vec<obs::JournalEntry>,
    budget_remaining: f64,
    crowd_goodput: f64,
}

/// The two-wave flash crowd on Get Product over a steady background.
pub fn recipe(ob: &OnlineBoutique) -> Recipe {
    let waves = RateSchedule::steps(vec![
        (SimTime::ZERO, BASELINE_RPS),
        (SimTime::from_secs(PRECURSOR_AT), PRECURSOR_RPS),
        (SimTime::from_secs(PRECURSOR_END), BASELINE_RPS),
        (SimTime::from_secs(CROWD_AT), CROWD_RPS),
    ]);
    let mut rates = vec![
        (ob.getproduct, waves),
        (ob.postcheckout, RateSchedule::constant(BASELINE_RPS)),
    ];
    rates.extend(constant(&[ob.getcart, ob.postcart, ob.emptycart], 200.0));
    Recipe::open_loop(&ob.topology, rates, SEED)
}

/// One arm, stepped tick by tick so the burn-rate series can be probed
/// as it evolves (the harness feeds the monitor at each control tick) —
/// the one run in this crate `exec` cannot make.
fn burn_probe(roster: Roster) -> ArmRun {
    let ob = OnlineBoutique::build();
    let gp = ob.getproduct;
    let mut h = roster.into_harness(recipe(&ob).engine());
    let mut fast_burn = Vec::new();
    for t in 1..=RUN_SECS {
        h.run_until(SimTime::from_secs(t));
        let sig = h.slo_monitor().signal(gp.idx(), t as f64);
        fast_burn.push((t as f64, sig.as_ref().map(|s| s.fast_burn).unwrap_or(0.0)));
    }
    let budget_remaining = h
        .slo_monitor()
        .signal(gp.idx(), RUN_SECS as f64)
        .map(|s| s.budget_remaining)
        .unwrap_or(1.0);
    let goodput = h.result().goodput_series(gp);
    let crowd_goodput = h
        .result()
        .mean_goodput_api(gp, CROWD_AT as f64 + 3.0, RUN_SECS as f64);
    ArmRun {
        goodput,
        fast_burn,
        journal: h.journal().snapshot(),
        budget_remaining,
        crowd_goodput,
    }
}

/// Times of the page-severity `SloBurn` journal entries.
fn page_times(journal: &[obs::JournalEntry]) -> Vec<f64> {
    let page = |e: &obs::JournalEntry| match e {
        obs::JournalEntry::SloBurn { t, to, .. } if to == "page" => Some(*t),
        _ => None,
    };
    journal.iter().filter_map(page).collect()
}

/// First tick after which goodput stays below `threshold` through the
/// end of the run (a transient dip that recovers is not a collapse).
fn sustained_collapse(series: &[(f64, f64)], threshold: f64) -> Option<f64> {
    let mut collapse = None;
    for &(t, v) in series {
        if v < threshold {
            collapse.get_or_insert(t);
        } else {
            collapse = None;
        }
    }
    collapse
}

pub fn run() -> Report {
    let mut r = Report::new(
        "slo",
        "Extension: burn-rate page leads flash-crowd goodput collapse",
    );
    // No control, and TopFull with fast MIMD steps (see the module docs).
    let fast = TopFullConfig::default().with_mimd_steps(0.5, 0.2);
    let arms = [
        ("no-control", Roster::None),
        ("topfull-mimd(0.5)", Roster::Config(fast)),
    ];
    let mut plan = RunPlan::new();
    for (label, roster) in arms {
        plan.submit(move || (label, burn_probe(roster)));
    }
    let mut results = plan.run();
    let topfull = results.pop().expect("topfull arm");
    let uncontrolled = results.pop().expect("no-control arm");

    let baseline = {
        let pre: Vec<f64> = uncontrolled
            .1
            .goodput
            .iter()
            .filter(|(t, _)| (3.0..PRECURSOR_AT as f64).contains(t))
            .map(|(_, v)| *v)
            .collect();
        simnet::stats::mean(&pre)
    };
    let threshold = COLLAPSE_FRACTION * baseline;
    let page_t = page_times(&uncontrolled.1.journal)
        .into_iter()
        .reduce(f64::min);
    let collapse_t = sustained_collapse(&uncontrolled.1.goodput, threshold);
    let lead = match (page_t, collapse_t) {
        (Some(p), Some(c)) => c - p,
        _ => f64::NAN,
    };

    r.compare(
        "uncontrolled: page lead over collapse (ticks)",
        "≥2 (alert fires before the outage)",
        f1(lead),
        "s",
    );
    r.compare(
        "uncontrolled: first page-severity SloBurn",
        format!("≈{PRECURSOR_AT}–{PRECURSOR_END} (precursor wave)"),
        page_t.map(f1).unwrap_or_else(|| "never".into()),
        "s",
    );
    r.compare(
        "uncontrolled: sustained goodput collapse",
        format!("≥{CROWD_AT} (full crowd)"),
        collapse_t.map(f1).unwrap_or_else(|| "never".into()),
        "s",
    );
    r.compare(
        "topfull ÷ uncontrolled crowd-phase goodput",
        ">1x (entry shedding averts the crash loop)",
        ratio(
            topfull.1.crowd_goodput,
            uncontrolled.1.crowd_goodput.max(1.0),
        ),
        "",
    );

    let mut rows = Vec::new();
    for (label, arm) in [(uncontrolled.0, &uncontrolled.1), (topfull.0, &topfull.1)] {
        rows.push(vec![
            label.into(),
            f1(arm.crowd_goodput),
            format!("{:.3}", arm.budget_remaining),
            page_times(&arm.journal).len().to_string(),
        ]);
    }
    r.table(
        "getproduct by arm",
        &[
            "arm",
            "crowd goodput (rps)",
            "budget remaining",
            "page entries",
        ],
        rows,
    );

    r.series("no-control getproduct goodput", uncontrolled.1.goodput);
    r.series("no-control getproduct fast-burn", uncontrolled.1.fast_burn);
    r.series("topfull getproduct goodput", topfull.1.goodput);
    r.series("topfull getproduct fast-burn", topfull.1.fast_burn);

    r.note(format!(
        "collapse = goodput sustained below {COLLAPSE_FRACTION} × the {}-rps pre-wave \
         baseline ({threshold:.0} rps) through the end of the run; the precursor wave's \
         queue-overflow failures spend budget while served goodput holds, which is \
         exactly the gap a point-in-time p99 dashboard misses",
        f1(baseline),
    ));
    r.note(
        "rejected (never-admitted) requests are neither good nor bad: the TopFull arm \
         sheds at the entry point, so its budget stays intact while the uncontrolled \
         arm burns through the run's budget and crash-loops the bottleneck",
    );
    // The uncontrolled arm's journal carries the SloBurn escalations the
    // figure is about; `topfull explain artifacts/results/slo.json`
    // renders them interleaved with the plane's window aggregates.
    r.journal(uncontrolled.1.journal);
    r
}
