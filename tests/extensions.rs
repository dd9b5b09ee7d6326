//! The repository's extension experiments as scenario documents plus
//! claims: retry storm, metastable retry storm, front-door coalescing,
//! TopFull+DAGOR hybrid admission, gray-failure chaos, the SLO
//! burn-rate page as a leading indicator, and the ablation of the three
//! refinements this reproduction adds to Algorithm 1. None is a paper
//! figure — TopFull's §6 has no retry-storm, gray-failure, front-door,
//! error-budget or refinement experiment. Every arm is a committed document under
//! `scenarios/`, or that document with one field changed, run through
//! `topfull_cli::run_scenario` exactly as `topfull run` runs it. Each
//! test prints its arms' numbers, which EXPERIMENTS.md cites:
//!
//! ```text
//! cargo test --release --test extensions -- --nocapture --test-threads 1
//! ```

mod arms;

use arms::{api_goodput, doc, run_arms, variant, window_mean};
use topfull_suite::cluster::RetryBudgetConfig;
use topfull_suite::topfull_cli::schema::{ControllerSpec, DeadlineSpecJson, ResilienceSpec};
use topfull_suite::topfull_cli::schema::{Scenario, WorkloadSpec};
use topfull_suite::topfull_cli::ScenarioOutcome;

fn set_max_retries(sc: &mut Scenario, retries: u32) {
    match &mut sc.workload {
        WorkloadSpec::RetryStorm { max_retries, .. } => *max_retries = retries,
        _ => panic!("{} is not a retry storm", sc.name),
    }
}

/// 2600 closed-loop users whose failures retry up to 3 times after
/// 50 ms (§1's "retry storm by misbehaving clients"): TopFull's entry
/// rejection is amplification-neutral, so it beats no control.
#[test]
fn retry_storm_topfull_beats_no_control() {
    let storm = variant(&doc("retry_storm_dagor"), |sc| set_max_retries(sc, 3));
    let [none, dagor, topfull] = run_arms([
        variant(&storm, |sc| sc.controller = ControllerSpec::None),
        storm.clone(),
        variant(&storm, |sc| {
            sc.controller = ControllerSpec::topfull("rl:artifacts/models/transfer_ob.json");
        }),
    ]);
    println!("retry storm: retry_storm_dagor.json, max_retries 3 — goodput (rps)");
    for (arm, o) in [
        ("no-control", &none),
        ("dagor", &dagor),
        ("topfull", &topfull),
    ] {
        println!("  {arm:<11} {:>7.1}", o.total_goodput);
    }
    let ratio = topfull.total_goodput / none.total_goodput;
    println!("  topfull / no-control {ratio:.2}x");
    assert!(
        ratio > 1.0,
        "TopFull does not beat no control under the storm"
    );
}

/// The retry storm at its worst (up to 100 retries) under TopFull-MIMD
/// and under DAGOR: unbounded retries collapse goodput below the
/// no-retry baseline, and a client retry budget plus deadline
/// propagation with doomed-work cancellation restore at least 90 % of
/// it, with both mechanisms visibly engaged.
#[test]
fn budgeted_retries_with_deadlines_defuse_the_metastable_storm() {
    let storm = doc("retry_storm_dagor");
    let hardened = ResilienceSpec {
        deadlines: Some(DeadlineSpecJson::default()),
        retry_budget: Some(RetryBudgetConfig::default()),
        breakers: None,
    };
    for (stack, controller) in [
        ("topfull-mimd", ControllerSpec::topfull("mimd")),
        ("dagor", storm.controller.clone()),
    ] {
        let unbounded = variant(&storm, |sc| sc.controller = controller);
        let [baseline, unbounded, budgeted] = run_arms([
            variant(&unbounded, |sc| set_max_retries(sc, 0)),
            unbounded.clone(),
            variant(&unbounded, |sc| sc.resilience = Some(hardened.clone())),
        ]);
        let base = baseline.total_goodput;
        println!("metastable storm: retry_storm_dagor.json under {stack} — goodput (rps)");
        println!("  no-retry              {base:>7.1}");
        for (arm, o) in [("unbounded", &unbounded), ("budgeted+deadlines", &budgeted)] {
            let g = o.total_goodput;
            println!("  {arm:<21} {g:>7.1}  ({:.2}x no-retry)", g / base);
        }
        let r = &budgeted.resilience;
        println!(
            "  budgeted+deadlines: {} retries suppressed, {} doomed calls cancelled",
            r.retries_suppressed, r.doomed_cancelled
        );
        assert!(
            unbounded.total_goodput < base,
            "{stack}: unbounded retries did not collapse goodput"
        );
        assert!(
            budgeted.total_goodput >= 0.9 * base,
            "{stack}: budgeted retries + deadlines held under 90 % of no-retry"
        );
        assert!(
            r.retries_suppressed > 0,
            "{stack}: the budget never engaged"
        );
        assert!(
            r.doomed_cancelled > 0,
            "{stack}: nothing doomed was cancelled"
        );
    }
}

/// A read flash crowd over 16 hot keys: single-flight coalescing plus
/// the TTL cache at least double the goodput TopFull gets without it.
#[test]
fn coalescing_at_least_doubles_flash_crowd_goodput() {
    let crowd = doc("read_flash_crowd");
    let [plain, coalescing] = run_arms([variant(&crowd, |sc| sc.admission = None), crowd.clone()]);
    println!("read flash crowd: read_flash_crowd.json — goodput (rps)");
    println!("  no coalescing  {:>7.1}", plain.total_goodput);
    println!("  coalescing     {:>7.1}", coalescing.total_goodput);
    let ratio = coalescing.total_goodput / plain.total_goodput;
    println!("  coalescing / no coalescing {ratio:.1}x");
    assert!(ratio >= 2.0, "coalescing gained only {ratio:.2}x");
}

/// A mixed-priority surge into one backend: the DAGOR-style priority
/// gate in front of TopFull's token buckets holds checkout at least as
/// well as TopFull alone, and the hybrid's journal carries the gate's
/// threshold moves.
#[test]
fn priority_gate_and_topfull_together_hold_checkout() {
    let hybrid = doc("priority_hybrid");
    let [topfull_only, dagor_only, both] = run_arms([
        variant(&hybrid, |sc| sc.admission = None),
        variant(&hybrid, |sc| sc.controller = ControllerSpec::None),
        hybrid.clone(),
    ]);
    println!("priority hybrid: priority_hybrid.json — goodput (rps)");
    println!("  {:<14} {:>8} {:>8}", "arm", "checkout", "browse");
    for (arm, o) in [
        ("topfull-only", &topfull_only),
        ("dagor-only", &dagor_only),
        ("topfull+dagor", &both),
    ] {
        let (checkout, browse) = (api_goodput(o, "checkout"), api_goodput(o, "browse"));
        println!("  {arm:<14} {checkout:>8.1} {browse:>8.1}");
    }
    let moves = (both.journal.iter())
        .filter(|e| matches!(e, obs::JournalEntry::PriorityThreshold { .. }))
        .count();
    println!("  topfull+dagor journaled {moves} priority-threshold moves");
    assert!(
        api_goodput(&both, "checkout") >= api_goodput(&topfull_only, "checkout"),
        "the hybrid held checkout worse than TopFull alone"
    );
    assert!(moves >= 1, "the priority gate never moved its threshold");
}

/// The gray-failure schedule (faults inside t = 40–130 s) with and
/// without the hardened loop. `tests/chaos.rs` holds the hardened
/// loop's recovery and watchdog activity adversarially; this prints
/// both arms around the fault window and checks the document's own
/// hardened run recovers and journals its watchdog.
#[test]
fn gray_failure_arms_around_the_fault_window() {
    let chaos = doc("gray_failure_chaos");
    let [plain, hardened] = run_arms([
        variant(&chaos, |sc| {
            let ControllerSpec::Topfull { hardened, .. } = &mut sc.controller else {
                panic!("gray_failure_chaos.json runs TopFull");
            };
            *hardened = false;
        }),
        chaos.clone(),
    ]);
    println!("gray-failure chaos: gray_failure_chaos.json — total goodput (rps)");
    println!(
        "  {:<11} {:>9} {:>8} {:>10} {:>9}",
        "stack", "pre-fault", "during", "post-fault", "post/pre"
    );
    for (arm, o) in [("unhardened", &plain), ("hardened", &hardened)] {
        let pre = window_mean(o, 20.0, 40.0);
        let during = window_mean(o, 45.0, 130.0);
        let post = window_mean(o, 200.0, 240.0);
        let ratio = post / pre;
        println!("  {arm:<11} {pre:>9.1} {during:>8.1} {post:>10.1} {ratio:>9.2}");
    }
    let recovery = window_mean(&hardened, 200.0, 240.0) / window_mean(&hardened, 20.0, 40.0);
    assert!(recovery >= 0.9, "hardened run recovered only {recovery:.2}");
    assert!(
        (hardened.journal.iter()).any(|e| matches!(e, obs::JournalEntry::Watchdog { .. })),
        "the hardened document ran without its watchdog"
    );
}

/// Times of the page-severity `SloBurn` journal entries, any API.
fn page_times(o: &ScenarioOutcome) -> Vec<f64> {
    let page = |e: &obs::JournalEntry| match e {
        obs::JournalEntry::SloBurn { t, to, .. } if to == "page" => Some(*t),
        _ => None,
    };
    o.journal.iter().filter_map(page).collect()
}

/// The first second from which total goodput stays below `threshold`
/// to the end of the run (a dip that recovers is no collapse).
fn sustained_collapse(o: &ScenarioOutcome, threshold: f64) -> Option<f64> {
    let mut collapse = None;
    for &(t, g) in &o.timeline {
        if g < threshold {
            collapse.get_or_insert(t);
        } else {
            collapse = None;
        }
    }
    collapse
}

/// A two-wave flash crowd on Get Product: a 4 s precursor at 700 rps
/// against the recommendation bottleneck's ≈500 rps, too brief to trip
/// the 6-probe crash loop, then 2600 rps from t = 25 s. Uncontrolled,
/// the precursor's queue-overflow failures spend error budget while
/// served goodput holds, so the burn-rate monitor pages long before the
/// crowd crash-loops the bottleneck and goodput collapses. The RL
/// policy sheds at the entry (a rejected request spends no budget), so
/// nothing crash-loops and nothing pages. The paper-default MIMD step
/// (0.05) cannot clamp a 5× overshoot before the crash loop fires.
#[test]
fn the_burn_rate_page_leads_the_flash_crowd_collapse() {
    let crowd = doc("slo_burn_lead");
    let [none, rl, mimd] = run_arms([
        crowd.clone(),
        variant(&crowd, |sc| {
            sc.controller = ControllerSpec::topfull("rl:artifacts/models/transfer_ob.json");
        }),
        variant(&crowd, |sc| sc.controller = ControllerSpec::topfull("mimd")),
    ]);
    println!("slo burn lead: slo_burn_lead.json — getproduct goodput from t=28 s");
    println!(
        "  {:<6} {:>10} {:>11} {:>6} {:>10}",
        "arm", "goodput", "crash-loops", "pages", "first page"
    );
    for (arm, o) in [("none", &none), ("rl", &rl), ("mimd", &mimd)] {
        let pages = page_times(o);
        let first = pages
            .first()
            .map_or("never".into(), |t| format!("{t:.0} s"));
        println!(
            "  {arm:<6} {:>10.1} {:>11} {:>6} {first:>10}",
            api_goodput(o, "getproduct"),
            o.crash_events,
            pages.len()
        );
    }
    let threshold = 0.6 * window_mean(&none, 3.0, 10.0);
    let page = page_times(&none).first().copied();
    let collapse = sustained_collapse(&none, threshold);
    let (Some(page), Some(collapse)) = (page, collapse) else {
        panic!("uncontrolled: page {page:?}, collapse {collapse:?}");
    };
    println!("  none: total goodput below {threshold:.0} rps from {collapse} s on");
    assert!(
        collapse - page >= 2.0,
        "the page ({page} s) does not lead the collapse ({collapse} s) by 2 ticks"
    );
    assert!(
        api_goodput(&rl, "getproduct") > api_goodput(&none, "getproduct"),
        "the RL policy held less crowd-phase goodput than no control"
    );
    assert_eq!(rl.crash_events, 0, "the RL arm crash-looped the bottleneck");
    assert!(page_times(&rl).is_empty(), "the RL arm paged");
    assert!(
        mimd.crash_events > 0,
        "the paper-default MIMD step clamped the crowd in time"
    );
}

/// The refinement ablation's arms: `(document, variant, the switch it
/// flips)`. Each document's first arm is its own controller, TopFull
/// with every refinement on.
const REFINEMENTS: [(&str, &str, &str); 12] = [
    ("refinement_tt", "all refinements (default)", ""),
    (
        "refinement_tt",
        "single target per cluster",
        "single_target_per_cluster",
    ),
    (
        "refinement_tt",
        "verbatim Algorithm 1 cuts",
        "restrict_cuts_to_contributing",
    ),
    (
        "refinement_tt",
        "multiplicative group raises",
        "fair_group_steps",
    ),
    ("refinement_ob", "all refinements (default)", ""),
    (
        "refinement_ob",
        "single target per cluster",
        "single_target_per_cluster",
    ),
    (
        "refinement_ob",
        "verbatim Algorithm 1 cuts",
        "restrict_cuts_to_contributing",
    ),
    (
        "refinement_ob",
        "multiplicative group raises",
        "fair_group_steps",
    ),
    (
        "refinement_offender",
        "contributing-only cuts (default)",
        "",
    ),
    (
        "refinement_offender",
        "verbatim Algorithm 1",
        "restrict_cuts_to_contributing",
    ),
    ("refinement_skew", "Chiu-Jain group steps (default)", ""),
    (
        "refinement_skew",
        "multiplicative both ways",
        "fair_group_steps",
    ),
];

/// `sc` with the refinement `switch` names off (or its literal reading,
/// one target per cluster, on); `""` leaves the document's own.
fn ablated(sc: &Scenario, switch: &str) -> Scenario {
    variant(sc, |v| {
        let ControllerSpec::Topfull {
            single_target_per_cluster,
            restrict_cuts_to_contributing,
            fair_group_steps,
            ..
        } = &mut v.controller
        else {
            panic!("{} does not run TopFull", sc.name);
        };
        match switch {
            "" => {}
            "single_target_per_cluster" => *single_target_per_cluster = Some(true),
            "restrict_cuts_to_contributing" => *restrict_cuts_to_contributing = Some(false),
            "fair_group_steps" => *fair_group_steps = Some(false),
            _ => panic!("no refinement '{switch}'"),
        }
    })
}

/// The three refinements DESIGN.md §5 adds to Algorithm 1 (no paper
/// counterpart), each switched off alone: on Fig. 10's Train Ticket and
/// Online Boutique overloads (at another seed), acting on one target per
/// cluster costs Train Ticket goodput; with idle low-priority APIs on
/// its bottleneck, a lone surging API is starved by verbatim Algorithm 1
/// cuts; and under a 3:1 skew between two equal-priority APIs on one
/// bottleneck, multiplicative raises freeze the skew that Chiu-Jain
/// steps even out. The other grid cells are printed, not asserted.
#[test]
fn each_refinement_beats_its_ablation_in_its_own_scenario() {
    let names = [
        "refinement_tt",
        "refinement_ob",
        "refinement_offender",
        "refinement_skew",
    ];
    let docs = names.map(|name| (name, doc(name)));
    let source = |name: &str| &docs.iter().find(|(n, _)| *n == name).expect("a document").1;
    let outcomes = run_arms(REFINEMENTS.map(|(name, _, switch)| ablated(source(name), switch)));
    let (grid, rest) = outcomes.split_at(8);
    let labels = REFINEMENTS.map(|(_, label, _)| label);

    println!(
        "refinements: refinement_tt.json and refinement_ob.json — total goodput (rps) from t=30 s"
    );
    println!(
        "  {:<15} {:<28} {:>8} {:>11}",
        "app", "variant", "goodput", "vs default"
    );
    for (app, (runs, labels)) in ["train-ticket", "online-boutique"]
        .iter()
        .zip(grid.chunks(4).zip(labels.chunks(4)))
    {
        let baseline = runs[0].total_goodput;
        for (o, label) in runs.iter().zip(labels) {
            let goodput = o.total_goodput;
            let delta = if baseline > 0.0 {
                format!("{:+.1}%", (goodput / baseline - 1.0) * 100.0)
            } else {
                "n/a".into()
            };
            println!("  {app:<15} {label:<28} {goodput:>8.1} {delta:>11}");
        }
    }
    let (offender, skew) = rest.split_at(2);
    println!("refinement 2: refinement_offender.json — the surging getproduct's goodput (rps) from t=30 s");
    let offended = offender.iter().zip(&labels[8..10]).map(|(o, label)| {
        let goodput = api_goodput(o, "getproduct");
        println!("  {label:<32} {goodput:>7.1}");
        goodput
    });
    let offended: Vec<f64> = offended.collect();
    println!("refinement 3: refinement_skew.json — the equal-priority split from t=200 s");
    println!(
        "  {:<32} {:>14} {:>18}",
        "variant", "minority (rps)", "majority/minority"
    );
    let minority = skew.iter().zip(&labels[10..]).map(|(o, label)| {
        let [gp, gc] = ["getproduct", "getcart"].map(|api| api_goodput(o, api));
        let ratio = gp.max(gc) / gp.min(gc).max(1.0);
        println!("  {label:<32} {:>14.1} {:>17.2}x", gc.min(gp), ratio);
        gc.min(gp)
    });
    let minority: Vec<f64> = minority.collect();

    assert!(
        grid[0].total_goodput > grid[1].total_goodput,
        "one target per cluster costs Train Ticket nothing"
    );
    assert!(
        offended[0] > offended[1],
        "verbatim Algorithm 1 cuts do not starve the surging API"
    );
    assert!(
        minority[0] > minority[1],
        "Chiu-Jain steps do not serve the minority API more"
    );
}
