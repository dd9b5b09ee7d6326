//! The paper's figures as scenario documents plus their relations.
//! Every arm is a committed document under `scenarios/paper/` with at
//! most its controller and one more field changed, run through
//! `topfull_cli::run_scenario` exactly as `topfull run` runs it. Each
//! test asserts its figures' relations and holds the blocks it prints to
//! EXPERIMENTS.md; the `#[ignore]`d `seeds` judges every relation at
//! each document's seed + 0…7 (`tests/arms/mod.rs`).
//!
//! - §6.1's overload comparison: Fig. 8 (TopFull against DAGOR,
//!   Breakwater, WISP and no control at 2 600 Online Boutique users) and
//!   Fig. 9 (TopFull, DAGOR and Breakwater across five user
//!   populations), both `fig08.json`. Online Boutique's business
//!   priorities are all equal by default, as §6.1 sets them for
//!   Breakwater.
//! - §6.3's autoscaler interplay: Fig. 14 (Train Ticket, `fig14.json`),
//!   Fig. 15 (Online Boutique, `fig15.json`), Fig. 17 (the RL models on
//!   Fig. 14's surge) and Fig. 19 (VM startup time, `fig19.json`). Each
//!   run ends where the paper's surge does, so a document's steady
//!   window `[20 s, end]` is the figure's averaging window.
//! - The case against per-service control: §2's Fig. 4 (DAGOR starves
//!   Get Product, `fig04.json`), §6.2's Fig. 10 (RL and clustering each
//!   add goodput, `fig10_trace.json`, `fig10_tt.json` and `fig08.json`)
//!   and Fig. 13's Table 2 (the learned step adapts before DAGOR's fixed
//!   ones, `fig13.json`).
//! - Control that reaches every API: Fig. 11 (ranked business
//!   priorities, `fig11.json`), Fig. 12 (the timeline of Fig. 4's surge
//!   with API 1 ranked first, `fig12.json`) and Fig. 18 (ts-station's
//!   pod failure, `fig18.json`).
//! - §6.3's resource saving: Fig. 16 (`fig16_tt.json`, `fig16_ob.json`,
//!   each at its app's scarcest allocation and swept by pod counts).

mod arms;

use arms::{api_goodput, doc, ratio, variant, window_mean, Arms, Figure, Printed, Verdict};
use topfull_suite::simnet::stats;
use topfull_suite::topfull_cli::schema::{
    AppSpec, ControllerSpec, FaultSpecJson, Scenario, WorkloadSpec,
};
use topfull_suite::topfull_cli::ScenarioOutcome;

/// Fig. `fig`'s "TopFull beats `whom`", `ours` against `theirs`.
fn beats(fig: &str, whom: &str, ours: f64, theirs: f64) -> Verdict {
    Verdict::claim(
        format!("fig {fig}: topfull > {whom}"),
        ours > theirs,
        ratio(ours, theirs),
        format!("fig {fig}: TopFull does not beat {whom}"),
    )
}

/// `v` as one of EXPERIMENTS.md's Known gaps: judged and swept, not
/// asserted.
fn gap(v: Verdict) -> Verdict {
    Verdict { failure: None, ..v }
}

/// The seed sweep: every relation below at each document's seed + k,
/// k = 0…7.
#[test]
#[ignore = "the seed sweep: eight passes of the suite"]
fn seeds() {
    arms::sweep(&[FIGS_8_9, FIGS_14_TO_19, FIGS_4_10_13, FIGS_11_12_18, FIG_16]);
}

/// Fig. 8's controllers at the document's 2 600 users, then Fig. 9's
/// three at each other population; Fig. 9's 2 600-user row is Fig. 8's.
const ARMS: [(&str, f64); 17] = [
    ("no-control", 2600.0),
    ("breakwater", 2600.0),
    ("wisp", 2600.0),
    ("dagor", 2600.0),
    ("topfull", 2600.0),
    ("breakwater", 1500.0),
    ("dagor", 1500.0),
    ("topfull", 1500.0),
    ("breakwater", 2000.0),
    ("dagor", 2000.0),
    ("topfull", 2000.0),
    ("breakwater", 3200.0),
    ("dagor", 3200.0),
    ("topfull", 3200.0),
    ("breakwater", 4000.0),
    ("dagor", 4000.0),
    ("topfull", 4000.0),
];
const FIG8_USERS: f64 = 2600.0;
const FIG9_USERS: [f64; 5] = [1500.0, 2000.0, 2600.0, 3200.0, 4000.0];
const FIG9_ARMS: [&str; 3] = ["breakwater", "dagor", "topfull"];
const APIS: [&str; 5] = [
    "postcheckout",
    "getproduct",
    "getcart",
    "postcart",
    "emptycart",
];

/// The document under the controller `label` names at `users` users.
fn arm(fig8: &Scenario, label: &str, users: f64) -> Scenario {
    variant(fig8, |sc| {
        sc.controller = match label {
            "no-control" => ControllerSpec::None,
            "breakwater" => ControllerSpec::Breakwater,
            "wisp" => ControllerSpec::Wisp,
            "dagor" => ControllerSpec::Dagor { alpha: 0.05 },
            "topfull" => fig8.controller.clone(),
            _ => panic!("no arm '{label}'"),
        };
        match &mut sc.workload {
            WorkloadSpec::ClosedLoop { users_steps, .. } => *users_steps = vec![(0, users)],
            _ => panic!("{} is not a closed-loop population", sc.name),
        }
    })
}

const FIGS_8_9: Figure = Figure {
    arms: || {
        let fig8 = doc("paper/fig08");
        ARMS.map(|(label, users)| arm(&fig8, label, users)).into()
    },
    judge: figs_8_9,
};

fn figs_8_9(outcomes: &[ScenarioOutcome], printed: &mut Printed) -> Vec<Verdict> {
    let arms = Arms::new(&ARMS, outcomes);
    let total = |label: &str, users: f64| arms.of((label, users)).total_goodput;

    let p = printed.block(Some("fig08"));
    writeln!(
        p,
        "fig 8: paper/fig08.json, 2600 users — mean goodput (rps) from t=30 s"
    );
    let columns = APIS.map(|api| format!(" {api:>12}")).concat();
    writeln!(p, "  {:<11}{columns} {:>8}", "controller", "total");
    for (label, _) in &ARMS[..5] {
        let o = arms.of((label, FIG8_USERS));
        let cells = APIS
            .map(|api| format!(" {:>12.1}", api_goodput(o, api)))
            .concat();
        writeln!(p, "  {label:<11}{cells} {:>8.1}", o.total_goodput);
    }
    let topfull = total("topfull", FIG8_USERS);
    for (den, paper) in [
        ("dagor", "1.82x"),
        ("breakwater", "2.26x"),
        ("wisp", "n/a; >1x by §7"),
        ("no-control", ">1x"),
    ] {
        let gain = topfull / total(den, FIG8_USERS);
        writeln!(p, "  topfull / {den:<10} {gain:.2}x  (paper {paper})");
    }

    writeln!(
        p,
        "fig 9: the same document at each population — total goodput (rps)"
    );
    writeln!(
        p,
        "  {:>5} {:>10} {:>8} {:>8}",
        "users", "breakwater", "dagor", "topfull"
    );
    for users in FIG9_USERS {
        let [b, d, t] = FIG9_ARMS.map(|label| total(label, users));
        writeln!(p, "  {users:>5} {b:>10.1} {d:>8.1} {t:>8.1}");
    }

    let mut verdicts = Vec::new();
    for den in ["dagor", "breakwater", "wisp", "no-control"] {
        let whom = format!("{den} at 2600 users");
        verdicts.push(beats("8", &whom, topfull, total(den, FIG8_USERS)));
    }
    for users in FIG9_USERS {
        for den in ["dagor", "breakwater"] {
            let whom = format!("{den} at {users} users");
            verdicts.push(beats(
                "9",
                &whom,
                total("topfull", users),
                total(den, users),
            ));
        }
    }
    let breakwater = FIG9_USERS.map(|users| total("breakwater", users));
    let peak = breakwater.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    verdicts.push(Verdict::claim(
        "fig 9: breakwater at 4000 users < its peak",
        breakwater[4] < peak,
        ratio(breakwater[4], peak),
        format!(
            "fig 9: Breakwater at 4000 users ({:.1}) is its own peak",
            breakwater[4]
        ),
    ));
    verdicts
}

/// §6.1: "TopFull outperforms DAGOR by 1.82x and Breakwater by 2.26x on
/// total average goodput under overload" (Fig. 8), and keeps that lead
/// at every user demand while Breakwater degrades as demand grows
/// (Fig. 9). Only the orderings are asserted: this simulator's DAGOR and
/// Breakwater are idealised, so the margins are smaller (EXPERIMENTS.md).
#[test]
fn topfull_beats_every_baseline_under_overload_and_at_every_demand() {
    FIGS_8_9.tier1();
}

/// §6.3's arms: `(document, controller, VM startup seconds)`. The
/// controller is `none`, the document's own (`topfull`) or a TopFull
/// rate controller; Figs. 14 and 15 keep their documents' 40 s VMs.
const AUTOSCALED: [(&str, &str, u64); 14] = [
    ("paper/fig14", "none", 40),
    ("paper/fig14", "bw", 40),
    ("paper/fig14", "topfull", 40),
    ("paper/fig14", "rl:artifacts/models/base.json", 40),
    ("paper/fig14", "rl:artifacts/models/transfer_ob.json", 40),
    ("paper/fig15", "none", 40),
    ("paper/fig15", "bw", 40),
    ("paper/fig15", "topfull", 40),
    ("paper/fig19", "none", 20),
    ("paper/fig19", "topfull", 20),
    ("paper/fig19", "none", 40),
    ("paper/fig19", "topfull", 40),
    ("paper/fig19", "none", 60),
    ("paper/fig19", "topfull", 60),
];
const TT_APIS: [&str; 6] = [
    "high_speed_ticket",
    "normal_speed_ticket",
    "query_order",
    "query_order_other",
    "query_food",
    "query_payment",
];
const VM_STARTUPS: [u64; 3] = [20, 40, 60];

/// `sc` under `controller`, its new VMs `vm_startup_secs` away.
fn autoscaled(sc: &Scenario, controller: &str, vm_startup_secs: u64) -> Scenario {
    variant(sc, |v| {
        v.controller = match controller {
            "none" => ControllerSpec::None,
            "topfull" => sc.controller.clone(),
            rate => ControllerSpec::topfull(rate),
        };
        let pool = v.autoscaler.as_mut().and_then(|a| a.vm_pool.as_mut());
        pool.unwrap_or_else(|| panic!("{} has no VM pool", sc.name))
            .vm_startup_secs = vm_startup_secs;
    })
}

const FIGS_14_TO_19: Figure = Figure {
    arms: || (AUTOSCALED.map(|(name, c, vm)| autoscaled(&doc(name), c, vm))).into(),
    judge: figs_14_to_19,
};

fn figs_14_to_19(outcomes: &[ScenarioOutcome], printed: &mut Printed) -> Vec<Verdict> {
    let arms = Arms::new(&AUTOSCALED, outcomes);
    let total = |name: &str, controller: &str| arms.of((name, controller, 40)).total_goodput;

    let p = printed.block(Some("fig14"));
    for (fig, name, apis, paper) in [
        ("14", "paper/fig14", &TT_APIS[..], ["1.38x", "1.75x"]),
        ("15", "paper/fig15", &APIS[..], ["3.91x", "1.19x"]),
    ] {
        writeln!(
            p,
            "fig {fig}: {name}.json — mean goodput (rps) over [20 s, end]"
        );
        let runs = ["none", "bw", "topfull"].map(|c| arms.of((name, c, 40)));
        writeln!(
            p,
            "  {:<20} {:>8} {:>8} {:>8}",
            "api", "none", "bw", "topfull"
        );
        for api in apis {
            let [n, b, t] = runs.map(|o| api_goodput(o, api));
            writeln!(p, "  {api:<20} {n:>8.1} {b:>8.1} {t:>8.1}");
        }
        let [n, b, t] = runs.map(|o| o.total_goodput);
        writeln!(p, "  {:<20} {n:>8.1} {b:>8.1} {t:>8.1}", "total");
        let [n, b, t] = runs.map(|o| o.crash_events);
        writeln!(p, "  {:<20} {n:>8} {b:>8} {t:>8}", "pod crash events");
        for (den, paper) in ["none", "bw"].into_iter().zip(paper) {
            let gain = total(name, "topfull") / total(name, den);
            writeln!(p, "  topfull / {den:<5} {gain:.2}x  (paper {paper})");
        }
    }

    let fig17 = [
        ("autoscaler", "none"),
        ("base", "rl:artifacts/models/base.json"),
        ("transfer-ob", "rl:artifacts/models/transfer_ob.json"),
        ("transfer-tt", "topfull"),
    ];
    let model = |label: &str| {
        let found = fig17.iter().find(|(l, _)| *l == label).expect("a model");
        total("paper/fig14", found.1)
    };
    writeln!(
        p,
        "fig 17: paper/fig14.json under each model — mean goodput (rps) over [20 s, end]"
    );
    for (label, _) in fig17 {
        let gain = model(label) / model("autoscaler");
        writeln!(
            p,
            "  {label:<12} {:>8.1}  {gain:.2}x the autoscaler",
            model(label)
        );
    }
    for (num, paper) in [("transfer-tt", "1.08-1.09x"), ("transfer-ob", "≈1.08x")] {
        let gain = model(num) / model("base");
        writeln!(p, "  {num} / base {gain:.3}x  (paper {paper})");
    }

    writeln!(
        p,
        "fig 19: paper/fig19.json at each VM startup — mean goodput (rps) over [20 s, end]"
    );
    writeln!(
        p,
        "  {:>10} {:>10} {:>8} {:>6}",
        "vm startup", "autoscaler", "topfull", "gain"
    );
    let fig19 = VM_STARTUPS
        .map(|vm| ["none", "topfull"].map(|c| arms.of(("paper/fig19", c, vm)).total_goodput));
    for (vm, [solo, topfull]) in VM_STARTUPS.iter().zip(fig19) {
        writeln!(
            p,
            "  {:>9}s {solo:>10.1} {topfull:>8.1} {:>5.2}x",
            vm,
            topfull / solo
        );
    }
    let gains = fig19.map(|[solo, topfull]| topfull / solo);
    let best = gains.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    writeln!(p, "  largest gain {best:.2}x  (paper up to 1.52x)");

    let mut verdicts = Vec::new();
    // TopFull(BW) leads on three of Online Boutique's five APIs, so there
    // TopFull is held per API against the autoscaler alone only.
    for (fig, name, apis, per_api) in [
        ("14", "paper/fig14", &TT_APIS[..], &["none", "bw"][..]),
        ("15", "paper/fig15", &APIS[..], &["none"][..]),
    ] {
        let topfull = arms.of((name, "topfull", 40));
        for den in per_api {
            for api in apis {
                let theirs = api_goodput(arms.of((name, den, 40)), api);
                let whom = format!("{den} on {api}");
                verdicts.push(beats(fig, &whom, api_goodput(topfull, api), theirs));
            }
        }
        for den in ["none", "bw"] {
            let whom = format!("{den} in total");
            verdicts.push(beats(fig, &whom, topfull.total_goodput, total(name, den)));
        }
    }
    let crashes = |controller| arms.of(("paper/fig15", controller, 40)).crash_events;
    verdicts.push(Verdict::claim(
        "fig 15: the autoscaler alone crash-loops",
        crashes("none") > 0,
        format!("crashes: {}", crashes("none")),
        "fig 15: the autoscaler alone never crash-loops",
    ));
    verdicts.push(Verdict::claim(
        "fig 15: topfull never crash-loops",
        crashes("topfull") == 0,
        format!("crashes: {}", crashes("topfull")),
        "fig 15: TopFull crash-loops",
    ));
    for (label, _) in &fig17[1..] {
        verdicts.push(Verdict::claim(
            format!("fig 17: {label} > the autoscaler"),
            model(label) > model("autoscaler"),
            ratio(model(label), model("autoscaler")),
            format!("fig 17: {label} does not beat the autoscaler alone"),
        ));
    }
    for num in ["transfer-tt", "transfer-ob"] {
        let (ours, base) = (model(num), model("base"));
        let relation = format!("fig 17: {num} > base");
        verdicts.push(gap(Verdict::claim(
            relation,
            ours > base,
            ratio(ours, base),
            "",
        )));
    }
    for (&vm, [solo, topfull]) in VM_STARTUPS.iter().zip(fig19) {
        let whom = format!("the autoscaler at {vm} s");
        verdicts.push(beats("19", &whom, topfull, solo));
    }
    for (w, pair) in VM_STARTUPS.windows(2).zip(fig19.windows(2)) {
        let ([from, to], [solo, topfull], [slower_solo, slower_topfull]) =
            ([w[0], w[1]], pair[0], pair[1]);
        verdicts.push(Verdict::claim(
            format!("fig 19: the autoscaler loses from {from} s to {to} s"),
            slower_solo < solo,
            ratio(slower_solo, solo),
            format!(
                "fig 19: the autoscaler alone does not lose goodput from {from} s to {to} s VMs"
            ),
        ));
        verdicts.push(Verdict::claim(
            format!("fig 19: topfull gains nothing from {from} s to {to} s"),
            slower_topfull <= topfull,
            ratio(slower_topfull, topfull),
            format!("fig 19: TopFull gains goodput from {from} s to {to} s VMs"),
        ));
    }
    let largest = gains.iter().position(|g| *g == best);
    verdicts.push(Verdict::claim(
        "fig 19: the gain is largest at 60 s",
        best == gains[2],
        largest.map_or("no gain".into(), |i| {
            format!("largest at {} s", VM_STARTUPS[i])
        }),
        "fig 19: the gain is not largest at 60 s VMs",
    ));
    verdicts
}

/// §6.3: "TopFull with the autoscaler achieves a higher average goodput
/// at every APIs compared to the standalone autoscaler and TopFull(BW)"
/// (Figs. 14 and 15: 1.38× and 1.75× on Train Ticket, 3.91× and 1.19×
/// on Online Boutique, where Recommendation's pods "kept failing" without
/// control); every RL model beats the autoscaler alone (Fig. 17); and
/// TopFull's lead holds at every VM startup time while both arms gain
/// from faster VMs (Fig. 19). The transfer-learning gains of Fig. 17 are
/// printed, not asserted: their sign changes with the seed here
/// (EXPERIMENTS.md).
#[test]
fn topfull_with_the_autoscaler_beats_the_autoscaler_alone() {
    FIGS_14_TO_19.tier1();
}

/// §2's, §6.2's and Table 2's arms: `(document, controller)`, where the
/// controller is `none`, DAGOR at the α `dagor <α>` names, TopFull's
/// MIMD steps (`mimd`), the document's TopFull without clustering
/// (`no-cluster`) or the document's own (`topfull`). Fig. 10's Online
/// Boutique row is Fig. 8's document at `FIG10_SEED`.
const CONTROLLED: [(&str, &str); 21] = [
    ("paper/fig04", "dagor 0.05"),
    ("paper/fig04", "topfull"),
    ("paper/fig10_trace", "none"),
    ("paper/fig10_trace", "dagor 0.05"),
    ("paper/fig10_trace", "mimd"),
    ("paper/fig10_trace", "no-cluster"),
    ("paper/fig10_trace", "topfull"),
    ("paper/fig10_tt", "none"),
    ("paper/fig10_tt", "dagor 0.05"),
    ("paper/fig10_tt", "mimd"),
    ("paper/fig10_tt", "no-cluster"),
    ("paper/fig10_tt", "topfull"),
    ("paper/fig08", "none"),
    ("paper/fig08", "dagor 0.05"),
    ("paper/fig08", "mimd"),
    ("paper/fig08", "no-cluster"),
    ("paper/fig08", "topfull"),
    ("paper/fig13", "dagor 0.05"),
    ("paper/fig13", "dagor 0.1"),
    ("paper/fig13", "dagor 0.5"),
    ("paper/fig13", "topfull"),
];
const FIG10_SEED: u64 = 1010;
/// Fig. 10's rows: `(app, document, paper's loss with MIMD, paper's loss
/// without clustering)`.
const FIG10: [(&str, &str, f64, f64); 3] = [
    ("trace-demo", "paper/fig10_trace", 11.1, 18.7),
    ("train-ticket", "paper/fig10_tt", 18.4, 22.5),
    ("online-boutique", "paper/fig08", 34.4, 2.6),
];
const FIG10_ARMS: [&str; 5] = ["none", "dagor 0.05", "mimd", "no-cluster", "topfull"];
/// Table 2's rows: `(label, controller, the paper's convergence)`.
const TABLE2: [(&str, &str, &str); 4] = [
    ("DAGOR (0.05)", "dagor 0.05", "27 s"),
    ("DAGOR (0.1)", "dagor 0.1", "19 s"),
    ("DAGOR (0.5)", "dagor 0.5", "inf"),
    ("TopFull (RL)", "topfull", "5 s"),
];

/// `sc` under the controller `label` names.
fn controlled(sc: &Scenario, label: &str) -> Scenario {
    variant(sc, |v| {
        v.controller = match (label, &sc.controller) {
            ("none", _) => ControllerSpec::None,
            ("topfull", own) => own.clone(),
            ("mimd", _) => ControllerSpec::topfull("mimd"),
            ("no-cluster", own) => {
                let mut spec = own.clone();
                let ControllerSpec::Topfull { clustering, .. } = &mut spec else {
                    panic!("{} does not run TopFull", sc.name);
                };
                *clustering = false;
                spec
            }
            (dagor, _) => match dagor.strip_prefix("dagor ").map(str::parse) {
                Some(Ok(alpha)) => ControllerSpec::Dagor { alpha },
                _ => panic!("no arm '{label}' on {}", sc.name),
            },
        };
        if sc.name == "paper-fig08" {
            v.seed = FIG10_SEED;
        }
    })
}

/// Table 2's convergence time: the seconds from `surge_at` to the first
/// sample from which goodput reaches 85 % of its maximal sustained level
/// (the p90 of the samples from the surge on, robust to single-sample
/// spikes) and never again drops below 75 % of it, with at least 10
/// samples left — the paper's "time to reach the maximal goodput". A
/// sawtoothing controller never converges: `None`.
fn convergence_secs(series: &[(f64, f64)], surge_at: f64) -> Option<f64> {
    let pts: Vec<(f64, f64)> = series
        .iter()
        .copied()
        .filter(|(t, _)| *t >= surge_at)
        .collect();
    let values: Vec<f64> = pts.iter().map(|(_, v)| *v).collect();
    let maximal = stats::quantile(&values, 0.9).filter(|m| *m > 0.0)?;
    let (reach, hold) = (0.85 * maximal, 0.75 * maximal);
    let settled = (0..pts.len().saturating_sub(9))
        .find(|&i| pts[i].1 >= reach && pts[i..].iter().all(|(_, v)| *v >= hold))?;
    Some(pts[settled].0 - surge_at)
}

/// A surge at 10 s that settles at `settle`: 0 before the surge, 50
/// until `settle`, then 400, one sample a second to `end`.
fn step_series(settle: u32, end: u32) -> Vec<(f64, f64)> {
    let at = |t: u32| match t {
        t if t < 10 => 0.0,
        t if t < settle => 50.0,
        _ => 400.0,
    };
    (0..=end).map(|t| (f64::from(t), at(t))).collect()
}

#[test]
fn convergence_is_the_second_a_step_settles() {
    assert_eq!(convergence_secs(&step_series(25, 60), 10.0), Some(15.0));
    // A dip after settling restarts the clock at the recovery.
    let mut dipped = step_series(25, 60);
    dipped[40].1 = 100.0;
    assert_eq!(convergence_secs(&dipped, 10.0), Some(31.0));
}

#[test]
fn a_sawtooth_never_converges() {
    let saw: Vec<(f64, f64)> = (0..90)
        .map(|t| (f64::from(t), if t % 4 < 2 { 400.0 } else { 0.0 }))
        .collect();
    assert_eq!(convergence_secs(&saw, 10.0), None);
}

#[test]
fn a_tail_shorter_than_ten_samples_never_converges() {
    // Settled for the last 9 samples only; 10 would do.
    assert_eq!(convergence_secs(&step_series(32, 40), 10.0), None);
    assert_eq!(convergence_secs(&step_series(31, 40), 10.0), Some(21.0));
}

/// `a` converges before `b`, each `(label, seconds)`; a run that never
/// converges fails the relation, naming it.
fn converges_before(
    relation: &str,
    (a_label, a): (&str, Option<f64>),
    (b_label, b): (&str, Option<f64>),
) -> Verdict {
    let (Some(a), Some(b)) = (a, b) else {
        let never = format!(
            "{} never converges",
            if a.is_none() { a_label } else { b_label }
        );
        return Verdict::claim(relation, false, never.clone(), format!("table 2: {never}"));
    };
    Verdict::claim(
        relation,
        a < b,
        format!("{a:.0} s vs {b:.0} s"),
        format!("table 2: {a_label} ({a} s) is not faster than {b_label} ({b} s)"),
    )
}

/// Table 2's relations on its convergence times, in `TABLE2`'s order:
/// TopFull converges first, then DAGOR(0.1), then DAGOR(0.05), and
/// DAGOR(0.5) never does.
fn table2(converged: [Option<f64>; 4]) -> [Verdict; 3] {
    let [d005, d01, d05, tf] = converged;
    [
        converges_before(
            "table 2: topfull before dagor 0.1",
            ("TopFull", tf),
            ("DAGOR(0.1)", d01),
        ),
        converges_before(
            "table 2: dagor 0.1 before dagor 0.05",
            ("DAGOR(0.1)", d01),
            ("DAGOR(0.05)", d005),
        ),
        Verdict::claim(
            "table 2: dagor 0.5 never converges",
            d05.is_none(),
            d05.map_or("never".into(), |s| format!("{s:.0} s")),
            "table 2: DAGOR(0.5) converges",
        ),
    ]
}

#[test]
fn a_run_that_never_converges_fails_its_relations_by_name() {
    let [first, second, unstable] = table2([Some(39.0), None, None, Some(14.0)]);
    assert!(!first.holds && !second.holds && unstable.holds);
    assert_eq!(first.margin, "DAGOR(0.1) never converges");
    let failure = second.failure.as_deref();
    assert_eq!(failure, Some("table 2: DAGOR(0.1) never converges"));
}

const FIGS_4_10_13: Figure = Figure {
    arms: || (CONTROLLED.map(|(name, c)| controlled(&doc(name), c))).into(),
    judge: figs_4_10_13,
};

fn figs_4_10_13(outcomes: &[ScenarioOutcome], printed: &mut Printed) -> Vec<Verdict> {
    let arms = Arms::new(&CONTROLLED, outcomes);
    let total = |name: &str, c: &str| arms.of((name, c)).total_goodput;
    let fig04 = |c: &str, api: &str| api_goodput(arms.of(("paper/fig04", c)), api);

    let p = printed.block(Some("fig04"));
    writeln!(
        p,
        "fig 4: paper/fig04.json — mean goodput (rps) from t=40 s"
    );
    writeln!(
        p,
        "  {:<10} {:>10} {:>12}",
        "controller", "getproduct", "postcheckout"
    );
    for c in ["dagor 0.05", "topfull"] {
        let [gp, pc] = ["getproduct", "postcheckout"].map(|api| fig04(c, api));
        writeln!(p, "  {c:<10} {gp:>10.1} {pc:>12.1}");
    }
    let fig4 = |api| fig04("topfull", api) / fig04("dagor 0.05", api);
    for (api, paper) in [("getproduct", "1.9x"), ("postcheckout", "≈1x")] {
        writeln!(
            p,
            "  topfull / dagor on {api:<12} {:.2}x  (paper {paper})",
            fig4(api)
        );
    }

    let p = printed.block(Some("fig10"));
    writeln!(
        p,
        "fig 10: each document under each component — total goodput (rps) from t=30 s"
    );
    writeln!(
        p,
        "  {:<15} {:>10} {:>8} {:>8} {:>11} {:>8}",
        "app", "no-control", "dagor", "w/ MIMD", "w/o cluster", "topfull"
    );
    for (app, name, _, _) in FIG10 {
        let [n, d, m, c, t] = FIG10_ARMS.map(|c| total(name, c));
        writeln!(
            p,
            "  {app:<15} {n:>10.1} {d:>8.1} {m:>8.1} {c:>11.1} {t:>8.1}"
        );
    }
    for (app, name, p_mimd, p_cluster) in FIG10 {
        let loss = |c| (1.0 - total(name, c) / total(name, "topfull")) * 100.0;
        writeln!(p,
            "  {app}: loss with MIMD instead of RL {:.1}% (paper {p_mimd}%), without clustering {:.1}% (paper {p_cluster}%)",
            loss("mimd"),
            loss("no-cluster")
        );
    }

    let p = printed.block(Some("table2"));
    writeln!(
        p,
        "table 2: paper/fig13.json — seconds from the surge to the maximal goodput"
    );
    let converged = TABLE2.map(|(label, c, paper)| {
        let o = arms.of(("paper/fig13", c));
        let secs = convergence_secs(&o.timeline, o.steady_from_secs);
        let shown = secs.map_or("inf".to_string(), |s| format!("{s:.0} s"));
        writeln!(p, "  {label:<13} {shown:>5}  (paper {paper})");
        secs
    });
    if let [Some(d005), _, _, Some(tf)] = converged {
        writeln!(
            p,
            "  TopFull converges {:.1}x faster than DAGOR(0.05)  (paper 5.4x)",
            d005 / tf.max(1.0)
        );
    }

    let mut verdicts = vec![Verdict::claim(
        "fig 4: topfull > dagor on getproduct",
        fig4("getproduct") > 1.0,
        format!("{:.2}x", fig4("getproduct")),
        "fig 4: TopFull does not serve more Get Product than DAGOR",
    )];
    for (app, name, _, _) in FIG10 {
        let topfull = total(name, "topfull");
        for den in ["none", "dagor 0.05", "mimd"] {
            verdicts.push(beats(
                "10",
                &format!("{den} on {app}"),
                topfull,
                total(name, den),
            ));
        }
        let unclustered = total(name, "no-cluster");
        let clustering = Verdict::claim(
            format!("fig 10: topfull > no-cluster on {app}"),
            topfull > unclustered,
            ratio(topfull, unclustered),
            format!("fig 10: clustering adds no goodput on {app}"),
        );
        // Online Boutique's clustering delta is a Known gap.
        verdicts.push(match name {
            "paper/fig08" => gap(clustering),
            _ => clustering,
        });
    }
    verdicts.extend(table2(converged));
    verdicts
}

/// §2: "TopFull serves 1.9x more Get Product requests while serving the
/// same amount of Post Checkout requests compared to the DAGOR" when
/// Get Product and Post Checkout overload Recommendation and Checkout
/// together (Fig. 4). §6.2: the goodput drops without RL (MIMD steps
/// instead) and without clustering, on each application (Fig. 10).
/// Table 2: after a Post Checkout surge, TopFull reaches the maximal
/// goodput in 5 s, DAGOR in 27 s at α 0.05 and 19 s at α 0.1, and never
/// at α 0.5 (Fig. 13). Post Checkout's share in Fig. 4, Online
/// Boutique's clustering delta and the convergence margins are printed,
/// not asserted (EXPERIMENTS.md).
#[test]
fn whole_api_control_ends_starvation_needs_each_component_and_converges_first() {
    FIGS_4_10_13.tier1();
}

/// Figs. 11, 12 and 18's arms: `(document, controller)`, named as
/// `controlled` names them.
const CONTESTED: [(&str, &str); 6] = [
    ("paper/fig11", "dagor 0.05"),
    ("paper/fig11", "topfull"),
    ("paper/fig12", "dagor 0.05"),
    ("paper/fig12", "topfull"),
    ("paper/fig18", "none"),
    ("paper/fig18", "topfull"),
];
/// Fig. 11's APIs, highest business priority first, with the paper's
/// TopFull / DAGOR ratio for each it reports.
const FIG11: [(&str, Option<&str>); 4] = [
    ("postcheckout", Some("1.58x")),
    ("getproduct", Some("7.55x")),
    ("getcart", None),
    ("postcart", Some("22.45x")),
];

/// A timeline's length, then the timeline thinned to about 20 points,
/// `<s>s:<rps>` each.
fn thinned(series: &[(f64, f64)]) -> String {
    let stride = (series.len() / 20).max(1);
    let points = series.iter().step_by(stride);
    let shown: Vec<String> = points.map(|(t, v)| format!("{t:.0}s:{v:.0}")).collect();
    format!("({} points) {}", series.len(), shown.join(" "))
}

/// One API's goodput timeline.
fn api_timeline<'a>(o: &'a ScenarioOutcome, api: &str) -> &'a [(f64, f64)] {
    let found = o.goodput_timeline_per_api.iter().find(|(n, _)| n == api);
    &found.unwrap_or_else(|| panic!("no API '{api}'")).1
}

const FIGS_11_12_18: Figure = Figure {
    arms: || (CONTESTED.map(|(name, c)| controlled(&doc(name), c))).into(),
    judge: figs_11_12_18,
};

fn figs_11_12_18(outcomes: &[ScenarioOutcome], printed: &mut Printed) -> Vec<Verdict> {
    let arms = Arms::new(&CONTESTED, outcomes);

    let p = printed.block(Some("fig11"));
    writeln!(
        p,
        "fig 11: paper/fig11.json — mean goodput (rps) from t=40 s; API 1 ranks highest"
    );
    writeln!(
        p,
        "  {:<10} {:>8} {:>8} {:>8} {:>8}",
        "controller", "api1", "api2", "api3", "api4"
    );
    let fig11 = ["dagor 0.05", "topfull"].map(|c| {
        let goodput = FIG11.map(|(api, _)| api_goodput(arms.of(("paper/fig11", c)), api));
        let [a1, a2, a3, a4] = goodput;
        writeln!(p, "  {c:<10} {a1:>8.1} {a2:>8.1} {a3:>8.1} {a4:>8.1}");
        goodput
    });
    let [dagor, topfull] = fig11;
    let avg = |g: [f64; 4]| g.iter().sum::<f64>() / 4.0;
    writeln!(
        p,
        "  topfull / dagor on average {:.2}x  (paper 2.60x)",
        avg(topfull) / avg(dagor)
    );
    for (i, (api, paper)) in FIG11.iter().enumerate() {
        if let Some(paper) = paper {
            let gain = topfull[i] / dagor[i];
            writeln!(
                p,
                "  topfull / dagor on {api:<12} {gain:.2}x  (paper {paper})"
            );
        }
    }

    let fig12 = |c| arms.of(("paper/fig12", c));
    let p = printed.block(Some("fig12"));
    writeln!(
        p,
        "fig 12: paper/fig12.json — mean goodput (rps) from t=40 s, then the timelines"
    );
    writeln!(
        p,
        "  {:<10} {:>17} {:>15}",
        "controller", "api1 postcheckout", "api2 getproduct"
    );
    for c in ["dagor 0.05", "topfull"] {
        let [pc, gp] = ["postcheckout", "getproduct"].map(|api| api_goodput(fig12(c), api));
        writeln!(p, "  {c:<10} {pc:>17.1} {gp:>15.1}");
    }
    for c in ["topfull", "dagor 0.05"] {
        for api in ["postcheckout", "getproduct"] {
            writeln!(p, "  {c} {api}: {}", thinned(api_timeline(fig12(c), api)));
        }
    }
    let late = ["getproduct", "postcheckout"].map(|api| {
        let series = api_timeline(fig12("topfull"), api);
        let after: Vec<f64> = (series.iter().filter(|(t, _)| *t > 60.0))
            .map(|(_, v)| *v)
            .collect();
        let mean = stats::mean(&after);
        writeln!(p, "  topfull {api} after t=60 s: {mean:.1} rps");
        after
    });

    let fig18 = doc("paper/fig18");
    let kill_at = fig18.faults.iter().find_map(|f| match f {
        FaultSpecJson::PodKill { at_secs, .. } => Some(*at_secs),
        _ => None,
    });
    let restored = kill_at.expect("a pod kill") + fig18.pod_startup_secs.expect("a startup");
    let (from, to) = (fig18.report.measure_from_secs as f64, restored as f64);
    let p = printed.block(Some("fig18"));
    writeln!(
        p,
        "fig 18: paper/fig18.json — mean goodput (rps) over [{from} s, {to} s]"
    );
    let [none, topfull] = ["none", "topfull"].map(|c| {
        let o = arms.of(("paper/fig18", c));
        let during = window_mean(o, from, to);
        writeln!(p, "  {c:<8} {during:>7.1}  {}", thinned(&o.timeline));
        during
    });
    writeln!(p,
        "  topfull / none {:.2}x  (paper >>1x: none serves \"almost zero\", TopFull ≈10/35 of capacity)",
        topfull / none
    );

    let mut verdicts = vec![beats(
        "11",
        "DAGOR on average",
        avg(fig11[1]),
        avg(fig11[0]),
    )];
    for (i, (api, _)) in FIG11.iter().enumerate() {
        verdicts.push(Verdict::claim(
            format!("fig 11: topfull >= dagor on {api}"),
            fig11[1][i] >= fig11[0][i],
            ratio(fig11[1][i], fig11[0][i]),
            format!("fig 11: TopFull serves less {api} than DAGOR"),
        ));
    }
    for (api, after) in ["getproduct", "postcheckout"].iter().zip(&late) {
        let least = after.iter().copied().fold(f64::INFINITY, f64::min);
        verdicts.push(Verdict::claim(
            format!("fig 12: topfull serves {api} after t=60 s"),
            after.iter().all(|v| *v > 0.0),
            format!("min {least:.0} rps"),
            format!("fig 12: TopFull stops serving {api} after t=60 s"),
        ));
    }
    verdicts.push(beats(
        "18",
        "no control while the pods are down",
        topfull,
        none,
    ));
    verdicts
}

/// §6.2: with business priorities API 1 > 2 > 3 > 4, "TopFull achieves
/// 2.60x higher goodput on average" than DAGOR, whose low-priority APIs
/// starve (Fig. 11); once Post Checkout is limited at Checkout, TopFull
/// raises Get Product's limit again and serves both (Fig. 12). §6.3:
/// after 25 of ts-station's 35 pods die, "TopFull detects overload in
/// ts-station and starts load control", where no control serves little
/// until the pods return (Fig. 18). The per-API ratios of Fig. 11 are
/// printed, not asserted.
#[test]
fn topfull_serves_every_priority_and_rides_out_a_pod_failure() {
    FIGS_11_12_18.tier1();
}

/// Fig. 16's allocations, in vCPUs (one pod each) over each document's
/// critical services; each document is its app's scarcest one.
const FIG16: [(&str, &str, &[u32]); 2] = [
    ("train-ticket", "paper/fig16_tt", &[5, 10, 15, 20, 30, 40]),
    ("online-boutique", "paper/fig16_ob", &[10, 15, 25, 35, 50]),
];

/// Fig. 16's pre-provisioning: `vcpus` pods split over `n` critical
/// services — an even share apiece, the remainder to the last, never
/// fewer than one.
fn split(vcpus: u32, n: usize) -> Vec<u32> {
    let share = (vcpus / n as u32).max(1);
    let mut left = vcpus;
    let pods = |i: usize| {
        let after = (n - 1 - i) as u32;
        let k = if after == 0 {
            left.max(1)
        } else {
            share.min(left.saturating_sub(after)).max(1)
        };
        left = left.saturating_sub(k);
        k
    };
    (0..n).map(pods).collect()
}

/// `sc` with `vcpus` split over the services it overrides.
fn provisioned(sc: &Scenario, vcpus: u32) -> Scenario {
    variant(sc, |v| match &mut v.app {
        AppSpec::Builtin { services, .. } => {
            let pods = split(vcpus, services.len());
            for (s, n) in services.iter_mut().zip(pods) {
                s.replicas = Some(n);
            }
        }
        AppSpec::Inline { .. } => panic!("{} is not a builtin app", sc.name),
    })
}

/// Resource saving: the smallest allocation at which TopFull reaches
/// 98 % of no control's goodput at a larger one, against the largest
/// such, as the share of vCPUs saved. Rows are `(vcpus, without, with)`
/// in allocation order.
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

#[test]
fn provisioning_splits_evenly_with_the_remainder_last() {
    assert_eq!(split(7, 3), [2, 2, 3]);
    assert_eq!(split(1, 3), [1, 1, 1]);
    assert_eq!(split(10, 5), [2; 5]);
}

#[test]
fn saving_is_the_cheapest_match_of_a_larger_allocation() {
    let rows = [(5, 100.0, 150.0), (10, 200.0, 400.0), (20, 400.0, 400.0)];
    assert_eq!(saving(&rows), Some(0.5));
    assert_eq!(saving(&rows[..2]), None);
}

/// Fig. 16's arms: `(document, vcpus, under TopFull)`, each allocation
/// without TopFull, then with it.
fn fig16_keys() -> Vec<(&'static str, u32, bool)> {
    let allocations = FIG16
        .iter()
        .flat_map(|&(_, name, vcpus)| vcpus.iter().map(move |&v| (name, v)));
    allocations
        .flat_map(|(name, v)| [(name, v, false), (name, v, true)])
        .collect()
}

const FIG_16: Figure = Figure {
    arms: || {
        for (_, name, vcpus) in FIG16 {
            let sc = doc(name);
            let AppSpec::Builtin { services, .. } = &sc.app else {
                panic!("{} is not a builtin app", sc.name)
            };
            let pods: Vec<u32> = services.iter().map(|s| s.replicas.unwrap_or(0)).collect();
            assert_eq!(pods, split(vcpus[0], services.len()), "{}", sc.name);
        }
        let arm = |(name, vcpus, topfull)| {
            let sc = provisioned(&doc(name), vcpus);
            if topfull {
                sc
            } else {
                variant(&sc, |v| v.controller = ControllerSpec::None)
            }
        };
        fig16_keys().into_iter().map(arm).collect()
    },
    judge: fig16,
};

fn fig16(outcomes: &[ScenarioOutcome], printed: &mut Printed) -> Vec<Verdict> {
    let keys = fig16_keys();
    let arms = Arms::new(&keys, outcomes);
    let rows = FIG16.map(|(_, name, vcpus)| {
        let total = |v, topfull| arms.of((name, v, topfull)).total_goodput;
        let row = |&v: &u32| (v, total(v, false), total(v, true));
        vcpus.iter().map(row).collect::<Vec<_>>()
    });

    let p = printed.block(Some("fig16"));
    for ((app, name, _), rows) in FIG16.iter().zip(&rows) {
        writeln!(
            p,
            "fig 16: {name}.json — mean goodput (rps) over the spike by allocated vCPUs"
        );
        writeln!(
            p,
            "  {:>5} {:>16} {:>13}",
            "vcpus", "without topfull", "with topfull"
        );
        for (v, without, with) in rows {
            writeln!(p, "  {v:>5} {without:>16.1} {with:>13.1}");
        }
        let (v, without, with) = rows[0];
        writeln!(p, "  {app}: gain at {v} vCPUs {:.2}x", with / without);
        if let Some(s) = saving(rows) {
            writeln!(p, "  {app}: vCPU saving at equal goodput {:.0}%", s * 100.0);
        }
    }
    writeln!(p, "  paper: 2.98x at 5 vCPUs and up to 50% on train-ticket; 12.96x at 15 vCPUs and up to 57% on online-boutique");

    let mut verdicts = Vec::new();
    for ((app, _, _), rows) in FIG16.iter().zip(&rows) {
        let (v, without, with) = rows[0];
        let whom = format!("no control on {app} at {v} vCPUs");
        verdicts.push(beats("16", &whom, with, without));
        let saved = saving(rows);
        verdicts.push(Verdict::claim(
            format!("fig 16: topfull saves vCPUs on {app}"),
            saved.is_some(),
            "no saving",
            format!("fig 16: TopFull saves no vCPUs on {app}"),
        ));
    }
    verdicts
}

/// §6.3: "TopFull shows the same or higher average goodput with up to
/// 50% fewer vCPUs" on Train Ticket and 57 % on Online Boutique, and
/// "2.98x higher average goodput … when 5 vCPUs allocated" there (12.96x
/// on Online Boutique). Each document spikes its load for the two
/// minutes `[20 s, 140 s]` and ends with the spike, so its steady window
/// is the figure's; an arm sets only the pod counts and the controller.
#[test]
fn topfull_saves_vcpus_under_a_spike() {
    FIG_16.tier1();
}

/// The sweep's table on a hand-built grid: a failing cell shows its
/// margin, an unasserted relation is starred, and only an asserted
/// relation failing at k = 0 fails the sweep.
#[test]
fn the_sweep_table_shows_failing_margins_and_fails_only_at_k0() {
    let verdict = |relation: &str, holds: bool, asserted: bool| Verdict {
        relation: relation.into(),
        holds,
        margin: format!("{relation} fails"),
        failure: asserted.then(|| "tier-1 fails".into()),
    };
    let mut grid = vec![
        vec![verdict("a > b", true, true), verdict("c > d", false, false)],
        vec![verdict("a > b", false, true), verdict("c > d", true, false)],
    ];
    let table = arms::table(&grid);
    let expected = "\
relation, at seed + k          +0          +1  holds
a > b                          ok a > b fails  1/2
c > d                 c > d fails          ok  1/2 *
* printed, not asserted: one of EXPERIMENTS.md's Known gaps
";
    assert_eq!(table, expected, "\n{table}");
    assert!(arms::failing_at_k0(&grid).is_empty());
    grid[0][0].holds = false;
    assert_eq!(arms::failing_at_k0(&grid), ["a > b"]);
}

/// Every `text` block of EXPERIMENTS.md is held to the run that prints
/// it (each under its own id) or marked as a timing; a changed line
/// shows in the diff.
#[test]
fn every_experiments_block_is_checked_or_a_timing() {
    let md = arms::experiments();
    let (mut previous, mut ids) = ("", Vec::new());
    for line in md.lines() {
        if line == "```text" {
            let checked = previous.strip_prefix("<!-- checked: ");
            let timing = previous.starts_with("<!-- timing: ");
            assert!(
                checked.is_some() || timing,
                "unmarked block after `{previous}`"
            );
            ids.extend(checked.and_then(|rest| rest.split(' ').next()));
        }
        previous = line;
    }
    let count = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), count, "a block id is used twice");
    let diff = arms::line_diff("a\nb 1.0\n", "a\nb 1.5\n");
    assert_eq!(diff.as_deref(), Some("line 2:\n- b 1.0\n+ b 1.5\n"));
}
