//! Figure 10: component-wise performance breakdown.
//!
//! "In real-trace demo, when TopFull employs MIMD instead of RL, the
//! goodput decreases by 11.1%. TopFull without clustering … degrades by
//! 18.7%. In Train Ticket, … MIMD … decreased by 18.4%, … without
//! clustering … 22.5%. In Online Boutique, the goodput decreased by
//! 34.4% with MIMD. Without dynamic clustering …, the goodput decreased
//! by 2.6%" (Online Boutique has one dominant shared bottleneck, so
//! clustering cannot fragment the problem much).

use crate::exec;
use crate::models;
use crate::report::{f1, Report};
use crate::scenarios::{alibaba_open_loop, boutique_users, trainticket_constant, Roster};
use cluster::RateSchedule;

const RUN_SECS: u64 = 120;
const MEASURE_FROM: f64 = 30.0;

pub fn run() -> Report {
    let mut r = Report::new("fig10", "Component-wise breakdown (3 applications)");
    // (app, its overload recipe, policy key, paper's loss with MIMD,
    // paper's loss without clustering). Train Ticket overloads its six
    // measured APIs; the boutique runs Fig. 8's 2600 users.
    let apps = [
        (
            "trace-demo",
            alibaba_open_loop(2.0, 1010).1,
            "base",
            11.1,
            18.7,
        ),
        (
            "train-ticket",
            trainticket_constant(1100.0, 1010),
            "train-ticket",
            18.4,
            22.5,
        ),
        (
            "online-boutique",
            boutique_users(RateSchedule::constant(2600.0), 1010),
            "online-boutique",
            34.4,
            2.6,
        ),
    ];
    // Train/fetch each app's policy before the fan-out, then submit all
    // app × variant runs through one plan.
    let mut arms = Vec::new();
    for (_, recipe, policy_key, _, _) in &apps {
        let policy = models::policy_for(policy_key);
        for v in [
            Roster::None,
            Roster::Dagor { alpha: 0.05 },
            Roster::TopFullMimd,
            Roster::TopFullNoCluster(policy.clone()),
            Roster::TopFull(policy),
        ] {
            arms.push((v.label(), v, recipe.clone()));
        }
    }
    let mut runs = exec::run_arms(arms, RUN_SECS);
    let mut rows = Vec::new();
    for (chunk, (app, _, _, p_m, p_c)) in runs.chunks_mut(5).zip(apps) {
        let by = |l: &str| {
            exec::arm(chunk, l)
                .result
                .mean_total_goodput(MEASURE_FROM, RUN_SECS as f64)
        };
        let tf = by("topfull");
        rows.push(vec![
            app.to_string(),
            f1(by("no-control")),
            f1(by("dagor")),
            f1(by("topfull-mimd")),
            f1(by("topfull-no-cluster")),
            f1(tf),
        ]);
        let deg = |x: f64| {
            if tf > 0.0 {
                format!("{:.1}%", (1.0 - x / tf) * 100.0)
            } else {
                "n/a".to_string()
            }
        };
        r.compare(
            format!("{app}: goodput loss with MIMD instead of RL"),
            format!("{p_m}%"),
            deg(by("topfull-mimd")),
            "",
        );
        r.compare(
            format!("{app}: goodput loss without clustering"),
            format!("{p_c}%"),
            deg(by("topfull-no-cluster")),
            "",
        );
        // Keep the trace-demo MIMD arm's decision journal as the
        // artifact's explainable example (`topfull explain …/fig10.json`).
        if app == "trace-demo" {
            let mimd = chunk.iter_mut().find(|o| o.label == "topfull-mimd");
            r.journal(std::mem::take(&mut mimd.expect("ran").result.journal));
        }
    }
    r.table(
        "avg total goodput (rps)",
        &[
            "app",
            "no-control",
            "dagor",
            "w/ MIMD",
            "w/o cluster",
            "topfull",
        ],
        rows,
    );
    r
}
