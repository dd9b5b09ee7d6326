//! The paper's §6.1 overload comparison as one scenario document plus
//! its relations: Fig. 8 (TopFull against DAGOR, Breakwater, WISP and no
//! control at 2 600 Online Boutique users) and Fig. 9 (TopFull, DAGOR
//! and Breakwater across five user populations). Every arm is
//! `scenarios/paper/fig08.json` with its controller and, for Fig. 9, its
//! population changed, run through `topfull_cli::run_scenario` exactly as
//! `topfull run` runs it. Online Boutique's business priorities are all
//! equal by default, as §6.1 sets them for Breakwater. The test prints
//! both figures' numbers, which EXPERIMENTS.md cites:
//!
//! ```text
//! cargo test --release --test paper -- --nocapture
//! ```

mod arms;

use arms::{api_goodput, doc, run_arms, variant};
use topfull_suite::topfull_cli::schema::{ControllerSpec, Scenario, WorkloadSpec};
use topfull_suite::topfull_cli::ScenarioOutcome;

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

/// §6.1: "TopFull outperforms DAGOR by 1.82x and Breakwater by 2.26x on
/// total average goodput under overload" (Fig. 8), and keeps that lead
/// at every user demand while Breakwater degrades as demand grows
/// (Fig. 9). Only the orderings are asserted: this simulator's DAGOR and
/// Breakwater are idealised, so the margins are smaller (EXPERIMENTS.md).
#[test]
fn topfull_beats_every_baseline_under_overload_and_at_every_demand() {
    let fig8 = doc("paper/fig08");
    let outcomes = run_arms(ARMS.map(|(label, users)| arm(&fig8, label, users)));
    let of = |label: &str, users: f64| -> &ScenarioOutcome {
        let i = ARMS.iter().position(|&a| a == (label, users));
        &outcomes[i.unwrap_or_else(|| panic!("no arm {label} at {users} users"))]
    };
    let total = |label: &str, users: f64| of(label, users).total_goodput;

    println!("fig 8: paper/fig08.json, 2600 users — mean goodput (rps) from t=30 s");
    print!("  {:<11}", "controller");
    for api in APIS {
        print!(" {api:>12}");
    }
    println!(" {:>8}", "total");
    for (label, _) in &ARMS[..5] {
        print!("  {label:<11}");
        for api in APIS {
            print!(" {:>12.1}", api_goodput(of(label, FIG8_USERS), api));
        }
        println!(" {:>8.1}", total(label, FIG8_USERS));
    }
    let topfull = total("topfull", FIG8_USERS);
    for (den, paper) in [
        ("dagor", "1.82x"),
        ("breakwater", "2.26x"),
        ("wisp", "n/a; >1x by §7"),
        ("no-control", ">1x"),
    ] {
        let ratio = topfull / total(den, FIG8_USERS);
        println!("  topfull / {den:<10} {ratio:.2}x  (paper {paper})");
    }

    println!("fig 9: the same document at each population — total goodput (rps)");
    println!(
        "  {:>5} {:>10} {:>8} {:>8}",
        "users", "breakwater", "dagor", "topfull"
    );
    for users in FIG9_USERS {
        let [b, d, t] = FIG9_ARMS.map(|label| total(label, users));
        println!("  {users:>5} {b:>10.1} {d:>8.1} {t:>8.1}");
    }

    for den in ["dagor", "breakwater", "wisp", "no-control"] {
        assert!(
            topfull > total(den, FIG8_USERS),
            "fig 8: TopFull does not beat {den} at 2600 users"
        );
    }
    for users in FIG9_USERS {
        for den in ["dagor", "breakwater"] {
            assert!(
                total("topfull", users) > total(den, users),
                "fig 9: TopFull does not beat {den} at {users} users"
            );
        }
    }
    let breakwater = FIG9_USERS.map(|users| total("breakwater", users));
    let peak = breakwater.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert!(
        breakwater[4] < peak,
        "fig 9: Breakwater at 4000 users ({:.1}) is its own peak",
        breakwater[4]
    );
}
