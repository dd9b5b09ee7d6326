//! Extension ablation: the three controller refinements DESIGN.md §5
//! documents on top of the paper's Algorithm 1 (no paper counterpart).
//!
//! 1. **Multi-target per cluster** — act on every overloaded service in
//!    a cluster each interval (fewest-API order, claimed candidates)
//!    instead of literally one at a time. Without it, a target the RL
//!    holds hovering at the detection threshold starves control of every
//!    other bottleneck in the cluster.
//! 2. **Contributing-only cuts** — Algorithm 1's "lowest priority
//!    candidate" may be idle or already at the floor; cutting it relieves
//!    nothing while the actual offender keeps hammering.
//! 3. **Chiu–Jain group steps** — proportional cuts + equal-share raises
//!    converge same-priority APIs toward an even split; equal factors in
//!    both directions freeze the transient's skew.
//!
//! Each row disables exactly one refinement on the Train Ticket and
//! Online Boutique overload scenarios and reports the goodput cost.

use crate::exec::{self, Of};
use crate::models;
use crate::report::{f1, Report};
use crate::scenarios::{boutique_users, constant, trainticket_constant, Recipe, Roster};
use apps::OnlineBoutique;
use cluster::RateSchedule;
use rl::policy::PolicyValue;
use topfull::TopFullConfig;

const RUN_SECS: u64 = 120;
const MEASURE_FROM: f64 = 30.0;

fn variants(policy: &PolicyValue) -> Vec<(&'static str, TopFullConfig)> {
    let base = || TopFullConfig::default().with_rl(policy.clone());
    vec![
        ("all refinements (default)", base()),
        (
            "single target per cluster",
            TopFullConfig {
                single_target_per_cluster: true,
                ..base()
            },
        ),
        (
            "verbatim Algorithm 1 cuts",
            TopFullConfig {
                restrict_cuts_to_contributing: false,
                ..base()
            },
        ),
        (
            "multiplicative group raises",
            TopFullConfig {
                fair_group_steps: false,
                ..base()
            },
        ),
    ]
}

pub fn run() -> Report {
    let mut r = Report::new(
        "refinements",
        "Extension: ablating the DESIGN.md §5 controller refinements",
    );
    // Fig. 10's Train Ticket and Online Boutique overloads.
    let apps = [
        ("train-ticket", trainticket_constant(1100.0, 2020)),
        (
            "online-boutique",
            boutique_users(RateSchedule::constant(2600.0), 2020),
        ),
    ];
    let mut arms = Vec::new();
    for (app, recipe) in &apps {
        for (label, cfg) in variants(&models::policy_for(app)) {
            arms.push((label, Roster::Config(cfg), recipe.clone()));
        }
    }

    // Focused mechanism demos: each disabled refinement against the
    // scenario shape it exists for.
    let ob = OnlineBoutique::build();
    let base = TopFullConfig::default().with_rl(models::policy_for("online-boutique"));
    // Getproduct surges alone while idle lower-priority APIs share its
    // Recommendation bottleneck: verbatim Algorithm 1 keeps "cutting" the
    // idle getcart and never touches the offender — the scenario
    // refinement 2 exists for. The table reports the surging API's goodput.
    let offender = Recipe::open_loop(&ob.topology, constant(&[ob.getproduct], 1200.0), 2021)
        .priorities(&ob.apis());
    let verbatim = TopFullConfig {
        restrict_cuts_to_contributing: false,
        ..base.clone()
    };
    let refined = "contributing-only cuts (default)";
    arms.push((refined, Roster::Config(base.clone()), offender.clone()));
    arms.push(("verbatim Algorithm 1", Roster::Config(verbatim), offender));
    let runs = exec::run_arms(arms, RUN_SECS);
    let (grid, offender_runs) = runs.split_at(4 * apps.len());
    let window = (MEASURE_FROM, RUN_SECS as f64);

    let mut rows = Vec::new();
    for (chunk, (app, _)) in grid.chunks(4).zip(&apps) {
        let baseline = Of::Total.mean(&chunk[0].result, window);
        for o in chunk {
            let goodput = Of::Total.mean(&o.result, window);
            let delta = if baseline > 0.0 {
                format!("{:+.1}%", (goodput / baseline - 1.0) * 100.0)
            } else {
                "n/a".into()
            };
            rows.push(vec![app.to_string(), o.label.clone(), f1(goodput), delta]);
        }
    }
    r.table(
        "avg total goodput (rps) with one refinement disabled",
        &["app", "variant", "goodput", "vs default"],
        rows,
    );
    let offender_row = |o: &exec::ArmOutcome| {
        let goodput = Of::Api(ob.getproduct).mean(&o.result, window);
        vec![o.label.clone(), f1(goodput)]
    };
    r.table(
        "refinement 2: surging API goodput when idle low-priority APIs share its bottleneck",
        &["variant", "offender goodput (rps)"],
        offender_runs.iter().map(offender_row).collect(),
    );

    // Two equal-priority APIs with 3:1 offered skew on the shared
    // Recommendation bottleneck: the scenario refinement 3 (fair group
    // steps) exists for. Measured over the last 100 of 300 s.
    let rates = vec![
        (ob.getproduct, RateSchedule::constant(900.0)),
        (ob.getcart, RateSchedule::constant(300.0)),
    ];
    let skewed = Recipe::open_loop(&ob.topology, rates, 2022);
    let unfair = TopFullConfig {
        fair_group_steps: false,
        ..base.clone()
    };
    let splits = exec::run_arms(
        [
            (
                "Chiu-Jain group steps (default)",
                Roster::Config(base),
                skewed.clone(),
            ),
            ("multiplicative both ways", Roster::Config(unfair), skewed),
        ],
        300,
    );
    let split_row = |o: &exec::ArmOutcome| {
        let gp = o.result.mean_goodput_api(ob.getproduct, 200.0, 300.0);
        let gc = o.result.mean_goodput_api(ob.getcart, 200.0, 300.0);
        let ratio = gp.max(gc) / gp.min(gc).max(1.0);
        vec![o.label.clone(), f1(gc.min(gp)), format!("{ratio:.2}x")]
    };
    r.table(
        "refinement 3: equal-priority split under 3:1 offered skew (shared bottleneck)",
        &["variant", "minority API goodput (rps)", "majority/minority"],
        splits.iter().map(split_row).collect(),
    );
    r.note(
        "no paper counterpart: these are the engineering choices this \
         reproduction had to make where the paper's prose is ambiguous \
         (see DESIGN.md §5); negative deltas justify the defaults",
    );
    r
}
