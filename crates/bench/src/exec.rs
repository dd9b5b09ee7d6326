//! Running arms: the only code that turns a `(Roster, Engine)` pair into
//! a finished run, and the figure body most of §6 shares.
//!
//! An arm is a label, a [`Roster`] entry and the [`Recipe`] it runs
//! over. [`run_arms`] fans arms out through a [`RunPlan`] — each builds
//! its engine inside its worker — and hands back one [`ArmOutcome`] per
//! arm in submission order, so a report's bytes do not depend on the
//! worker count. [`Figure`] is the shape the paper's evaluation repeats:
//! a roster over one recipe, mean goodput per API and in total over a
//! window, optional timelines.

use crate::report::{f1, Report};
use crate::scenarios::{Recipe, Roster};
use cluster::runner::RunPlan;
use cluster::{ApiId, Engine, RunResult};

/// Everything an experiment may need from one finished run, captured
/// before the harness (and its non-`Send` engine) is dropped inside the
/// worker thread.
pub struct ArmOutcome {
    /// The roster label (or a caller-supplied override).
    pub label: String,
    /// The full per-interval timeline.
    pub result: RunResult,
}

/// One arm: install `roster` over `engine`, run `secs`, capture.
pub fn run_arm(label: &str, roster: Roster, engine: Engine, secs: u64) -> ArmOutcome {
    let mut h = roster.into_harness(engine);
    h.run_for_secs(secs);
    ArmOutcome {
        label: label.to_string(),
        result: h.into_result(),
    }
}

/// Run every `(label, roster, recipe)` arm for `secs` over the worker
/// pool; outcomes come back in arm order. Fetch any RL policies the
/// rosters need before calling this — training must not race.
pub fn run_arms<L: Into<String>>(
    arms: impl IntoIterator<Item = (L, Roster, Recipe)>,
    secs: u64,
) -> Vec<ArmOutcome> {
    run_arms_on(RunPlan::new(), arms, secs)
}

/// [`run_arms`] on a caller-sized plan (tests pin the worker count).
pub(crate) fn run_arms_on<L: Into<String>>(
    mut plan: RunPlan<'_, ArmOutcome>,
    arms: impl IntoIterator<Item = (L, Roster, Recipe)>,
    secs: u64,
) -> Vec<ArmOutcome> {
    for (label, roster, recipe) in arms {
        let label = label.into();
        plan.submit(move || run_arm(&label, roster, recipe.engine(), secs));
    }
    plan.run()
}

/// Which goodput a column or a timeline reads.
#[derive(Clone, Copy)]
pub enum Of {
    Api(ApiId),
    Total,
}

impl Of {
    /// Mean over the inclusive window `[from, to]` (seconds).
    pub fn mean(self, r: &RunResult, (from, to): (f64, f64)) -> f64 {
        match self {
            Of::Api(api) => r.mean_goodput_api(api, from, to),
            Of::Total => r.mean_total_goodput(from, to),
        }
    }

    /// The `(seconds, rps)` timeline.
    pub fn series(self, r: &RunResult) -> Vec<(f64, f64)> {
        match self {
            Of::Api(api) => r.goodput_series(api),
            Of::Total => r.total_goodput_series(),
        }
    }
}

/// The outcome labelled `label`; a figure naming an arm it did not
/// submit is a bug in the figure.
pub fn arm<'a>(runs: &'a [ArmOutcome], label: &str) -> &'a ArmOutcome {
    let found = runs.iter().find(|o| o.label == label);
    found.unwrap_or_else(|| panic!("no arm labelled '{label}'"))
}

/// An experiment as values: a recipe, its arms and a window, and what
/// to print of them.
pub struct Figure {
    pub recipe: Recipe,
    pub arms: Vec<(&'static str, Roster)>,
    /// Simulated seconds each arm runs.
    pub secs: u64,
    /// Goodput means are taken over `[from, to]` simulated seconds.
    pub window: (f64, f64),
    /// The table: its name, the header of its arm column, and one
    /// mean-goodput column per `(header, of)`.
    pub table: (&'static str, &'static str, Vec<(&'static str, Of)>),
    /// Timelines `(series name, arm, of)`.
    pub timelines: Vec<(&'static str, &'static str, Of)>,
}

impl Figure {
    /// Run the arms and write table and timelines into `r`;
    /// the outcomes come back for whatever else the figure reports.
    pub fn run(self, r: &mut Report) -> Vec<ArmOutcome> {
        self.run_on(RunPlan::new(), r)
    }

    /// [`Figure::run`] on a caller-sized plan (tests pin the worker count).
    pub(crate) fn run_on(self, plan: RunPlan<'_, ArmOutcome>, r: &mut Report) -> Vec<ArmOutcome> {
        let recipe = &self.recipe;
        let arms = self.arms.into_iter();
        let runs = run_arms_on(plan, arms.map(|(l, ro)| (l, ro, recipe.clone())), self.secs);
        let (name, arm_header, columns) = self.table;
        let mut headers = vec![arm_header];
        headers.extend(columns.iter().map(|(h, _)| *h));
        let row = |o: &ArmOutcome| {
            let means = columns
                .iter()
                .map(|(_, of)| f1(of.mean(&o.result, self.window)));
            std::iter::once(o.label.clone()).chain(means).collect()
        };
        r.table(name, &headers, runs.iter().map(row).collect());
        for (name, label, of) in self.timelines {
            r.series(name, of.series(&arm(&runs, label).result));
        }
        runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fig12;
    use crate::scenarios::boutique_closed_loop;
    use cluster::RateSchedule;

    fn fingerprint(o: &ArmOutcome) -> Vec<u64> {
        let bits = o.result.samples.iter().flat_map(|s| s.goodput.clone());
        bits.map(f64::to_bits).collect()
    }

    #[test]
    fn run_arms_matches_serial_execution() {
        let recipe = crate::scenarios::boutique_users(RateSchedule::constant(400.0), 7);
        let arms = || {
            [
                ("no-control", Roster::None),
                ("topfull-mimd", Roster::TopFullMimd),
                ("dagor", Roster::Dagor { alpha: 0.05 }),
            ]
            .map(|(label, roster)| (label, roster, recipe.clone()))
        };
        let parallel = run_arms_on(RunPlan::new().with_workers(4), arms(), 15);
        let serial: Vec<ArmOutcome> = arms()
            .into_iter()
            .map(|(label, roster, recipe)| run_arm(label, roster, recipe.engine(), 15))
            .collect();
        assert_eq!(parallel.len(), serial.len());
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.label, s.label);
            assert_eq!(fingerprint(p), fingerprint(s), "arm {}", p.label);
        }
    }

    #[test]
    fn outcome_captures_harness_state() {
        let o = run_arm("none", Roster::None, boutique_closed_loop(100, 3).1, 5);
        assert_eq!(o.label, "none");
        assert_eq!(o.result.samples.len(), 5);
        assert!(o.result.samples.iter().all(|s| s.offered.len() == 5));
    }

    /// Fig. 12's DAGOR and TopFull arms through the shared figure body on
    /// a 10-second horizon: the report's bytes do not depend on the
    /// worker count.
    #[test]
    fn figure_report_is_identical_across_worker_counts() {
        let policy = crate::models::load("transfer_ob").expect("committed model");
        let json = |workers: usize| {
            let figure = Figure {
                secs: 10,
                window: (3.0, 10.0),
                ..fig12::figure(policy.clone())
            };
            let mut r = Report::new("fig12", "worker-count invariance");
            let runs = figure.run_on(RunPlan::new().with_workers(workers), &mut r);
            assert_eq!(runs.len(), 2);
            assert_eq!(r.tables[0].rows.len(), 2);
            assert_eq!(r.tables[0].columns.len(), 3);
            assert_eq!(r.series.len(), 4);
            serde_json::to_string_pretty(&r).expect("json")
        };
        let serial = json(1);
        assert!(serial.contains("\"topfull\""), "{serial}");
        assert_eq!(serial, json(4));
    }

    #[test]
    #[should_panic(expected = "no arm labelled 'dagor'")]
    fn naming_an_arm_that_did_not_run_is_a_bug() {
        let runs = [run_arm(
            "none",
            Roster::None,
            boutique_closed_loop(10, 1).1,
            1,
        )];
        arm(&runs, "dagor");
    }
}
