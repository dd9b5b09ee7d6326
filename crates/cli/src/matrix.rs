//! Workflow matrices: workloads × fault plans × controller arms.
//!
//! A matrix spec names reusable pieces once — phase tracks, fault
//! schedules, controller arms — and the expander takes the cross
//! product, compiling every cell to a plain [`Scenario`] and executing
//! the cells through the experiment worker pool. The report carries a
//! journal fingerprint per cell, so two matrix runs (or the same run at
//! different `TOPFULL_WORKERS`) can be diffed for determinism.

use crate::run_scenario;
use crate::schema::{
    AppSpec, ControllerSpec, FaultSpecJson, ResilienceSpec, Scenario, ShardingSpec,
};
use crate::workflow::{TrackSpec, WorkflowSpec};
use cluster::runner::RunPlan;
use serde::{Deserialize, Serialize};

/// A named workload: one set of per-API phase tracks.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct WorkloadDef {
    pub name: String,
    pub tracks: Vec<TrackSpec>,
}

/// A named fault schedule.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FaultPlanDef {
    pub name: String,
    #[serde(default)]
    pub faults: Vec<FaultSpecJson>,
}

/// A named controller arm.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ArmDef {
    pub name: String,
    #[serde(default)]
    pub controller: ControllerSpec,
}

/// The matrix: shared app/SLO/seed plus the three axes.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct MatrixSpec {
    #[serde(default = "default_name")]
    pub name: String,
    #[serde(default = "crate::schema::default_seed")]
    pub seed: u64,
    #[serde(default = "crate::schema::default_slo_ms")]
    pub slo_ms: u64,
    pub app: AppSpec,
    #[serde(default)]
    pub resilience: Option<ResilienceSpec>,
    #[serde(default)]
    pub sharding: Option<ShardingSpec>,
    #[serde(default = "crate::schema::default_measure_from")]
    pub measure_from_secs: u64,
    pub workloads: Vec<WorkloadDef>,
    /// Defaults to a single fault-free plan named `clean`.
    #[serde(default)]
    pub fault_plans: Vec<FaultPlanDef>,
    pub arms: Vec<ArmDef>,
}

fn default_name() -> String {
    "matrix".into()
}

/// One expanded cell: its id (`workload/fault_plan/arm`) and workflow.
#[derive(Clone, Debug)]
struct MatrixCell {
    id: String,
    workload: String,
    fault_plan: String,
    arm: String,
    workflow: WorkflowSpec,
}

impl MatrixSpec {
    fn fault_plans_or_clean(&self) -> Vec<FaultPlanDef> {
        if self.fault_plans.is_empty() {
            vec![FaultPlanDef {
                name: "clean".into(),
                faults: vec![],
            }]
        } else {
            self.fault_plans.clone()
        }
    }

    fn validate(&self) -> Result<(), String> {
        if self.workloads.is_empty() {
            return Err("matrix has no workloads".into());
        }
        if self.arms.is_empty() {
            return Err("matrix has no arms".into());
        }
        for axis in [
            self.workloads.iter().map(|w| &w.name).collect::<Vec<_>>(),
            self.fault_plans.iter().map(|f| &f.name).collect(),
            self.arms.iter().map(|a| &a.name).collect(),
        ] {
            for (i, n) in axis.iter().enumerate() {
                if axis[..i].contains(n) {
                    return Err(format!("matrix axis has duplicate name '{n}'"));
                }
            }
        }
        Ok(())
    }

    /// Cross product in axis order: workloads (outer) × fault plans ×
    /// arms (inner). Deterministic — this is the execution order.
    fn expand(&self) -> Result<Vec<MatrixCell>, String> {
        self.validate()?;
        let mut cells = Vec::new();
        for w in &self.workloads {
            for fp in &self.fault_plans_or_clean() {
                for arm in &self.arms {
                    let id = format!("{}/{}/{}", w.name, fp.name, arm.name);
                    let wf = WorkflowSpec {
                        name: format!("{}:{id}", self.name),
                        seed: self.seed,
                        slo_ms: self.slo_ms,
                        app: self.app.clone(),
                        tracks: w.tracks.clone(),
                        controller: arm.controller.clone(),
                        faults: fp.faults.clone(),
                        resilience: self.resilience.clone(),
                        sharding: self.sharding.clone(),
                        measure_from_secs: self.measure_from_secs,
                    };
                    // Compile every cell up front so a bad spec fails
                    // before any cell runs, not mid-matrix.
                    wf.compile()?;
                    cells.push(MatrixCell {
                        id,
                        workload: w.name.clone(),
                        fault_plan: fp.name.clone(),
                        arm: arm.name.clone(),
                        workflow: wf,
                    });
                }
            }
        }
        Ok(cells)
    }

    /// Validate without running: expand + engine-level check per cell.
    pub fn check(&self) -> Result<usize, String> {
        let cells = self.expand()?;
        for c in &cells {
            let sc = c.workflow.compile()?;
            crate::validate_scenario(&sc).map_err(|e| format!("cell '{}': {e}", c.id))?;
        }
        Ok(cells.len())
    }
}

/// One executed cell's measurements.
#[derive(Clone, Debug, Serialize)]
struct MatrixRow {
    id: String,
    workload: String,
    fault_plan: String,
    arm: String,
    total_goodput: f64,
    crash_events: u64,
    journal_entries: usize,
    /// Order-sensitive FNV-1a over the cell's journal JSONL — equal
    /// across worker counts and repeat runs when the cell is
    /// deterministic.
    journal_fingerprint: String,
    /// Rate cuts / raises the controller issued (|action| ≥ 0.01).
    cuts: usize,
    raises: usize,
}

/// The comparative report for a whole matrix run.
#[derive(Clone, Debug, Serialize)]
pub struct MatrixReport {
    matrix: String,
    seed: u64,
    /// Number of expanded cells (workloads x fault plans x arms).
    cells: usize,
    rows: Vec<MatrixRow>,
}

fn count_actions(journal: &[obs::JournalEntry]) -> (usize, usize) {
    let mut cuts = 0;
    let mut raises = 0;
    for e in journal {
        if let obs::JournalEntry::RateAction { action, .. } = e {
            if *action <= -0.01 {
                cuts += 1;
            } else if *action >= 0.01 {
                raises += 1;
            }
        }
    }
    (cuts, raises)
}

/// Execute every cell through the experiment worker pool and tabulate.
/// Results come back in expansion order regardless of worker count.
pub fn run_matrix(spec: &MatrixSpec, workers: Option<usize>) -> Result<MatrixReport, String> {
    let cells = spec.expand()?;
    let mut plan = RunPlan::new();
    if let Some(w) = workers {
        plan = plan.with_workers(w);
    }
    for cell in &cells {
        let sc: Scenario = cell.workflow.compile()?;
        plan.submit(move || run_scenario(&sc));
    }
    let outcomes = plan.run();
    let mut rows = Vec::with_capacity(cells.len());
    for (cell, outcome) in cells.iter().zip(outcomes) {
        let outcome = outcome.map_err(|e| format!("cell '{}': {e}", cell.id))?;
        let jsonl = obs::to_jsonl(&outcome.journal);
        let (cuts, raises) = count_actions(&outcome.journal);
        rows.push(MatrixRow {
            id: cell.id.clone(),
            workload: cell.workload.clone(),
            fault_plan: cell.fault_plan.clone(),
            arm: cell.arm.clone(),
            total_goodput: outcome.total_goodput,
            crash_events: outcome.crash_events,
            journal_entries: outcome.journal.len(),
            journal_fingerprint: format!("{:#018x}", obs::journal_fingerprint(&jsonl)),
            cuts,
            raises,
        });
    }
    Ok(MatrixReport {
        matrix: spec.name.clone(),
        seed: spec.seed,
        cells: rows.len(),
        rows,
    })
}

/// Human-readable comparison table, grouped by workload × fault plan.
pub fn render_matrix(report: &MatrixReport) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "matrix: {} (seed {}, {} cells)",
        report.matrix, report.seed, report.cells
    );
    let _ = writeln!(
        s,
        "{:<40} {:>10} {:>8} {:>6} {:>7}  journal fp",
        "cell", "goodput", "crashes", "cuts", "raises"
    );
    let mut group = String::new();
    for r in &report.rows {
        let this_group = format!("{}/{}", r.workload, r.fault_plan);
        if this_group != group {
            if !group.is_empty() {
                let _ = writeln!(s);
            }
            group = this_group;
        }
        let _ = writeln!(
            s,
            "{:<40} {:>10.1} {:>8} {:>6} {:>7}  {}",
            r.id, r.total_goodput, r.crash_events, r.cuts, r.raises, r.journal_fingerprint
        );
    }
    // Per-group best arm, the comparative punchline.
    for r in best_arms(report) {
        let _ = writeln!(s, "best[{}]: {} at {:.1} rps", r.0, r.1, r.2);
    }
    s
}

/// Best arm per workload × fault-plan group.
fn best_arms(report: &MatrixReport) -> Vec<(String, String, f64)> {
    let mut out: Vec<(String, String, f64)> = Vec::new();
    for r in &report.rows {
        let g = format!("{}/{}", r.workload, r.fault_plan);
        match out.iter_mut().find(|(og, _, _)| *og == g) {
            Some(e) if r.total_goodput > e.2 => {
                e.1 = r.arm.clone();
                e.2 = r.total_goodput;
            }
            Some(_) => {}
            None => out.push((g, r.arm.clone(), r.total_goodput)),
        }
    }
    out
}

/// Parse a matrix spec from JSON text; unknown keys are errors at every
/// depth, as for [`crate::workflow::parse_workflow`].
pub fn parse_matrix(json: &str) -> Result<MatrixSpec, String> {
    serde_json::from_str(json).map_err(|e| format!("invalid matrix: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::PhaseSpec;

    fn spec_2x2() -> MatrixSpec {
        MatrixSpec {
            name: "m".into(),
            seed: 7,
            slo_ms: 1000,
            app: Scenario::example().app,
            resilience: None,
            sharding: None,
            measure_from_secs: 10,
            workloads: vec![
                WorkloadDef {
                    name: "steady".into(),
                    tracks: vec![TrackSpec {
                        api: "get".into(),
                        phases: vec![PhaseSpec::Plateau {
                            duration_secs: 30,
                            rate: 60.0,
                        }],
                    }],
                },
                WorkloadDef {
                    name: "surge".into(),
                    tracks: vec![TrackSpec {
                        api: "get".into(),
                        phases: vec![PhaseSpec::FlashCrowd {
                            duration_secs: 30,
                            base: 60.0,
                            peak: 300.0,
                            burst_from_secs: 10,
                            burst_until_secs: 20,
                        }],
                    }],
                },
            ],
            fault_plans: vec![],
            arms: vec![
                ArmDef {
                    name: "none".into(),
                    controller: ControllerSpec::None,
                },
                ArmDef {
                    name: "topfull".into(),
                    controller: ControllerSpec::topfull("mimd"),
                },
            ],
        }
    }

    #[test]
    fn expand_takes_the_cross_product_in_order() {
        let cells = spec_2x2().expand().expect("expands");
        let ids: Vec<&str> = cells.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(
            ids,
            vec![
                "steady/clean/none",
                "steady/clean/topfull",
                "surge/clean/none",
                "surge/clean/topfull",
            ]
        );
    }

    #[test]
    fn duplicate_axis_names_are_rejected() {
        let mut m = spec_2x2();
        m.arms[1].name = "none".into();
        assert!(m.expand().unwrap_err().contains("duplicate name 'none'"));
    }

    #[test]
    fn matrix_runs_and_fingerprints_are_worker_count_invariant() {
        let m = spec_2x2();
        let r1 = run_matrix(&m, Some(1)).expect("runs single-worker");
        let r4 = run_matrix(&m, Some(4)).expect("runs four-worker");
        assert_eq!(r1.cells, 4);
        let fp1: Vec<&str> = r1
            .rows
            .iter()
            .map(|r| r.journal_fingerprint.as_str())
            .collect();
        let fp4: Vec<&str> = r4
            .rows
            .iter()
            .map(|r| r.journal_fingerprint.as_str())
            .collect();
        assert_eq!(fp1, fp4, "worker count must not change any cell");
        let text = render_matrix(&r1);
        assert!(text.contains("surge/clean/topfull"), "{text}");
        assert!(text.contains("best[surge/clean]:"), "{text}");
    }

    #[test]
    fn parse_rejects_axis_typos() {
        let json = r#"{
            "app": {"type": "builtin", "name": "online-boutique"},
            "workloads": [{"name": "w", "tracks": []}],
            "arms": [{"nmae": "none"}]
        }"#;
        let err = parse_matrix(json).expect_err("arm typo rejected");
        assert!(err.contains(" arms[0]: unknown key 'nmae'"), "{err}");
        assert!(err.contains("did you mean 'name'?"), "{err}");
    }

    #[test]
    fn check_validates_every_cell_without_running() {
        assert_eq!(spec_2x2().check().expect("checks"), 4);
    }
}
