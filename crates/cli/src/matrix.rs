//! Scenario matrices: workloads × fault plans × controller arms.
//!
//! A matrix names one base scenario and three axes. Each cell is the
//! base with its `workload`, `faults` and `controller` replaced by one
//! entry of each axis; the cells run through the experiment worker
//! pool. The report carries a journal fingerprint per cell, so two
//! matrix runs (or the same run at different `TOPFULL_WORKERS`) can be
//! diffed for determinism.

use crate::run_scenario;
use crate::schema::{ControllerSpec, FaultSpecJson, Scenario, WorkloadSpec};
use cluster::runner::RunPlan;
use serde::{Deserialize, Serialize};

/// A named workload.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct WorkloadDef {
    pub name: String,
    pub workload: WorkloadSpec,
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

/// The matrix: a base scenario and the three axes. Every cell replaces
/// the base's `workload`, `faults` and `controller`, so a base that
/// writes any of them is refused by key; its `workload` is the required
/// placeholder `{"type": "open_loop", "rates": []}`.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct MatrixSpec {
    pub base: Scenario,
    pub workloads: Vec<WorkloadDef>,
    /// Defaults to a single fault-free plan named `clean`.
    #[serde(default)]
    pub fault_plans: Vec<FaultPlanDef>,
    pub arms: Vec<ArmDef>,
}

/// One expanded cell: its id (`workload/fault_plan/arm`) and scenario.
#[derive(Clone, Debug)]
struct MatrixCell {
    id: String,
    workload: String,
    fault_plan: String,
    arm: String,
    scenario: Scenario,
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

    /// Cross product in axis order: workloads (outer) × fault plans ×
    /// arms (inner). Deterministic — this is the execution order. Every
    /// cell is validated, so a bad spec fails before any cell runs.
    fn expand(&self) -> Result<Vec<MatrixCell>, String> {
        if self.workloads.is_empty() {
            return Err("matrix has no workloads".into());
        }
        if self.arms.is_empty() {
            return Err("matrix has no arms".into());
        }
        if !matches!(&self.base.workload, WorkloadSpec::OpenLoop { rates } if rates.is_empty()) {
            return Err("base.workload: replaced by each workloads entry; write \
                 {\"type\": \"open_loop\", \"rates\": []}"
                .into());
        }
        if !self.base.faults.is_empty() {
            return Err("base.faults: replaced by each fault_plans entry".into());
        }
        if !matches!(self.base.controller, ControllerSpec::None) {
            return Err("base.controller: replaced by each arms entry".into());
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
        let mut cells = Vec::new();
        for w in &self.workloads {
            for fp in &self.fault_plans_or_clean() {
                for arm in &self.arms {
                    let id = format!("{}/{}/{}", w.name, fp.name, arm.name);
                    let scenario = Scenario {
                        name: format!("{}:{id}", self.base.name),
                        workload: w.workload.clone(),
                        faults: fp.faults.clone(),
                        controller: arm.controller.clone(),
                        ..self.base.clone()
                    };
                    crate::validate_scenario(&scenario).map_err(|e| format!("cell '{id}': {e}"))?;
                    cells.push(MatrixCell {
                        id,
                        workload: w.name.clone(),
                        fault_plan: fp.name.clone(),
                        arm: arm.name.clone(),
                        scenario,
                    });
                }
            }
        }
        Ok(cells)
    }

    /// Validate every cell without running; returns the cell count.
    pub fn check(&self) -> Result<usize, String> {
        self.expand().map(|cells| cells.len())
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
        let sc = cell.scenario.clone();
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
        matrix: spec.base.name.clone(),
        seed: spec.base.seed,
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
/// depth, as for [`crate::parse_scenario`].
pub fn parse_matrix(json: &str) -> Result<MatrixSpec, String> {
    serde_json::from_str(json).map_err(|e| format!("invalid matrix: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{PhaseSpec, ReportSpec, TrackSpec};

    fn one_track(phase: PhaseSpec) -> WorkloadSpec {
        WorkloadSpec::Phases {
            tracks: vec![TrackSpec {
                api: "get".into(),
                phases: vec![phase],
            }],
        }
    }

    fn spec_2x2() -> MatrixSpec {
        MatrixSpec {
            base: Scenario {
                name: "m".into(),
                duration_secs: 30,
                workload: WorkloadSpec::OpenLoop { rates: vec![] },
                controller: ControllerSpec::None,
                resilience: None,
                report: ReportSpec {
                    measure_from_secs: 10,
                    timeline: false,
                },
                ..Scenario::example()
            },
            workloads: vec![
                WorkloadDef {
                    name: "steady".into(),
                    workload: one_track(PhaseSpec::Plateau {
                        duration_secs: 30,
                        rate: 60.0,
                    }),
                },
                WorkloadDef {
                    name: "surge".into(),
                    workload: one_track(PhaseSpec::FlashCrowd {
                        duration_secs: 30,
                        base: 60.0,
                        peak: 300.0,
                        burst_from_secs: 10,
                        burst_until_secs: 20,
                    }),
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
        assert_eq!(cells[3].scenario.name, "m:surge/clean/topfull");
    }

    #[test]
    fn duplicate_axis_names_are_rejected() {
        let mut m = spec_2x2();
        m.arms[1].name = "none".into();
        assert!(m.expand().unwrap_err().contains("duplicate name 'none'"));
    }

    #[test]
    fn a_base_key_every_cell_replaces_is_refused() {
        let mut m = spec_2x2();
        m.base.faults = vec![FaultSpecJson::PodKill {
            at_secs: 5,
            service: "frontend".into(),
            pods: 1,
        }];
        let err = m.check().expect_err("base.faults");
        assert!(err.starts_with("base.faults: "), "{err}");
        let mut m = spec_2x2();
        m.base.controller = ControllerSpec::topfull("mimd");
        let err = m.check().expect_err("base.controller");
        assert!(err.starts_with("base.controller: "), "{err}");
        let mut m = spec_2x2();
        m.base.workload = m.workloads[0].workload.clone();
        let err = m.check().expect_err("base.workload");
        assert!(err.starts_with("base.workload: "), "{err}");
    }

    #[test]
    fn a_cell_that_does_not_validate_is_named() {
        let mut m = spec_2x2();
        m.base.duration_secs = 20;
        let err = m.check().expect_err("30 s tracks in a 20 s run");
        assert!(err.starts_with("cell 'steady/clean/none': "), "{err}");
        assert!(err.contains("workload.tracks[0]"), "{err}");
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
    fn check_validates_every_cell_without_running() {
        assert_eq!(spec_2x2().check().expect("checks"), 4);
    }
}
