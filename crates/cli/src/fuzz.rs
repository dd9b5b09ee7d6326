//! Seeded property-based scenario fuzzer.
//!
//! Mutates workflow genomes (phase shapes, rates, durations, fault
//! schedules) and evaluates each against the SLO-violation objectives
//! in [`crate::objectives`], always comparing the controller arm to a
//! no-controller oracle run of the same genome. Findings are shrunk to
//! minimal reproducers and written out as both the workflow genome and
//! the compiled plain scenario, so `topfull run` can replay them with
//! no knowledge of the fuzzer.
//!
//! Everything is deterministic per seed: the mutation stream comes
//! from one seeded [`SmallRng`], the simulator runs are deterministic,
//! and no wall-clock state leaks into the report.

use crate::objectives::{self, Objective, Violation};
use crate::schema::{AppSpec, ControllerSpec, FaultSpecJson, Scenario};
use crate::shrink;
use crate::workflow::{PhaseSpec, TrackSpec, WorkflowSpec};
use crate::{run_scenario, ScenarioOutcome};
use cluster::runner::RunPlan;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::path::PathBuf;

/// Fuzzer knobs. `Default` matches the CLI's defaults.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Seed for the mutation stream (and every generated scenario).
    pub seed: u64,
    /// Genomes to evaluate (each costs an arm + oracle simulator run).
    pub iters: u32,
    /// Where reproducers land; `None` = don't write files.
    pub out_dir: Option<PathBuf>,
    /// Starting genome; `None` = the built-in two-tier base.
    pub base: Option<WorkflowSpec>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: crate::schema::default_seed(),
            iters: 40,
            out_dir: None,
            base: None,
        }
    }
}

/// Cap on the live corpus; mutated genomes replace random slots beyond
/// this, keeping the pool diverse without unbounded growth.
const CORPUS_CAP: usize = 16;

/// Simulator-pair evaluations the shrinker may spend per finding.
const MAX_SHRINK_EVALS: u32 = 60;

/// One confirmed, shrunk weakness.
#[derive(Clone, Debug, Serialize)]
pub struct Finding {
    pub iter: u32,
    /// Objective slug (`collapse`, `reconvergence`, `breach`, `ringing`).
    pub objective: String,
    /// The numbers that tripped it, from the shrunk reproducer's run.
    pub detail: String,
    /// Shrink steps accepted / pair-evals spent getting minimal.
    pub shrink_steps: u32,
    pub shrink_evals: u32,
    /// Arm-journal fingerprint of the shrunk reproducer (determinism
    /// receipt: re-running the reproducer must print this).
    pub journal_fingerprint: String,
    /// Files written (compiled scenario, then workflow genome); empty
    /// when no `out_dir` was configured.
    pub files: Vec<String>,
    /// The shrunk genome itself.
    pub genome: WorkflowSpec,
}

/// The full fuzz campaign result.
#[derive(Clone, Debug, Serialize)]
pub struct FuzzReport {
    pub seed: u64,
    pub iters: u32,
    /// Simulator pair-evaluations spent (campaign + shrinking).
    pub pair_evals: u32,
    pub findings: Vec<Finding>,
}

/// Render the campaign result for humans.
pub fn render_fuzz(r: &FuzzReport) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "fuzz: seed {} — {} genomes, {} simulator pairs, {} finding(s)",
        r.seed,
        r.iters,
        r.pair_evals,
        r.findings.len()
    );
    for f in &r.findings {
        let _ = writeln!(
            s,
            "  [{}] iter {}: {} (shrunk in {} steps / {} evals, fp {})",
            f.objective, f.iter, f.detail, f.shrink_steps, f.shrink_evals, f.journal_fingerprint
        );
        for file in &f.files {
            let _ = writeln!(s, "      wrote {file}");
        }
    }
    if r.findings.is_empty() {
        let _ = writeln!(s, "  no objective tripped");
    }
    s
}

/// The built-in base genome: the repo's canonical two-tier app (backend
/// caps near 100 rps) under a flash crowd — enough headroom below and
/// pressure above that mutations can reach every objective.
pub fn base_workflow() -> WorkflowSpec {
    WorkflowSpec {
        name: "fuzz-base".into(),
        seed: crate::schema::default_seed(),
        slo_ms: crate::schema::default_slo_ms(),
        app: Scenario::example().app,
        tracks: vec![TrackSpec {
            api: "get".into(),
            phases: vec![
                PhaseSpec::Plateau {
                    duration_secs: 30,
                    rate: 60.0,
                },
                PhaseSpec::FlashCrowd {
                    duration_secs: 60,
                    base: 60.0,
                    peak: 240.0,
                    burst_from_secs: 10,
                    burst_until_secs: 25,
                },
                PhaseSpec::Plateau {
                    duration_secs: 30,
                    rate: 60.0,
                },
            ],
        }],
        controller: ControllerSpec::topfull("mimd"),
        faults: vec![],
        resilience: None,
        sharding: None,
        measure_from_secs: 20,
    }
}

fn service_names(app: &AppSpec) -> Vec<String> {
    match app {
        AppSpec::Inline { services, .. } => services.iter().map(|s| s.name.clone()).collect(),
        // Builtin topologies resolve service names at build time; the
        // all-services form (service: None) is always valid, so fault
        // mutations just use that.
        AppSpec::Builtin { .. } => vec![],
    }
}

/// A random fault whose window fits inside `duration`. Pod kills are
/// excluded on purpose: a permanent capacity loss disables the
/// re-convergence objective and drowns the gray-failure signal.
fn random_fault(rng: &mut SmallRng, duration: u64, services: &[String]) -> FaultSpecJson {
    let dur = duration.max(30);
    let from_secs = rng.gen_range(0..dur * 3 / 4);
    let until_secs = (from_secs + rng.gen_range(10..40u64)).min(dur);
    let service = if services.is_empty() || rng.gen_bool(0.3) {
        None
    } else {
        Some(services[rng.gen_range(0..services.len())].clone())
    };
    match rng.gen_range(0..5u32) {
        0 => FaultSpecJson::SlowPods {
            from_secs,
            until_secs,
            service: service
                .or_else(|| services.first().cloned())
                .unwrap_or_else(|| "frontend".into()),
            factor: rng.gen_range(2.0..8.0),
        },
        1 => FaultSpecJson::NetworkDegrade {
            from_secs,
            until_secs,
            service,
            extra_latency_ms: rng.gen_range(100..1500),
            loss: if rng.gen_bool(0.5) {
                0.0
            } else {
                rng.gen_range(0.01..0.2)
            },
        },
        2 => FaultSpecJson::TelemetryDropout {
            from_secs,
            until_secs,
            service,
        },
        3 => FaultSpecJson::TelemetryNoise {
            from_secs,
            until_secs,
            sigma: rng.gen_range(0.3..1.5),
        },
        _ => FaultSpecJson::ControllerStall {
            from_secs,
            until_secs,
        },
    }
}

/// A random phase with rates around the cluster's interesting band.
fn random_phase(rng: &mut SmallRng) -> PhaseSpec {
    let duration_secs = rng.gen_range(20..60u64);
    match rng.gen_range(0..5u32) {
        0 => PhaseSpec::Plateau {
            duration_secs,
            rate: rng.gen_range(20.0..300.0),
        },
        1 => PhaseSpec::Ramp {
            duration_secs,
            from: rng.gen_range(10.0..100.0),
            to: rng.gen_range(100.0..400.0),
        },
        2 => {
            let burst_from_secs = rng.gen_range(0..duration_secs / 2);
            let burst_until_secs =
                (burst_from_secs + rng.gen_range(5..duration_secs / 2)).min(duration_secs);
            PhaseSpec::FlashCrowd {
                duration_secs,
                base: rng.gen_range(20.0..100.0),
                peak: rng.gen_range(150.0..500.0),
                burst_from_secs,
                burst_until_secs: burst_until_secs.max(burst_from_secs + 1),
            }
        }
        3 => PhaseSpec::Diurnal {
            duration_secs,
            base: rng.gen_range(50.0..150.0),
            amplitude: rng.gen_range(20.0..120.0),
            period_secs: rng.gen_range(10..40),
        },
        _ => PhaseSpec::Oscillate {
            duration_secs,
            low: rng.gen_range(10.0..80.0),
            high: rng.gen_range(120.0..400.0),
            period_secs: rng.gen_range(4..30),
        },
    }
}

/// Scale every rate parameter of a phase by `k`.
fn scale_rates(p: &mut PhaseSpec, k: f64) {
    match p {
        PhaseSpec::Plateau { rate, .. } => *rate *= k,
        PhaseSpec::Ramp { from, to, .. } => {
            *from *= k;
            *to *= k;
        }
        PhaseSpec::FlashCrowd { base, peak, .. } => {
            *base *= k;
            *peak *= k;
        }
        PhaseSpec::Diurnal {
            base, amplitude, ..
        } => {
            *base *= k;
            *amplitude *= k;
        }
        PhaseSpec::Oscillate { low, high, .. } => {
            *low *= k;
            *high *= k;
        }
    }
}

/// One mutated child of `parent`. Applies 1–2 random edits and repairs
/// invariants so the child always compiles.
pub fn mutate(rng: &mut SmallRng, parent: &WorkflowSpec) -> WorkflowSpec {
    let mut wf = parent.clone();
    let services = service_names(&wf.app);
    let edits = 1 + rng.gen_range(0..2u32);
    for _ in 0..edits {
        let ti = rng.gen_range(0..wf.tracks.len());
        let n_phases = wf.tracks[ti].phases.len();
        let pi = rng.gen_range(0..n_phases);
        match rng.gen_range(0..7u32) {
            // Push a phase's rates up or down.
            0 => scale_rates(&mut wf.tracks[ti].phases[pi], rng.gen_range(0.5..2.0)),
            // Stretch or compress a phase in time.
            1 => {
                let k = rng.gen_range(0.5..2.0);
                let p = &mut wf.tracks[ti].phases[pi];
                let d = ((p.duration_secs() as f64 * k) as u64).clamp(8, 120);
                *p = resize_phase(p, d);
            }
            // Grow the workload with a fresh phase.
            2 => {
                let p = random_phase(rng);
                let at = rng.gen_range(0..=n_phases);
                wf.tracks[ti].phases.insert(at, p);
            }
            // Drop a phase (keep at least one).
            3 if n_phases > 1 => {
                wf.tracks[ti].phases.remove(pi);
            }
            // Schedule a new gray fault.
            4 => {
                let f = random_fault(rng, wf.duration_secs(), &services);
                wf.faults.push(f);
            }
            // Remove a fault.
            5 if !wf.faults.is_empty() => {
                let fi = rng.gen_range(0..wf.faults.len());
                wf.faults.remove(fi);
            }
            // Fall back to a rate tweak when the structural edit
            // doesn't apply (single phase / no faults).
            _ => scale_rates(&mut wf.tracks[ti].phases[pi], rng.gen_range(0.75..1.5)),
        }
    }
    debug_assert!(wf.validate().is_ok(), "mutations must preserve validity");
    wf
}

/// Set a phase's duration, rescaling its internal landmarks to fit.
fn resize_phase(p: &PhaseSpec, new_d: u64) -> PhaseSpec {
    let old_d = p.duration_secs().max(1);
    let mut q = p.clone();
    match &mut q {
        PhaseSpec::Plateau { duration_secs, .. } | PhaseSpec::Ramp { duration_secs, .. } => {
            *duration_secs = new_d;
        }
        PhaseSpec::FlashCrowd {
            duration_secs,
            burst_from_secs,
            burst_until_secs,
            ..
        } => {
            *burst_from_secs = (*burst_from_secs * new_d / old_d).min(new_d.saturating_sub(2));
            *burst_until_secs =
                (*burst_until_secs * new_d / old_d).clamp(*burst_from_secs + 1, new_d);
            *duration_secs = new_d;
        }
        PhaseSpec::Diurnal { duration_secs, .. } | PhaseSpec::Oscillate { duration_secs, .. } => {
            *duration_secs = new_d;
        }
    }
    q
}

/// Run the controller arm and the no-controller oracle for one genome.
/// The pair fans out over the experiment worker pool; results come
/// back in submission order, so the pairing is deterministic at any
/// worker count.
pub fn run_pair(wf: &WorkflowSpec) -> Result<(ScenarioOutcome, ScenarioOutcome), String> {
    let arm_sc = wf.compile()?;
    let mut oracle_wf = wf.clone();
    oracle_wf.controller = ControllerSpec::None;
    oracle_wf.name = format!("{}-oracle", wf.name);
    let oracle_sc = oracle_wf.compile()?;
    let mut plan = RunPlan::new();
    plan.submit(move || run_scenario(&arm_sc));
    plan.submit(move || run_scenario(&oracle_sc));
    let mut results = plan.run().into_iter();
    let arm = results.next().expect("arm result")?;
    let oracle = results.next().expect("oracle result")?;
    Ok((arm, oracle))
}

/// Evaluate one genome against every objective.
fn violations_for(wf: &WorkflowSpec) -> Result<(Vec<Violation>, ScenarioOutcome), String> {
    let (arm, oracle) = run_pair(wf)?;
    let v = objectives::evaluate(wf, &arm, &oracle);
    Ok((v, arm))
}

/// Run a fuzz campaign. Deterministic per `cfg.seed`: the same config
/// finds the same genomes, shrinks them the same way, and reports the
/// same fingerprints.
pub fn run_fuzz(cfg: &FuzzConfig) -> Result<FuzzReport, String> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let base = cfg.base.clone().unwrap_or_else(base_workflow);
    base.compile()
        .map_err(|e| format!("base workflow does not compile: {e}"))?;
    let mut corpus: Vec<WorkflowSpec> = vec![base];
    let mut findings: Vec<Finding> = Vec::new();
    let mut found: Vec<Objective> = Vec::new();
    let mut pair_evals = 0u32;

    for iter in 0..cfg.iters {
        let parent = corpus[rng.gen_range(0..corpus.len())].clone();
        let mut genome = mutate(&mut rng, &parent);
        genome.name = format!("fuzz-{}-{}", cfg.seed, iter);
        genome.seed = cfg.seed;
        let (violations, _) = violations_for(&genome)?;
        pair_evals += 1;
        // Corpus update: every viable genome can become a parent, so
        // the walk drifts; replacement keeps the pool bounded.
        if corpus.len() < CORPUS_CAP {
            corpus.push(genome.clone());
        } else {
            let slot = rng.gen_range(1..corpus.len()); // slot 0 = base, kept
            corpus[slot] = genome.clone();
        }
        for v in violations {
            if found.contains(&v.objective) {
                continue; // one reproducer per weakness class
            }
            found.push(v.objective);
            let objective = v.objective;
            let mut shrink_evals = 0u32;
            let shrunk = shrink::shrink(&genome, MAX_SHRINK_EVALS, &mut |cand| {
                shrink_evals += 1;
                match violations_for(cand) {
                    Ok((vs, _)) => objectives::trips(&vs, objective),
                    Err(_) => false,
                }
            });
            pair_evals += shrink_evals;
            // Re-run the minimal genome for its detail + fingerprint.
            let (final_vs, final_arm) = violations_for(&shrunk.genome)?;
            pair_evals += 1;
            let detail = final_vs
                .iter()
                .find(|x| x.objective == objective)
                .map(|x| x.detail.clone())
                .unwrap_or_else(|| v.detail.clone());
            let jsonl = obs::to_jsonl(&final_arm.journal);
            let fingerprint = format!("{:#018x}", obs::journal_fingerprint(&jsonl));
            let files = match &cfg.out_dir {
                Some(dir) => write_finding(dir, cfg.seed, iter, objective, &shrunk.genome)?,
                None => vec![],
            };
            findings.push(Finding {
                iter,
                objective: objective.slug().into(),
                detail,
                shrink_steps: shrunk.steps,
                shrink_evals,
                journal_fingerprint: fingerprint,
                files,
                genome: shrunk.genome.clone(),
            });
        }
    }
    Ok(FuzzReport {
        seed: cfg.seed,
        iters: cfg.iters,
        pair_evals,
        findings,
    })
}

/// Write a reproducer pair: the compiled plain scenario (replayable by
/// `topfull run`/`check` with no fuzzer involved) and the workflow
/// genome (replayable by `topfull workflow` and the regression tests).
fn write_finding(
    dir: &std::path::Path,
    seed: u64,
    iter: u32,
    objective: Objective,
    genome: &WorkflowSpec,
) -> Result<Vec<String>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let stem = format!("fuzz_{seed}_{iter}_{}", objective.slug());
    let mut written = Vec::new();
    let sc = genome.compile()?;
    for (suffix, text) in [
        (
            ".json",
            serde_json::to_string_pretty(&sc).expect("scenario serializes"),
        ),
        (
            ".workflow.json",
            serde_json::to_string_pretty(genome).expect("workflow serializes"),
        ),
    ] {
        let path = dir.join(format!("{stem}{suffix}"));
        std::fs::write(&path, text + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        written.push(path.display().to_string());
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_workflow_compiles_and_validates() {
        let sc = base_workflow().compile().expect("compiles");
        crate::validate_scenario(&sc).expect("validates");
        assert_eq!(sc.duration_secs, 120);
    }

    #[test]
    fn mutation_stream_is_deterministic_per_seed() {
        let base = base_workflow();
        let mut a = SmallRng::seed_from_u64(99);
        let mut b = SmallRng::seed_from_u64(99);
        for _ in 0..50 {
            let ga = mutate(&mut a, &base);
            let gb = mutate(&mut b, &base);
            assert_eq!(
                serde_json::to_string(&ga).unwrap(),
                serde_json::to_string(&gb).unwrap()
            );
        }
    }

    #[test]
    fn mutants_always_compile() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut wf = base_workflow();
        for _ in 0..200 {
            wf = mutate(&mut rng, &wf);
            wf.compile().expect("every mutant compiles");
        }
    }

    #[test]
    fn run_pair_produces_arm_and_oracle() {
        let mut wf = base_workflow();
        // Shorten for test speed; keep the overload character.
        wf.tracks[0].phases = vec![PhaseSpec::Plateau {
            duration_secs: 30,
            rate: 150.0,
        }];
        wf.measure_from_secs = 10;
        let (arm, oracle) = run_pair(&wf).expect("pair runs");
        // 150 rps offered against a ~100 rps backend: uncontrolled, the
        // queues blow past the SLO and goodput collapses; the TopFull
        // arm sheds load and keeps serving. The pair existing to show
        // exactly this gap is what the objectives are built on.
        assert!(arm.total_goodput > 0.0);
        assert!(
            arm.total_goodput > oracle.total_goodput,
            "controller must beat the uncontrolled oracle under overload \
             (arm {:.1} vs oracle {:.1})",
            arm.total_goodput,
            oracle.total_goodput
        );
        assert!(!arm.journal.is_empty(), "controlled arm journals decisions");
    }
}
