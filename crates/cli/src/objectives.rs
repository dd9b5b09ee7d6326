//! SLO-violation objectives: what the fuzzer counts as a controller
//! weakness.
//!
//! Every objective compares the controller arm against an oracle run of
//! the *same* workflow with the controller off (`ControllerSpec::None`).
//! That comparison is what separates "the controller broke this" from
//! "nothing could have served this": a workload that saturates the
//! uncontrolled cluster too is not a finding.

use crate::workflow::WorkflowSpec;
use crate::ScenarioOutcome;
use obs::JournalEntry;

/// How much worse than the oracle the arm must be before we call it a
/// collapse (steady-state and post-quiesce tails both use this).
const COLLAPSE_RATIO: f64 = 0.6;
/// Oracle goodput below this is noise, not a baseline worth comparing to.
const MIN_BASELINE_RPS: f64 = 20.0;
/// Grace after the last disturbance before the re-convergence tail
/// starts: generous for queue drain, strict for control-loop recovery.
const SETTLE_SECS: f64 = 20.0;
/// Minimum tail length for the re-convergence comparison to mean much.
const MIN_TAIL_SECS: f64 = 15.0;
/// p99 must exceed `BREACH_FACTOR × SLO` for `BREACH_SECS` contiguous
/// seconds (outside latency-fault windows) to count as a breach.
const BREACH_FACTOR: f64 = 1.5;
const BREACH_SECS: f64 = 20.0;
/// Queues keep a fault's latency visible briefly after it clears.
const BREACH_GRACE_SECS: f64 = 5.0;
/// Ringing: at least this many rate-action sign flips...
const RING_FLIPS: usize = 8;
/// ...inside a sliding window this long, ignoring near-zero actions.
const RING_WINDOW_SECS: f64 = 30.0;
const RING_MIN_ACTION: f64 = 0.01;

/// The four weakness classes the fuzzer hunts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Objective {
    /// Steady-state goodput collapsed vs the no-controller oracle.
    GoodputCollapse,
    /// Goodput never recovered after the last disturbance cleared.
    ReconvergenceFailure,
    /// p99 stayed above the SLO band with no exonerating fault active.
    SustainedBreach,
    /// The rate controller oscillated (many sign flips in a short span).
    Ringing,
    /// The controller arm burned error budget to page severity while
    /// the uncontrolled oracle never paged — the control loop *caused*
    /// an SLO incident instead of preventing one.
    BudgetBurn,
}

impl Objective {
    /// Stable slug, used in reproducer filenames and reports.
    pub(crate) fn slug(self) -> &'static str {
        match self {
            Objective::GoodputCollapse => "collapse",
            Objective::ReconvergenceFailure => "reconvergence",
            Objective::SustainedBreach => "breach",
            Objective::Ringing => "ringing",
            Objective::BudgetBurn => "burn",
        }
    }
}

/// One tripped objective, with the numbers that tripped it.
#[derive(Clone, Debug)]
pub struct Violation {
    pub objective: Objective,
    pub detail: String,
}

/// Mean of the `(t, v)` series over `t ∈ [from, to)`; `None` when the
/// span holds no samples.
fn window_mean(series: &[(f64, f64)], from: f64, to: f64) -> Option<f64> {
    let xs: Vec<f64> = series
        .iter()
        .filter(|(t, _)| *t >= from && *t < to)
        .map(|(_, v)| *v)
        .collect();
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

fn in_fault_window(t: f64, windows: &[(f64, f64)]) -> bool {
    windows
        .iter()
        .any(|(from, until)| t >= *from && t < *until + BREACH_GRACE_SECS)
}

/// Evaluate every objective for `arm` against the no-controller
/// `oracle` run of the same compiled workflow. Returns all violations,
/// strongest class first.
pub fn evaluate(
    wf: &WorkflowSpec,
    arm: &ScenarioOutcome,
    oracle: &ScenarioOutcome,
) -> Vec<Violation> {
    let mut out = Vec::new();

    // 1. Steady-state goodput collapse. Both outcomes already hold the
    // steady-state mean over the workflow's measurement window.
    if oracle.total_goodput >= MIN_BASELINE_RPS
        && arm.total_goodput < COLLAPSE_RATIO * oracle.total_goodput
    {
        out.push(Violation {
            objective: Objective::GoodputCollapse,
            detail: format!(
                "steady-state goodput {:.1} rps vs {:.1} rps uncontrolled ({:.0}%)",
                arm.total_goodput,
                oracle.total_goodput,
                100.0 * arm.total_goodput / oracle.total_goodput
            ),
        });
    }

    // 2. Failure to re-converge after the input quiesces. Skipped when
    // the workflow never quiesces (permanent faults) or leaves no tail.
    if let Some(q) = wf.quiesce_secs() {
        let tail_from = q + SETTLE_SECS;
        let end = wf.duration_secs() as f64;
        if end - tail_from >= MIN_TAIL_SECS {
            if let (Some(a), Some(b)) = (
                window_mean(&arm.timeline, tail_from, end),
                window_mean(&oracle.timeline, tail_from, end),
            ) {
                if b >= MIN_BASELINE_RPS && a < COLLAPSE_RATIO * b {
                    out.push(Violation {
                        objective: Objective::ReconvergenceFailure,
                        detail: format!(
                            "tail goodput (t≥{tail_from:.0}s, {SETTLE_SECS:.0}s after the last \
                             disturbance) {a:.1} rps vs {b:.1} rps uncontrolled"
                        ),
                    });
                }
            }
        }
    }

    // 3. Sustained p99 breach, excluding spans where an exogenous
    // latency fault is active (the controller cannot shed those).
    let slo_secs = wf.slo_ms as f64 / 1000.0;
    let threshold = BREACH_FACTOR * slo_secs;
    let windows = wf.latency_fault_windows();
    let mut span_start: Option<f64> = None;
    let mut worst_span = 0.0f64;
    let mut worst_at = 0.0f64;
    for &(t, p99) in &arm.p99_timeline {
        let breaching = p99 > threshold && !in_fault_window(t, &windows);
        match (breaching, span_start) {
            (true, None) => span_start = Some(t),
            (true, Some(s)) => {
                if t - s > worst_span {
                    worst_span = t - s;
                    worst_at = s;
                }
            }
            (false, Some(_)) => span_start = None,
            (false, None) => {}
        }
    }
    if worst_span >= BREACH_SECS {
        out.push(Violation {
            objective: Objective::SustainedBreach,
            detail: format!(
                "p99 above {BREACH_FACTOR}×SLO for {worst_span:.0}s starting t={worst_at:.0}s \
                 with no latency fault active"
            ),
        });
    }

    // 4. Ringing: the controller flips a target's action sign over and
    // over inside a short window — limit oscillation, not convergence.
    let mut per_target: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    for e in &arm.journal {
        if let JournalEntry::RateAction {
            t,
            target_name,
            action,
            ..
        } = e
        {
            if action.abs() < RING_MIN_ACTION {
                continue;
            }
            match per_target.iter_mut().find(|(n, _)| n == target_name) {
                Some((_, v)) => v.push((*t, *action)),
                None => per_target.push((target_name.clone(), vec![(*t, *action)])),
            }
        }
    }
    for (name, actions) in &per_target {
        let flips: Vec<f64> = actions
            .windows(2)
            .filter(|w| w[0].1.signum() != w[1].1.signum())
            .map(|w| w[1].0)
            .collect();
        let ringing = flips
            .windows(RING_FLIPS)
            .any(|w| w[RING_FLIPS - 1] - w[0] <= RING_WINDOW_SECS);
        if ringing {
            out.push(Violation {
                objective: Objective::Ringing,
                detail: format!(
                    "'{name}' rate actions flipped sign ≥{RING_FLIPS} times within \
                     {RING_WINDOW_SECS:.0}s"
                ),
            });
            break; // one ringing report per run is enough signal
        }
    }

    // 5. Budget burn the oracle avoided. Shedding spends no error
    // budget, so a well-behaved controller should page *less* than the
    // uncontrolled run — an arm that pages while the oracle never does
    // turned overload control into an SLO incident.
    let pages = |o: &ScenarioOutcome| {
        o.journal
            .iter()
            .filter(|e| matches!(e, JournalEntry::SloBurn { to, .. } if to == "page"))
            .count()
    };
    let arm_pages = pages(arm);
    if arm_pages > 0 && pages(oracle) == 0 {
        out.push(Violation {
            objective: Objective::BudgetBurn,
            detail: format!(
                "{arm_pages} page-severity burn escalation(s) under control; the \
                 uncontrolled oracle never paged"
            ),
        });
    }

    out.sort_by_key(|v| v.objective);
    out
}

/// Does `violations` trip the given objective?
pub fn trips(violations: &[Violation], objective: Objective) -> bool {
    violations.iter().any(|v| v.objective == objective)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ControllerSpec, Scenario};
    use crate::workflow::{PhaseSpec, TrackSpec};

    fn outcome(goodput: f64, timeline: Vec<(f64, f64)>, p99: Vec<(f64, f64)>) -> ScenarioOutcome {
        ScenarioOutcome {
            name: "t".into(),
            duration_secs: 120,
            live: false,
            steady_from_secs: 30.0,
            goodput_per_api: vec![],
            goodput_timeline_per_api: vec![],
            total_goodput: goodput,
            offered_per_api: vec![],
            crash_events: 0,
            resilience: Default::default(),
            timeline,
            p99_timeline: p99,
            journal: vec![],
            shard_plane: None,
            shard_guards: None,
            live_rejects: None,
            traces: vec![],
        }
    }

    fn wf() -> WorkflowSpec {
        WorkflowSpec {
            name: "t".into(),
            seed: 1,
            slo_ms: 1000,
            app: Scenario::example().app,
            tracks: vec![TrackSpec {
                api: "get".into(),
                phases: vec![PhaseSpec::Plateau {
                    duration_secs: 120,
                    rate: 80.0,
                }],
            }],
            controller: ControllerSpec::default(),
            faults: vec![],
            resilience: None,
            sharding: None,
            measure_from_secs: 30,
        }
    }

    #[test]
    fn collapse_requires_a_real_baseline() {
        let arm = outcome(10.0, vec![], vec![]);
        let weak_oracle = outcome(15.0, vec![], vec![]);
        assert!(evaluate(&wf(), &arm, &weak_oracle).is_empty());
        let strong_oracle = outcome(90.0, vec![], vec![]);
        let v = evaluate(&wf(), &arm, &strong_oracle);
        assert!(trips(&v, Objective::GoodputCollapse), "{v:?}");
    }

    #[test]
    fn breach_ignores_spans_covered_by_latency_faults() {
        let p99: Vec<(f64, f64)> = (0..120).map(|t| (t as f64, 2.0)).collect();
        let arm = outcome(80.0, vec![], p99);
        let oracle = outcome(80.0, vec![], vec![]);
        let v = evaluate(&wf(), &arm, &oracle);
        assert!(trips(&v, Objective::SustainedBreach));

        let mut faulted = wf();
        faulted
            .faults
            .push(crate::schema::FaultSpecJson::NetworkDegrade {
                from_secs: 0,
                until_secs: 120,
                service: None,
                extra_latency_ms: 1500,
                loss: 0.0,
            });
        let v = evaluate(&faulted, &arm, &oracle);
        assert!(
            !trips(&v, Objective::SustainedBreach),
            "fault-covered breach must not count: {v:?}"
        );
    }

    #[test]
    fn ringing_needs_dense_sign_flips() {
        let mut arm = outcome(80.0, vec![], vec![]);
        for i in 0..20 {
            arm.journal.push(JournalEntry::RateAction {
                t: i as f64, // alternating sign every second: rings
                target: 0,
                target_name: "get".into(),
                apis: "0".into(),
                action: if i % 2 == 0 { 0.3 } else { -0.3 },
                goodput_ratio: 1.0,
                latency_ratio: 1.0,
                total_limit: 100.0,
                reason: "test".into(),
            });
        }
        let oracle = outcome(80.0, vec![], vec![]);
        let v = evaluate(&wf(), &arm, &oracle);
        assert!(trips(&v, Objective::Ringing), "{v:?}");

        // Same flips spread over 400s: converging, not ringing.
        for e in arm.journal.iter_mut() {
            if let JournalEntry::RateAction { t, .. } = e {
                *t *= 20.0;
            }
        }
        let v = evaluate(&wf(), &arm, &oracle);
        assert!(!trips(&v, Objective::Ringing), "{v:?}");
    }

    #[test]
    fn budget_burn_compares_page_counts_against_the_oracle() {
        let burn = |to: &str| JournalEntry::SloBurn {
            t: 25.0,
            api: 0,
            api_name: "get".into(),
            from: "ok".into(),
            to: to.into(),
            fast_burn: 30.0,
            slow_burn: 4.0,
            budget_remaining: 0.5,
        };
        let mut arm = outcome(80.0, vec![], vec![]);
        arm.journal.push(burn("page"));
        let oracle = outcome(80.0, vec![], vec![]);
        let v = evaluate(&wf(), &arm, &oracle);
        assert!(trips(&v, Objective::BudgetBurn), "{v:?}");

        // If the oracle paged too, nothing could have served this —
        // not a controller weakness.
        let mut paged_oracle = outcome(80.0, vec![], vec![]);
        paged_oracle.journal.push(burn("page"));
        let v = evaluate(&wf(), &arm, &paged_oracle);
        assert!(!trips(&v, Objective::BudgetBurn), "{v:?}");

        // Ticket-severity smoulders don't trip the objective.
        let mut ticketed = outcome(80.0, vec![], vec![]);
        ticketed.journal.push(burn("ticket"));
        let v = evaluate(&wf(), &ticketed, &oracle);
        assert!(!trips(&v, Objective::BudgetBurn), "{v:?}");
        assert_eq!(Objective::BudgetBurn.slug(), "burn");
    }

    #[test]
    fn reconvergence_watches_the_post_quiesce_tail() {
        let mut w = wf();
        w.tracks[0].phases = vec![PhaseSpec::FlashCrowd {
            duration_secs: 120,
            base: 60.0,
            peak: 400.0,
            burst_from_secs: 20,
            burst_until_secs: 40,
        }];
        // Quiesce at 40s, tail from 60s. Arm stuck at 5 rps; oracle 60.
        let arm_tl: Vec<(f64, f64)> = (0..120).map(|t| (t as f64, 5.0)).collect();
        let orc_tl: Vec<(f64, f64)> = (0..120).map(|t| (t as f64, 60.0)).collect();
        let arm = outcome(5.0, arm_tl, vec![]);
        let oracle = outcome(60.0, orc_tl, vec![]);
        let v = evaluate(&w, &arm, &oracle);
        assert!(trips(&v, Objective::ReconvergenceFailure), "{v:?}");

        // A permanent pod kill removes the objective entirely.
        w.faults.push(crate::schema::FaultSpecJson::PodKill {
            at_secs: 30,
            service: "backend".into(),
            pods: 1,
        });
        let v = evaluate(&w, &arm, &oracle);
        assert!(!trips(&v, Objective::ReconvergenceFailure), "{v:?}");
    }
}
