//! Greedy workflow shrinking: reduce a tripping genome to a minimal
//! reproducer that still trips the same objective.
//!
//! Candidates are generated in a fixed order (drop a fault, drop a
//! track, drop a phase, halve a long phase) and the first candidate
//! that still trips is accepted. Every acceptable candidate strictly
//! decreases [`size`], so the loop terminates no matter what the
//! tripping predicate does; an eval budget bounds the worst case on
//! top of that.

use crate::workflow::{PhaseSpec, WorkflowSpec};

/// Below this, phase durations stop halving — the simulator needs a
/// few control ticks for any behaviour to be observable at all.
const MIN_PHASE_SECS: u64 = 16;

/// Structural size of a genome: what shrinking minimises. Strictly
/// decreases on every accepted candidate (the termination argument).
pub fn size(wf: &WorkflowSpec) -> u64 {
    let components =
        wf.faults.len() + wf.tracks.len() + wf.tracks.iter().map(|t| t.phases.len()).sum::<usize>();
    wf.duration_secs() + 50 * components as u64
}

/// Halve a phase's duration, scaling its internal landmarks so the
/// shape survives (a flash crowd keeps its burst, a wave keeps cycles).
fn halve_phase(p: &PhaseSpec) -> PhaseSpec {
    let mut q = p.clone();
    match &mut q {
        PhaseSpec::Plateau { duration_secs, .. } | PhaseSpec::Ramp { duration_secs, .. } => {
            *duration_secs /= 2;
        }
        PhaseSpec::FlashCrowd {
            duration_secs,
            burst_from_secs,
            burst_until_secs,
            ..
        } => {
            *duration_secs /= 2;
            *burst_from_secs /= 2;
            *burst_until_secs = (*burst_until_secs / 2).max(*burst_from_secs + 1);
        }
        PhaseSpec::Diurnal {
            duration_secs,
            period_secs,
            ..
        }
        | PhaseSpec::Oscillate {
            duration_secs,
            period_secs,
            ..
        } => {
            *duration_secs /= 2;
            *period_secs = (*period_secs / 2).max(2);
        }
    }
    q
}

/// All one-step-smaller candidates, in shrink-preference order:
/// structure first (faults, tracks, phases), then time.
fn candidates(wf: &WorkflowSpec) -> Vec<WorkflowSpec> {
    let mut out = Vec::new();
    for i in 0..wf.faults.len() {
        let mut c = wf.clone();
        c.faults.remove(i);
        out.push(c);
    }
    if wf.tracks.len() > 1 {
        for i in 0..wf.tracks.len() {
            let mut c = wf.clone();
            c.tracks.remove(i);
            out.push(c);
        }
    }
    for ti in 0..wf.tracks.len() {
        if wf.tracks[ti].phases.len() > 1 {
            for pi in 0..wf.tracks[ti].phases.len() {
                let mut c = wf.clone();
                c.tracks[ti].phases.remove(pi);
                out.push(c);
            }
        }
    }
    for ti in 0..wf.tracks.len() {
        for pi in 0..wf.tracks[ti].phases.len() {
            if wf.tracks[ti].phases[pi].duration_secs() >= 2 * MIN_PHASE_SECS {
                let mut c = wf.clone();
                c.tracks[ti].phases[pi] = halve_phase(&wf.tracks[ti].phases[pi]);
                out.push(c);
            }
        }
    }
    // Only structurally valid, strictly smaller candidates survive —
    // the strict decrease is what guarantees termination.
    out.retain(|c| c.validate().is_ok() && size(c) < size(wf));
    out
}

/// Outcome of a shrink run.
pub struct Shrunk {
    /// The minimal genome that still trips (the input itself when no
    /// candidate survived).
    pub genome: WorkflowSpec,
    /// Predicate evaluations spent.
    pub evals: u32,
    /// Accepted shrink steps.
    pub steps: u32,
}

/// Greedily shrink `wf` under `still_trips` (true ⇒ the candidate still
/// reproduces the finding). The caller's predicate typically re-runs
/// the simulator pair, so `max_evals` caps total cost.
pub fn shrink(
    wf: &WorkflowSpec,
    max_evals: u32,
    still_trips: &mut dyn FnMut(&WorkflowSpec) -> bool,
) -> Shrunk {
    let mut current = wf.clone();
    let mut evals = 0u32;
    let mut steps = 0u32;
    'outer: loop {
        for cand in candidates(&current) {
            if evals >= max_evals {
                break 'outer;
            }
            evals += 1;
            if still_trips(&cand) {
                current = cand;
                steps += 1;
                continue 'outer; // restart from the smaller genome
            }
        }
        break; // no candidate trips: local minimum
    }
    Shrunk {
        genome: current,
        evals,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ControllerSpec, FaultSpecJson, Scenario};
    use crate::workflow::TrackSpec;

    fn big_genome() -> WorkflowSpec {
        WorkflowSpec {
            name: "big".into(),
            seed: 3,
            slo_ms: 1000,
            app: Scenario::example().app,
            tracks: vec![TrackSpec {
                api: "get".into(),
                phases: vec![
                    PhaseSpec::Plateau {
                        duration_secs: 64,
                        rate: 60.0,
                    },
                    PhaseSpec::FlashCrowd {
                        duration_secs: 64,
                        base: 60.0,
                        peak: 300.0,
                        burst_from_secs: 16,
                        burst_until_secs: 40,
                    },
                    PhaseSpec::Oscillate {
                        duration_secs: 64,
                        low: 20.0,
                        high: 200.0,
                        period_secs: 16,
                    },
                ],
            }],
            controller: ControllerSpec::default(),
            faults: vec![
                FaultSpecJson::ControllerStall {
                    from_secs: 10,
                    until_secs: 20,
                },
                FaultSpecJson::TelemetryNoise {
                    from_secs: 30,
                    until_secs: 50,
                    sigma: 0.8,
                },
            ],
            resilience: None,
            sharding: None,
            measure_from_secs: 10,
        }
    }

    #[test]
    fn shrinks_to_local_minimum_when_everything_trips() {
        // A predicate that always trips shrinks as far as the candidate
        // generator can go; the result must still be a valid workflow.
        let wf = big_genome();
        let out = shrink(&wf, 10_000, &mut |_| true);
        assert!(out.steps > 0, "some shrinking must happen");
        assert!(size(&out.genome) < size(&wf));
        out.genome.validate().expect("shrunk genome stays valid");
        assert!(out.genome.faults.is_empty(), "droppable faults dropped");
        assert_eq!(out.genome.tracks[0].phases.len(), 1);
        // Fixed point: no further candidate shrinks it.
        assert!(candidates(&out.genome)
            .iter()
            .all(|c| size(c) < size(&out.genome)));
    }

    #[test]
    fn returns_input_when_nothing_trips() {
        let wf = big_genome();
        let out = shrink(&wf, 10_000, &mut |_| false);
        assert_eq!(out.steps, 0);
        assert_eq!(size(&out.genome), size(&wf));
    }

    #[test]
    fn every_candidate_is_strictly_smaller() {
        // The termination invariant itself.
        let wf = big_genome();
        for c in candidates(&wf) {
            assert!(size(&c) < size(&wf), "candidate must shrink");
        }
    }

    #[test]
    fn respects_the_eval_budget() {
        let wf = big_genome();
        let mut calls = 0u32;
        let out = shrink(&wf, 5, &mut |_| {
            calls += 1;
            false
        });
        assert_eq!(out.evals, 5);
        assert_eq!(calls, 5);
    }
}
