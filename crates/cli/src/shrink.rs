//! Greedy genome shrinking: reduce a tripping scenario to a minimal
//! reproducer that still trips the same objective.
//!
//! Candidates are generated in a fixed order (drop a fault, drop a
//! track, drop a phase, halve a long phase) and the first candidate
//! that still trips is accepted. Every acceptable candidate strictly
//! decreases [`size`], so the loop terminates no matter what the
//! tripping predicate does; an eval budget bounds the worst case on
//! top of that.

use crate::build::phase_rates;
use crate::fuzz::{longest_track, tracks, tracks_mut};
use crate::schema::{PhaseSpec, Scenario};

/// Below this, phase durations stop halving — the simulator needs a
/// few control ticks for any behaviour to be observable at all.
const MIN_PHASE_SECS: u64 = 16;

/// Structural size of a genome: what shrinking minimises. Strictly
/// decreases on every accepted candidate (the termination argument).
pub fn size(sc: &Scenario) -> u64 {
    let own = tracks(sc);
    let components =
        sc.faults.len() + own.len() + own.iter().map(|t| t.phases.len()).sum::<usize>();
    longest_track(sc) + 50 * components as u64
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
/// structure first (faults, tracks, phases), then time. Each lasts its
/// longest track.
fn candidates(sc: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    for i in 0..sc.faults.len() {
        let mut c = sc.clone();
        c.faults.remove(i);
        out.push(c);
    }
    let own = tracks(sc);
    if own.len() > 1 {
        for i in 0..own.len() {
            let mut c = sc.clone();
            tracks_mut(&mut c).remove(i);
            out.push(c);
        }
    }
    for (ti, t) in own.iter().enumerate() {
        if t.phases.len() > 1 {
            for pi in 0..t.phases.len() {
                let mut c = sc.clone();
                tracks_mut(&mut c)[ti].phases.remove(pi);
                out.push(c);
            }
        }
    }
    for (ti, t) in own.iter().enumerate() {
        for (pi, p) in t.phases.iter().enumerate() {
            if p.duration_secs() >= 2 * MIN_PHASE_SECS {
                let mut c = sc.clone();
                tracks_mut(&mut c)[ti].phases[pi] = halve_phase(p);
                out.push(c);
            }
        }
    }
    for c in &mut out {
        c.duration_secs = longest_track(c);
    }
    // Only structurally valid, strictly smaller candidates survive —
    // the strict decrease is what guarantees termination.
    out.retain(|c| phase_rates(tracks(c), c.duration_secs).is_ok() && size(c) < size(sc));
    out
}

/// Outcome of a shrink run.
pub struct Shrunk {
    /// The minimal genome that still trips (the input itself when no
    /// candidate survived).
    pub genome: Scenario,
    /// Predicate evaluations spent.
    pub evals: u32,
    /// Accepted shrink steps.
    pub steps: u32,
}

/// Greedily shrink `sc` under `still_trips` (true ⇒ the candidate still
/// reproduces the finding). The caller's predicate typically re-runs
/// the simulator pair, so `max_evals` caps total cost.
pub fn shrink(
    sc: &Scenario,
    max_evals: u32,
    still_trips: &mut dyn FnMut(&Scenario) -> bool,
) -> Shrunk {
    let mut current = sc.clone();
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
    use crate::schema::{FaultSpecJson, TrackSpec, WorkloadSpec};

    fn big_genome() -> Scenario {
        Scenario {
            duration_secs: 192,
            workload: WorkloadSpec::Phases {
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
            },
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
            ..Scenario::example()
        }
    }

    #[test]
    fn shrinks_to_local_minimum_when_everything_trips() {
        // A predicate that always trips shrinks as far as the candidate
        // generator can go; the result must still be a valid scenario.
        let sc = big_genome();
        let out = shrink(&sc, 10_000, &mut |_| true);
        assert!(out.steps > 0, "some shrinking must happen");
        assert!(size(&out.genome) < size(&sc));
        crate::validate_scenario(&out.genome).expect("shrunk genome stays valid");
        assert_eq!(out.genome.duration_secs, longest_track(&out.genome));
        assert!(out.genome.faults.is_empty(), "droppable faults dropped");
        assert_eq!(tracks(&out.genome)[0].phases.len(), 1);
        // Fixed point: no further candidate shrinks it.
        assert!(candidates(&out.genome)
            .iter()
            .all(|c| size(c) < size(&out.genome)));
    }

    #[test]
    fn returns_input_when_nothing_trips() {
        let sc = big_genome();
        let out = shrink(&sc, 10_000, &mut |_| false);
        assert_eq!(out.steps, 0);
        assert_eq!(size(&out.genome), size(&sc));
    }

    #[test]
    fn every_candidate_is_strictly_smaller() {
        // The termination invariant itself.
        let sc = big_genome();
        for c in candidates(&sc) {
            assert!(size(&c) < size(&sc), "candidate must shrink");
        }
    }

    #[test]
    fn respects_the_eval_budget() {
        let sc = big_genome();
        let mut calls = 0u32;
        let out = shrink(&sc, 5, &mut |_| {
            calls += 1;
            false
        });
        assert_eq!(out.evals, 5);
        assert_eq!(calls, 5);
    }
}
