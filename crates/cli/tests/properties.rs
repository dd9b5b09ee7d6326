//! Property tests for the scenario engine.
//!
//! 1. Phase composition is deterministic: the same genome produces
//!    the same decision-journal fingerprint no matter how many workers
//!    the experiment pool uses.
//! 2. The shrinker terminates within its evaluation budget and always
//!    returns a reproducer that still trips the objective it was
//!    shrinking against.

use cluster::runner::RunPlan;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use topfull_cli::fuzz::{base_scenario, mutate};
use topfull_cli::shrink::{shrink, size};
use topfull_cli::{run_scenario, validate_scenario, Scenario};

/// Random-but-seeded genome: a few mutation steps away from the base.
fn genome(seed: u64) -> Scenario {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sc = base_scenario();
    for _ in 0..3 {
        sc = mutate(&mut rng, &sc);
    }
    sc
}

fn fingerprints(sc: &Scenario, workers: usize, copies: usize) -> Vec<String> {
    let mut plan = RunPlan::new().with_workers(workers);
    for _ in 0..copies {
        plan.submit(|| run_scenario(sc).expect("genome runs"));
    }
    plan.run()
        .into_iter()
        .map(|o| {
            format!(
                "{:#018x}",
                obs::journal_fingerprint(&obs::to_jsonl(&o.journal))
            )
        })
        .collect()
}

#[test]
fn same_genome_same_fingerprint_across_worker_counts() {
    for seed in [1u64, 9] {
        let sc = genome(seed);
        let solo = fingerprints(&sc, 1, 2);
        let pooled = fingerprints(&sc, 4, 2);
        assert_eq!(
            solo[0], solo[1],
            "seed {seed}: repeated runs diverged on one worker"
        );
        assert_eq!(
            solo, pooled,
            "seed {seed}: fingerprint depends on worker count"
        );
    }
}

#[test]
fn shrinker_terminates_with_still_tripping_reproducer() {
    const BUDGET: u32 = 100;
    let mut exercised = 0;
    for seed in 0..10u64 {
        let sc = genome(seed);
        // Synthetic objective — cheap and monotone enough to leave the
        // shrinker real work: the genome keeps a long-enough run.
        let still_trips = |s: &Scenario| s.duration_secs >= 40;
        if !still_trips(&sc) {
            continue;
        }
        exercised += 1;
        let shrunk = shrink(&sc, BUDGET, &mut |c| still_trips(c));
        assert!(
            still_trips(&shrunk.genome),
            "seed {seed}: shrinker returned a non-tripping genome"
        );
        assert!(
            validate_scenario(&shrunk.genome).is_ok(),
            "seed {seed}: shrunk genome fails validation"
        );
        assert!(
            size(&shrunk.genome) <= size(&sc),
            "seed {seed}: shrinking grew the genome"
        );
        assert!(shrunk.evals <= BUDGET, "seed {seed}: budget exceeded");
    }
    assert!(exercised >= 5, "too few genomes exercised the shrinker");
}
