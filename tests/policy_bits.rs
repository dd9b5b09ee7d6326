//! The trained policies' output bits, pinned in tier-1, and what they
//! must do.
//!
//! `tests/determinism.rs` runs TopFull with the MIMD stepper and no
//! journal-fingerprint scenario names an `rl:` controller, so without
//! this file only `benchmark/golden.json` (`transfer_ob` on Boutique)
//! would notice `rl::nn`'s forward pass rounding differently — and
//! nothing would for `base` and `transfer_tt`. Each committed model is
//! folded over a grid of §4.3 states into one FNV-1a constant, and two
//! short fixed-seed training runs (rollouts, backprop, Adam), one per
//! Sim2Real stage, must serialise to the same bytes at any worker count:
//! the `policy.*` rows of
//! `scripts/goldens.txt`. Re-record only in a PR whose title says the
//! policy's bits move. Beside the bits, every committed model must pass
//! the §4.3 audit: the qualitative shape a safe rate controller has.

mod common;

use common::{assert_rows, fnv1a, FNV_OFFSET};
use rand::SeedableRng;
use rl::cluster_env::{ClusterEnv, ClusterEnvConfig};
use rl::graph_env::GraphEnv;
use rl::{PolicyValue, PpoConfig, RlEnv, Trainer, TrainerConfig};
use topfull::{RateController, RateState, RlRateController};

const MODELS: [&str; 3] = ["base", "transfer_ob", "transfer_tt"];

/// The controller's decision at goodput/limit ratio `goodput_ratio` and
/// latency/SLO ratio `latency_ratio`.
fn decide(rc: &RlRateController, goodput_ratio: f64, latency_ratio: f64) -> f64 {
    rc.decide(RateState {
        goodput_ratio,
        latency_ratio,
        total_limit: 100.0,
    })
}

/// Every decision over goodput ratio 0…2 (steps of 1/32) × latency
/// ratio 0…5 (steps of 1/16) — 5 265 states — then the out-of-range and
/// non-finite corners as the controller clamps them, all through the
/// serving path. verify.sh runs this file in `--release` too, the build
/// that serves.
fn action_bits(policy: PolicyValue) -> u64 {
    let rc = RlRateController::new(policy);
    let mut h = FNV_OFFSET;
    for g in 0..=64 {
        for l in 0..=80 {
            let a = decide(&rc, f64::from(g) / 32.0, f64::from(l) / 16.0);
            fnv1a(&mut h, &a.to_bits().to_le_bytes());
        }
    }
    let edge = [-1.0, -0.0, 2.5, 7.0, f64::INFINITY, f64::NAN];
    for goodput_ratio in edge {
        for latency_ratio in edge {
            let a = decide(&rc, goodput_ratio, latency_ratio);
            fnv1a(&mut h, &a.to_bits().to_le_bytes());
        }
    }
    h
}

/// The §4.3 audit — "an effective rate controller should make
/// aggressive decisions in the initial phase of overload according to
/// its severity and then finely adjust the rate-limit" — as four named
/// properties of `policy`'s decisions, each with whether it holds.
fn audit(policy: PolicyValue) -> [(&'static str, bool); 4] {
    let rc = RlRateController::new(policy);
    let act = |g, l| decide(&rc, g, l);
    [
        // Cuts hard (≤ -0.3) under deep overload: low ratio, high latency.
        (
            "cuts under deep overload",
            act(0.3, 3.0) <= -0.3 && act(0.2, 5.0) <= -0.3,
        ),
        // Raises when fully utilised with low latency.
        (
            "raises when healthy",
            act(1.0, 0.05) > 0.0 && act(1.2, 0.1) > 0.0,
        ),
        // Small steps near the presumed optimum: fine adjustment.
        ("gentle near the optimum", act(0.95, 0.5).abs() < 0.15),
        // At ratio 1, more latency never asks for a higher limit.
        ("latency-monotone", act(1.0, 2.0) <= act(1.0, 0.2)),
    ]
}

/// The properties in `audit` that do not hold.
fn failures(audit: &[(&'static str, bool)]) -> Vec<&'static str> {
    audit
        .iter()
        .filter_map(|&(p, holds)| (!holds).then_some(p))
        .collect()
}

fn committed(name: &str) -> PolicyValue {
    topfull_bench::models::load(name)
        .unwrap_or_else(|| panic!("artifacts/models/{name}.json must load"))
}

#[test]
fn committed_models_decide_the_recorded_bits() {
    let rows = [
        ("policy.base", "base"),
        ("policy.transfer_ob", "transfer_ob"),
        ("policy.transfer_tt", "transfer_tt"),
    ]
    .map(|(row, name)| (row, action_bits(committed(name))));
    assert_rows(&rows);
}

/// The short fixed-seed budget both training rows use, at `seed` 31.
fn short_run(
    episodes: usize,
    checkpoint_every: usize,
    validation_episodes: usize,
) -> TrainerConfig {
    TrainerConfig {
        ppo: PpoConfig {
            train_batch_size: 200,
            sgd_iters: 3,
            ..PpoConfig::fast()
        },
        episodes,
        checkpoint_every,
        validation_episodes,
        seed: 31,
    }
}

/// FNV-1a of the serialised final model of `trainer` trained on
/// `make_env`.
fn final_model_bits<E: RlEnv>(mut trainer: Trainer, make_env: impl Fn() -> E + Sync) -> u64 {
    let report = trainer.train(make_env);
    let json = serde_json::to_string(&report.final_model).expect("models serialise");
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, json.as_bytes());
    h
}

#[test]
fn a_fixed_seed_training_run_serialises_to_the_recorded_bytes() {
    let got = final_model_bits(Trainer::new(short_run(12, 6, 4)), GraphEnv::new);
    assert_rows(&[("policy.train_seed31", got)]);
}

/// Stage 2 (§4.3): the committed base model specialized on the cluster
/// simulator over Online Boutique.
#[test]
fn a_fixed_seed_specialization_serialises_to_the_recorded_bytes() {
    let trainer = Trainer::from_model(short_run(4, 4, 2), committed("base"));
    let topo = apps::OnlineBoutique::build().topology;
    let cfg = ClusterEnvConfig::default();
    let got = final_model_bits(trainer, || ClusterEnv::new(topo.clone(), cfg.clone()));
    assert_rows(&[("policy.specialize_seed31", got)]);
}

#[test]
fn committed_models_pass_the_section_4_3_audit() {
    for name in MODELS {
        let failed = failures(&audit(committed(name)));
        assert!(failed.is_empty(), "{name} fails {failed:?}");
    }
}

#[test]
fn an_untrained_policy_fails_the_audit() {
    // Near zero everywhere: it will not cut hard under deep overload.
    let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
    let [(_, cuts), ..] = audit(PolicyValue::new(2, &mut rng));
    assert!(!cuts);
}

#[test]
#[ignore = "trains a policy (~1 min); run with --ignored"]
fn trained_policy_passes_the_audit() {
    let mut trainer = Trainer::new(TrainerConfig {
        ppo: PpoConfig::fast(),
        episodes: 2000,
        checkpoint_every: 200,
        validation_episodes: 8,
        seed: 77,
    });
    let report = trainer.train(GraphEnv::new);
    let [cuts, raises, _, monotone] = audit(report.best_model);
    let failed = failures(&[cuts, raises, monotone]);
    assert!(failed.is_empty(), "fails {failed:?}");
}
