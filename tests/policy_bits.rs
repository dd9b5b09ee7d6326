//! The trained policies' output bits, pinned in tier-1.
//!
//! `tests/determinism.rs` runs TopFull with the MIMD stepper and no
//! journal-fingerprint scenario names an `rl:` controller, so without
//! this file only `benchmark/golden.json` (`transfer_ob` on Boutique)
//! would notice `rl::nn`'s forward pass rounding differently — and
//! nothing would for `base` and `transfer_tt`. Each committed model is
//! folded over a grid of §4.3 states into one FNV-1a constant, and a
//! short fixed-seed training run (rollouts, backprop, Adam) must
//! serialise to the same bytes: the `policy.*` rows of
//! `scripts/goldens.txt`. Re-record only in a PR whose title says the
//! policy's bits move.

mod common;

use common::{assert_rows, fnv1a, FNV_OFFSET};
use rl::graph_env::GraphEnv;
use rl::{PolicyValue, PpoConfig, Trainer, TrainerConfig};
use topfull::{RateController, RateState, RlRateController};

/// Every action over goodput ratio 0…2 (steps of 1/32) × latency ratio
/// 0…5 (steps of 1/16) — 5 265 states — then the out-of-range and
/// non-finite corners as the controller clamps them. On the grid the
/// controller, which serves a frozen copy of the actor, must decide the
/// same bits as the policy itself; verify.sh runs this file in
/// `--release` too, the build that serves.
fn action_bits(policy: PolicyValue) -> u64 {
    let rc = RlRateController::new(policy.clone());
    let mut h = FNV_OFFSET;
    for g in 0..=64 {
        for l in 0..=80 {
            let (goodput_ratio, latency_ratio) = (f64::from(g) / 32.0, f64::from(l) / 16.0);
            let a = policy.act_deterministic(&[goodput_ratio, latency_ratio]);
            let served = rc.decide(RateState {
                goodput_ratio,
                latency_ratio,
                total_limit: 100.0,
            });
            assert_eq!(
                served.to_bits(),
                a.to_bits(),
                "state ({goodput_ratio}, {latency_ratio}): served {served:e}, policy {a:e}"
            );
            fnv1a(&mut h, &a.to_bits().to_le_bytes());
        }
    }
    let edge = [-1.0, -0.0, 2.5, 7.0, f64::INFINITY, f64::NAN];
    for goodput_ratio in edge {
        for latency_ratio in edge {
            let a = rc.decide(RateState {
                goodput_ratio,
                latency_ratio,
                total_limit: 100.0,
            });
            fnv1a(&mut h, &a.to_bits().to_le_bytes());
        }
    }
    h
}

#[test]
fn committed_models_decide_the_recorded_bits() {
    let rows = [
        ("policy.base", "base"),
        ("policy.transfer_ob", "transfer_ob"),
        ("policy.transfer_tt", "transfer_tt"),
    ]
    .map(|(row, name)| {
        let policy = topfull_bench::models::load(name)
            .unwrap_or_else(|| panic!("artifacts/models/{name}.json must load"));
        (row, action_bits(policy))
    });
    assert_rows(&rows);
}

#[test]
fn a_fixed_seed_training_run_serialises_to_the_recorded_bytes() {
    let mut trainer = Trainer::new(TrainerConfig {
        ppo: PpoConfig {
            train_batch_size: 200,
            sgd_iters: 3,
            ..PpoConfig::fast()
        },
        episodes: 12,
        checkpoint_every: 6,
        validation_episodes: 4,
        workers: 2,
        seed: 31,
    });
    let report = trainer.train(GraphEnv::new);
    let json = serde_json::to_string(&report.final_model).expect("models serialise");
    let mut got = FNV_OFFSET;
    fnv1a(&mut got, json.as_bytes());
    assert_rows(&[("policy.train_seed31", got)]);
}
