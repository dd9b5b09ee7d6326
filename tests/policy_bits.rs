//! The trained policies' output bits, pinned in tier-1.
//!
//! `tests/determinism.rs` runs TopFull with the MIMD stepper and no
//! journal-fingerprint scenario names an `rl:` controller, so without
//! this file only `benchmark/golden.json` (`transfer_ob` on Boutique)
//! would notice `rl::nn`'s forward pass rounding differently — and
//! nothing would for `base` and `transfer_tt`. Each committed model is
//! folded over a grid of §4.3 states into one FNV-1a constant, and a
//! short fixed-seed training run (rollouts, backprop, Adam) must
//! serialise to the same bytes. Re-record only in a PR whose title says
//! the policy's bits move.

use rl::graph_env::GraphEnv;
use rl::{PolicyValue, PpoConfig, Trainer, TrainerConfig};
use topfull::{RateController, RateState, RlRateController};

/// FNV-1a (64-bit), as in `tests/determinism.rs`.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Every action over goodput ratio 0…2 (steps of 1/32) × latency ratio
/// 0…5 (steps of 1/16) — 5 265 states — then the out-of-range and
/// non-finite corners as the controller clamps them.
fn action_bits(policy: PolicyValue) -> u64 {
    let mut h = FNV_OFFSET;
    for g in 0..=64 {
        for l in 0..=80 {
            let a = policy.act_deterministic(&[f64::from(g) / 32.0, f64::from(l) / 16.0]);
            fnv1a(&mut h, &a.to_bits().to_le_bytes());
        }
    }
    let rc = RlRateController::new(policy);
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
    const WANT: [(&str, u64); 3] = [
        ("base", 0xacde_ed6f_12f1_ba98),
        ("transfer_ob", 0x91d2_3f40_451f_5473),
        ("transfer_tt", 0x359f_aa9b_0189_ecdc),
    ];
    let got = WANT.map(|(name, _)| {
        let policy = topfull_bench::models::load(name)
            .unwrap_or_else(|| panic!("artifacts/models/{name}.json must load"));
        (name, action_bits(policy))
    });
    assert_eq!(
        got, WANT,
        "action bits drifted (left: got, right: recorded): {got:#018x?}"
    );
}

#[test]
fn a_fixed_seed_training_run_serialises_to_the_recorded_bytes() {
    const WANT: u64 = 0xeee4_aea3_8ec4_e451;
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
    assert_eq!(
        got, WANT,
        "trained model drifted: got {got:#018x}, recorded {WANT:#018x}"
    );
}
