//! Sim2Real training pipeline and model cache.
//!
//! The paper trains the rate controller in two stages (§4.3): 48 000
//! episodes on the lightweight graph simulator (6 GPU-hours), then 800
//! episodes on the target application (12 hours of real-world sampling).
//! Our environments are simulators all the way down, so the same pipeline
//! runs in minutes; episode counts are scaled accordingly and recorded in
//! EXPERIMENTS.md. Trained policies are cached as JSON under
//! `artifacts/models/` so experiments are reproducible without retraining.

use crate::artifacts_dir;
use apps::{OnlineBoutique, TrainTicket};
use rl::cluster_env::{ClusterEnv, ClusterEnvConfig};
use rl::graph_env::GraphEnv;
use rl::policy::PolicyValue;
use rl::ppo::PpoConfig;
use rl::trainer::{Trainer, TrainerConfig};
use std::path::PathBuf;

/// Episodes for base pre-training (paper: 48 000; scaled for CPU).
pub const BASE_EPISODES: usize = 4_000;
/// Episodes for specialization (paper: 800).
pub const SPECIALIZE_EPISODES: usize = 600;

fn model_path(name: &str) -> PathBuf {
    artifacts_dir().join("models").join(format!("{name}.json"))
}

/// Load a cached model, or `None` if absent/corrupt.
pub fn load(name: &str) -> Option<PolicyValue> {
    PolicyValue::load(&model_path(name)).ok()
}

fn store(name: &str, model: &PolicyValue) {
    let path = model_path(name);
    std::fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir artifacts");
    model.save(&path).expect("save model");
}

fn trainer_config(episodes: usize, seed: u64) -> TrainerConfig {
    TrainerConfig {
        // Table 1 structure with the faster-converging learning rate
        // profile (documented in EXPERIMENTS.md).
        ppo: PpoConfig::fast(),
        episodes,
        checkpoint_every: 50,
        validation_episodes: 12,
        seed,
    }
}

/// Stage 1: pre-train the base policy on the graph simulator.
pub fn train_base(episodes: usize, seed: u64) -> PolicyValue {
    let mut trainer = Trainer::new(trainer_config(episodes, seed));
    let report = trainer.train(GraphEnv::new);
    eprintln!(
        "base model: {} episodes, best validation reward {:.3}",
        report.episodes_run, report.best_validation_reward
    );
    report.best_model
}

/// Stage 2: specialize a pre-trained policy on a target application.
pub fn specialize(
    base: PolicyValue,
    topo: cluster::Topology,
    episodes: usize,
    seed: u64,
) -> PolicyValue {
    let mut trainer = Trainer::from_model(trainer_config(episodes, seed), base);
    let cfg = ClusterEnvConfig::default();
    let report = trainer.train(move || ClusterEnv::new(topo.clone(), cfg.clone()));
    eprintln!(
        "specialized model: {} episodes, best validation reward {:.3}",
        report.episodes_run, report.best_validation_reward
    );
    report.best_model
}

/// The base (graph-simulator) policy, cached.
pub fn base_model() -> PolicyValue {
    if let Some(m) = load("base") {
        return m;
    }
    eprintln!("training base model ({BASE_EPISODES} episodes on the graph simulator)…");
    let m = train_base(BASE_EPISODES, 1000);
    store("base", &m);
    m
}

/// The base policy specialized on `topo`, cached under `name`.
fn transfer(name: &str, app: &str, topo: fn() -> cluster::Topology, seed: u64) -> PolicyValue {
    if let Some(m) = load(name) {
        return m;
    }
    eprintln!("specializing on {app} ({SPECIALIZE_EPISODES} episodes)…");
    let m = specialize(base_model(), topo(), SPECIALIZE_EPISODES, seed);
    store(name, &m);
    m
}

/// Transfer-TT: the base policy specialized on Train Ticket.
pub fn transfer_tt() -> PolicyValue {
    let topo = || TrainTicket::build().topology;
    transfer("transfer_tt", "Train Ticket", topo, 2000)
}

/// Transfer-OB: the base policy specialized on Online Boutique.
pub fn transfer_ob() -> PolicyValue {
    let topo = || OnlineBoutique::build().topology;
    transfer("transfer_ob", "Online Boutique", topo, 3000)
}
