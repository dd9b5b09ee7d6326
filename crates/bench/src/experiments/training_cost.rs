//! §6.4 training-cost analysis: the benefit of Sim2Real transfer.
//!
//! The paper: pre-training 48 000 episodes took 6 hours on a GTX 1080;
//! specialization took 800 episodes = 12 hours of real-world sampling
//! (each step takes one real second). Without transfer, learning 48 000
//! episodes in the real world would take 30 days and ≈$5 832 at $8.1/h
//! for the minimal 3-node deployment; with transfer the real-world bill
//! is ≈$97.2.
//!
//! We time both training stages as this reproduction runs them — PPO
//! updates, checkpoint validation and all, validation's share printed
//! apart — and scale them to Table 1's
//! budget; the real-world economics are fixed by the control cadence
//! (50 steps × 1 s per episode), so the dollar arithmetic carries over
//! exactly.

use crate::models;
use crate::report::Report;
use apps::OnlineBoutique;
use rand::SeedableRng;
use rl::env::RlEnv;
use rl::graph_env::GraphEnv;
use rl::policy::PolicyValue;
use rl::trainer::TrainReport;
use std::time::Instant;

const EPISODES_PRETRAIN: f64 = 48_000.0;
const EPISODES_SPECIALIZE: f64 = 800.0;
const STEPS_PER_EPISODE: f64 = 50.0;
const AZURE_RATE_PER_HOUR: f64 = 8.1; // 3 × D48ds_v5
/// Timed episodes: stage 1 reaches four checkpoints with their
/// validation, stage 2 one (checkpoints fall every 50 episodes).
const TIMED_PRETRAIN: usize = 200;
const TIMED_SPECIALIZE: usize = 50;

/// Seconds per episode of `train`, and its checkpoint validation's share
/// of them.
fn timed(episodes: usize, train: impl FnOnce() -> TrainReport) -> (f64, f64) {
    let start = Instant::now();
    let validation = train().validation_secs;
    let secs = start.elapsed().as_secs_f64();
    (secs / episodes as f64, validation / secs)
}

pub fn run() -> Report {
    let mut r = Report::new(
        "training_cost",
        "Training cost and transfer-learning benefit (§6.4)",
    );
    let mut row = |label: &str, paper: &str, ours: String| r.compare(label, paper, ours, "");

    // Both stages as trained, through the train functions rather than
    // the caching loaders, so no model is written.
    let workers = cluster::runner::worker_count();
    let (stage1, validation1) = timed(TIMED_PRETRAIN, || models::train_base(TIMED_PRETRAIN, 1000));
    let base = models::load("base").expect("committed base model");
    let ob = OnlineBoutique::build().topology;
    let specialize = || models::specialize(base, ob, TIMED_SPECIALIZE, 3000);
    let (stage2, validation2) = timed(TIMED_SPECIALIZE, specialize);
    let label = format!("stage 1 (graph simulator), {TIMED_PRETRAIN} episodes");
    row(
        &label,
        "0.45 s/episode (6 h / 48k, GPU)",
        format!("{:.1} ms/episode", stage1 * 1e3),
    );
    let label = format!("stage 2 (Online Boutique DES), {TIMED_SPECIALIZE} episodes");
    row(
        &label,
        "54 s/episode (12 h / 800, real cluster)",
        format!("{stage2:.3} s/episode"),
    );
    for (stage, share) in [(1, validation1), (2, validation2)] {
        let label = format!("stage {stage}: checkpoint validation's share");
        row(&label, "—", format!("{:.1} %", share * 100.0));
    }
    let table1_secs = EPISODES_PRETRAIN * stage1 + EPISODES_SPECIALIZE * stage2;
    let table1 = format!("{:.1} min at {workers} workers", table1_secs / 60.0);
    row("Table 1's budget (48 000·s1 + 800·s2)", "18 h", table1);

    // Graph-simulator sampling alone (env + policy inference).
    let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
    let actor = PolicyValue::new(2, &mut rng).actor();
    let mut env = GraphEnv::new();
    let n = 2_000usize;
    let start = Instant::now();
    for _ in 0..n {
        let mut s = env.reset(&mut rng);
        loop {
            let a = actor.act_deterministic(&s);
            let res = env.step(a, &mut rng);
            s = res.state;
            if res.done {
                break;
            }
        }
    }
    let per_episode = start.elapsed().as_secs_f64() / n as f64;
    let sim_hours_48k = EPISODES_PRETRAIN * per_episode / 3600.0;
    let sampled = format!("{sim_hours_48k:.3} h (CPU env+inference)");
    row(
        "graph-simulator sampling for 48k episodes",
        "6 h (GPU training wall-clock)",
        sampled,
    );

    // Real-world sampling economics (fixed by physics: 1 s per step).
    let real_secs_per_episode = STEPS_PER_EPISODE; // 50 steps × 1 s
    let specialize_hours = EPISODES_SPECIALIZE * real_secs_per_episode / 3600.0;
    let specialize_cost = specialize_hours * AZURE_RATE_PER_HOUR;
    let no_transfer_hours = EPISODES_PRETRAIN * real_secs_per_episode / 3600.0;
    let no_transfer_cost = no_transfer_hours * AZURE_RATE_PER_HOUR;
    let days = no_transfer_hours / 24.0;
    row(
        "real-world specialization time (800 episodes)",
        "12 h",
        format!("{specialize_hours:.1} h"),
    );
    row(
        "real-world specialization cost",
        "$97.2",
        format!("${specialize_cost:.1}"),
    );
    row(
        "without transfer: real-world sampling",
        "30 days",
        format!("{days:.1} days"),
    );
    row(
        "without transfer: cost",
        "$5,832",
        format!("${no_transfer_cost:.0}"),
    );
    let reduction = format!("{:.0}x", no_transfer_cost / specialize_cost);
    row("transfer-learning cost reduction", "60x", reduction);
    r.note(format!(
        "measured {:.2} ms per simulator episode of sampling alone; training \
         timed at {workers} workers; this reproduction trains {} pre-training \
         and {} specialization episodes (scaled from the paper's 48,000/800) \
         — see EXPERIMENTS.md",
        per_episode * 1e3,
        models::BASE_EPISODES,
        models::SPECIALIZE_EPISODES,
    ));
    r
}
