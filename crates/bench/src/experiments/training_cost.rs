//! §6.4 training-cost analysis: the benefit of Sim2Real transfer.
//!
//! The paper: pre-training 48 000 episodes took 6 hours on a GTX 1080;
//! specialization took 800 episodes = 12 hours of real-world sampling
//! (each step takes one real second). Without transfer, learning 48 000
//! episodes in the real world would take 30 days and ≈$5 832 at $8.1/h
//! for the minimal 3-node deployment; with transfer the real-world bill
//! is ≈$97.2.
//!
//! We measure our simulator throughputs, then reproduce the paper's
//! economics: real-world sampling time is fixed by the control cadence
//! (50 steps × 1 s per episode), so the dollar arithmetic carries over
//! exactly; what changes is the simulator-hours side, which we measure.

use crate::report::Report;
use rand::SeedableRng;
use rl::env::RlEnv;
use rl::graph_env::GraphEnv;
use rl::policy::PolicyValue;

const EPISODES_PRETRAIN: f64 = 48_000.0;
const EPISODES_SPECIALIZE: f64 = 800.0;
const STEPS_PER_EPISODE: f64 = 50.0;
const AZURE_RATE_PER_HOUR: f64 = 8.1; // 3 × D48ds_v5

pub fn run() -> Report {
    let mut r = Report::new(
        "training_cost",
        "Training cost and transfer-learning benefit (§6.4)",
    );

    // Measure graph-simulator episode throughput (env + policy inference).
    let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
    let actor = PolicyValue::new(2, &mut rng).actor();
    let mut env = GraphEnv::new();
    let n = 2_000usize;
    let start = std::time::Instant::now();
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
    r.compare(
        "graph-simulator sampling for 48k episodes",
        "6 h (GPU training wall-clock)",
        format!("{sim_hours_48k:.3} h (CPU env+inference)"),
        "",
    );

    // Real-world sampling economics (fixed by physics: 1 s per step).
    let real_secs_per_episode = STEPS_PER_EPISODE; // 50 steps × 1 s
    let specialize_hours = EPISODES_SPECIALIZE * real_secs_per_episode / 3600.0;
    let specialize_cost = specialize_hours * AZURE_RATE_PER_HOUR;
    r.compare(
        "real-world specialization time (800 episodes)",
        "12 h",
        format!("{specialize_hours:.1} h"),
        "",
    );
    r.compare(
        "real-world specialization cost",
        "$97.2",
        format!("${specialize_cost:.1}"),
        "",
    );
    let no_transfer_hours = EPISODES_PRETRAIN * real_secs_per_episode / 3600.0;
    let no_transfer_cost = no_transfer_hours * AZURE_RATE_PER_HOUR;
    r.compare(
        "without transfer: real-world sampling",
        "30 days",
        format!("{:.1} days", no_transfer_hours / 24.0),
        "",
    );
    r.compare(
        "without transfer: cost",
        "$5,832",
        format!("${no_transfer_cost:.0}"),
        "",
    );
    r.compare(
        "transfer-learning cost reduction",
        "60x",
        format!("{:.0}x", no_transfer_cost / specialize_cost),
        "",
    );
    r.note(format!(
        "measured {:.2} ms per simulator episode; this reproduction trains \
         {} pre-training and {} specialization episodes (scaled from the \
         paper's 48,000/800) — see EXPERIMENTS.md",
        per_episode * 1e3,
        crate::models::BASE_EPISODES,
        crate::models::SPECIALIZE_EPISODES,
    ));
    r
}
