//! Table 1: reinforcement-learning training parameters.

use crate::report::Report;
use rl::ppo::PpoConfig;

pub fn run() -> Report {
    let mut r = Report::new("table1", "RL training parameters (paper Table 1)");
    let c = PpoConfig::default();
    r.compare("Steps in episode", 50, c.steps_per_episode, "");
    r.compare(
        "Learning rate",
        "5e-5",
        format!("{:e}", c.learning_rate),
        "",
    );
    r.compare("Kullback-Leibler coeff", 0.2, c.kl_coeff, "");
    r.compare("Kullback-Leibler target", 0.01, c.kl_target, "");
    r.compare("Minibatch size", 128, c.minibatch_size, "");
    r.compare("PPO clip parameter", 0.3, c.clip_param, "");
    r.note(
        "PpoConfig::default() is the paper-exact Table 1; experiments train \
         with PpoConfig::fast() (learning rate 3e-4) to converge in CPU-minutes \
         instead of GPU-hours — see EXPERIMENTS.md.",
    );
    r
}
