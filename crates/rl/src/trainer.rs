//! Training loop: parallel episode collection, checkpointing, validation
//! selection, and the two-stage Sim2Real pipeline.
//!
//! "During the training, we checkpoint the RL model every 50 episodes. We
//! select the pre-trained model by validating the performance of the
//! checkpointed RL models on a fixed set of scenarios in the simulator"
//! (§4.3). The same loop trains both stages: pre-training on
//! [`crate::graph_env::GraphEnv`] and specialization on
//! [`crate::cluster_env::ClusterEnv`] (the paper's "target real-world
//! application", here the detailed cluster simulator).
//!
//! Collection is parallel: every episode is one [`RunPlan`] job on a
//! fresh environment with its own seed stream, and the plan returns the
//! episodes in submission order, so training is deterministic for a
//! given seed and the worker count (`TOPFULL_WORKERS`) sets only its
//! speed. Rollouts and validation run the model frozen once per
//! iteration or checkpoint ([`PolicyValue::actor`]).

use crate::env::RlEnv;
use crate::policy::{Actor, Critic, PolicyValue};
use crate::ppo::{Episode, Ppo, PpoConfig};
use cluster::runner::{worker_count, RunPlan};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use simnet::rng::derive_seed;

/// Trainer configuration.
#[derive(Clone, Debug)]
pub struct TrainerConfig {
    pub ppo: PpoConfig,
    /// Total episodes to train (paper: 48 000 pre-training, 800
    /// specialization).
    pub episodes: usize,
    /// Checkpoint cadence in episodes (paper: 50).
    pub checkpoint_every: usize,
    /// Validation episodes per checkpoint (fixed seeds).
    pub validation_episodes: usize,
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            ppo: PpoConfig::default(),
            episodes: 1000,
            checkpoint_every: 50,
            validation_episodes: 16,
            seed: 0,
        }
    }
}

/// Outcome of a training run.
pub struct TrainReport {
    /// The validation-selected best model.
    pub best_model: PolicyValue,
    pub best_validation_reward: f64,
    /// The final (last-iteration) model.
    pub final_model: PolicyValue,
    /// `(episodes_so_far, mean_train_reward, validation_reward)` per
    /// checkpoint.
    pub history: Vec<(usize, f64, f64)>,
    pub episodes_run: usize,
    /// Wall time, in seconds, that the checkpoint validations took.
    pub validation_secs: f64,
}

/// Episode runner shared by training and validation.
fn run_episode<E: RlEnv>(
    env: &mut E,
    (actor, critic): (&Actor, &Critic),
    rng: &mut SmallRng,
    deterministic: bool,
) -> Episode {
    let mut state = env.reset(rng);
    let mut ep = Episode::default();
    loop {
        ep.states.push(state);
        let (raw, action, logp) = if deterministic {
            let a = actor.act_deterministic(&state);
            (a, a, 0.0)
        } else {
            actor.act_stochastic(&state, rng)
        };
        let res = env.step(action, rng);
        ep.raw_actions.push(raw);
        ep.log_probs.push(logp);
        ep.rewards.push(res.reward);
        state = res.state;
        if res.done {
            ep.bootstrap_value = critic.value(&state);
            break;
        }
    }
    ep
}

/// One episode per seed, each on a fresh environment sampling its own
/// stream, run as the jobs of one plan on `workers` threads: the episodes
/// come back in seed order, whatever `workers` is.
fn run_episodes<E: RlEnv>(
    make_env: &(impl Fn() -> E + Sync),
    model: &PolicyValue,
    seeds: impl Iterator<Item = u64>,
    deterministic: bool,
    workers: usize,
) -> Vec<Episode> {
    let (actor, critic) = (model.actor(), model.critic());
    let mut plan = RunPlan::new().with_workers(workers);
    for seed in seeds {
        let frozen = (&actor, &critic);
        plan.submit(move || {
            let mut rng = SmallRng::seed_from_u64(seed);
            run_episode(&mut make_env(), frozen, &mut rng, deterministic)
        });
    }
    plan.run()
}

/// Mean total reward of deterministic episodes on fixed seeds, summed in
/// episode order.
fn validate<E: RlEnv>(
    make_env: &(impl Fn() -> E + Sync),
    model: &PolicyValue,
    episodes: usize,
    seed: u64,
    workers: usize,
) -> f64 {
    let base = derive_seed(seed, "validate");
    let seeds = (0..episodes as u64).map(|i| base ^ i);
    let runs = run_episodes(make_env, model, seeds, true, workers);
    let total = runs.iter().fold(0.0, |total, ep| total + ep.total_reward());
    total / episodes.max(1) as f64
}

/// The trainer.
pub struct Trainer {
    pub config: TrainerConfig,
    pub ppo: Ppo,
}

impl Trainer {
    /// Start from a fresh model.
    pub fn new(config: TrainerConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(derive_seed(config.seed, "init"));
        let model = PolicyValue::new(crate::STATE_DIM, &mut rng);
        Trainer {
            ppo: Ppo::new(model, config.ppo),
            config,
        }
    }

    /// Start from a pre-trained model (the transfer-learning stage).
    pub fn from_model(config: TrainerConfig, model: PolicyValue) -> Self {
        Trainer {
            ppo: Ppo::new(model, config.ppo),
            config,
        }
    }

    /// Train on environments built by `make_env` (one per episode), with
    /// periodic validation on fresh instances.
    pub fn train<E: RlEnv>(&mut self, make_env: impl Fn() -> E + Sync) -> TrainReport {
        self.train_on(&make_env, worker_count())
    }

    /// [`Trainer::train`] on `workers` threads, which set only its speed.
    fn train_on<E: RlEnv>(
        &mut self,
        make_env: &(impl Fn() -> E + Sync),
        workers: usize,
    ) -> TrainReport {
        let eps_per_iter =
            (self.config.ppo.train_batch_size / self.config.ppo.steps_per_episode).max(1);
        let mut episodes_run = 0usize;
        let mut since_checkpoint = 0usize;
        let mut history = Vec::new();
        let mut best_model = self.ppo.model.clone();
        let mut best_val = f64::NEG_INFINITY;
        let mut update_rng = SmallRng::seed_from_u64(derive_seed(self.config.seed, "sgd"));
        let rollout = derive_seed(self.config.seed, "rollout");
        let mut iter = 0u64;
        let mut validation_secs = 0.0;

        while episodes_run < self.config.episodes {
            let n = eps_per_iter.min(self.config.episodes - episodes_run).max(1);
            // Episode j of iteration i samples stream (i, j), which no
            // other episode shares (an iteration has far fewer than 2^32).
            let seeds = (0..n as u64).map(|j| rollout ^ (iter << 32) ^ j);
            let episodes = run_episodes(make_env, &self.ppo.model, seeds, false, workers);

            let stats = self.ppo.update(&episodes, &mut update_rng);
            episodes_run += n;
            since_checkpoint += n;
            iter += 1;

            if since_checkpoint >= self.config.checkpoint_every
                || episodes_run >= self.config.episodes
            {
                since_checkpoint = 0;
                let start = std::time::Instant::now();
                let val = validate(
                    make_env,
                    &self.ppo.model,
                    self.config.validation_episodes,
                    self.config.seed,
                    workers,
                );
                validation_secs += start.elapsed().as_secs_f64();
                history.push((episodes_run, stats.mean_reward_per_episode, val));
                if val > best_val {
                    best_val = val;
                    best_model = self.ppo.model.clone();
                }
            }
        }

        TrainReport {
            best_model,
            best_validation_reward: best_val,
            final_model: self.ppo.model.clone(),
            history,
            episodes_run,
            validation_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::StepResult;
    use crate::graph_env::GraphEnv;
    use rand::Rng;

    /// Deterministic toy env: reward is highest when the action tracks
    /// `0.4·state[0] − 0.2`; episodes of 10 steps.
    struct Toy {
        t: usize,
        s: [f64; 2],
    }

    impl RlEnv for Toy {
        fn reset(&mut self, rng: &mut SmallRng) -> [f64; 2] {
            self.t = 0;
            self.s = [rng.gen(), rng.gen()];
            self.s
        }

        fn step(&mut self, action: f64, rng: &mut SmallRng) -> StepResult {
            self.t += 1;
            let target = 0.4 * self.s[0] - 0.2;
            let reward = -(action - target).powi(2);
            self.s = [rng.gen(), rng.gen()];
            StepResult {
                state: self.s,
                reward,
                done: self.t >= 10,
            }
        }

        fn horizon(&self) -> usize {
            10
        }
    }

    #[test]
    fn trainer_improves_on_toy_env() {
        let mut trainer = Trainer::new(TrainerConfig {
            ppo: PpoConfig {
                learning_rate: 3e-3,
                train_batch_size: 400,
                steps_per_episode: 10,
                minibatch_size: 64,
                sgd_iters: 5,
                ..PpoConfig::default()
            },
            episodes: 600,
            checkpoint_every: 100,
            validation_episodes: 8,
            seed: 11,
        });
        let before = validate(&|| Toy { t: 0, s: [0.0; 2] }, &trainer.ppo.model, 8, 11, 2);
        let report = trainer.train(|| Toy { t: 0, s: [0.0; 2] });
        assert!(
            report.best_validation_reward > before,
            "training must improve: {before} → {}",
            report.best_validation_reward
        );
        assert!(!report.history.is_empty());
        assert_eq!(report.episodes_run, 600);
        assert!(report.validation_secs > 0.0);
    }

    #[test]
    fn training_is_a_function_of_its_seed_at_any_worker_count() {
        // A short pre-training run on the graph simulator: each worker
        // count must serialise to the same model and finite scores.
        let run = |workers| {
            let mut trainer = Trainer::new(TrainerConfig {
                ppo: PpoConfig {
                    train_batch_size: 200,
                    sgd_iters: 3,
                    ..PpoConfig::fast()
                },
                episodes: 12,
                checkpoint_every: 6,
                validation_episodes: 4,
                seed: 31,
            });
            let report = trainer.train_on(&GraphEnv::new, workers);
            assert!(report.best_validation_reward.is_finite());
            assert_eq!(report.episodes_run, 12);
            serde_json::to_string(&report.final_model).expect("models serialise")
        };
        let serial = run(1);
        for workers in [2, 3] {
            assert!(
                run(workers) == serial,
                "{workers} workers train another model"
            );
        }
    }

    #[test]
    fn transfer_starts_from_given_model() {
        let mut rng = SmallRng::seed_from_u64(1);
        let model = PolicyValue::new(2, &mut rng);
        let marker = model.actor().act_deterministic(&[0.9, 0.1]);
        let trainer = Trainer::from_model(TrainerConfig::default(), model);
        let actor = trainer.ppo.model.actor();
        assert_eq!(actor.act_deterministic(&[0.9, 0.1]), marker);
    }
}
