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
//! Collection is parallel (one [`RunPlan`] job per environment replica,
//! fixed per-worker seeds, merged in worker order) so training is
//! deterministic for a given seed and worker count. Rollouts and
//! validation run the model frozen once per iteration or checkpoint
//! ([`PolicyValue::actor`]).

use crate::env::RlEnv;
use crate::policy::{Actor, Critic, PolicyValue};
use crate::ppo::{Episode, Ppo, PpoConfig};
use cluster::runner::RunPlan;
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
    /// Parallel rollout workers.
    pub workers: usize,
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            ppo: PpoConfig::default(),
            episodes: 1000,
            checkpoint_every: 50,
            validation_episodes: 16,
            workers: 4,
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

/// Mean total reward of deterministic episodes on fixed seeds.
pub fn validate<E: RlEnv>(
    make_env: &(impl Fn() -> E + Sync),
    model: &PolicyValue,
    episodes: usize,
    seed: u64,
) -> f64 {
    let (actor, critic) = (model.actor(), model.critic());
    let mut total = 0.0;
    for i in 0..episodes {
        let mut env = make_env();
        let mut rng = SmallRng::seed_from_u64(derive_seed(seed, "validate") ^ i as u64);
        total += run_episode(&mut env, (&actor, &critic), &mut rng, true).total_reward();
    }
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

    /// Train on environments built by `make_env` (one per worker), with
    /// periodic validation on fresh instances.
    pub fn train<E, F>(&mut self, make_env: F) -> TrainReport
    where
        E: RlEnv + Send,
        F: Fn() -> E + Sync,
    {
        let eps_per_iter =
            (self.config.ppo.train_batch_size / self.config.ppo.steps_per_episode).max(1);
        let workers = self.config.workers.max(1);
        let mut episodes_run = 0usize;
        let mut since_checkpoint = 0usize;
        let mut history = Vec::new();
        let mut best_model = self.ppo.model.clone();
        let mut best_val = f64::NEG_INFINITY;
        let mut update_rng = SmallRng::seed_from_u64(derive_seed(self.config.seed, "sgd"));
        let mut iter = 0u64;

        while episodes_run < self.config.episodes {
            let n = eps_per_iter.min(self.config.episodes - episodes_run).max(1);
            // Split n episodes across workers; the plan merges them in
            // worker order, so results are independent of scheduling.
            let frozen = (&self.ppo.model.actor(), &self.ppo.model.critic());
            let (seed, make_env) = (self.config.seed, &make_env);
            let mut plan = RunPlan::new().with_workers(workers);
            for w in 0..workers {
                let count = n / workers + usize::from(w < n % workers);
                plan.submit(move || {
                    let mut env = make_env();
                    let mut rng = SmallRng::seed_from_u64(
                        derive_seed(seed, "rollout") ^ (iter << 8) ^ w as u64,
                    );
                    (0..count)
                        .map(|_| run_episode(&mut env, frozen, &mut rng, false))
                        .collect::<Vec<_>>()
                });
            }
            let episodes: Vec<Episode> = plan.run().into_iter().flatten().collect();

            let stats = self.ppo.update(&episodes, &mut update_rng);
            episodes_run += n;
            since_checkpoint += n;
            iter += 1;

            if since_checkpoint >= self.config.checkpoint_every
                || episodes_run >= self.config.episodes
            {
                since_checkpoint = 0;
                let val = validate(
                    &make_env,
                    &self.ppo.model,
                    self.config.validation_episodes,
                    self.config.seed,
                );
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
            workers: 2,
            seed: 11,
        });
        let before = validate(&|| Toy { t: 0, s: [0.0; 2] }, &trainer.ppo.model, 8, 11);
        let report = trainer.train(|| Toy { t: 0, s: [0.0; 2] });
        assert!(
            report.best_validation_reward > before,
            "training must improve: {before} → {}",
            report.best_validation_reward
        );
        assert!(!report.history.is_empty());
        assert_eq!(report.episodes_run, 600);
    }

    #[test]
    fn training_is_deterministic() {
        let run = || {
            let mut t = Trainer::new(TrainerConfig {
                ppo: PpoConfig {
                    train_batch_size: 100,
                    steps_per_episode: 10,
                    sgd_iters: 2,
                    ..PpoConfig::fast()
                },
                episodes: 100,
                checkpoint_every: 50,
                validation_episodes: 4,
                workers: 3,
                seed: 21,
            });
            let r = t.train(|| Toy { t: 0, s: [0.0; 2] });
            r.final_model.actor().act_deterministic(&[0.3, 0.3])
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn trainer_runs_on_graph_env() {
        // Smoke test: a short pre-training run completes and yields
        // finite validation scores.
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
        assert!(report.best_validation_reward.is_finite());
        assert_eq!(report.episodes_run, 12);
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
