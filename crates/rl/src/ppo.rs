//! Proximal Policy Optimization with adaptive KL penalty.
//!
//! The update follows RLlib's PPO (which the paper uses, §5): clipped
//! surrogate objective plus a KL penalty whose coefficient adapts toward
//! a KL target, generalized advantage estimation, minibatched SGD with
//! Adam. Defaults come from the paper's Table 1:
//!
//! | parameter | value |
//! |---|---|
//! | steps in episode | 50 |
//! | learning rate | 5e-5 |
//! | KL coeff | 0.2 |
//! | KL target | 0.01 |
//! | minibatch size | 128 |
//! | PPO clip | 0.3 |

use crate::nn::{clip_grad_norm, Adam, FrozenMlp};
use crate::policy::{log_density, PolicyValue};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

/// PPO hyper-parameters (defaults = paper Table 1 + RLlib defaults).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PpoConfig {
    /// Steps per episode (episodes are time-limited, not terminal).
    pub steps_per_episode: usize,
    pub learning_rate: f64,
    pub kl_coeff: f64,
    pub kl_target: f64,
    pub minibatch_size: usize,
    pub clip_param: f64,
    /// Environment steps per training iteration.
    pub train_batch_size: usize,
    /// SGD passes over each batch.
    pub sgd_iters: usize,
    pub gamma: f64,
    pub gae_lambda: f64,
    pub vf_coeff: f64,
    pub grad_clip: f64,
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig {
            steps_per_episode: 50,
            learning_rate: 5e-5,
            kl_coeff: 0.2,
            kl_target: 0.01,
            minibatch_size: 128,
            clip_param: 0.3,
            train_batch_size: 2000,
            sgd_iters: 10,
            gamma: 0.99,
            gae_lambda: 0.95,
            vf_coeff: 1.0,
            grad_clip: 10.0,
        }
    }
}

impl PpoConfig {
    /// A faster-converging profile for the experiment harness (larger
    /// learning rate, same structure). The paper-exact Table 1 settings
    /// are `PpoConfig::default()`.
    pub fn fast() -> Self {
        PpoConfig {
            learning_rate: 3e-4,
            ..PpoConfig::default()
        }
    }
}

/// One recorded episode (time-limited; values bootstrapped at the end).
#[derive(Clone, Debug, Default)]
pub struct Episode {
    pub states: Vec<[f64; 2]>,
    /// Unclipped Gaussian samples.
    pub raw_actions: Vec<f64>,
    pub log_probs: Vec<f64>,
    pub rewards: Vec<f64>,
    /// Value of the state *after* the last step (bootstrap).
    pub bootstrap_value: f64,
}

impl Episode {
    pub fn len(&self) -> usize {
        self.rewards.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rewards.is_empty()
    }

    pub fn total_reward(&self) -> f64 {
        self.rewards.iter().sum()
    }
}

/// Flattened training sample.
#[derive(Clone, Copy, Debug)]
struct Sample {
    state: [f64; 2],
    raw: f64,
    logp_old: f64,
    mean_old: f64,
    advantage: f64,
    ret: f64,
}

/// Statistics of one PPO update.
#[derive(Clone, Copy, Debug, Default)]
pub struct UpdateStats {
    pub mean_kl: f64,
    pub policy_loss: f64,
    pub value_loss: f64,
    pub kl_coeff: f64,
    pub mean_reward_per_episode: f64,
}

/// The PPO learner: owns the model and optimizer state.
pub struct Ppo {
    pub config: PpoConfig,
    pub model: PolicyValue,
    kl_coeff: f64,
    opt_pi: Adam,
    opt_logstd: Adam,
    opt_vf: Adam,
}

impl Ppo {
    /// New learner around `model`.
    pub fn new(model: PolicyValue, config: PpoConfig) -> Self {
        let n_pi = model.pi.params.len();
        let n_vf = model.vf.params.len();
        Ppo {
            kl_coeff: config.kl_coeff,
            opt_pi: Adam::new(config.learning_rate, n_pi),
            opt_logstd: Adam::new(config.learning_rate, 1),
            opt_vf: Adam::new(config.learning_rate, n_vf),
            model,
            config,
        }
    }

    /// Current adaptive KL coefficient.
    pub fn kl_coeff(&self) -> f64 {
        self.kl_coeff
    }

    /// GAE over one episode, returning `(advantages, returns)`.
    fn gae(&self, ep: &Episode, values: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let n = ep.len();
        let (gamma, lambda) = (self.config.gamma, self.config.gae_lambda);
        let mut adv = vec![0.0; n];
        let mut next_value = ep.bootstrap_value;
        let mut next_adv = 0.0;
        for t in (0..n).rev() {
            let delta = ep.rewards[t] + gamma * next_value - values[t];
            next_adv = delta + gamma * lambda * next_adv;
            adv[t] = next_adv;
            next_value = values[t];
        }
        let ret: Vec<f64> = adv.iter().zip(values).map(|(a, v)| a + v).collect();
        (adv, ret)
    }

    /// One training update over a batch of episodes.
    pub fn update(&mut self, episodes: &[Episode], rng: &mut SmallRng) -> UpdateStats {
        // Flatten with GAE.
        let (actor_old, critic) = (self.model.actor(), self.model.critic());
        let mut samples = Vec::new();
        for ep in episodes {
            if ep.is_empty() {
                continue;
            }
            let values: Vec<f64> = ep.states.iter().map(|s| critic.value(s)).collect();
            let (adv, ret) = self.gae(ep, &values);
            for t in 0..ep.len() {
                samples.push(Sample {
                    state: ep.states[t],
                    raw: ep.raw_actions[t],
                    logp_old: ep.log_probs[t],
                    mean_old: actor_old.mean(&ep.states[t]),
                    advantage: adv[t],
                    ret: ret[t],
                });
            }
        }
        if samples.is_empty() {
            return UpdateStats::default();
        }
        let log_std_old = self.model.log_std;
        // Advantage normalization.
        let mean_adv = samples.iter().map(|s| s.advantage).sum::<f64>() / samples.len() as f64;
        let var_adv = samples
            .iter()
            .map(|s| (s.advantage - mean_adv).powi(2))
            .sum::<f64>()
            / samples.len() as f64;
        let std_adv = var_adv.sqrt().max(1e-8);
        for s in samples.iter_mut() {
            s.advantage = (s.advantage - mean_adv) / std_adv;
        }

        let clip = self.config.clip_param;
        let mut stats = UpdateStats::default();
        let mut idx: Vec<usize> = (0..samples.len()).collect();
        for _ in 0..self.config.sgd_iters {
            idx.shuffle(rng);
            for chunk in idx.chunks(self.config.minibatch_size) {
                let n = chunk.len() as f64;
                let mut g_pi = vec![0.0; self.model.pi.params.len()];
                let mut g_logstd = 0.0;
                let mut g_vf = vec![0.0; self.model.vf.params.len()];
                let std_new = self.model.log_std.exp();
                // The tapes read the weights the previous step left.
                let pi = FrozenMlp::new(&self.model.pi);
                let vf = FrozenMlp::new(&self.model.vf);
                for &i in chunk {
                    let s = &samples[i];
                    // Policy forward (with tape for backprop).
                    let (out, tape) = pi.forward_tape(&s.state);
                    let mean = out[0];
                    let z = (s.raw - mean) / std_new;
                    let logp = log_density(s.raw, mean, self.model.log_std);
                    let ratio = (logp - s.logp_old).exp();
                    let surr1 = ratio * s.advantage;
                    let surr2 = ratio.clamp(1.0 - clip, 1.0 + clip) * s.advantage;
                    // Clipped-surrogate gradient w.r.t. logp.
                    let g_logp_surr = if surr1 <= surr2 {
                        -ratio * s.advantage
                    } else {
                        0.0
                    };
                    // KL(old ‖ new) gradient.
                    let s_old = log_std_old.exp();
                    let dm = mean - s.mean_old;
                    let g_mean_kl = self.kl_coeff * dm / (std_new * std_new);
                    let g_logstd_kl =
                        self.kl_coeff * (1.0 - (s_old * s_old + dm * dm) / (std_new * std_new));
                    // Chain rule: dlogp/dmean = z/std, dlogp/dlogstd = z²−1.
                    let d_mean = g_logp_surr * (z / std_new) + g_mean_kl;
                    g_logstd += (g_logp_surr * (z * z - 1.0) + g_logstd_kl) / n;
                    self.model.pi.backward(&tape, &[d_mean / n], &mut g_pi);
                    stats.policy_loss += -surr1.min(surr2) / n;
                    // Value function.
                    let (vout, vtape) = vf.forward_tape(&s.state);
                    let verr = vout[0] - s.ret;
                    stats.value_loss += 0.5 * verr * verr / n;
                    self.model
                        .vf
                        .backward(&vtape, &[self.config.vf_coeff * verr / n], &mut g_vf);
                }
                clip_grad_norm(&mut g_pi, self.config.grad_clip);
                clip_grad_norm(&mut g_vf, self.config.grad_clip);
                self.opt_pi.step(&mut self.model.pi.params, &g_pi);
                let mut ls = [self.model.log_std];
                self.opt_logstd.step(&mut ls, &[g_logstd]);
                self.model.log_std = ls[0].clamp(-4.0, 1.0);
                self.opt_vf.step(&mut self.model.vf.params, &g_vf);
            }
        }
        // Measure the realized KL and adapt the coefficient (RLlib rule).
        let std_new = self.model.log_std.exp();
        let s_old = log_std_old.exp();
        let actor = self.model.actor();
        let mut kl = 0.0;
        for s in &samples {
            let m_new = actor.mean(&s.state);
            let dm = s.mean_old - m_new;
            kl += (self.model.log_std - log_std_old)
                + (s_old * s_old + dm * dm) / (2.0 * std_new * std_new)
                - 0.5;
        }
        kl /= samples.len() as f64;
        if kl > 2.0 * self.config.kl_target {
            self.kl_coeff *= 1.5;
        } else if kl < self.config.kl_target / 2.0 {
            self.kl_coeff *= 0.5;
        }
        stats.mean_kl = kl;
        stats.kl_coeff = self.kl_coeff;
        stats.mean_reward_per_episode =
            episodes.iter().map(Episode::total_reward).sum::<f64>() / episodes.len().max(1) as f64;
        let total_updates =
            (self.config.sgd_iters * samples.len().div_ceil(self.config.minibatch_size)) as f64;
        stats.policy_loss /= total_updates.max(1.0) / self.config.sgd_iters as f64;
        stats.value_loss /= total_updates.max(1.0) / self.config.sgd_iters as f64;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Actor;
    use rand::{Rng, SeedableRng};

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn table1_defaults() {
        let c = PpoConfig::default();
        assert_eq!(c.steps_per_episode, 50);
        assert_eq!(c.learning_rate, 5e-5);
        assert_eq!(c.kl_coeff, 0.2);
        assert_eq!(c.kl_target, 0.01);
        assert_eq!(c.minibatch_size, 128);
        assert_eq!(c.clip_param, 0.3);
    }

    #[test]
    fn gae_matches_hand_computation() {
        // Two-step episode, γ=λ=1: adv[t] = Σ r - V bootstrapped.
        let cfg = PpoConfig {
            gamma: 1.0,
            gae_lambda: 1.0,
            ..PpoConfig::default()
        };
        let model = PolicyValue::new(2, &mut rng(1));
        let ppo = Ppo::new(model, cfg);
        let ep = Episode {
            states: vec![[0.0, 0.0], [0.0, 0.0]],
            raw_actions: vec![0.0, 0.0],
            log_probs: vec![0.0, 0.0],
            rewards: vec![1.0, 2.0],
            bootstrap_value: 3.0,
        };
        let values = vec![0.5, 0.25];
        let (adv, ret) = ppo.gae(&ep, &values);
        // adv[1] = 2 + 3 - 0.25 = 4.75; adv[0] = 1 + 0.25 - 0.5 + 4.75 = 5.5
        assert!((adv[1] - 4.75).abs() < 1e-12);
        assert!((adv[0] - 5.5).abs() < 1e-12);
        assert!((ret[0] - 6.0).abs() < 1e-12);
        assert!((ret[1] - 5.0).abs() < 1e-12);
    }

    /// A 1-step bandit: reward = −(action − 0.3)². PPO should move the
    /// policy mean toward 0.3.
    fn bandit_episode(actor: &Actor, rng: &mut SmallRng) -> Episode {
        let state = [rng.gen::<f64>(), rng.gen::<f64>()];
        let (raw, a, logp) = actor.act_stochastic(&state, rng);
        let reward = -(a - 0.3).powi(2);
        Episode {
            states: vec![state],
            raw_actions: vec![raw],
            log_probs: vec![logp],
            rewards: vec![reward],
            bootstrap_value: 0.0,
        }
    }

    #[test]
    fn ppo_solves_a_bandit() {
        let mut r = rng(5);
        let model = PolicyValue::new(2, &mut r);
        let mut ppo = Ppo::new(
            model,
            PpoConfig {
                learning_rate: 3e-3,
                train_batch_size: 256,
                minibatch_size: 64,
                sgd_iters: 5,
                ..PpoConfig::default()
            },
        );
        for _ in 0..60 {
            let actor = ppo.model.actor();
            let eps: Vec<Episode> = (0..256).map(|_| bandit_episode(&actor, &mut r)).collect();
            ppo.update(&eps, &mut r);
        }
        // The deterministic action should now be near 0.3 everywhere.
        let (actor, mut worst) = (ppo.model.actor(), 0.0_f64);
        for s in [[0.1, 0.1], [0.5, 0.9], [0.9, 0.2]] {
            let a = actor.act_deterministic(&s);
            worst = worst.max((a - 0.3).abs());
        }
        assert!(worst < 0.12, "bandit optimum 0.3, worst deviation {worst}");
    }

    #[test]
    fn value_function_learns_returns() {
        // Constant reward 1, γ=0 → returns are 1 everywhere.
        let mut r = rng(6);
        let model = PolicyValue::new(2, &mut r);
        let mut ppo = Ppo::new(
            model,
            PpoConfig {
                learning_rate: 1e-2,
                gamma: 0.0,
                sgd_iters: 5,
                minibatch_size: 64,
                ..PpoConfig::default()
            },
        );
        for _ in 0..40 {
            let actor = ppo.model.actor();
            let eps: Vec<Episode> = (0..64)
                .map(|_| {
                    let state = [r.gen::<f64>(), r.gen::<f64>()];
                    let (raw, _, logp) = actor.act_stochastic(&state, &mut r);
                    Episode {
                        states: vec![state],
                        raw_actions: vec![raw],
                        log_probs: vec![logp],
                        rewards: vec![1.0],
                        bootstrap_value: 0.0,
                    }
                })
                .collect();
            ppo.update(&eps, &mut r);
        }
        let v = ppo.model.critic().value(&[0.5, 0.5]);
        assert!((v - 1.0).abs() < 0.2, "value ≈1, got {v}");
    }

    #[test]
    fn kl_coefficient_adapts() {
        let mut r = rng(7);
        let model = PolicyValue::new(2, &mut r);
        // Huge LR forces big policy jumps → KL blows past target → coeff
        // must increase.
        let mut ppo = Ppo::new(
            model,
            PpoConfig {
                learning_rate: 5e-2,
                sgd_iters: 10,
                minibatch_size: 32,
                ..PpoConfig::default()
            },
        );
        let c0 = ppo.kl_coeff();
        for _ in 0..5 {
            let actor = ppo.model.actor();
            let eps: Vec<Episode> = (0..64).map(|_| bandit_episode(&actor, &mut r)).collect();
            ppo.update(&eps, &mut r);
        }
        assert!(ppo.kl_coeff() > c0, "KL coeff should rise under big steps");
    }

    #[test]
    fn at_unchanged_weights_every_ppo_ratio_is_exactly_one() {
        // A rollout records `logp_old` through the served forward pass;
        // `Ppo::update` recomputes it through `forward_tape`.
        let mut r = rng(10);
        let model = PolicyValue::new(2, &mut r);
        let (actor, pi) = (model.actor(), FrozenMlp::new(&model.pi));
        for _ in 0..1000 {
            let state = [r.gen_range(0.0..2.0), r.gen_range(0.0..5.0)];
            let (raw, _, logp_old) = actor.act_stochastic(&state, &mut r);
            let (out, _) = pi.forward_tape(&state);
            let logp = log_density(raw, out[0], model.log_std);
            assert_eq!(logp.to_bits(), logp_old.to_bits(), "at {state:?}, {raw}");
            assert_eq!((logp - logp_old).exp(), 1.0);
        }
    }

    #[test]
    fn empty_update_is_safe() {
        let mut r = rng(8);
        let model = PolicyValue::new(2, &mut r);
        let mut ppo = Ppo::new(model, PpoConfig::default());
        let stats = ppo.update(&[], &mut r);
        assert_eq!(stats.mean_kl, 0.0);
    }

    #[test]
    fn update_is_deterministic_given_seed() {
        let run = || {
            let mut r = rng(9);
            let model = PolicyValue::new(2, &mut r);
            let mut ppo = Ppo::new(model, PpoConfig::fast());
            for _ in 0..3 {
                let actor = ppo.model.actor();
                let eps: Vec<Episode> = (0..32).map(|_| bandit_episode(&actor, &mut r)).collect();
                ppo.update(&eps, &mut r);
            }
            ppo.model.actor().act_deterministic(&[0.4, 0.6])
        };
        assert_eq!(run(), run());
    }
}
