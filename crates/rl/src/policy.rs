//! Diagonal-Gaussian policy and value function.
//!
//! The actor maps the 2-dim state to the mean of a 1-dim Gaussian whose
//! log-std is a free learnable parameter (RLlib's default for continuous
//! PPO); the critic is a separate MLP. Sampled actions are clipped to the
//! paper's `[-0.5, 0.5]` action space at *application* time while
//! log-probabilities are computed on the unclipped sample, matching
//! RLlib's space-clipping behaviour.

use crate::nn::{FrozenMlp, Mlp};
use crate::{ACTION_HIGH, ACTION_LOW};
use rand::rngs::SmallRng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

const LN_2PI: f64 = 1.837_877_066_409_345_5;

/// Actor-critic parameters: policy mean net, log-std, and value net —
/// the training and storage form. Served and sampled through
/// [`PolicyValue::actor`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PolicyValue {
    pub pi: Mlp,
    /// Global log standard deviation of the action Gaussian.
    pub log_std: f64,
    pub vf: Mlp,
}

impl PolicyValue {
    /// Fresh networks: `state_dim → 64 → 64 → 1` for both heads.
    pub fn new(state_dim: usize, rng: &mut SmallRng) -> Self {
        PolicyValue {
            pi: Mlp::new(&[state_dim, 64, 64, 1], rng),
            // std ≈ 0.2: explores a meaningful fraction of [-0.5, 0.5].
            log_std: -1.6,
            vf: Mlp::new(&[state_dim, 64, 64, 1], rng),
        }
    }

    /// The actor as it is served and sampled, frozen at the current
    /// weights: freeze again after they change.
    pub fn actor(&self) -> Actor {
        Actor {
            net: FrozenMlp::new(&self.pi),
            log_std: self.log_std,
        }
    }

    /// The critic, frozen at the current weights.
    pub(crate) fn critic(&self) -> Critic {
        Critic(FrozenMlp::new(&self.vf))
    }

    /// Save as JSON.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        let json = serde_json::to_string(self).expect("serializable");
        std::fs::write(path, json)
    }

    /// Load from JSON. A file that parses but describes nets a
    /// [`FrozenMlp`] would index out of range on, or anything other than
    /// one action mean and one value over the same state, is
    /// `InvalidData` here — not a panic on the control thread at the
    /// first decision.
    pub fn load(path: &std::path::Path) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        let invalid = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
        let model: PolicyValue = serde_json::from_str(&json).map_err(|e| invalid(e.to_string()))?;
        model.check_shape().map_err(invalid)?;
        Ok(model)
    }

    fn check_shape(&self) -> Result<(), String> {
        for (name, net) in [("pi", &self.pi), ("vf", &self.vf)] {
            net.check_shape().map_err(|e| format!("{name}: {e}"))?;
            let outputs = net.dims[net.dims.len() - 1];
            if outputs != 1 {
                return Err(format!("{name}: {outputs} outputs, want 1"));
            }
        }
        let (pi_in, vf_in) = (self.pi.dims[0], self.vf.dims[0]);
        if pi_in != vf_in {
            return Err(format!("pi takes {pi_in} inputs, vf {vf_in}"));
        }
        if !self.log_std.is_finite() {
            return Err(format!("log_std {} is not finite", self.log_std));
        }
        Ok(())
    }
}

/// A [`PolicyValue`]'s actor frozen for serving (its net column-major,
/// `rl::nn`'s one forward kernel): what the rate controller decides
/// through, rollouts sample and validation scores.
#[derive(Debug)]
pub struct Actor {
    net: FrozenMlp,
    log_std: f64,
}

impl Actor {
    /// The action Gaussian's mean at `state`.
    pub(crate) fn mean(&self, state: &[f64]) -> f64 {
        let mut mean = [0.0];
        self.net.forward_into(state, &mut mean);
        mean[0]
    }

    /// Deterministic action (the mean), clipped to the action space. A
    /// non-finite mean (diverged or corrupted weights, NaN in the state)
    /// yields the neutral action 0.0 — `clamp` alone would pass NaN
    /// through to the rate limiter.
    pub fn act_deterministic(&self, state: &[f64]) -> f64 {
        let mean = self.mean(state);
        if mean.is_finite() {
            mean.clamp(ACTION_LOW, ACTION_HIGH)
        } else {
            0.0
        }
    }

    /// Sample an action; returns `(raw_sample, clipped_action, log_prob)`.
    ///
    /// `raw_sample` feeds the PPO update; `clipped_action` is what the
    /// environment executes.
    pub fn act_stochastic(&self, state: &[f64], rng: &mut SmallRng) -> (f64, f64, f64) {
        let mean = self.mean(state);
        let std = self.log_std.exp();
        let raw = Normal::new(mean, std).expect("valid normal").sample(rng);
        let logp = log_density(raw, mean, self.log_std);
        (raw, raw.clamp(ACTION_LOW, ACTION_HIGH), logp)
    }
}

/// `ln N(raw; mean, e^log_std)`: the one Gaussian log-density, which a
/// rollout records and the PPO update recomputes, so that at unchanged
/// weights every PPO ratio is exactly 1.
pub(crate) fn log_density(raw: f64, mean: f64, log_std: f64) -> f64 {
    let z = (raw - mean) / log_std.exp();
    -0.5 * z * z - log_std - 0.5 * LN_2PI
}

/// A [`PolicyValue`]'s critic frozen for value estimates.
#[derive(Debug)]
pub(crate) struct Critic(FrozenMlp);

impl Critic {
    /// State value estimate.
    pub(crate) fn value(&self, state: &[f64]) -> f64 {
        let mut value = [0.0];
        self.0.forward_into(state, &mut value);
        value[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn pv() -> PolicyValue {
        PolicyValue::new(2, &mut SmallRng::seed_from_u64(1))
    }

    #[test]
    fn non_finite_state_yields_neutral_action() {
        let actor = pv().actor();
        for s in [
            [f64::NAN, 0.5],
            [0.5, f64::INFINITY],
            [f64::NEG_INFINITY, f64::NAN],
        ] {
            let a = actor.act_deterministic(&s);
            assert!(a.is_finite(), "action must stay finite, got {a}");
            assert!((ACTION_LOW..=ACTION_HIGH).contains(&a));
        }
    }

    #[test]
    fn deterministic_action_is_in_bounds() {
        let actor = pv().actor();
        for s in [[-5.0, 5.0], [0.0, 0.0], [100.0, -100.0]] {
            let a = actor.act_deterministic(&s);
            assert!((ACTION_LOW..=ACTION_HIGH).contains(&a));
        }
    }

    #[test]
    fn stochastic_actions_explore() {
        let actor = pv().actor();
        let mut rng = SmallRng::seed_from_u64(9);
        let actions: Vec<f64> = (0..100)
            .map(|_| actor.act_stochastic(&[0.5, 0.5], &mut rng).1)
            .collect();
        let mean = actions.iter().sum::<f64>() / actions.len() as f64;
        let var = actions.iter().map(|a| (a - mean).powi(2)).sum::<f64>() / 100.0;
        assert!(var > 1e-4, "sampling must explore, var={var}");
        assert!(actions
            .iter()
            .all(|a| (ACTION_LOW..=ACTION_HIGH).contains(a)));
    }

    #[test]
    fn a_sample_carries_its_gaussian_log_density() {
        let p = pv();
        let actor = p.actor();
        let s = [0.3, 0.7];
        let mean = actor.mean(&s);
        let std = p.log_std.exp();
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..100 {
            let (raw, _, logp) = actor.act_stochastic(&s, &mut rng);
            let z = (raw - mean) / std;
            let pdf = (-0.5 * z * z).exp() / (std * std::f64::consts::TAU.sqrt());
            assert!((logp.exp() - pdf).abs() < 1e-12 * pdf.max(1.0), "at {raw}");
        }
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("topfull-rl-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("policy.json");
        let p = pv();
        p.save(&path).unwrap();
        let q = PolicyValue::load(&path).unwrap();
        // JSON float round-trips can differ in the last ulp.
        let s = [0.2, 0.4];
        let da = (p.actor().act_deterministic(&s) - q.actor().act_deterministic(&s)).abs();
        let dv = (p.critic().value(&s) - q.critic().value(&s)).abs();
        assert!(da < 1e-12, "action drift {da}");
        assert!(dv < 1e-12, "value drift {dv}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn committed_models_load() {
        for name in ["base", "transfer_ob", "transfer_tt"] {
            let path = format!(
                "{}/../../artifacts/models/{name}.json",
                env!("CARGO_MANIFEST_DIR")
            );
            let p = PolicyValue::load(std::path::Path::new(&path))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(p.pi.dims[0], crate::STATE_DIM, "{name}");
        }
    }

    #[test]
    fn a_malformed_model_file_is_a_load_error_naming_the_fault() {
        let dir = std::env::temp_dir().join("topfull-rl-malformed");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("policy.json");
        let mut rng = SmallRng::seed_from_u64(2);
        let mut cases: Vec<(String, &str)> = Vec::new();
        let mut case = |edit: &dyn Fn(&mut PolicyValue), names: &'static str| {
            let mut p = pv();
            edit(&mut p);
            cases.push((serde_json::to_string(&p).unwrap(), names));
        };
        case(
            &|p| p.pi.params.truncate(4416),
            "pi: dims [2, 64, 64, 1] need 4417 params, found 4416",
        );
        case(
            &|p| p.vf.params.push(0.0),
            "vf: dims [2, 64, 64, 1] need 4417",
        );
        case(
            &|p| p.vf.dims = vec![2],
            "vf: dims [2]: need two or more widths",
        );
        case(
            &|p| p.pi.dims = vec![],
            "pi: dims []: need two or more widths",
        );
        case(
            &|p| p.pi.dims[1] = 0,
            "pi: dims [2, 0, 64, 1]: need two or more widths, none 0",
        );
        case(
            &|p| p.pi.dims = vec![usize::MAX, usize::MAX, 1],
            "need 18446744073709551615 params",
        );
        let wide = Mlp::new(&[2, 4, 3], &mut rng);
        case(&|p| p.pi = wide.clone(), "pi: 3 outputs, want 1");
        let other_state = Mlp::new(&[3, 4, 1], &mut rng);
        case(&|p| p.vf = other_state.clone(), "pi takes 2 inputs, vf 3");
        let good = serde_json::to_string(&pv()).unwrap();
        assert!(
            good.contains("\"log_std\":-1.6"),
            "the next edit found nothing"
        );
        cases.push((
            good.replace("\"log_std\":-1.6", "\"log_std\":1e999"),
            "log_std inf is not finite",
        ));
        for (json, names) in cases {
            std::fs::write(&path, json).unwrap();
            let err = PolicyValue::load(&path).expect_err(names);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{names}");
            assert!(err.to_string().contains(names), "{names}: got '{err}'");
        }
        std::fs::remove_file(&path).ok();
    }
}
