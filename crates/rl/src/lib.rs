//! # rl — from-scratch PPO for the TopFull rate controller
//!
//! The paper's rate controller is a PPO agent (§4.3, Table 1) with a
//! two-dimensional state (goodput/rate-limit ratio, end-to-end percentile
//! latency), a one-dimensional continuous action in `[-0.5, 0.5]`
//! (multiplicative rate-limit step), and reward
//! `ΔGoodput − ρ·max(0, latency − SLO)`. The offline environment has no
//! RL framework, so this crate implements the whole stack:
//!
//! * [`nn`] — flat-parameter MLPs with manual backprop and [`nn::Adam`],
//!   evaluated by one column-major forward kernel ([`nn::FrozenMlp`]).
//! * [`policy`] — diagonal-Gaussian policy + value function, and the
//!   actor's frozen serving form ([`policy::Actor`]).
//! * [`ppo`] — clipped-surrogate PPO with RLlib-style adaptive KL penalty
//!   and GAE; hyper-parameters default to the paper's Table 1.
//! * [`mod@env`] — the environment abstraction.
//! * [`graph_env`] — the paper's lightweight DAG simulator used for
//!   pre-training ("Simulator's design principle", §4.3).
//! * [`cluster_env`] — the specialization environment wrapping the full
//!   [`cluster`] simulator (the "real-world application" stage of the
//!   paper's Sim2Real pipeline, one fidelity level down).
//! * [`trainer`] — episode collection (parallel, deterministic),
//!   checkpointing, validation-based model selection, and the two-stage
//!   Sim2Real pipeline.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod cluster_env;
pub mod env;
pub mod graph_env;
pub mod nn;
pub mod policy;
pub mod ppo;
pub mod trainer;

pub use env::RlEnv;
pub use policy::PolicyValue;
pub use ppo::{Ppo, PpoConfig};
pub use trainer::{Trainer, TrainerConfig};

/// Action-space bounds from the paper: "The RL agent selects an action
/// from the continuous space between -0.5 and 0.5" (§4.3).
pub const ACTION_LOW: f64 = -0.5;
/// See [`ACTION_LOW`].
pub const ACTION_HIGH: f64 = 0.5;
/// State dimensionality: goodput/limit ratio and normalized tail latency.
pub const STATE_DIM: usize = 2;
