//! Environment abstraction for the rate-controller agent.

use rand::rngs::SmallRng;

/// One step's outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepResult {
    /// Next state (goodput/limit ratio, normalized tail latency).
    pub state: [f64; 2],
    /// Reward: `ΔGoodput − ρ·max(0, latency − SLO)` (Equation 3).
    pub reward: f64,
    /// Episode termination.
    pub done: bool,
}

/// An episodic environment with the paper's 2-dim state / 1-dim action.
pub trait RlEnv {
    /// Start a new episode; returns the initial state.
    fn reset(&mut self, rng: &mut SmallRng) -> [f64; 2];

    /// Apply a (clipped) multiplicative rate action in `[-0.5, 0.5]`.
    fn step(&mut self, action: f64, rng: &mut SmallRng) -> StepResult;

    /// Fixed episode length (the paper uses 50 steps, Table 1).
    fn horizon(&self) -> usize {
        50
    }
}

/// The §4.3 state: goodput over the rate limit (0 at a zero limit) and
/// tail latency over the SLO, through [`clamp`]. Both environments, the
/// controller (`topfull::TopFull`) and a shard's local fallback observe
/// through it.
pub fn state(goodput: f64, limit: f64, latency: f64, slo: f64) -> [f64; 2] {
    let ratio = if limit > 0.0 { goodput / limit } else { 0.0 };
    clamp(ratio, latency / slo)
}

/// The §4.3 state's range: the goodput ratio clamped to `[0, 2]`, the
/// latency ratio to `[0, 5]` (a NaN stays NaN). The served policy
/// (`topfull::RlRateController`) clamps whatever state it is handed
/// here, since a `RateController` may be called with any ratios.
pub fn clamp(goodput_ratio: f64, latency_ratio: f64) -> [f64; 2] {
    [goodput_ratio.clamp(0.0, 2.0), latency_ratio.clamp(0.0, 5.0)]
}

/// ρ in Equation 3: the weight of the latency penalty against the
/// normalised goodput gain.
const RHO: f64 = 1.0;

/// Equation 3, normalised: the goodput `gain` since the last step over
/// the episode's `scale`, less `RHO` times the latency's excess over
/// the SLO in SLOs, capped at 5.
pub fn reward(gain: f64, scale: f64, latency: f64, slo: f64) -> f64 {
    gain / scale - RHO * ((latency - slo).max(0.0) / slo).min(5.0)
}

/// The limit after one step's multiplicative `action`, floored at 1 % of
/// the episode's `scale` so that recovery is always possible.
pub fn step_limit(limit: f64, action: f64, scale: f64) -> f64 {
    (limit * (1.0 + action)).max(scale * 0.01)
}
