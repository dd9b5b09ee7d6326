//! Pluggable rate-step policies for per-cluster control.
//!
//! A [`RateController`] turns the end-to-end state of a candidate API set
//! — "1) the ratio of goodput to the current rate limit, and 2) the
//! end-to-end percentile latency" (§4.3) — into a multiplicative step in
//! `[-0.5, 0.5]`. Three implementations from the paper:
//!
//! * [`RlRateController`] — the trained PPO policy (TopFull proper).
//! * [`MimdController`] — the §6.2 ablation: a fixed 0.05 multiplicative
//!   decrease past the SLO, a fixed 0.01 increase otherwise.
//! * [`BwRateController`] — §6.3's TopFull(BW): Breakwater's control law
//!   at the entry (additive increase under the delay target,
//!   multiplicative decrease proportional to overload severity).

use rl::policy::{Actor, PolicyValue};

/// End-to-end state of the candidate API set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RateState {
    /// Σ goodput / Σ current rate limits over the candidates, in `[0, 2]`.
    pub goodput_ratio: f64,
    /// Max end-to-end tail latency over candidates, divided by the SLO.
    pub latency_ratio: f64,
    /// Σ current rate limits (requests/s) — lets additive controllers
    /// convert their step to a multiplicative action.
    pub total_limit: f64,
}

impl RateState {
    /// Whether any field is non-finite: telemetry dropped out somewhere
    /// under the candidate set, so the state is a guess.
    pub fn is_degraded(&self) -> bool {
        !(self.goodput_ratio.is_finite()
            && self.latency_ratio.is_finite()
            && self.total_limit.is_finite())
    }
}

/// A step-size policy. Must be `Send + Sync`: one `Arc`'d policy is
/// shared by every controller built from a `TopFullConfig` clone, and
/// those run on the run executor's worker threads.
pub trait RateController: Send + Sync {
    /// Multiplicative step in `[-0.5, 0.5]` applied per Algorithm 1.
    fn decide(&self, s: RateState) -> f64;

    /// Name for experiment reports.
    fn name(&self) -> &str;

    /// For fault-tolerant wrappers: `(strikes, max_strikes, tripped)` of
    /// the wrapped primary, read on the control thread so the decision
    /// journal can record strike transitions deterministically. Plain
    /// controllers report `None`.
    fn fallback_state(&self) -> Option<(u32, u32, bool)> {
        None
    }
}

/// The RL policy (deterministic at inference), served from its frozen
/// actor through the same [`Actor::act_deterministic`] that training
/// validates with.
pub struct RlRateController {
    actor: Actor,
}

impl RlRateController {
    /// Freeze `policy`'s actor; the value net is never served. Panics
    /// if the actor does not take the two-field rate state, so a wrong
    /// net fails where it is built, not at the first decision.
    pub fn new(policy: PolicyValue) -> Self {
        let inputs = policy.pi.dims[0];
        assert!(
            inputs == rl::STATE_DIM,
            "RL policy takes {inputs} inputs, the rate state has {}",
            rl::STATE_DIM
        );
        RlRateController {
            actor: policy.actor(),
        }
    }
}

impl RateController for RlRateController {
    fn decide(&self, s: RateState) -> f64 {
        let state = rl::env::clamp(s.goodput_ratio, s.latency_ratio);
        self.actor.act_deterministic(&state)
    }

    fn name(&self) -> &str {
        "rl"
    }
}

/// Threshold-based multiplicative increase/decrease (the ablation):
/// "it makes a 0.05 multiplicative decrease to the current target rate
/// limit when the latency exceeds the SLO. It makes 0.01 multiplicative
/// increase step to the target APIs, otherwise" (§6.2).
#[derive(Clone, Copy, Debug)]
pub struct MimdController {
    pub decrease: f64,
    pub increase: f64,
}

impl MimdController {
    /// The paper's default steps (−0.05 / +0.01).
    pub fn paper_default() -> Self {
        MimdController {
            decrease: 0.05,
            increase: 0.01,
        }
    }

    /// Custom steps (tests; no paper figure sweeps them — Fig. 13
    /// sweeps DAGOR's α).
    pub fn with_steps(decrease: f64, increase: f64) -> Self {
        MimdController { decrease, increase }
    }
}

impl RateController for MimdController {
    fn decide(&self, s: RateState) -> f64 {
        if s.latency_ratio > 1.0 {
            -self.decrease.clamp(0.0, 0.5)
        } else {
            self.increase.clamp(0.0, 0.5)
        }
    }

    fn name(&self) -> &str {
        "mimd"
    }
}

/// Breakwater's control law as an entry rate controller (TopFull(BW)):
/// additive increase while the latency signal is under target,
/// multiplicative decrease proportional to overload severity (§6.3).
#[derive(Clone, Copy, Debug)]
pub struct BwRateController;

/// [`BwRateController`]'s additive step (requests/s) while healthy.
const BW_ADDITIVE: f64 = 50.0;
/// [`BwRateController`]'s severity sensitivity of the decrease.
const BW_BETA: f64 = 0.4;
/// [`BwRateController`]'s latency target as a fraction of the SLO.
const BW_TARGET_RATIO: f64 = 0.8;

impl RateController for BwRateController {
    fn decide(&self, s: RateState) -> f64 {
        if s.latency_ratio <= BW_TARGET_RATIO {
            if s.total_limit <= 0.0 {
                return 0.5;
            }
            (BW_ADDITIVE / s.total_limit).min(0.5)
        } else {
            let severity = ((s.latency_ratio - BW_TARGET_RATIO) / s.latency_ratio).clamp(0.0, 1.0);
            -(BW_BETA * severity).min(0.5)
        }
    }

    fn name(&self) -> &str {
        "breakwater-style"
    }
}

/// Fault-tolerant wrapper around any [`RateController`].
///
/// Three hazards it absorbs (none of which the inner controllers were
/// written to survive):
///
/// * **Degraded state** — any non-finite field of [`RateState`] (NaN
///   goodput from a telemetry dropout, say) routes the decision to the
///   MIMD fallback on a sanitized, conservatively pessimistic state.
/// * **Misbehaving primary** — a non-finite or out-of-range action from
///   the primary is a *strike*; the output is clamped (or replaced by the
///   fallback's). After `max_strikes` strikes the primary is tripped and
///   the fallback takes over permanently.
/// * **Range violations** — the final answer is always finite and within
///   `[-0.5, 0.5]`, whatever the wrapped controller returned.
pub struct SafeRateController {
    primary: std::sync::Arc<dyn RateController>,
    fallback: MimdController,
    strikes: std::sync::atomic::AtomicU32,
    max_strikes: u32,
    label: String,
}

impl SafeRateController {
    /// Wrap `primary`, falling back to the paper's MIMD steps after
    /// `max_strikes` bad actions.
    pub fn new(primary: std::sync::Arc<dyn RateController>, max_strikes: u32) -> Self {
        let label = format!("safe({})", primary.name());
        SafeRateController {
            primary,
            fallback: MimdController::paper_default(),
            strikes: std::sync::atomic::AtomicU32::new(0),
            max_strikes,
            label,
        }
    }

    /// Wrap with the default strike budget (5).
    pub fn with_defaults(primary: std::sync::Arc<dyn RateController>) -> Self {
        Self::new(primary, 5)
    }

    /// Strikes accumulated so far (for reports and tests).
    pub fn strikes(&self) -> u32 {
        self.strikes.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Whether the primary has been permanently benched.
    pub fn tripped(&self) -> bool {
        self.strikes() >= self.max_strikes
    }

    fn strike(&self) {
        self.strikes
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Replace non-finite state fields with conservative stand-ins: an
    /// unreadable latency is presumed over the SLO (shed load), an
    /// unreadable goodput or limit is presumed zero.
    fn sanitize(s: RateState) -> RateState {
        RateState {
            goodput_ratio: if s.goodput_ratio.is_finite() {
                s.goodput_ratio
            } else {
                0.0
            },
            latency_ratio: if s.latency_ratio.is_finite() {
                s.latency_ratio
            } else {
                1.5
            },
            total_limit: if s.total_limit.is_finite() {
                s.total_limit
            } else {
                0.0
            },
        }
    }
}

impl RateController for SafeRateController {
    fn decide(&self, s: RateState) -> f64 {
        let action = if s.is_degraded() || self.tripped() {
            self.fallback.decide(Self::sanitize(s))
        } else {
            let a = self.primary.decide(s);
            if !a.is_finite() {
                self.strike();
                self.fallback.decide(s)
            } else {
                if a.abs() > 0.5 {
                    self.strike();
                }
                a
            }
        };
        action.clamp(-0.5, 0.5)
    }

    fn name(&self) -> &str {
        &self.label
    }

    fn fallback_state(&self) -> Option<(u32, u32, bool)> {
        Some((self.strikes(), self.max_strikes, self.tripped()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn st(goodput_ratio: f64, latency_ratio: f64, total_limit: f64) -> RateState {
        RateState {
            goodput_ratio,
            latency_ratio,
            total_limit,
        }
    }

    #[test]
    fn mimd_steps_match_paper() {
        let c = MimdController::paper_default();
        assert_eq!(c.decide(st(0.5, 2.0, 100.0)), -0.05);
        assert_eq!(c.decide(st(1.0, 0.5, 100.0)), 0.01);
        // Boundary: exactly at the SLO counts as healthy.
        assert_eq!(c.decide(st(1.0, 1.0, 100.0)), 0.01);
    }

    #[test]
    fn mimd_custom_steps_clamped() {
        let c = MimdController::with_steps(0.9, 0.9);
        assert_eq!(c.decide(st(0.5, 2.0, 100.0)), -0.5);
        assert_eq!(c.decide(st(0.5, 0.5, 100.0)), 0.5);
    }

    #[test]
    fn bw_additive_is_rate_relative() {
        let c = BwRateController;
        // +50 rps on a 500 rps limit = +0.1 multiplicative.
        let a = c.decide(st(1.0, 0.5, 500.0));
        assert!((a - 0.1).abs() < 1e-12);
        // Same additive step is a bigger fraction of a small limit.
        let b = c.decide(st(1.0, 0.5, 100.0));
        assert!((b - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bw_decrease_scales_with_severity() {
        let c = BwRateController;
        let mild = c.decide(st(0.5, 1.0, 500.0));
        let severe = c.decide(st(0.5, 4.0, 500.0));
        assert!(mild < 0.0 && severe < mild, "mild {mild}, severe {severe}");
        assert!(severe >= -0.5);
    }

    #[test]
    fn rl_controller_outputs_bounded_actions() {
        let policy = PolicyValue::new(2, &mut SmallRng::seed_from_u64(1));
        let c = RlRateController::new(policy);
        for s in [st(0.0, 5.0, 10.0), st(1.0, 0.0, 1e6), st(2.0, 1.0, 0.0)] {
            let a = c.decide(s);
            assert!((-0.5..=0.5).contains(&a), "action {a} out of range");
        }
    }

    #[test]
    #[should_panic(expected = "RL policy takes 3 inputs, the rate state has 2")]
    fn a_policy_over_the_wrong_state_is_refused_when_built() {
        RlRateController::new(PolicyValue::new(3, &mut SmallRng::seed_from_u64(1)));
    }

    #[test]
    fn controllers_have_names() {
        assert_eq!(MimdController::paper_default().name(), "mimd");
        assert_eq!(BwRateController.name(), "breakwater-style");
    }

    /// A controller that replays a fixed script of (possibly hostile)
    /// actions.
    struct Rogue {
        script: Vec<f64>,
        at: std::sync::atomic::AtomicUsize,
    }

    impl Rogue {
        fn new(script: Vec<f64>) -> Self {
            Rogue {
                script,
                at: std::sync::atomic::AtomicUsize::new(0),
            }
        }
    }

    impl RateController for Rogue {
        fn decide(&self, _s: RateState) -> f64 {
            let i = self.at.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.script[i % self.script.len()]
        }

        fn name(&self) -> &str {
            "rogue"
        }
    }

    #[test]
    fn safe_wrapper_clamps_and_replaces_hostile_actions() {
        let rogue = Rogue::new(vec![f64::NAN, f64::INFINITY, -7.0, 10.0, f64::NEG_INFINITY]);
        let safe = SafeRateController::new(std::sync::Arc::new(rogue), 100);
        for _ in 0..50 {
            let a = safe.decide(st(1.0, 0.5, 100.0));
            assert!(a.is_finite(), "action must be finite");
            assert!((-0.5..=0.5).contains(&a), "action {a} out of range");
        }
        assert!(safe.strikes() > 0);
    }

    #[test]
    fn safe_wrapper_trips_to_mimd_after_max_strikes() {
        let rogue = Rogue::new(vec![f64::NAN]);
        let safe = SafeRateController::new(std::sync::Arc::new(rogue), 3);
        for _ in 0..3 {
            safe.decide(st(1.0, 0.5, 100.0));
        }
        assert!(safe.tripped());
        // Once tripped, the fallback answers: MIMD's +0.01 under the SLO,
        // −0.05 over it — and the rogue is never consulted again.
        assert_eq!(safe.decide(st(1.0, 0.5, 100.0)), 0.01);
        assert_eq!(safe.decide(st(0.2, 2.0, 100.0)), -0.05);
        assert_eq!(safe.strikes(), 3);
    }

    #[test]
    fn safe_wrapper_routes_degraded_state_to_fallback() {
        // A well-behaved primary that would *increase* on this state —
        // but the state is degraded, so the conservative fallback runs.
        let polite = MimdController::with_steps(0.4, 0.4);
        let safe = SafeRateController::with_defaults(std::sync::Arc::new(polite));
        // Unreadable latency is presumed over the SLO → decrease.
        let a = safe.decide(st(1.0, f64::NAN, 100.0));
        assert_eq!(a, -0.05);
        // Degraded state is not the primary's fault: no strike.
        assert_eq!(safe.strikes(), 0);
        // Non-finite goodput/limit also count as degraded but sanitize to
        // a healthy-latency state → MIMD's gentle increase.
        assert_eq!(safe.decide(st(f64::INFINITY, 0.5, 100.0)), 0.01);
    }

    #[test]
    fn safe_wrapper_passes_good_actions_through() {
        let safe =
            SafeRateController::with_defaults(std::sync::Arc::new(MimdController::paper_default()));
        assert_eq!(safe.decide(st(1.0, 0.5, 100.0)), 0.01);
        assert_eq!(safe.decide(st(0.3, 3.0, 100.0)), -0.05);
        assert_eq!(safe.strikes(), 0);
        assert_eq!(safe.name(), "safe(mimd)");
    }
}
