//! DAGOR's priority-threshold gate: the one statement of WeChat's
//! adaptation law.
//!
//! A request carries a composite level `business · user_levels + user`
//! (lower = more important) and a gate admits levels strictly below an
//! adaptive threshold. The adaptation law is WeChat's: when overloaded,
//! move the threshold so the top α fraction of last window's *admitted*
//! load is shed (always progressing by at least one level); when
//! healthy, extend it upward through the *seen* histogram until ≈β of
//! the load would be re-admitted. The overload signal itself is
//! external: a caller compares the queuing delay it watches with
//! [`PriorityGate::queuing_delay_threshold`].
//!
//! Two callers. At the front door one gate guards the whole entry point,
//! the *composable stage* ahead of TopFull's token bucket; the simulator
//! and the live gateway both derive its signal from the same
//! [`ClusterObservation`](crate::observe::ClusterObservation) queuing-
//! delay telemetry, which is what keeps the two planes bit-compatible.
//! And `baselines::Dagor`, the paper's comparator, is one gate per
//! service, each adapting on its own service's delay.

use simnet::SimDuration;

/// Priority-gate tuning; `baselines::Dagor` takes the same struct.
#[derive(Clone, Copy, Debug)]
pub struct PriorityConfig {
    /// Number of business tiers; levels span `tiers × user_levels`.
    pub business_tiers: u32,
    /// User sub-levels per business tier.
    pub user_levels: u32,
    /// Fraction of last-window admitted load shed per overloaded tick
    /// (paper, Fig. 13: "static decisions of 0.05 multiplicative
    /// decreases").
    pub alpha: f64,
    /// Fraction of load re-admitted per healthy tick (paper: 0.01).
    pub beta: f64,
    /// Mean queuing delay above which the guarded point counts as
    /// overloaded (WeChat uses ~20 ms).
    pub queuing_delay_threshold: SimDuration,
}

impl Default for PriorityConfig {
    fn default() -> Self {
        PriorityConfig {
            business_tiers: 8,
            user_levels: 128,
            alpha: 0.05,
            beta: 0.01,
            queuing_delay_threshold: SimDuration::from_millis(20),
        }
    }
}

/// One threshold adaptation step, for journaling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThresholdMove {
    pub from: u32,
    pub to: u32,
    /// Requests admitted by the gate in the window that drove the move.
    pub admitted: u64,
    /// Requests shed by the gate in that window.
    pub shed: u64,
    /// `"overload"` or `"recovery"`.
    pub reason: &'static str,
}

/// Adaptive priority-threshold gate. See module docs.
pub struct PriorityGate {
    cfg: PriorityConfig,
    levels: u32,
    /// Admit levels strictly below this threshold.
    threshold: u32,
    /// Histogram of levels seen (admitted + shed) this window.
    seen: Vec<u32>,
    /// Of which admitted.
    admitted: Vec<u32>,
}

impl PriorityGate {
    pub fn new(cfg: PriorityConfig) -> Self {
        let levels = (cfg.business_tiers.max(1)) * (cfg.user_levels.max(1));
        PriorityGate {
            cfg,
            levels,
            threshold: levels,
            seen: vec![0; levels as usize],
            admitted: vec![0; levels as usize],
        }
    }

    /// Composite level of a `(business, user)` pair, clamped into the
    /// configured level space. Lower = more important.
    pub fn level(&self, business: u8, user: u8) -> u32 {
        let tiers = self.cfg.business_tiers.max(1);
        let users = self.cfg.user_levels.max(1);
        u32::from(business).min(tiers - 1) * users + u32::from(user).min(users - 1)
    }

    /// Current admission threshold (levels strictly below it pass).
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Size of the level space.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    pub fn queuing_delay_threshold(&self) -> SimDuration {
        self.cfg.queuing_delay_threshold
    }

    /// Admit or shed one request at `level`, recording it in the
    /// window histograms either way.
    pub fn admit(&mut self, level: u32) -> bool {
        let level = level.min(self.levels - 1);
        self.seen[level as usize] += 1;
        let ok = level < self.threshold;
        if ok {
            self.admitted[level as usize] += 1;
        }
        ok
    }

    /// Close the window and adapt the threshold to the external
    /// `overloaded` signal. Returns the move when the threshold
    /// changed. The window histograms are cleared either way.
    pub fn adapt(&mut self, overloaded: bool) -> Option<ThresholdMove> {
        let admitted_total: u64 = self.admitted.iter().map(|c| u64::from(*c)).sum();
        let seen_total: u64 = self.seen.iter().map(|c| u64::from(*c)).sum();
        let shed_total = seen_total - admitted_total;
        let from = self.threshold;
        let mut reason = "overload";
        if overloaded {
            if admitted_total > 0 {
                // Shed the top α fraction of last window's admitted
                // load: walk levels ascending until (1-α) is covered.
                let keep = (admitted_total as f64 * (1.0 - self.cfg.alpha)) as u64;
                let mut acc = 0u64;
                let mut new_th = 0u32;
                for (lvl, c) in self.admitted.iter().enumerate() {
                    if acc >= keep {
                        break;
                    }
                    acc += u64::from(*c);
                    new_th = lvl as u32 + 1;
                }
                // Always make progress by at least one level.
                self.threshold = new_th.min(self.threshold.saturating_sub(1));
            } else {
                self.threshold = self.threshold.saturating_sub(1);
            }
        } else if self.threshold < self.levels {
            // Re-admit ≈β of the load: extend the threshold upward
            // through the seen histogram (at least one level, so
            // recovery always proceeds).
            reason = "recovery";
            let extra_target = ((admitted_total as f64 * self.cfg.beta) as u64).max(1);
            let mut acc = 0u64;
            let mut th = self.threshold;
            while th < self.levels {
                acc += u64::from(self.seen[th as usize]);
                th += 1;
                if acc >= extra_target {
                    break;
                }
            }
            self.threshold = th;
        }
        self.seen.iter_mut().for_each(|c| *c = 0);
        self.admitted.iter_mut().for_each(|c| *c = 0);
        (self.threshold != from).then_some(ThresholdMove {
            from,
            to: self.threshold,
            admitted: admitted_total,
            shed: shed_total,
            reason,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn gate() -> PriorityGate {
        PriorityGate::new(PriorityConfig::default())
    }

    /// Offer `n` uniform-user requests of one business tier.
    fn offer(g: &mut PriorityGate, business: u8, n: u32, rng: &mut impl Rng) -> u32 {
        let mut admitted = 0;
        for _ in 0..n {
            let level = g.level(business, rng.gen_range(0..=127));
            if g.admit(level) {
                admitted += 1;
            }
        }
        admitted
    }

    #[test]
    fn admits_everything_initially() {
        let mut g = gate();
        let top = g.level(7, 127);
        assert!(g.admit(top));
    }

    #[test]
    fn level_orders_business_before_user_and_clamps() {
        let g = gate();
        assert!(g.level(0, 127) < g.level(1, 0));
        assert_eq!(g.level(200, 200), g.levels() - 1);
    }

    #[test]
    fn overload_sheds_alpha_fraction_and_reports_the_move() {
        let mut g = gate();
        let mut rng = simnet::rng::fork(1, "t");
        offer(&mut g, 0, 10_000, &mut rng);
        let mv = g.adapt(true).expect("threshold must move under overload");
        assert_eq!(mv.from, g.levels());
        assert_eq!(mv.reason, "overload");
        assert_eq!(mv.admitted, 10_000);
        assert!(mv.to < 128, "cut into the occupied tier, got {}", mv.to);
        let admitted = offer(&mut g, 0, 10_000, &mut rng);
        let frac = f64::from(admitted) / 10_000.0;
        assert!(
            (0.92..=0.98).contains(&frac),
            "≈95% admitted after one α=0.05 cut, got {frac}"
        );
    }

    #[test]
    fn recovery_climbs_back_and_caps_at_full_open() {
        let mut g = gate();
        let mut rng = simnet::rng::fork(2, "t");
        for _ in 0..20 {
            offer(&mut g, 0, 5_000, &mut rng);
            g.adapt(true);
        }
        let low = g.threshold();
        for _ in 0..300 {
            offer(&mut g, 0, 5_000, &mut rng);
            if let Some(mv) = g.adapt(false) {
                assert_eq!(mv.reason, "recovery");
                assert!(mv.to > mv.from);
            }
        }
        assert!(g.threshold() > low, "recovers: {low} → {}", g.threshold());
        assert!(g.threshold() <= g.levels());
    }

    #[test]
    fn sheds_low_business_priority_first() {
        let mut g = gate();
        let mut rng = simnet::rng::fork(3, "t");
        for _ in 0..30 {
            offer(&mut g, 0, 2_000, &mut rng);
            offer(&mut g, 5, 2_000, &mut rng);
            g.adapt(true);
        }
        let high = offer(&mut g, 0, 1_000, &mut rng);
        let low = offer(&mut g, 5, 1_000, &mut rng);
        assert!(high > 0, "high priority still partially admitted");
        assert_eq!(low, 0, "low priority fully shed first");
    }

    #[test]
    fn stable_when_healthy_and_fully_open() {
        let mut g = gate();
        let mut rng = simnet::rng::fork(4, "t");
        offer(&mut g, 0, 1_000, &mut rng);
        assert!(g.adapt(false).is_none(), "no move when already open");
    }

    #[test]
    fn shed_count_reaches_the_move_report() {
        let mut g = gate();
        let mut rng = simnet::rng::fork(5, "t");
        offer(&mut g, 0, 4_000, &mut rng);
        g.adapt(true);
        let admitted = offer(&mut g, 0, 4_000, &mut rng);
        let mv = g.adapt(true).expect("second cut");
        assert_eq!(mv.admitted, u64::from(admitted));
        assert_eq!(mv.shed, u64::from(4_000 - admitted));
    }
}
