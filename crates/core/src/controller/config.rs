//! [`TopFullConfig`]: rate bounds, the three refinement ablations and
//! the step policy.

use crate::rate_controller::{
    BwRateController, MimdController, RateController, RlRateController, SafeRateController,
};
use rl::policy::PolicyValue;
use std::sync::Arc;

/// TopFull configuration.
#[derive(Clone)]
pub struct TopFullConfig {
    /// Disable for the §6.2 "w/o cluster" ablation: all involved APIs and
    /// overloaded services form a single sub-problem handled serially.
    pub clustering_enabled: bool,
    /// Floor for any rate limit (requests/s).
    pub min_rate: f64,
    /// Ceiling for any finite rate limit (requests/s). `INFINITY` means
    /// no ceiling; releasing a limit entirely is separate and always
    /// allowed.
    pub max_rate: f64,
    /// Remove a recovery API's limit after it has exceeded the offered
    /// load by this factor...
    pub release_headroom: f64,
    /// ...for this many consecutive intervals.
    pub release_after: u32,
    /// Refinement ablation: process only the single fewest-API target
    /// per cluster per interval (a literal reading of §4.1's "one at a
    /// time"); the default acts on every overloaded service each
    /// interval. See DESIGN.md §5, refinement 1.
    pub single_target_per_cluster: bool,
    /// Refinement ablation: when false, decreases follow Algorithm 1
    /// verbatim and may target idle or floor-pinned APIs. See DESIGN.md
    /// §5, refinement 2.
    pub restrict_cuts_to_contributing: bool,
    /// Refinement ablation: when false, group increases are
    /// multiplicative per API (like decreases), freezing whatever rate
    /// ratio the transient produced between same-priority APIs. See
    /// DESIGN.md §5, refinement 3.
    pub fair_group_steps: bool,
    /// The step-size policy shared by all cluster/recovery controllers.
    pub rate_controller: Arc<dyn RateController>,
    /// Minimum cut magnitude while admission is fully collapsed
    /// (goodput ratio ≈ 0 with latency pinned far past the SLO). A
    /// fixed multiplicative step converges geometrically from whatever
    /// limit the overload transient inflated — tens of intervals during
    /// which nothing is served; the scenario fuzzer's minimal
    /// reproducer is a plain flash crowd that keeps p99 above 1.5×SLO
    /// for 23 s with zero goodput. Collapse is unambiguous evidence the
    /// limit is far above capacity, so the cut is deepened to at least
    /// this much — but only within the episode budget
    /// (`controller/episode.rs`); past that the normal step law
    /// resumes. `0.0` disables the escalation (ablation).
    pub collapse_backoff: f64,
}

impl Default for TopFullConfig {
    fn default() -> Self {
        TopFullConfig {
            clustering_enabled: true,
            min_rate: 1.0,
            max_rate: f64::INFINITY,
            release_headroom: 2.0,
            release_after: 5,
            single_target_per_cluster: false,
            restrict_cuts_to_contributing: true,
            fair_group_steps: true,
            rate_controller: Arc::new(MimdController::paper_default()),
            collapse_backoff: 0.25,
        }
    }
}

impl TopFullConfig {
    /// Use the trained RL policy (TopFull proper).
    pub fn with_rl(mut self, policy: PolicyValue) -> Self {
        self.rate_controller = Arc::new(RlRateController::new(policy));
        self
    }

    /// Use the MIMD ablation controller (§6.2).
    pub fn with_mimd(mut self) -> Self {
        self.rate_controller = Arc::new(MimdController::paper_default());
        self
    }

    /// Use the Breakwater-style AIMD controller (TopFull(BW), §6.3).
    pub fn with_bw(mut self) -> Self {
        self.rate_controller = Arc::new(BwRateController);
        self
    }

    /// Use an arbitrary step policy (tests, chaos injection, new
    /// controllers without a dedicated builder).
    pub fn with_rate_controller(mut self, rc: Arc<dyn RateController>) -> Self {
        self.rate_controller = rc;
        self
    }

    /// Disable clustering (§6.2 "w/o cluster" ablation).
    pub fn without_clustering(mut self) -> Self {
        self.clustering_enabled = false;
        self
    }

    /// Absolute floor and ceiling on every finite rate limit. Degenerate
    /// inputs are sanitized: a non-finite or non-positive floor falls
    /// back to the default (1 rps), a NaN ceiling means none, a ceiling
    /// below the floor snaps to the floor. [`super::TopFull::new`]
    /// passes the fields through here too, in case they were set
    /// directly (`clamp` panics on NaN or an inverted range).
    pub fn with_rate_bounds(mut self, min_rate: f64, max_rate: f64) -> Self {
        self.min_rate = if min_rate.is_finite() && min_rate > 0.0 {
            min_rate
        } else {
            1.0
        };
        self.max_rate = if max_rate.is_nan() {
            f64::INFINITY
        } else {
            max_rate.max(self.min_rate)
        };
        self
    }

    /// Wrap the configured step policy in a [`SafeRateController`]:
    /// degraded state routes to the MIMD fallback, and a primary that
    /// repeatedly returns non-finite or out-of-range actions is benched.
    pub fn hardened(mut self) -> Self {
        self.rate_controller = Arc::new(SafeRateController::with_defaults(Arc::clone(
            &self.rate_controller,
        )));
        self
    }
}
