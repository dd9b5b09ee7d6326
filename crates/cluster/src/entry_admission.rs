//! Entry admission: per-API token-bucket rate limiting, the paper's one
//! actuation point.
//!
//! "The rate limiter is attached at the entry and performs load control
//! according to the given rate limit thresholds" (§5). Each external API
//! has its own token bucket; the controller moves the bucket rates, and
//! every arriving request either takes a token or is rejected at the door
//! (costing the cluster nothing — the whole point of top-down control).
//!
//! For the Sim2Real story to hold, the simulator and the real gateway
//! must make *identical* admit/deny decisions for identical rate-limit
//! programs and timestamps. Both hold this bank and nothing in front of
//! it — [`Engine`](crate::engine::Engine) as its `entry`, `liveserve`
//! behind its admission lock — so there is no second front end to drift.
//!
//! Time is a [`SimTime`]. The simulator passes virtual time; the live
//! gateway maps wall-clock nanoseconds since server start through
//! [`SimTime::from_nanos`], so bucket refill arithmetic is shared bit for
//! bit.

use crate::types::ApiId;
use simnet::{SimTime, TokenBucket};

/// Rate-limit state for one API. `None` bucket = unlimited.
struct ApiLimiter {
    bucket: Option<TokenBucket>,
    rate: f64,
}

/// A bank of per-API token-bucket rate limiters.
pub struct EntryAdmission {
    limiters: Vec<ApiLimiter>,
    /// Burst size as a fraction of the rate (seconds of burst).
    burst_secs: f64,
}

impl EntryAdmission {
    /// A limiter bank for `num_apis` APIs, all initially unlimited.
    ///
    /// `burst_secs` sets bucket depth = `rate × burst_secs` (clamped to at
    /// least 1 token for positive rates; a rate of exactly 0 gets depth
    /// 0); the paper's 1-second control cadence makes ~50 ms of burst a
    /// reasonable default.
    pub fn new(num_apis: usize, burst_secs: f64) -> Self {
        EntryAdmission {
            limiters: (0..num_apis)
                .map(|_| ApiLimiter {
                    bucket: None,
                    rate: f64::INFINITY,
                })
                .collect(),
            burst_secs: burst_secs.max(1e-3),
        }
    }

    /// Number of APIs in the bank.
    pub fn num_apis(&self) -> usize {
        self.limiters.len()
    }

    /// Current rate limit for `api` (`f64::INFINITY` when unlimited).
    pub fn rate_limit(&self, api: ApiId) -> f64 {
        self.limiters[api.idx()].rate
    }

    /// Set the rate limit for `api` at time `now`. `f64::INFINITY` (or any
    /// non-finite value) removes the limit; zero (and negative rates,
    /// which clamp to zero) admits nothing at all — the bucket depth is
    /// forced to 0 so not even a burst token leaks through.
    pub fn set_rate_limit(&mut self, api: ApiId, rate: f64, now: SimTime) {
        let lim = &mut self.limiters[api.idx()];
        if !rate.is_finite() {
            lim.bucket = None;
            lim.rate = f64::INFINITY;
            return;
        }
        let rate = rate.max(0.0);
        let burst = if rate > 0.0 {
            (rate * self.burst_secs).max(1.0)
        } else {
            0.0
        };
        match &mut lim.bucket {
            Some(b) => b.set_rate_and_burst(rate, burst, now),
            None => lim.bucket = Some(TokenBucket::new(rate, burst, now)),
        }
        lim.rate = rate;
    }

    /// Admit or reject one request for `api` arriving at `now`.
    pub fn try_admit(&mut self, api: ApiId, now: SimTime) -> bool {
        match &mut self.limiters[api.idx()].bucket {
            Some(b) => b.try_admit(now),
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimDuration;

    #[test]
    fn unlimited_by_default() {
        let mut a = EntryAdmission::new(2, 0.05);
        assert!(a.rate_limit(ApiId(0)).is_infinite());
        for i in 0..10_000 {
            assert!(a.try_admit(ApiId(0), SimTime::from_nanos(i)));
        }
    }

    #[test]
    fn limit_caps_admitted_rate() {
        let mut a = EntryAdmission::new(1, 0.05);
        a.set_rate_limit(ApiId(0), 100.0, SimTime::ZERO);
        let mut admitted = 0;
        // Offer 1000 rps for 2 s.
        for ms in 0..2000u64 {
            if a.try_admit(ApiId(0), SimTime::from_millis(ms)) {
                admitted += 1;
            }
        }
        assert!(
            (195..=215).contains(&admitted),
            "expected ≈200 admits at 100 rps over 2 s, got {admitted}"
        );
    }

    #[test]
    fn removing_limit_restores_unlimited() {
        let mut a = EntryAdmission::new(1, 0.05);
        a.set_rate_limit(ApiId(0), 1.0, SimTime::ZERO);
        assert!(a.try_admit(ApiId(0), SimTime::ZERO));
        assert!(!a.try_admit(ApiId(0), SimTime::ZERO));
        a.set_rate_limit(ApiId(0), f64::INFINITY, SimTime::ZERO);
        assert!(a.rate_limit(ApiId(0)).is_infinite());
        assert!(a.try_admit(ApiId(0), SimTime::ZERO));
    }

    #[test]
    fn zero_rate_admits_nothing_at_all() {
        let mut a = EntryAdmission::new(1, 0.05);
        a.set_rate_limit(ApiId(0), 0.0, SimTime::ZERO);
        // No burst token leaks through a "zero" limit: not even the
        // first request is admitted, ever.
        assert!(!a.try_admit(ApiId(0), SimTime::ZERO));
        let later = SimTime::ZERO + SimDuration::from_secs(100);
        assert!(!a.try_admit(ApiId(0), later));
        // Restoring a positive rate brings back at least one burst token.
        a.set_rate_limit(ApiId(0), 1.0, later);
        assert!(a.try_admit(ApiId(0), later + SimDuration::from_secs(1)));
    }

    #[test]
    fn tiny_positive_rate_still_keeps_one_burst_token() {
        let mut a = EntryAdmission::new(1, 0.05);
        a.set_rate_limit(ApiId(0), 0.01, SimTime::ZERO);
        // Positive rates keep the ≥1-token depth clamp so they can
        // always eventually admit.
        assert!(a.try_admit(ApiId(0), SimTime::ZERO));
        assert!(!a.try_admit(ApiId(0), SimTime::ZERO));
    }

    #[test]
    fn per_api_limits_are_independent() {
        let mut a = EntryAdmission::new(2, 0.05);
        a.set_rate_limit(ApiId(0), 0.0, SimTime::ZERO);
        assert!(!a.try_admit(ApiId(0), SimTime::ZERO));
        assert!(!a.try_admit(ApiId(0), SimTime::from_secs(1)));
        assert!(a.try_admit(ApiId(1), SimTime::from_secs(1)));
    }

    #[test]
    fn burst_secs_is_clamped() {
        // A degenerate burst window still leaves a usable bucket.
        let mut a = EntryAdmission::new(1, 0.0);
        a.set_rate_limit(ApiId(0), 10.0, SimTime::ZERO);
        assert!(a.try_admit(ApiId(0), SimTime::ZERO));
    }

    #[test]
    fn num_apis_reports_bank_size() {
        assert_eq!(EntryAdmission::new(3, 0.05).num_apis(), 3);
    }

    #[test]
    fn negative_rate_clamps_to_zero() {
        let mut a = EntryAdmission::new(1, 0.05);
        a.set_rate_limit(ApiId(0), -5.0, SimTime::ZERO);
        assert_eq!(a.rate_limit(ApiId(0)), 0.0);
        assert!(!a.try_admit(ApiId(0), SimTime::from_secs(10)));
    }

    #[test]
    fn nan_rate_means_unlimited() {
        let mut a = EntryAdmission::new(1, 0.05);
        a.set_rate_limit(ApiId(0), f64::NAN, SimTime::ZERO);
        assert!(a.rate_limit(ApiId(0)).is_infinite());
        assert!(a.try_admit(ApiId(0), SimTime::ZERO));
    }
}
