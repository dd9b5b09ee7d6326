//! Token-bucket rate limiter.
//!
//! TopFull enforces per-API rate limits at the entry gateway with a token
//! bucket (§5: "For load control, we use a rate limiter based on a token
//! bucket algorithm"). Tokens accrue continuously at `rate` per second up
//! to `burst`; admitting a request costs one token. The bucket is driven
//! by the virtual clock — callers pass `now` — so it composes with the
//! deterministic event queue.

use crate::time::{SimTime, NANOS_PER_SEC};
use serde::{Deserialize, Serialize};

/// A continuously-refilled token bucket over virtual time.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TokenBucket {
    /// Refill rate in tokens (requests) per second.
    rate: f64,
    /// Maximum number of stored tokens.
    burst: f64,
    /// Tokens available as of `updated`.
    tokens: f64,
    updated: SimTime,
}

impl TokenBucket {
    /// A bucket refilling at `rate` tokens/s with capacity `burst`,
    /// starting full at time `now`.
    ///
    /// Both `rate` and `burst` are clamped to be non-negative. A zero
    /// `burst` admits nothing ever — that is how a gateway expresses a
    /// true "admit zero" limit — so callers wanting a bucket that can
    /// always eventually admit must pass `burst ≥ 1` themselves.
    pub fn new(rate: f64, burst: f64, now: SimTime) -> Self {
        let rate = rate.max(0.0);
        let burst = burst.max(0.0);
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            updated: now,
        }
    }

    /// Current refill rate (tokens per second).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Bucket capacity.
    pub fn burst(&self) -> f64 {
        self.burst
    }

    /// Change both rate and burst (non-negative, like [`TokenBucket::new`]).
    pub fn set_rate_and_burst(&mut self, rate: f64, burst: f64, now: SimTime) {
        self.refill(now);
        self.rate = rate.max(0.0);
        self.burst = burst.max(0.0);
        self.tokens = self.tokens.min(self.burst);
    }

    fn refill(&mut self, now: SimTime) {
        if now > self.updated {
            let dt = now.duration_since(self.updated).as_nanos() as f64 / NANOS_PER_SEC as f64;
            self.tokens = (self.tokens + dt * self.rate).min(self.burst);
            self.updated = now;
        }
    }

    /// Tokens available at `now` (refills as a side effect).
    pub fn available(&mut self, now: SimTime) -> f64 {
        self.refill(now);
        self.tokens
    }

    /// Try to admit one request at `now`: consumes a token and returns
    /// `true`, or returns `false` leaving the bucket unchanged.
    pub fn try_admit(&mut self, now: SimTime) -> bool {
        self.try_admit_n(now, 1.0)
    }

    /// Try to admit a request costing `n ≥ 0` tokens.
    pub fn try_admit_n(&mut self, now: SimTime, n: f64) -> bool {
        debug_assert!(n >= 0.0, "token cost must be non-negative");
        self.refill(now);
        if self.tokens >= n {
            self.tokens -= n;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn starts_full_and_admits_burst() {
        let t0 = SimTime::ZERO;
        let mut b = TokenBucket::new(10.0, 5.0, t0);
        for i in 0..5 {
            assert!(b.try_admit(t0), "burst admit {i}");
        }
        assert!(!b.try_admit(t0), "burst exhausted");
    }

    #[test]
    fn refills_at_rate() {
        let t0 = SimTime::ZERO;
        let mut b = TokenBucket::new(10.0, 5.0, t0);
        while b.try_admit(t0) {}
        // After 0.3 s at 10 tok/s → 3 tokens.
        let t1 = t0 + SimDuration::from_millis(300);
        assert!((b.available(t1) - 3.0).abs() < 1e-9);
        assert!(b.try_admit(t1) && b.try_admit(t1) && b.try_admit(t1));
        assert!(!b.try_admit(t1));
    }

    #[test]
    fn refill_caps_at_burst() {
        let t0 = SimTime::ZERO;
        let mut b = TokenBucket::new(1000.0, 4.0, t0);
        let later = t0 + SimDuration::from_secs(60);
        assert!((b.available(later) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn long_run_admission_matches_rate() {
        // Offered 1 req/ms for 10 s against a 100 rps bucket → ~1000 admits.
        let mut b = TokenBucket::new(100.0, 10.0, SimTime::ZERO);
        let mut admitted = 0u32;
        for ms in 0..10_000u64 {
            if b.try_admit(SimTime::from_millis(ms)) {
                admitted += 1;
            }
        }
        let expected = 100.0 * 10.0 + 10.0; // rate × time + initial burst
        assert!(
            (f64::from(admitted) - expected).abs() <= 1.0,
            "admitted {admitted}, expected ≈{expected}"
        );
    }

    #[test]
    fn zero_rate_bucket_only_serves_initial_burst() {
        let mut b = TokenBucket::new(0.0, 2.0, SimTime::ZERO);
        assert!(b.try_admit(SimTime::from_secs(1)));
        assert!(b.try_admit(SimTime::from_secs(2)));
        assert!(!b.try_admit(SimTime::from_secs(100)));
    }

    #[test]
    fn negative_inputs_are_clamped() {
        let mut b = TokenBucket::new(-5.0, -3.0, SimTime::ZERO);
        assert_eq!(b.rate(), 0.0);
        assert_eq!(b.burst(), 0.0);
        assert!(
            !b.try_admit(SimTime::ZERO),
            "zero-depth bucket admits nothing"
        );
        assert!(!b.try_admit(SimTime::from_secs(10)));
    }

    #[test]
    fn zero_burst_admits_nothing_even_with_positive_rate() {
        let mut b = TokenBucket::new(100.0, 0.0, SimTime::ZERO);
        assert!(!b.try_admit(SimTime::ZERO));
        // Refill is capped at the zero depth: still nothing later.
        assert!(!b.try_admit(SimTime::from_secs(100)));
        assert_eq!(b.available(SimTime::from_secs(200)), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Conservation: admits over any horizon never exceed
        /// initial burst + rate × elapsed (within one token).
        #[test]
        fn admits_never_exceed_refill(
            rate in 1.0f64..2_000.0,
            burst in 1.0f64..100.0,
            offers in prop::collection::vec(0u64..10_000_000u64, 1..300),
        ) {
            let mut b = TokenBucket::new(rate, burst, SimTime::ZERO);
            let mut times: Vec<u64> = offers;
            times.sort_unstable();
            let mut admitted = 0u64;
            for &t in &times {
                if b.try_admit(SimTime::from_nanos(t)) {
                    admitted += 1;
                }
            }
            let elapsed = *times.last().unwrap() as f64 / 1e9;
            let bound = burst + rate * elapsed + 1.0;
            prop_assert!(
                (admitted as f64) <= bound,
                "admitted {} > bound {}", admitted, bound
            );
        }

        /// Tokens never go negative and never exceed burst (depth), for
        /// any depth including zero.
        #[test]
        fn tokens_stay_in_range(
            rate in 0.0f64..1_000.0,
            burst in 0.0f64..50.0,
            steps in prop::collection::vec((0u64..5_000_000u64, any::<bool>()), 1..200),
        ) {
            let mut b = TokenBucket::new(rate, burst, SimTime::ZERO);
            let mut now = 0u64;
            for (dt, do_admit) in steps {
                now += dt;
                let t = SimTime::from_nanos(now);
                if do_admit {
                    let _ = b.try_admit(t);
                }
                let avail = b.available(t);
                prop_assert!(avail >= -1e-9, "negative tokens: {avail}");
                prop_assert!(avail <= burst + 1e-9, "over burst: {avail}");
            }
        }

        /// Refill is monotone in elapsed time: observing the bucket at a
        /// sorted sequence of times (no admits in between) never shows
        /// the available tokens decreasing.
        #[test]
        fn refill_monotone_in_elapsed_time(
            rate in 0.0f64..1_000.0,
            burst in 0.0f64..50.0,
            drain in 0u32..60,
            times in prop::collection::vec(0u64..10_000_000_000u64, 2..100),
        ) {
            let mut b = TokenBucket::new(rate, burst, SimTime::ZERO);
            // Start from an arbitrary partial fill.
            for _ in 0..drain {
                let _ = b.try_admit(SimTime::ZERO);
            }
            let mut sorted = times;
            sorted.sort_unstable();
            let mut prev = b.available(SimTime::ZERO);
            for &t in &sorted {
                let avail = b.available(SimTime::from_nanos(t));
                prop_assert!(
                    avail >= prev - 1e-9,
                    "tokens decreased without an admit: {prev} -> {avail}"
                );
                prev = avail;
            }
        }
    }
}
