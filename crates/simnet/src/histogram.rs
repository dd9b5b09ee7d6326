//! Log-bucketed latency histogram with bounded relative error.
//!
//! End-to-end percentile latency is one of the two state features of the
//! paper's RL rate controller (§4.3), and latency SLO accounting decides
//! what counts as *goodput*. Recording must be O(1) and quantile queries
//! cheap at a 1-second control cadence, so we use geometric buckets: each
//! bucket spans a fixed ratio, giving a configurable worst-case relative
//! error (default 5%) independent of the latency range.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Smallest latency tracked exactly; anything below lands in bucket 0.
const MIN_TRACKED_NANOS: f64 = 1_000.0; // 1 µs

/// A histogram of durations with geometrically sized buckets.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// `counts[i]` covers `[min * growth^i, min * growth^(i+1))`.
    counts: Vec<u64>,
    total: u64,
    /// Natural log of the per-bucket growth ratio.
    ln_growth: f64,
    max_seen: SimDuration,
    min_seen: SimDuration,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Histogram with the default 5% relative-error buckets.
    pub fn new() -> Self {
        Self::with_relative_error(0.05)
    }

    /// Histogram whose quantile estimates have at most `err` relative
    /// error (`0 < err < 1`).
    pub fn with_relative_error(err: f64) -> Self {
        assert!(err > 0.0 && err < 1.0, "relative error must be in (0, 1)");
        let growth = 1.0 + 2.0 * err; // midpoint estimate halves the span
        LatencyHistogram {
            counts: Vec::new(),
            total: 0,
            ln_growth: growth.ln(),
            max_seen: SimDuration::ZERO,
            min_seen: SimDuration::from_nanos(u64::MAX),
        }
    }

    fn bucket_of(&self, d: SimDuration) -> usize {
        let ns = d.as_nanos() as f64;
        if ns <= MIN_TRACKED_NANOS {
            return 0;
        }
        ((ns / MIN_TRACKED_NANOS).ln() / self.ln_growth).floor() as usize
    }

    /// Lower edge of bucket `i` in nanoseconds.
    fn bucket_floor(&self, i: usize) -> f64 {
        MIN_TRACKED_NANOS * (self.ln_growth * i as f64).exp()
    }

    /// Record one sample.
    pub fn record(&mut self, d: SimDuration) {
        self.record_n(d, 1);
    }

    /// Record `n` samples of the same value (a no-op for `n == 0`).
    #[inline]
    pub fn record_n(&mut self, d: SimDuration, n: u64) {
        if n == 0 {
            return;
        }
        let b = self.bucket_of(d);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += n;
        self.total += n;
        self.max_seen = self.max_seen.max(d);
        self.min_seen = self.min_seen.min(d);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Largest recorded sample, if any.
    pub fn max(&self) -> Option<SimDuration> {
        (self.total > 0).then_some(self.max_seen)
    }

    /// Smallest recorded sample, if any.
    pub fn min(&self) -> Option<SimDuration> {
        (self.total > 0).then_some(self.min_seen)
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) with the histogram's relative error,
    /// or `None` when empty. `quantile(0.99)` is the p99 latency.
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based.
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Midpoint of the bucket (geometric mean of its edges),
                // clamped to actually-observed extremes.
                let lo = self.bucket_floor(i);
                let hi = self.bucket_floor(i + 1);
                let est = (lo * hi).sqrt();
                let est = SimDuration::from_nanos(est as u64);
                return Some(est.clamp(self.min_seen, self.max_seen));
            }
        }
        Some(self.max_seen)
    }

    /// Merge another histogram into this one. Both must have been created
    /// with the same relative error.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        assert!(
            (self.ln_growth - other.ln_growth).abs() < 1e-12,
            "merging histograms with different bucket growth"
        );
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.max_seen = self.max_seen.max(other.max_seen);
        self.min_seen = self.min_seen.min(other.min_seen);
    }

    /// The samples recorded since `mark`, an earlier copy of this
    /// histogram — a cumulative histogram read as a window.
    ///
    /// Bucket counts (hence ranks) are exact. The window's own extremes
    /// are not known, so they are bounded instead: by the edges of the
    /// lowest and highest occupied delta bucket and by the cumulative
    /// extremes. A quantile of the result therefore lands in the same
    /// bucket as that of a histogram fed only the window's samples.
    pub fn delta_since(&self, mark: &LatencyHistogram) -> LatencyHistogram {
        assert!(
            (self.ln_growth - mark.ln_growth).abs() < 1e-12,
            "delta of histograms with different bucket growth"
        );
        let counts: Vec<u64> = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| c.saturating_sub(mark.counts.get(i).copied().unwrap_or(0)))
            .collect();
        let mut delta = LatencyHistogram {
            total: counts.iter().sum(),
            counts,
            ln_growth: self.ln_growth,
            max_seen: SimDuration::ZERO,
            min_seen: SimDuration::from_nanos(u64::MAX),
        };
        let lowest = delta.counts.iter().position(|&c| c > 0);
        let highest = delta.counts.iter().rposition(|&c| c > 0);
        if let (Some(lo), Some(hi)) = (lowest, highest) {
            // Bucket 0 also takes everything under its nominal floor.
            let floor = if lo == 0 { 0.0 } else { self.bucket_floor(lo) };
            delta.min_seen = self.min_seen.max(SimDuration::from_nanos(floor as u64));
            // `.max(min_seen)`: float rounding may put a sample that sits
            // exactly on a bucket edge one nanosecond past that edge.
            delta.max_seen = self
                .max_seen
                .min(SimDuration::from_nanos(self.bucket_floor(hi + 1) as u64))
                .max(delta.min_seen);
        }
        delta
    }

    /// Iterate occupied buckets as `(upper_edge_nanos, count)` pairs.
    ///
    /// Empty buckets are skipped; the upper edge is the exclusive bound
    /// of the bucket, so cumulative sums over the returned pairs yield a
    /// valid `le`-style (Prometheus) bucket series.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (self.bucket_floor(i + 1), c))
    }

    /// Forget all samples, keeping the bucket configuration.
    pub fn reset(&mut self) {
        self.counts.clear();
        self.total = 0;
        self.max_seen = SimDuration::ZERO;
        self.min_seen = SimDuration::from_nanos(u64::MAX);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LatencyHistogram::new();
        assert!(h.quantile(0.5).is_none());
        assert!(h.max().is_none());
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut h = LatencyHistogram::new();
        let d = SimDuration::from_millis(42);
        h.record(d);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(d), "q={q}");
        }
    }

    #[test]
    fn quantiles_within_relative_error() {
        let mut h = LatencyHistogram::with_relative_error(0.05);
        // 1..=1000 ms uniform.
        for ms in 1..=1000u64 {
            h.record(SimDuration::from_millis(ms));
        }
        for (q, want_ms) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0)] {
            let got = h.quantile(q).unwrap().as_millis_f64();
            let rel = (got - want_ms).abs() / want_ms;
            assert!(rel < 0.06, "q={q}: got {got}ms want {want_ms}ms rel={rel}");
        }
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(SimDuration::from_millis(10));
        b.record(SimDuration::from_millis(1000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), Some(SimDuration::from_millis(1000)));
        assert_eq!(a.min(), Some(SimDuration::from_millis(10)));
    }

    #[test]
    fn reset_clears_samples() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_millis(5));
        h.reset();
        assert!(h.is_empty());
        assert!(h.quantile(0.5).is_none());
    }

    #[test]
    fn record_n_equals_n_records() {
        let (mut a, mut b) = (LatencyHistogram::new(), LatencyHistogram::new());
        a.record_n(SimDuration::from_millis(3), 5);
        a.record_n(SimDuration::from_millis(9), 0);
        for _ in 0..5 {
            b.record(SimDuration::from_millis(3));
        }
        assert_eq!(a.count(), 5);
        assert_eq!(a.max(), b.max());
        assert_eq!(a.min(), b.min());
        assert_eq!(
            a.buckets().collect::<Vec<_>>(),
            b.buckets().collect::<Vec<_>>()
        );
    }

    #[test]
    fn delta_since_reads_a_cumulative_histogram_as_a_window() {
        let mut cum = LatencyHistogram::new();
        cum.record(SimDuration::from_millis(500));
        let mark = cum.clone();
        assert!(cum.delta_since(&mark).is_empty(), "nothing since the mark");
        assert!(cum.delta_since(&mark).quantile(0.5).is_none());
        cum.record_n(SimDuration::ZERO, 3);
        let window = cum.delta_since(&mark);
        assert_eq!(window.count(), 3);
        // The 500 ms sample before the mark is not in the window; its
        // zero-latency samples read as somewhere in bucket 0.
        assert!(window.quantile(0.99).unwrap() <= SimDuration::from_nanos(1_100));
        let mut zeros = LatencyHistogram::new();
        zeros.record_n(SimDuration::ZERO, 3);
        let since_start = zeros.delta_since(&LatencyHistogram::new());
        assert_eq!(since_start.quantile(0.99), Some(SimDuration::ZERO));
        let mark = cum.clone();
        cum.record(SimDuration::from_millis(20));
        let p50 = cum
            .delta_since(&mark)
            .quantile(0.5)
            .unwrap()
            .as_millis_f64();
        assert!((p50 - 20.0).abs() / 20.0 < 0.11, "p50 {p50} ms");
    }

    #[test]
    fn buckets_enumerate_occupied_ranges() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_millis(1));
        h.record(SimDuration::from_millis(1));
        h.record(SimDuration::from_millis(100));
        let bs: Vec<(f64, u64)> = h.buckets().collect();
        assert_eq!(bs.len(), 2, "two occupied buckets");
        assert_eq!(bs.iter().map(|(_, c)| c).sum::<u64>(), 3);
        assert!(bs.windows(2).all(|w| w[0].0 < w[1].0), "edges ascend");
        // The first bucket's upper edge bounds the 1ms samples with the
        // histogram's relative error.
        assert!(bs[0].0 >= 0.9e6 && bs[0].0 <= 1.2e6, "edge {}", bs[0].0);
    }

    #[test]
    fn tiny_samples_fall_into_first_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_nanos(1));
        h.record(SimDuration::ZERO);
        assert_eq!(h.count(), 2);
        assert!(h.quantile(1.0).unwrap() <= SimDuration::from_micros(2));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Quantile estimates always lie within the observed extremes and
        /// are monotone in q.
        #[test]
        fn quantiles_bounded_and_monotone(
            samples in prop::collection::vec(1u64..10_000_000, 1..200),
        ) {
            let mut h = LatencyHistogram::new();
            for &s in &samples {
                h.record(SimDuration::from_nanos(s));
            }
            let lo = *samples.iter().min().unwrap();
            let hi = *samples.iter().max().unwrap();
            let mut prev = SimDuration::ZERO;
            for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
                let est = h.quantile(q).unwrap();
                prop_assert!(est.as_nanos() >= lo.min(est.as_nanos()));
                prop_assert!(est >= SimDuration::from_nanos(lo).min(est));
                prop_assert!(est <= SimDuration::from_nanos(hi));
                prop_assert!(est >= prev, "quantiles must be monotone in q");
                prev = est;
            }
            prop_assert_eq!(h.count(), samples.len() as u64);
        }

        /// A cumulative histogram cut into windows at random points: each
        /// window read as a delta against a mark has exactly the fresh
        /// per-window histogram's count and bucket counts, and its
        /// quantiles fall in the same bucket (one growth ratio; bucket 0
        /// spans [0, 1.1 µs) so its bound is absolute).
        #[test]
        fn delta_windows_match_fresh_windows(
            samples in prop::collection::vec(0u64..50_000_000, 1..300),
            cuts in prop::collection::vec(any::<bool>(), 300),
        ) {
            let mut cum = LatencyHistogram::new();
            let mut mark = cum.clone();
            let mut fresh = LatencyHistogram::new();
            for (i, &s) in samples.iter().enumerate() {
                let d = SimDuration::from_nanos(s);
                cum.record(d);
                fresh.record(d);
                if !cuts[i] && i + 1 < samples.len() {
                    continue;
                }
                let window = cum.delta_since(&mark);
                prop_assert_eq!(window.count(), fresh.count());
                prop_assert_eq!(
                    window.buckets().collect::<Vec<_>>(),
                    fresh.buckets().collect::<Vec<_>>()
                );
                for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                    let got = window.quantile(q).unwrap().as_nanos() as f64;
                    let want = fresh.quantile(q).unwrap().as_nanos() as f64;
                    let close = if want.max(got) <= 1_100.0 {
                        true
                    } else {
                        got / want <= 1.1001 && want / got <= 1.1001
                    };
                    prop_assert!(close, "q={q}: delta {got} ns vs fresh {want} ns");
                }
                mark = cum.clone();
                fresh.reset();
            }
        }

        /// Merging histograms is equivalent to recording the union.
        #[test]
        fn merge_equals_union(
            a in prop::collection::vec(1u64..1_000_000, 1..50),
            b in prop::collection::vec(1u64..1_000_000, 1..50),
        ) {
            let mut ha = LatencyHistogram::new();
            let mut hb = LatencyHistogram::new();
            let mut hu = LatencyHistogram::new();
            for &s in &a {
                ha.record(SimDuration::from_nanos(s));
                hu.record(SimDuration::from_nanos(s));
            }
            for &s in &b {
                hb.record(SimDuration::from_nanos(s));
                hu.record(SimDuration::from_nanos(s));
            }
            ha.merge(&hb);
            prop_assert_eq!(ha.count(), hu.count());
            for q in [0.25, 0.5, 0.9] {
                prop_assert_eq!(ha.quantile(q), hu.quantile(q));
            }
        }
    }
}
