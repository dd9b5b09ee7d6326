//! # simnet — discrete-event simulation substrate
//!
//! Deterministic building blocks for simulating networked systems:
//!
//! * [`time`] — a virtual clock ([`SimTime`], [`SimDuration`]) with
//!   nanosecond resolution.
//! * [`event`] — [`event::EventQueue`], a key-only 4-ary heap for what is
//!   due soon over a timing wheel for what is not, payloads in a slab,
//!   beside sorted lanes for events scheduled (nearly) in pop order, with stable
//!   FIFO tie-breaking: `(time, schedule order)` is a unique total
//!   order, so simulations are reproducible given a seed.
//! * [`histogram`] — log-bucketed latency histograms with bounded relative
//!   quantile error, used for end-to-end percentile latencies.
//! * [`token_bucket`] — the token-bucket rate limiter used by the entry
//!   gateway (the paper's rate limiter is a Go token bucket; §5).
//! * [`rng`] — seeded RNG forking so every component draws from an
//!   independent, reproducible stream.
//! * [`stats`] — mean, standard deviation and exact quantiles of samples.
//!
//! Everything here is pure computation over a virtual clock: no wall-clock
//! time, no threads, no I/O. Simulations built on `simnet` are functions of
//! their seed.

pub mod event;
pub mod histogram;
pub mod rng;
pub mod stats;
pub mod time;
pub mod token_bucket;

pub use event::EventQueue;
pub use histogram::LatencyHistogram;
pub use time::{SimDuration, SimTime};
pub use token_bucket::TokenBucket;

#[cfg(test)]
mod tests {
    /// The workspace's dev profile optimises this crate; it must still
    /// trap on overflow, exactly when debug assertions are on.
    #[test]
    fn overflow_traps_exactly_when_debug_assertions_are_on() {
        let trapped = std::panic::catch_unwind(|| u8::MAX + std::hint::black_box(1)).is_err();
        assert_eq!(trapped, cfg!(debug_assertions));
    }
}
