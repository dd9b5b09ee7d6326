//! Offline shim for the subset of `criterion` this workspace uses.
//!
//! Provides `Criterion::bench_function`, `Bencher::iter`, `black_box`
//! and the `criterion_group!` / `criterion_main!` macros. Instead of
//! criterion's statistical machinery it runs a short calibrated loop and
//! prints mean ns/iter — enough for the repo's relative overhead
//! benches, with the same source-level API.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

pub struct Criterion {
    /// Target wall time per benchmark.
    measure: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            measure: Duration::from_millis(300),
        }
    }
}

impl Criterion {
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        // Calibrate: grow iteration count until one batch is ~10ms.
        loop {
            b.elapsed = Duration::ZERO;
            f(&mut b);
            if b.elapsed >= Duration::from_millis(10) || b.iters >= 1 << 30 {
                break;
            }
            b.iters *= 2;
        }
        // Measure.
        let mut total = Duration::ZERO;
        let mut total_iters: u64 = 0;
        while total < self.measure {
            b.elapsed = Duration::ZERO;
            f(&mut b);
            total += b.elapsed;
            total_iters += b.iters;
        }
        let ns = total.as_nanos() as f64 / total_iters.max(1) as f64;
        println!("bench: {name:<40} {ns:>12.1} ns/iter ({total_iters} iters)");
        self
    }
}

pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let mut c = Criterion {
            measure: Duration::from_millis(5),
        };
        let mut ran = false;
        c.bench_function("smoke", |b| {
            b.iter(|| black_box(1u64 + 1));
            ran = true;
        });
        assert!(ran);
    }
}
