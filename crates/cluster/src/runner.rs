//! Parallel run executor for experiment sweeps.
//!
//! Every `(app, controller-arm, seed)` run is a pure function of its
//! inputs — the engine is single-threaded and deterministic — so runs
//! are embarrassingly parallel. A [`RunPlan`] collects independent run
//! closures and fans them out over a fixed pool of scoped worker
//! threads, returning results in **submission order** regardless of
//! which worker finished first or last.
//!
//! ## Determinism contract
//!
//! Each job owns its seeded RNG (engines are constructed *inside* the
//! closure), no job observes another job's progress, and results are
//! slotted by submission index — so experiment artifacts are
//! byte-identical at any worker count. `TOPFULL_WORKERS=1` forces a
//! serial execution path for debugging; the tests assert serial and
//! parallel runs fingerprint identically.
//!
//! The worker pool defaults to `min(available_parallelism, 8)` and is
//! overridden by the `TOPFULL_WORKERS` environment variable
//! ([`worker_count`]). The RL trainer runs its rollout and validation
//! episodes through a plan too, one job and one seed stream per episode,
//! so its models are byte-identical at any worker count as well.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the experiment worker count.
pub const WORKERS_ENV: &str = "TOPFULL_WORKERS";

/// The environment-independent default worker count:
/// `min(available_parallelism, 8)`, falling back to 4 when parallelism
/// cannot be queried.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4)
}

/// The worker count for experiment runs and training: the default
/// (`min(available_parallelism, 8)`) unless `TOPFULL_WORKERS` is set to
/// a positive integer (`1` forces serial).
pub fn worker_count() -> usize {
    match std::env::var(WORKERS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => default_workers(),
    }
}

type Job<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// A batch of independent run closures, executed across a worker pool
/// with results returned in submission order.
pub struct RunPlan<'a, T: Send> {
    jobs: Vec<Job<'a, T>>,
    workers: usize,
}

impl<T: Send> Default for RunPlan<'_, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a, T: Send> RunPlan<'a, T> {
    /// An empty plan using [`worker_count`] workers.
    pub fn new() -> Self {
        RunPlan {
            jobs: Vec::new(),
            workers: worker_count(),
        }
    }

    /// Override the worker count (primarily for tests — experiments
    /// should let `TOPFULL_WORKERS` decide).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Queue one run. The closure should construct its engine/harness
    /// inside (engines are not `Send`) and return the measured result.
    pub fn submit(&mut self, job: impl FnOnce() -> T + Send + 'a) {
        self.jobs.push(Box::new(job));
    }

    /// Execute every queued run and return the results in submission
    /// order. Panics in a job propagate after all workers drain.
    pub fn run(self) -> Vec<T> {
        let n = self.jobs.len();
        if self.workers <= 1 || n <= 1 {
            return self.jobs.into_iter().map(|job| job()).collect();
        }
        let jobs: Vec<Mutex<Option<Job<'a, T>>>> =
            self.jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(n) {
                scope.spawn(|| loop {
                    // Work-stealing by atomic index: scheduling order is
                    // irrelevant to the output because results land in
                    // their submission slot.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let job = jobs[i]
                        .lock()
                        .expect("job slot poisoned")
                        .take()
                        .expect("job claimed twice");
                    let out = job();
                    *slots[i].lock().expect("result slot poisoned") = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker panicked before storing its result")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let mut plan = RunPlan::new().with_workers(4);
        for i in 0..32u64 {
            // Reverse the natural finishing order: early jobs are slow.
            plan.submit(move || {
                if i < 4 {
                    std::thread::sleep(std::time::Duration::from_millis(20 - 4 * i));
                }
                i * i
            });
        }
        let out = plan.run();
        assert_eq!(out, (0..32u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let work = |w: usize| {
            let mut plan = RunPlan::new().with_workers(w);
            for i in 0..16u64 {
                plan.submit(move || {
                    let mut rng = simnet::rng::fork(i, "runner-test");
                    use rand::Rng;
                    (0..100).map(|_| rng.gen::<u32>() as u64).sum::<u64>()
                });
            }
            plan.run()
        };
        assert_eq!(work(1), work(4));
    }

    #[test]
    fn default_workers_is_capped() {
        let w = default_workers();
        assert!((1..=8).contains(&w));
    }
}
