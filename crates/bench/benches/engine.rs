//! Engine event throughput and run-executor scaling.
//!
//! `engine/…` measures the raw discrete-event core in the shape of the
//! gated benchmark's `sim.boutique` workload (§6.1's 2600 closed-loop
//! users on Online Boutique, no controller): one 10-simulated-second run
//! per iteration, so ns/iter ÷ events-per-run gives the per-event cost.
//! `runner/…` measures the same 8-run sweep executed serially and
//! through the worker pool; the ratio is the wall-clock speedup. The
//! numbers of record come from the benchmark itself (`cargo run
//! --release --offline --manifest-path benchmark/Cargo.toml --
//! --workload sim.boutique --seed 5 --seconds 20 --trace 0`); this bench
//! re-measures the layer with `cargo bench` outside it.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use topfull_bench::exec;
use topfull_bench::runner::{default_workers, RunPlan};
use topfull_bench::scenarios::{boutique_closed_loop, Roster};

/// One 10-simulated-second overloaded boutique run (≈2.5 × 10⁵ events).
fn bench_event_throughput(c: &mut Criterion) {
    c.bench_function("engine/boutique-2600users-10s", |b| {
        b.iter(|| {
            let (_, mut e) = boutique_closed_loop(black_box(2600), 5);
            e.run_until(simnet::SimTime::from_secs(10));
            e.events_processed()
        })
    });
}

/// An 8-run controller sweep, the shape every figure fans out.
fn sweep(workers: usize) -> u64 {
    let mut plan = RunPlan::new().with_workers(workers);
    for seed in 0..8u64 {
        plan.submit(move || {
            exec::run_arm(
                "mimd",
                Roster::TopFullMimd,
                boutique_closed_loop(600, seed).1,
                10,
            )
            .events_processed
        });
    }
    plan.run().into_iter().sum()
}

fn bench_sweep_serial(c: &mut Criterion) {
    c.bench_function("runner/sweep-8-runs-serial", |b| b.iter(|| sweep(1)));
}

fn bench_sweep_parallel(c: &mut Criterion) {
    let w = default_workers();
    c.bench_function(&format!("runner/sweep-8-runs-{w}-workers"), |b| {
        b.iter(|| sweep(w))
    });
}

criterion_group!(
    benches,
    bench_event_throughput,
    bench_sweep_serial,
    bench_sweep_parallel,
);
criterion_main!(benches);
