//! An allocation budget for the control tick at Alibaba scale.
//!
//! The same recording the gated `control.alibaba` workload makes — the
//! 127-service demo under a 1.5× surge, `base` policy, `TRACE_TICKS`
//! control ticks — replayed through a fresh journaled `TopFull` with a
//! counting global allocator underneath. A count made by the program,
//! exact and repeatable; it is a budget, not a speed-up. This file is
//! its own test binary because `#[global_allocator]` is per binary.

use cluster::observe::ClusterObservation;
use cluster::{Controller, Harness, RateLimitUpdate};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use topfull::{TopFull, TopFullConfig};

/// Counts every allocation request (`alloc`, `alloc_zeroed`, `realloc`)
/// made by this process.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds `GlobalAlloc`'s contract; the counter is a statistic
// and publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Control ticks recorded, as in `benchmark/src/control.rs`.
const TRACE_TICKS: u64 = 128;

/// Allocations one replayed tick may make, journal attached: the 86.6
/// measured once the policy was served from a frozen actor that
/// allocates nothing, plus 10 % (the count was 239.9 before this test,
/// then 105.9). What a tick still allocates: per decision (10.2 a tick),
/// three `String`s in its journal entry, its candidate APIs and its
/// recipients; per tick, the clustering's tables and the selection's.
const BUDGET_PER_TICK: f64 = 95.0;

struct Recorder {
    inner: TopFull,
    tape: Rc<RefCell<Vec<ClusterObservation>>>,
}

impl Controller for Recorder {
    fn control(&mut self, obs: &ClusterObservation) -> Vec<RateLimitUpdate> {
        self.tape.borrow_mut().push(obs.clone());
        self.inner.control(obs)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[test]
fn a_replayed_tick_stays_inside_its_allocation_budget() {
    let policy = topfull_bench::models::load("base").expect("artifacts/models/base.json must load");
    let topfull = || TopFull::new(TopFullConfig::default().with_rl(policy.clone()));
    let (_, engine) = topfull_bench::scenarios::alibaba_surged(1.5, 5);
    let tape = Rc::new(RefCell::new(Vec::new()));
    let recorder = Recorder {
        inner: topfull(),
        tape: Rc::clone(&tape),
    };
    Harness::new(engine, Box::new(recorder)).run_for_secs(TRACE_TICKS);
    let recorded = tape.take();
    assert_eq!(recorded.len() as u64, TRACE_TICKS);

    // A fresh controller per pass, as the benchmark replays it: the
    // count includes the tables and the journal's vector growing. The
    // pass must decide something, or the budget measures nothing.
    let mut ctl = topfull();
    ctl.attach_journal(obs::Journal::shared());
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let updates: usize = recorded.iter().map(|o| ctl.control(o).len()).sum();
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(updates as u64 > 10 * TRACE_TICKS, "{updates} updates");
    let per_tick = spent as f64 / TRACE_TICKS as f64;
    println!("allocations per tick: {per_tick}");
    assert!(
        per_tick <= BUDGET_PER_TICK,
        "a control tick made {per_tick} allocations, budget {BUDGET_PER_TICK}"
    );
}
