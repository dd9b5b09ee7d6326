//! An allocation budget for the control tick at Alibaba scale.
//!
//! The same recording the gated `control.alibaba` workload makes — the
//! 127-service demo under a 1.5× surge, `base` policy, `TRACE_TICKS`
//! control ticks — replayed through a fresh journaled `TopFull` with a
//! counting global allocator underneath, then through one without a
//! journal: the second pass is the controller's own share, the
//! difference the journal's. A count made by the
//! program, exact and repeatable; it is a budget, not a speed-up. This
//! file is its own test binary because `#[global_allocator]` is per
//! binary.

use cluster::observe::ClusterObservation;
use cluster::{Controller, Harness, RateLimitUpdate};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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

/// Allocations one replayed tick may make, journal attached: the 3.41
/// measured once the controller kept its tables, clusters, targets and
/// decision vectors between ticks, plus 10 % (the count was 239.9 before
/// this test, then 105.9, 86.6 with a frozen actor serving the policy,
/// and 52.5 with rate decisions journaled typed). What a tick still
/// allocates: the `Vec<RateLimitUpdate>` it returns (1.0), the journal's
/// share below, and, amortised over the pass, the first ticks' growth of
/// the buffers the controller keeps (62 allocations on the first tick).
const BUDGET_PER_TICK: f64 = 3.7;

/// Allocations a tick may make with no journal attached: 2.16 measured,
/// plus 10 %. The returned vector and the buffers' growth, the
/// controller's own share apart from the journal's; it was 51.25 while
/// every decision built its candidate and recipient vectors and every
/// tick its detector output and clustering and selection tables.
const BUDGET_WITHOUT_JOURNAL: f64 = 2.4;

/// Allocations a tick the attached journal may add over a controller
/// without one: 1.24 measured, from the overload and re-clustering
/// entries' strings, the names the journal shares (one per id, while it
/// keeps its name) and the journal's vectors growing. It was 35.3 while
/// every rate decision built three strings on the control thread.
const JOURNAL_SHARE: f64 = 2.0;

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
    // count includes the tables and the journal's vectors growing. The
    // pass must decide something, or the budget measures nothing.
    let per_tick = |journal: Option<Arc<obs::Journal>>| {
        let mut ctl = topfull();
        if let Some(journal) = journal {
            ctl.attach_journal(journal);
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let updates: usize = recorded.iter().map(|o| ctl.control(o).len()).sum();
        let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert!(updates as u64 > 10 * TRACE_TICKS, "{updates} updates");
        spent as f64 / TRACE_TICKS as f64
    };
    let journaled = per_tick(Some(obs::Journal::shared()));
    let bare = per_tick(None);
    println!("allocations per tick: {journaled} journaled, {bare} without a journal");
    assert!(
        journaled <= BUDGET_PER_TICK,
        "a control tick made {journaled} allocations, budget {BUDGET_PER_TICK}"
    );
    assert!(
        bare <= BUDGET_WITHOUT_JOURNAL,
        "a control tick without a journal made {bare} allocations, budget {BUDGET_WITHOUT_JOURNAL}"
    );
    assert!(
        journaled - bare <= JOURNAL_SHARE,
        "journaling cost {} allocations a tick, allowed {JOURNAL_SHARE}",
        journaled - bare
    );
}
