//! Deterministic event queue for discrete-event simulation.
//!
//! A simulation is a loop that pops the earliest scheduled event, advances
//! the virtual clock to its timestamp, and handles it (possibly scheduling
//! more events). [`EventQueue`] guarantees *stable* ordering: events with
//! equal timestamps pop in the order they were pushed, so a simulation is a
//! pure function of its inputs and seed — no heap-order nondeterminism.
//!
//! ## Layout
//!
//! The priority queue is a 4-ary min-heap of 24-byte [`Key`]s; the event
//! payloads never move — each is parked in a slab slot the key points at
//! until it pops. A sift therefore copies keys only, whatever `E` weighs,
//! and a push/pop pair allocates nothing once the slab has grown to the
//! queue's working depth.
//!
//! Every key carries a fresh sequence number, so `(at, seq)` is a *unique
//! total order* over everything ever scheduled: the pop sequence is fully
//! determined by the schedule calls, not by the heap's shape or arity.
//! Any correct priority queue over that order produces the same run —
//! which is what lets the queue's internals change under a simulation
//! without moving a single event (the proptest below holds this
//! implementation to the `BinaryHeap` it replaced).

use crate::time::SimTime;

/// Children per heap node: a 4-ary heap is half as deep as a binary one,
/// and a node's four children are 96 contiguous bytes.
const ARITY: usize = 4;

/// Heap entry: when the event fires, its FIFO tie-break, and the slab
/// slot holding its payload.
#[derive(Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Key {
    /// `(at, seq)` as one integer: a single branch-free comparison.
    #[inline]
    fn ord(&self) -> u128 {
        u128::from(self.at.as_nanos()) << 64 | u128::from(self.seq)
    }

    /// Strict "fires before": earlier time, then first scheduled.
    #[inline]
    fn before(&self, other: &Key) -> bool {
        self.ord() < other.ord()
    }
}

/// A time-ordered queue of simulation events with a built-in clock.
///
/// The queue tracks `now`, the timestamp of the most recently popped event.
/// Scheduling an event in the past is a logic error and panics in debug
/// builds; in release builds the event is clamped to `now` to keep the
/// clock monotonic.
pub struct EventQueue<E> {
    /// 4-ary min-heap over `(at, seq)`.
    heap: Vec<Key>,
    /// Payload slab: `Some` exactly for the slots a heap key points at.
    slots: Vec<Option<E>>,
    /// Vacant slab slots, reused last-freed-first.
    free: Vec<u32>,
    now: SimTime,
    seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at the epoch.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            now: SimTime::ZERO,
            seq: 0,
            popped: 0,
        }
    }

    /// Current virtual time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the queue.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events popped so far (simulation progress counter).
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// `at` must not precede the current clock; see the type-level docs.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: at={at} now={}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 pending events");
                self.slots.push(Some(event));
                slot
            }
        };
        // Sift up: walk the hole from the new leaf towards the root.
        let key = Key { at, seq, slot };
        let mut i = self.heap.len();
        self.heap.push(key);
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if !key.before(&self.heap[parent]) {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = key;
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|k| k.at)
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let root = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty: has a root");
        let n = self.heap.len();
        if n > 0 {
            // Sift down: walk the hole from the root, pulling up the
            // earliest child, until `last` fits.
            let mut i = 0;
            loop {
                let first = ARITY * i + 1;
                let min = if let Some(kids) = self.heap.get(first..first + ARITY) {
                    // Full fan: a branch-free tournament.
                    let a = usize::from(kids[1].before(&kids[0]));
                    let b = 2 + usize::from(kids[3].before(&kids[2]));
                    first + if kids[b].before(&kids[a]) { b } else { a }
                } else if first < n {
                    let mut min = first;
                    for c in first + 1..n {
                        if self.heap[c].before(&self.heap[min]) {
                            min = c;
                        }
                    }
                    min
                } else {
                    break;
                };
                if !self.heap[min].before(&last) {
                    break;
                }
                self.heap[i] = self.heap[min];
                i = min;
            }
            self.heap[i] = last;
        }
        let event = self.slots[root.slot as usize]
            .take()
            .expect("a heap key always points at a parked payload");
        self.free.push(root.slot);
        debug_assert!(root.at >= self.now, "clock went backwards");
        self.now = root.at;
        self.popped += 1;
        Some((root.at, event))
    }

    /// Pop the earliest event only if it fires at or before `limit`.
    ///
    /// Returns `None` (leaving the event queued and the clock untouched)
    /// when the next event is beyond the limit. This is the primitive for
    /// running a simulation up to a horizon.
    pub fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= limit => self.pop(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
        assert_eq!(q.events_processed(), 1);
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "early");
        q.schedule(SimTime::from_secs(10), "late");
        assert_eq!(q.pop_until(SimTime::from_secs(5)).unwrap().1, "early");
        assert!(q.pop_until(SimTime::from_secs(5)).is_none());
        assert_eq!(q.len(), 1, "late event still queued");
        assert_eq!(q.now(), SimTime::from_secs(1), "clock stays at last pop");
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_deterministic() {
        // Two runs with the same operations produce identical sequences.
        let run = || {
            let mut q = EventQueue::new();
            let mut out = Vec::new();
            q.schedule(SimTime::from_millis(10), 0u32);
            q.schedule(SimTime::from_millis(10), 1);
            while let Some((t, e)) = q.pop() {
                out.push((t, e));
                if e < 4 {
                    q.schedule(t + SimDuration::from_millis(1), e + 2);
                    q.schedule(t + SimDuration::from_millis(1), e + 100);
                }
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "scheduled event in the past")]
    #[cfg(debug_assertions)]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    /// The `BinaryHeap` of whole `(at, seq, event)` entries this queue
    /// used to be, kept as the reference the proptest compares against.
    mod oracle {
        use crate::time::SimTime;
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;

        struct Scheduled<E> {
            at: SimTime,
            seq: u64,
            event: E,
        }

        impl<E> PartialEq for Scheduled<E> {
            fn eq(&self, other: &Self) -> bool {
                self.at == other.at && self.seq == other.seq
            }
        }
        impl<E> Eq for Scheduled<E> {}

        impl<E> PartialOrd for Scheduled<E> {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        impl<E> Ord for Scheduled<E> {
            fn cmp(&self, other: &Self) -> Ordering {
                // BinaryHeap is a max-heap; invert so the earliest (then
                // first-pushed) event is the maximum.
                other
                    .at
                    .cmp(&self.at)
                    .then_with(|| other.seq.cmp(&self.seq))
            }
        }

        pub struct HeapQueue<E> {
            heap: BinaryHeap<Scheduled<E>>,
            pub now: SimTime,
            seq: u64,
        }

        impl<E> HeapQueue<E> {
            pub fn new() -> Self {
                HeapQueue {
                    heap: BinaryHeap::new(),
                    now: SimTime::ZERO,
                    seq: 0,
                }
            }

            pub fn len(&self) -> usize {
                self.heap.len()
            }

            pub fn schedule(&mut self, at: SimTime, event: E) {
                let at = at.max(self.now);
                let seq = self.seq;
                self.seq += 1;
                self.heap.push(Scheduled { at, seq, event });
            }

            pub fn peek_time(&self) -> Option<SimTime> {
                self.heap.peek().map(|s| s.at)
            }

            pub fn pop(&mut self) -> Option<(SimTime, E)> {
                let s = self.heap.pop()?;
                self.now = s.at;
                Some((s.at, s.event))
            }

            pub fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
                match self.peek_time() {
                    Some(t) if t <= limit => self.pop(),
                    _ => None,
                }
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// Any interleaving of schedule / pop / pop_until — timestamps
        /// drawn from a range narrow enough that most collide, some of
        /// them behind the clock — pops exactly what the `BinaryHeap`
        /// oracle pops, and leaves the same clock, length and counter.
        #[test]
        fn matches_the_binary_heap_oracle(
            ops in prop::collection::vec((0u8..4, 0u64..40), 1..400),
        ) {
            let mut q = EventQueue::new();
            let mut want = oracle::HeapQueue::new();
            let mut popped = 0u64;
            for (id, (op, t)) in ops.into_iter().enumerate() {
                let t = SimTime::from_nanos(t);
                match op {
                    // Twice as many pushes as pops, so the heap gets deep.
                    0 | 1 => {
                        // A time behind the clock is clamped to `now` in
                        // release builds and a debug-build panic, so debug
                        // builds apply the clamp before the call.
                        let at = if cfg!(debug_assertions) { t.max(q.now()) } else { t };
                        q.schedule(at, id);
                        want.schedule(at, id);
                    }
                    2 => {
                        let got = q.pop();
                        popped += u64::from(got.is_some());
                        prop_assert_eq!(got, want.pop());
                    }
                    _ => {
                        let got = q.pop_until(t);
                        popped += u64::from(got.is_some());
                        prop_assert_eq!(got, want.pop_until(t));
                    }
                }
                prop_assert_eq!(q.now(), want.now);
                prop_assert_eq!(q.len(), want.len());
                prop_assert_eq!(q.is_empty(), want.len() == 0);
                prop_assert_eq!(q.peek_time(), want.peek_time());
                prop_assert_eq!(q.events_processed(), popped);
            }
            // Drain: the tail pops in the oracle's order too.
            while let Some(got) = q.pop() {
                prop_assert_eq!(Some(got), want.pop());
            }
            prop_assert!(want.pop().is_none());
        }
    }
}
