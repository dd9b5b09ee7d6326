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
//! Three tiers over one order. The *near* tier is a 4-ary min-heap of
//! 24-byte `Key`s holding only what fires before a moving *horizon*;
//! everything later is parked in the *far* tier, a timing wheel of
//! fixed-width buckets plus one overflow list for keys past the wheel's
//! span: parked, a key seconds away costs a list push and a push/pop on
//! a small heap instead of sitting in every other event's sift. The
//! third tier is [`LANES`] sorted *lanes*, one per caller whose events
//! are born in, or nearly in, pop order — the engine's network hops (at
//! `now` plus a constant: sorted), closed-loop arrivals (one think time
//! after the user's last request was issued) and their 10 s client
//! timeouts (a constant later still): nearly sorted, a response that
//! came back sooner than another's schedules behind it. Each event is
//! offered to [`EventQueue::schedule_fifo`] with its lane, which appends
//! it at or past the lane's tail, inserts it at its `(at, seq)` place a
//! few entries behind, and hands it to [`EventQueue::schedule`] when its
//! place is more than `SCAN` entries back — an O(1) test against the
//! entry `SCAN` from the back, so a caller far out of order (a lane's
//! tail pushed ahead by a fault-plane delay, a population's staggered
//! first requests) pays a compare, not a scan. A pop takes the earliest
//! of the lanes' fronts and the heap's root and, only when the heap is
//! empty and that front is not already behind the horizon, drains the
//! next bucket first.
//!
//! Heap and wheel payloads never move — each waits in a slab slot until
//! it pops — and neither tier allocates per event: a bucket is an
//! intrusive list threaded through a per-slot `(at, seq, next)` array
//! beside the slab, one `u32` head per bucket (per-bucket vectors never
//! give their peak capacity back; the links cost what the deep heap's
//! keys did). A lane carries its payload inline instead: an entry is
//! written once near the back and read once at the front, so a slab slot
//! would only add a store, a `take` and two free-list moves to every hop.
//! Inline, the payload's size is every entry's: the engine pins its
//! event type at 32 bytes, an entry at 48.
//!
//! Every key carries a fresh sequence number, so `(at, seq)` is a *unique
//! total order* over everything ever scheduled: the pop sequence is fixed
//! by the schedule calls — not by the heap's shape or arity, nor by the
//! bucket width, which only decides *when* a key enters the heap (an
//! earlier bucket's keys all fire before a later one's; inside the heap
//! `(at, seq)` decides), nor by which events were offered to which lane:
//! an offer takes the same `seq` as `schedule` would — the newest, so an
//! insert goes behind every entry of its instant — and each lane holds a
//! sorted run of that order, so the hint changes where an event waits
//! and never when it pops. Any correct priority queue over that order
//! produces the same run, which is what lets the internals change under
//! a simulation without moving a single event (the proptest below holds
//! this implementation to the `BinaryHeap` it replaced).

use crate::time::SimTime;
use std::collections::VecDeque;

/// Children per heap node: a 4-ary heap is half as deep as a binary one,
/// and a node's four children are 96 contiguous bytes.
const ARITY: usize = 4;

/// The wheel: `BUCKETS` buckets `1 << SHIFT` ns (≈ 16.8 ms) wide. Its
/// span, `BUCKETS << SHIFT` ≈ 17.2 s, must cover the delay the engine
/// schedules in bulk — the closed loop's 10 s default client timeout —
/// or those keys detour through overflow. Not delicate: widths 2^18–2^24
/// ns at this span ran the 2600-user Boutique within 8 %; widest, least RAM.
const SHIFT: u32 = 24;
const BUCKETS: u64 = 1 << 10;

/// List terminator: never a slot number (see [`EventQueue::schedule`]).
const NIL: u32 = u32::MAX;

/// Lanes beside the heap, one per caller whose events are born in (or
/// near) pop order; [`EventQueue::schedule_fifo`] names one by index.
pub const LANES: usize = 3;

/// How far behind its lane's tail a hint may land and still be
/// inserted: the back-scan to its place is at most this many entries.
const SCAN: usize = 64;

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

/// The wheel bucket `at` falls in, numbered from the epoch.
fn bucket(at: SimTime) -> u64 {
    at.as_nanos() >> SHIFT
}

/// A time-ordered queue of simulation events with a built-in clock.
///
/// The queue tracks `now`, the timestamp of the most recently popped event.
/// Scheduling an event in the past is a logic error and panics in debug
/// builds; in release builds the event is clamped to `now` to keep the
/// clock monotonic.
pub struct EventQueue<E> {
    /// Near tier: 4-ary min-heap over `(at, seq)` of every pending key
    /// whose bucket is below `horizon`.
    heap: Vec<Key>,
    /// First bucket not yet drained into the heap; only ever grows.
    horizon: u64,
    /// Far tier, the next `BUCKETS` buckets: list head of `b` at `b % BUCKETS`.
    wheel: Box<[u32]>,
    /// Head of the list of keys that were past the wheel's span when
    /// filed. Each sits at or past `horizon` until a wrap re-files it.
    overflow: u32,
    /// Keys on the wheel's lists / on the overflow list.
    in_wheel: usize,
    in_overflow: usize,
    /// Per slab slot `(at, seq, next)`, written when the slot's key is
    /// parked in the far tier: its order, and the next slot on its list.
    links: Vec<(SimTime, u64, u32)>,
    /// Payload slab: `Some` exactly for the slots a pending key names.
    slots: Vec<Option<E>>,
    /// Vacant slab slots, reused last-freed-first.
    free: Vec<u32>,
    /// The lanes: each `(at, seq, payload)` in strictly increasing `(at, seq)`.
    lanes: [VecDeque<(SimTime, u64, E)>; LANES],
    /// Per lane, the hints [`Self::schedule_fifo`] turned down.
    declined: [u64; LANES],
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
            horizon: 0,
            wheel: vec![NIL; BUCKETS as usize].into_boxed_slice(),
            overflow: NIL,
            in_wheel: 0,
            in_overflow: 0,
            links: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            lanes: std::array::from_fn(|_| VecDeque::new()),
            declined: [0; LANES],
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
        self.slots.len() - self.free.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events in the near tier, the depth a sift pays for (tests pin it).
    pub fn near_len(&self) -> usize {
        self.heap.len()
    }

    /// Events waiting in `lane`.
    pub fn lane_len(&self, lane: usize) -> usize {
        self.lanes[lane].len()
    }

    /// [`Self::schedule_fifo`] calls on `lane` that fell through to
    /// [`Self::schedule`]: events born too far out of order for it.
    pub fn declined_hints(&self, lane: usize) -> u64 {
        self.declined[lane]
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
                let slot = u32::try_from(self.slots.len()).unwrap_or(NIL);
                assert!(slot != NIL, "fewer than 2^32 - 1 pending events");
                self.slots.push(Some(event));
                self.links.push((at, seq, NIL));
                slot
            }
        };
        // Behind the horizon its bucket is already drained into the heap.
        if bucket(at) < self.horizon {
            self.push_heap(Key { at, seq, slot });
        } else {
            self.park(at, seq, slot);
        }
    }

    /// [`Self::schedule`], with the hint that `at` is no earlier — or not
    /// much earlier — than any time this method was given for `lane`
    /// before: true of a caller that always adds the same delay to the
    /// clock, nearly true of one that adds a delay drawn from a narrow
    /// range. An event at or past the lane's tail is appended; one a few
    /// entries behind it is inserted at its `(at, seq)` place, found by a
    /// back-scan that the floor test bounds at `SCAN` entries; any other
    /// (or one behind the clock) is scheduled the ordinary way. Either
    /// way it takes the `seq` that `schedule` would, so the pop order is
    /// that of `schedule` whatever the caller passes. Panics if `lane` is
    /// not below [`LANES`].
    pub fn schedule_fifo(&mut self, lane: usize, at: SimTime, event: E) {
        let q = &mut self.lanes[lane];
        let entry = (at, self.seq, event);
        if q.back().is_some_and(|&(tail, ..)| at >= tail) {
            q.push_back(entry);
        } else {
            // Its place is within `SCAN` of the back iff the entry `SCAN`
            // further in fires no later (a short lane: iff it is due).
            let floor = q.len().checked_sub(SCAN + 1).map_or(self.now, |i| q[i].0);
            if at < floor {
                self.declined[lane] += 1;
                return self.schedule(at, entry.2);
            }
            // Behind every entry due no later: its `seq` is the newest.
            let mut i = q.len();
            while i > 0 && q[i - 1].0 > at {
                i -= 1;
            }
            q.insert(i, entry);
        }
        self.seq += 1;
    }

    /// File a key at or past the horizon in the far tier: on its
    /// bucket's list if the wheel's span reaches it, else on overflow.
    fn park(&mut self, at: SimTime, seq: u64, slot: u32) {
        let head = if bucket(at) - self.horizon < BUCKETS {
            self.in_wheel += 1;
            &mut self.wheel[(bucket(at) % BUCKETS) as usize]
        } else {
            self.in_overflow += 1;
            &mut self.overflow
        };
        self.links[slot as usize] = (at, seq, *head);
        *head = slot;
    }

    /// Re-park the overflow list: onto the wheel where its span now reaches.
    fn refile(&mut self) {
        let mut slot = std::mem::replace(&mut self.overflow, NIL);
        self.in_overflow = 0;
        while slot != NIL {
            let (at, seq, next) = self.links[slot as usize];
            self.park(at, seq, slot);
            slot = next;
        }
    }

    /// Drain the horizon's bucket into the heap and step past it.
    /// Callers guarantee the heap is empty and the far tier is not.
    fn advance(&mut self) {
        if self.in_wheel == 0 {
            // Empty wheel: jump straight to the overflow's earliest bucket.
            let (mut slot, mut earliest) = (self.overflow, u64::MAX);
            while slot != NIL {
                let (at, _, next) = self.links[slot as usize];
                (slot, earliest) = (next, earliest.min(bucket(at)));
            }
            self.horizon = earliest;
            self.refile();
        }
        let head = &mut self.wheel[(self.horizon % BUCKETS) as usize];
        let mut slot = std::mem::replace(head, NIL);
        self.horizon += 1;
        // List order is arbitrary; the heap restores `(at, seq)`.
        while slot != NIL {
            let (at, seq, next) = self.links[slot as usize];
            self.push_heap(Key { at, seq, slot });
            self.in_wheel -= 1;
            slot = next;
        }
        if self.horizon.is_multiple_of(BUCKETS) {
            // The wheel wrapped. No overflow key is overdue: each was a
            // full span ahead when filed, and a wrap comes once per span.
            self.refile();
        }
        // A pending key is on exactly one tier, the heap's all due first.
        let far = self.in_wheel + self.in_overflow;
        let lanes: usize = self.lanes.iter().map(VecDeque::len).sum();
        debug_assert_eq!(self.len(), self.heap.len() + far + lanes);
        debug_assert!(self.heap.iter().all(|k| bucket(k.at) < self.horizon));
    }

    /// Sift `key` up from a new leaf towards the root.
    fn push_heap(&mut self, key: Key) {
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

    /// Pop the heap's root — the earliest pending event outside the lanes,
    /// since every far key fires at or after the horizon — and advance
    /// the clock to it.
    fn pop_root(&mut self, root: Key) -> (SimTime, E) {
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
            .expect("a pending key always names a parked payload");
        self.free.push(root.slot);
        self.fire(root.at, event)
    }

    /// Advance the clock to a popped event.
    fn fire(&mut self, at: SimTime, event: E) -> (SimTime, E) {
        debug_assert!(at >= self.now, "clock went backwards");
        self.now = at;
        self.popped += 1;
        (at, event)
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::MAX)
    }

    /// Pop the earliest event only if it fires at or before `limit`.
    ///
    /// Returns `None` (leaving the event queued and the clock untouched)
    /// when the next event is beyond the limit. This is the primitive for
    /// running a simulation up to a horizon.
    pub fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        loop {
            let root = self.heap.first().copied();
            let far = self.in_wheel + self.in_overflow;
            // The earliest lane front, its `slot` naming the lane.
            let mut first: Option<Key> = None;
            for (lane, q) in self.lanes.iter().enumerate() {
                if let Some(&(at, seq, _)) = q.front() {
                    let front = Key {
                        at,
                        seq,
                        slot: lane as u32,
                    };
                    if first.is_none_or(|first| front.before(&first)) {
                        first = Some(front);
                    }
                }
            }
            if let Some(front) = first {
                // It is next if it beats the root or, with no root, if no
                // far key can fire before it.
                let next = match root {
                    Some(root) => front.before(&root),
                    None => bucket(front.at) < self.horizon || far == 0,
                };
                if next {
                    return (front.at <= limit).then(|| {
                        let q = &mut self.lanes[front.slot as usize];
                        let (at, _, event) = q.pop_front().expect("has a front");
                        self.fire(at, event)
                    });
                }
            }
            if let Some(root) = root {
                return (root.at <= limit).then(|| self.pop_root(root));
            }
            // Whatever is left fires at or after the horizon: stop when
            // that is past `limit`, else pull the next bucket in.
            if far == 0 || self.horizon > bucket(limit) {
                return None;
            }
            self.advance();
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

    impl<E> EventQueue<E> {
        /// Timestamp of the next event without popping it: the earlier
        /// of the lanes' fronts and the heap's root or, with no root, the
        /// earliest key on the first occupied bucket or the overflow list
        /// (whose keys wait for a wrap even once the wheel's span has
        /// reached them).
        fn peek_time(&self) -> Option<SimTime> {
            let front = self.lanes.iter().filter_map(|q| Some(q.front()?.0)).min();
            if let Some(root) = self.heap.first() {
                return Some(front.map_or(root.at, |at| at.min(root.at)));
            }
            let times = |mut slot: u32| {
                std::iter::from_fn(move || {
                    let (at, _, next) = *self.links.get(slot as usize)?;
                    slot = next;
                    Some(at)
                })
            };
            let bucket = (self.horizon..self.horizon + BUCKETS)
                .map(|b| self.wheel[(b % BUCKETS) as usize])
                .find(|&head| head != NIL);
            times(bucket.unwrap_or(NIL))
                .chain(times(self.overflow))
                .chain(front)
                .min()
        }
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

    /// Equal-timestamp events that wait by four routes — overflow
    /// re-filed at a wrap, a wheel bucket, straight into the heap behind
    /// the horizon, the lane — still pop in the order they were scheduled.
    #[test]
    fn equal_times_pop_fifo_across_all_four_routes() {
        let mut q = EventQueue::new();
        let start = |b: u64| SimTime::from_nanos(b << SHIFT);
        // One wheel turn and five buckets out: past the span from the epoch.
        let t = start(BUCKETS + 5) + SimDuration::from_nanos(7);
        for id in 0..3 {
            q.schedule(t, id);
        }
        assert_eq!((q.in_overflow, q.in_wheel), (3, 0), "route 1: overflow");
        // Step the horizon to bucket 11; now the span reaches `t`.
        q.schedule(start(10), 100);
        assert_eq!(q.pop(), Some((start(10), 100)));
        for id in 3..6 {
            q.schedule(t, id);
        }
        assert_eq!((q.in_overflow, q.in_wheel), (3, 3), "route 2: a bucket");
        // An earlier event in `t`'s own bucket walks the horizon across
        // the wrap (re-filing 0..3 behind 3..6 on the bucket's list, so
        // list order is neither FIFO nor time order) and drains it.
        q.schedule(start(BUCKETS + 5), 101);
        assert_eq!(q.pop(), Some((start(BUCKETS + 5), 101)));
        assert_eq!((q.in_overflow, q.in_wheel, q.near_len()), (0, 0, 6));
        for id in 6..9 {
            q.schedule(t, id);
        }
        assert_eq!(q.near_len(), 9, "route 3: behind the horizon, direct");
        for id in 9..12 {
            q.schedule_fifo(0, t, id);
        }
        assert_eq!((q.lane_len(0), q.near_len()), (3, 9), "route 4: a lane");
        // Heap keys on both sides of the lane's: `seq` breaks the tie.
        for id in 12..15 {
            q.schedule(t, id);
        }
        assert_eq!((q.lane_len(0), q.near_len(), q.len()), (3, 12, 15));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, (0..15).map(|id| (t, id)).collect::<Vec<_>>());
    }

    /// A lane on its own, and against the far tier: it counts in `len`,
    /// honours `pop_until`'s limit, takes a time behind its tail but
    /// within reach at its place instead of declining it, and waits for
    /// a wheel bucket that may hold something earlier.
    #[test]
    fn lane_alone_and_past_undrained_wheel_buckets() {
        let mut q = EventQueue::new();
        let start = |b: u64| SimTime::from_nanos(b << SHIFT);
        q.schedule_fifo(1, start(3), "a");
        q.schedule_fifo(1, start(6), "d");
        assert_eq!((q.len(), q.lane_len(1), q.near_len()), (2, 2, 0));
        assert!(!q.is_empty());
        assert_eq!(q.pop_until(start(2)), None, "the front is past the limit");
        assert_eq!((q.now(), q.len()), (SimTime::ZERO, 2));
        assert_eq!(q.pop_until(start(3)), Some((start(3), "a")));
        assert_eq!((q.len(), q.events_processed()), (1, 1));
        // Behind the tail, within reach: inserted ahead of "d".
        q.schedule_fifo(1, start(5), "c");
        assert_eq!((q.declined_hints(1), q.lane_len(1), q.in_wheel), (0, 2, 0));
        q.schedule(start(4), "b");
        assert_eq!((q.len(), q.in_wheel), (3, 1));
        // "c" leads the lane, but bucket 4 is not drained yet.
        assert_eq!(q.pop_until(start(3)), None);
        assert_eq!(q.pop(), Some((start(4), "b")));
        assert_eq!(q.pop_until(start(4)), None);
        assert_eq!(q.pop(), Some((start(5), "c")));
        assert_eq!(q.pop(), Some((start(6), "d")));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    /// The floor test's edge: with `SCAN + 1` entries in a lane, a hint
    /// at its front's time is `SCAN` entries from the back and inserted
    /// (behind that front, being scheduled later); one a nanosecond
    /// earlier would be `SCAN + 1` back and is declined.
    #[test]
    fn a_hint_is_inserted_iff_its_place_is_at_most_scan_from_the_back() {
        let mut q = EventQueue::new();
        let t = |i: usize| SimTime::from_nanos(10 + i as u64);
        for i in 0..=SCAN {
            q.schedule_fifo(2, t(i), i);
        }
        q.schedule_fifo(2, t(0) - SimDuration::from_nanos(1), 1000);
        assert_eq!((q.declined_hints(2), q.lane_len(2)), (1, SCAN + 1));
        q.schedule_fifo(2, t(0), 1001);
        assert_eq!((q.declined_hints(2), q.lane_len(2)), (1, SCAN + 2));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, id)| id).collect();
        let want: Vec<_> = [1000, 0, 1001].into_iter().chain(1..=SCAN).collect();
        assert_eq!(order, want);
    }

    /// A hint inserted behind its lane's tail at an instant other keys
    /// share pops after every one of them scheduled before it and ahead
    /// of every one scheduled after — wherever they wait: on the wheel
    /// or in the heap, in its own lane or another one, lower or higher.
    #[test]
    fn an_inserted_hint_keeps_its_seq_among_equal_times() {
        let start = |b: u64| SimTime::from_nanos(b << SHIFT);
        let t = start(5) + SimDuration::from_nanos(7);
        for in_heap in [false, true] {
            let mut q = EventQueue::new();
            if in_heap {
                // Drain `t`'s bucket, so that `schedule(t)` goes straight
                // to the heap.
                q.schedule(start(5), "drain");
                assert_eq!(q.pop(), Some((start(5), "drain")));
            }
            let later = t + SimDuration::from_nanos(1);
            q.schedule_fifo(2, later, "a");
            q.schedule_fifo(0, t, "b");
            q.schedule_fifo(0, later, "c");
            q.schedule(t, "d");
            q.schedule_fifo(1, t, "e");
            q.schedule(t, "f");
            // Behind lane 0's tail "c", after "b"; behind lane 2's "a".
            q.schedule_fifo(0, t, "g");
            q.schedule_fifo(2, t, "h");
            assert_eq!((q.lane_len(0), q.lane_len(1), q.lane_len(2)), (3, 1, 2));
            assert_eq!(if in_heap { q.near_len() } else { q.in_wheel }, 2);
            assert_eq!((0..LANES).map(|l| q.declined_hints(l)).sum::<u64>(), 0);
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(
                order,
                ["b", "d", "e", "f", "g", "h", "a", "c"],
                "heap: {in_heap}"
            );
        }
    }

    use proptest::prelude::*;

    /// One timestamp of the mixture the oracle proptest draws from,
    /// placed relative to the queue's clock, its horizon and `lane`'s
    /// entries so that every filing route and both edges of every tier
    /// come up.
    fn mixed_time<E>(q: &EventQueue<E>, lane: usize, kind: u8, v: u64) -> SimTime {
        let width = 1u64 << SHIFT;
        let span = BUCKETS << SHIFT;
        let now = q.now().as_nanos();
        let edge = |base: u64| base.saturating_add(span - 1 + v % 3);
        // Where bucket `b` starts; the clock can sit at `SimTime::MAX`.
        let start = |b: u64| u64::try_from(u128::from(b) << SHIFT).unwrap_or(u64::MAX);
        // The time of the lane's entry `back` from its tail (0 = the tail).
        let behind = |back: usize| q.lanes[lane].iter().rev().nth(back).map(|e| e.0.as_nanos());
        SimTime::from_nanos(match kind {
            // Dense collisions, soon all behind the clock…
            0 => v,
            // …and just ahead of it (behind the horizon after a drain).
            1 => now.saturating_add(v % 3),
            2 => now.saturating_add(v),
            // `k · 2^SHIFT − 1 / + 0 / + 1` over the next few buckets.
            3 => (start(bucket(q.now()) + 1 + v / 3 % 4) - 1).saturating_add(v % 3),
            // Inside an otherwise empty stretch of the wheel.
            4 => now.saturating_add(width * (3 + v) + v),
            // The last bucket of the span, and the first past it.
            5 => edge(now),
            6 => edge(start(q.horizon)),
            // Far overflow, several wheel turns out.
            7 => now.saturating_add(span * (2 + v % 5) + v),
            8 => u64::MAX - v % 2,
            // A few entries behind the lane's tail, on or just past one
            // (a hint lands mid-lane)…
            9 => behind(1 + v as usize % 8).map_or(now, |at| at.saturating_add(v % 2)),
            // …and just before an entry more than `SCAN` back (declined).
            _ => behind(SCAN + 1 + v as usize % 4).map_or(now, |at| at.saturating_sub(1)),
        })
    }

    proptest! {
        /// Any interleaving of schedule / schedule_fifo / pop / pop_until
        /// — timestamps and limits from [`mixed_time`]: colliding, behind
        /// the clock, astride bucket edges and the wheel's span, in
        /// overflow, at `SimTime::MAX`, and for a hint on a drawn lane:
        /// past its tail, a few entries behind it, more than `SCAN`
        /// behind it — pops exactly what the `BinaryHeap` oracle pops,
        /// and leaves the same clock, length and counter.
        #[test]
        fn matches_the_binary_heap_oracle(
            ops in prop::collection::vec((0u8..8, 0..LANES, 0u8..11, 0u64..40), 1..1000),
        ) {
            let mut q = EventQueue::new();
            let mut want = oracle::HeapQueue::new();
            let mut popped = 0u64;
            for (id, (op, lane, kind, v)) in ops.into_iter().enumerate() {
                let t = mixed_time(&q, lane, kind, v);
                match op {
                    // Three pushes to a pop, so the tiers fill and a lane
                    // outgrows `SCAN`; two in three hinted, whatever the time.
                    0..=5 => {
                        // A time behind the clock is clamped to `now` in
                        // release builds and a debug-build panic, so debug
                        // builds apply the clamp before the call.
                        let at = if cfg!(debug_assertions) { t.max(q.now()) } else { t };
                        if op < 2 {
                            q.schedule(at, id);
                        } else {
                            q.schedule_fifo(lane, at, id);
                        }
                        want.schedule(at, id);
                    }
                    6 => {
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
