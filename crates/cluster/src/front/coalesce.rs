//! Single-flight request coalescing with a bounded, TTL'd response
//! cache.
//!
//! Identical in-flight read requests — same `(api, key)` — collapse
//! onto one *leader*: the first miss registers a flight, and every
//! duplicate arriving before the leader completes becomes a *follower*
//! parked on that flight (the caller owns the parking list; the cache
//! only remembers who leads). When the leader completes, its response
//! payload is stored and served to later arrivals directly from the
//! cache until the TTL lapses. The cache is bounded: inserting beyond
//! capacity evicts the least-recently-touched entry. Touch order is a
//! monotone tick (unique per touch), so the victim is the one entry with
//! the smallest tick wherever the table happens to keep it: eviction is
//! placement-free, hence deterministic under a hash that is seeded
//! afresh in every process (`KeyedFold`) — a property the simulator's
//! journal fingerprints depend on, and one a proptest holds the cache
//! to against a list model under two seeds.
//!
//! The hit path is one probe of a cheaply hashed table: the entry API
//! finds the slot once for the freshness check, the touch and (when
//! stale) the removal, and the payload is lent as `&str` — the caller
//! copies the bytes it needs, nobody clones the `Arc`.

use crate::types::ApiId;
use simnet::{SimDuration, SimTime};
use std::collections::hash_map::{Entry as Slot, HashMap, RandomState};
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

/// Outcome of a cache consultation for one arriving request.
#[derive(Clone, Debug)]
pub enum Lookup<'a> {
    /// A fresh cached response, lent for as long as the cache stays
    /// untouched; serve it without consuming a token.
    Hit(&'a str),
    /// An identical request is in flight; park on `leader`'s completion.
    Follower {
        /// Caller-assigned tag of the in-flight leader (request id).
        leader: u64,
    },
    /// No cached or in-flight response; the caller may lead a flight.
    Miss,
}

struct Entry {
    payload: Arc<str>,
    stored_at: SimTime,
    touched: u64,
}

/// The tables' hash: one *keyed* folded multiply over `(api, key)`,
/// `(api ^ k0) · (key ^ k1)` with the product's halves xor-ed together,
/// in place of the default SipHash, which cost more than the probe it
/// served. The key is the peer's to choose, so `k0, k1` are never
/// constants: each cache draws them from [`RandomState`], and a peer that
/// cannot see them cannot aim keys at one bucket. Should one manage it
/// anyway, the damage is bounded by configuration, not by the peer: the
/// entry table never holds more than `capacity` keys and the flight
/// table no more than the token bucket admitted leaders in flight, so a
/// probe's worst case is a walk over the cap (a test below floods the
/// cache with 100 000 hostile-looking keys and reads `len() <= capacity`).
///
/// One value is both the tables' `BuildHasher` (the seed: `acc = k0`) and
/// the `Hasher` it hands out (a copy of itself). Narrow words are xor-ed
/// into the accumulator, a 64-bit word multiplies it — so hashing
/// `(u32, u64)` is one multiply.
#[derive(Clone, Copy)]
struct KeyedFold {
    acc: u64,
    k1: u64,
}

impl BuildHasher for KeyedFold {
    type Hasher = KeyedFold;

    fn build_hasher(&self) -> KeyedFold {
        *self
    }
}

impl Hasher for KeyedFold {
    fn write_u32(&mut self, word: u32) {
        self.acc ^= u64::from(word);
    }

    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.acc) * u128::from(word ^ self.k1);
        self.acc = product as u64 ^ (product >> 64) as u64;
    }

    /// Not reached by the cache's keys; `Hasher` requires it.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.acc
    }
}

/// Bounded single-flight response cache. See module docs.
pub struct CoalesceCache {
    capacity: usize,
    ttl: SimDuration,
    entries: HashMap<(u32, u64), Entry, KeyedFold>,
    /// Keys with a flight in progress → the leader's tag.
    inflight: HashMap<(u32, u64), u64, KeyedFold>,
    /// Monotone touch clock for deterministic LRU eviction.
    tick: u64,
}

impl CoalesceCache {
    pub fn new(capacity: usize, ttl: SimDuration) -> Self {
        let draw = RandomState::new();
        let hash = KeyedFold {
            acc: draw.hash_one(0u8),
            k1: draw.hash_one(1u8),
        };
        CoalesceCache {
            capacity,
            ttl,
            entries: HashMap::with_hasher(hash),
            inflight: HashMap::with_hasher(hash),
            tick: 0,
        }
    }

    /// Cached entries currently held (after lazy TTL expiry).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Flights currently registered.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Consult the cache for a request on `(api, key)` arriving at
    /// `now`. An entry is fresh strictly within its TTL; an expired
    /// entry is removed on the spot (lazy expiry — the capacity bound
    /// keeps the map small regardless).
    pub fn lookup(&mut self, api: ApiId, key: u64, now: SimTime) -> Lookup<'_> {
        let k = (api.0, key);
        // One probe serves the hit, the touch and the expiry alike.
        if let Slot::Occupied(mut slot) = self.entries.entry(k) {
            if now.duration_since(slot.get().stored_at) < self.ttl {
                self.tick += 1;
                slot.get_mut().touched = self.tick;
                return Lookup::Hit(&slot.into_mut().payload);
            }
            slot.remove();
        }
        if let Some(&leader) = self.inflight.get(&k) {
            return Lookup::Follower { leader };
        }
        Lookup::Miss
    }

    /// Register `leader` as the flight for `(api, key)`. Call only
    /// after [`CoalesceCache::lookup`] returned [`Lookup::Miss`] and
    /// the request passed the stages behind the cache.
    pub fn begin_flight(&mut self, api: ApiId, key: u64, leader: u64) {
        self.inflight.entry((api.0, key)).or_insert(leader);
    }

    /// The leader for `(api, key)` completed with `payload`: clear the
    /// flight and cache the response (evicting LRU if at capacity).
    pub fn complete_flight(&mut self, api: ApiId, key: u64, payload: Arc<str>, now: SimTime) {
        let k = (api.0, key);
        self.inflight.remove(&k);
        if self.capacity == 0 {
            return;
        }
        if !self.entries.contains_key(&k) && self.entries.len() >= self.capacity {
            // Evict the least-recently-touched entry. Touch ticks are
            // unique, so the minimum is well-defined regardless of map
            // iteration order.
            if let Some(&victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(k, _)| k)
            {
                self.entries.remove(&victim);
            }
        }
        self.tick += 1;
        self.entries.insert(
            k,
            Entry {
                payload,
                stored_at: now,
                touched: self.tick,
            },
        );
    }

    /// The leader for `(api, key)` failed: clear the flight without
    /// caching anything, so parked followers fail fast and the next
    /// arrival leads a fresh flight.
    pub fn fail_flight(&mut self, api: ApiId, key: u64) {
        self.inflight.remove(&(api.0, key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// A cache whose tables hash under `seed` — tests only: outside them
    /// the seed is always [`RandomState`]'s.
    fn seeded(capacity: usize, ttl: SimDuration, seed: [u64; 2]) -> CoalesceCache {
        let mut c = CoalesceCache::new(capacity, ttl);
        let [acc, k1] = seed;
        c.entries = HashMap::with_hasher(KeyedFold { acc, k1 });
        c.inflight = HashMap::with_hasher(KeyedFold { acc, k1 });
        c
    }

    /// What a lookup said, in comparable form.
    #[derive(Debug, PartialEq)]
    enum Said {
        Hit(String),
        Follower(u64),
        Miss,
    }

    /// The cache as two lists and no hashing: entries oldest touch first
    /// (so the LRU victim is the head), flights in arrival order.
    struct Model {
        capacity: usize,
        ttl: SimDuration,
        entries: Vec<((u32, u64), String, SimTime)>,
        flights: Vec<((u32, u64), u64)>,
    }

    impl Model {
        fn lookup(&mut self, k: (u32, u64), now: SimTime) -> Said {
            if let Some(at) = self.entries.iter().position(|e| e.0 == k) {
                let entry = self.entries.remove(at);
                if now.duration_since(entry.2) < self.ttl {
                    self.entries.push(entry.clone()); // touched: now the newest
                    return Said::Hit(entry.1);
                }
            }
            match self.flights.iter().find(|f| f.0 == k) {
                Some(&(_, leader)) => Said::Follower(leader),
                None => Said::Miss,
            }
        }

        fn begin_flight(&mut self, k: (u32, u64), leader: u64) {
            if !self.flights.iter().any(|f| f.0 == k) {
                self.flights.push((k, leader));
            }
        }

        fn fail_flight(&mut self, k: (u32, u64)) {
            self.flights.retain(|f| f.0 != k);
        }

        fn complete_flight(&mut self, k: (u32, u64), payload: &str, now: SimTime) {
            self.fail_flight(k);
            if self.capacity == 0 {
                return;
            }
            let before = self.entries.len();
            self.entries.retain(|e| e.0 != k);
            if self.entries.len() == before && before >= self.capacity {
                self.entries.remove(0);
            }
            self.entries.push((k, payload.to_owned(), now));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random op sequences over ten keys, capacities 0–4 and a clock
        /// that lands a nanosecond before, on and after the TTL edge: the
        /// cache says what the list model says and holds the keys it
        /// holds, under two hasher seeds alike — verdicts and eviction
        /// victims do not depend on where a key is placed (which is also
        /// what keeps the simulator's journals seed-free).
        #[test]
        fn cache_matches_the_list_model_under_any_seed(
            capacity in 0usize..5,
            ops in prop::collection::vec((0u8..8, 0u32..2, 0u64..5, 0usize..7), 1..120),
        ) {
            let ttl = SimDuration::from_nanos(1000);
            let mut model = Model { capacity, ttl, entries: Vec::new(), flights: Vec::new() };
            let mut caches = [[1, 2], [0x9e37_79b9_7f4a_7c15, u64::MAX]]
                .map(|seed| seeded(capacity, ttl, seed));
            let mut now = 0;
            for (step, &(op, api, key, dt)) in ops.iter().enumerate() {
                now += [0, 1, 499, 500, 999, 1000, 1001][dt];
                let (at, k, leader) = (SimTime::from_nanos(now), (api, key), step as u64);
                let payload = format!("v{step}");
                let want = match op {
                    0..=3 => Some(model.lookup(k, at)),
                    4 => { model.begin_flight(k, leader); None }
                    5 | 6 => { model.complete_flight(k, &payload, at); None }
                    _ => { model.fail_flight(k); None }
                };
                for c in &mut caches {
                    let said = match op {
                        0..=3 => Some(match c.lookup(ApiId(api), key, at) {
                            Lookup::Hit(p) => Said::Hit(p.to_owned()),
                            Lookup::Follower { leader } => Said::Follower(leader),
                            Lookup::Miss => Said::Miss,
                        }),
                        4 => { c.begin_flight(ApiId(api), key, leader); None }
                        5 | 6 => { c.complete_flight(ApiId(api), key, payload.as_str().into(), at); None }
                        _ => { c.fail_flight(ApiId(api), key); None }
                    };
                    prop_assert_eq!(&said, &want, "step {} of {:?}", step, ops);
                    let mut held: Vec<_> = c.entries.keys().copied().collect();
                    let mut modelled: Vec<_> = model.entries.iter().map(|e| e.0).collect();
                    held.sort_unstable();
                    modelled.sort_unstable();
                    prop_assert_eq!(held, modelled, "step {} of {:?}", step, ops);
                    prop_assert_eq!(c.inflight(), model.flights.len());
                }
            }
        }
    }

    /// The tables are capped by configuration — `capacity` entries, and
    /// no more flights than the token bucket admitted leaders — so what a
    /// flood of distinct keys can cost a probe is bounded by the cap, not
    /// by the peer, however the keys were chosen.
    #[test]
    fn a_flood_of_hostile_looking_keys_stays_under_the_cap() {
        let mut c = CoalesceCache::new(64, SimDuration::from_secs(3600));
        for i in 0..25_000u64 {
            let hostile = [i, i.reverse_bits(), i << 32, (i << 32) | 0xdead_beef];
            for (api, key) in hostile.into_iter().enumerate() {
                let api = ApiId(api as u32);
                assert!(matches!(
                    c.lookup(api, key, t(1)),
                    Lookup::Miss | Lookup::Hit(_)
                ));
                c.begin_flight(api, key, i);
                c.complete_flight(api, key, "x".into(), t(1));
                assert!(c.len() <= 64 && c.inflight() == 0);
            }
        }
        assert_eq!(c.len(), 64);
    }

    fn hit<'a>(l: &Lookup<'a>) -> Option<&'a str> {
        match l {
            Lookup::Hit(p) => Some(p),
            _ => None,
        }
    }

    #[test]
    fn miss_then_flight_then_hit() {
        let mut c = CoalesceCache::new(8, SimDuration::from_secs(10));
        assert!(matches!(c.lookup(ApiId(0), 7, t(0)), Lookup::Miss));
        c.begin_flight(ApiId(0), 7, 41);
        match c.lookup(ApiId(0), 7, t(0)) {
            Lookup::Follower { leader } => assert_eq!(leader, 41),
            other => panic!("expected follower, got {other:?}"),
        }
        c.complete_flight(ApiId(0), 7, "payload".into(), t(1));
        assert_eq!(c.inflight(), 0);
        assert_eq!(hit(&c.lookup(ApiId(0), 7, t(2))), Some("payload"));
    }

    #[test]
    fn ttl_expires_entries_lazily() {
        let mut c = CoalesceCache::new(8, SimDuration::from_secs(5));
        c.complete_flight(ApiId(0), 1, "x".into(), t(0));
        assert!(hit(&c.lookup(ApiId(0), 1, t(4))).is_some());
        // Exactly at the TTL the entry is stale (fresh strictly within).
        assert!(matches!(c.lookup(ApiId(0), 1, t(5)), Lookup::Miss));
        assert!(c.is_empty(), "expired entry removed on lookup");
    }

    #[test]
    fn lru_eviction_prefers_least_recently_touched() {
        let mut c = CoalesceCache::new(2, SimDuration::from_secs(100));
        c.complete_flight(ApiId(0), 1, "a".into(), t(0));
        c.complete_flight(ApiId(0), 2, "b".into(), t(0));
        // Touch key 1 so key 2 is the LRU victim.
        assert!(hit(&c.lookup(ApiId(0), 1, t(1))).is_some());
        c.complete_flight(ApiId(0), 3, "c".into(), t(2));
        assert_eq!(c.len(), 2);
        assert!(hit(&c.lookup(ApiId(0), 1, t(3))).is_some(), "kept");
        assert!(
            matches!(c.lookup(ApiId(0), 2, t(3)), Lookup::Miss),
            "evicted"
        );
        assert!(hit(&c.lookup(ApiId(0), 3, t(3))).is_some(), "newest kept");
    }

    #[test]
    fn failed_flight_caches_nothing() {
        let mut c = CoalesceCache::new(8, SimDuration::from_secs(10));
        c.begin_flight(ApiId(2), 9, 5);
        c.fail_flight(ApiId(2), 9);
        assert!(matches!(c.lookup(ApiId(2), 9, t(1)), Lookup::Miss));
        assert_eq!(c.inflight(), 0);
    }

    #[test]
    fn keys_are_scoped_per_api() {
        let mut c = CoalesceCache::new(8, SimDuration::from_secs(10));
        c.complete_flight(ApiId(0), 1, "api0".into(), t(0));
        assert!(matches!(c.lookup(ApiId(1), 1, t(0)), Lookup::Miss));
        assert_eq!(hit(&c.lookup(ApiId(0), 1, t(0))), Some("api0"));
    }

    #[test]
    fn zero_capacity_disables_caching_but_not_single_flight() {
        let mut c = CoalesceCache::new(0, SimDuration::from_secs(10));
        c.begin_flight(ApiId(0), 1, 3);
        assert!(matches!(
            c.lookup(ApiId(0), 1, t(0)),
            Lookup::Follower { leader: 3 }
        ));
        c.complete_flight(ApiId(0), 1, "x".into(), t(0));
        assert!(matches!(c.lookup(ApiId(0), 1, t(0)), Lookup::Miss));
    }
}
