//! The front-door admission plane: single-flight request coalescing
//! and DAGOR-style priority admission, stacked *in front of* the
//! TopFull token bucket.
//!
//! A request traverses up to three stages at the entry gateway:
//!
//! ```text
//!   arrival ──▶ [1 coalesce] ──▶ [2 priority] ──▶ [3 token bucket] ──▶ cluster
//!                 │    │             │
//!                 │    └ follower    └ shed (below threshold)
//!                 └ cache hit
//! ```
//!
//! Stage 1 ([`coalesce::CoalesceCache`]) answers duplicate reads from a
//! bounded TTL'd cache or parks them on an identical in-flight leader;
//! neither consumes a token. Stage 2 ([`priority::PriorityGate`]) sheds
//! below-threshold work before it can consume a token. Stage 3 is the
//! unchanged [`crate::entry_admission::EntryAdmission`] owned by the
//! caller — the [`FrontDoor`] deliberately stops short of it so the
//! simulator's virtual gateway and the live TCP gateway keep their
//! existing token-bucket plumbing and stack this plane in front.
//!
//! Both planes drive the same `FrontDoor` code: the simulator from the
//! engine's arrival/completion handlers, the live gateway from its
//! batched admit path under one lock per batch. The priority gate's
//! overload signal is derived from the same per-window
//! [`ClusterObservation`] telemetry in both, so for identical inputs
//! the verdict sequences are identical (Sim2Real, DESIGN.md §17).

pub mod coalesce;
pub mod priority;

use crate::observe::ClusterObservation;
use crate::types::ApiId;
use coalesce::{CoalesceCache, Lookup};
use obs::{Counter, Gauge, Registry};
use priority::{PriorityGate, ThresholdMove};
use simnet::{SimDuration, SimTime};
use std::sync::Arc;

pub use priority::PriorityConfig;

/// Coalescing-stage configuration.
#[derive(Clone, Copy, Debug)]
pub struct CoalesceConfig {
    /// Response-cache capacity in entries (0 = single-flight only).
    pub cache_capacity: usize,
    /// Responses are served from cache strictly within this TTL.
    pub cache_ttl: SimDuration,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig {
            cache_capacity: 1024,
            cache_ttl: SimDuration::from_millis(500),
        }
    }
}

/// Front-door configuration; either stage may be absent.
#[derive(Clone, Copy, Debug, Default)]
pub struct FrontConfig {
    pub coalesce: Option<CoalesceConfig>,
    pub priority: Option<PriorityConfig>,
}

/// Verdict for one arriving request, before the token bucket.
#[derive(Clone, Debug)]
pub enum PreVerdict<'a> {
    /// Served from the response cache; no token consumed. The payload is
    /// lent by the door: copy it out before the next call.
    CacheHit(&'a str),
    /// Parked on the identical in-flight request tagged `leader`.
    Follower { leader: u64 },
    /// Shed by the priority gate at composite `level`.
    Shed { level: u32 },
    /// Passed both stages; proceed to the token bucket. When `lead`
    /// is true the request is coalescable and, once the bucket admits
    /// it, the caller must register it via [`FrontDoor::begin_flight`].
    Proceed { lead: bool },
}

/// Cumulative front-door instruments, shared with the `obs` registry.
#[derive(Clone, Default)]
pub struct FrontStats {
    /// Duplicate reads answered from the response cache.
    pub cache_hits: Counter,
    /// Duplicate reads parked on an in-flight leader.
    pub follower_hits: Counter,
    /// Coalescable reads that found neither (and led or got shed).
    pub misses: Counter,
    /// Requests shed by the priority gate, per business tier.
    pub shed: Vec<Counter>,
    /// Coalescing hit rate over all coalescable lookups so far, as of
    /// the last [`FrontDoor::tick`]: the counters above are current after
    /// every lookup, the ratio is refreshed at the cadence of every other
    /// gauge on `/metrics`.
    pub hit_rate: Gauge,
    /// Current priority-admission threshold (level space units).
    pub threshold: Gauge,
}

impl FrontStats {
    fn new(tiers: usize) -> Self {
        FrontStats {
            shed: (0..tiers).map(|_| Counter::unregistered()).collect(),
            ..FrontStats::default()
        }
    }

    /// Total priority-shed count across tiers.
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().map(Counter::get).sum()
    }

    /// Adopt every instrument into `reg` under the `topfull_` families
    /// exposed at `/metrics`.
    pub fn register_into(&self, reg: &Registry) {
        reg.register_counter(
            "topfull_coalesce_hit_total",
            &[("kind", "cache")],
            &self.cache_hits,
        );
        reg.register_counter(
            "topfull_coalesce_hit_total",
            &[("kind", "inflight")],
            &self.follower_hits,
        );
        reg.register_counter("topfull_coalesce_miss_total", &[], &self.misses);
        reg.register_gauge("topfull_coalesce_hit_rate", &[], &self.hit_rate);
        for (tier, c) in self.shed.iter().enumerate() {
            let t = tier.to_string();
            reg.register_counter("topfull_priority_shed_total", &[("business", &t)], c);
        }
        reg.register_gauge("topfull_priority_threshold", &[], &self.threshold);
    }
}

/// Per-window front-door aggregates (deltas since the previous tick).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowCounts {
    pub cache_hits: u64,
    pub follower_hits: u64,
    pub misses: u64,
    pub shed: u64,
}

impl WindowCounts {
    pub fn any(&self) -> bool {
        *self != WindowCounts::default()
    }
}

/// One control-tick outcome: window deltas plus the priority-threshold
/// move, if the gate adapted. The caller journals these (the engine as
/// `AdmissionWindow` / `PriorityThreshold` entries).
#[derive(Clone, Copy, Debug)]
pub struct FrontTick {
    pub window: WindowCounts,
    pub threshold: Option<ThresholdMove>,
}

/// Stages 1–2 of the front-door stack. See module docs.
pub struct FrontDoor {
    cache: Option<CoalesceCache>,
    gate: Option<PriorityGate>,
    stats: FrontStats,
    /// Counter snapshot at the last tick, for window deltas.
    base: (u64, u64, u64, u64),
}

impl FrontDoor {
    pub fn new(cfg: FrontConfig) -> Self {
        let tiers = cfg
            .priority
            .map(|p| p.business_tiers.max(1) as usize)
            .unwrap_or(0);
        let stats = FrontStats::new(tiers);
        if let Some(p) = cfg.priority {
            stats
                .threshold
                .set(f64::from(p.business_tiers.max(1) * p.user_levels.max(1)));
        }
        FrontDoor {
            cache: cfg
                .coalesce
                .map(|c| CoalesceCache::new(c.cache_capacity, c.cache_ttl)),
            gate: cfg.priority.map(PriorityGate::new),
            stats,
            base: (0, 0, 0, 0),
        }
    }

    /// The door's instruments (register them into a metrics registry).
    pub fn stats(&self) -> &FrontStats {
        &self.stats
    }

    /// Whether the coalescing stage is enabled.
    pub fn coalescing(&self) -> bool {
        self.cache.is_some()
    }

    /// Current priority threshold, when the gate is enabled.
    pub fn priority_threshold(&self) -> Option<u32> {
        self.gate.as_ref().map(PriorityGate::threshold)
    }

    /// The external overload signal driving the priority gate: any
    /// service's mean queuing delay above the configured threshold —
    /// the same law as WeChat's per-service variant, evaluated on the
    /// same [`ClusterObservation`] in both the simulator and the live
    /// plane. Always false when the gate is disabled.
    pub fn overloaded(&self, obs: &ClusterObservation) -> bool {
        let Some(gate) = self.gate.as_ref() else {
            return false;
        };
        let th = gate.queuing_delay_threshold();
        obs.services.iter().any(|s| s.mean_queuing_delay > th)
    }

    /// Run stages 1–2 for one arriving request. `key` is the request's
    /// coalescing key (`None` = not coalescable); `(business, user)`
    /// is its priority pair. Cache hits and followers bypass the
    /// priority gate — they cost no cluster work, so shedding them
    /// would only destroy free goodput.
    pub fn pre_admit(
        &mut self,
        api: ApiId,
        key: Option<u64>,
        business: u8,
        user: u8,
        now: SimTime,
    ) -> PreVerdict<'_> {
        let lead = key.is_some() && self.cache.is_some();
        if let (Some(cache), Some(k)) = (self.cache.as_mut(), key) {
            match cache.lookup(api, k, now) {
                Lookup::Hit(payload) => {
                    self.stats.cache_hits.inc();
                    return PreVerdict::CacheHit(payload);
                }
                Lookup::Follower { leader } => {
                    self.stats.follower_hits.inc();
                    return PreVerdict::Follower { leader };
                }
                Lookup::Miss => self.stats.misses.inc(),
            }
        }
        if let Some(gate) = self.gate.as_mut() {
            let level = gate.level(business, user);
            if !gate.admit(level) {
                let tier = usize::from(business).min(self.stats.shed.len().saturating_sub(1));
                self.stats.shed[tier].inc();
                return PreVerdict::Shed { level };
            }
        }
        PreVerdict::Proceed { lead }
    }

    /// Register `leader` as the single flight for `(api, key)`; call
    /// after a [`PreVerdict::Proceed`]`{lead: true}` request passed the
    /// token bucket.
    pub fn begin_flight(&mut self, api: ApiId, key: u64, leader: u64) {
        if let Some(cache) = self.cache.as_mut() {
            cache.begin_flight(api, key, leader);
        }
    }

    /// The flight leader completed: cache its response payload and
    /// clear the flight (the caller releases parked followers with the
    /// same payload).
    pub fn complete_flight(&mut self, api: ApiId, key: u64, payload: Arc<str>, now: SimTime) {
        if let Some(cache) = self.cache.as_mut() {
            cache.complete_flight(api, key, payload, now);
        }
    }

    /// The flight leader failed: clear the flight without caching, so
    /// followers fail fast instead of hanging.
    pub fn fail_flight(&mut self, api: ApiId, key: u64) {
        if let Some(cache) = self.cache.as_mut() {
            cache.fail_flight(api, key);
        }
    }

    /// Close the control window: adapt the priority gate to the
    /// external `overloaded` signal, refresh gauges, and report the
    /// window's verdict deltas for journaling.
    pub fn tick(&mut self, overloaded: bool) -> FrontTick {
        let threshold = self.gate.as_mut().and_then(|g| g.adapt(overloaded));
        if let Some(g) = self.gate.as_ref() {
            self.stats.threshold.set(f64::from(g.threshold()));
        }
        let snap = (
            self.stats.cache_hits.get(),
            self.stats.follower_hits.get(),
            self.stats.misses.get(),
            self.stats.shed_total(),
        );
        let window = WindowCounts {
            cache_hits: snap.0 - self.base.0,
            follower_hits: snap.1 - self.base.1,
            misses: snap.2 - self.base.2,
            shed: snap.3 - self.base.3,
        };
        self.base = snap;
        let hits = snap.0 + snap.1;
        if hits + snap.2 > 0 {
            self.stats
                .hit_rate
                .set(hits as f64 / (hits + snap.2) as f64);
        }
        FrontTick { window, threshold }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn coalesce_only() -> FrontDoor {
        FrontDoor::new(FrontConfig {
            coalesce: Some(CoalesceConfig {
                cache_capacity: 64,
                cache_ttl: SimDuration::from_secs(2),
            }),
            priority: None,
        })
    }

    #[test]
    fn full_stack_verdict_flow() {
        let mut d = FrontDoor::new(FrontConfig {
            coalesce: Some(CoalesceConfig::default()),
            priority: Some(PriorityConfig::default()),
        });
        let now = SimTime::from_secs(1);
        // Miss → lead.
        let v = d.pre_admit(ApiId(0), Some(5), 0, 0, now);
        assert!(matches!(v, PreVerdict::Proceed { lead: true }));
        d.begin_flight(ApiId(0), 5, 100);
        // Duplicate → follower on the leader.
        assert!(matches!(
            d.pre_admit(ApiId(0), Some(5), 0, 1, now),
            PreVerdict::Follower { leader: 100 }
        ));
        // Completion → cache hit with the leader's payload.
        d.complete_flight(ApiId(0), 5, "resp".into(), now);
        match d.pre_admit(ApiId(0), Some(5), 0, 2, now) {
            PreVerdict::CacheHit(p) => assert_eq!(p, "resp"),
            other => panic!("expected cache hit, got {other:?}"),
        }
        // Non-coalescable request with the gate open → plain proceed.
        assert!(matches!(
            d.pre_admit(ApiId(1), None, 0, 0, now),
            PreVerdict::Proceed { lead: false }
        ));
        assert_eq!(d.stats().cache_hits.get(), 1);
        assert_eq!(d.stats().follower_hits.get(), 1);
        assert_eq!(d.stats().misses.get(), 1);
    }

    #[test]
    fn shed_requests_are_counted_per_tier_and_journaled_in_window() {
        let mut d = FrontDoor::new(FrontConfig {
            coalesce: None,
            priority: Some(PriorityConfig::default()),
        });
        let mut rng = simnet::rng::fork(7, "t");
        let now = SimTime::from_secs(1);
        for _ in 0..2_000 {
            d.pre_admit(ApiId(0), None, 6, rng.gen_range(0..=127), now);
        }
        // Force the gate down far enough to shed tier 6 entirely.
        for _ in 0..200 {
            d.tick(true);
            for _ in 0..50 {
                d.pre_admit(ApiId(0), None, 6, rng.gen_range(0..=127), now);
            }
        }
        let t = d.tick(true);
        assert!(d.stats().shed[6].get() > 0, "tier-6 requests were shed");
        assert_eq!(d.stats().shed_total(), d.stats().shed[6].get());
        assert!(t.window.shed > 0, "window delta carries the shed count");
        assert!(t.window.cache_hits == 0 && t.window.misses == 0);
    }

    #[test]
    fn tick_reports_threshold_moves_and_deltas_reset() {
        let mut d = FrontDoor::new(FrontConfig {
            coalesce: Some(CoalesceConfig::default()),
            priority: Some(PriorityConfig::default()),
        });
        let now = SimTime::ZERO;
        for user in 0..100u8 {
            d.pre_admit(ApiId(0), None, 0, user, now);
        }
        let t1 = d.tick(true);
        let mv = t1.threshold.expect("overloaded tick moves the threshold");
        assert!(mv.to < mv.from);
        assert_eq!(d.stats().threshold.get(), f64::from(mv.to));
        // A quiet tick reports nothing.
        let t2 = d.tick(false);
        assert!(!t2.window.any());
    }

    #[test]
    fn leader_failure_never_caches_and_next_arrival_leads() {
        let mut d = coalesce_only();
        let now = SimTime::from_secs(3);
        assert!(matches!(
            d.pre_admit(ApiId(0), Some(9), 0, 0, now),
            PreVerdict::Proceed { lead: true }
        ));
        d.begin_flight(ApiId(0), 9, 1);
        d.fail_flight(ApiId(0), 9);
        assert!(matches!(
            d.pre_admit(ApiId(0), Some(9), 0, 0, now),
            PreVerdict::Proceed { lead: true }
        ));
    }

    #[test]
    fn hit_rate_gauge_tracks_lookups() {
        let mut d = coalesce_only();
        let now = SimTime::ZERO;
        d.pre_admit(ApiId(0), Some(1), 0, 0, now);
        d.begin_flight(ApiId(0), 1, 1);
        d.complete_flight(ApiId(0), 1, "x".into(), now);
        d.pre_admit(ApiId(0), Some(1), 0, 0, now);
        // The counters are current; the gauge is read at the tick.
        assert_eq!(d.stats().cache_hits.get() + d.stats().misses.get(), 2);
        assert_eq!(d.stats().hit_rate.get(), 0.0);
        d.tick(false);
        assert!((d.stats().hit_rate.get() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn registry_exposes_front_door_families() {
        let d = FrontDoor::new(FrontConfig {
            coalesce: Some(CoalesceConfig::default()),
            priority: Some(PriorityConfig::default()),
        });
        let reg = Registry::new();
        d.stats().register_into(&reg);
        let text = reg.render_prometheus();
        assert!(text.contains("topfull_coalesce_hit_total{kind=\"cache\"} 0"));
        assert!(text.contains("topfull_coalesce_hit_total{kind=\"inflight\"} 0"));
        assert!(text.contains("topfull_coalesce_miss_total 0"));
        assert!(text.contains("topfull_priority_shed_total{business=\"0\"} 0"));
        assert!(text.contains("topfull_priority_shed_total{business=\"7\"} 0"));
        assert!(text.contains("topfull_priority_threshold 1024"));
    }

    /// Property: coalescing never changes response bytes. For a random
    /// interleaving of flights, completions, and lookups, every cache
    /// hit and every follower resolves to exactly the payload the
    /// authoritative (uncoalesced) backend would have produced for that
    /// `(api, key)` — the payload of the key's most recent completed
    /// write.
    #[test]
    fn coalescing_preserves_response_bytes() {
        let mut rng = simnet::rng::fork(42, "coalesce-prop");
        for round in 0..50 {
            let mut d = FrontDoor::new(FrontConfig {
                coalesce: Some(CoalesceConfig {
                    cache_capacity: rng.gen_range(1..8),
                    cache_ttl: SimDuration::from_secs(1_000),
                }),
                priority: None,
            });
            // The uncoalesced oracle: backend response per (api, key),
            // re-written on every completed flight.
            let mut oracle: std::collections::HashMap<(u32, u64), String> =
                std::collections::HashMap::new();
            let mut leaders: std::collections::HashMap<u64, (ApiId, u64, String)> =
                std::collections::HashMap::new();
            let mut next_id = 0u64;
            let mut version = 0u64;
            for step in 0..400 {
                let now = SimTime::from_millis(step);
                let api = ApiId(rng.gen_range(0..2));
                let key = rng.gen_range(0..5u64);
                match d.pre_admit(api, Some(key), 0, 0, now) {
                    PreVerdict::CacheHit(p) => {
                        let want = oracle.get(&(api.0, key)).expect("hit implies a write");
                        assert_eq!(p, want.as_str(), "round {round} step {step}");
                    }
                    PreVerdict::Follower { leader } => {
                        let (la, lk, _) = &leaders[&leader];
                        assert_eq!((*la, *lk), (api, key), "follower parked on wrong flight");
                    }
                    PreVerdict::Proceed { lead } => {
                        assert!(lead);
                        version += 1;
                        let payload = format!("resp:{}:{key}:v{version}", api.0);
                        d.begin_flight(api, key, next_id);
                        leaders.insert(next_id, (api, key, payload));
                        next_id += 1;
                    }
                    PreVerdict::Shed { .. } => unreachable!("no priority gate"),
                }
                // Randomly land or fail one outstanding flight.
                if !leaders.is_empty() && rng.gen_bool(0.6) {
                    let pick = *leaders.keys().min().expect("nonempty");
                    let (api, key, payload) = leaders.remove(&pick).expect("picked");
                    if rng.gen_bool(0.85) {
                        d.complete_flight(api, key, payload.as_str().into(), now);
                        oracle.insert((api.0, key), payload);
                    } else {
                        d.fail_flight(api, key);
                    }
                }
            }
        }
    }
}
