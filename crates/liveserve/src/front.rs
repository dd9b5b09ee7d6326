//! Live front-door admission: the simulator's coalescing + priority
//! pipeline ([`cluster::front::FrontDoor`]) wired to real sockets.
//!
//! The stage logic is shared verbatim with the simulator; this module
//! adds only what live traffic needs on top of it:
//!
//! * [`LiveAdmission`] — the entry token bucket and the optional front
//!   door under **one mutex**, so the gateway's batched admit path
//!   still costs one lock per wakeup (DESIGN.md §16);
//! * follower routes — a parked duplicate read must be answered later,
//!   from a worker thread, so each follower keeps its
//!   [`ReplySink`] until the leader's
//!   flight settles;
//! * a deterministic server-side user level hashed from the request id
//!   (clients don't authenticate; the hash gives the priority gate a
//!   stable, uniform user axis exactly like the simulator's sampled
//!   one).

use crate::executors::ReplySink;
use crate::metrics::LiveMetrics;
use cluster::front::{FrontConfig, FrontDoor};
use cluster::{ApiId, EntryAdmission, Topology};
use simnet::SimTime;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The gateway's combined admission state: stages 1–2 (front door) and
/// stage 3 (entry token bucket) behind a single lock.
pub struct LiveAdmission {
    pub entry: EntryAdmission,
    pub front: Option<LiveFront>,
}

/// One parked duplicate read, waiting for its leader's flight.
struct Follower {
    id: u64,
    accepted: Instant,
    reply: ReplySink,
}

/// Live-plane state around the shared [`FrontDoor`].
pub struct LiveFront {
    pub door: FrontDoor,
    /// Per-API business priority, indexed by wire API index.
    business: Vec<u8>,
    /// User sub-levels the priority gate distinguishes.
    user_levels: u32,
    /// Parked followers by `(api, key)` flight.
    followers: HashMap<(u32, u64), Vec<Follower>>,
}

impl LiveFront {
    pub fn new(cfg: FrontConfig, topo: &Topology) -> Self {
        LiveFront {
            door: FrontDoor::new(cfg),
            business: topo.apis().map(|(_, a)| a.business.0).collect(),
            user_levels: cfg.priority.map_or(1, |p| p.user_levels.max(1)),
            followers: HashMap::new(),
        }
    }

    /// The request's business tier (APIs beyond the topology default
    /// to the most important tier, matching the gateway's "unknown api
    /// answers ERR before admission" path never reaching here).
    pub fn business(&self, api: usize) -> u8 {
        self.business.get(api).copied().unwrap_or(0)
    }

    /// Deterministic user level from the request id (FNV-1a over the id
    /// bytes, folded into the gate's user axis). Server-side: clients
    /// don't carry identity, and hashing the id spreads levels
    /// uniformly the way the simulator's per-request sample does. Only
    /// the priority gate reads a level, so without one nothing is hashed.
    pub fn user_level(&self, id: u64) -> u8 {
        if self.door.priority_threshold().is_none() {
            return 0;
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in id.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        ((h >> 32) % u64::from(self.user_levels)) as u8
    }

    /// Park a duplicate read on the `(api, key)` flight.
    pub fn park(&mut self, api: u32, key: u64, id: u64, reply: ReplySink) {
        self.followers
            .entry((api, key))
            .or_default()
            .push(Follower {
                id,
                accepted: Instant::now(),
                reply,
            });
    }
}

/// Settle a coalesced flight after its leader finished: publish the
/// payload (success) or clear the flight (failure), then fan the
/// verdict out to every parked follower. `payload` is the leader's
/// response payload (its latency field); followers report their own
/// measured latency. Takes the admission lock briefly — call with it
/// released.
pub fn settle_flight(
    admission: &Mutex<LiveAdmission>,
    metrics: &LiveMetrics,
    slo: Duration,
    api: u32,
    key: u64,
    payload: Option<&str>,
    now: SimTime,
) {
    let followers = {
        let mut adm = crate::relock(admission);
        let Some(front) = adm.front.as_mut() else {
            return;
        };
        match payload {
            Some(p) => front
                .door
                .complete_flight(ApiId(api), key, Arc::from(p), now),
            None => front.door.fail_flight(ApiId(api), key),
        }
        front.followers.remove(&(api, key)).unwrap_or_default()
    };
    for f in followers {
        if payload.is_some() {
            let latency = f.accepted.elapsed();
            metrics.on_complete(api as usize, latency, slo);
            f.reply.send(f.id, Some(latency));
        } else {
            metrics.on_failed(api as usize);
            f.reply.send(f.id, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::front::PriorityConfig;
    use cluster::{ApiSpec, CallNode, ServiceSpec};
    use simnet::SimDuration;

    fn topo() -> Topology {
        let mut t = Topology::default();
        let s = t.add_service(ServiceSpec::new("svc", 1));
        t.add_api(ApiSpec::single(
            "ping",
            CallNode::leaf(s, SimDuration::from_micros(50)),
        ));
        t
    }

    #[test]
    fn user_level_is_deterministic_and_within_the_gate_axis() {
        let front = LiveFront::new(
            FrontConfig {
                coalesce: None,
                priority: Some(PriorityConfig::default()),
            },
            &topo(),
        );
        let levels = PriorityConfig::default().user_levels;
        let mut seen = std::collections::HashSet::new();
        for id in 0..2048u64 {
            let u = front.user_level(id);
            assert_eq!(u, front.user_level(id), "stable per id");
            assert!(u32::from(u) < levels);
            seen.insert(u);
        }
        assert!(
            seen.len() > levels as usize / 2,
            "hash covers the user axis, got {} of {levels}",
            seen.len()
        );
    }

    /// The level is the same function of the id it always was — the
    /// constants below were read off the parent commit: a few ids' levels,
    /// and an FNV-1a fold of the shed/proceed verdicts of ids `0..4096` at
    /// business tier 7 while overloaded ticks walk the gate down (1 177
    /// of them shed) — but only a gate makes the door hash for it.
    #[test]
    fn levels_are_hashed_only_for_a_gate_and_then_as_before() {
        let ids = [0, 1, 7, 64, 1_234_567_890_123, (1 << 62) | 1, u64::MAX];
        let coalesce = Some(cluster::front::CoalesceConfig::default());
        let mut gated = LiveFront::new(
            FrontConfig {
                coalesce,
                priority: Some(PriorityConfig::default()),
            },
            &topo(),
        );
        assert_eq!(
            ids.map(|id| gated.user_level(id)),
            [50, 41, 23, 116, 107, 41, 11]
        );
        let (mut h, mut shed) = (0xcbf2_9ce4_8422_2325u64, 0);
        for id in 0..4096u64 {
            if id % 256 == 255 {
                gated.door.tick(true);
            }
            let user = gated.user_level(id);
            let pre = gated
                .door
                .pre_admit(ApiId(0), None, 7, user, SimTime::from_secs(1));
            let is_shed = matches!(pre, cluster::front::PreVerdict::Shed { .. });
            shed += u64::from(is_shed);
            h = (h ^ u64::from(is_shed)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!((h, shed), (0x931e_a6bf_487b_b7c8, 1177));

        let ungated = LiveFront::new(
            FrontConfig {
                coalesce,
                priority: None,
            },
            &topo(),
        );
        assert_eq!(ids.map(|id| ungated.user_level(id)), [0; 7]);
    }
}
