//! Sharded multi-gateway control plane with partition-tolerant failover.
//!
//! Production front doors are replicated: N gateway shards admit traffic
//! for the same backend fleet, while one logical TopFull controller owns
//! the per-API limits. This module keeps the detector / clustering /
//! rate-control stack untouched and adds the distribution layer around
//! it:
//!
//! * **Aggregation** ([`merge_observations`]) — per-shard
//!   [`ClusterObservation`]s are merged into one controller view:
//!   arrival/goodput rates sum, utilization is pod-weighted, latency
//!   percentiles are completion-weighted (p99 takes the max — a tail is
//!   a max, not a mean).
//! * **Splitting** ([`split_limit`]) — each global per-API limit is
//!   divided across live shards proportionally to their observed
//!   arrival share, with a min-quantum floor so a cold shard can still
//!   probe, and per-shard caps used by re-entry ramps.
//! * **Membership** ([`ShardPlane`]) — a shard that misses
//!   `strike_out` consecutive reports is struck out and its quota is
//!   redistributed; when it reports again it re-enters with a ramped
//!   quota cap instead of an instant full share.
//! * **Local degradation** ([`ShardLocalGuard`]) — when the controller
//!   itself is unreachable, a shard holds its last-good limits for a
//!   TTL, then degrades to the PR 1 [`SafeRateController`] MIMD local
//!   fallback. The guard never fails open (an unlimited API gets a
//!   finite blind cap) and never fails closed (quotas are floored).
//!
//! * **The plane adapter** ([`Sharded`]) — the pieces above assembled
//!   into one sharded control step behind [`cluster::Plane`], over the
//!   simulator's virtual shards or real gateways alike.
//!
//! Every aggregation-set change, redistribution, ramp and fallback
//! transition is journaled, so a chaos run is explainable with
//! `topfull explain`.

mod sharded;

pub use sharded::{ShardSet, ShardWindow, Sharded, ShardedConfig, SimShards};

use crate::rate_controller::{MimdController, RateController, RateState, SafeRateController};
use cluster::observe::ClusterObservation;
use cluster::types::ApiId;
use obs::journal::jf;
use simnet::SimDuration;
use std::sync::Arc;

/// Tuning for the shard plane (splitter, membership, local fallback).
#[derive(Clone, Copy, Debug)]
pub struct ShardPlaneConfig {
    /// Every live shard's quota floor (requests/s): cold shards keep
    /// probing instead of starving.
    pub min_quantum: f64,
    /// Consecutive missed reports before a shard is struck out and its
    /// quota redistributed.
    pub strike_out: u32,
    /// Ticks the re-entry ramp lasts.
    pub reentry_ticks: u32,
    /// Ticks a shard holds last-good limits without a controller push
    /// before degrading to the local MIMD fallback.
    pub limit_ttl: u32,
}

/// Per-tick growth factor of a re-entering shard's quota cap.
pub const REENTRY_GROWTH: f64 = 1.25;
/// EWMA smoothing of per-shard arrival share.
const ARRIVAL_ALPHA: f64 = 0.3;
/// Cumulative growth cap of any quota while a shard is blind
/// (controller unreachable): never fail-open.
pub const BLIND_CAP: f64 = 1.5;
/// Headroom factor used to synthesize a finite blind cap for an API
/// that was unlimited when the controller vanished.
pub const BLIND_HEADROOM: f64 = 1.2;

impl Default for ShardPlaneConfig {
    fn default() -> Self {
        ShardPlaneConfig {
            min_quantum: 1.0,
            strike_out: 3,
            reentry_ticks: 5,
            limit_ttl: 5,
        }
    }
}

/// What the shard plane did over a run (for tests and reports).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct ShardPlaneStats {
    /// Shards struck out after missing `strike_out` reports.
    pub strike_outs: u64,
    /// Ramped re-entries after a struck-out shard reported again.
    pub reentries: u64,
    /// Split rounds run with a changed live set (redistributions).
    pub redistributions: u64,
    /// Observation merges handed to the controller.
    pub merges: u64,
}

/// Split `global` (requests/s; `INFINITY` = unlimited) across shards
/// proportionally to `arrivals`, subject to:
///
/// * dead shards (`!live[i]`) get exactly 0;
/// * every live shard gets at least `min_quantum`;
/// * optional per-shard `caps` bound individual quotas (re-entry ramps);
/// * the quotas sum to `max(global, n_live * min_quantum)` whenever the
///   caps leave enough room (exact conservation; the floor wins over
///   conservation when the global limit is smaller than the floors).
///
/// Pure function; the shard plane and the proptest invariants both call
/// it directly.
pub fn split_limit(
    global: f64,
    arrivals: &[f64],
    live: &[bool],
    min_quantum: f64,
    caps: Option<&[f64]>,
) -> Vec<f64> {
    let n = arrivals.len();
    assert_eq!(live.len(), n, "arrivals/live length mismatch");
    if let Some(c) = caps {
        assert_eq!(c.len(), n, "caps length mismatch");
    }
    let mut out = vec![0.0; n];
    let n_live = live.iter().filter(|l| **l).count();
    if n_live == 0 {
        return out;
    }
    let floor = min_quantum.max(0.0);
    let cap_of = |i: usize| -> f64 {
        let c = caps.map_or(f64::INFINITY, |c| c[i]);
        // A cap below the floor would starve the shard; the floor wins.
        c.max(floor)
    };
    if global.is_infinite() && global > 0.0 {
        for i in 0..n {
            if live[i] {
                out[i] = cap_of(i);
            }
        }
        return out;
    }
    let effective = global.max(0.0).max(n_live as f64 * floor);

    // Floors are granted up front; the remainder above the floors is
    // water-filled proportionally to arrival share, with per-shard caps
    // as upper bounds. Each round either finishes or pins at least one
    // shard at its cap, so the loop is bounded by the shard count.
    let mut excess = vec![0.0; n];
    let mut rem = effective - n_live as f64 * floor;
    let mut rounds = 0;
    while rem > 1e-9 && rounds <= n {
        rounds += 1;
        let free: Vec<usize> = (0..n)
            .filter(|&i| live[i] && excess[i] + 1e-12 < cap_of(i) - floor)
            .collect();
        if free.is_empty() {
            break; // every live shard is pinned at its cap
        }
        let wsum: f64 = free.iter().map(|&i| arrivals[i].max(0.0)).sum();
        let share = |i: usize| -> f64 {
            if wsum > 1e-12 {
                arrivals[i].max(0.0) / wsum
            } else {
                1.0 / free.len() as f64
            }
        };
        let mut next_rem = 0.0;
        let mut pinned_any = false;
        for &i in &free {
            let want = excess[i] + rem * share(i);
            let bound = cap_of(i) - floor;
            if want >= bound {
                next_rem += want - bound;
                excess[i] = bound;
                pinned_any = true;
            } else {
                excess[i] = want;
            }
        }
        rem = next_rem;
        if !pinned_any {
            rem = 0.0;
        }
    }
    for i in 0..n {
        if live[i] {
            out[i] = floor + excess[i];
        }
    }
    out
}

/// Merge per-shard observations into one controller view. Rates and
/// integer counters sum; utilization is pod-weighted; queuing delay is
/// weighted by started calls; p50/p95 are completion-weighted means and
/// p99 is the max over shards; a single unlimited shard makes the
/// merged rate limit unlimited.
pub fn merge_observations(views: &[&ClusterObservation]) -> ClusterObservation {
    assert!(!views.is_empty(), "cannot merge zero observations");
    let mut merged = views[0].clone();
    merged.now = views.iter().map(|v| v.now).max().expect("non-empty");
    merged.window = views.iter().map(|v| v.window).max().expect("non-empty");

    for (si, svc) in merged.services.iter_mut().enumerate() {
        let shard_svcs: Vec<_> = views.iter().map(|v| &v.services[si]).collect();
        svc.alive_pods = shard_svcs.iter().map(|s| s.alive_pods).sum();
        svc.desired_pods = shard_svcs.iter().map(|s| s.desired_pods).sum();
        svc.queue_len = shard_svcs.iter().map(|s| s.queue_len).sum();
        svc.started_calls = shard_svcs.iter().map(|s| s.started_calls).sum();
        svc.dropped_calls = shard_svcs.iter().map(|s| s.dropped_calls).sum();
        svc.utilization = weighted_mean(
            shard_svcs
                .iter()
                .map(|s| (s.utilization, f64::from(s.alive_pods))),
        );
        svc.mean_queuing_delay = SimDuration::from_secs_f64(
            weighted_mean(
                shard_svcs
                    .iter()
                    .map(|s| (s.mean_queuing_delay.as_secs_f64(), s.started_calls as f64)),
            )
            .max(0.0),
        );
    }

    for (ai, api) in merged.apis.iter_mut().enumerate() {
        let shard_apis: Vec<_> = views.iter().map(|v| &v.apis[ai]).collect();
        api.offered = shard_apis.iter().map(|a| a.offered).sum();
        api.admitted = shard_apis.iter().map(|a| a.admitted).sum();
        api.goodput = shard_apis.iter().map(|a| a.goodput).sum();
        api.slo_violated = shard_apis.iter().map(|a| a.slo_violated).sum();
        api.failed = shard_apis.iter().map(|a| a.failed).sum();
        api.rate_limit = shard_apis.iter().map(|a| a.rate_limit).sum();
        let completions = |a: &&&cluster::observe::ApiWindow| a.goodput + a.slo_violated;
        api.p50 = merge_percentile(shard_apis.iter().map(|a| (a.p50, completions(&a))));
        api.p95 = merge_percentile(shard_apis.iter().map(|a| (a.p95, completions(&a))));
        api.p99 = shard_apis.iter().filter_map(|a| a.p99).max();
    }

    let mut res = cluster::ResilienceStats::default();
    for v in views {
        res.add(&v.resilience);
    }
    merged.resilience = res;
    merged
}

/// Weighted mean falling back to the plain mean when all weights are 0.
fn weighted_mean(items: impl Iterator<Item = (f64, f64)> + Clone) -> f64 {
    let wsum: f64 = items.clone().map(|(_, w)| w.max(0.0)).sum();
    if wsum > 0.0 {
        items.map(|(x, w)| x * w.max(0.0) / wsum).sum()
    } else {
        let xs: Vec<f64> = items.map(|(x, _)| x).collect();
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    }
}

/// Completion-weighted mean of per-shard percentile estimates.
fn merge_percentile(
    items: impl Iterator<Item = (Option<SimDuration>, f64)> + Clone,
) -> Option<SimDuration> {
    let present: Vec<(f64, f64)> = items
        .filter_map(|(d, w)| d.map(|d| (d.as_secs_f64(), w)))
        .collect();
    if present.is_empty() {
        return None;
    }
    Some(SimDuration::from_secs_f64(
        weighted_mean(present.into_iter()).max(0.0),
    ))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Membership {
    Live,
    Dead,
    /// Ramping back in; the payload is the ticks left on the ramp.
    Reentering(u32),
}

struct ShardSlot {
    state: Membership,
    misses: u32,
    /// EWMA of per-API arrival rate observed at this shard.
    arrivals: Vec<f64>,
    /// Active quota cap while re-entering (`INFINITY` otherwise).
    quota_cap: f64,
}

/// Membership, arrival-share tracking, observation aggregation and
/// limit splitting for N gateway shards around one logical controller.
pub struct ShardPlane {
    cfg: ShardPlaneConfig,
    slots: Vec<ShardSlot>,
    journal: Option<Arc<obs::Journal>>,
    stats: ShardPlaneStats,
    last_reporting: Option<u32>,
    membership_changed: bool,
}

impl ShardPlane {
    pub fn new(shards: usize, cfg: ShardPlaneConfig) -> Self {
        ShardPlane {
            cfg,
            slots: (0..shards)
                .map(|_| ShardSlot {
                    state: Membership::Live,
                    misses: 0,
                    arrivals: Vec::new(),
                    quota_cap: f64::INFINITY,
                })
                .collect(),
            journal: None,
            stats: ShardPlaneStats::default(),
            last_reporting: None,
            membership_changed: false,
        }
    }

    pub fn attach_journal(&mut self, journal: Arc<obs::Journal>) {
        self.journal = Some(journal);
    }

    pub fn stats(&self) -> ShardPlaneStats {
        self.stats
    }

    pub fn shards(&self) -> usize {
        self.slots.len()
    }

    /// Shards currently eligible for quota (live or re-entering).
    pub fn live(&self) -> Vec<bool> {
        self.slots
            .iter()
            .map(|s| s.state != Membership::Dead)
            .collect()
    }

    /// Did the live set change since the last [`ShardPlane::end_tick`]?
    pub fn membership_changed(&self) -> bool {
        self.membership_changed
    }

    /// Is any shard on a re-entry ramp?
    pub fn any_ramping(&self) -> bool {
        self.slots
            .iter()
            .any(|s| matches!(s.state, Membership::Reentering(_)))
    }

    fn live_count(&self) -> u32 {
        self.slots
            .iter()
            .filter(|s| s.state != Membership::Dead)
            .count() as u32
    }

    fn record(&mut self, e: obs::JournalEntry) {
        if let Some(j) = &self.journal {
            j.record(e);
        }
    }

    /// Feed this tick's per-shard reports (`None` = nothing arrived),
    /// advance membership, and return the merged controller view.
    pub fn observe(
        &mut self,
        t: f64,
        reports: &[Option<&ClusterObservation>],
    ) -> Option<ClusterObservation> {
        assert_eq!(reports.len(), self.slots.len(), "one report slot per shard");
        for (i, r) in reports.iter().enumerate() {
            match r {
                Some(o) => self.note_report(t, i, o),
                None => self.note_miss(t, i),
            }
        }
        let present: Vec<&ClusterObservation> = reports.iter().flatten().copied().collect();
        if present.is_empty() {
            return None;
        }
        let merged = merge_observations(&present);
        let reporting = present.len() as u32;
        if self.last_reporting != Some(reporting) {
            self.record(obs::JournalEntry::ShardAggregate {
                t,
                reporting,
                total: self.slots.len() as u32,
                goodput: jf(merged.total_goodput()),
            });
            self.last_reporting = Some(reporting);
        }
        self.stats.merges += 1;
        Some(merged)
    }

    fn note_report(&mut self, t: f64, i: usize, o: &ClusterObservation) {
        let was_dead = self.slots[i].state == Membership::Dead;
        let slot = &mut self.slots[i];
        slot.misses = 0;
        if slot.arrivals.len() != o.apis.len() {
            slot.arrivals = o.apis.iter().map(|a| a.offered.max(0.0)).collect();
        } else {
            for (e, w) in slot.arrivals.iter_mut().zip(&o.apis) {
                let x = if w.offered.is_finite() {
                    w.offered.max(0.0)
                } else {
                    *e
                };
                *e = ARRIVAL_ALPHA * x + (1.0 - ARRIVAL_ALPHA) * *e;
            }
        }
        if was_dead {
            slot.state = Membership::Reentering(self.cfg.reentry_ticks.max(1));
            slot.quota_cap = self.cfg.min_quantum;
            self.stats.reentries += 1;
            self.membership_changed = true;
            let (live, total) = (self.live_count(), self.slots.len() as u32);
            self.record(obs::JournalEntry::ShardMembership {
                t,
                shard: i as u32,
                event: format!(
                    "reports resumed; re-entering with ramped quota over {} ticks",
                    self.cfg.reentry_ticks.max(1)
                ),
                live,
                total,
            });
        }
    }

    fn note_miss(&mut self, t: f64, i: usize) {
        if self.slots[i].state == Membership::Dead {
            return;
        }
        self.slots[i].misses = self.slots[i].misses.saturating_add(1);
        if self.slots[i].misses >= self.cfg.strike_out.max(1) {
            self.slots[i].state = Membership::Dead;
            self.slots[i].quota_cap = f64::INFINITY;
            self.stats.strike_outs += 1;
            self.membership_changed = true;
            let (live, total) = (self.live_count(), self.slots.len() as u32);
            self.record(obs::JournalEntry::ShardMembership {
                t,
                shard: i as u32,
                event: format!(
                    "struck out after {} missed reports; quota redistributed",
                    self.slots[i].misses
                ),
                live,
                total,
            });
        }
    }

    /// Split the global limit for `api` across live shards by arrival
    /// share, honoring re-entry quota caps. Journaled on
    /// redistributions and while any ramp is active.
    pub fn split(&mut self, t: f64, api: ApiId, global: f64) -> Vec<f64> {
        let live = self.live();
        let arrivals: Vec<f64> = self
            .slots
            .iter()
            .map(|s| s.arrivals.get(api.idx()).copied().unwrap_or(0.0))
            .collect();
        let caps: Vec<f64> = self.slots.iter().map(|s| s.quota_cap).collect();
        let quotas = split_limit(global, &arrivals, &live, self.cfg.min_quantum, Some(&caps));
        if self.membership_changed || self.any_ramping() {
            if self.membership_changed {
                self.stats.redistributions += 1;
            }
            let reason = if self.membership_changed {
                "redistribution: live set changed"
            } else {
                "re-entry ramp in progress"
            };
            let rendered = quotas
                .iter()
                .zip(&live)
                .map(|(q, l)| {
                    if !l {
                        "-".to_string()
                    } else if q.is_infinite() {
                        "inf".to_string()
                    } else {
                        format!("{q:.1}")
                    }
                })
                .collect::<Vec<_>>()
                .join("|");
            self.record(obs::JournalEntry::ShardSplit {
                t,
                api: api.0,
                global: jf(global),
                quotas: rendered,
                reason: reason.into(),
            });
        }
        quotas
    }

    /// End-of-tick bookkeeping: advance re-entry ramps and clear the
    /// membership-change flag.
    pub fn end_tick(&mut self, t: f64) {
        for i in 0..self.slots.len() {
            if let Membership::Reentering(left) = self.slots[i].state {
                if left <= 1 {
                    self.slots[i].state = Membership::Live;
                    self.slots[i].quota_cap = f64::INFINITY;
                    let (live, total) = (self.live_count(), self.slots.len() as u32);
                    self.record(obs::JournalEntry::ShardMembership {
                        t,
                        shard: i as u32,
                        event: "re-entry ramp complete; full quota share restored".into(),
                        live,
                        total,
                    });
                } else {
                    self.slots[i].state = Membership::Reentering(left - 1);
                    self.slots[i].quota_cap *= REENTRY_GROWTH;
                }
            }
        }
        self.membership_changed = false;
    }
}

/// What one shard's local guard did over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct GuardStats {
    /// Ticks spent holding last-good limits inside the TTL.
    pub held_ticks: u64,
    /// Ticks spent in the local MIMD fallback past the TTL.
    pub fallback_ticks: u64,
    /// Times the shard resynced with a returned controller.
    pub resyncs: u64,
}

/// Shard-local degradation ladder for controller loss: hold last-good
/// limits for `limit_ttl` ticks, then run the [`SafeRateController`]
/// MIMD fallback on the shard's own observation slice — bounded between
/// the min-quantum floor and a finite blind cap, so the shard never
/// fails open (unbounded admit) or closed (zero admit).
pub struct ShardLocalGuard {
    cfg: ShardPlaneConfig,
    shard: u32,
    fallback: SafeRateController,
    ticks_since_push: u32,
    in_fallback: bool,
    hold_logged: bool,
    /// Per-API cumulative ceiling while blind, snapshot at fallback
    /// entry.
    ceilings: Vec<f64>,
    stats: GuardStats,
    journal: Option<Arc<obs::Journal>>,
}

impl ShardLocalGuard {
    pub fn new(shard: u32, cfg: ShardPlaneConfig) -> Self {
        ShardLocalGuard {
            cfg,
            shard,
            fallback: SafeRateController::with_defaults(Arc::new(MimdController::paper_default())),
            ticks_since_push: 0,
            in_fallback: false,
            hold_logged: false,
            ceilings: Vec::new(),
            stats: GuardStats::default(),
            journal: None,
        }
    }

    pub fn attach_journal(&mut self, journal: Arc<obs::Journal>) {
        self.journal = Some(journal);
    }

    pub fn stats(&self) -> GuardStats {
        self.stats
    }

    fn record(&self, e: obs::JournalEntry) {
        if let Some(j) = &self.journal {
            j.record(e);
        }
    }

    /// The controller pushed fresh limits (or a heartbeat) this tick.
    pub fn on_push(&mut self, t: f64) {
        if self.in_fallback {
            self.in_fallback = false;
            self.stats.resyncs += 1;
            self.record(obs::JournalEntry::ShardFallback {
                t,
                shard: self.shard,
                phase: "resync".into(),
                detail: "controller contact restored; pushed limits resume".into(),
            });
        }
        self.ticks_since_push = 0;
        self.hold_logged = false;
        self.ceilings.clear();
    }

    /// One tick without a push. Mutates `quotas` (this shard's per-API
    /// limits) once the TTL expires. Returns `true` if it changed them.
    pub fn tick(&mut self, t: f64, local: &ClusterObservation, quotas: &mut [f64]) -> bool {
        self.ticks_since_push = self.ticks_since_push.saturating_add(1);
        if self.ticks_since_push <= self.cfg.limit_ttl {
            self.stats.held_ticks += 1;
            if !self.hold_logged {
                self.hold_logged = true;
                self.record(obs::JournalEntry::ShardFallback {
                    t,
                    shard: self.shard,
                    phase: "hold".into(),
                    detail: format!(
                        "no controller contact; holding last-good limits (ttl {} ticks)",
                        self.cfg.limit_ttl
                    ),
                });
            }
            return false;
        }
        if !self.in_fallback {
            self.in_fallback = true;
            // Snapshot the blind ceilings: a finite quota may grow at
            // most `BLIND_CAP`× while the controller is away, and an
            // unlimited API gets a finite cap from observed admits.
            self.ceilings = quotas
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    let base = if q.is_finite() {
                        q.max(self.cfg.min_quantum)
                    } else {
                        let admitted = local.apis.get(i).map(|a| a.admitted).unwrap_or(0.0);
                        let admitted = if admitted.is_finite() { admitted } else { 0.0 };
                        (admitted * BLIND_HEADROOM).max(self.cfg.min_quantum)
                    };
                    base * BLIND_CAP
                })
                .collect();
            self.record(obs::JournalEntry::ShardFallback {
                t,
                shard: self.shard,
                phase: "fallback".into(),
                detail: format!(
                    "ttl expired after {} silent ticks; local mimd fallback engaged",
                    self.ticks_since_push
                ),
            });
        }
        self.stats.fallback_ticks += 1;
        let slo = local.slo.as_secs_f64().max(1e-9);
        for (i, q) in quotas.iter_mut().enumerate() {
            let ceiling = self.ceilings.get(i).copied().unwrap_or(f64::INFINITY);
            let Some(api) = local.apis.get(i) else {
                continue;
            };
            // An unlimited API is blind-capped immediately: admitting
            // unbounded traffic with no controller is fail-open.
            let cur = if q.is_finite() {
                *q
            } else {
                ceiling / BLIND_CAP
            };
            let [goodput_ratio, latency_ratio] =
                rl::env::state(api.goodput, cur, api.tail_latency().as_secs_f64(), slo);
            let state = RateState {
                goodput_ratio,
                latency_ratio,
                total_limit: cur,
            };
            let action = self.fallback.decide(state).clamp(-0.5, 0.5);
            let next = (cur * (1.0 + action))
                .clamp(self.cfg.min_quantum, ceiling.max(self.cfg.min_quantum));
            *q = next;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::types::{BusinessPriority, ServiceId};
    use simnet::SimTime;

    pub(super) fn view(goodput: f64, offered: f64, pods: u32, util: f64) -> ClusterObservation {
        ClusterObservation {
            now: SimTime::from_secs(10),
            window: SimDuration::from_secs(1),
            services: vec![cluster::observe::ServiceWindow {
                service: ServiceId(0),
                name: "backend".into(),
                utilization: util,
                alive_pods: pods,
                desired_pods: pods,
                queue_len: 4,
                mean_queuing_delay: SimDuration::from_millis(5),
                started_calls: 50,
                dropped_calls: 0,
            }],
            apis: vec![cluster::observe::ApiWindow {
                api: ApiId(0),
                name: "get".into(),
                business: BusinessPriority(1),
                offered,
                admitted: offered * 0.8,
                goodput,
                slo_violated: 2.0,
                failed: 1.0,
                p50: Some(SimDuration::from_millis(20)),
                p95: Some(SimDuration::from_millis(50)),
                p99: Some(SimDuration::from_millis(80)),
                rate_limit: 100.0,
            }],
            api_paths: vec![vec![ServiceId(0)]],
            slo: SimDuration::from_millis(100),
            resilience: cluster::ResilienceStats::default(),
        }
    }

    #[test]
    fn split_is_proportional_with_floor() {
        let q = split_limit(100.0, &[80.0, 20.0, 0.0], &[true; 3], 1.0, None);
        assert!((q.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        assert!(q[0] > q[1], "arrival share orders quotas: {q:?}");
        assert!(q[2] >= 1.0, "cold shard keeps the min-quantum: {q:?}");
    }

    #[test]
    fn split_skips_dead_shards_and_conserves() {
        let q = split_limit(90.0, &[1.0, 1.0, 1.0], &[true, false, true], 1.0, None);
        assert_eq!(q[1], 0.0);
        assert!((q.iter().sum::<f64>() - 90.0).abs() < 1e-9);
        assert!((q[0] - 45.0).abs() < 1e-9);
    }

    #[test]
    fn split_floor_wins_over_tiny_globals() {
        let q = split_limit(0.5, &[1.0, 1.0], &[true, true], 1.0, None);
        assert!(q.iter().all(|x| *x >= 1.0), "{q:?}");
        assert!((q.iter().sum::<f64>() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn split_honors_reentry_caps() {
        let caps = [f64::INFINITY, 2.0, f64::INFINITY];
        let q = split_limit(120.0, &[1.0, 1.0, 1.0], &[true; 3], 1.0, Some(&caps));
        assert!(q[1] <= 2.0 + 1e-9, "capped shard: {q:?}");
        assert!((q.iter().sum::<f64>() - 120.0).abs() < 1e-9, "{q:?}");
    }

    #[test]
    fn split_unlimited_passes_caps_through() {
        let caps = [f64::INFINITY, 3.0];
        let q = split_limit(f64::INFINITY, &[1.0, 1.0], &[true, true], 1.0, Some(&caps));
        assert!(q[0].is_infinite());
        assert_eq!(q[1], 3.0);
    }

    #[test]
    fn merge_sums_rates_and_weights_utilization() {
        let a = view(100.0, 200.0, 3, 0.9);
        let b = view(50.0, 100.0, 1, 0.5);
        let m = merge_observations(&[&a, &b]);
        assert!((m.apis[0].goodput - 150.0).abs() < 1e-9);
        assert!((m.apis[0].offered - 300.0).abs() < 1e-9);
        assert_eq!(m.services[0].alive_pods, 4);
        // Pod-weighted utilization: (0.9*3 + 0.5*1) / 4 = 0.8.
        assert!((m.services[0].utilization - 0.8).abs() < 1e-9);
        // p99 is the max over shards.
        assert_eq!(m.apis[0].p99, Some(SimDuration::from_millis(80)));
        assert_eq!(m.apis[0].rate_limit, 200.0);
    }

    #[test]
    fn merge_of_identical_views_roundtrips() {
        let v = view(70.0, 140.0, 2, 0.7);
        let m = merge_observations(&[&v, &v, &v]);
        assert!((m.apis[0].goodput - 210.0).abs() < 1e-9);
        assert!((m.services[0].utilization - 0.7).abs() < 1e-9);
        assert_eq!(m.apis[0].p50, Some(SimDuration::from_millis(20)));
    }

    #[test]
    fn plane_strikes_out_and_reenters_with_ramp() {
        let cfg = ShardPlaneConfig {
            strike_out: 2,
            reentry_ticks: 3,
            ..ShardPlaneConfig::default()
        };
        let mut plane = ShardPlane::new(2, cfg);
        let j = obs::Journal::shared();
        plane.attach_journal(Arc::clone(&j));
        let v = view(50.0, 100.0, 2, 0.6);
        // Tick 1: both report.
        plane.observe(1.0, &[Some(&v), Some(&v)]);
        plane.end_tick(1.0);
        // Shard 1 goes dark for two ticks → struck out.
        plane.observe(2.0, &[Some(&v), None]);
        plane.end_tick(2.0);
        assert_eq!(plane.live(), vec![true, true]);
        plane.observe(3.0, &[Some(&v), None]);
        assert_eq!(plane.live(), vec![true, false]);
        assert!(plane.membership_changed());
        let q = plane.split(3.0, ApiId(0), 100.0);
        assert_eq!(q[1], 0.0, "dead shard gets nothing");
        assert!((q[0] - 100.0).abs() < 1e-9, "survivor absorbs the quota");
        plane.end_tick(3.0);
        // Shard 1 returns → ramped re-entry at the min-quantum.
        plane.observe(4.0, &[Some(&v), Some(&v)]);
        let q = plane.split(4.0, ApiId(0), 100.0);
        assert!(
            q[1] <= cfg.min_quantum + 1e-9,
            "ramp starts at min-quantum: {q:?}"
        );
        assert!((q.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        plane.end_tick(4.0);
        // Ramp cap grows each tick.
        plane.observe(5.0, &[Some(&v), Some(&v)]);
        let q2 = plane.split(5.0, ApiId(0), 100.0);
        assert!(q2[1] > q[1], "cap ramps up: {q:?} -> {q2:?}");
        let st = plane.stats();
        assert_eq!(st.strike_outs, 1);
        assert_eq!(st.reentries, 1);
        assert!(st.redistributions >= 2);
        // The transitions are journaled.
        let kinds: Vec<String> = j.snapshot().iter().map(|e| format!("{e:?}")).collect();
        assert!(kinds.iter().any(|k| k.contains("struck out")), "{kinds:?}");
        assert!(kinds.iter().any(|k| k.contains("re-entering")), "{kinds:?}");
    }

    #[test]
    fn guard_holds_then_falls_back_bounded() {
        let cfg = ShardPlaneConfig {
            limit_ttl: 2,
            ..ShardPlaneConfig::default()
        };
        let mut g = ShardLocalGuard::new(0, cfg);
        let v = view(50.0, 100.0, 2, 0.6);
        let mut quotas = vec![60.0];
        // Inside the TTL: held, unchanged.
        assert!(!g.tick(1.0, &v, &mut quotas));
        assert!(!g.tick(2.0, &v, &mut quotas));
        assert_eq!(quotas[0], 60.0);
        // Past the TTL: MIMD fallback moves the quota, bounded.
        for t in 3..40 {
            g.tick(t as f64, &v, &mut quotas);
            assert!(quotas[0].is_finite(), "never fail-open");
            assert!(quotas[0] >= cfg.min_quantum, "never zero-admit");
            assert!(
                quotas[0] <= 60.0 * BLIND_CAP + 1e-9,
                "blind growth capped: {}",
                quotas[0]
            );
        }
        let st = g.stats();
        assert_eq!(st.held_ticks, 2);
        assert!(st.fallback_ticks > 0);
        // Resync on push.
        g.on_push(40.0);
        assert_eq!(g.stats().resyncs, 1);
    }

    #[test]
    fn guard_blind_caps_unlimited_apis() {
        let cfg = ShardPlaneConfig {
            limit_ttl: 0,
            ..ShardPlaneConfig::default()
        };
        let mut g = ShardLocalGuard::new(0, cfg);
        let v = view(50.0, 100.0, 2, 0.6);
        let mut quotas = vec![f64::INFINITY];
        g.tick(1.0, &v, &mut quotas);
        assert!(
            quotas[0].is_finite() && quotas[0] >= cfg.min_quantum,
            "an unlimited API gets a finite blind cap, got {}",
            quotas[0]
        );
    }
}
