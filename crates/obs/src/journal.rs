//! The controller decision journal.
//!
//! Every verdict the control system reaches — detector transitions,
//! re-clusterings, per-target rate actions (with the state that produced
//! them and a human-readable reason), §4.1 increase blocks, limit
//! releases, fallback strikes, watchdog transitions, and per-window plane
//! veto / fault-telemetry aggregates — is appended here. The journal is
//! bounded (overflow is counted, never reallocated past the cap) and all
//! writes happen on the control thread, so for a fixed (scenario, seed)
//! the JSONL rendering is byte-identical at any worker count.
//!
//! [`JournalEntry`] is the one read model. A rate decision, the entry a
//! tick records most, is kept typed — numbers, flags and shared names
//! ([`RateDecision`]) — and its text (the API list, the reason, the
//! blocks' reasons) is built by [`Journal::snapshot`], so the control
//! thread builds no string for it.

use serde::{Deserialize, Serialize};
use std::fmt::Write;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// One journal record. Internally tagged; `t` is sim/wall seconds since
/// run start.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum JournalEntry {
    /// A service crossed the overload detector's hysteresis band.
    Overload {
        t: f64,
        service: u32,
        name: String,
        utilization: f64,
        /// `true` = entered the overloaded set, `false` = cleared.
        entered: bool,
    },
    /// The API clustering changed (clusters form from scratch each tick;
    /// recorded only when the resulting partition differs).
    Recluster {
        t: f64,
        clusters: u32,
        /// `api,api|api` groups in cluster order.
        assignment: String,
    },
    /// One per-target rate decision (Algorithm 1 step).
    RateAction {
        t: f64,
        target: u32,
        target_name: String,
        /// APIs the step was applied to, comma-separated indices.
        apis: String,
        action: f64,
        goodput_ratio: f64,
        latency_ratio: f64,
        total_limit: f64,
        reason: String,
    },
    /// A candidate was excluded from a rate increase (§4.1 path rule).
    RateBlocked { t: f64, api: u32, reason: String },
    /// A long-standing headroom release removed an API's limit.
    Release { t: f64, api: u32, reason: String },
    /// The safe rate controller struck its primary.
    FallbackStrike {
        t: f64,
        strikes: u32,
        max_strikes: u32,
        tripped: bool,
    },
    /// Harness watchdog transition (engage / decay / reentry).
    Watchdog { t: f64, event: String },
    /// Per-window request-plane veto counts (only non-zero windows).
    PlaneVetoes {
        t: f64,
        resilience: u64,
        admission: u64,
        faults: u64,
    },
    /// Per-window degraded-telemetry counts from the fault plane.
    FaultTelemetry {
        t: f64,
        dropouts: u64,
        noisy: u64,
        stale: u64,
    },
    /// A gateway shard changed membership state in the sharded control
    /// plane (strike-out after missed reports, ramped re-entry, ramp
    /// completion).
    ShardMembership {
        t: f64,
        shard: u32,
        event: String,
        /// Shards currently eligible for quota (live + re-entering).
        live: u32,
        total: u32,
    },
    /// Per-shard observations were merged into one controller view;
    /// recorded only when the reporting set changes, not every tick.
    ShardAggregate {
        t: f64,
        reporting: u32,
        total: u32,
        goodput: f64,
    },
    /// A global per-API limit was split into per-shard quotas (recorded
    /// on redistribution and during re-entry ramps, not steady state).
    ShardSplit {
        t: f64,
        api: u32,
        /// Global limit being split; `-1` encodes "unlimited".
        global: f64,
        /// Per-shard quotas, `|`-separated in shard order (`-` = dead).
        quotas: String,
        reason: String,
    },
    /// A shard-local degradation transition: holding last-good limits
    /// past the push TTL, engaging the local MIMD fallback, or
    /// resyncing with the controller.
    ShardFallback {
        t: f64,
        shard: u32,
        phase: String,
        detail: String,
    },
    /// Per-window front-door admission aggregates: coalescing verdicts,
    /// priority sheds, and entry-limit rejections (only windows in
    /// which any counter moved).
    AdmissionWindow {
        t: f64,
        cache_hits: u64,
        follower_hits: u64,
        misses: u64,
        shed: u64,
        rate_limited: u64,
    },
    /// The front-door priority gate moved its admission threshold
    /// (every move is journaled, with the window that drove it).
    PriorityThreshold {
        t: f64,
        from: u32,
        to: u32,
        admitted: u64,
        shed: u64,
        reason: String,
    },
    /// An API crossed an SLO burn-rate severity boundary (`ok` ⇄
    /// `ticket` ⇄ `page`); recorded by the harness/live tick on every
    /// transition of `obs::slo::SloMonitor` (DESIGN.md §18).
    SloBurn {
        t: f64,
        api: u32,
        api_name: String,
        from: String,
        to: String,
        /// Burn rate over the fast pair's short window at transition.
        fast_burn: f64,
        /// Burn rate over the slow pair's short window at transition.
        slow_burn: f64,
        /// Run-scope error budget remaining (1 = untouched, <0 = blown).
        budget_remaining: f64,
    },
}

impl JournalEntry {
    /// The entry's timestamp (seconds since run start).
    pub fn at(&self) -> f64 {
        match self {
            JournalEntry::Overload { t, .. }
            | JournalEntry::Recluster { t, .. }
            | JournalEntry::RateAction { t, .. }
            | JournalEntry::RateBlocked { t, .. }
            | JournalEntry::Release { t, .. }
            | JournalEntry::FallbackStrike { t, .. }
            | JournalEntry::Watchdog { t, .. }
            | JournalEntry::PlaneVetoes { t, .. }
            | JournalEntry::FaultTelemetry { t, .. }
            | JournalEntry::ShardMembership { t, .. }
            | JournalEntry::ShardAggregate { t, .. }
            | JournalEntry::ShardSplit { t, .. }
            | JournalEntry::ShardFallback { t, .. }
            | JournalEntry::AdmissionWindow { t, .. }
            | JournalEntry::PriorityThreshold { t, .. }
            | JournalEntry::SloBurn { t, .. } => *t,
        }
    }
}

/// A rate decision as the control thread hands it over. The journal
/// renders it as [`JournalEntry::RateAction`] when read.
#[derive(Clone, Debug)]
pub struct RateDecision {
    pub t: f64,
    /// The target service's id, or a recovery probe's API id.
    pub target: u32,
    /// A recovery probe: its reason opens with `"recovery probe: "`.
    pub probe: bool,
    pub target_name: Arc<str>,
    /// The rate controller's name, which opens the reason.
    pub controller: Arc<str>,
    /// The step; a non-finite one was dropped, and the reason says so.
    pub action: f64,
    pub goodput_ratio: f64,
    pub latency_ratio: f64,
    pub total_limit: f64,
    /// The collapse backoff deepened the cut.
    pub escalated: bool,
    /// The state carried a non-finite value.
    pub degraded: bool,
    /// The controller routes degraded telemetry to a MIMD fallback.
    pub has_fallback: bool,
}

const BLOCKED: &str = "rate-increase blocked: path contains overloaded ";

/// Journal-safe float: the JSONL schema keeps NaN/∞ out of the wire
/// format (the reason string carries the degradation note instead).
pub fn jf(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        -1.0
    }
}

/// Append comma-joined ids (`"0,2"`).
pub fn push_id_list(out: &mut String, ids: impl IntoIterator<Item = u32>) {
    for (i, id) in ids.into_iter().enumerate() {
        let _ = write!(out, "{}{id}", if i > 0 { "," } else { "" });
    }
}

impl RateDecision {
    /// The decision's entry; `recipients` are the APIs its step landed on.
    fn render(&self, recipients: &[u32]) -> JournalEntry {
        let prefix = if self.probe { "recovery probe: " } else { "" };
        let action = self.action;
        let mut reason = format!("{prefix}{}", self.controller);
        if action.is_finite() {
            let _ = write!(reason, " action {action:+.3}");
        } else {
            reason.push_str(" action non-finite; step dropped");
        }
        if self.escalated {
            reason.push_str("; collapse backoff: admission collapsed, cut deepened");
        }
        if self.degraded {
            reason.push_str(if self.has_fallback {
                "; degraded telemetry routed to mimd fallback"
            } else {
                "; degraded telemetry"
            });
        }
        if recipients.is_empty() && action.is_finite() {
            reason.push_str(if action >= 0.0 {
                "; no eligible API to raise"
            } else {
                "; no contributing API to cut"
            });
        }
        // Up to three digits and a comma per API.
        let mut apis = String::with_capacity(4 * recipients.len());
        push_id_list(&mut apis, recipients.iter().copied());
        JournalEntry::RateAction {
            t: self.t,
            target: self.target,
            target_name: self.target_name.to_string(),
            apis,
            action: jf(action),
            goodput_ratio: jf(self.goodput_ratio),
            latency_ratio: jf(self.latency_ratio),
            total_limit: jf(self.total_limit),
            reason,
        }
    }
}

/// One retained entry, as recorded.
enum Item {
    Entry(JournalEntry),
    /// Its recipients are this range of the journal's arena.
    Decision(RateDecision, Range<usize>),
    /// A §4.1 increase block: the API, and the hot service on its path.
    Blocked {
        t: f64,
        api: u32,
        blocker: Arc<str>,
    },
}

/// Default bound on retained entries.
const DEFAULT_CAP: usize = 8192;

struct State {
    items: Vec<Item>,
    /// Every decision's recipient ids, back to back.
    recipients: Vec<u32>,
    dropped: u64,
    cap: usize,
}

impl State {
    /// Whether one more entry fits; one that does not is counted.
    fn admit(&mut self) -> bool {
        let room = self.items.len() < self.cap;
        if !room {
            self.dropped += 1;
        }
        room
    }
}

/// Bounded, shareable decision journal. Cheap to clone behind an [`Arc`];
/// recording takes one short mutex on the control thread (never on the
/// per-request hot path).
pub struct Journal {
    state: Mutex<State>,
}

impl Default for Journal {
    fn default() -> Self {
        Self::new()
    }
}

impl Journal {
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAP)
    }

    /// Journal retaining at most `cap` entries; further records are
    /// counted in [`Journal::dropped`] instead of growing memory.
    pub fn with_capacity(cap: usize) -> Self {
        Journal {
            state: Mutex::new(State {
                items: Vec::new(),
                recipients: Vec::new(),
                dropped: 0,
                cap: cap.max(1),
            }),
        }
    }

    /// Convenience: a fresh shared journal.
    pub fn shared() -> Arc<Journal> {
        Arc::new(Journal::new())
    }

    pub fn record(&self, entry: JournalEntry) {
        let mut st = self.state.lock().expect("journal lock");
        if st.admit() {
            st.items.push(Item::Entry(entry));
        }
    }

    /// One applied rate decision: a [`JournalEntry::RateBlocked`] per
    /// `(api, blocker)` it vetoed, then its [`JournalEntry::RateAction`]
    /// over `recipients`, under one lock, each entry counted against the
    /// cap in that order.
    pub fn record_decision(
        &self,
        blocked: &[(u32, Arc<str>)],
        d: RateDecision,
        recipients: impl IntoIterator<Item = u32>,
    ) {
        let mut st = self.state.lock().expect("journal lock");
        for (api, blocker) in blocked {
            if st.admit() {
                let (t, api, blocker) = (d.t, *api, Arc::clone(blocker));
                st.items.push(Item::Blocked { t, api, blocker });
            }
        }
        if st.admit() {
            let start = st.recipients.len();
            st.recipients.extend(recipients);
            let range = start..st.recipients.len();
            st.items.push(Item::Decision(d, range));
        }
    }

    pub fn len(&self) -> usize {
        self.state.lock().expect("journal lock").items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries rejected by the bound.
    pub fn dropped(&self) -> u64 {
        self.state.lock().expect("journal lock").dropped
    }

    /// The recorded entries, in append order, rate decisions rendered.
    pub fn snapshot(&self) -> Vec<JournalEntry> {
        let st = self.state.lock().expect("journal lock");
        st.items
            .iter()
            .map(|item| match item {
                Item::Entry(e) => e.clone(),
                Item::Decision(d, range) => d.render(&st.recipients[range.clone()]),
                Item::Blocked { t, api, blocker } => JournalEntry::RateBlocked {
                    t: *t,
                    api: *api,
                    reason: [BLOCKED, blocker].concat(),
                },
            })
            .collect()
    }
}

/// Render entries as JSONL (one deterministic JSON object per line,
/// field order fixed by declaration order).
pub fn to_jsonl(entries: &[JournalEntry]) -> String {
    let mut out = String::new();
    for e in entries {
        out.push_str(&serde_json::to_string(e).expect("journal entries serialize"));
        out.push('\n');
    }
    out
}

/// FNV-1a over a byte string — the fingerprint `tests/determinism.rs`
/// pins across worker counts.
pub fn journal_fingerprint(jsonl: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in jsonl.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_lists_are_comma_joined() {
        let mut list = String::new();
        push_id_list(&mut list, [0, 12, u32::MAX]);
        assert_eq!(list, "0,12,4294967295");
    }

    fn entry(t: f64) -> JournalEntry {
        JournalEntry::Overload {
            t,
            service: 3,
            name: "productcatalogservice".into(),
            utilization: 0.97,
            entered: true,
        }
    }

    #[test]
    fn entries_roundtrip_through_jsonl() {
        let entries = vec![
            entry(1.0),
            JournalEntry::RateAction {
                t: 2.0,
                target: 3,
                target_name: "svc".into(),
                apis: "0,2".into(),
                action: -0.05,
                goodput_ratio: 0.41,
                latency_ratio: 2.1,
                total_limit: 300.0,
                reason: "mimd action -0.050".into(),
            },
            JournalEntry::FallbackStrike {
                t: 3.0,
                strikes: 2,
                max_strikes: 3,
                tripped: false,
            },
            JournalEntry::ShardMembership {
                t: 4.0,
                shard: 1,
                event: "struck out after 3 missed reports".into(),
                live: 2,
                total: 3,
            },
            JournalEntry::ShardSplit {
                t: 5.0,
                api: 0,
                global: 120.0,
                quotas: "60.0|-|60.0".into(),
                reason: "redistribution: live set changed".into(),
            },
            JournalEntry::ShardFallback {
                t: 6.0,
                shard: 2,
                phase: "fallback".into(),
                detail: "ttl expired; local mimd engaged".into(),
            },
            JournalEntry::AdmissionWindow {
                t: 7.0,
                cache_hits: 120,
                follower_hits: 14,
                misses: 30,
                shed: 9,
                rate_limited: 4,
            },
            JournalEntry::PriorityThreshold {
                t: 8.0,
                from: 1024,
                to: 970,
                admitted: 5000,
                shed: 250,
                reason: "overload".into(),
            },
        ];
        let jsonl = to_jsonl(&entries);
        assert_eq!(jsonl.lines().count(), 8);
        let back: Vec<JournalEntry> = jsonl
            .lines()
            .map(|l| serde_json::from_str(l).expect("parse line"))
            .collect();
        assert_eq!(back, entries);
        assert!(jsonl.contains("\"kind\":\"fallback_strike\""), "{jsonl}");
    }

    #[test]
    fn journal_is_bounded_and_counts_drops() {
        let j = Journal::with_capacity(4);
        for i in 0..10 {
            j.record(entry(i as f64));
        }
        assert_eq!(j.len(), 4);
        assert_eq!(j.dropped(), 6);
        // The retained prefix is the oldest entries, in order.
        let snap = j.snapshot();
        assert_eq!(snap[0].at(), 0.0);
        assert_eq!(snap[3].at(), 3.0);
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let a = to_jsonl(&[entry(1.0)]);
        let b = to_jsonl(&[entry(1.0)]);
        let c = to_jsonl(&[entry(2.0)]);
        assert_eq!(journal_fingerprint(&a), journal_fingerprint(&b));
        assert_ne!(journal_fingerprint(&a), journal_fingerprint(&c));
        // FNV-1a of the empty string is the offset basis.
        assert_eq!(journal_fingerprint(""), 0xcbf2_9ce4_8422_2325);
    }
}

#[cfg(test)]
mod slo_entry_tests {
    use super::*;

    fn burn(t: f64, to: &str) -> JournalEntry {
        JournalEntry::SloBurn {
            t,
            api: 1,
            api_name: "checkout".into(),
            from: if to == "page" { "ok" } else { "page" }.into(),
            to: to.into(),
            fast_burn: 22.5,
            slow_burn: 8.1,
            budget_remaining: 0.4,
        }
    }

    #[test]
    fn slo_burn_roundtrips_and_tags_snake_case() {
        let e = burn(12.0, "page");
        let s = serde_json::to_string(&e).expect("serialize");
        assert!(s.contains("\"kind\":\"slo_burn\""), "{s}");
        let back: JournalEntry = serde_json::from_str(&s).expect("decode");
        assert_eq!(back, e);
        assert_eq!(back.at(), 12.0);
    }

    /// A pathological alert-flapping run (severity toggling every tick,
    /// far past the cap) must neither grow the journal past its bound
    /// nor corrupt the retained prefix.
    #[test]
    fn alert_flapping_stays_bounded() {
        let j = Journal::with_capacity(64);
        for i in 0..10_000u64 {
            let to = if i % 2 == 0 { "page" } else { "ok" };
            j.record(burn(i as f64, to));
        }
        assert_eq!(j.len(), 64);
        assert_eq!(j.dropped(), 10_000 - 64);
        let snap = j.snapshot();
        assert_eq!(snap[0].at(), 0.0);
        assert_eq!(snap[63].at(), 63.0);
        // The bounded snapshot still renders and fingerprints stably.
        let jsonl = to_jsonl(&snap);
        assert_eq!(journal_fingerprint(&jsonl), journal_fingerprint(&jsonl));
    }
}

#[cfg(test)]
mod admission_entry_tests {
    use super::*;

    /// `topfull explain` decodes run-artifact journals through the
    /// same derived `from_value`; both admission variants must survive
    /// the JSON round trip.
    #[test]
    fn admission_variants_roundtrip() {
        let entries = [
            JournalEntry::PriorityThreshold {
                t: 2.0,
                from: 3,
                to: 4,
                admitted: 10,
                shed: 2,
                reason: "overload".into(),
            },
            JournalEntry::AdmissionWindow {
                t: 3.0,
                cache_hits: 5,
                follower_hits: 1,
                misses: 7,
                shed: 0,
                rate_limited: 2,
            },
        ];
        for e in entries {
            let s = serde_json::to_string(&e).expect("serialize");
            let back: JournalEntry = serde_json::from_str(&s).expect("decode");
            assert_eq!(back, e);
        }
    }
}
