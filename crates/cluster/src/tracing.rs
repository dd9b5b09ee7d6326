//! Distributed tracing collector: learn API execution paths from spans.
//!
//! In the paper, execution paths are not configuration — they are
//! *observed*: "API execution paths are collected through a distributed
//! tracing tool" (§4.1); "The execution paths for APIs are built from the
//! data gathered from the distributed tracing collector" (§5, via Istio).
//! This module reproduces that: every completed call emits a [`Span`],
//! and the collector maintains, per API, the set of services seen on its
//! requests within a sliding window. The engine can export these
//! *learned* paths in the [`crate::observe::ClusterObservation`] instead
//! of the static topology union (see
//! [`crate::engine::EngineConfig::learn_paths`]), which is exactly what a
//! production TopFull deployment would consume.
//!
//! Learned paths handle branching APIs the way §4.2 prescribes: once
//! traffic has exercised a branch, its services join the API's path set
//! and stay there while traces keep arriving; paths through retired
//! branches age out after the collector's retention window.

use crate::types::{ApiId, ServiceId};
use simnet::{SimDuration, SimTime};
use std::collections::HashMap;

/// What the entry gateway decided about the request a span belongs to:
/// an `Admitted` span is real work on a service; a `RejectedAtEntry`
/// span is a zero-duration marker at the API's entry service recording
/// that the token bucket turned the request away.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpanVerdict {
    /// The request passed the entry rate limiter; the span is real work.
    #[default]
    Admitted,
    /// The request was rejected at the entry token bucket; the span is a
    /// zero-duration marker and must not teach the path learner.
    RejectedAtEntry,
}

/// One completed call, as a tracing backend would record it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub request: u64,
    pub api: ApiId,
    pub service: ServiceId,
    /// The service that issued this call (`None` at the entry).
    pub parent: Option<ServiceId>,
    pub start: SimTime,
    pub end: SimTime,
    /// The entry gateway's admission decision for the owning request.
    pub verdict: SpanVerdict,
}

impl Span {
    /// Service-side duration of the call.
    pub fn duration(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }
}

/// Sliding-window path learner.
#[derive(Clone, Debug)]
pub struct TraceCollector {
    /// `last_seen[api][service]` = end time of the latest span.
    last_seen: Vec<HashMap<ServiceId, SimTime>>,
    /// How long a service stays on a path without fresh spans.
    window: SimDuration,
    /// Spans recorded with [`SpanVerdict::RejectedAtEntry`].
    rejected_recorded: u64,
    /// Optional bounded buffer of raw spans for inspection/debugging.
    keep_raw: usize,
    raw: std::collections::VecDeque<Span>,
}

impl TraceCollector {
    /// A collector for `num_apis` APIs with the given retention window.
    pub fn new(num_apis: usize, window: SimDuration) -> Self {
        assert!(!window.is_zero(), "retention window must be positive");
        TraceCollector {
            last_seen: vec![HashMap::new(); num_apis],
            window,
            rejected_recorded: 0,
            keep_raw: 0,
            raw: std::collections::VecDeque::new(),
        }
    }

    /// Builder: also retain the most recent `n` raw spans.
    pub fn with_raw_buffer(mut self, n: usize) -> Self {
        self.keep_raw = n;
        self
    }

    /// Spans recorded with [`SpanVerdict::RejectedAtEntry`].
    pub fn rejected_recorded(&self) -> u64 {
        self.rejected_recorded
    }

    /// Record one completed call. Entry-rejected spans are counted and
    /// kept in the raw buffer, but do not teach the path learner: a
    /// request that never entered the cluster exercised no services.
    pub fn record(&mut self, span: Span) {
        match span.verdict {
            SpanVerdict::Admitted => {
                self.last_seen[span.api.idx()].insert(span.service, span.end);
            }
            SpanVerdict::RejectedAtEntry => self.rejected_recorded += 1,
        }
        if self.keep_raw > 0 {
            if self.raw.len() == self.keep_raw {
                self.raw.pop_front();
            }
            self.raw.push_back(span);
        }
    }

    /// The most recent raw spans (empty unless `with_raw_buffer`).
    pub fn raw_spans(&self) -> impl Iterator<Item = &Span> {
        self.raw.iter()
    }

    /// The learned path of one API at time `now`: services with a span
    /// newer than the retention window, ascending by id.
    pub fn learned_path(&self, api: ApiId, now: SimTime) -> Vec<ServiceId> {
        let horizon = now - self.window;
        let mut out: Vec<ServiceId> = self.last_seen[api.idx()]
            .iter()
            .filter(|(_, seen)| **seen >= horizon)
            .map(|(svc, _)| *svc)
            .collect();
        out.sort();
        out
    }

    /// Learned paths for every API (the `api_paths` of an observation).
    pub fn learned_paths(&self, now: SimTime) -> Vec<Vec<ServiceId>> {
        (0..self.last_seen.len())
            .map(|i| self.learned_path(ApiId(i as u32), now))
            .collect()
    }

    /// Drop expired entries (bounds memory on long runs).
    pub fn compact(&mut self, now: SimTime) {
        let horizon = now - self.window;
        for m in self.last_seen.iter_mut() {
            m.retain(|_, seen| *seen >= horizon);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(api: u32, svc: u32, end_s: u64) -> Span {
        Span {
            request: 0,
            api: ApiId(api),
            service: ServiceId(svc),
            parent: None,
            start: SimTime::from_secs(end_s.saturating_sub(1)),
            end: SimTime::from_secs(end_s),
            verdict: SpanVerdict::Admitted,
        }
    }

    #[test]
    fn learns_paths_from_spans() {
        let mut c = TraceCollector::new(2, SimDuration::from_secs(60));
        c.record(span(0, 3, 1));
        c.record(span(0, 1, 2));
        c.record(span(1, 2, 2));
        assert_eq!(
            c.learned_path(ApiId(0), SimTime::from_secs(5)),
            vec![ServiceId(1), ServiceId(3)]
        );
        assert_eq!(
            c.learned_path(ApiId(1), SimTime::from_secs(5)),
            vec![ServiceId(2)]
        );
    }

    #[test]
    fn paths_age_out_after_the_window() {
        let mut c = TraceCollector::new(1, SimDuration::from_secs(10));
        c.record(span(0, 7, 1));
        assert_eq!(
            c.learned_path(ApiId(0), SimTime::from_secs(5)).len(),
            1,
            "fresh span visible"
        );
        assert!(
            c.learned_path(ApiId(0), SimTime::from_secs(20)).is_empty(),
            "stale span aged out"
        );
        // Fresh traffic re-adds it.
        c.record(span(0, 7, 21));
        assert_eq!(c.learned_path(ApiId(0), SimTime::from_secs(25)).len(), 1);
    }

    #[test]
    fn compact_prunes_but_preserves_fresh() {
        let mut c = TraceCollector::new(1, SimDuration::from_secs(10));
        c.record(span(0, 1, 1));
        c.record(span(0, 2, 14));
        c.compact(SimTime::from_secs(15));
        assert_eq!(
            c.learned_path(ApiId(0), SimTime::from_secs(15)),
            vec![ServiceId(2)]
        );
    }

    #[test]
    fn raw_buffer_is_bounded() {
        let mut c = TraceCollector::new(1, SimDuration::from_secs(10)).with_raw_buffer(3);
        for i in 0..10 {
            c.record(span(0, i, 1));
        }
        assert_eq!(c.raw_spans().count(), 3);
        let last: Vec<u32> = c.raw_spans().map(|s| s.service.0).collect();
        assert_eq!(last, vec![7, 8, 9], "keeps the most recent spans");
    }

    #[test]
    fn compaction_bounds_memory_over_long_runs() {
        // Simulated hours of traffic rotating through a large service id
        // space: without compaction the learner would accumulate one
        // entry per distinct service ever seen; with per-window
        // compaction it holds only services fresh within the window.
        let window = SimDuration::from_secs(60);
        let mut c = TraceCollector::new(4, window).with_raw_buffer(16);
        let mut peak = 0usize;
        for tick in 0..(6 * 60 * 60u64) {
            let now = SimTime::from_secs(tick);
            // Each second, each API touches a service id that rotates
            // through a space far larger than the retention window.
            for api in 0..4u32 {
                c.record(Span {
                    request: tick,
                    api: ApiId(api),
                    service: ServiceId((tick % 10_000) as u32 + api),
                    parent: None,
                    start: now,
                    end: now,
                    verdict: SpanVerdict::Admitted,
                });
            }
            if tick % 60 == 0 {
                c.compact(now);
            }
            // The learner's only unbounded-in-principle state.
            peak = peak.max(c.last_seen.iter().map(HashMap::len).sum());
        }
        // 4 APIs × (60 s window + 60 s compact cadence slack) entries.
        assert!(
            peak <= 4 * 2 * (window.as_nanos() / 1_000_000_000) as usize + 8,
            "tracked entries stay bounded by the window, peak {peak}"
        );
        assert!(c.raw_spans().count() <= 16);
    }

    #[test]
    fn span_duration() {
        let s = span(0, 0, 5);
        assert_eq!(s.duration(), SimDuration::from_secs(1));
    }

    #[test]
    fn rejected_spans_do_not_teach_paths() {
        let mut c = TraceCollector::new(1, SimDuration::from_secs(60)).with_raw_buffer(8);
        let mut rej = span(0, 4, 1);
        rej.verdict = SpanVerdict::RejectedAtEntry;
        c.record(rej);
        assert!(
            c.learned_path(ApiId(0), SimTime::from_secs(2)).is_empty(),
            "a rejected request exercised no services"
        );
        assert_eq!(c.rejected_recorded(), 1);
        // Raw buffer still keeps it for inspection.
        assert_eq!(c.raw_spans().count(), 1);
        // An admitted span for the same service does teach the path.
        c.record(span(0, 4, 2));
        assert_eq!(
            c.learned_path(ApiId(0), SimTime::from_secs(3)),
            vec![ServiceId(4)]
        );
        assert_eq!(c.rejected_recorded(), 1);
    }
}
