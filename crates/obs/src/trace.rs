//! Causal request traces: which pipeline stage admitted, shed, or
//! served a request, and when.
//!
//! A client opts a request into tracing by appending a trace id to the
//! wire line (`REQ <id> <api> [key|-] [trace]`). The gateway threads
//! that [`TraceCtx`] through the front-door stage, the priority gate,
//! the token bucket, the worker pool, and the reply write; each stage
//! appends one [`TraceEvent`] to a bounded [`TraceLog`]. Events carry
//! wall/sim seconds since process start plus a duration, so `topfull
//! trace` can render a per-request waterfall, and the completion
//! histogram links its latency buckets back to sampled trace ids via
//! exemplars (`registry::Histogram::record_with_exemplar`).
//!
//! Tracing is sampling-based by design: untraced requests pay zero cost
//! (one `Option` check), traced ones one short mutex push per stage.

use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// The per-request trace context carried through the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    pub id: u64,
}

/// One stage's record for one traced request.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Trace id from the wire.
    pub trace: u64,
    /// The request id the client chose (`REQ <id> …`).
    pub request: u64,
    /// API index.
    pub api: u32,
    /// Gateway shard that handled the request (0 when unsharded). Every
    /// shard's clients mint the same ids: `(shard, trace)` names one
    /// request.
    pub shard: u32,
    /// Pipeline stage: `front_door`, `priority_gate`, `token_bucket`,
    /// `worker`, `reply`.
    pub stage: String,
    /// What the stage did: `admitted`, `cache_hit`, `follower`, `shed`,
    /// `rejected`, `served`, `error`, `sent`.
    pub outcome: String,
    /// Seconds since the trace log's epoch when the stage began.
    pub at: f64,
    /// Seconds the stage took (0 for instantaneous verdicts).
    pub dur: f64,
}

/// Default bound on retained events.
const DEFAULT_CAP: usize = 8192;

/// Bounded ring of trace events. Oldest events are evicted first, so a
/// long-running gateway always serves the freshest traces.
pub struct TraceLog {
    state: Mutex<TraceState>,
}

struct TraceState {
    events: std::collections::VecDeque<TraceEvent>,
    cap: usize,
    evicted: u64,
}

impl Default for TraceLog {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceLog {
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAP)
    }

    pub fn with_capacity(cap: usize) -> Self {
        TraceLog {
            state: Mutex::new(TraceState {
                events: std::collections::VecDeque::new(),
                cap: cap.max(1),
                evicted: 0,
            }),
        }
    }

    pub fn push(&self, ev: TraceEvent) {
        let mut st = self.state.lock().expect("trace lock");
        if st.events.len() >= st.cap {
            st.events.pop_front();
            st.evicted += 1;
        }
        st.events.push_back(ev);
    }

    pub fn len(&self) -> usize {
        self.state.lock().expect("trace lock").events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by the bound so far.
    pub fn evicted(&self) -> u64 {
        self.state.lock().expect("trace lock").evicted
    }

    /// All retained events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.state
            .lock()
            .expect("trace lock")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Events of one trace id, oldest first.
    pub fn by_id(&self, trace: u64) -> Vec<TraceEvent> {
        self.state
            .lock()
            .expect("trace lock")
            .events
            .iter()
            .filter(|e| e.trace == trace)
            .cloned()
            .collect()
    }

    /// JSONL rendering, one event per line in field order (the `/trace`
    /// endpoint body).
    pub fn to_jsonl(&self, filter: Option<u64>) -> String {
        let st = self.state.lock().expect("trace lock");
        let mut out = String::new();
        for e in st.events.iter() {
            if filter.is_none() || filter == Some(e.trace) {
                out.push_str(&serde_json::to_string(e).expect("trace events serialize"));
                out.push('\n');
            }
        }
        out
    }
}

/// Render the events of one or more traces as a per-request waterfall.
/// Events must already be filtered/ordered as desired; the renderer
/// groups by `(shard, trace)` in first-seen order.
pub fn render_waterfall(events: &[TraceEvent]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    if events.is_empty() {
        out.push_str("no trace events\n");
        return out;
    }
    let mut ids: Vec<(u32, u64)> = Vec::new();
    for e in events {
        if !ids.contains(&(e.shard, e.trace)) {
            ids.push((e.shard, e.trace));
        }
    }
    const BAR: usize = 40;
    for (shard, id) in ids {
        let evs: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| (e.shard, e.trace) == (shard, id))
            .collect();
        let t0 = evs.iter().map(|e| e.at).fold(f64::INFINITY, f64::min);
        let t1 = evs
            .iter()
            .map(|e| e.at + e.dur)
            .fold(f64::NEG_INFINITY, f64::max);
        let span = (t1 - t0).max(1e-9);
        let _ = writeln!(
            out,
            "trace {id} — request {} api {} shard {shard} ({:.3} ms end to end)",
            evs[0].request,
            evs[0].api,
            span * 1e3
        );
        for e in &evs {
            let start = (((e.at - t0) / span) * BAR as f64).floor() as usize;
            let width = (((e.dur / span) * BAR as f64).ceil() as usize).max(1);
            let start = start.min(BAR - 1);
            let width = width.min(BAR - start);
            let mut bar = String::with_capacity(BAR);
            bar.push_str(&".".repeat(start));
            bar.push_str(&"█".repeat(width));
            bar.push_str(&".".repeat(BAR - start - width));
            let _ = writeln!(
                out,
                "  {:<14} {:<9} [{bar}] +{:>9.3}ms {:>9.3}ms",
                e.stage,
                e.outcome,
                (e.at - t0) * 1e3,
                e.dur * 1e3
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trace: u64, stage: &str, outcome: &str, at: f64, dur: f64) -> TraceEvent {
        TraceEvent {
            trace,
            request: trace * 10,
            api: 0,
            shard: 0,
            stage: stage.into(),
            outcome: outcome.into(),
            at,
            dur,
        }
    }

    #[test]
    fn log_is_bounded_and_filters_by_id() {
        let log = TraceLog::with_capacity(4);
        for i in 0..10u64 {
            log.push(ev(i % 2, "front_door", "admitted", i as f64, 0.0));
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.evicted(), 6);
        let zeros = log.by_id(0);
        assert!(zeros.iter().all(|e| e.trace == 0));
        // The freshest events survive, not the oldest.
        assert!(log.snapshot().iter().all(|e| e.at >= 6.0));
    }

    #[test]
    fn jsonl_is_one_parseable_object_per_line() {
        let log = TraceLog::new();
        log.push(ev(7, "token_bucket", "admitted", 0.5, 0.0));
        log.push(ev(9, "worker", "served", 0.6, 0.002));
        let all = log.to_jsonl(None);
        let back: Vec<TraceEvent> = all
            .lines()
            .map(|line| serde_json::from_str(line).expect("valid json"))
            .collect();
        assert_eq!(back, log.snapshot());
        let only7 = log.to_jsonl(Some(7));
        assert_eq!(only7.lines().count(), 1);
        assert!(only7.contains("\"trace\":7"));
    }

    #[test]
    fn waterfall_orders_stages_and_scales_bars() {
        let events = vec![
            ev(3, "front_door", "admitted", 0.000, 0.0),
            ev(3, "token_bucket", "admitted", 0.0001, 0.0),
            ev(3, "worker", "served", 0.001, 0.004),
            ev(3, "reply", "sent", 0.005, 0.0),
        ];
        let text = render_waterfall(&events);
        assert!(text.contains("trace 3"), "{text}");
        let fd = text.find("front_door").expect("front door row");
        let wk = text.find("worker").expect("worker row");
        let rp = text.find("reply").expect("reply row");
        assert!(fd < wk && wk < rp, "rows in causal order:\n{text}");
        assert!(text.contains("█"), "bars render");
    }

    #[test]
    fn one_trace_id_on_two_shards_renders_two_blocks() {
        let mut other = ev(3, "token_bucket", "admitted", 0.0, 0.0);
        other.shard = 1;
        let events = [ev(3, "token_bucket", "admitted", 0.0, 0.0), other];
        let text = render_waterfall(&events);
        assert_eq!(text.matches("trace 3 ").count(), 2, "{text}");
        assert!(
            text.contains("shard 0") && text.contains("shard 1"),
            "{text}"
        );
    }

    #[test]
    fn empty_waterfall_says_so() {
        assert_eq!(render_waterfall(&[]), "no trace events\n");
    }
}
