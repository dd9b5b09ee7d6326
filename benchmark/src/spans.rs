//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark's own code around each call into
//! a layer — nothing inside the program is instrumented. They stay in
//! memory (a pre-sized `Vec`) and are written to
//! `benchmark/out/trace-<workload>.jsonl` at exit. A span's *self time*
//! is its duration minus the part of it its children cover.

use std::io::Write;
use std::time::Instant;

/// Index of a recorded span; what children name as their parent.
pub type SpanId = u32;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    /// The round, simulated second or tick the span belongs to.
    unit: u64,
}

/// In-memory span log. `None`-like when disabled: every call is a
/// branch on `enabled` and nothing else, so an untraced run pays
/// nothing measurable.
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl SpanLog {
    /// A log holding at most `cap` spans (pre-allocated when enabled).
    pub fn new(enabled: bool, cap: usize) -> Self {
        SpanLog {
            enabled,
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { cap } else { 0 }),
            cap,
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off mid-run (the traced run measures a
    /// few untraced slices first, for the overhead figure).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on && self.cap > 0;
    }

    /// Record a finished span; returns its id for children to cite.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        unit: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            unit,
        });
        Some(self.spans.len() as SpanId - 1)
    }

    /// Reserve a parent's id before its children run; `finish` fills in
    /// the end.
    pub fn open(&mut self, name: &'static str, start: Instant, unit: u64) -> Option<SpanId> {
        self.record(name, start, start, None, unit)
    }

    pub fn finish(&mut self, id: Option<SpanId>, end: Instant) {
        if let Some(id) = id {
            let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    /// Mean self time (µs) of every span called `name`.
    pub fn mean_self_us(&self, name: &str) -> Option<f64> {
        let selfs = self.self_times();
        let (sum, n) = self
            .spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .fold((0u64, 0u64), |(sum, n), (_, t)| (sum + t, n + 1));
        (n > 0).then(|| sum as f64 / 1e3 / n as f64)
    }

    /// Mean duration (µs) of every span called `name`.
    pub fn mean_us(&self, name: &str) -> Option<f64> {
        let (sum, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(sum, n), s| {
                (sum + (s.end_ns - s.start_ns), n + 1)
            });
        (n > 0).then(|| sum as f64 / 1e3 / n as f64)
    }

    fn self_times(&self) -> Vec<u64> {
        let mut selfs: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let p = p as usize;
                selfs[p] = selfs[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        selfs
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let selfs = self.self_times();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"unit\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.unit
            )?;
        }
        if self.dropped > 0 {
            writeln!(w, "{{\"dropped_spans\":{}}}", self.dropped)?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new(true, 8);
        let t0 = Instant::now();
        let parent = log.open("parent", t0, 1);
        log.record("child", t0, t0 + Duration::from_micros(30), parent, 1);
        log.finish(parent, t0 + Duration::from_micros(100));
        assert_eq!(log.mean_us("parent"), Some(100.0));
        assert_eq!(log.mean_self_us("parent"), Some(70.0));
        assert_eq!(log.mean_self_us("child"), Some(30.0));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false, 8);
        let t0 = Instant::now();
        assert_eq!(log.open("x", t0, 0), None);
        assert_eq!(log.mean_us("x"), None);
    }
}
