//! Metrics registry: typed instrument handles plus Prometheus rendering.
//!
//! Handles are created *detached* (`Counter::unregistered()`) so hot-path
//! owners (the resilience plane, the fault plane, the live gateway) can
//! construct their counters at build time and a registry can adopt them
//! later — construction never depends on a registry existing, which keeps
//! unit tests of those planes free of telemetry scaffolding.

use simnet::{LatencyHistogram, SimDuration};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Monotone event counter. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A live counter not (yet) attached to any registry.
    pub fn unregistered() -> Self {
        Counter::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous value (f64 bits in an atomic). Cloning shares the cell.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// A live gauge not (yet) attached to any registry.
    pub fn unregistered() -> Self {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `d` (may be negative). Lock-free CAS loop; contention on a
    /// gauge is rare (queue-depth style signals).
    pub fn add(&self, d: f64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + d).to_bits())
            });
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Shared log-linear latency histogram (reuses [`LatencyHistogram`]'s
/// geometric buckets, default 5% relative error). Recording takes a
/// short uncontended mutex — no allocation beyond the occasional bucket
/// vector growth.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<Mutex<HistCell>>);

/// Most recent exemplars retained per histogram; enough that every
/// occupied latency bucket usually keeps a representative.
const EXEMPLAR_CAP: usize = 16;

#[derive(Debug)]
struct HistCell {
    hist: LatencyHistogram,
    /// Exact sum of all recorded durations, for Prometheus `_sum`.
    sum_nanos: u128,
    /// Recent `(value_secs, trace_id)` exemplars, newest last.
    exemplars: Vec<(f64, u64)>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(Mutex::new(HistCell {
            hist: LatencyHistogram::new(),
            sum_nanos: 0,
            exemplars: Vec::new(),
        })))
    }
}

impl HistCell {
    fn keep_exemplar(&mut self, d: SimDuration, trace: u64) {
        if self.exemplars.len() >= EXEMPLAR_CAP {
            self.exemplars.remove(0);
        }
        self.exemplars.push((d.as_nanos() as f64 / 1e9, trace));
    }
}

impl Histogram {
    /// A live histogram not (yet) attached to any registry.
    pub fn unregistered() -> Self {
        Histogram::default()
    }

    /// A recorder that panicked mid-update leaves at worst one sample
    /// half-counted; every other thread keeps recording and scraping.
    fn cell(&self) -> MutexGuard<'_, HistCell> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn record(&self, d: SimDuration) {
        let mut cell = self.cell();
        cell.hist.record(d);
        cell.sum_nanos += u128::from(d.as_nanos());
    }

    /// Record `n` samples of the same value under one lock; `traces` are
    /// the trace ids of those among them that were traced, kept as
    /// exemplars exactly as [`Histogram::record_with_exemplar`] would.
    pub fn record_n(&self, d: SimDuration, n: u64, traces: &[u64]) {
        let mut cell = self.cell();
        cell.hist.record_n(d, n);
        cell.sum_nanos += u128::from(d.as_nanos()) * u128::from(n);
        for &id in traces {
            cell.keep_exemplar(d, id);
        }
    }

    /// The samples recorded since `mark` was last passed here, as a
    /// histogram of their own; `mark` advances to now. With one caller
    /// owning the mark, a cumulative histogram doubles as that caller's
    /// window — no second histogram on the recording path.
    pub fn take_window(&self, mark: &mut LatencyHistogram) -> LatencyHistogram {
        let cell = self.cell();
        let window = cell.hist.delta_since(mark);
        mark.clone_from(&cell.hist);
        window
    }

    /// Record a value observed while serving trace `trace`: the value
    /// lands in the histogram normally and, when a trace id is present,
    /// is kept as an exemplar so `/metrics` can link the latency bucket
    /// back to a concrete request (`… # {trace_id="…"} value`).
    pub fn record_with_exemplar(&self, d: SimDuration, trace: Option<u64>) {
        let mut cell = self.cell();
        cell.hist.record(d);
        cell.sum_nanos += u128::from(d.as_nanos());
        if let Some(id) = trace {
            cell.keep_exemplar(d, id);
        }
    }

    pub fn count(&self) -> u64 {
        self.cell().hist.count()
    }

    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        self.cell().hist.quantile(q)
    }

    /// `(cumulative le-bucket list in seconds, count, sum in seconds,
    /// recent exemplars)`.
    #[allow(clippy::type_complexity)]
    fn snapshot(&self) -> (Vec<(f64, u64)>, u64, f64, Vec<(f64, u64)>) {
        let cell = self.cell();
        let mut cum = 0u64;
        let buckets = cell
            .hist
            .buckets()
            .map(|(edge_ns, c)| {
                cum += c;
                (edge_ns / 1e9, cum)
            })
            .collect();
        (
            buckets,
            cell.hist.count(),
            cell.sum_nanos as f64 / 1e9,
            cell.exemplars.clone(),
        )
    }
}

/// Newest exemplar whose value falls in the bucket `(lo, hi]`, rendered
/// as an OpenMetrics exemplar suffix (empty when none match).
fn exemplar_suffix(exemplars: &[(f64, u64)], lo: f64, hi: f64) -> String {
    exemplars
        .iter()
        .rev()
        .find(|(v, _)| *v > lo && *v <= hi)
        .map(|(v, id)| format!(" # {{trace_id=\"{id}\"}} {}", fmt_f64(*v)))
        .unwrap_or_default()
}

enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Handle {
    fn type_name(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

struct Instrument {
    family: String,
    labels: Vec<(String, String)>,
    handle: Handle,
}

/// A set of registered instruments, renderable as Prometheus text.
///
/// Registration order is preserved (instruments of one family are
/// grouped under a single `# TYPE` header at the family's first
/// appearance), so exposition output is deterministic.
#[derive(Default)]
pub struct Registry {
    instruments: Mutex<Vec<Instrument>>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Create and register a counter in one step.
    pub fn counter(&self, family: &str, labels: &[(&str, &str)]) -> Counter {
        let c = Counter::unregistered();
        self.register_counter(family, labels, &c);
        c
    }

    /// Adopt an existing counter handle. Re-registering the same
    /// `(family, labels)` pair replaces the prior handle (idempotent for
    /// the common "rebuild and re-register" path).
    pub fn register_counter(&self, family: &str, labels: &[(&str, &str)], c: &Counter) {
        self.register(family, labels, Handle::Counter(c.clone()));
    }

    /// Create and register a gauge in one step.
    pub fn gauge(&self, family: &str, labels: &[(&str, &str)]) -> Gauge {
        let g = Gauge::unregistered();
        self.register_gauge(family, labels, &g);
        g
    }

    /// Adopt an existing gauge handle.
    pub fn register_gauge(&self, family: &str, labels: &[(&str, &str)], g: &Gauge) {
        self.register(family, labels, Handle::Gauge(g.clone()));
    }

    /// Create and register a histogram in one step.
    pub fn histogram(&self, family: &str, labels: &[(&str, &str)]) -> Histogram {
        let h = Histogram::unregistered();
        self.register_histogram(family, labels, &h);
        h
    }

    /// Adopt an existing histogram handle.
    pub fn register_histogram(&self, family: &str, labels: &[(&str, &str)], h: &Histogram) {
        self.register(family, labels, Handle::Histogram(h.clone()));
    }

    fn register(&self, family: &str, labels: &[(&str, &str)], handle: Handle) {
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut instruments = self.instruments.lock().expect("registry lock");
        if let Some(slot) = instruments
            .iter_mut()
            .find(|i| i.family == family && i.labels == labels)
        {
            slot.handle = handle;
        } else {
            instruments.push(Instrument {
                family: family.to_string(),
                labels,
                handle,
            });
        }
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        self.instruments.lock().expect("registry lock").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render every instrument in Prometheus text exposition format
    /// 0.0.4: `# TYPE` per family, `family{labels} value` samples, and
    /// cumulative `_bucket{le=…}` / `_count` / `_sum` for histograms
    /// (edges in seconds).
    pub fn render_prometheus(&self) -> String {
        let instruments = self.instruments.lock().expect("registry lock");
        let mut out = String::new();
        let mut typed: Vec<&str> = Vec::new();
        for inst in instruments.iter() {
            if !typed.contains(&inst.family.as_str()) {
                typed.push(&inst.family);
                out.push_str(&format!(
                    "# TYPE {} {}\n",
                    inst.family,
                    inst.handle.type_name()
                ));
            }
            match &inst.handle {
                Handle::Counter(c) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        inst.family,
                        label_block(&inst.labels, None),
                        c.get()
                    ));
                }
                Handle::Gauge(g) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        inst.family,
                        label_block(&inst.labels, None),
                        fmt_f64(g.get())
                    ));
                }
                Handle::Histogram(h) => {
                    let (buckets, count, sum, exemplars) = h.snapshot();
                    // The first bucket covers (-inf, le0] — a
                    // zero-valued record (e.g. a coalesce cache hit's
                    // zero latency) counts there, so its exemplar must
                    // attach there too.
                    let mut lo = f64::NEG_INFINITY;
                    for (le, cum) in &buckets {
                        out.push_str(&format!(
                            "{}_bucket{} {}{}\n",
                            inst.family,
                            label_block(&inst.labels, Some(&fmt_f64(*le))),
                            cum,
                            exemplar_suffix(&exemplars, lo, *le)
                        ));
                        lo = *le;
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}{}\n",
                        inst.family,
                        label_block(&inst.labels, Some("+Inf")),
                        count,
                        exemplar_suffix(&exemplars, lo, f64::INFINITY)
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        inst.family,
                        label_block(&inst.labels, None),
                        count
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        inst.family,
                        label_block(&inst.labels, None),
                        fmt_f64(sum)
                    ));
                }
            }
        }
        out
    }
}

/// `{k="v",…}` including the optional `le` pair; empty string when bare.
fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Prometheus sample values: finite shortest-roundtrip floats; non-finite
/// values render as their exposition spellings.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_cells_across_clones() {
        let c = Counter::unregistered();
        let c2 = c.clone();
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::unregistered();
        let g2 = g.clone();
        g.set(2.5);
        g2.add(-1.0);
        assert!((g.get() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn registry_renders_prometheus_text() {
        let r = Registry::new();
        let c = r.counter("topfull_requests_total", &[("api", "ping")]);
        c.add(7);
        let g = r.gauge("topfull_queue_depth", &[("service", "svc")]);
        g.set(3.0);
        let h = r.histogram("topfull_latency_seconds", &[("api", "ping")]);
        h.record(SimDuration::from_millis(5));
        h.record(SimDuration::from_millis(50));
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE topfull_requests_total counter"));
        assert!(text.contains("topfull_requests_total{api=\"ping\"} 7"));
        assert!(text.contains("# TYPE topfull_queue_depth gauge"));
        assert!(text.contains("topfull_queue_depth{service=\"svc\"} 3"));
        assert!(text.contains("# TYPE topfull_latency_seconds histogram"));
        assert!(text.contains("le=\"+Inf\"} 2"));
        assert!(text.contains("topfull_latency_seconds_count{api=\"ping\"} 2"));
        assert!(text.contains("topfull_latency_seconds_sum{api=\"ping\"} 0.055"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let r = Registry::new();
        let h = r.histogram("lat", &[]);
        for ms in [1u64, 1, 100] {
            h.record(SimDuration::from_millis(ms));
        }
        let text = r.render_prometheus();
        // Two occupied buckets → cumulative counts 2 then 3, then +Inf 3.
        let bucket_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("lat_bucket"))
            .collect();
        assert_eq!(bucket_lines.len(), 3);
        assert!(bucket_lines[0].ends_with(" 2"), "{}", bucket_lines[0]);
        assert!(bucket_lines[1].ends_with(" 3"), "{}", bucket_lines[1]);
        assert!(bucket_lines[2].contains("le=\"+Inf\"} 3"));
    }

    #[test]
    fn reregistration_replaces_the_handle() {
        let r = Registry::new();
        let a = r.counter("x_total", &[("k", "v")]);
        a.add(10);
        let b = Counter::unregistered();
        b.add(2);
        r.register_counter("x_total", &[("k", "v")], &b);
        assert_eq!(r.len(), 1);
        assert!(r.render_prometheus().contains("x_total{k=\"v\"} 2"));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter("c_total", &[("name", "a\"b\\c")]);
        let text = r.render_prometheus();
        assert!(text.contains("name=\"a\\\"b\\\\c\""), "{text}");
    }

    /// Exposition-format 0.0.4 escaping, case by case: `\` → `\\`,
    /// `"` → `\"`, newline → `\n`, and combinations thereof. Every
    /// rendered sample line must stay a *single* line.
    #[test]
    fn each_escape_case_renders_valid_single_line_text() {
        let cases: [(&str, &str); 5] = [
            ("quo\"te", "quo\\\"te"),
            ("back\\slash", "back\\\\slash"),
            ("new\nline", "new\\nline"),
            ("\\\"\n", "\\\\\\\"\\n"),
            ("plain", "plain"),
        ];
        for (raw, escaped) in cases {
            let r = Registry::new();
            r.counter("esc_total", &[("v", raw)]);
            let text = r.render_prometheus();
            let sample = text
                .lines()
                .find(|l| l.starts_with("esc_total"))
                .expect("sample line rendered");
            assert_eq!(
                sample,
                format!("esc_total{{v=\"{escaped}\"}} 0"),
                "raw label {raw:?}"
            );
            // A raw newline inside a label would split the sample line;
            // the full exposition must hold exactly TYPE + sample.
            assert_eq!(text.lines().count(), 2, "raw label {raw:?}: {text:?}");
        }
    }

    #[test]
    fn exemplars_attach_to_the_matching_bucket() {
        let r = Registry::new();
        let h = r.histogram("lat_seconds", &[("api", "ping")]);
        h.record_with_exemplar(SimDuration::from_millis(5), Some(42));
        h.record_with_exemplar(SimDuration::from_millis(500), Some(43));
        h.record_with_exemplar(SimDuration::from_millis(6), None);
        let text = r.render_prometheus();
        let with_42: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("# {trace_id=\"42\"}"))
            .collect();
        assert_eq!(with_42.len(), 1, "exactly one bucket carries 42: {text}");
        assert!(with_42[0].starts_with("lat_seconds_bucket{api=\"ping\",le="));
        assert!(with_42[0].contains("# {trace_id=\"42\"} 0.005"), "{text}");
        assert!(text.contains("# {trace_id=\"43\"} 0.5"), "{text}");
        // The untraced record produced no exemplar of its own.
        assert_eq!(text.matches("# {trace_id=").count(), 2, "{text}");
        // _count/_sum lines never carry exemplars.
        for l in text.lines() {
            if l.starts_with("lat_seconds_count") || l.starts_with("lat_seconds_sum") {
                assert!(!l.contains("trace_id"), "{l}");
            }
        }
    }

    #[test]
    fn zero_valued_exemplar_attaches_to_the_first_bucket() {
        // A zero-duration record (a coalesce cache hit's latency) counts
        // in the first bucket, so its exemplar must render there — the
        // first bucket's range is (-inf, le0], not (0, le0].
        let r = Registry::new();
        let h = r.histogram("zero_seconds", &[]);
        h.record_with_exemplar(SimDuration::ZERO, Some(7));
        let text = r.render_prometheus();
        let line = text
            .lines()
            .find(|l| l.contains("trace_id=\"7\""))
            .unwrap_or_else(|| panic!("zero exemplar dropped: {text}"));
        assert!(line.starts_with("zero_seconds_bucket{le="), "{line}");
    }

    #[test]
    fn record_n_matches_n_single_records() {
        let (batched, single) = (Histogram::unregistered(), Histogram::unregistered());
        let d = SimDuration::from_millis(4);
        batched.record_n(d, 5, &[8, 9]);
        batched.record_n(d, 0, &[]);
        for trace in [None, Some(8), None, Some(9), None] {
            single.record_with_exemplar(d, trace);
        }
        let r = Registry::new();
        r.register_histogram("h_seconds", &[], &batched);
        let batched_text = r.render_prometheus();
        r.register_histogram("h_seconds", &[], &single);
        assert_eq!(batched_text, r.render_prometheus());
        assert!(
            batched_text.contains("h_seconds_sum 0.02"),
            "{batched_text}"
        );
    }

    #[test]
    fn take_window_yields_only_samples_since_the_mark() {
        let h = Histogram::unregistered();
        let mut mark = LatencyHistogram::new();
        h.record(SimDuration::from_millis(900));
        assert_eq!(h.take_window(&mut mark).count(), 1);
        assert!(h.take_window(&mut mark).is_empty(), "mark advanced");
        h.record_n(SimDuration::from_millis(10), 4, &[]);
        let w = h.take_window(&mut mark);
        assert_eq!(w.count(), 4);
        assert!(w.quantile(0.99).unwrap() < SimDuration::from_millis(12));
        assert_eq!(h.count(), 5, "the cumulative histogram is never reset");
    }

    #[test]
    fn a_poisoned_histogram_keeps_recording_and_rendering() {
        let h = Histogram::unregistered();
        let held = h.clone();
        let _ = std::thread::spawn(move || {
            let _guard = held.0.lock().unwrap();
            panic!("recorder dies holding the histogram lock");
        })
        .join();
        h.record(SimDuration::from_millis(1));
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn exemplar_ring_keeps_the_newest() {
        let h = Histogram::unregistered();
        for i in 0..100u64 {
            h.record_with_exemplar(SimDuration::from_millis(10), Some(i));
        }
        let r = Registry::new();
        r.register_histogram("x_seconds", &[], &h);
        let text = r.render_prometheus();
        // The bucket's exemplar is the newest surviving trace id.
        assert!(text.contains("# {trace_id=\"99\"}"), "{text}");
        assert!(!text.contains("trace_id=\"0\""), "{text}");
    }
}
