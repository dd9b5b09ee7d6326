//! What every workload shares: the clocks, the slice statistics, the
//! host record and the result lines.
//!
//! A run's end-to-end value is the **median over equal-work slices** of
//! the measured phase, never a whole-run mean: on a shared 2-vCPU host
//! a single descheduling moves a mean by percents and a slice median
//! not at all.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Nanoseconds of CPU the whole process and the calling thread have
/// used, as `(process, thread)`.
pub fn cpu_clocks() -> (u64, u64) {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    // Linux clock ids (`<time.h>`).
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let read = |clock: i32| -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` with the
        // x86-64/aarch64 Linux layout (two 64-bit fields), and both
        // clock ids are valid for the calling process and thread, so
        // the call only writes those 16 bytes.
        let rc = unsafe { clock_gettime(clock, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime({clock}) failed");
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    };
    (
        read(CLOCK_PROCESS_CPUTIME_ID),
        read(CLOCK_THREAD_CPUTIME_ID),
    )
}

/// Restrict the calling thread — and every thread it spawns from now
/// on — to one CPU; undone when the guard drops.
///
/// Every gated run is pinned: the workload's threads and the reference
/// kernel then share one CPU's fate, so whatever the host takes away (a
/// slower clock, a stolen time slice) it takes from all alike and the
/// reference kernel can divide it out. Spread over two vCPUs, a closed
/// loop stalls whenever *either* is descheduled and loses far more than
/// the reference kernel sees (`live.shed` under the same synthetic
/// contention: -34 % unpinned, -2 % pinned), and the control tick's
/// per-decision threads flip between running beside their parent and
/// being spread across vCPUs, which doubles the tick.
pub struct Pinned {
    original: [u64; 16],
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

impl Pinned {
    /// Pin to the lowest CPU this thread may run on. `None` when the
    /// kernel refuses; the run then goes on unpinned.
    pub fn to_first_cpu() -> Option<Pinned> {
        let mut original = [0u64; 16];
        // SAFETY: `original` is 128 writable bytes and the size passed is
        // exactly that; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, 128, original.as_mut_ptr()) };
        if rc != 0 {
            return None;
        }
        let (word, bits) = original.iter().enumerate().find(|(_, w)| **w != 0)?;
        let mut one = [0u64; 16];
        one[word] = 1 << bits.trailing_zeros();
        // SAFETY: `one` is 128 readable bytes, the size passed.
        let rc = unsafe { sched_setaffinity(0, 128, one.as_ptr()) };
        (rc == 0).then_some(Pinned { original })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // SAFETY: `self.original` is 128 readable bytes, the size passed.
        // A failure leaves the thread pinned, which is harmless here.
        let _ = unsafe { sched_setaffinity(0, 128, self.original.as_ptr()) };
    }
}

/// `VmHWM` (peak resident set) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `v` (sorts in place; the mean of the two middle values for
/// an even count). `NaN` for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// FNV-1a, folded incrementally; the fingerprint of every determinism
/// gate (the same function `obs::journal_fingerprint` applies to text).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Time `f` over `iters` calls and return nanoseconds per call.
pub fn ns_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// The reference kernel: a fixed piece of work, frozen in this file,
/// run in a short burst between slices.
///
/// This host's speed drifts by 10-20 % over seconds (other tenants of
/// the machine), and the drift is common to whatever code runs: a burst
/// next to a slice slows down by the same factor as the slice. Dividing
/// that factor out is what makes two runs of the same code agree. The
/// kernel touches 1 MB in 64 KB chunks (fill with a hash, sort), so it
/// is branchy and cache-resident like the code it stands in for.
pub struct Reference {
    buf: Vec<u32>,
    salt: u32,
    /// Wall and thread-CPU time of the previous burst: the one just
    /// before the slice that is about to close.
    prev: Option<(u64, u64)>,
}

/// How many times longer than nominal the reference bursts around a
/// piece of work took, on each clock.
#[derive(Clone, Copy, Debug)]
pub struct Slowdown {
    /// By the wall clock: a slower CPU *and* time the host took away.
    /// Divides throughput and latency.
    pub wall: f64,
    /// By the thread's CPU clock, which does not run while the thread is
    /// off the CPU. Divides CPU time, so stolen time is not taken out of
    /// a figure it never went into.
    pub cpu: f64,
}

/// What one burst takes on the reference host when nothing disturbs it.
/// Only ratios to it are ever used, so on another host every normalised
/// metric shifts by one constant factor.
pub const REFERENCE_NOMINAL_NS: f64 = 3_700_000.0;

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Allocates the buffer and runs the first burst.
    pub fn new() -> Self {
        let mut r = Reference {
            buf: vec![0u32; 1 << 18],
            salt: 0,
            prev: None,
        };
        r.burst();
        r
    }

    /// Run one burst; returns how many times longer than nominal the
    /// bursts on either side of the work since the previous burst took
    /// (their mean, so a linear drift across the work cancels).
    pub fn burst(&mut self) -> Slowdown {
        let cpu0 = cpu_clocks().1;
        let t0 = Instant::now();
        for chunk in self.buf.chunks_mut(1 << 14) {
            self.salt = self.salt.wrapping_add(1);
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (i as u32 ^ self.salt).wrapping_mul(2_654_435_761);
            }
            chunk.sort_unstable();
        }
        std::hint::black_box(&self.buf);
        let now = (t0.elapsed().as_nanos() as u64, cpu_clocks().1 - cpu0);
        let before = self.prev.replace(now).unwrap_or(now);
        Slowdown {
            wall: (before.0 + now.0) as f64 / 2.0 / REFERENCE_NOMINAL_NS,
            cpu: (before.1 + now.1) as f64 / 2.0 / REFERENCE_NOMINAL_NS,
        }
    }
}

/// One equal-work slice of a measured phase.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    pub ops: u64,
    pub wall_ns: u64,
    /// Process CPU minus the generator thread's CPU.
    pub server_cpu_ns: u64,
    pub gen_cpu_ns: u64,
    /// How much slower than nominal the host ran around this slice.
    pub slowdown: Slowdown,
}

/// Opens and closes slices: wall clock plus both CPU clocks, read on
/// the thread that generates the load.
pub struct SliceClock {
    wall: Instant,
    process_ns: u64,
    thread_ns: u64,
}

impl SliceClock {
    pub fn start() -> Self {
        let (process_ns, thread_ns) = cpu_clocks();
        SliceClock {
            wall: Instant::now(),
            process_ns,
            thread_ns,
        }
    }

    /// Close the slice over `ops` operations, then run the reference
    /// burst that follows it. `generator` says whether the calling
    /// thread only generates load (its CPU is then taken out of the
    /// process's) or is the system under test itself.
    pub fn close(self, ops: u64, generator: bool, reference: &mut Reference) -> Slice {
        let wall_ns = self.wall.elapsed().as_nanos() as u64;
        let (process_ns, thread_ns) = cpu_clocks();
        let gen_cpu_ns = if generator {
            thread_ns - self.thread_ns
        } else {
            0
        };
        Slice {
            ops,
            wall_ns,
            server_cpu_ns: (process_ns - self.process_ns).saturating_sub(gen_cpu_ns),
            gen_cpu_ns,
            slowdown: reference.burst(),
        }
    }
}

/// `(p50, p99)` of a set of latencies in ns; sorts `lat`.
pub fn percentiles(lat: &mut [u64]) -> (u64, u64) {
    lat.sort_unstable();
    (quantile_sorted(lat, 0.50), quantile_sorted(lat, 0.99))
}

/// The four measured end-to-end metrics, each a median over slices.
#[derive(Clone, Copy, Debug)]
pub struct SliceMedians {
    pub throughput_per_s: f64,
    pub cpu_us_per_op: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// A run's slices folded two ways.
#[derive(Clone, Copy, Debug)]
pub struct RunMedians {
    /// Each slice's values divided by the slowdown the reference kernel
    /// measured around it, then the median: what is reported and gated.
    pub normalised: SliceMedians,
    /// The same medians as the clock read them.
    pub raw: SliceMedians,
    pub slices: usize,
    /// Median wall-clock slowdown against the nominal host.
    pub slowdown: f64,
    /// Generator-thread CPU seconds per wall second over all slices.
    pub gen_cpu_share: f64,
}

/// Where a run's latency percentiles `(p50, p99)` (ns) come from.
pub enum Percentiles<'a> {
    /// One raw pair per slice, normalised by that slice's slowdown.
    PerSlice(&'a [(u64, u64)]),
    /// One pair over the whole measured phase, for a workload whose
    /// samples are long (milliseconds) and few per slice; it normalises
    /// each sample by its slice's wall-clock slowdown itself.
    WholePhase {
        raw: (u64, u64),
        normalised: (u64, u64),
    },
}

/// Fold slices and latency percentiles into run-level values.
pub fn slice_medians(slices: &[Slice], pcts: Percentiles) -> RunMedians {
    let fold = |normalise: bool| {
        let wall = |i: usize| {
            if normalise {
                slices[i].slowdown.wall
            } else {
                1.0
            }
        };
        let cpu = |i: usize| {
            if normalise {
                slices[i].slowdown.cpu
            } else {
                1.0
            }
        };
        let col =
            |f: &dyn Fn(usize) -> f64| median(&mut (0..slices.len()).map(f).collect::<Vec<_>>());
        // `by` picks the clock a per-slice percentile is normalised by.
        let pct = |f: &dyn Fn(&(u64, u64)) -> u64, by: &dyn Fn(usize) -> f64| match &pcts {
            Percentiles::PerSlice(p) => col(&|i| f(&p[i]) as f64 / 1e3 / by(i)),
            Percentiles::WholePhase { raw, normalised } => {
                f(if normalise { normalised } else { raw }) as f64 / 1e3
            }
        };
        SliceMedians {
            throughput_per_s: col(&|i| {
                slices[i].ops as f64 * 1e9 / slices[i].wall_ns as f64 * wall(i)
            }),
            cpu_us_per_op: col(&|i| {
                slices[i].server_cpu_ns as f64 / 1e3 / slices[i].ops as f64 / cpu(i)
            }),
            // Per-slice samples (a round, a tick) are far shorter than
            // the gaps between the time slices a busy host takes away,
            // so their median never sees one: it slows only as the CPU
            // does. Their tail is made of exactly those gaps.
            p50_us: pct(&|p| p.0, &cpu),
            p99_us: pct(&|p| p.1, &wall),
        }
    };
    let wall: u64 = slices.iter().map(|s| s.wall_ns).sum();
    let gen: u64 = slices.iter().map(|s| s.gen_cpu_ns).sum();
    RunMedians {
        normalised: fold(true),
        raw: fold(false),
        slices: slices.len(),
        slowdown: median(&mut slices.iter().map(|s| s.slowdown.wall).collect::<Vec<_>>()),
        gen_cpu_share: gen as f64 / wall.max(1) as f64,
    }
}

/// Throughput lost to span recording, in percent: the traced slices'
/// median against the untraced slices the same run measured first.
fn tracing_overhead_pct(traced: &RunMedians, untraced: &[Slice]) -> f64 {
    if untraced.is_empty() {
        return 0.0;
    }
    let throughput = |s: &Slice| s.ops as f64 * 1e9 / s.wall_ns as f64 * s.slowdown.wall;
    let base = median(&mut untraced.iter().map(throughput).collect::<Vec<_>>());
    100.0 * (1.0 - traced.normalised.throughput_per_s / base)
}

/// What only the workload a traced run was asked for reports: the cost
/// of the spans themselves, its (ungated) p99, and the span file.
pub fn finish_traced(
    out: &mut Outcome,
    workload: &str,
    traced: &RunMedians,
    untraced: &[Slice],
    spans: &crate::spans::SpanLog,
) {
    out.layer(
        "bench.tracing_overhead_pct",
        tracing_overhead_pct(traced, untraced),
        "%",
    );
    out.layer("e2e.p99_us", traced.normalised.p99_us, "us");
    let written = out_dir()
        .map(|d| d.join(format!("trace-{workload}.jsonl")))
        .and_then(|p| spans.write_jsonl(&p));
    out.gate(written.is_ok(), || {
        format!("{workload}: cannot write span file: {written:?}")
    });
}

/// Median wall time of `reps` cold repetitions of a set-up, in seconds,
/// each divided by the host's slowdown around it. `f` builds the thing
/// and hands it back so tear-down stays untimed. Returns
/// `(normalised, raw)`.
pub fn median_setup_s<T>(
    reps: usize,
    mut f: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (f64, f64) {
    let mut reference = Reference::new();
    let (mut normalised, mut raw) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for _ in 0..reps {
        reference.burst();
        let t0 = Instant::now();
        let built = f();
        let took = t0.elapsed().as_secs_f64();
        normalised.push(took / reference.burst().wall);
        raw.push(took);
        teardown(built);
    }
    (median(&mut normalised), median(&mut raw))
}

/// What a run was asked to do.
#[derive(Clone, Debug)]
pub struct RunSpec {
    pub workload: String,
    pub seed: u64,
    pub measure: Duration,
    pub trace: bool,
    /// Schema-and-gates mode: short phases, one set-up repetition, no
    /// minimum sample counts.
    pub quick: bool,
}

impl RunSpec {
    /// Cold repetitions of a millisecond-scale set-up; their median is
    /// `setup_s`.
    pub fn setup_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            21
        }
    }
}

/// A metric value with its unit, keyed by name; ordered for stable
/// output.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness gates that did not hold; any entry fails the run.
    pub gate_failures: Vec<String>,
    pub metrics: Metrics,
    /// Context printed with the result but not gated (slice counts,
    /// sample counts, generator share).
    pub notes: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(what());
        }
    }

    /// Record the end-to-end metrics (host-normalised) and, as notes,
    /// what the clock read before normalisation and the p99, which is
    /// reported but not gated (README.md, "Why p99 is not gated").
    pub fn end_to_end(&mut self, m: &RunMedians, setup_s: (f64, f64)) {
        let n = &m.normalised;
        for (name, value, unit) in [
            ("throughput_per_s", n.throughput_per_s, "1/s"),
            ("cpu_us_per_op", n.cpu_us_per_op, "us"),
            ("p50_us", n.p50_us, "us"),
            ("setup_s", setup_s.0, "s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ] {
            self.metrics.insert(name.into(), (value, unit));
        }
        for (name, value) in [
            ("raw.throughput_per_s", m.raw.throughput_per_s),
            ("raw.cpu_us_per_op", m.raw.cpu_us_per_op),
            ("raw.p50_us", m.raw.p50_us),
            ("p99_us", n.p99_us),
            ("raw.p99_us", m.raw.p99_us),
            ("raw.setup_s", setup_s.1),
            ("host.slowdown", m.slowdown),
            ("slices", m.slices as f64),
            ("gen.cpu_share", m.gen_cpu_share),
        ] {
            self.notes.insert(name.into(), value);
        }
    }

    /// Record a per-layer metric. A value that could not be measured
    /// fails the run instead of printing a number that is not one.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.gate_failures
                .push(format!("{name} could not be measured ({value})"));
            return;
        }
        self.metrics.insert(name.into(), (value, unit));
    }
}

/// The host a result was measured on.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub git_rev: String,
    pub loadavg: String,
}

impl Host {
    /// Read once at process start, before any load is generated.
    pub fn probe() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or("unknown".into(), |m| m.trim().to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            git_rev: git_rev(),
            loadavg: std::fs::read_to_string("/proc/loadavg")
                .map_or("unknown".into(), |s| s.trim().to_string()),
        }
    }
}

/// `HEAD` of the repository holding this package, read from `.git`
/// without spawning git; a checkout that is not a repository reads
/// `"unknown"`.
fn git_rev() -> String {
    let git = repo_root().join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => std::fs::read_to_string(git.join(r)).map_or_else(
            |_| {
                // A packed ref: `<sha> <ref>` in packed-refs.
                std::fs::read_to_string(git.join("packed-refs"))
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .and_then(|l| l.split(' ').next().map(str::to_string))
                    })
                    .unwrap_or_else(|| "unknown".into())
            },
            |s| s.trim().to_string(),
        ),
    }
}

/// The checkout root: the parent of this package's directory.
pub fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

/// `benchmark/out/`, created on demand; span files land here.
fn out_dir() -> std::io::Result<std::path::PathBuf> {
    let dir = repo_root().join("benchmark/out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A float with all its digits; JSON has no NaN or infinity, so a value
/// that is not finite is a bug in the metric, not something to print.
fn json_num(name: &str, v: f64) -> String {
    assert!(v.is_finite(), "metric {name} is not finite: {v}");
    format!("{v}")
}

/// The context line: host, seed and ungated notes. Printed before the
/// result line so the pair travels together in any captured output.
pub fn context_line(spec: &RunSpec, host: &Host, out: &Outcome) -> String {
    let notes: Vec<String> = out
        .notes
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_num(k, *v)))
        .collect();
    let gates: Vec<String> = out.gate_failures.iter().map(|g| json_str(g)).collect();
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"quick\":{},\"nproc\":{},\"cpu_model\":{},\"git_rev\":{},\"loadavg_at_start\":{},\"notes\":{{{}}},\"gate_failures\":[{}]}}",
        json_str(&spec.workload),
        spec.seed,
        spec.measure.as_secs_f64(),
        spec.trace,
        spec.quick,
        host.nproc,
        json_str(&host.cpu_model),
        json_str(&host.git_rev),
        json_str(&host.loadavg),
        notes.join(","),
        gates.join(","),
    )
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
pub fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(k, (v, unit))| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(k),
                json_num(k, *v),
                json_str(unit)
            )
        })
        .collect();
    let failed = out.failed + out.gate_failures.len() as u64;
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        failed == 0,
        out.attempted.max(1),
        failed,
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile_sorted(&v, 0.50), 500);
        assert_eq!(quantile_sorted(&v, 0.99), 990);
        assert_eq!(quantile_sorted(&[7], 0.99), 7);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = cpu_clocks();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let (p1, t1) = cpu_clocks();
        assert!(p1 > p0 && t1 > t0);
    }
}
