//! `live.shed` and `live.cached`: the gateway's two in-loop reply paths
//! driven over loopback TCP, plus the ungated worker-path diagnostics.
//!
//! Both gated workloads are chosen so that every reply is produced
//! inside the event loop — a token-bucket reject, or a front-door cache
//! hit — and therefore never rides `liveserve::poller::Waker`, whose
//! `drain()` can lose a wakeup (see README.md, "Known defect"). The
//! run asserts this over its measured phase from the server's own
//! counters.
//!
//! The generator is one thread with two connections running
//! batch-synchronous rounds: write a 256-line batch on each connection,
//! then read each connection's 256 replies. Requests and the replies
//! they must produce are rendered once from the seed, so the per-round
//! cost of the generator is two writes, two reads and two `memcmp`s,
//! and every reply is checked byte for byte.

use crate::harness::{
    finish_traced, median, median_setup_s, percentiles, quantile_sorted, slice_medians, Outcome,
    Percentiles, Reference, RunSpec, Slice, SliceClock,
};
use crate::spans::SpanLog;
use cluster::front::{CoalesceConfig, FrontConfig};
use cluster::{ApiId, ApiSpec, CallNode, NoControl, RateLimitUpdate, ServiceSpec, Topology};
use liveserve::{LiveConfig, LiveServer};
use simnet::SimDuration;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

pub const CONNS: usize = 2;
pub const BATCH: usize = 256;
/// Distinct pre-rendered batches per connection; ids repeat only after
/// this many rounds, so a stale or duplicated reply cannot match.
const POOL: usize = 16;
/// Keys `live.cached` reads; all fit the 1024-entry response cache.
const KEYS: usize = 256;
const CONTROL_INTERVAL: Duration = Duration::from_millis(200);
/// A reply that takes this long did not wait for work: it waited for
/// the event loop's 100 ms poll timeout.
const STALL: Duration = Duration::from_millis(50);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LiveKind {
    /// Limit pinned to 0: every line is answered `REJ <id> limit`.
    Shed,
    /// Keyed reads over a warm response cache: every line is answered
    /// `OK <id> <payload>` by `FrontDoor::pre_admit`.
    Cached,
}

impl LiveKind {
    pub fn workload(self) -> &'static str {
        match self {
            LiveKind::Shed => "live.shed",
            LiveKind::Cached => "live.cached",
        }
    }
}

/// Rounds per slice: 1024 latency samples, so the p99 has ten beyond it,
/// and 60-90 ms of wall time, so the reference burst after each slice
/// samples the host close to the work it normalises.
const ROUNDS_PER_SLICE: usize = 512;

/// splitmix64: the seed's only consumer on the live plane.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One service, one API, a 5 µs worker burn — the same near-zero-cost
/// topology `crates/bench/benches/liveserve.rs` measures against.
pub fn echo_topology(burn: SimDuration) -> Topology {
    let mut t = Topology::new("benchmark-echo");
    let svc = t.add_service(ServiceSpec::new("echo", 1).queue_capacity(1024));
    t.add_api(ApiSpec::single("ping", CallNode::leaf(svc, burn)));
    t
}

/// One line of the generated stream, before rendering.
#[derive(Clone, Copy)]
pub struct Line {
    pub id: u64,
    pub key: Option<u64>,
}

impl Line {
    /// The wire form `liveserve::loadgen` sends: every
    /// `TRACE_SAMPLE`-th id carries itself as a trace token.
    pub fn render(&self, out: &mut Vec<u8>) {
        let id = self.id;
        let traced = id.is_multiple_of(liveserve::loadgen::TRACE_SAMPLE);
        let line = match (self.key, traced) {
            (Some(k), true) => format!("REQ {id} 0 {k} {id}\n"),
            (Some(k), false) => format!("REQ {id} 0 {k}\n"),
            (None, true) => format!("REQ {id} 0 - {id}\n"),
            (None, false) => format!("REQ {id} 0\n"),
        };
        out.extend_from_slice(line.as_bytes());
    }
}

/// The seeded request stream: `POOL` batches of `BATCH` lines for each
/// connection, ids unique across the pool.
pub struct Stream {
    /// `lines[conn][batch]`.
    pub lines: Vec<Vec<Vec<Line>>>,
    /// The key set (empty for keyless streams).
    pub keys: Vec<u64>,
}

impl Stream {
    pub fn generate(seed: u64, keyed: bool) -> Stream {
        let mut rng = SplitMix(seed ^ 0x746f_7066_756c_6c00);
        // A 40-bit seeded base keeps ids 12-13 digits long; the
        // connection index sits above it.
        let base = rng.next() >> 24;
        let mut keys: Vec<u64> = Vec::new();
        while keyed && keys.len() < KEYS {
            let k = rng.next() >> 32;
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        let lines = (0..CONNS)
            .map(|c| {
                (0..POOL)
                    .map(|b| {
                        (0..BATCH)
                            .map(|i| Line {
                                id: base + ((c as u64) << 44) + (b * BATCH + i) as u64,
                                key: keyed.then(|| keys[(rng.next() % KEYS as u64) as usize]),
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Stream { lines, keys }
    }

    /// Every request byte of connection 0's pool, for the decoder probe.
    pub fn conn0_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for batch in &self.lines[0] {
            for l in batch {
                l.render(&mut out);
            }
        }
        out
    }
}

/// A rendered batch and the exact bytes the server must answer.
struct Batch {
    req: Vec<u8>,
    reply: Vec<u8>,
}

/// A started server with both generator connections open.
pub struct Rig {
    pub server: LiveServer,
    pub conns: Vec<TcpStream>,
}

impl Rig {
    /// Start the server, open the connections, pin the limit and close
    /// one control window: everything before the first request.
    pub fn start(kind: LiveKind, event_loops: usize) -> std::io::Result<Rig> {
        let front = (kind == LiveKind::Cached).then_some(FrontConfig {
            coalesce: Some(CoalesceConfig {
                cache_capacity: 1024,
                cache_ttl: SimDuration::from_secs(3600),
            }),
            priority: None,
        });
        Rig::start_with(front, kind == LiveKind::Shed, event_loops)
    }

    fn start_with(
        front: Option<FrontConfig>,
        pin_zero: bool,
        event_loops: usize,
    ) -> std::io::Result<Rig> {
        let cfg = LiveConfig {
            event_loops,
            control_interval: CONTROL_INTERVAL,
            front,
            ..LiveConfig::default()
        };
        let mut server = LiveServer::start(&echo_topology(SimDuration::from_micros(5)), cfg)?;
        let mut conns = Vec::with_capacity(CONNS);
        for _ in 0..CONNS {
            let c = TcpStream::connect(server.addr())?;
            c.set_nodelay(true)?;
            // A reply that never comes must fail the run, not hang it.
            c.set_read_timeout(Some(Duration::from_secs(5)))?;
            conns.push(c);
        }
        if pin_zero {
            server.push_limits(&[RateLimitUpdate::limit(ApiId(0), 0.0)]);
        }
        server.tick(&mut NoControl);
        Ok(Rig { server, conns })
    }

    pub fn shutdown(self) {
        drop(self.conns);
        self.server.shutdown();
    }
}

/// Read one sample of a Prometheus text exposition.
pub fn prom_value(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|l| {
            l.strip_prefix(series)?
                .strip_prefix(' ')?
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or(0.0)
}

/// The server-side counters the gates and the stage table read.
#[derive(Clone, Copy, Default)]
struct Counters {
    offered: f64,
    admitted: f64,
    rejected: f64,
    cache_hits: f64,
    stage_sum_s: [f64; 3],
    stage_count: [f64; 3],
}

impl Counters {
    fn read(reg: &obs::Registry) -> Counters {
        let text = reg.render_prometheus();
        let req = |v: &str| {
            prom_value(
                &text,
                &format!("topfull_gateway_requests_total{{api=\"ping\",verdict=\"{v}\"}}"),
            )
        };
        let mut c = Counters {
            offered: req("offered"),
            admitted: req("admitted"),
            rejected: req("rejected"),
            cache_hits: prom_value(&text, "topfull_coalesce_hit_total{kind=\"cache\"}"),
            ..Counters::default()
        };
        for (i, stage) in ["read_parse", "admit", "write"].iter().enumerate() {
            let base = "topfull_loop_stage_seconds";
            c.stage_sum_s[i] = prom_value(&text, &format!("{base}_sum{{stage=\"{stage}\"}}"));
            c.stage_count[i] = prom_value(&text, &format!("{base}_count{{stage=\"{stage}\"}}"));
        }
        c
    }
}

/// Generator self-accounting over the measured rounds.
#[derive(Default)]
struct GenAcct {
    rounds: u64,
    write_ns: u64,
    read_ns: u64,
}

struct Generator<'a> {
    conns: &'a mut [TcpStream],
    batches: Vec<Vec<Batch>>,
    bufs: Vec<Vec<u8>>,
    cursor: usize,
    attempted: u64,
    failed: u64,
}

impl Generator<'_> {
    /// One batch-synchronous round. Pushes one latency per connection:
    /// its batch written -> its last reply read.
    fn round(
        &mut self,
        lat: &mut Vec<u64>,
        acct: &mut GenAcct,
        spans: &mut SpanLog,
    ) -> std::io::Result<()> {
        let b = self.cursor % POOL;
        let unit = self.cursor as u64;
        self.cursor += 1;
        let t0 = Instant::now();
        let mut written = [t0; CONNS];
        let mut prev = t0;
        for (c, written) in written.iter_mut().enumerate() {
            self.conns[c].write_all(&self.batches[c][b].req)?;
            *written = Instant::now();
            spans.record("gen.write", prev, *written, None, unit);
            prev = *written;
        }
        let wrote = prev;
        for (c, written) in written.iter().enumerate() {
            let want = &self.batches[c][b].reply;
            let buf = &mut self.bufs[c][..want.len()];
            let before = Instant::now();
            self.conns[c].read_exact(buf)?;
            let now = Instant::now();
            lat.push((now - *written).as_nanos() as u64);
            if c == 0 {
                // The generator has nothing to do between its last
                // write and the first reply byte: that wait is the
                // server's round trip, not generator work.
                spans.record("server.roundtrip", wrote, now, None, unit);
            } else {
                spans.record("gen.read", before, now, None, unit);
            }
            self.attempted += BATCH as u64;
            if buf != want.as_slice() {
                self.failed += mismatched_lines(buf, want);
            }
            prev = now;
        }
        acct.rounds += 1;
        acct.write_ns += (wrote - t0).as_nanos() as u64;
        acct.read_ns += (prev - wrote).as_nanos() as u64;
        Ok(())
    }
}

/// Lines of `got` that differ from the same line of `want` (at least 1).
fn mismatched_lines(got: &[u8], want: &[u8]) -> u64 {
    let g: Vec<&[u8]> = got.split(|&b| b == b'\n').collect();
    let w: Vec<&[u8]> = want.split(|&b| b == b'\n').collect();
    let differing = w
        .iter()
        .enumerate()
        .filter(|(i, l)| g.get(*i) != Some(l))
        .count() as u64;
    differing.max(1)
}

/// Read `n` `\n`-terminated lines; `carry` holds bytes read past them.
fn read_lines(conn: &mut TcpStream, n: usize, carry: &mut Vec<u8>) -> std::io::Result<Vec<String>> {
    let mut lines = Vec::with_capacity(n);
    let mut chunk = [0u8; 16 * 1024];
    loop {
        while let Some(nl) = carry.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = carry.drain(..=nl).collect();
            lines.push(String::from_utf8_lossy(&line[..nl]).into_owned());
            if lines.len() == n {
                return Ok(lines);
            }
        }
        let got = conn.read(&mut chunk)?;
        if got == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        carry.extend_from_slice(&chunk[..got]);
    }
}

/// Fill the response cache: one miss per key through the worker pool,
/// outside every measured phase. Returns each key's cached payload.
fn warm_cache(conn: &mut TcpStream, keys: &[u64]) -> std::io::Result<Vec<String>> {
    let mut req = Vec::new();
    for (i, k) in keys.iter().enumerate() {
        req.extend_from_slice(format!("REQ {} 0 {k}\n", i + 1).as_bytes());
    }
    conn.write_all(&req)?;
    let mut payloads = vec![String::new(); keys.len()];
    for line in read_lines(conn, keys.len(), &mut Vec::new())? {
        let mut parts = line.split_ascii_whitespace();
        let (verdict, id, payload) = (parts.next(), parts.next(), parts.next());
        let idx = id.and_then(|s| s.parse::<usize>().ok()).unwrap_or(0);
        if verdict != Some("OK") || idx == 0 || idx > keys.len() || payload.is_none() {
            return Err(std::io::Error::other(format!("cache warm-up got {line:?}")));
        }
        payloads[idx - 1] = payload.unwrap_or_default().to_string();
    }
    Ok(payloads)
}

fn render_batches(kind: LiveKind, stream: &Stream, payloads: &[String]) -> Vec<Vec<Batch>> {
    let payload_of: std::collections::HashMap<u64, &str> = stream
        .keys
        .iter()
        .copied()
        .zip(payloads.iter().map(String::as_str))
        .collect();
    stream
        .lines
        .iter()
        .map(|pool| {
            pool.iter()
                .map(|lines| {
                    let mut req = Vec::new();
                    let mut reply = Vec::new();
                    for l in lines {
                        l.render(&mut req);
                        let text = match (kind, l.key) {
                            (LiveKind::Cached, Some(k)) => {
                                format!("OK {} {}\n", l.id, payload_of[&k])
                            }
                            _ => format!("REJ {} limit\n", l.id),
                        };
                        reply.extend_from_slice(text.as_bytes());
                    }
                    Batch { req, reply }
                })
                .collect()
        })
        .collect()
}

/// Timed calls on the control thread (traced runs only).
#[derive(Default)]
struct ControlTimings {
    observe_tick_us: Vec<f64>,
    push_limits_us: Vec<f64>,
    scrape_us: Vec<f64>,
    render_us: Vec<f64>,
}

/// `GET /metrics` over a fresh connection, read to the end.
fn scrape(addr: std::net::SocketAddr) -> std::io::Result<()> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(Duration::from_secs(5)))?;
    conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: benchmark\r\n\r\n")?;
    let mut body = Vec::new();
    conn.read_to_end(&mut body)?;
    Ok(())
}

/// Tick the server every control interval until `stop` fires. A traced
/// run splits the tick into its timed halves, re-pushing the pinned
/// limit, and scrapes `/metrics` every fifth tick.
fn control_loop(
    server: &mut LiveServer,
    stop: &mpsc::Receiver<()>,
    traced: bool,
    pin: RateLimitUpdate,
) -> ControlTimings {
    let mut t = ControlTimings::default();
    let mut ticks = 0u64;
    while let Err(mpsc::RecvTimeoutError::Timeout) = stop.recv_timeout(CONTROL_INTERVAL) {
        ticks += 1;
        if !traced {
            server.tick(&mut NoControl);
            continue;
        }
        let t0 = Instant::now();
        server.observe_tick();
        let t1 = Instant::now();
        server.push_limits(&[pin]);
        let t2 = Instant::now();
        t.observe_tick_us.push((t1 - t0).as_secs_f64() * 1e6);
        t.push_limits_us.push((t2 - t1).as_secs_f64() * 1e6);
        if ticks % 5 == 1 {
            let t0 = Instant::now();
            if scrape(server.metrics_addr()).is_ok() {
                t.scrape_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            let t0 = Instant::now();
            std::hint::black_box(server.registry().render_prometheus());
            t.render_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    t
}

/// What one measured live phase produced.
struct Measured {
    slices: Vec<Slice>,
    pcts: Vec<(u64, u64)>,
    /// Untraced slices measured first in a traced run.
    baseline: Vec<Slice>,
    acct: GenAcct,
    before: Counters,
    after: Counters,
    control: ControlTimings,
    attempted: u64,
    failed: u64,
    io_error: Option<String>,
}

/// Drive `rig` for `measure` and check every reply.
fn measure_live(
    kind: LiveKind,
    rig: &mut Rig,
    stream: &Stream,
    measure: Duration,
    spans: &mut SpanLog,
) -> std::io::Result<Measured> {
    let payloads = match kind {
        LiveKind::Cached => warm_cache(&mut rig.conns[0], &stream.keys)?,
        LiveKind::Shed => Vec::new(),
    };
    let batches = render_batches(kind, stream, &payloads);
    let max_reply = batches
        .iter()
        .flatten()
        .map(|b| b.reply.len())
        .max()
        .unwrap_or(0);
    let registry = std::sync::Arc::clone(rig.server.registry());
    let traced = spans.enabled();
    let pin = match kind {
        LiveKind::Shed => RateLimitUpdate::limit(ApiId(0), 0.0),
        LiveKind::Cached => RateLimitUpdate::unlimited(ApiId(0)),
    };
    let Rig { server, conns } = rig;
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let control = std::thread::Builder::new()
            .name("bench-control".into())
            .spawn_scoped(scope, move || control_loop(server, &stop_rx, traced, pin))?;
        let mut generator = Generator {
            conns,
            batches,
            bufs: vec![vec![0u8; max_reply]; CONNS],
            cursor: 0,
            attempted: 0,
            failed: 0,
        };
        let mut lat: Vec<u64> = Vec::with_capacity(ROUNDS_PER_SLICE * CONNS);
        let mut acct = GenAcct::default();
        let mut reference = Reference::new();
        let mut m = Measured {
            slices: Vec::with_capacity(4096),
            pcts: Vec::with_capacity(4096),
            baseline: Vec::new(),
            acct: GenAcct::default(),
            before: Counters::default(),
            after: Counters::default(),
            control: ControlTimings::default(),
            attempted: 0,
            failed: 0,
            io_error: None,
        };
        let mut run = || -> std::io::Result<()> {
            // Warm-up, unrecorded: page faults, socket buffers growing,
            // the branch predictor.
            spans.set_enabled(false);
            for _ in 0..4 * ROUNDS_PER_SLICE {
                generator.round(&mut lat, &mut acct, spans)?;
            }
            // A traced run spends its first quarter untraced, so the
            // tracing overhead is measured inside one process.
            let baseline_until = traced.then(|| Instant::now() + measure / 4);
            m.before = Counters::read(&registry);
            acct = GenAcct::default();
            let started = Instant::now();
            while started.elapsed() < measure {
                let in_baseline = baseline_until.is_some_and(|t| Instant::now() < t);
                spans.set_enabled(traced && !in_baseline);
                lat.clear();
                let clock = SliceClock::start();
                for _ in 0..ROUNDS_PER_SLICE {
                    generator.round(&mut lat, &mut acct, spans)?;
                }
                let ops = (ROUNDS_PER_SLICE * CONNS * BATCH) as u64;
                let slice = clock.close(ops, true, &mut reference);
                if in_baseline {
                    m.baseline.push(slice);
                } else {
                    m.slices.push(slice);
                    m.pcts.push(percentiles(&mut lat));
                }
            }
            m.after = Counters::read(&registry);
            Ok(())
        };
        if let Err(e) = run() {
            m.io_error = Some(e.to_string());
        }
        m.acct = acct;
        m.attempted = generator.attempted;
        m.failed = generator.failed;
        let _ = stop_tx.send(());
        m.control = control
            .join()
            .map_err(|_| std::io::Error::other("control thread panicked"))?;
        Ok(m)
    })
}

/// Run one gated live workload (or, traced, its layer probe).
pub fn run(kind: LiveKind, spec: &RunSpec, measure: Duration, out: &mut Outcome) {
    let setup_s = if spec.trace {
        (0.0, 0.0)
    } else {
        // Everything a run pays before its first request: the server,
        // both connections, the pinned limit, and the seeded stream
        // rendered to bytes. (The cache fill is not set-up: it rides
        // the worker path and its waker.)
        median_setup_s(
            spec.setup_reps(),
            || {
                let rig = Rig::start(kind, 1).expect("start live rig");
                let stream = Stream::generate(spec.seed, kind == LiveKind::Cached);
                let placeholder = vec!["0".to_string(); stream.keys.len()];
                (rig, render_batches(kind, &stream, &placeholder))
            },
            |(rig, _)| rig.shutdown(),
        )
    };
    let stream = Stream::generate(spec.seed, kind == LiveKind::Cached);
    let mut rig = Rig::start(kind, 1).expect("start live rig");
    // Spans: three per connection-round; sized for the whole phase.
    let mut spans = SpanLog::new(spec.trace, 1_000_000);
    let measured = measure_live(kind, &mut rig, &stream, measure, &mut spans);
    rig.shutdown();
    let m = match measured {
        Ok(m) => m,
        Err(e) => {
            out.attempted += 1;
            out.gate(false, || format!("{}: {e}", kind.workload()));
            return;
        }
    };
    out.attempted += m.attempted;
    out.failed += m.failed;
    if let Some(e) = &m.io_error {
        out.gate(false, || {
            format!("{}: connection failed: {e}", kind.workload())
        });
        return;
    }

    // Reply conservation, from the server's side of the wire.
    let sent =
        (m.slices.len() + m.baseline.len()) as f64 * (ROUNDS_PER_SLICE * CONNS * BATCH) as f64;
    let d = |f: fn(&Counters) -> f64| f(&m.after) - f(&m.before);
    let (offered, admitted, rejected, hits) = (
        d(|c| c.offered),
        d(|c| c.admitted),
        d(|c| c.rejected),
        d(|c| c.cache_hits),
    );
    let w = kind.workload();
    out.gate(offered == sent, || {
        format!("{w}: server counted {offered} offered lines, generator sent {sent}")
    });
    // No request may complete through a worker in the measured phase:
    // whatever was admitted must have been a cache hit.
    out.gate(admitted - hits == 0.0, || {
        format!("{w}: {admitted} admitted but {hits} cache hits: a worker served the difference")
    });
    match kind {
        LiveKind::Shed => out.gate(rejected == sent && admitted == 0.0, || {
            format!("{w}: {rejected} rejected, {admitted} admitted of {sent}")
        }),
        LiveKind::Cached => out.gate(hits == sent && rejected == 0.0, || {
            format!("{w}: {hits} cache hits, {rejected} rejected of {sent}")
        }),
    }

    let med = slice_medians(&m.slices, Percentiles::PerSlice(&m.pcts));
    // A generator that needs most of a core is measuring itself.
    out.gate(med.gen_cpu_share <= 0.8, || {
        format!(
            "{w}: generator-bound ({:.2} CPU-s per wall-s)",
            med.gen_cpu_share
        )
    });
    if !spec.trace {
        out.end_to_end(&med, setup_s);
        return;
    }

    // ---- traced: the layer table --------------------------------------
    let reqs = sent.max(1.0);
    let stage_us = |i: usize| (m.after.stage_sum_s[i] - m.before.stage_sum_s[i]) * 1e6;
    let staged_us: f64 = (0..3).map(stage_us).sum();
    let wakeups = m.after.stage_count[0] - m.before.stage_count[0];
    let server_cpu_ns: u64 = m
        .slices
        .iter()
        .chain(&m.baseline)
        .map(|s| s.server_cpu_ns)
        .sum();
    out.layer(
        "liveserve.gateway.read_parse_us_per_req",
        stage_us(0) / reqs,
        "us",
    );
    out.layer(
        "liveserve.gateway.admit_us_per_req",
        stage_us(1) / reqs,
        "us",
    );
    out.layer(
        "liveserve.gateway.write_us_per_req",
        stage_us(2) / reqs,
        "us",
    );
    out.layer(
        "liveserve.gateway.reqs_per_wakeup",
        reqs / wakeups.max(1.0),
        "count",
    );
    out.layer(
        "liveserve.gateway.unaccounted_pct",
        100.0 * (1.0 - staged_us / (server_cpu_ns as f64 / 1e3).max(1.0)),
        "%",
    );
    let mut c = m.control;
    out.layer(
        "liveserve.server.observe_tick_us",
        median(&mut c.observe_tick_us),
        "us",
    );
    out.layer(
        "liveserve.server.push_limits_us",
        median(&mut c.push_limits_us),
        "us",
    );
    out.layer(
        "liveserve.http.metrics_scrape_us",
        median(&mut c.scrape_us),
        "us",
    );
    out.layer("obs.registry.render_us", median(&mut c.render_us), "us");
    let rounds = m.acct.rounds.max(1) as f64;
    out.layer("gen.cpu_share", med.gen_cpu_share, "ratio");
    out.layer(
        "gen.write_us_per_round",
        m.acct.write_ns as f64 / 1e3 / rounds,
        "us",
    );
    out.layer(
        "gen.read_us_per_round",
        m.acct.read_ns as f64 / 1e3 / rounds,
        "us",
    );
    if spec.workload == w {
        finish_traced(out, w, &med, &m.baseline, &spans);
    }
    out.notes.insert(
        format!("{w}.traced_throughput_per_s"),
        med.normalised.throughput_per_s,
    );
}

// ---- ungated worker-path diagnostics ----------------------------------

/// `live.shed`'s generator with the limit removed: every request rides
/// worker -> completion queue -> `Waker`. Ungated: the numbers are
/// bimodal on a >= 2-vCPU host until `Waker::drain` is fixed.
pub fn served_diagnostic(seed: u64, batch_phase: Duration, out: &mut Outcome) {
    if let Err(e) = served(seed, batch_phase, out) {
        out.gate(false, || format!("served diagnostic: {e}"));
    }
}

fn served(seed: u64, batch_phase: Duration, out: &mut Outcome) -> std::io::Result<()> {
    let mut rig = Rig::start_with(None, false, 1)?;
    let stream = Stream::generate(seed, false);
    let mut carry = vec![Vec::new(); CONNS];
    let mut lat: Vec<u64> = Vec::new();
    let (mut stalls, mut attempted, mut failed) = (0u64, 0u64, 0u64);
    let check = |lines: &[String], want: &[Line]| {
        let mut bad = 0u64;
        // One `OK` per id, in any order.
        let mut seen = vec![false; want.len()];
        for l in lines {
            let mut p = l.split_ascii_whitespace();
            let ok = p.next() == Some("OK");
            let idx = p
                .next()
                .and_then(|s| s.parse::<u64>().ok())
                .and_then(|id| want.iter().position(|w| w.id == id));
            match idx {
                Some(i) if ok && !seen[i] => seen[i] = true,
                _ => bad += 1,
            }
        }
        bad
    };
    let started = Instant::now();
    let mut round = 0usize;
    let mut served = 0u64;
    while started.elapsed() < batch_phase {
        let b = round % POOL;
        round += 1;
        let mut written = [Instant::now(); CONNS];
        for (c, written) in written.iter_mut().enumerate() {
            let mut req = Vec::new();
            for l in &stream.lines[c][b] {
                req.extend_from_slice(format!("REQ {} 0\n", l.id).as_bytes());
            }
            rig.conns[c].write_all(&req)?;
            *written = Instant::now();
        }
        for (c, written) in written.iter().enumerate() {
            let lines = read_lines(&mut rig.conns[c], BATCH, &mut carry[c])?;
            let took = written.elapsed();
            lat.push(took.as_nanos() as u64);
            stalls += u64::from(took >= STALL);
            attempted += BATCH as u64;
            failed += check(&lines, &stream.lines[c][b]);
            served += BATCH as u64;
        }
    }
    let throughput = served as f64 / started.elapsed().as_secs_f64();
    lat.sort_unstable();
    let p50 = quantile_sorted(&lat, 0.5) as f64 / 1e3;
    // Window-1 ping-pong: one line out, one line back. Bounded by
    // time as well as count: with the waker stuck, each reply waits
    // for the 100 ms poll timeout.
    let mut pp: Vec<u64> = Vec::with_capacity(2000);
    let pp_started = Instant::now();
    for i in 0..2000u64 {
        if pp_started.elapsed() > Duration::from_secs(3) {
            break;
        }
        let want = [Line {
            id: 1_000_000 + i,
            key: None,
        }];
        let t0 = Instant::now();
        rig.conns[0].write_all(format!("REQ {} 0\n", want[0].id).as_bytes())?;
        let lines = read_lines(&mut rig.conns[0], 1, &mut carry[0])?;
        let took = t0.elapsed();
        pp.push(took.as_nanos() as u64);
        stalls += u64::from(took >= STALL);
        attempted += 1;
        failed += check(&lines, &want);
    }
    pp.sort_unstable();
    let pp50 = quantile_sorted(&pp, 0.5) as f64 / 1e3;
    rig.shutdown();
    out.attempted += attempted;
    out.failed += failed;
    out.layer("liveserve.served.throughput_per_s", throughput, "1/s");
    out.layer("liveserve.served.p50_us", p50, "us");
    out.layer("liveserve.served.pingpong_p50_us", pp50, "us");
    out.layer("liveserve.poller.wake_stalls", stalls as f64, "count");
    Ok(())
}

/// `live.shed` throughput at two event loops over one: the admission
/// lock both loops share caps the ratio.
pub fn loops2_shed_ratio(seed: u64, each: Duration, out: &mut Outcome) {
    let stream = Stream::generate(seed, false);
    let mut throughput = [0.0f64; 2];
    for (i, loops) in [1usize, 2].into_iter().enumerate() {
        let mut spans = SpanLog::new(false, 0);
        let measured = Rig::start(LiveKind::Shed, loops).and_then(|mut rig| {
            let m = measure_live(LiveKind::Shed, &mut rig, &stream, each, &mut spans);
            rig.shutdown();
            m
        });
        match measured {
            Ok(m) if m.io_error.is_none() => {
                out.attempted += m.attempted;
                out.failed += m.failed;
                throughput[i] = slice_medians(&m.slices, Percentiles::PerSlice(&m.pcts))
                    .normalised
                    .throughput_per_s;
            }
            Ok(m) => out.gate(false, || {
                format!("loops={loops} shed probe: {:?}", m.io_error)
            }),
            Err(e) => out.gate(false, || format!("loops={loops} shed probe: {e}")),
        }
    }
    if throughput[0] > 0.0 {
        out.layer(
            "liveserve.gateway.loops2_shed_ratio",
            throughput[1] / throughput[0],
            "ratio",
        );
    }
}
