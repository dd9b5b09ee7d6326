//! # liveserve — the real-time serving plane (Sim2Real)
//!
//! Everything else in this workspace runs TopFull against a simulated
//! cluster. This crate runs the **same controller stack** —
//! `core::{detector, clustering, rate_controller}`, including a trained
//! PPO policy — against real threads, real sockets and a real clock:
//!
//! * an event-driven loopback **TCP gateway** ([`gateway`]) — sharded
//!   epoll readiness loops ([`poller`]) with per-wakeup batched
//!   admission through the *same* token-bucket bank as the simulator's
//!   gateway ([`cluster::EntryAdmission`], shared verbatim);
//! * a **worker pool** ([`executors`]) emulating the application DAG
//!   with genuine CPU burn and bounded per-service queues;
//! * **wall-clock metric windows** ([`metrics`]) read off the cumulative
//!   `/metrics` counters and latency histogram as deltas, folded into
//!   the [`cluster::ClusterObservation`] struct the controller already
//!   consumes;
//! * a **load generator** ([`loadgen`]) with closed-loop user pools and
//!   open-loop surge arms.
//!
//! The controller runs on the thread that calls [`run`] (the
//! [`cluster::Controller`] trait is deliberately not `Send`), on a real
//! timer tick, inside the same [`cluster::ControlLoop`] the simulator's
//! harness steps: a [`LiveServer`] — or a fleet of them behind
//! [`topfull::Sharded`] — is just another [`cluster::Plane`]. Nothing in
//! `core` or the policy knows whether its observations came from virtual
//! or wall-clock time.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod clock;
pub mod executors;
pub mod front;
pub mod gateway;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod poller;
pub mod shardrun;
pub mod wire;

pub use clock::WallClock;
pub use loadgen::{ClosedLoopSpec, LoadGen, OpenLoopArm, RejectCounts};
pub use metrics::{AppDescriptor, LiveMetrics};
pub use shardrun::{ShardedLive, ShardedLiveConfig};

use cluster::observe::ClusterObservation;
use cluster::{
    ApiId, Contact, ControlLoop, Controller, EntryAdmission, Observed, Plane, RateLimitUpdate,
    RunResult, Topology,
};
use executors::WorkerPool;
use front::{LiveAdmission, LiveFront};
use gateway::{EventLoops, GatewayShared, LoopConfig};
use simnet::SimTime;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Lock `m`, taking the guard back from a thread that panicked while
/// holding it. The locks this is used on (the admission bank and the
/// control thread's window mark) guard counters, buckets and maps whose every single update is complete on its own, so the
/// worst a dead holder leaves behind is one request half-counted — and
/// one dead worker or scrape must not take the gateway down with it.
pub(crate) fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Live-plane tunables.
#[derive(Clone, Copy, Debug)]
pub struct LiveConfig {
    /// End-to-end latency SLO (goodput = completions within this).
    pub slo: Duration,
    /// Controller tick period (the simulator's control interval).
    pub control_interval: Duration,
    /// Global CPU-cost multiplier; capacity scales as `1 / cpu_scale`,
    /// letting one host emulate clusters of different sizes.
    pub cpu_scale: f64,
    /// Token-bucket burst window, in seconds of the current rate —
    /// passed straight to [`EntryAdmission::new`].
    pub gateway_burst_secs: f64,
    /// TCP port on 127.0.0.1; `0` picks an ephemeral port.
    pub port: u16,
    /// TCP port of the HTTP exposition endpoint (`GET /metrics`,
    /// `GET /trace`) on 127.0.0.1; `0` picks an ephemeral port.
    pub metrics_port: u16,
    /// Number of gateway event loops; `0` = one per core (capped at 8).
    pub event_loops: usize,
    /// Per-connection pending-output cap in bytes. Reads pause at half
    /// of this; a peer that lets completions pile past it is dropped.
    pub max_conn_output: usize,
    /// Optional front door (single-flight coalescing + priority
    /// admission) ahead of the token bucket — the same
    /// [`cluster::front::FrontDoor`] stages the simulator runs.
    pub front: Option<cluster::front::FrontConfig>,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            slo: Duration::from_secs(1),
            control_interval: Duration::from_millis(200),
            cpu_scale: 1.0,
            gateway_burst_secs: 0.05,
            port: 0,
            metrics_port: 0,
            event_loops: 0,
            max_conn_output: 1 << 20,
            front: None,
        }
    }
}

/// Bind the metrics exposition listener. A busy `port` is retried with
/// bounded backoff (another shard or a stale listener may still hold
/// it), then falls back to an ephemeral port — a gateway that serves
/// traffic but not `/metrics` on the requested port beats one that
/// refuses to start at all. The substitution is logged to stderr.
fn bind_metrics(port: u16) -> std::io::Result<TcpListener> {
    if port == 0 {
        return TcpListener::bind(("127.0.0.1", 0));
    }
    let mut last_err: Option<std::io::Error> = None;
    for backoff in [
        Duration::ZERO,
        Duration::from_millis(25),
        Duration::from_millis(50),
    ] {
        std::thread::sleep(backoff);
        match TcpListener::bind(("127.0.0.1", port)) {
            Ok(l) => return Ok(l),
            Err(e) => last_err = Some(e),
        }
    }
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    eprintln!(
        "liveserve: metrics port {port} unavailable after retries ({}); \
         serving /metrics on ephemeral port {} instead",
        last_err.expect("retry loop records an error"),
        listener.local_addr()?.port()
    );
    Ok(listener)
}

/// The live serving plane: gateway + worker pool + metric windows.
pub struct LiveServer {
    addr: SocketAddr,
    metrics_addr: SocketAddr,
    shared: Arc<GatewayShared>,
    registry: Arc<obs::Registry>,
    desc: AppDescriptor,
    shutdown: Arc<AtomicBool>,
    pool: Option<WorkerPool>,
    loops: Option<EventLoops>,
    window_start: SimTime,
}

/// Resolve `event_loops = 0` (auto) to one loop per available core,
/// capped — beyond a handful of loops the admission mutex, not epoll,
/// is the contended resource.
fn resolve_loops(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

impl LiveServer {
    /// Bind the gateway and the exposition endpoint, spawn the worker
    /// pool, and start accepting.
    pub fn start(topo: &Topology, cfg: LiveConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let addr = listener.local_addr()?;
        let metrics_listener = bind_metrics(cfg.metrics_port)?;
        let metrics_addr = metrics_listener.local_addr()?;
        let clock = WallClock::start();
        let desc = AppDescriptor::of(topo, cfg.slo);
        let metrics = Arc::new(LiveMetrics::new(topo.num_apis(), topo.num_services()));
        let registry = Arc::new(obs::Registry::new());
        metrics.register_into(&registry, &desc);
        let shutdown = Arc::new(AtomicBool::new(false));
        let front = cfg.front.map(|fc| {
            let lf = LiveFront::new(fc, topo);
            lf.door.stats().register_into(&registry);
            lf
        });
        let admission = Arc::new(Mutex::new(LiveAdmission {
            entry: EntryAdmission::new(topo.num_apis(), cfg.gateway_burst_secs),
            front,
        }));
        let (pool, routing) = WorkerPool::start(
            topo,
            cfg.cpu_scale,
            cfg.slo,
            clock,
            &metrics,
            &shutdown,
            Some(Arc::clone(&admission)),
        );
        let shared = Arc::new(GatewayShared {
            admission,
            clock,
            metrics: Arc::clone(&metrics),
            routing,
            shutdown: Arc::clone(&shutdown),
        });
        let http_state = Arc::new(http::MetricsHttp {
            registry: Arc::clone(&registry),
            metrics,
        });
        let loops = gateway::start_event_loops(
            listener,
            metrics_listener,
            http_state,
            &shared,
            LoopConfig {
                loops: resolve_loops(cfg.event_loops),
                max_conn_output: cfg.max_conn_output,
            },
        )?;
        Ok(LiveServer {
            addr,
            metrics_addr,
            shared,
            registry,
            desc,
            shutdown,
            pool: Some(pool),
            loops: Some(loops),
            window_start: SimTime::ZERO,
        })
    }

    /// Snapshot of the gateway's causal trace log (every stage event of
    /// every traced request still retained by the bounded ring).
    pub fn traces(&self) -> Vec<obs::TraceEvent> {
        self.shared.metrics.trace_log().snapshot()
    }

    /// Address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Address of the HTTP exposition endpoint (`/metrics`, `/trace`).
    pub fn metrics_addr(&self) -> SocketAddr {
        self.metrics_addr
    }

    /// The server's metrics registry (instruments registered at start).
    pub fn registry(&self) -> &Arc<obs::Registry> {
        &self.registry
    }

    /// Current rate limit of one API (`f64::INFINITY` = unlimited).
    pub fn rate_limit(&self, api: usize) -> f64 {
        relock(&self.shared.admission)
            .entry
            .rate_limit(ApiId(api as u32))
    }

    /// Close the current metric window and return the observation
    /// (`now` is wall-clock time since server start), without running a
    /// controller: the gateway's half of a control tick
    /// ([`Plane::observe`]). Also closes the front door's window.
    pub fn observe_tick(&mut self) -> ClusterObservation {
        let now = self.shared.clock.now();
        let window = now.duration_since(self.window_start);
        self.window_start = now;
        let rate_limits: Vec<f64> = {
            let admission = relock(&self.shared.admission);
            (0..admission.entry.num_apis())
                .map(|i| admission.entry.rate_limit(ApiId(i as u32)))
                .collect()
        };
        let obs = self
            .shared
            .metrics
            .observe(&self.desc, now, window, &rate_limits);
        // Close the front door's window on the same cadence as the
        // simulator's tick: counters fold into the stats gauges, and
        // the priority threshold adapts on the queuing-delay signal.
        {
            let mut admission = relock(&self.shared.admission);
            if let Some(front) = admission.front.as_mut() {
                let overloaded = front.door.overloaded(&obs);
                let _ = front.door.tick(overloaded);
            }
        }
        obs
    }

    /// Apply rate-limit updates to the admission bank, effective for
    /// the next window.
    pub fn push_limits(&mut self, updates: &[RateLimitUpdate]) {
        if updates.is_empty() {
            return;
        }
        let mut admission = relock(&self.shared.admission);
        let at = self.shared.clock.now();
        for u in updates {
            admission.entry.set_rate_limit(u.api, u.rate, at);
        }
    }

    /// One control tick with a borrowed controller, through a throwaway
    /// [`ControlLoop`]: close the window, step `controller`, apply its
    /// updates. Nothing carries over between calls — no burn-rate
    /// history, no journal — so a real run keeps one loop and calls
    /// [`run`]; this is for callers that only need the window closed and
    /// a decision applied.
    ///
    /// Mirrors the simulator's harness ordering exactly: the observation
    /// carries the limits that were in force *during* the window, and
    /// updates take effect for the next one.
    pub fn tick(&mut self, controller: &mut dyn Controller) -> ClusterObservation {
        ControlLoop::lent(controller)
            .tick(self)
            .expect("a live server closes a window on every tick")
    }

    /// Stop accepting, stop the workers, and join everything. Event
    /// loops are woken out of `epoll_wait`, observe the flag, close
    /// their connections on drop and are joined; then the worker pool.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(l) = self.loops.take() {
            l.join();
        }
        if let Some(p) = self.pool.take() {
            p.join();
        }
    }

    /// Abrupt termination — the in-process analogue of SIGKILL for
    /// chaos drills. The shutdown flag is raised, the event loops are
    /// woken, and every handle is dropped *without joining*: loops and
    /// workers observe the flag and die, in-flight requests are
    /// abandoned, and nothing waits for a drain.
    pub fn kill(self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(l) = self.loops.as_ref() {
            l.wake_all();
        }
        // `self` drops here; detached threads observe the flag and die.
    }
}

/// The live gateway as a plane: observing closes the wall-clock metric
/// window, applying moves the admission bank's limits.
impl Plane for LiveServer {
    fn observe(&mut self) -> Option<Observed> {
        let view = self.observe_tick();
        Some(Observed {
            now: view.now,
            view,
            contact: Contact::Up,
        })
    }

    fn rate_limit(&self, api: ApiId) -> f64 {
        LiveServer::rate_limit(self, api.idx())
    }

    fn apply(&mut self, updates: Option<&[RateLimitUpdate]>) {
        self.push_limits(updates.unwrap_or_default());
    }

    fn slo_signals(&mut self, signals: &[obs::SloBurnSignal]) {
        self.shared.metrics.set_slo_signals(signals);
    }
}

/// Drive `ctl` over a live `plane` for `duration` on the calling thread,
/// one tick per `interval` of wall clock — the live counterpart of
/// `cluster::Harness::run_until`, recording the same timeline.
pub fn run(
    ctl: &mut ControlLoop,
    plane: &mut dyn Plane,
    interval: Duration,
    duration: Duration,
) -> RunResult {
    let started = Instant::now();
    let mut next = started + interval;
    let mut result = RunResult::default();
    loop {
        let now = Instant::now();
        if now < next {
            std::thread::sleep(next - now);
        }
        next += interval;
        if let Some(obs) = ctl.tick(plane) {
            // No vCPU accounting on the live plane.
            result.record(&obs, 0.0);
        }
        if started.elapsed() >= duration {
            break;
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ApiSpec, CallNode, NoControl, ServiceSpec};
    use simnet::SimDuration;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn tiny_topo() -> Topology {
        let mut t = Topology::default();
        let s = t.add_service(ServiceSpec::new("svc", 1).queue_capacity(64));
        t.add_api(ApiSpec::single(
            "ping",
            CallNode::leaf(s, SimDuration::from_micros(50)),
        ));
        t
    }

    #[test]
    fn end_to_end_request_gets_ok_reply() {
        let mut server = LiveServer::start(&tiny_topo(), LiveConfig::default()).expect("start");
        let mut conn = TcpStream::connect(server.addr()).expect("connect");
        conn.write_all(b"REQ 42 0\n").expect("send");
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        assert!(line.starts_with("OK 42 "), "got {line:?}");
        // Unknown API and malformed lines answer ERR without killing the
        // connection.
        conn.write_all(b"REQ 43 9\njunk\nREQ 44 0\n").expect("send");
        let mut verdicts = Vec::new();
        for _ in 0..3 {
            line.clear();
            reader.read_line(&mut line).expect("reply");
            verdicts.push(line.split_whitespace().next().unwrap_or("").to_string());
        }
        verdicts.sort();
        assert_eq!(verdicts, ["ERR", "ERR", "OK"], "verdicts {verdicts:?}");
        let obs = server.tick(&mut NoControl);
        assert_eq!(obs.apis[0].name, "ping");
        server.shutdown();
    }

    /// One `GET` against the exposition endpoint; returns the body.
    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut conn = TcpStream::connect(addr).expect("connect metrics");
        conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .expect("send request");
        let mut reader = BufReader::new(conn);
        let mut status = String::new();
        reader.read_line(&mut status).expect("status line");
        assert!(status.contains("200"), "status {status:?}");
        let mut len = 0usize;
        let mut line = String::new();
        loop {
            line.clear();
            reader.read_line(&mut line).expect("header");
            if line == "\r\n" || line == "\n" {
                break;
            }
            if let Some(v) = line
                .to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(|v| v.trim().to_string())
            {
                len = v.parse().expect("content length");
            }
        }
        let mut body = vec![0u8; len];
        std::io::Read::read_exact(&mut reader, &mut body).expect("body");
        String::from_utf8(body).expect("utf8 body")
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let mut server = LiveServer::start(&tiny_topo(), LiveConfig::default()).expect("start");
        let mut conn = TcpStream::connect(server.addr()).expect("connect");
        conn.write_all(b"REQ 1 0\n").expect("send");
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        assert!(line.starts_with("OK 1 "), "got {line:?}");
        server.tick(&mut NoControl);
        let text = http_get(server.metrics_addr(), "/metrics");
        assert!(
            text.contains("# TYPE topfull_gateway_requests_total counter"),
            "{text}"
        );
        assert!(
            text.contains("topfull_gateway_requests_total{api=\"ping\",verdict=\"admitted\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("topfull_request_duration_seconds_count{api=\"ping\"} 1"),
            "{text}"
        );
        server.shutdown();
    }

    #[test]
    fn traced_request_flows_to_trace_route_and_exemplars() {
        let mut server = LiveServer::start(&tiny_topo(), LiveConfig::default()).expect("start");
        let mut conn = TcpStream::connect(server.addr()).expect("connect");
        // Keyless traced request: `-` fills the key slot, trace id 5.
        conn.write_all(b"REQ 5 0 - 5\nREQ 6 0\n").expect("send");
        let mut reader = BufReader::new(conn);
        for _ in 0..2 {
            let mut line = String::new();
            reader.read_line(&mut line).expect("reply");
            assert!(line.starts_with("OK "), "got {line:?}");
        }
        server.tick(&mut NoControl);
        // The trace id links the wire, the trace log, and the metrics
        // exposition: /trace/<id> returns the causal chain, and the
        // latency histogram carries it as an OpenMetrics exemplar.
        let events = http_get(server.metrics_addr(), "/trace/5");
        assert!(
            events.contains("\"stage\":\"token_bucket\"")
                || events.contains("\"stage\":\"front_door\""),
            "admission stage missing: {events}"
        );
        assert!(events.contains("\"stage\":\"worker\""), "{events}");
        assert!(events.contains("\"stage\":\"reply\""), "{events}");
        // The untraced request (id 6) must not appear.
        assert!(!events.contains("\"request\":6"), "{events}");
        let all = http_get(server.metrics_addr(), "/trace");
        assert!(all.lines().count() >= events.lines().count());
        let text = http_get(server.metrics_addr(), "/metrics");
        assert!(text.contains("trace_id=\"5\""), "exemplar missing:\n{text}");
        assert!(
            text.contains("# TYPE topfull_slo_burn_rate gauge"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE topfull_loop_stage_seconds histogram"),
            "{text}"
        );
        server.shutdown();
    }

    #[test]
    fn a_trace_keeps_one_shard_across_event_loops() {
        // Connections are dealt to the two loops round-robin, so one
        // traced request is admitted by loop 1; the loop that admits
        // and the worker that serves must stamp the same shard.
        let cfg = LiveConfig {
            event_loops: 2,
            ..LiveConfig::default()
        };
        let server = LiveServer::start(&tiny_topo(), cfg).expect("start");
        let mut conns = Vec::new();
        for trace in [11u64, 12] {
            let mut conn = TcpStream::connect(server.addr()).expect("connect");
            conn.write_all(format!("REQ {trace} 0 - {trace}\n").as_bytes())
                .expect("send");
            let mut line = String::new();
            BufReader::new(conn.try_clone().expect("clone"))
                .read_line(&mut line)
                .expect("reply");
            assert!(line.starts_with(&format!("OK {trace} ")), "got {line:?}");
            conns.push(conn);
        }
        let events = server.traces();
        for trace in [11, 12] {
            let shards: Vec<u32> = events
                .iter()
                .filter(|e| e.trace == trace)
                .map(|e| e.shard)
                .collect();
            assert_eq!(shards, [0, 0, 0], "trace {trace}: admit, serve, reply");
        }
        server.shutdown();
    }

    #[test]
    fn duplicate_keyed_reads_coalesce_onto_one_flight() {
        // One API with a hefty burn so pipelined duplicates land while
        // the leader is still in flight (or, if the batch splits, after
        // it cached) — either way they coalesce, not re-execute.
        let mut t = Topology::default();
        let s = t.add_service(ServiceSpec::new("svc", 1).queue_capacity(64));
        t.add_api(ApiSpec::single(
            "read",
            CallNode::leaf(s, SimDuration::from_millis(20)),
        ));
        let cfg = LiveConfig {
            front: Some(cluster::front::FrontConfig {
                coalesce: Some(cluster::front::CoalesceConfig::default()),
                priority: None,
            }),
            ..LiveConfig::default()
        };
        let mut server = LiveServer::start(&t, cfg).expect("start");
        let mut conn = TcpStream::connect(server.addr()).expect("connect");
        conn.write_all(b"REQ 1 0 7\nREQ 2 0 7\nREQ 3 0 7\n")
            .expect("send");
        let mut reader = BufReader::new(conn);
        let mut ids = Vec::new();
        for _ in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).expect("reply");
            let mut parts = line.split_whitespace();
            assert_eq!(parts.next(), Some("OK"), "got {line:?}");
            ids.push(parts.next().expect("id").to_string());
        }
        ids.sort();
        assert_eq!(ids, ["1", "2", "3"]);
        let text = http_get(server.metrics_addr(), "/metrics");
        let hits: u64 = text
            .lines()
            .filter(|l| l.starts_with("topfull_coalesce_hit_total"))
            .map(|l| l.split_whitespace().last().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(hits, 2, "two of three duplicates coalesced:\n{text}");
        let obs = server.tick(&mut NoControl);
        assert_eq!(obs.apis[0].admitted, obs.apis[0].offered);
        server.shutdown();
    }

    #[test]
    fn a_poisoned_admission_lock_does_not_stop_the_gateway_answering() {
        let mut server = LiveServer::start(&tiny_topo(), LiveConfig::default()).expect("start");
        server.push_limits(&[cluster::RateLimitUpdate::limit(ApiId(0), 0.0)]);
        let mut conn = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let mut line = String::new();
        conn.write_all(b"REQ 1 0\n").expect("send");
        reader.read_line(&mut line).expect("reply");
        assert_eq!(line, "REJ 1 limit\n");
        // A thread dies holding the admission bank's lock, which every
        // refusing wakeup takes, and so do the control thread's window
        // close and limit push and a worker settling a flight.
        let admission = Arc::clone(&server.shared.admission);
        let died = std::thread::spawn(move || {
            let _held = admission.lock();
            panic!("an admission holder dies holding the lock");
        })
        .join();
        assert!(died.is_err() && server.shared.admission.is_poisoned());
        line.clear();
        conn.write_all(b"REQ 2 0\nREQ 3 0\n").expect("send");
        reader.read_line(&mut line).expect("reply");
        reader.read_line(&mut line).expect("reply");
        assert_eq!(line, "REJ 2 limit\nREJ 3 limit\n");
        let obs = server.tick(&mut NoControl);
        assert!(obs.apis[0].offered > 0.0);
        assert_eq!(obs.apis[0].admitted, 0.0);
        server.push_limits(&[cluster::RateLimitUpdate::unlimited(ApiId(0))]);
        line.clear();
        conn.write_all(b"REQ 4 0\n").expect("send");
        reader.read_line(&mut line).expect("reply");
        assert!(line.starts_with("OK 4 "), "got {line:?}");
        server.shutdown();
    }

    #[test]
    fn zero_rate_limit_rejects_at_entry() {
        struct Throttle;
        impl Controller for Throttle {
            fn control(&mut self, obs: &ClusterObservation) -> Vec<cluster::RateLimitUpdate> {
                vec![cluster::RateLimitUpdate {
                    api: obs.apis[0].api,
                    rate: 0.0,
                }]
            }
        }
        let mut server = LiveServer::start(&tiny_topo(), LiveConfig::default()).expect("start");
        server.tick(&mut Throttle); // applies the zero limit
        assert_eq!(server.rate_limit(0), 0.0);
        let mut conn = TcpStream::connect(server.addr()).expect("connect");
        conn.write_all(b"REQ 7 0\n").expect("send");
        let mut line = String::new();
        BufReader::new(conn).read_line(&mut line).expect("reply");
        assert_eq!(line, "REJ 7 limit\n");
        let obs = server.tick(&mut NoControl);
        assert!(obs.apis[0].offered > 0.0);
        assert_eq!(obs.apis[0].admitted, 0.0);
        server.shutdown();
    }
}
