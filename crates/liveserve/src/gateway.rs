//! The loopback TCP gateway: an epoll readiness loop in front of the
//! shared admission bank.
//!
//! ## Wire protocol (line-based, one session per connection)
//!
//! ```text
//! client → REQ <id> <api_idx> [key]\n
//! server → OK <id> <latency_us>\n     request completed end-to-end
//!          REJ <id> limit\n           shed at the entry token bucket
//!          REJ <id> shed\n            shed by the priority gate
//!          ERR <id>\n                 dropped at a full service queue
//!                                     (or the line was malformed; id 0)
//! ```
//!
//! The optional `key` marks the request as a coalescable read of that
//! resource: when the front door is configured, duplicate keyed reads
//! are answered from the single-flight cache (`OK` with the cached
//! payload) or parked behind the in-flight leader and answered when it
//! completes — each follower reporting its own measured latency.
//!
//! Responses are **not** ordered with respect to requests: a client may
//! pipeline many `REQ` lines and match replies by id.
//!
//! ## Event loops
//!
//! The thread-per-connection gateway this replaced spent its time in
//! per-line syscalls and context switches. Here, N **sharded
//! acceptor+worker event loops** (one per core by default) each own an
//! epoll [`Poller`]: every loop polls a clone of the listening socket,
//! and each accepted connection is assigned round-robin to exactly one
//! loop, which owns its entire lifetime — no cross-loop locking on the
//! request path.
//!
//! Per wakeup, a loop batches the whole pipeline:
//!
//! 1. **read** — drain readable sockets in 64 KiB chunks (bounded per
//!    connection per wakeup; level-triggered epoll re-arms leftovers);
//! 2. **wire-parse** — the [`LineDecoder`] takes canonical lines where
//!    they lie in the read buffer (its in-place tier: eight-byte loads
//!    fenced by the segment, not the line) and declines everything else,
//!    whole, to the general path, which frames requests across
//!    arbitrary segment boundaries and resyncs past oversized garbage
//!    (see [`crate::wire`]: one grammar, two speeds);
//! 3. **admission** — one [`LiveAdmission`] lock admits the whole
//!    batch through the full stage pipeline — coalescing, priority
//!    gate, token bucket (the bucket costs ~7 ns/decision; the lock
//!    and clock reads are amortized across the batch). A cache hit's
//!    payload is lent by the door and copied once, under the lock, into
//!    loop-owned scratch (no `Arc` traffic per hit); a user level is
//!    hashed only when a priority gate exists to read it. The
//!    bookkeeping is per wakeup too: per-API tallies in loop-owned
//!    scratch land as one `add(n)` per counter, and reply lines are
//!    encoded straight into the output buffers — no lock but the
//!    admission bank's is taken on the way;
//! 4. **response** — the output buffers (this wakeup's replies, worker
//!    completions) are flushed with one `write` per connection per
//!    wakeup, with partial-write carry — after step 3's tallies, so a
//!    client that has read its reply finds itself in `/metrics`.
//!
//! Workers hand completed jobs back to the owning loop through its
//! completion queue + [`Waker`] (see [`crate::executors`]).
//!
//! ## Backpressure
//!
//! Output buffers are bounded. A connection whose peer stops reading is
//! first **paused** (its read interest is dropped at half the cap, so a
//! pipelining client can no longer mint new work) and, if completions
//! still push the buffer past the cap, **disconnected** — one slow
//! consumer can neither stall other connections nor the control tick.
//! The cap bounds the userspace buffer; the socket's kernel send buffer
//! fills first, and Linux autotunes it up to `net.ipv4.tcp_wmem`'s
//! maximum (4 MB by default), so a peer that stops reading holds at
//! most that maximum plus `max_conn_output` bytes. Tokens are
//! generation-tagged, so a completion addressed to a closed (and
//! possibly reused) slot is dropped, never misdelivered.
//!
//! The `/metrics`+`/trace` HTTP listener rides loop 0's poller as just
//! another connection kind — the dedicated exposition thread is gone.

use crate::clock::WallClock;
use crate::executors::{Completion, Job, ReplySink, Routing};
use crate::front::LiveAdmission;
use crate::http::{self, MetricsHttp};
use crate::metrics::{ApiTally, LiveMetrics, Stage};
use crate::poller::{Interest, Poller, Waker};
use crate::relock;
use crate::wire::{self, LineDecoder, WireItem};
use cluster::front::PreVerdict;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shared state every event loop needs. The shutdown flag is the same
/// `Arc` the worker pool polls, so one store stops the world.
pub struct GatewayShared {
    pub admission: Arc<Mutex<LiveAdmission>>,
    pub clock: WallClock,
    pub metrics: Arc<LiveMetrics>,
    pub routing: Arc<Routing>,
    pub shutdown: Arc<AtomicBool>,
}

/// Event-loop tunables (resolved from [`crate::LiveConfig`]).
#[derive(Clone, Copy, Debug)]
pub struct LoopConfig {
    /// Number of event loops; the caller resolves `0 = auto` upstream.
    pub loops: usize,
    /// Per-connection pending-output cap in bytes. Reads pause at half
    /// of this; crossing it disconnects the laggard.
    pub max_conn_output: usize,
}

const TOK_WAKER: u64 = u64::MAX;
const TOK_LISTENER: u64 = u64::MAX - 1;
const TOK_METRICS: u64 = u64::MAX - 2;

/// Read chunk size; also the per-read syscall granularity.
const READ_CHUNK: usize = 64 * 1024;
/// Max read syscalls per connection per wakeup — a firehose connection
/// yields to its loop-mates; epoll re-arms whatever is left.
const READ_BUDGET: usize = 4;
/// An HTTP request head larger than this is not a scrape.
const MAX_HTTP_HEAD: usize = 16 * 1024;

/// Handle for poking a sibling loop: hand off an accepted connection
/// and wake it.
struct LoopHandle {
    injector: Sender<TcpStream>,
    waker: Waker,
}

/// The running event loops; owned by [`crate::LiveServer`].
pub struct EventLoops {
    wakers: Vec<Waker>,
    handles: Vec<JoinHandle<()>>,
}

impl EventLoops {
    /// Kick every loop out of `epoll_wait` (to observe shutdown).
    pub fn wake_all(&self) {
        for w in &self.wakers {
            w.wake();
        }
    }

    /// Wake and join all loops. The shutdown flag must already be up.
    pub fn join(self) {
        self.wake_all();
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// What a connection speaks.
enum ConnKind {
    /// The `REQ`/`OK`/`REJ`/`ERR` request protocol.
    Wire(LineDecoder),
    /// One-shot HTTP exposition (`/metrics`, `/trace`); buffers the
    /// request head until blank line, answers, closes.
    Http(Vec<u8>),
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    token: u64,
    kind: ConnKind,
    /// Pending output; `out[out_start..]` is unwritten.
    out: Vec<u8>,
    out_start: usize,
    /// Interest currently registered with the poller.
    armed: Interest,
    /// Read side muted for backpressure (or post-request for HTTP).
    paused: bool,
    close_after_flush: bool,
    /// Already queued in the loop's dirty list this wakeup.
    dirty: bool,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.out.len() - self.out_start
    }

    /// The output buffer, for the reply encoder to append to.
    fn out_buf(&mut self) -> &mut Vec<u8> {
        // Compact lazily: reclaim the written prefix once it dominates.
        if self.out_start > 4096 && self.out_start * 2 > self.out.len() {
            self.out.drain(..self.out_start);
            self.out_start = 0;
        }
        &mut self.out
    }
}

/// A parsed request waiting for the batched admission decision.
struct PendingReq {
    /// The connection it arrived on (slot + generation).
    token: u64,
    id: u64,
    api: usize,
    /// Coalescing resource key (the wire line's optional fourth token).
    key: Option<u64>,
    /// Causal-tracing opt-in (the wire line's optional fifth token).
    trace: Option<u64>,
}

/// The batched admission verdict for one pending request, computed
/// under the single per-wakeup lock; all bookkeeping (tallies, traces,
/// output buffers) happens after the lock is released.
enum Verdict {
    /// Answered inline from the single-flight cache; the payload is
    /// these bytes of the loop's `hit_payloads` scratch.
    CacheHit(Range<usize>),
    /// Parked behind the in-flight leader; answered at flight settle.
    Parked,
    /// Turned away: shed by the priority gate before the token bucket
    /// (`shed`), or rejected by the entry token bucket itself.
    Reject { shed: bool },
    /// Admitted into the worker pool; `flight` is set when this request
    /// leads a coalesced read.
    Submit { flight: Option<(u32, u64)> },
}

/// One sharded acceptor+worker event loop.
struct EventLoop {
    idx: usize,
    poller: Poller,
    waker: Waker,
    listener: TcpListener,
    /// Loop 0 only: the exposition listener and its route state.
    metrics_listener: Option<TcpListener>,
    http: Option<Arc<MetricsHttp>>,
    shared: Arc<GatewayShared>,
    comp_tx: Sender<Completion>,
    comp_rx: Receiver<Completion>,
    inj_rx: Receiver<TcpStream>,
    peers: Arc<Vec<LoopHandle>>,
    rr: Arc<AtomicUsize>,
    max_out: usize,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u32,
    scratch: Vec<u8>,
    items: Vec<WireItem>,
    pending: Vec<PendingReq>,
    /// Per-wakeup admission scratch, reused across wakeups: one verdict
    /// per pending request, one tally per API.
    verdicts: Vec<Verdict>,
    tallies: Vec<ApiTally>,
    /// The wakeup's cache-hit payloads end to end, copied out of the
    /// front door while the admission lock is held.
    hit_payloads: Vec<u8>,
    dirty: Vec<usize>,
    closing: Vec<usize>,
}

/// Spawn `cfg.loops` event loops over a bound gateway listener and the
/// exposition listener (which rides loop 0).
pub fn start_event_loops(
    listener: TcpListener,
    metrics_listener: TcpListener,
    http: Arc<MetricsHttp>,
    shared: &Arc<GatewayShared>,
    cfg: LoopConfig,
) -> io::Result<EventLoops> {
    let n = cfg.loops.max(1);
    listener.set_nonblocking(true)?;
    metrics_listener.set_nonblocking(true)?;
    let rr = Arc::new(AtomicUsize::new(0));
    let mut loops = Vec::with_capacity(n);
    let mut handles_for_peers = Vec::with_capacity(n);
    let mut wakers = Vec::with_capacity(n);
    for i in 0..n {
        let poller = Poller::new()?;
        let waker = Waker::new()?;
        waker.register(&poller, TOK_WAKER)?;
        let l = listener.try_clone()?;
        poller.add(l.as_raw_fd(), TOK_LISTENER, Interest::READ)?;
        let (metrics_l, http_state) = if i == 0 {
            poller.add(metrics_listener.as_raw_fd(), TOK_METRICS, Interest::READ)?;
            (Some(metrics_listener.try_clone()?), Some(Arc::clone(&http)))
        } else {
            (None, None)
        };
        let (inj_tx, inj_rx) = channel();
        let (comp_tx, comp_rx) = channel();
        handles_for_peers.push(LoopHandle {
            injector: inj_tx,
            waker: waker.clone(),
        });
        wakers.push(waker.clone());
        loops.push(EventLoop {
            idx: i,
            poller,
            waker,
            listener: l,
            metrics_listener: metrics_l,
            http: http_state,
            shared: Arc::clone(shared),
            comp_tx,
            comp_rx,
            inj_rx,
            peers: Arc::new(Vec::new()), // replaced below
            rr: Arc::clone(&rr),
            max_out: cfg.max_conn_output.max(4096),
            conns: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
            scratch: vec![0u8; READ_CHUNK],
            items: Vec::new(),
            pending: Vec::new(),
            verdicts: Vec::new(),
            tallies: (0..shared.routing.stages.len())
                .map(|_| ApiTally::default())
                .collect(),
            hit_payloads: Vec::new(),
            dirty: Vec::new(),
            closing: Vec::new(),
        });
    }
    let peers = Arc::new(handles_for_peers);
    let handles = loops
        .into_iter()
        .map(|mut el| {
            el.peers = Arc::clone(&peers);
            std::thread::Builder::new()
                .name(format!("live-loop-{}", el.idx))
                .spawn(move || el.run())
                .expect("spawn event loop")
        })
        .collect();
    Ok(EventLoops { wakers, handles })
}

impl EventLoop {
    fn run(mut self) {
        let mut events = Vec::new();
        while !self.shared.shutdown.load(Ordering::Relaxed) {
            if self
                .poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .is_err()
            {
                break;
            }
            // Per-stage batch profiling: one `Instant` per phase per
            // wakeup, never per request. Idle wakeups (poll timeout,
            // nothing ready) record nothing, so the histograms measure
            // work, not waiting.
            let mut lap = (!events.is_empty()).then(Instant::now);
            for ev in &events {
                match ev.token {
                    // The queues it announces are drained below, after
                    // every event — the invariant `Waker::drain` needs.
                    TOK_WAKER => self.waker.drain(),
                    TOK_LISTENER => self.accept_burst(),
                    TOK_METRICS => self.accept_http_burst(),
                    token => self.on_conn_event(token, ev.readable, ev.writable, ev.hangup),
                }
            }
            self.adopt_injected();
            self.drain_completions();
            let had_pending = !self.pending.is_empty();
            self.lap(&mut lap, Stage::ReadParse, true);
            self.admit_pending();
            // Queue-full `ERR`s from submits land on the completion
            // queue synchronously — fold them into this wakeup's flush.
            self.drain_completions();
            let had_dirty = !self.dirty.is_empty();
            self.lap(&mut lap, Stage::Admit, had_pending);
            self.flush_dirty();
            self.do_close();
            self.lap(&mut lap, Stage::Write, had_dirty);
        }
    }

    /// Close a batch phase that did work: record the time since the
    /// previous lap under `stage` and start the next lap.
    fn lap(&self, lap: &mut Option<Instant>, stage: Stage, worked: bool) {
        if let (Some(since), true) = (*lap, worked) {
            let now = Instant::now();
            self.shared.metrics.on_stage(stage, now - since);
            *lap = Some(now);
        }
    }

    // ---- accept --------------------------------------------------------

    /// Accept until `WouldBlock`; every loop polls the shared listener
    /// (sharded accept), and ownership is dealt round-robin so
    /// connections spread evenly across loops regardless of which loop
    /// won the race to accept.
    fn accept_burst(&mut self) {
        while let Some(stream) = accept_one(&self.listener) {
            let n = self.peers.len();
            let target = if n <= 1 {
                self.idx
            } else {
                self.rr.fetch_add(1, Ordering::Relaxed) % n
            };
            if target == self.idx {
                self.register(stream, ConnKind::Wire(LineDecoder::new()));
            } else {
                let peer = &self.peers[target];
                if peer.injector.send(stream).is_ok() {
                    peer.waker.wake();
                }
            }
        }
    }

    fn accept_http_burst(&mut self) {
        while let Some(stream) = self.metrics_listener.as_ref().and_then(accept_one) {
            self.register(stream, ConnKind::Http(Vec::new()));
        }
    }

    /// Take ownership of connections handed over by sibling acceptors.
    fn adopt_injected(&mut self) {
        while let Ok(stream) = self.inj_rx.try_recv() {
            self.register(stream, ConnKind::Wire(LineDecoder::new()));
        }
    }

    fn register(&mut self, stream: TcpStream, kind: ConnKind) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        self.next_gen = self.next_gen.wrapping_add(1);
        let token = (u64::from(self.next_gen) << 32) | slot as u64;
        if self
            .poller
            .add(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.conns[slot] = Some(Conn {
            stream,
            token,
            kind,
            out: Vec::new(),
            out_start: 0,
            armed: Interest::READ,
            paused: false,
            close_after_flush: false,
            dirty: false,
        });
    }

    // ---- readiness dispatch -------------------------------------------

    fn on_conn_event(&mut self, token: u64, readable: bool, writable: bool, hangup: bool) {
        let slot = (token & u64::from(u32::MAX)) as usize;
        let live = self
            .conns
            .get(slot)
            .and_then(|c| c.as_ref())
            .map(|c| c.token);
        // A stale event for a connection closed earlier this wakeup (or
        // a since-reused slot) must not touch the new occupant.
        if live != Some(token) {
            return;
        }
        if readable || hangup {
            self.read_conn(slot);
        }
        if writable {
            self.mark_dirty(slot);
        }
    }

    fn mark_dirty(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].as_mut() {
            if !conn.dirty {
                conn.dirty = true;
                self.dirty.push(slot);
            }
        }
    }

    /// Drain a readable connection (bounded) and run the wire or HTTP
    /// state machine over the bytes.
    fn read_conn(&mut self, slot: usize) {
        let num_apis = self.shared.routing.stages.len();
        let mut newly_dirty = false;
        let mut close_now = false;
        for _ in 0..READ_BUDGET {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if conn.paused {
                break;
            }
            let n = match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    // Peer finished sending. Flush what we owe and go.
                    if conn.pending_out() > 0 {
                        conn.close_after_flush = true;
                        conn.paused = true;
                        newly_dirty = true;
                    } else {
                        close_now = true;
                    }
                    break;
                }
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    close_now = true;
                    break;
                }
            };
            match &mut conn.kind {
                ConnKind::Wire(decoder) => {
                    decoder.feed(&self.scratch[..n], &mut self.items);
                    let token = conn.token;
                    for item in self.items.drain(..) {
                        let refused = match item {
                            WireItem::Request {
                                id,
                                api,
                                key,
                                trace,
                            } if api < num_apis => {
                                self.pending.push(PendingReq {
                                    token,
                                    id,
                                    api,
                                    key,
                                    trace,
                                });
                                continue;
                            }
                            WireItem::Request { id, .. } => id, // no such API
                            WireItem::Malformed => 0,
                        };
                        wire::push_reply(conn.out_buf(), "ERR", refused, b"");
                        newly_dirty = true;
                    }
                    // Backpressure, stage 1: a peer that pipelines but
                    // does not read loses its read interest before its
                    // replies can pile past the cap.
                    if conn.pending_out() >= self.max_out / 2 {
                        conn.paused = true;
                        newly_dirty = true;
                        break;
                    }
                }
                ConnKind::Http(head) => {
                    head.extend_from_slice(&self.scratch[..n]);
                    if head.len() > MAX_HTTP_HEAD {
                        close_now = true;
                        break;
                    }
                    if let Some(line_end) = http_head_complete(head) {
                        let request_line = String::from_utf8_lossy(&head[..line_end]).into_owned();
                        let http = self.http.as_ref().expect("http conns live on loop 0");
                        let (status, ctype, body) = http::route(&request_line, http);
                        let response = http::response_bytes(status, ctype, &body);
                        conn.out = response;
                        conn.out_start = 0;
                        conn.paused = true;
                        conn.close_after_flush = true;
                        newly_dirty = true;
                        break;
                    }
                }
            }
            if n < READ_CHUNK {
                break; // short read: the socket is drained
            }
        }
        if close_now {
            self.closing.push(slot);
        } else if newly_dirty {
            self.mark_dirty(slot);
        }
    }

    // ---- completions ---------------------------------------------------

    /// Encode worker completions into their owning connections' output.
    fn drain_completions(&mut self) {
        while let Ok(c) = self.comp_rx.try_recv() {
            if let Some(out) = out_of(&mut self.conns, &mut self.dirty, c.token) {
                match c.served_micros {
                    Some(us) => wire::push_reply(out, "OK", c.id, obs::fmt_u64(&mut [0; 20], us)),
                    None => wire::push_reply(out, "ERR", c.id, b""),
                }
            }
        }
    }

    // ---- batched admission --------------------------------------------

    /// One admission lock and one clock read for every request this
    /// wakeup produced, then per-verdict bookkeeping — itself per wakeup:
    /// tallies, not counters.
    ///
    /// The lock scope runs the whole stage pipeline per request —
    /// coalescing lookup, priority gate, token bucket, and (for a
    /// leading read) flight registration — but *no* I/O or metric
    /// work: responses, traces and counters happen after release.
    fn admit_pending(&mut self) {
        // Disjoint borrows of the loop's fields: the scratch vectors are
        // filled and emptied in place, wakeup after wakeup.
        let EventLoop {
            pending,
            verdicts,
            tallies,
            hit_payloads,
            shared,
            conns,
            dirty,
            comp_tx,
            waker,
            ..
        } = self;
        if pending.is_empty() {
            return;
        }
        let metrics = &shared.metrics;
        let now = shared.clock.now();
        // Front-stage profiling samples the *first* request of the batch
        // only — a bounded number of extra clock reads per wakeup.
        let mut front_door_sample: Option<Duration> = None;
        let mut bucket_sample: Option<Duration> = None;
        {
            let mut adm = relock(&shared.admission);
            let LiveAdmission { entry, front } = &mut *adm;
            for (i, p) in pending.iter().enumerate() {
                let api = cluster::ApiId(p.api as u32);
                let sample = i == 0;
                let lead = if let Some(front) = front.as_mut() {
                    let business = front.business(p.api);
                    let user = front.user_level(p.id);
                    let t_fd = sample.then(Instant::now);
                    let pre = front.door.pre_admit(api, p.key, business, user, now);
                    if let Some(t_fd) = t_fd {
                        front_door_sample = Some(t_fd.elapsed());
                    }
                    match pre {
                        PreVerdict::CacheHit(payload) => {
                            let start = hit_payloads.len();
                            hit_payloads.extend_from_slice(payload.as_bytes());
                            verdicts.push(Verdict::CacheHit(start..hit_payloads.len()));
                            continue;
                        }
                        PreVerdict::Follower { .. } => {
                            let reply = ReplySink::new(p.token, comp_tx.clone(), waker.clone());
                            front.park(api.0, p.key.expect("followers carry a key"), p.id, reply);
                            verdicts.push(Verdict::Parked);
                            continue;
                        }
                        PreVerdict::Shed { .. } => {
                            verdicts.push(Verdict::Reject { shed: true });
                            continue;
                        }
                        PreVerdict::Proceed { lead } => lead,
                    }
                } else {
                    false
                };
                let t_tb = sample.then(Instant::now);
                let admitted = entry.try_admit(api, now);
                if let Some(t_tb) = t_tb {
                    bucket_sample = Some(t_tb.elapsed());
                }
                if admitted {
                    let flight = if lead {
                        let key = p.key.expect("a leading read carries a key");
                        front
                            .as_mut()
                            .expect("lead implies a front door")
                            .door
                            .begin_flight(api, key, p.id);
                        Some((api.0, key))
                    } else {
                        None
                    };
                    verdicts.push(Verdict::Submit { flight });
                } else {
                    verdicts.push(Verdict::Reject { shed: false });
                }
            }
        }
        if let Some(d) = front_door_sample {
            metrics.on_stage(Stage::FrontDoor, d);
        }
        if let Some(d) = bucket_sample {
            metrics.on_stage(Stage::TokenBucket, d);
        }
        let accepted = Instant::now();
        let at = now.as_secs_f64();
        let trace_ev = |p: &PendingReq, stage: &str, outcome: &str| {
            metrics.record_trace(p.trace, p.id, p.api, stage, outcome, (at, 0.0));
        };
        for (p, verdict) in pending.iter().zip(verdicts.iter()) {
            let tally = &mut tallies[p.api];
            tally.offered += 1;
            match verdict {
                Verdict::Submit { flight } => {
                    tally.admitted += 1;
                    trace_ev(p, "token_bucket", "admitted");
                    let reply = ReplySink::new(p.token, comp_tx.clone(), waker.clone());
                    shared.routing.submit(
                        Job {
                            id: p.id,
                            api: p.api,
                            accepted,
                            enqueued: accepted,
                            stage: 0,
                            flight: *flight,
                            trace: p.trace,
                            reply,
                        },
                        metrics,
                    );
                }
                Verdict::CacheHit(payload) => {
                    // A cached read never touches the worker pool: it is
                    // admitted and completed in the same wakeup, with
                    // effectively zero service latency.
                    tally.admitted += 1;
                    tally.cache_hits += 1;
                    tally.hit_traces.extend(p.trace);
                    trace_ev(p, "front_door", "cache_hit");
                    trace_ev(p, "reply", "sent");
                    if let Some(out) = out_of(conns, dirty, p.token) {
                        wire::push_reply(out, "OK", p.id, &hit_payloads[payload.clone()]);
                    }
                }
                Verdict::Parked => {
                    // Counted admitted now; completion metrics land when
                    // the leader's flight settles (`front::settle_flight`).
                    tally.admitted += 1;
                    trace_ev(p, "front_door", "follower");
                }
                Verdict::Reject { shed } => {
                    tally.rejected += 1;
                    let class = if *shed {
                        trace_ev(p, "priority_gate", "shed");
                        "shed"
                    } else {
                        trace_ev(p, "token_bucket", "rejected");
                        "limit"
                    };
                    if let Some(out) = out_of(conns, dirty, p.token) {
                        wire::push_reply(out, "REJ", p.id, class.as_bytes());
                    }
                }
            }
        }
        // Counters land here, before `flush_dirty` writes this wakeup's
        // replies: whoever has read a reply finds it counted.
        for (api, tally) in tallies.iter_mut().enumerate() {
            metrics.flush_tally(api, tally);
        }
        pending.clear();
        verdicts.clear();
        hit_payloads.clear();
    }

    // ---- write side ----------------------------------------------------

    fn flush_dirty(&mut self) {
        while let Some(slot) = self.dirty.pop() {
            self.flush_conn(slot);
        }
    }

    /// Write as much pending output as the socket accepts, then settle
    /// backpressure state and poller interest.
    fn flush_conn(&mut self, slot: usize) {
        let max_out = self.max_out;
        let Some(conn) = self.conns.get_mut(slot).and_then(|s| s.as_mut()) else {
            return;
        };
        conn.dirty = false;
        while conn.out_start < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_start..]) {
                Ok(0) => {
                    self.closing.push(slot);
                    return;
                }
                Ok(n) => conn.out_start += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.closing.push(slot);
                    return;
                }
            }
        }
        let pending = conn.pending_out();
        if pending == 0 {
            conn.out.clear();
            conn.out_start = 0;
            if conn.close_after_flush {
                self.closing.push(slot);
                return;
            }
            // Backpressure, stage 1 release: the laggard caught up.
            if conn.paused {
                conn.paused = false;
            }
        } else if pending > max_out {
            // Backpressure, stage 2: the cap is a promise — a peer that
            // will not read its replies is disconnected, not buffered
            // without bound.
            self.closing.push(slot);
            return;
        }
        let desired = Interest {
            readable: !conn.paused && !conn.close_after_flush,
            writable: conn.pending_out() > 0,
        };
        if desired != conn.armed
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), conn.token, desired)
                .is_ok()
        {
            conn.armed = desired;
        }
    }

    fn do_close(&mut self) {
        while let Some(slot) = self.closing.pop() {
            if let Some(conn) = self.conns[slot].take() {
                let _ = self.poller.remove(conn.stream.as_raw_fd());
                self.free.push(slot);
                // dropping `conn.stream` closes the socket
            }
        }
    }
}

/// The next pending connection of a non-blocking listener, if any.
fn accept_one(listener: &TcpListener) -> Option<TcpStream> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => return Some(stream),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return None, // `WouldBlock`: the backlog is drained
        }
    }
}

/// The output buffer of the connection `token` was minted for, marked
/// dirty for this wakeup's flush — `None` if that connection is gone
/// (its slot may hold a newer one; a reply must never reach that).
fn out_of<'c>(
    conns: &'c mut [Option<Conn>],
    dirty: &mut Vec<usize>,
    token: u64,
) -> Option<&'c mut Vec<u8>> {
    let slot = (token & u64::from(u32::MAX)) as usize;
    let conn = conns.get_mut(slot)?.as_mut()?;
    if conn.token != token {
        return None;
    }
    if !conn.dirty {
        conn.dirty = true;
        dirty.push(slot);
    }
    Some(conn.out_buf())
}

/// If the request head is complete (blank line seen), return the length
/// of the request line (up to but excluding the first newline).
fn http_head_complete(head: &[u8]) -> Option<usize> {
    let complete =
        head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n");
    if !complete {
        return None;
    }
    Some(head.iter().position(|&b| b == b'\n').unwrap_or(head.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn http_head_completion_detects_terminators() {
        assert_eq!(http_head_complete(b"GET /metrics HTTP/1.1\r\n"), None);
        // The request line runs up to the first `\n`; the trailing `\r`
        // is whitespace to the router.
        assert_eq!(
            http_head_complete(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"),
            Some(22)
        );
        assert_eq!(http_head_complete(b"GET /trace HTTP/1.0\n\n"), Some(19));
        assert_eq!(http_head_complete(b""), None);
    }
}
