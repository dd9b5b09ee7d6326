//! The worker pool: real threads burning real CPU along the application
//! DAG.
//!
//! Each service gets **one worker thread** and a bounded queue
//! (`mpsc::sync_channel` sized to the topology's `queue_capacity`). A
//! request admitted by the gateway becomes a [`Job`] that hops through
//! the per-API stage list — the pre-order flattening of the API's
//! primary call path — burning `cost × cpu_scale / (replicas ×
//! pod_speed)` of wall-clock CPU at every stage. Dividing the burn by
//! the replica count makes the single thread emulate the whole replica
//! pool: its busy fraction of the window equals the pool utilization the
//! simulator would report, so relative bottlenecks (recommendation
//! before frontend, etc.) land in the same order as in the simulator.
//!
//! ## Completion handoff
//!
//! Workers never touch sockets. A finished (or shed) job's outcome
//! goes back to the event loop that owns the connection through a
//! [`ReplySink`]: an unbounded completion queue plus that loop's
//! [`Waker`]. The loop drains the queue on wakeup, encodes each reply
//! line straight into the owning connection's output buffer with the
//! [`crate::wire`] encoder (connections are identified by
//! generation-tagged tokens, so a completion for a closed-and-reused
//! slot is dropped, not misdelivered) and flushes once per wakeup —
//! response syscalls are amortized across however many completions the
//! burst produced.
//!
//! Divergence from the simulator, by design (documented in DESIGN.md
//! §12): stages execute **linearly** — fan-out children run one after
//! another on the child service's thread rather than in parallel — and
//! only the primary (first) path of a branching API is exercised.

use crate::clock::WallClock;
use crate::front::{self, LiveAdmission};
use crate::metrics::LiveMetrics;
use crate::poller::Waker;
use cluster::Topology;
use simnet::SimTime;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One hop of a request's execution path.
#[derive(Clone, Copy, Debug)]
pub struct Stage {
    pub service: usize,
    /// Wall-clock CPU to burn at this hop.
    pub burn: Duration,
}

/// A request's outcome travelling from a worker back to the event loop
/// that owns the connection; the loop encodes the reply line.
pub struct Completion {
    /// Generation-tagged connection token ([`ReplySink::token`]).
    pub token: u64,
    /// The request id the reply echoes.
    pub id: u64,
    /// `Some(end-to-end latency in µs)` answers `OK <id> <latency>`;
    /// `None` answers `ERR <id>`.
    pub served_micros: Option<u64>,
}

/// Route back to one connection on one event loop. Cloned into every
/// job admitted on that connection.
#[derive(Clone)]
pub struct ReplySink {
    /// The owning loop's token for the connection (slot + generation).
    pub token: u64,
    tx: Sender<Completion>,
    waker: Waker,
}

impl ReplySink {
    pub fn new(token: u64, tx: Sender<Completion>, waker: Waker) -> Self {
        ReplySink { token, tx, waker }
    }

    /// Queue the request's outcome — `Some(end-to-end latency)` answers
    /// `OK <id> <latency µs>`, `None` answers `ERR <id>` — and wake the
    /// owning loop. Wakes coalesce in the loop's eventfd, so a burst of
    /// completions costs one wakeup.
    pub fn send(&self, id: u64, served: Option<Duration>) {
        let completion = Completion {
            token: self.token,
            id,
            served_micros: served.map(|latency| latency.as_micros() as u64),
        };
        if self.tx.send(completion).is_ok() {
            self.waker.wake();
        }
    }
}

/// A request in flight through the worker pool.
pub struct Job {
    pub id: u64,
    pub api: usize,
    /// When the gateway admitted the request (end-to-end latency anchor).
    pub accepted: Instant,
    /// When the job entered the current service queue.
    pub enqueued: Instant,
    /// Index into the API's stage list.
    pub stage: usize,
    /// `(api, key)` when this job leads a coalesced read; its
    /// completion (or failure) settles the flight and releases the
    /// followers parked behind it.
    pub flight: Option<(u32, u64)>,
    /// Causal-tracing opt-in: the wire line's trace id, threaded through
    /// the worker pool so completion events and the latency exemplar
    /// link back to the same trace.
    pub trace: Option<u64>,
    /// Completion route to the owning connection's event loop.
    pub reply: ReplySink,
}

/// Immutable routing table shared by the gateway and every worker.
pub struct Routing {
    /// Per-API linear stage lists.
    pub stages: Vec<Vec<Stage>>,
    /// Per-service bounded work queues.
    pub queues: Vec<SyncSender<Job>>,
    pub slo: Duration,
    /// The server's clock, for trace timestamps and flight settles.
    pub clock: WallClock,
    /// The gateway's admission bank, for settling coalesced flights
    /// from worker threads. `None` when no front door is configured.
    pub admission: Option<Arc<Mutex<LiveAdmission>>>,
}

impl Routing {
    /// Submit `job` to the queue of its current stage's service,
    /// recording metrics on both outcomes. Returns `false` (and replies
    /// `ERR`) when the queue is full.
    pub fn submit(&self, job: Job, metrics: &LiveMetrics) -> bool {
        let svc = self.stages[job.api][job.stage].service;
        let api = job.api;
        match self.queues[svc].try_send(job) {
            Ok(()) => {
                metrics.depth_inc(svc);
                true
            }
            Err(err) => {
                let job = match err {
                    TrySendError::Full(j) => j,
                    TrySendError::Disconnected(j) => j,
                };
                metrics.on_dropped(svc);
                metrics.on_failed(api);
                let now = self.clock.now();
                let at = (now.as_secs_f64(), 0.0);
                metrics.record_trace(job.trace, job.id, api, "worker", "error", at);
                job.reply.send(job.id, None);
                // A failed leader clears its flight so followers fail
                // fast instead of hanging on a leader that will never
                // complete.
                self.settle(job.flight, metrics, None, now);
                false
            }
        }
    }
}

impl Routing {
    /// Settle the coalesced flight a finished job led, if it led one:
    /// publish `payload` (or the failure) and answer the parked followers.
    fn settle(
        &self,
        flight: Option<(u32, u64)>,
        metrics: &LiveMetrics,
        payload: Option<&str>,
        now: SimTime,
    ) {
        if let (Some((api, key)), Some(adm)) = (flight, self.admission.as_deref()) {
            front::settle_flight(adm, metrics, self.slo, api, key, payload, now);
        }
    }
}

/// Flatten the primary path of each API into a linear stage list.
///
/// `cpu_scale` rescales every burn so the pool's saturation point can be
/// tuned to the host: capacity scales as `1 / cpu_scale`.
pub fn build_stages(topo: &Topology, cpu_scale: f64) -> Vec<Vec<Stage>> {
    topo.apis()
        .map(|(_, api)| {
            let mut stages = Vec::new();
            let (_, root) = &api.paths[0];
            root.visit(&mut |node| {
                let svc = topo.service(node.service);
                let burn =
                    node.cost.as_secs_f64() * cpu_scale / (f64::from(svc.replicas) * svc.pod_speed);
                stages.push(Stage {
                    service: node.service.0 as usize,
                    burn: Duration::from_secs_f64(burn.max(0.0)),
                });
            });
            stages
        })
        .collect()
}

/// The pool of per-service worker threads.
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn one worker per service and return the pool plus the routing
    /// table to feed it through.
    pub fn start(
        topo: &Topology,
        cpu_scale: f64,
        slo: Duration,
        clock: WallClock,
        metrics: &Arc<LiveMetrics>,
        shutdown: &Arc<AtomicBool>,
        admission: Option<Arc<Mutex<LiveAdmission>>>,
    ) -> (Self, Arc<Routing>) {
        let stages = build_stages(topo, cpu_scale);
        let mut queues = Vec::with_capacity(topo.num_services());
        let mut receivers = Vec::with_capacity(topo.num_services());
        for (_, svc) in topo.services() {
            let (tx, rx) = sync_channel::<Job>(svc.queue_capacity as usize);
            queues.push(tx);
            receivers.push(rx);
        }
        let routing = Arc::new(Routing {
            stages,
            queues,
            slo,
            clock,
            admission,
        });
        let handles = receivers
            .into_iter()
            .enumerate()
            .map(|(svc, rx)| {
                let routing = Arc::clone(&routing);
                let metrics = Arc::clone(metrics);
                let shutdown = Arc::clone(shutdown);
                std::thread::Builder::new()
                    .name(format!("live-worker-{svc}"))
                    .spawn(move || worker_loop(svc, &rx, &routing, &metrics, &shutdown))
                    .expect("spawn worker thread")
            })
            .collect();
        (WorkerPool { handles }, routing)
    }

    /// Join all workers. Call after the shutdown flag is set; the routing
    /// table (and its senders) must be dropped by then or workers linger
    /// until the next 25ms poll.
    pub fn join(self) {
        for h in self.handles {
            let _ = h.join();
        }
    }
}

fn worker_loop(
    svc: usize,
    rx: &Receiver<Job>,
    routing: &Routing,
    metrics: &LiveMetrics,
    shutdown: &AtomicBool,
) {
    while !shutdown.load(Ordering::Relaxed) {
        let Ok(mut job) = rx.recv_timeout(Duration::from_millis(25)) else {
            continue;
        };
        metrics.depth_dec(svc);
        let started = Instant::now();
        metrics.on_started(svc, started.duration_since(job.enqueued));
        let burn = routing.stages[job.api][job.stage].burn;
        spin_burn(burn);
        // Measured, not nominal: preemption stretches the spin, and the
        // detector should see the wall time this thread truly held.
        metrics.on_busy(svc, started.elapsed());
        job.stage += 1;
        if job.stage < routing.stages[job.api].len() {
            job.enqueued = Instant::now();
            routing.submit(job, metrics);
        } else {
            let latency = job.accepted.elapsed();
            metrics.on_complete_traced(job.api, latency, routing.slo, job.trace);
            // Two closing events per traced request: the worker span
            // covering admission → completion, and the reply handoff.
            let end = routing.clock.now();
            let (end_secs, lat_secs) = (end.as_secs_f64(), latency.as_secs_f64());
            let served = (end_secs - lat_secs, lat_secs);
            metrics.record_trace(job.trace, job.id, job.api, "worker", "served", served);
            metrics.record_trace(job.trace, job.id, job.api, "reply", "sent", (end_secs, 0.0));
            job.reply.send(job.id, Some(latency));
            // A completed leader publishes its payload to the response
            // cache and releases the followers parked on its flight.
            let payload = job.flight.map(|_| latency.as_micros().to_string());
            routing.settle(job.flight, metrics, payload.as_deref(), end);
        }
    }
}

/// Burn CPU for `d` by spinning — sleep would model waiting, not work,
/// and the utilization signal the detector consumes must reflect genuine
/// busy time on the core.
fn spin_burn(d: Duration) {
    let end = Instant::now() + d;
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ApiSpec, CallNode, ServiceSpec, Topology};
    use simnet::SimDuration;
    use std::sync::mpsc::channel;

    fn test_sink(token: u64) -> (ReplySink, Receiver<Completion>) {
        let (tx, rx) = channel();
        let waker = Waker::new().expect("eventfd");
        (ReplySink::new(token, tx, waker), rx)
    }

    fn two_stage_topo() -> Topology {
        let mut t = Topology::default();
        let front = t.add_service(ServiceSpec::new("front", 2).queue_capacity(4));
        let back = t.add_service(ServiceSpec::new("back", 1).queue_capacity(4));
        t.add_api(ApiSpec::single(
            "get",
            CallNode {
                service: front,
                cost: SimDuration::from_micros(200),
                children: vec![CallNode::leaf(back, SimDuration::from_micros(100))],
            },
        ));
        t
    }

    #[test]
    fn stages_flatten_primary_path_with_replica_scaling() {
        let topo = two_stage_topo();
        let stages = build_stages(&topo, 1.0);
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].len(), 2);
        assert_eq!(stages[0][0].service, 0);
        // 200µs over 2 replicas → 100µs of real burn.
        assert_eq!(stages[0][0].burn, Duration::from_micros(100));
        assert_eq!(stages[0][1].service, 1);
        assert_eq!(stages[0][1].burn, Duration::from_micros(100));
        // cpu_scale rescales linearly.
        let scaled = build_stages(&topo, 0.5);
        assert_eq!(scaled[0][0].burn, Duration::from_micros(50));
    }

    #[test]
    fn jobs_traverse_stages_and_complete_with_tagged_tokens() {
        let topo = two_stage_topo();
        let metrics = Arc::new(LiveMetrics::new(1, 2));
        let shutdown = Arc::new(AtomicBool::new(false));
        let (pool, routing) = WorkerPool::start(
            &topo,
            1.0,
            Duration::from_millis(100),
            WallClock::start(),
            &metrics,
            &shutdown,
            None,
        );
        let (sink, rx) = test_sink(0xAB00_0001);
        let now = Instant::now();
        for id in 0..8 {
            let ok = routing.submit(
                Job {
                    id,
                    api: 0,
                    accepted: now,
                    enqueued: Instant::now(),
                    stage: 0,
                    flight: None,
                    trace: None,
                    reply: sink.clone(),
                },
                &metrics,
            );
            assert!(ok, "queue of 4 drains fast enough for 8 paced jobs");
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut oks = 0;
        for _ in 0..8 {
            let c = rx
                .recv_timeout(Duration::from_secs(2))
                .expect("completion within 2s");
            assert_eq!(c.token, 0xAB00_0001, "completion carries the conn token");
            assert!(c.served_micros.is_some(), "request {} answered ERR", c.id);
            oks += 1;
        }
        assert_eq!(oks, 8);
        shutdown.store(true, Ordering::Relaxed);
        drop(routing);
        pool.join();
    }

    #[test]
    fn full_queue_rejects_with_err() {
        let mut t = Topology::default();
        let s = t.add_service(ServiceSpec::new("slow", 1).queue_capacity(1));
        t.add_api(ApiSpec::single(
            "one",
            CallNode::leaf(s, SimDuration::from_millis(20)),
        ));
        let metrics = Arc::new(LiveMetrics::new(1, 1));
        let shutdown = Arc::new(AtomicBool::new(false));
        let (pool, routing) = WorkerPool::start(
            &t,
            1.0,
            Duration::from_millis(100),
            WallClock::start(),
            &metrics,
            &shutdown,
            None,
        );
        let (sink, rx) = test_sink(1);
        // Flood far past the queue bound; at least one ERR must surface.
        let mut accepted = 0;
        for id in 0..32 {
            if routing.submit(
                Job {
                    id,
                    api: 0,
                    accepted: Instant::now(),
                    enqueued: Instant::now(),
                    stage: 0,
                    flight: None,
                    trace: None,
                    reply: sink.clone(),
                },
                &metrics,
            ) {
                accepted += 1;
            }
        }
        assert!(accepted < 32, "bounded queue must shed some of the flood");
        let mut errs = 0;
        while let Ok(c) = rx.try_recv() {
            if c.served_micros.is_none() {
                errs += 1;
            }
        }
        assert_eq!(errs, 32 - accepted, "every shed job replied ERR");
        shutdown.store(true, Ordering::Relaxed);
        drop(routing);
        pool.join();
    }
}
