//! The discrete-event cluster engine.
//!
//! [`Engine`] executes a [`Topology`] under a [`Workload`]: requests
//! arrive at the gateway, traverse their API's call tree across services
//! and pods, and complete (within or beyond the SLO) or fail. The engine
//! also runs the metrics window, the HPA + VM-pool autoscaler, the
//! crash-loop prober and injected failures — everything that happens
//! *inside* the cluster. Overload controllers live outside: entry
//! controllers set gateway rate limits between [`Engine::run_until`]
//! calls (see [`crate::harness`]), and per-service admission controllers
//! plug in via [`Engine::set_admission`].
//!
//! ## Module layout
//!
//! * [`mod@self`] — the [`Engine`] facade: construction, the public
//!   control surface, and the `run_until` event loop.
//! * `lifecycle` — request arrival, dispatch, subtree fan-out, and
//!   completion/teardown.
//! * `requests` — the live-request slab and its stale-id rule.
//! * `pods` — the `Pod`/`ServiceRt` runtime: crash loops, epochs,
//!   scaling, and the VM pool.
//! * `metrics` — per-window accumulators, window close, and observation
//!   building.
//! * `planes` — the uniform request-lifecycle hook (`planes::Plane`, not
//!   the control loop's [`crate::Plane`]) through which admission,
//!   resilience, and fault injection observe and veto a request.
//!
//! ## Determinism
//!
//! The engine is single-threaded, draws randomness from one seeded RNG,
//! and uses a FIFO-stable event queue — a run is a pure function of
//! `(topology, config, workload, seed, control inputs)`. The queue pops
//! in the unique `(time, schedule order)` order, so a run is fixed by
//! *which events the handlers schedule, in which order, and which RNG
//! draws they make* — how requests, call trees and events are stored
//! (slab slots, shared templates, recycled buffers) is free to change
//! without moving a bit of any result. That covers the three users of
//! [`EventQueue::schedule_fifo`]'s lanes: the two hops in `lifecycle` — a
//! call out, a join back, each `HOP_LATENCY` ahead of the clock — on the
//! hop lane; closed-loop arrivals (`user.is_some()`), paced from their
//! user's last issue time, on the arrival lane; and their client timeouts
//! on the timeout lane. An open loop's arrivals, drawn a tick ahead per
//! API, keep `schedule`. The hint that events are born (nearly) in pop
//! order takes the same sequence number `schedule` would and is declined
//! whenever an event's place is too far behind its lane's tail (the hops
//! scheduled behind a fault-plane delay, a population's staggered first
//! requests), so it chooses where an event waits, never when it fires.

mod lifecycle;
mod metrics;
mod planes;
mod pods;
mod requests;
#[cfg(test)]
mod tests;

pub use metrics::ApiTotals;

use crate::admission::AdmissionControl;
use crate::autoscaler::{Hpa, HpaConfig, VmPool, VmPoolConfig};
use crate::entry_admission::EntryAdmission;
use crate::faults::FaultSpec;
use crate::front::{FrontConfig, FrontDoor};
use crate::observe::ClusterObservation;
use crate::resilience::{EdgeBreakers, ResilienceConfig, ResilienceStats};
use crate::topology::{CallTemplate, Topology};
use crate::tracing::TraceCollector;
use crate::types::{ApiId, ServiceId};
use crate::workload::{Arrival, UserRef, Workload};
use metrics::MetricsState;
use planes::Planes;
use pods::ServiceRt;
use rand::rngs::SmallRng;
use rand_distr::LogNormal;
use requests::{ReqId, RequestTable};
use simnet::{EventQueue, SimDuration, SimTime};

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Root RNG seed; forked per concern.
    pub seed: u64,
    /// Latency SLO defining goodput (paper: 1 s).
    pub slo: SimDuration,
    /// Observation / control window (paper: 1 s).
    pub control_interval: SimDuration,
    /// Log-normal sigma of service-time jitter (0 disables).
    pub service_jitter: f64,
    /// Gateway token-bucket depth in seconds of rate.
    pub gateway_burst_secs: f64,
    /// Time for a new pod to become ready once vCPUs are available.
    pub pod_startup: SimDuration,
    /// When true, the observation's `api_paths` come from the distributed
    /// tracing collector (paths *learned* from spans, §4.1/§5) instead of
    /// the static topology union.
    pub learn_paths: bool,
    /// Raw spans to retain in the collector for inspection (0 = none);
    /// only meaningful with `learn_paths`.
    pub trace_raw_buffer: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            seed: 1,
            slo: SimDuration::from_secs(1),
            control_interval: SimDuration::from_secs(1),
            service_jitter: 0.1,
            gateway_burst_secs: 0.05,
            pod_startup: SimDuration::from_secs(10),
            learn_paths: false,
            trace_raw_buffer: 0,
        }
    }
}

/// Front-door admission runtime: the shared [`FrontDoor`] stages plus a
/// dedicated RNG fork so enabling the plane leaves the base simulation
/// streams untouched. The engine-side flight bookkeeping (which key a
/// request leads, who is parked on it) rides in the leader's request
/// entry.
struct FrontState {
    door: FrontDoor,
    rng: SmallRng,
    /// Per-API coalescing key space (0 = API not coalescable).
    key_space: Vec<u64>,
    /// Entry-limit rejection total at the last journaled window.
    rate_limited_base: u64,
}

/// How long a service stays on a learned path without fresh spans
/// (`learn_paths`).
const TRACE_WINDOW: SimDuration = SimDuration::from_secs(60);

/// One-way network latency per hop, every hop's.
const HOP_LATENCY: SimDuration = SimDuration::from_micros(500);

/// The event queue's lanes (see "Determinism" above).
const HOP_LANE: usize = 0;
const ARRIVAL_LANE: usize = 1;
const TIMEOUT_LANE: usize = 2;

// Every lane entry carries an `Ev` inline: a wider variant widens them all.
const _: () = assert!(std::mem::size_of::<Ev>() == 32);

enum Ev {
    /// A request reaches the gateway at the event's own time.
    Arrival {
        api: ApiId,
        user: Option<UserRef>,
    },
    /// A call travelling to `svc`. Service and cost are embedded so the
    /// call still executes (as wasted work) when its request has already
    /// failed elsewhere in the tree — an in-flight RPC fan-out does not
    /// recall sub-requests that were already sent.
    CallArrive {
        req: ReqId,
        node: u32,
        svc: ServiceId,
        cost: SimDuration,
    },
    PodDone {
        svc: ServiceId,
        pod: u32,
        epoch: u64,
    },
    NodeJoin {
        req: ReqId,
        node: u32,
    },
    MetricsTick,
    WorkloadTick,
    ClientTimeout {
        user: UserRef,
    },
    /// A starting pod of `svc` became ready.
    PodReady {
        svc: ServiceId,
    },
    /// A crashed pod restarts.
    PodRestart {
        svc: ServiceId,
        pod: u32,
        epoch: u64,
    },
    VmReady,
    InjectFailure(usize),
}

/// The cluster engine. See module docs.
pub struct Engine {
    topo: Topology,
    cfg: EngineConfig,
    queue: EventQueue<Ev>,
    /// Clock floor: `run_until` advances this beyond the last event.
    now_floor: SimTime,
    services: Vec<ServiceRt>,
    /// The entry limiter bank, one token bucket per API (§5).
    entry: EntryAdmission,
    workload: Box<dyn Workload>,
    /// Admission, resilience, and fault-injection hooks (see `planes`).
    planes: Planes,
    hpa: Option<Hpa>,
    vm_pool: VmPool,
    /// Scheduled pod kills, `(service, pods)`, indexed by
    /// `Ev::InjectFailure`.
    kills: Vec<(ServiceId, u32)>,
    /// Front-door admission plane (coalescing + priority), when enabled.
    front: Option<FrontState>,
    /// One flattened call tree per `(api, path)`, shared by every
    /// request on that path; `api_templates[api] + path` indexes it.
    templates: Vec<CallTemplate>,
    api_templates: Vec<u32>,
    requests: RequestTable,
    /// Requests admitted so far; the next request's span id.
    next_serial: u64,
    rng: SmallRng,
    /// Mean-preserving service-time jitter, `None` when disabled.
    jitter: Option<LogNormal>,
    /// Scratch the workload's tick fills with arrivals.
    tick_arrivals: Vec<Arrival>,
    /// Per-window and cumulative metric accumulators.
    metrics: MetricsState,
    tracer: Option<TraceCollector>,
    /// Live root requests per closed-loop user as `(generation, request)`,
    /// so a firing client timeout can tear down the in-flight subtree.
    /// Indexed by user id; a user re-activated while an abandoned
    /// request is still in flight briefly holds two entries.
    user_reqs: Vec<Vec<(u64, ReqId)>>,
    /// Services whose pods crashed at least once (for assertions in tests
    /// and experiment reporting).
    pub crash_events: u64,
    /// Metrics registry; plane counters are adopted into it at build.
    registry: obs::Registry,
    /// Decision journal for per-window plane-veto / fault-telemetry
    /// aggregates (attached by the harness; `None` = not recording).
    journal: Option<std::sync::Arc<obs::Journal>>,
}

impl Engine {
    /// Build an engine over `topo`, driven by `workload`.
    pub fn new(topo: Topology, cfg: EngineConfig, workload: Box<dyn Workload>) -> Self {
        let mut vm_pool = VmPool::new(VmPoolConfig {
            // Effectively unlimited until `set_vm_pool` is called.
            vcpus_per_vm: u32::MAX / 2,
            initial_vms: 1,
            max_vms: 1,
            vm_startup: SimDuration::from_secs(40),
        });
        let services: Vec<ServiceRt> = topo
            .services()
            .map(|(_, spec)| {
                for _ in 0..spec.replicas {
                    let ok = vm_pool.try_allocate_pod();
                    debug_assert!(ok, "initial pods exceed VM pool");
                }
                ServiceRt::fresh(spec.replicas)
            })
            .collect();
        let num_apis = topo.num_apis();
        let api_paths = topo.api_service_map();
        let tracer = cfg.learn_paths.then(|| {
            TraceCollector::new(num_apis, TRACE_WINDOW).with_raw_buffer(cfg.trace_raw_buffer)
        });
        let mut templates = Vec::new();
        let api_templates = topo
            .apis()
            .map(|(_, spec)| {
                let base = templates.len() as u32;
                templates.extend(spec.paths.iter().map(|(_, root)| CallTemplate::new(root)));
                base
            })
            .collect();
        // Mean-preserving log-normal: E[exp(N(-σ²/2, σ²))] = 1.
        let sigma = cfg.service_jitter;
        let jitter = (sigma > 0.0)
            .then(|| LogNormal::new(-sigma * sigma / 2.0, sigma).expect("valid lognormal"));
        let rng = simnet::rng::fork(cfg.seed, "engine");
        let seed_for_faults = cfg.seed;
        let mut queue = EventQueue::new();
        queue.schedule(SimTime::ZERO, Ev::WorkloadTick);
        queue.schedule(SimTime::ZERO + cfg.control_interval, Ev::MetricsTick);
        let planes = Planes::new(simnet::rng::fork(seed_for_faults, "faults"));
        let registry = obs::Registry::new();
        planes.register_into(&registry);
        Engine {
            entry: EntryAdmission::new(num_apis, cfg.gateway_burst_secs),
            topo,
            cfg,
            queue,
            now_floor: SimTime::ZERO,
            services,
            workload,
            planes,
            hpa: None,
            vm_pool,
            kills: Vec::new(),
            front: None,
            templates,
            api_templates,
            requests: RequestTable::default(),
            next_serial: 0,
            rng,
            jitter,
            tick_arrivals: Vec::new(),
            metrics: MetricsState::new(num_apis, api_paths),
            tracer,
            user_reqs: Vec::new(),
            crash_events: 0,
            registry,
            journal: None,
        }
    }

    /// The engine's metrics registry: resilience events, per-plane veto
    /// counts, and fault-plane telemetry distortions, as cumulative
    /// instruments renderable in Prometheus text format.
    pub fn registry(&self) -> &obs::Registry {
        &self.registry
    }

    /// Attach a decision journal. The engine records one `PlaneVetoes`
    /// and one `FaultTelemetry` aggregate per observation window in which
    /// the respective counters moved.
    pub fn set_journal(&mut self, journal: std::sync::Arc<obs::Journal>) {
        self.journal = Some(journal);
    }

    /// Enable the request-plane resilience layer ([`crate::resilience`]):
    /// deadline propagation with doomed-work cancellation and/or
    /// per-edge circuit breakers. The deadline budget defaults to the
    /// workload's client timeout, falling back to the latency SLO.
    pub fn set_resilience(&mut self, cfg: ResilienceConfig) {
        let fallback = self.workload.client_timeout().unwrap_or(self.cfg.slo);
        self.planes.resilience.configure(cfg, fallback);
    }

    /// Cumulative resilience counters since the start of the run,
    /// including the window in progress.
    pub fn resilience_totals(&self) -> ResilienceStats {
        self.planes.resilience.totals(self.workload.retry_stats())
    }

    /// The edge breakers, when enabled (state inspection for tests).
    pub fn breakers(&self) -> Option<&EdgeBreakers> {
        self.planes.resilience.breakers.as_ref()
    }

    /// The tracing collector, when `learn_paths` is enabled.
    pub fn trace_collector(&self) -> Option<&TraceCollector> {
        self.tracer.as_ref()
    }

    /// Install a per-service admission controller (DAGOR, Breakwater).
    pub fn set_admission(&mut self, a: Box<dyn AdmissionControl>) {
        self.planes.admission.ctrl = Some(a);
    }

    /// Enable the front-door admission plane ([`crate::front`]) in
    /// front of the entry token bucket. `key_space[api]` is the number
    /// of distinct coalescing keys the workload draws for that API
    /// (0 = not coalescable); request keys and user priorities come
    /// from a dedicated `"front"` RNG fork, so runs without the plane
    /// are byte-identical to before it existed.
    pub fn set_front_door(&mut self, cfg: FrontConfig, mut key_space: Vec<u64>) {
        key_space.resize(self.topo.num_apis(), 0);
        let door = FrontDoor::new(cfg);
        door.stats().register_into(&self.registry);
        self.front = Some(FrontState {
            door,
            rng: simnet::rng::fork(self.cfg.seed, "front"),
            key_space,
            rate_limited_base: 0,
        });
    }

    /// The front door's instruments, when the plane is enabled.
    pub fn front_stats(&self) -> Option<&crate::front::FrontStats> {
        self.front.as_ref().map(|f| f.door.stats())
    }

    /// Enable the HPA over all services, flooring at current replicas.
    pub fn enable_hpa(&mut self, cfg: HpaConfig) {
        let mins: Vec<u32> = self.topo.services().map(|(_, s)| s.replicas).collect();
        self.hpa = Some(Hpa::new(cfg, mins));
    }

    /// Constrain the cluster to a finite VM pool (enables Fig. 19-style
    /// VM-provisioning delays). Panics if current pods don't fit.
    pub fn set_vm_pool(&mut self, cfg: VmPoolConfig) {
        let mut pool = VmPool::new(cfg);
        let total_pods: u32 = self.services.iter().map(|s| s.spec_pods()).sum();
        for _ in 0..total_pods {
            assert!(
                pool.try_allocate_pod(),
                "initial pods exceed configured VM pool"
            );
        }
        self.vm_pool = pool;
    }

    /// Install a schedule of [`FaultSpec`]s. Pod kills are events on the
    /// queue; all other faults (the gray-failure fault plane) are
    /// evaluated per event from their own RNG fork, so the base
    /// simulation streams are unperturbed.
    pub fn inject_faults(&mut self, specs: Vec<FaultSpec>) {
        for (at, service, pods) in self.planes.faults.add(specs) {
            self.kills.push((service, pods));
            let idx = self.kills.len() - 1;
            self.queue
                .schedule(at.max(self.now()), Ev::InjectFailure(idx));
        }
    }

    /// Whether the control plane is stalled right now (a
    /// [`FaultSpec::ControllerStall`] window is active). The harness
    /// checks this each tick and skips control while true.
    pub fn control_stalled(&self) -> bool {
        self.planes.faults.control_stalled(self.now())
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now().max(self.now_floor)
    }

    /// The topology under simulation.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Latest finalized observation window, if one has completed. This
    /// is the *controller-facing* view: telemetry faults (dropout,
    /// staleness, noise) have already been applied.
    pub fn latest_observation(&self) -> Option<&ClusterObservation> {
        self.metrics.latest_obs.as_ref()
    }

    /// Latest finalized window *before* telemetry faults — ground truth
    /// for measurement and experiment reporting.
    pub fn latest_true_observation(&self) -> Option<&ClusterObservation> {
        self.metrics.latest_true_obs.as_ref()
    }

    /// Set the entry rate limit for `api` (requests/s; infinity = none).
    pub fn set_rate_limit(&mut self, api: ApiId, rate: f64) {
        let now = self.now();
        self.entry.set_rate_limit(api, rate, now);
    }

    /// Current entry rate limit for `api`.
    pub fn rate_limit(&self, api: ApiId) -> f64 {
        self.entry.rate_limit(api)
    }

    /// Ready pods of a service.
    pub fn ready_pods(&self, svc: ServiceId) -> u32 {
        self.services[svc.idx()].ready_pods()
    }

    /// vCPUs currently allocated across the cluster.
    pub fn vcpus_used(&self) -> f64 {
        self.vm_pool.used()
    }

    /// Running VM count.
    pub fn vms(&self) -> u32 {
        self.vm_pool.vms()
    }

    /// Cumulative per-API counters since the start of the run.
    pub fn api_totals(&self, api: ApiId) -> ApiTotals {
        self.metrics.api_totals[api.idx()]
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.queue.events_processed()
    }

    /// Run the simulation up to (and including) time `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some((at, ev)) = self.queue.pop_until(t) {
            self.handle(at, ev);
        }
        self.now_floor = self.now_floor.max(t);
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Arrival { api, user } => self.on_arrival(now, Arrival { at: now, api, user }),
            Ev::CallArrive {
                req,
                node,
                svc,
                cost,
            } => self.on_call_arrive(now, req, node, svc, cost),
            Ev::PodDone { svc, pod, epoch } => self.on_pod_done(now, svc, pod, epoch),
            Ev::NodeJoin { req, node } => self.on_node_complete(now, req, node),
            Ev::MetricsTick => self.on_metrics_tick(now),
            Ev::WorkloadTick => self.on_workload_tick(now),
            Ev::ClientTimeout { user } => self.on_client_timeout(now, user),
            Ev::PodReady { svc } => self.on_pod_ready(now, svc),
            Ev::PodRestart { svc, pod, epoch } => self.on_pod_restart(now, svc, pod, epoch),
            Ev::VmReady => self.on_vm_ready(now),
            Ev::InjectFailure(i) => self.on_inject_failure(now, i),
        }
    }
}
