//! Scenario → engine/controller translation.
//!
//! Each tuning block's omitted keys are filled here (the `live` block's
//! in [`crate::live`]) from the library type's `Default`; the schema
//! states no default of its own.

use crate::schema::{
    AdmissionSpec, AppSpec, AutoscalerSpec, CallSpec, ControllerSpec, FaultSpecJson, PhaseSpec,
    RateSpec, ResilienceSpec, Scenario, ShardFaultJson, ShardingSpec, TrackSpec, WorkloadSpec,
};
use apps::{AlibabaDemo, OnlineBoutique, TrainTicket};
use baselines::Scheme;
use cluster::autoscaler::{HpaConfig, VmPoolConfig};
use cluster::engine::PENDING_ARRIVAL_BYTES;
use cluster::front::{CoalesceConfig, PriorityConfig};
use cluster::types::BusinessPriority;
use cluster::{
    ApiId, BreakerConfig, CallNode, ClosedLoopWorkload, Controller, DeadlineConfig, Engine,
    EngineConfig, NoControl, OpenLoopWorkload, RateSchedule, ResilienceConfig, RetryStormWorkload,
    ServiceId, Topology, Workload,
};
use rl::policy::PolicyValue;
use simnet::{SimDuration, SimTime};
use topfull::{TopFull, TopFullConfig};

/// A scenario compiled into runnable parts.
pub struct BuiltScenario {
    pub engine: Engine,
    pub controller: Box<dyn Controller>,
    /// API names in id order, for reporting.
    pub api_names: Vec<String>,
    /// Run under the harness watchdog (hardened TopFull).
    pub hardened: bool,
}

/// Resolve an API name, written at `key`, to its id (both planes name
/// APIs this way).
pub(crate) fn api_id(topo: &Topology, key: &str, name: &str) -> Result<ApiId, String> {
    topo.api_by_name(name)
        .ok_or_else(|| format!("{key}: unknown API '{name}'"))
}

/// Resolve a service name, written at `key`, to its id.
fn service_id(topo: &Topology, key: &str, name: &str) -> Result<ServiceId, String> {
    topo.service_by_name(name)
        .ok_or_else(|| format!("{key}: unknown service '{name}'"))
}

/// The call tree written at `key`.
fn build_call(topo: &Topology, key: &str, spec: &CallSpec) -> Result<CallNode, String> {
    let svc = service_id(topo, &format!("{key}.service"), &spec.service)?;
    let mut children = Vec::with_capacity(spec.children.len());
    for (k, c) in spec.children.iter().enumerate() {
        children.push(build_call(topo, &format!("{key}.children[{k}]"), c)?);
    }
    Ok(CallNode::with_children(
        svc,
        SimDuration::from_secs_f64(spec.cost_ms / 1e3),
        children,
    ))
}

/// Build the topology for an app spec. Shared by the simulator path and
/// the live plane (`crate::live`), which serves the identical topology
/// over TCP.
pub(crate) fn build_topology(app: &AppSpec) -> Result<Topology, String> {
    match app {
        AppSpec::Builtin {
            name,
            topology_seed,
            services,
            apis,
        } => {
            let mut topo = match name.as_str() {
                "online-boutique" => OnlineBoutique::build().topology,
                "train-ticket" => TrainTicket::build().topology,
                "alibaba-demo" => AlibabaDemo::build(*topology_seed).topology,
                other => {
                    let known = "online-boutique, train-ticket, alibaba-demo";
                    return Err(format!("unknown builtin app '{other}' (try {known})"));
                }
            };
            // The inline app's keys, clamped as `cluster::ServiceSpec::new`
            // and `ServiceSpec::pod_speed` clamp them.
            for (i, s) in services.iter().enumerate() {
                let id = service_id(&topo, &format!("app.services[{i}].name"), &s.name)?;
                let svc = topo.service_mut(id);
                if let Some(r) = s.replicas {
                    svc.replicas = r.max(1);
                }
                if let Some(p) = s.pod_speed {
                    *svc = svc.clone().pod_speed(p);
                }
            }
            for (i, a) in apis.iter().enumerate() {
                let id = api_id(&topo, &format!("app.apis[{i}].name"), &a.name)?;
                topo.api_mut(id).business = BusinessPriority(a.business_priority);
            }
            Ok(topo)
        }
        AppSpec::Inline { services, apis } => {
            if services.is_empty() {
                return Err("inline app needs at least one service".into());
            }
            if apis.is_empty() {
                return Err("inline app needs at least one API".into());
            }
            let mut topo = Topology::new("inline");
            for s in services {
                let mut spec = cluster::ServiceSpec::new(&s.name, s.replicas);
                if let Some(q) = s.queue_capacity {
                    spec = spec.queue_capacity(q);
                }
                if let Some(p) = s.pod_speed {
                    spec = spec.pod_speed(p);
                }
                if s.crash_on_overload {
                    spec = spec.crash_on_overload();
                }
                topo.add_service(spec);
            }
            for (i, a) in apis.iter().enumerate() {
                if a.paths.is_empty() {
                    return Err(format!("API '{}' has no paths", a.name));
                }
                let mut paths = Vec::with_capacity(a.paths.len());
                for (j, p) in a.paths.iter().enumerate() {
                    let key = format!("app.apis[{i}].paths[{j}].root");
                    paths.push((p.weight, build_call(&topo, &key, &p.root)?));
                }
                topo.add_api(
                    cluster::ApiSpec::branching(&a.name, paths)
                        .business(BusinessPriority(a.business_priority)),
                );
            }
            Ok(topo)
        }
    }
}

/// The most open-loop arrivals a second, summed over APIs, that `run`
/// can hold. A workload tick draws the next second's arrivals at once,
/// and each holds [`PENDING_ARRIVAL_BYTES`] until it fires: a 40-byte
/// `Arrival` in the tick buffer, then a 32-byte payload slot and a
/// 24-byte link in the event queue, 96 bytes in all. Each of the three is
/// a `Vec` that doubles, so it may hold twice its length: 192 bytes an
/// arrival. Under a 4 GB address-space cap that is 4e9 / 192 ≈ 2.08e7
/// rps. At 5e7 `run` aborted on a 1 GiB allocation in the event queue.
const MAX_TOTAL_RATE: f64 = 4e9 / (2 * PENDING_ARRIVAL_BYTES) as f64;

fn build_workload(topo: &Topology, sc: &Scenario) -> Result<Box<dyn Workload>, String> {
    let retry_budget = sc.resilience.as_ref().and_then(|r| r.retry_budget.as_ref());
    if retry_budget.is_some() && !matches!(sc.workload, WorkloadSpec::RetryStorm { .. }) {
        return Err(
            "resilience.retry_budget requires the retry_storm workload (it bounds the \
             retrying client population)"
                .into(),
        );
    }
    match &sc.workload {
        WorkloadSpec::OpenLoop { rates } => open_loop(topo, "workload.rates", rates),
        WorkloadSpec::Phases { tracks } => open_loop(
            topo,
            "workload.tracks",
            &phase_rates(tracks, sc.duration_secs)?,
        ),
        WorkloadSpec::ClosedLoop {
            users_steps,
            think_ms,
            api_weights,
        } => {
            let weights = resolve_weights(topo, api_weights)?;
            Ok(Box::new(ClosedLoopWorkload::new(
                weights,
                schedule("workload.users_steps", users_steps)?,
                SimDuration::from_millis(*think_ms),
            )))
        }
        WorkloadSpec::RetryStorm {
            users,
            think_ms,
            api_weights,
            max_retries,
            retry_backoff_ms,
        } => {
            let weights = resolve_weights(topo, api_weights)?;
            let mut w = RetryStormWorkload::new(
                weights,
                *users,
                SimDuration::from_millis(*think_ms),
                *max_retries,
                SimDuration::from_millis(*retry_backoff_ms),
            );
            if let Some(b) = retry_budget {
                w = w.with_retry_budget(*b);
            }
            Ok(Box::new(w))
        }
    }
}

/// One API's open-loop rate bound. From 1e9 rps on, the mean gap is at
/// most the clock's 1 ns, `SimDuration::from_secs_f64` rounds the
/// shorter gaps to zero, and one 1 s tick holds a billion arrivals.
const MAX_RATE: f64 = 1e9;

/// Poisson arrivals at `rates`, each bound refused by `key`.
fn open_loop(topo: &Topology, key: &str, rates: &[RateSpec]) -> Result<Box<dyn Workload>, String> {
    let mut schedules = Vec::with_capacity(rates.len());
    for (i, r) in rates.iter().enumerate() {
        let api = api_id(topo, &format!("{key}[{i}].api"), &r.api)?;
        let key = format!("{key}[{}].steps", r.api);
        let sched = schedule(&key, &r.steps)?;
        if let Some((t, v)) = r.steps.iter().find(|(_, v)| *v >= MAX_RATE) {
            return Err(format!("{key} must be under 1e9 rps, got {v} at {t} s"));
        }
        schedules.push((api, sched));
    }
    // Piecewise constant, so the summed rate peaks at a step.
    for (t, _) in rates.iter().flat_map(|r| &r.steps) {
        let at = SimTime::from_secs(*t);
        let total: f64 = schedules.iter().map(|(_, s)| s.at(at)).sum();
        if total >= MAX_TOTAL_RATE {
            let max = MAX_TOTAL_RATE.floor();
            return Err(format!(
                "{key} must sum to under {max} rps, got {total} at {t} s"
            ));
        }
    }
    Ok(Box::new(OpenLoopWorkload::new(schedules)))
}

/// Sampling resolution (seconds) for curved phases (ramp, diurnal).
/// Piecewise-constant steps at this grid approximate the curve; 2 s is
/// well below the controller's reaction time, so finer sampling only
/// bloats the schedule.
const SAMPLE_SECS: u64 = 2;

/// The most rate steps a `phases` workload may lower to, summed over
/// its tracks. A step is a 16-byte `(u64, f64)` pair, and lowering
/// holds two copies of a track's steps: the sampled steps, deduplicated
/// in place, and the schedule's `(SimTime, f64)` pairs. Each is a `Vec`
/// that doubles, so it may hold twice its length: 64 bytes a step.
/// Under the 4 GB address-space cap of [`MAX_TOTAL_RATE`] that is
/// 4e9 / 64 = 6.25e7 steps, 1.25e8 s of ramp. A 1e12-second ramp
/// (5e11 steps) aborted `check` on a 512 MiB allocation before anything
/// refused it.
const MAX_PHASE_STEPS: u64 = 4_000_000_000 / (2 * 2 * std::mem::size_of::<(u64, f64)>() as u64);

/// A `phases` workload lowered to open-loop rates, one per track.
pub(crate) fn phase_rates(
    tracks: &[TrackSpec],
    duration_secs: u64,
) -> Result<Vec<RateSpec>, String> {
    check_tracks(tracks, duration_secs)?;
    Ok(tracks.iter().map(TrackSpec::to_rate_spec).collect())
}

/// Every refusal of a `phases` workload, by key. The step count and the
/// track lengths are summed here, before lowering allocates anything.
fn check_tracks(tracks: &[TrackSpec], duration_secs: u64) -> Result<(), String> {
    if tracks.is_empty() {
        return Err("workload.tracks is empty: nothing would offer load".into());
    }
    let mut steps = 0u64;
    for (i, track) in tracks.iter().enumerate() {
        if track.phases.is_empty() {
            return Err(format!("workload.tracks[{i}].phases is empty"));
        }
        let mut end = 0u64;
        for (j, p) in track.phases.iter().enumerate() {
            let key = format!("workload.tracks[{i}].phases[{j}]");
            p.validate(&key)?;
            steps = steps.saturating_add(p.step_count());
            if steps > MAX_PHASE_STEPS {
                return Err(format!(
                    "{key}.duration_secs: the tracks would lower to more than \
                     {MAX_PHASE_STEPS} rate steps"
                ));
            }
            end = end
                .checked_add(p.duration_secs())
                .ok_or_else(|| format!("{key}.duration_secs: the track's length overflows"))?;
        }
        if end > duration_secs {
            return Err(format!(
                "workload.tracks[{i}] lasts {end} s, longer than duration_secs ({duration_secs} s)"
            ));
        }
    }
    Ok(())
}

impl PhaseSpec {
    pub(crate) fn duration_secs(&self) -> u64 {
        match self {
            PhaseSpec::Plateau { duration_secs, .. }
            | PhaseSpec::Ramp { duration_secs, .. }
            | PhaseSpec::FlashCrowd { duration_secs, .. }
            | PhaseSpec::Diurnal { duration_secs, .. }
            | PhaseSpec::Oscillate { duration_secs, .. } => *duration_secs,
        }
    }

    /// Offered rate `t` seconds into the phase.
    fn rate_at(&self, t: f64) -> f64 {
        match self {
            PhaseSpec::Plateau { rate, .. } => *rate,
            PhaseSpec::Ramp {
                duration_secs,
                from,
                to,
            } => {
                let d = (*duration_secs).max(1) as f64;
                from + (to - from) * (t / d).clamp(0.0, 1.0)
            }
            PhaseSpec::FlashCrowd {
                base,
                peak,
                burst_from_secs,
                burst_until_secs,
                ..
            } => {
                if t >= *burst_from_secs as f64 && t < *burst_until_secs as f64 {
                    *peak
                } else {
                    *base
                }
            }
            PhaseSpec::Diurnal {
                base,
                amplitude,
                period_secs,
                ..
            } => {
                let p = (*period_secs).max(1) as f64;
                (base + amplitude * (std::f64::consts::TAU * t / p).sin()).max(0.0)
            }
            PhaseSpec::Oscillate {
                low,
                high,
                period_secs,
                ..
            } => {
                let half = ((*period_secs).max(2) / 2) as f64;
                if ((t / half) as u64).is_multiple_of(2) {
                    *low
                } else {
                    *high
                }
            }
        }
    }

    fn validate(&self, key: &str) -> Result<(), String> {
        if self.duration_secs() == 0 {
            return Err(format!("{key}.duration_secs must be positive"));
        }
        let (rates, peak) = match self {
            PhaseSpec::Plateau { rate, .. } => ([*rate, *rate], *rate),
            PhaseSpec::Ramp { from, to, .. } => ([*from, *to], from.max(*to)),
            PhaseSpec::FlashCrowd { base, peak, .. } => ([*base, *peak], base.max(*peak)),
            PhaseSpec::Diurnal {
                base, amplitude, ..
            } => ([*base, *amplitude], base + amplitude),
            PhaseSpec::Oscillate { low, high, .. } => ([*low, *high], low.max(*high)),
        };
        if rates.iter().any(|r| !(r.is_finite() && *r >= 0.0)) {
            return Err(format!("{key}: rates must be finite and at least 0"));
        }
        // Checked here, not by `open_loop`, so the refusal names the phase.
        if peak >= MAX_RATE {
            return Err(format!("{key}: rates must be under 1e9 rps, got {peak}"));
        }
        match self {
            PhaseSpec::FlashCrowd {
                duration_secs,
                burst_from_secs,
                burst_until_secs,
                ..
            } if burst_from_secs >= burst_until_secs || burst_until_secs > duration_secs => {
                Err(format!(
                    "{key}: burst window [{burst_from_secs}, {burst_until_secs}) must be \
                     non-empty and inside the {duration_secs} s phase"
                ))
            }
            PhaseSpec::Diurnal { period_secs, .. } | PhaseSpec::Oscillate { period_secs, .. }
                if *period_secs < 2 =>
            {
                Err(format!("{key}.period_secs must be at least 2"))
            }
            _ => Ok(()),
        }
    }

    /// Seconds between a sampled phase's steps.
    fn grid(&self) -> u64 {
        match self {
            PhaseSpec::Oscillate { period_secs, .. } => (*period_secs).max(2) / 2,
            _ => SAMPLE_SECS,
        }
    }

    /// How many steps [`Self::steps`] emits at most: counted, not emitted.
    fn step_count(&self) -> u64 {
        match self {
            PhaseSpec::Plateau { .. } => 1,
            PhaseSpec::FlashCrowd { .. } => 3,
            _ => self.duration_secs().div_ceil(self.grid()),
        }
    }

    /// Emit the phase's `(offset_from_phase_start, rate)` steps.
    fn steps(&self, out: &mut Vec<(u64, f64)>) {
        let d = self.duration_secs();
        match self {
            PhaseSpec::Plateau { rate, .. } => out.push((0, *rate)),
            PhaseSpec::FlashCrowd {
                base,
                peak,
                burst_from_secs,
                burst_until_secs,
                ..
            } => {
                out.push((0, *base));
                out.push((*burst_from_secs, *peak));
                if *burst_until_secs < d {
                    out.push((*burst_until_secs, *base));
                }
            }
            _ => {
                let grid = self.grid() as usize;
                out.extend((0..d).step_by(grid).map(|t| (t, self.rate_at(t as f64))));
            }
        }
    }
}

impl TrackSpec {
    pub(crate) fn duration_secs(&self) -> u64 {
        self.phases.iter().map(PhaseSpec::duration_secs).sum()
    }

    /// The track's step schedule, steps that repeat the previous rate
    /// dropped.
    fn to_rate_spec(&self) -> RateSpec {
        let mut steps = Vec::new();
        let mut start = 0u64;
        for p in &self.phases {
            let from = steps.len();
            p.steps(&mut steps);
            steps[from..].iter_mut().for_each(|(t, _)| *t += start);
            start += p.duration_secs();
        }
        steps.dedup_by(|(_, rate), (_, kept)| rate == kept);
        RateSpec {
            api: self.api.clone(),
            steps,
        }
    }
}
/// `(from_secs, value)` steps as a schedule. A rate or a user count
/// must be a finite number ≥ 0: infinity panics the arrival sampler or
/// allocates without bound, and a negative value silently offers
/// nothing.
fn schedule(key: &str, steps: &[(u64, f64)]) -> Result<RateSchedule, String> {
    if let Some((t, v)) = steps.iter().find(|(_, v)| !(v.is_finite() && *v >= 0.0)) {
        return Err(format!(
            "{key} must be finite and at least 0, got {v} at {t} s"
        ));
    }
    let steps = steps.iter().map(|&(t, v)| (SimTime::from_secs(t), v));
    Ok(RateSchedule::steps(steps.collect()))
}

/// A closed-loop population's `api_weights`, names resolved.
pub(crate) fn resolve_weights(
    topo: &Topology,
    weights: &[(String, f64)],
) -> Result<Vec<(ApiId, f64)>, String> {
    if weights.is_empty() {
        return Err("api_weights must not be empty".into());
    }
    weights
        .iter()
        .enumerate()
        .map(|(k, (name, w))| {
            Ok((
                api_id(topo, &format!("workload.api_weights[{k}]"), name)?,
                *w,
            ))
        })
        .collect()
}

fn build_controller(
    spec: &ControllerSpec,
    engine: &mut Engine,
) -> Result<Box<dyn Controller>, String> {
    match spec {
        ControllerSpec::Dagor { alpha } => Scheme::Dagor { alpha: *alpha }.install(engine),
        ControllerSpec::Breakwater => Scheme::Breakwater.install(engine),
        ControllerSpec::Wisp => Scheme::Wisp.install(engine),
        ControllerSpec::None | ControllerSpec::Topfull { .. } => {}
    }
    // A per-service scheme admits inside the engine; nothing runs at the entry.
    Ok(entry_controller(spec)?.unwrap_or_else(|| Box::new(NoControl)))
}

/// The controller that sets entry rate limits — the only kind that can
/// drive a gateway, simulated, sharded or live. `None` for the
/// per-service schemes (dagor / breakwater / wisp).
pub(crate) fn entry_controller(
    spec: &ControllerSpec,
) -> Result<Option<Box<dyn Controller>>, String> {
    Ok(match spec {
        ControllerSpec::None => Some(Box::new(NoControl)),
        ControllerSpec::Topfull {
            rate_controller,
            clustering,
            hardened,
            single_target_per_cluster,
            restrict_cuts_to_contributing,
            fair_group_steps,
        } => {
            let mut cfg = topfull_config(rate_controller, *clustering, *hardened)?;
            let base = TopFullConfig::default();
            cfg.single_target_per_cluster =
                single_target_per_cluster.unwrap_or(base.single_target_per_cluster);
            cfg.restrict_cuts_to_contributing =
                restrict_cuts_to_contributing.unwrap_or(base.restrict_cuts_to_contributing);
            cfg.fair_group_steps = fair_group_steps.unwrap_or(base.fair_group_steps);
            Some(Box::new(TopFull::new(cfg)))
        }
        _ => None,
    })
}

/// TopFull configuration from scenario knobs. Shared by the simulator
/// path and the live plane — identical config, virtual or wall clock.
fn topfull_config(
    rate_controller: &str,
    clustering: bool,
    hardened: bool,
) -> Result<TopFullConfig, String> {
    let mut cfg = TopFullConfig::default();
    if !clustering {
        cfg = cfg.without_clustering();
    }
    cfg = match rate_controller {
        "mimd" => cfg.with_mimd(),
        "bw" => cfg.with_bw(),
        rl if rl.starts_with("rl:") => {
            let path = &rl[3..];
            let policy = PolicyValue::load(std::path::Path::new(path))
                .map_err(|e| format!("cannot load RL policy '{path}': {e}"))?;
            // `load` vouches for the file's shape; that it is a policy
            // over §4.3's state is this caller's requirement.
            if policy.pi.dims[0] != rl::STATE_DIM {
                return Err(format!(
                    "RL policy '{path}' takes {} inputs; TopFull's state has {}",
                    policy.pi.dims[0],
                    rl::STATE_DIM
                ));
            }
            cfg.with_rl(policy)
        }
        other => {
            return Err(format!(
                "unknown rate_controller '{other}' (mimd | bw | rl:<path>)"
            ))
        }
    };
    if hardened {
        cfg = cfg.hardened();
    }
    Ok(cfg)
}

/// Compile a scenario into an engine + controller ready to run.
pub fn build_scenario(sc: &Scenario) -> Result<BuiltScenario, String> {
    let topo = build_topology(&sc.app)?;
    let api_names: Vec<String> = topo.apis().map(|(_, a)| a.name.clone()).collect();
    let workload = build_workload(&topo, sc)?;
    let base = EngineConfig::default();
    let cfg = EngineConfig {
        seed: sc.seed,
        slo: SimDuration::from_millis(sc.slo_ms),
        pod_startup: sc
            .pod_startup_secs
            .map_or(base.pod_startup, SimDuration::from_secs),
        ..base
    };
    let mut engine = Engine::new(topo, cfg, workload);
    if let Some(res) = &sc.resilience {
        if res.deadlines.is_some() || res.breakers.is_some() {
            engine.set_resilience(resilience_config(res));
        }
    }
    if let Some(auto) = &sc.autoscaler {
        if let Some(pool) = &auto.vm_pool {
            engine.set_vm_pool(VmPoolConfig {
                vcpus_per_vm: pool.vcpus_per_vm,
                initial_vms: pool.initial_vms,
                max_vms: pool.max_vms,
                vm_startup: SimDuration::from_secs(pool.vm_startup_secs),
            });
        }
        engine.enable_hpa(hpa_config(auto));
    }
    if !sc.faults.is_empty() {
        let mut specs = Vec::with_capacity(sc.faults.len());
        for (i, f) in sc.faults.iter().enumerate() {
            specs.push(build_fault(engine.topology(), i, f)?);
        }
        engine.inject_faults(specs);
    }
    if let Some(adm) = &sc.admission {
        let (front, key_space) = front_door_config(engine.topology(), adm)?;
        engine.set_front_door(front, key_space);
    }
    let controller = build_controller(&sc.controller, &mut engine)?;
    let hardened = matches!(
        sc.controller,
        ControllerSpec::Topfull { hardened: true, .. }
    );
    Ok(BuiltScenario {
        engine,
        controller,
        api_names,
        hardened,
    })
}

fn resilience_config(res: &ResilienceSpec) -> ResilienceConfig {
    ResilienceConfig {
        deadlines: res.deadlines.as_ref().map(|d| {
            let base = DeadlineConfig::default();
            DeadlineConfig {
                budget: d.budget_ms.map(SimDuration::from_millis).or(base.budget),
                cancel_doomed: d.cancel_doomed.unwrap_or(base.cancel_doomed),
            }
        }),
        breakers: res.breakers.as_ref().map(|b| {
            let base = BreakerConfig::default();
            BreakerConfig {
                failure_threshold: b.failure_threshold.unwrap_or(base.failure_threshold),
                min_calls: b.min_calls.unwrap_or(base.min_calls),
                open_for: b
                    .open_for_ms
                    .map_or(base.open_for, SimDuration::from_millis),
                half_open_probes: b.half_open_probes.unwrap_or(base.half_open_probes),
            }
        }),
    }
}

fn hpa_config(auto: &AutoscalerSpec) -> HpaConfig {
    let base = HpaConfig::default();
    HpaConfig {
        target_utilization: auto.target_utilization.unwrap_or(base.target_utilization),
        sync_period: auto
            .sync_period_secs
            .map_or(base.sync_period, SimDuration::from_secs),
    }
}

/// Admission spec → front-door config plus per-API coalescing key
/// spaces (0 = not coalescable). Shared by the simulator path and the
/// live plane, which runs the identical stage pipeline per gateway.
pub(crate) fn front_door_config(
    topo: &Topology,
    spec: &AdmissionSpec,
) -> Result<(cluster::front::FrontConfig, Vec<u64>), String> {
    let mut cfg = cluster::front::FrontConfig::default();
    let mut key_space = vec![0u64; topo.num_apis()];
    if let Some(co) = &spec.coalesce {
        if co.apis.is_empty() {
            return Err("admission.coalesce.apis must name at least one API".into());
        }
        if co.key_space == 0 {
            return Err("admission.coalesce.key_space must be at least 1".into());
        }
        for (i, name) in co.apis.iter().enumerate() {
            let id = api_id(topo, &format!("admission.coalesce.apis[{i}]"), name)?;
            key_space[id.0 as usize] = co.key_space;
        }
        let base = CoalesceConfig::default();
        cfg.coalesce = Some(CoalesceConfig {
            cache_capacity: co.cache_capacity.unwrap_or(base.cache_capacity),
            cache_ttl: co
                .cache_ttl_ms
                .map_or(base.cache_ttl, SimDuration::from_millis),
        });
    }
    if let Some(pr) = &spec.priority {
        let base = PriorityConfig::default();
        let business_tiers = pr.business_tiers.map_or(base.business_tiers, u32::from);
        let user_levels = pr.user_levels.map_or(base.user_levels, u32::from);
        if business_tiers == 0 || user_levels == 0 {
            return Err(
                "admission.priority.business_tiers and user_levels must be at least 1".into(),
            );
        }
        cfg.priority = Some(PriorityConfig {
            business_tiers,
            user_levels,
            alpha: pr.alpha.unwrap_or(base.alpha),
            beta: pr.beta.unwrap_or(base.beta),
            queuing_delay_threshold: pr
                .queuing_delay_ms
                .map_or(base.queuing_delay_threshold, SimDuration::from_millis),
        });
    }
    if cfg.coalesce.is_none() && cfg.priority.is_none() {
        return Err("admission block is present but both stages are disabled \
             (set admission.coalesce and/or admission.priority)"
            .into());
    }
    Ok((cfg, key_space))
}

/// Sharding spec → core sharded-plane config (shared by the simulator
/// path and, minus simulator-only faults, the live plane).
pub(crate) fn sharded_config(spec: &ShardingSpec) -> Result<topfull::ShardedConfig, String> {
    if spec.shards == 0 {
        return Err("sharding.shards must be at least 1".into());
    }
    let base = topfull::ShardPlaneConfig::default();
    let plane = topfull::ShardPlaneConfig {
        min_quantum: spec.min_quantum.unwrap_or(base.min_quantum),
        strike_out: spec.strike_out.unwrap_or(base.strike_out),
        reentry_ticks: spec.reentry_ticks.unwrap_or(base.reentry_ticks),
        limit_ttl: spec.limit_ttl.unwrap_or(base.limit_ttl),
    };
    let mut faults = Vec::with_capacity(spec.faults.len());
    for f in &spec.faults {
        faults.push(build_shard_fault(spec.shards, f)?);
    }
    Ok(topfull::ShardedConfig {
        shards: spec.shards,
        weights: spec.weights.clone(),
        plane,
        faults,
    })
}

/// JSON shard fault → core shard fault, with index validation.
fn build_shard_fault(shards: usize, f: &ShardFaultJson) -> Result<cluster::ShardFault, String> {
    use cluster::ShardFault as SF;
    let check = |shard: usize| -> Result<usize, String> {
        if shard >= shards {
            Err(format!(
                "shard fault references shard {shard}, but sharding.shards is {shards}"
            ))
        } else {
            Ok(shard)
        }
    };
    Ok(match f {
        ShardFaultJson::Dropout {
            shard,
            from_secs,
            until_secs,
        } => SF::Dropout {
            shard: check(*shard)?,
            from: SimTime::from_secs(*from_secs),
            until: SimTime::from_secs(*until_secs),
        },
        ShardFaultJson::Kill { shard, at_secs } => SF::Kill {
            shard: check(*shard)?,
            at: SimTime::from_secs(*at_secs),
        },
        ShardFaultJson::ControllerLoss {
            from_secs,
            until_secs,
        } => SF::ControllerLoss {
            from: SimTime::from_secs(*from_secs),
            until: SimTime::from_secs(*until_secs),
        },
    })
}

/// JSON fault `faults[i]` → engine fault (service names resolved,
/// seconds → SimTime).
fn build_fault(topo: &Topology, i: usize, f: &FaultSpecJson) -> Result<cluster::FaultSpec, String> {
    use cluster::FaultSpec as F;
    let svc = |name: &str| service_id(topo, &format!("faults[{i}].service"), name);
    let opt_svc = |name: &Option<String>| -> Result<Option<ServiceId>, String> {
        name.as_deref().map(&svc).transpose()
    };
    Ok(match f {
        FaultSpecJson::PodKill {
            at_secs,
            service,
            pods,
        } => F::PodKill {
            at: SimTime::from_secs(*at_secs),
            service: svc(service)?,
            pods: *pods,
        },
        FaultSpecJson::SlowPods {
            from_secs,
            until_secs,
            service,
            factor,
        } => F::SlowPods {
            from: SimTime::from_secs(*from_secs),
            until: SimTime::from_secs(*until_secs),
            service: svc(service)?,
            factor: *factor,
        },
        FaultSpecJson::NetworkDegrade {
            from_secs,
            until_secs,
            service,
            extra_latency_ms,
            loss,
        } => F::NetworkDegrade {
            from: SimTime::from_secs(*from_secs),
            until: SimTime::from_secs(*until_secs),
            service: opt_svc(service)?,
            extra_latency: SimDuration::from_millis(*extra_latency_ms),
            loss: *loss,
        },
        FaultSpecJson::TelemetryDropout {
            from_secs,
            until_secs,
            service,
        } => F::TelemetryDropout {
            from: SimTime::from_secs(*from_secs),
            until: SimTime::from_secs(*until_secs),
            service: opt_svc(service)?,
        },
        FaultSpecJson::TelemetryStaleness {
            from_secs,
            until_secs,
            by_secs,
        } => F::TelemetryStaleness {
            from: SimTime::from_secs(*from_secs),
            until: SimTime::from_secs(*until_secs),
            by: SimDuration::from_secs(*by_secs),
        },
        FaultSpecJson::TelemetryNoise {
            from_secs,
            until_secs,
            sigma,
        } => F::TelemetryNoise {
            from: SimTime::from_secs(*from_secs),
            until: SimTime::from_secs(*until_secs),
            sigma: *sigma,
        },
        FaultSpecJson::ControllerStall {
            from_secs,
            until_secs,
        } => F::ControllerStall {
            from: SimTime::from_secs(*from_secs),
            until: SimTime::from_secs(*until_secs),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Scenario;

    #[test]
    fn example_scenario_builds() {
        let sc = Scenario::example();
        let built = build_scenario(&sc).expect("builds");
        assert_eq!(built.api_names, vec!["get"]);
        assert_eq!(built.engine.topology().num_services(), 2);
    }

    #[test]
    fn builtin_apps_build() {
        for (name, services) in [
            ("online-boutique", 11),
            ("train-ticket", 41),
            ("alibaba-demo", 127),
        ] {
            let json = format!(
                r#"{{
                    "app": {{"type": "builtin", "name": "{name}"}},
                    "workload": {{"type": "open_loop", "rates": []}}
                }}"#
            );
            let sc = crate::parse_scenario(&json).expect("parse");
            let built = build_scenario(&sc).expect(name);
            assert_eq!(built.engine.topology().num_services(), services);
        }
    }

    #[test]
    fn builtin_overrides_and_pod_startup_reach_the_engine() {
        let json = r#"{
            "pod_startup_secs": 7,
            "app": {"type": "builtin", "name": "online-boutique",
                "services": [{"name": "cartservice", "replicas": 0, "pod_speed": 0.5}],
                "apis": [{"name": "getcart", "business_priority": 3}]},
            "workload": {"type": "open_loop", "rates": []}
        }"#;
        let built = build_scenario(&crate::parse_scenario(json).expect("parse")).expect("builds");
        let topo = built.engine.topology();
        let cart = topo.service(service_id(topo, "", "cartservice").expect("a service"));
        // Zero replicas clamp to one, as an inline service's do.
        assert_eq!((cart.replicas, cart.pod_speed), (1, 0.5));
        let getcart = topo.api(api_id(topo, "", "getcart").expect("an API"));
        assert_eq!(getcart.business, BusinessPriority(3));
        let pod_startup = built.engine.config().pod_startup;
        assert_eq!(pod_startup, SimDuration::from_secs(7));
    }

    #[test]
    fn unknown_names_are_rejected() {
        let json = r#"{
            "app": {"type": "builtin", "name": "online-boutique"},
            "workload": {"type": "open_loop", "rates": [
                {"api": "no-such-api", "steps": [[0, 1.0]]}
            ]}
        }"#;
        let sc = crate::parse_scenario(json).expect("parse");
        let err = match build_scenario(&sc) {
            Err(e) => e,
            Ok(_) => panic!("unknown API must be rejected"),
        };
        assert!(err.contains("no-such-api"));

        let json = r#"{
            "app": {"type": "builtin", "name": "bogus"},
            "workload": {"type": "open_loop", "rates": []}
        }"#;
        let sc = crate::parse_scenario(json).expect("parse");
        assert!(build_scenario(&sc).is_err());
    }

    /// Every lookup of an API or a service by name refuses a missing
    /// one at the key that wrote it, one row per caller.
    #[test]
    fn an_unknown_api_or_service_is_refused_at_its_key() {
        let boutique = r#""app": {"type": "builtin", "name": "online-boutique"}"#;
        let open = r#""workload": {"type": "open_loop", "rates": []}"#;
        let weights = r#"[["getcart", 1.0], ["nope", 1.0]]"#;
        let inline = r#""app": {"type": "inline",
            "services": [{"name": "a", "replicas": 1}],
            "apis": [{"name": "x", "paths": [{"root": {"service": "a", "cost_ms": 1,
                "children": [{"service": "nope", "cost_ms": 1}]}}]}]}"#;
        for (rest, refusal) in [
            (
                format!(
                    r#""app": {{"type": "builtin", "name": "online-boutique",
                        "services": [{{"name": "cartservice"}}, {{"name": "nope"}}]}}, {open}"#
                ),
                "app.services[1].name: unknown service 'nope'",
            ),
            (
                format!(
                    r#""app": {{"type": "builtin", "name": "online-boutique",
                        "apis": [{{"name": "nope", "business_priority": 1}}]}}, {open}"#
                ),
                "app.apis[0].name: unknown API 'nope'",
            ),
            (
                format!(r#"{inline}, {open}"#),
                "app.apis[0].paths[0].root.children[0].service: unknown service 'nope'",
            ),
            (
                format!(
                    r#"{boutique}, "workload": {{"type": "open_loop", "rates": [
                        {{"api": "getcart", "steps": [[0, 1.0]]}},
                        {{"api": "nope", "steps": [[0, 1.0]]}}]}}"#
                ),
                "workload.rates[1].api: unknown API 'nope'",
            ),
            (
                format!(
                    r#"{boutique}, "workload": {{"type": "phases", "tracks": [{{"api": "nope",
                        "phases": [{{"kind": "plateau", "rate": 1.0, "duration_secs": 10}}]}}]}}"#
                ),
                "workload.tracks[0].api: unknown API 'nope'",
            ),
            (
                format!(
                    r#"{boutique}, "workload": {{"type": "closed_loop",
                        "users_steps": [[0, 1.0]], "api_weights": {weights}}}"#
                ),
                "workload.api_weights[1]: unknown API 'nope'",
            ),
            (
                format!(
                    r#"{boutique}, "workload": {{"type": "retry_storm", "users": 1,
                        "api_weights": {weights}}}"#
                ),
                "workload.api_weights[1]: unknown API 'nope'",
            ),
            (
                format!(
                    r#"{boutique}, {open}, "admission": {{"coalesce":
                        {{"apis": ["getcart", "nope"], "key_space": 8}}}}"#
                ),
                "admission.coalesce.apis[1]: unknown API 'nope'",
            ),
            (
                format!(
                    r#"{boutique}, {open}, "faults": [
                        {{"kind": "pod_kill", "at_secs": 1, "service": "cartservice", "pods": 1}},
                        {{"kind": "pod_kill", "at_secs": 1, "service": "nope", "pods": 1}}]"#
                ),
                "faults[1].service: unknown service 'nope'",
            ),
        ] {
            let doc = format!(r#"{{"duration_secs": 60, {rest}}}"#);
            let sc = crate::parse_scenario(&doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
            match build_scenario(&sc) {
                Err(e) => assert_eq!(e, refusal),
                Ok(_) => panic!("{refusal}: built"),
            }
        }
    }

    #[test]
    fn an_unusable_rate_or_user_count_is_refused_by_key() {
        let open = |v: &str| {
            format!(
                r#"{{"type": "open_loop", "rates": [{{"api": "getcart", "steps": [[0, {v}]]}}]}}"#
            )
        };
        let two_open = |v: &str| {
            format!(
                r#"{{"type": "open_loop", "rates": [
                    {{"api": "getproduct", "steps": [[0, 1.0], [10, {v}]]}},
                    {{"api": "postcheckout", "steps": [[0, 1.0], [10, {v}]]}}]}}"#
            )
        };
        let closed = |v: &str| {
            format!(
                r#"{{"type": "closed_loop", "users_steps": [[0, {v}]],
                    "api_weights": [["getcart", 1.0]]}}"#
            )
        };
        let phase = |fields: String| {
            format!(
                r#"{{"type": "phases", "tracks": [{{"api": "getcart", "phases": [
                    {{{fields}, "duration_secs": 10}}]}}]}}"#
            )
        };
        let plateau = |v: &str| phase(format!(r#""kind": "plateau", "rate": {v}"#));
        // Each under the bound, the peak base + amplitude over it.
        let diurnal = |v: &str| {
            phase(format!(
                r#""kind": "diurnal", "base": {v}, "amplitude": {v}, "period_secs": 10"#
            ))
        };
        for (workload, key) in [
            (open("1e999"), "workload.rates[getcart].steps"),
            (open("-5"), "workload.rates[getcart].steps"),
            (open("1e308"), "workload.rates[getcart].steps"),
            (open("4.29e9"), "workload.rates[getcart].steps"),
            (open("1e9"), "workload.rates[getcart].steps"),
            (open("5e7"), "workload.rates"),
            (two_open("3e7"), "workload.rates"),
            (closed("1e999"), "workload.users_steps"),
            (closed("-5"), "workload.users_steps"),
            (
                plateau("1e9"),
                "workload.tracks[0].phases[0]: rates must be under 1e9",
            ),
            (
                diurnal("6e8"),
                "workload.tracks[0].phases[0]: rates must be under 1e9",
            ),
        ] {
            let json = format!(
                r#"{{"app": {{"type": "builtin", "name": "online-boutique"}},
                    "workload": {workload}}}"#
            );
            let sc = crate::parse_scenario(&json).expect("parse");
            // Built, never run: an infinite population would allocate
            // without bound.
            let err = crate::validate_scenario(&sc).expect_err(&workload);
            assert!(err.contains(key), "{workload}: {err}");
        }
        let json = format!(
            r#"{{"app": {{"type": "builtin", "name": "online-boutique"}},
                "workload": {}}}"#,
            open("1e7")
        );
        let sc = crate::parse_scenario(&json).expect("parse");
        crate::validate_scenario(&sc).expect("1e7 rps validates");
        // `MAX_TOTAL_RATE`'s comment spells out these 96 bytes.
        assert_eq!(PENDING_ARRIVAL_BYTES, 96);
    }

    #[test]
    fn controller_wiring_works() {
        for ctrl in [
            r#"{"type": "none"}"#,
            r#"{"type": "dagor", "alpha": 0.1}"#,
            r#"{"type": "breakwater"}"#,
            r#"{"type": "wisp"}"#,
            r#"{"type": "topfull", "rate_controller": "mimd"}"#,
            r#"{"type": "topfull", "rate_controller": "bw", "clustering": false}"#,
        ] {
            let json = format!(
                r#"{{
                    "app": {{"type": "builtin", "name": "online-boutique"}},
                    "workload": {{"type": "open_loop", "rates": []}},
                    "controller": {ctrl}
                }}"#
            );
            let sc = crate::parse_scenario(&json).expect("parse");
            build_scenario(&sc).expect(ctrl);
        }
        // Unknown rate controller fails loudly.
        let json = r#"{
            "app": {"type": "builtin", "name": "online-boutique"},
            "workload": {"type": "open_loop", "rates": []},
            "controller": {"type": "topfull", "rate_controller": "magic"}
        }"#;
        let sc = crate::parse_scenario(json).expect("parse");
        assert!(build_scenario(&sc).is_err());
    }

    #[test]
    fn a_malformed_policy_file_fails_the_build_not_the_control_thread() {
        let dir = std::env::temp_dir().join("topfull-cli-malformed-policy");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("policy.json");
        let rate_controller = format!("rl:{}", path.display());
        let committed = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../artifacts/models/base.json"
        );
        let good = PolicyValue::load(std::path::Path::new(committed)).expect("base.json loads");
        good.save(&path).unwrap();
        // Hardened on purpose: a panic inside `decide` is not a strike,
        // so the wrapper could not have absorbed any of these.
        topfull_config(&rate_controller, true, true).expect("a well-formed policy loads");

        let mut truncated = good.clone();
        truncated.pi.params.truncate(100);
        let linear = rl::nn::Mlp {
            dims: vec![3, 1],
            params: vec![0.0; 4],
        };
        let three_inputs = PolicyValue {
            pi: linear.clone(),
            log_std: -1.6,
            vf: linear,
        };
        for (policy, names) in [
            (truncated, "need 4417 params, found 100"),
            (three_inputs, "takes 3 inputs; TopFull's state has 2"),
        ] {
            policy.save(&path).unwrap();
            let err = match topfull_config(&rate_controller, true, true) {
                Err(e) => e,
                Ok(_) => panic!("must not load: {names}"),
            };
            assert!(err.contains(names), "{names}: got '{err}'");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn faults_resolve_and_hardened_flag_propagates() {
        let json = r#"{
            "app": {"type": "builtin", "name": "online-boutique"},
            "workload": {"type": "open_loop", "rates": [
                {"api": "getproduct", "steps": [[0, 100.0]]}
            ]},
            "controller": {"type": "topfull", "rate_controller": "mimd", "hardened": true},
            "faults": [
                {"kind": "slow_pods", "from_secs": 10, "until_secs": 20,
                 "service": "productcatalogservice", "factor": 4.0},
                {"kind": "telemetry_dropout", "from_secs": 15, "until_secs": 25},
                {"kind": "telemetry_staleness", "from_secs": 25, "until_secs": 30, "by_secs": 5},
                {"kind": "telemetry_noise", "from_secs": 30, "until_secs": 35, "sigma": 0.5},
                {"kind": "network_degrade", "from_secs": 35, "until_secs": 40,
                 "service": "cartservice", "extra_latency_ms": 20, "loss": 0.1},
                {"kind": "controller_stall", "from_secs": 40, "until_secs": 45},
                {"kind": "pod_kill", "at_secs": 50, "service": "cartservice", "pods": 1}
            ]
        }"#;
        let sc = crate::parse_scenario(json).expect("parse");
        assert_eq!(sc.faults.len(), 7);
        let built = build_scenario(&sc).expect("faults build");
        assert!(built.hardened, "hardened flag must reach the harness");
        // Unknown service names inside a fault fail loudly.
        let bad = json.replace("productcatalogservice", "no-such-service");
        let sc = crate::parse_scenario(&bad).expect("parse");
        assert!(build_scenario(&sc).is_err());
    }

    #[test]
    fn resilience_keys_build_and_are_validated() {
        // Full resilience block on a retry storm: builds.
        let json = r#"{
            "app": {"type": "builtin", "name": "online-boutique"},
            "workload": {"type": "retry_storm", "users": 50,
                         "api_weights": [["getproduct", 1.0]]},
            "resilience": {
                "deadlines": {"budget_ms": 800, "cancel_doomed": true},
                "retry_budget": {"max_tokens": 50.0, "token_ratio": 0.2},
                "breakers": {"failure_threshold": 0.4, "min_calls": 10}
            }
        }"#;
        let sc = crate::parse_scenario(json).expect("parse");
        build_scenario(&sc).expect("resilience builds");
        // A retry budget without retrying clients is a config error.
        let json = r#"{
            "app": {"type": "builtin", "name": "online-boutique"},
            "workload": {"type": "open_loop", "rates": []},
            "resilience": {"retry_budget": {}}
        }"#;
        let sc = crate::parse_scenario(json).expect("parse");
        let err = match build_scenario(&sc) {
            Err(e) => e,
            Ok(_) => panic!("budget without retry_storm must be rejected"),
        };
        assert!(err.contains("retry_storm"), "{err}");
    }

    #[test]
    fn admission_block_builds_and_is_validated() {
        let json = r#"{
            "app": {"type": "builtin", "name": "online-boutique"},
            "workload": {"type": "open_loop", "rates": []},
            "admission": {
                "coalesce": {"apis": ["getproduct"], "key_space": 32},
                "priority": {"alpha": 0.05}
            }
        }"#;
        let sc = crate::parse_scenario(json).expect("parse");
        let built = build_scenario(&sc).expect("admission builds");
        assert!(
            built.engine.front_stats().is_some(),
            "front door must be armed"
        );
        // Unknown coalescable API fails loudly.
        let bad = json.replace("getproduct", "no-such-api");
        let sc = crate::parse_scenario(&bad).expect("parse");
        let err = match build_scenario(&sc) {
            Err(e) => e,
            Ok(_) => panic!("unknown coalescable API must be rejected"),
        };
        assert!(err.contains("no-such-api"), "{err}");
        // An admission block with both stages absent is a config error.
        let json = r#"{
            "app": {"type": "builtin", "name": "online-boutique"},
            "workload": {"type": "open_loop", "rates": []},
            "admission": {}
        }"#;
        let sc = crate::parse_scenario(json).expect("parse");
        let err = match build_scenario(&sc) {
            Err(e) => e,
            Ok(_) => panic!("empty admission block must be rejected"),
        };
        assert!(err.contains("both stages are disabled"), "{err}");
    }

    /// Each tuning block with only its required keys lowers to the
    /// library's `Default`, field for field (`Debug` prints every field):
    /// the schema states no default of its own.
    #[test]
    fn a_block_with_its_optional_keys_omitted_lowers_to_the_library_default() {
        let sc = crate::parse_scenario(
            r#"{
                "app": {"type": "builtin", "name": "online-boutique"},
                "workload": {"type": "open_loop", "rates": []},
                "resilience": {"breakers": {}, "retry_budget": {}, "deadlines": {}},
                "admission": {"priority": {}, "coalesce": {"apis": ["getproduct"]}},
                "slo": {}, "live": {}, "sharding": {"shards": 2}, "autoscaler": {}
            }"#,
        )
        .expect("every block accepts its required keys alone");
        let res = resilience_config(sc.resilience.as_ref().expect("resilience"));
        let topo = build_topology(&sc.app).expect("boutique");
        let (front, _) = front_door_config(&topo, sc.admission.as_ref().expect("admission"))
            .expect("front door lowers");
        let live = crate::live::live_config(sc.live.as_ref().expect("live"), sc.slo_ms)
            .expect("live lowers");
        let plane = sharded_config(sc.sharding.as_ref().expect("sharding"))
            .expect("shards lower")
            .plane;
        let hpa = hpa_config(sc.autoscaler.as_ref().expect("autoscaler"));
        let retry_budget = sc.resilience.as_ref().and_then(|r| r.retry_budget);
        let debug = |x: &dyn std::fmt::Debug| format!("{x:?}");
        for (block, lowered, library) in [
            ("autoscaler", debug(&hpa), debug(&HpaConfig::default())),
            (
                "resilience.deadlines",
                debug(&res.deadlines),
                debug(&Some(DeadlineConfig::default())),
            ),
            (
                "resilience.retry_budget",
                debug(&retry_budget),
                debug(&Some(cluster::RetryBudgetConfig::default())),
            ),
            (
                "resilience.breakers",
                debug(&res.breakers),
                debug(&Some(BreakerConfig::default())),
            ),
            (
                "live",
                debug(&live),
                debug(&liveserve::LiveConfig::default()),
            ),
            (
                "sharding",
                debug(&plane),
                debug(&topfull::ShardPlaneConfig::default()),
            ),
            (
                "admission.coalesce",
                debug(&front.coalesce),
                debug(&Some(CoalesceConfig::default())),
            ),
            (
                "admission.priority",
                debug(&front.priority),
                debug(&Some(PriorityConfig::default())),
            ),
            (
                "slo",
                debug(&sc.slo),
                debug(&Some(obs::SloConfig::default())),
            ),
        ] {
            assert_eq!(lowered, library, "{block}");
        }
    }

    fn one_track(phases: Vec<PhaseSpec>) -> Vec<TrackSpec> {
        vec![TrackSpec {
            api: "get".into(),
            phases,
        }]
    }

    fn steps(phases: Vec<PhaseSpec>) -> Vec<(u64, f64)> {
        let mut rates = phase_rates(&one_track(phases), 120).expect("lowers");
        rates.remove(0).steps
    }

    #[test]
    fn plateau_and_flash_lower_to_exact_steps() {
        let got = steps(vec![
            PhaseSpec::Plateau {
                duration_secs: 20,
                rate: 50.0,
            },
            PhaseSpec::FlashCrowd {
                duration_secs: 40,
                base: 50.0,
                peak: 300.0,
                burst_from_secs: 10,
                burst_until_secs: 25,
            },
        ]);
        // (0,50) deduped through the flash base, then the burst edges.
        assert_eq!(got, vec![(0, 50.0), (30, 300.0), (45, 50.0)]);
    }

    #[test]
    fn ramp_samples_monotonically() {
        let got = steps(vec![PhaseSpec::Ramp {
            duration_secs: 10,
            from: 0.0,
            to: 100.0,
        }]);
        assert_eq!(got.first(), Some(&(0, 0.0)));
        assert!(got.windows(2).all(|w| w[0].1 < w[1].1), "{got:?}");
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "{got:?}");
    }

    #[test]
    fn oscillate_emits_square_edges() {
        let got = steps(vec![PhaseSpec::Oscillate {
            duration_secs: 40,
            low: 20.0,
            high: 200.0,
            period_secs: 20,
        }]);
        assert_eq!(got, vec![(0, 20.0), (10, 200.0), (20, 20.0), (30, 200.0)]);
    }

    #[test]
    fn a_degenerate_or_too_long_phase_is_refused_by_key() {
        let key = "workload.tracks[0].phases[0]";
        for (phase, refusal) in [
            (
                PhaseSpec::Plateau {
                    duration_secs: 0,
                    rate: 10.0,
                },
                format!("{key}.duration_secs must be positive"),
            ),
            (
                PhaseSpec::FlashCrowd {
                    duration_secs: 30,
                    base: 10.0,
                    peak: 100.0,
                    burst_from_secs: 20,
                    burst_until_secs: 40,
                },
                format!("{key}: burst window"),
            ),
            (
                PhaseSpec::Diurnal {
                    duration_secs: 30,
                    base: 10.0,
                    amplitude: f64::NAN,
                    period_secs: 10,
                },
                format!("{key}: rates must be finite"),
            ),
            // Counted, not sampled: 5e11 steps would need 8 TB.
            (
                PhaseSpec::Ramp {
                    duration_secs: 1_000_000_000_000,
                    from: 10.0,
                    to: 100.0,
                },
                format!("{key}.duration_secs: the tracks would lower to more than"),
            ),
            (
                PhaseSpec::Oscillate {
                    duration_secs: 2 * MAX_PHASE_STEPS + 1,
                    low: 1.0,
                    high: 2.0,
                    period_secs: 4,
                },
                format!("{key}.duration_secs: the tracks would lower to more than"),
            ),
        ] {
            let err = phase_rates(&one_track(vec![phase]), u64::MAX).expect_err(&refusal);
            assert!(err.starts_with(&refusal), "{err}");
        }
        let plateau = |duration_secs| PhaseSpec::Plateau {
            duration_secs,
            rate: 1.0,
        };
        let err = phase_rates(&one_track(vec![plateau(u64::MAX), plateau(1)]), u64::MAX)
            .expect_err("the sum overflows");
        assert!(
            err.starts_with("workload.tracks[0].phases[1].duration_secs"),
            "{err}"
        );
        let err = phase_rates(&one_track(vec![plateau(121)]), 120).expect_err("too long");
        assert!(err.starts_with("workload.tracks[0] lasts 121 s"), "{err}");
        let err = phase_rates(&[], 120).expect_err("no tracks");
        assert!(err.starts_with("workload.tracks is empty"), "{err}");
        let err = phase_rates(&one_track(vec![]), 120).expect_err("no phases");
        assert!(
            err.starts_with("workload.tracks[0].phases is empty"),
            "{err}"
        );
        // Exactly the bound passes the count; one more step does not.
        // Counted only: lowering the bound would take about 2 GB.
        let ramp = |duration_secs| PhaseSpec::Ramp {
            duration_secs,
            from: 1.0,
            to: 2.0,
        };
        let bound = SAMPLE_SECS * MAX_PHASE_STEPS;
        assert!(check_tracks(&one_track(vec![ramp(bound)]), bound).is_ok());
        assert!(check_tracks(&one_track(vec![ramp(bound + 1)]), bound + 1).is_err());
    }

    #[test]
    fn a_track_shorter_than_the_run_holds_its_last_rate() {
        let mut sc = Scenario::example();
        sc.duration_secs = 40;
        sc.report.measure_from_secs = 20;
        sc.workload = WorkloadSpec::Phases {
            tracks: one_track(vec![
                PhaseSpec::Plateau {
                    duration_secs: 5,
                    rate: 200.0,
                },
                PhaseSpec::Plateau {
                    duration_secs: 5,
                    rate: 40.0,
                },
            ]),
        };
        let out = crate::run_scenario(&sc).expect("a 10 s track in a 40 s run");
        let (_, offered) = out.offered_per_api[0];
        assert!((offered - 40.0).abs() < 8.0, "offered {offered} rps");
    }

    #[test]
    fn pod_kills_resolve_service_names() {
        let json = r#"{
            "app": {"type": "builtin", "name": "train-ticket"},
            "workload": {"type": "open_loop", "rates": []},
            "faults": [{"kind": "pod_kill", "at_secs": 10, "service": "ts-station-service",
                        "pods": 2}]
        }"#;
        let sc = crate::parse_scenario(json).expect("parse");
        build_scenario(&sc).expect("valid pod kill");
        let bad = json.replace("ts-station-service", "ts-nope");
        let sc = crate::parse_scenario(&bad).expect("parse");
        assert!(build_scenario(&sc).is_err());
    }
}
