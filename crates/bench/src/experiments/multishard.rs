//! Multi-shard overlay: one logical controller over N gateway shards.
//!
//! Runs the Online Boutique getproduct surge four times — simulator and
//! live serving plane, each with a single gateway and with three shards
//! under the sharded control plane — and overlays the goodput
//! trajectories. The acceptance bar: sharding is a *deployment* change,
//! not a *control* change, so the 3-shard arms must track their
//! single-gateway twins within noise while the journal shows the extra
//! aggregation/split machinery at work.

use crate::report::{f1, Report};
use apps::OnlineBoutique;
use cluster::{
    ControlLoop, Engine, EngineConfig, Harness, OpenLoopWorkload, RateSchedule, Topology,
};
use liveserve::{LiveConfig, LiveServer, LoadGen, OpenLoopArm, ShardedLive, ShardedLiveConfig};
use simnet::SimTime;
use std::time::Duration;
use topfull::{Sharded, ShardedConfig, TopFull, TopFullConfig};

/// Simulated scenario length (virtual seconds).
const SIM_SECS: u64 = 120;
/// Live replay length (wall-clock seconds).
const LIVE_SECS: u64 = 36;
/// Baseline getproduct rate — under capacity on both planes.
const BASE_RPS: f64 = 150.0;
/// Surge rate: ~3× the recommendation-service capacity.
const SURGE_RPS: f64 = 1500.0;
/// Shard count for the sharded arms.
const SHARDS: usize = 3;

fn controller() -> Box<dyn cluster::Controller> {
    Box::new(TopFull::new(TopFullConfig::default().with_mimd()))
}

/// `(t, rps)` surge schedule over a horizon of `secs`.
fn schedule(secs: u64) -> [(f64, f64); 3] {
    let t = secs as f64;
    [
        (0.0, BASE_RPS),
        (t / 3.0, SURGE_RPS),
        (2.0 * t / 3.0, BASE_RPS),
    ]
}

struct Arm {
    label: String,
    horizon_secs: f64,
    /// getproduct `(t, goodput)`.
    goodput: Vec<(f64, f64)>,
}

impl Arm {
    /// getproduct's goodput out of a finished run on either plane.
    fn of(label: String, horizon_secs: u64, r: &cluster::RunResult, api: usize) -> Arm {
        Arm {
            label,
            horizon_secs: horizon_secs as f64,
            goodput: r.goodput_series(cluster::ApiId(api as u32)),
        }
    }

    fn mean_goodput(&self, from: f64, to: f64) -> f64 {
        let xs: Vec<f64> = self
            .goodput
            .iter()
            .filter(|(t, _)| *t >= from && *t < to)
            .map(|(_, v)| *v)
            .collect();
        simnet::stats::mean(&xs)
    }

    fn normalized(&self) -> Vec<(f64, f64)> {
        self.goodput
            .iter()
            .map(|(t, v)| (t / self.horizon_secs, *v))
            .collect()
    }
}

fn sim_workload(topo: &Topology, api: usize) -> Engine {
    let steps = schedule(SIM_SECS)
        .iter()
        .map(|&(t, v)| (SimTime::from_nanos((t * 1e9) as u64), v))
        .collect();
    let workload = Box::new(OpenLoopWorkload::new(vec![(
        cluster::ApiId(api as u32),
        RateSchedule::steps(steps),
    )]));
    Engine::new(topo.clone(), EngineConfig::default(), workload)
}

fn sim_single(topo: &Topology, api: usize) -> Arm {
    let mut h = Harness::new(sim_workload(topo, api), controller());
    h.run_for_secs(SIM_SECS);
    Arm::of("sim 1-gateway".into(), SIM_SECS, h.result(), api)
}

fn sim_sharded(topo: &Topology, api: usize) -> (Arm, Vec<obs::JournalEntry>, String) {
    let cfg = ShardedConfig::uniform(SHARDS);
    let plane = Sharded::sim(sim_workload(topo, api), cfg).expect("valid config");
    let mut h = Harness::new(plane, controller());
    h.run_for_secs(SIM_SECS);
    let plane = h.engine.plane_stats();
    let detail = format!(
        "sim 3-shard plane: merges={} strike-outs={} redistributions={}",
        plane.merges, plane.strike_outs, plane.redistributions
    );
    let journal = h.journal().snapshot();
    let arm = Arm::of(format!("sim {SHARDS}-shard"), SIM_SECS, h.result(), api);
    (arm, journal, detail)
}

/// The surge as one open-loop arm, compressed to the live horizon.
fn live_arms(api: usize) -> Vec<OpenLoopArm> {
    let scale = LIVE_SECS as f64 / SIM_SECS as f64;
    vec![OpenLoopArm {
        api,
        rate_steps: schedule(SIM_SECS)
            .iter()
            .map(|&(t, v)| (t * scale, v))
            .collect(),
        key_space: 0,
    }]
}

fn live_cfg() -> LiveConfig {
    LiveConfig {
        slo: Duration::from_secs(1),
        control_interval: Duration::from_millis(250),
        cpu_scale: 1.0,
        ..LiveConfig::default()
    }
}

fn live_single(topo: &Topology, api: usize) -> Result<Arm, String> {
    let mut server =
        LiveServer::start(topo, live_cfg()).map_err(|e| format!("live server: {e}"))?;
    let gen = LoadGen::start(server.addr(), None, live_arms(api))
        .map_err(|e| format!("load generator: {e}"))?;
    let result = liveserve::run(
        &mut ControlLoop::new(controller()),
        &mut server,
        live_cfg().control_interval,
        Duration::from_secs(LIVE_SECS),
    );
    gen.stop();
    server.shutdown();
    Ok(Arm::of("live 1-gateway".into(), LIVE_SECS, &result, api))
}

fn live_sharded(topo: &Topology, api: usize) -> Result<(Arm, String), String> {
    let cfg = ShardedLiveConfig::new(SHARDS, live_cfg());
    let mut fleet = ShardedLive::start(topo, cfg, None, live_arms(api))
        .map_err(|e| format!("sharded fleet: {e}"))?;
    let result = liveserve::run(
        &mut ControlLoop::new(controller()),
        &mut fleet,
        live_cfg().control_interval,
        Duration::from_secs(LIVE_SECS),
    );
    let plane = fleet.plane_stats();
    fleet.into_set().shutdown();
    let detail = format!(
        "live 3-shard plane: merges={} strike-outs={} redistributions={}",
        plane.merges, plane.strike_outs, plane.redistributions
    );
    let arm = Arm::of(format!("live {SHARDS}-shard"), LIVE_SECS, &result, api);
    Ok((arm, detail))
}

pub fn run() {
    let mut r = Report::new(
        "multishard",
        "Sharded control plane: 3 gateway shards vs 1, simulator and live",
    );
    let ob = OnlineBoutique::build();
    let api = ob.getproduct.idx();
    r.note(format!(
        "topfull-mimd; getproduct open-loop surge {BASE_RPS}→{SURGE_RPS}→{BASE_RPS} rps; \
         sim horizon {SIM_SECS}s virtual, live horizon {LIVE_SECS}s wall clock; sharded arms \
         run {SHARDS} gateways whose observations merge into one logical controller"
    ));

    let single = sim_single(&ob.topology, api);
    let (sharded, journal, sim_detail) = sim_sharded(&ob.topology, api);
    r.note(sim_detail);
    r.journal(journal);

    let mut arms = vec![single, sharded];
    match live_single(&ob.topology, api) {
        Ok(a) => arms.push(a),
        Err(e) => r.note(format!("live 1-gateway arm failed: {e}")),
    }
    match live_sharded(&ob.topology, api) {
        Ok((a, detail)) => {
            r.note(detail);
            arms.push(a);
        }
        Err(e) => r.note(format!("live {SHARDS}-shard arm failed: {e}")),
    }

    let mut rows = Vec::new();
    for arm in &arms {
        r.series(
            &format!("{} getproduct goodput (rps vs normalized t)", arm.label),
            arm.normalized(),
        );
        let h = arm.horizon_secs;
        rows.push(vec![
            arm.label.clone(),
            f1(arm.mean_goodput(h / 6.0, h / 3.0)),
            f1(arm.mean_goodput(h / 3.0, 2.0 * h / 3.0)),
            f1(arm.mean_goodput(5.0 * h / 6.0, h)),
        ]);
    }
    r.table(
        "per-arm goodput means (rps)",
        &["arm", "pre-surge", "during surge", "post-surge"],
        rows,
    );

    // The acceptance check: per plane, 3-shard surge goodput within
    // noise of the single gateway.
    for plane in ["sim", "live"] {
        let pick = |suffix: &str| {
            arms.iter()
                .find(|a| a.label == format!("{plane} {suffix}"))
                .map(|a| a.mean_goodput(a.horizon_secs / 3.0, 2.0 * a.horizon_secs / 3.0))
        };
        if let (Some(one), Some(n)) = (pick("1-gateway"), pick(&format!("{SHARDS}-shard"))) {
            let delta = (n - one).abs() / one.max(1.0) * 100.0;
            r.note(format!(
                "{plane}: surge goodput 1-gateway {one:.1} rps vs {SHARDS}-shard {n:.1} rps \
                 (delta {delta:.1}%)"
            ));
        }
    }
    r.note(
        "caveat: single-vCPU host — the 3-shard live arm runs three full worker pools on one \
         core, so deep-overload goodput and recovery pace carry extra contention the simulator \
         (and a real multi-host fleet) would not see. Compare pre/post steady state and control \
         shape; the sim arms isolate the control-plane question and overlay exactly.",
    );
    r.finish();
}
