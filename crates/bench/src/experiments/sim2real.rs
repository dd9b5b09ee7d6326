//! Sim2Real: the same controller, virtual vs wall clock.
//!
//! Runs one Online Boutique surge scenario twice with an *identical*
//! TopFull controller configuration — once in the discrete-event
//! simulator, once against the live serving plane (`liveserve`: real
//! loopback TCP gateway, CPU-burning worker pool, wall-clock metric
//! windows) — and overlays the goodput and p99 trajectories on a
//! normalized time axis.
//!
//! What should match: the control *shape* — detect, cut, hold, recover,
//! release. What cannot match: absolute capacity. The live worker pool
//! shares one host core across all services (one worker thread per
//! service, burn divided by replica count), so the live plane saturates
//! at the *sum* of per-service CPU along the path, while the simulator
//! gives every service its own cores. The figure therefore reports each
//! plane's goodput normalized to its own pre-surge mean alongside the
//! raw series.

use crate::models;
use crate::report::{f1, Report};
use apps::OnlineBoutique;
use cluster::{
    Controller, Engine, EngineConfig, Harness, OpenLoopWorkload, RateSchedule, Topology,
};
use liveserve::{LiveConfig, LiveServer, LoadGen, OpenLoopArm};
use simnet::SimTime;
use std::time::Duration;
use topfull::{TopFull, TopFullConfig};

/// Simulated scenario length (virtual seconds).
const SIM_SECS: u64 = 120;
/// Live replay length (wall-clock seconds); schedules compress by
/// `LIVE_SECS / SIM_SECS`.
const LIVE_SECS: u64 = 30;
/// Baseline getproduct rate — under capacity on both planes.
const BASE_RPS: f64 = 150.0;
/// Surge rate: 3× the simulator's recommendation-service capacity
/// (≈500 rps) and ≈5× the live plane's single-core capacity.
const SURGE_RPS: f64 = 1500.0;

/// The shared controller: the cached Sim2Real-transferred policy when
/// present, the MIMD ablation otherwise. Never trains here — `figures
/// train` owns that.
fn controller() -> (Box<dyn Controller>, &'static str) {
    match models::load("transfer_ob") {
        Some(policy) => (
            Box::new(TopFull::new(TopFullConfig::default().with_rl(policy))),
            "topfull-rl(transfer_ob)",
        ),
        None => (
            Box::new(TopFull::new(TopFullConfig::default().with_mimd())),
            "topfull-mimd (no cached policy)",
        ),
    }
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
    label: &'static str,
    horizon_secs: f64,
    /// getproduct `(t, goodput)`.
    goodput: Vec<(f64, f64)>,
    /// getproduct `(t, p99 seconds)`.
    p99: Vec<(f64, f64)>,
}

impl Arm {
    /// getproduct's series out of a finished run on either plane.
    fn of(label: &'static str, horizon_secs: u64, r: &cluster::RunResult, api: usize) -> Arm {
        Arm {
            label,
            horizon_secs: horizon_secs as f64,
            goodput: r.goodput_series(cluster::ApiId(api as u32)),
            p99: r.series(|s| s.p99[api]),
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

    /// Seconds from surge end until goodput first regains `frac` of the
    /// pre-surge mean (`None` = never within the run).
    fn recovery_secs(&self, frac: f64) -> Option<f64> {
        let surge_end = 2.0 * self.horizon_secs / 3.0;
        let pre = self.mean_goodput(self.horizon_secs / 6.0, self.horizon_secs / 3.0);
        self.goodput
            .iter()
            .find(|(t, v)| *t >= surge_end && *v >= frac * pre)
            .map(|(t, _)| t - surge_end)
    }

    fn normalized(&self, series: &[(f64, f64)]) -> Vec<(f64, f64)> {
        series
            .iter()
            .map(|(t, v)| (t / self.horizon_secs, *v))
            .collect()
    }
}

fn sim_arm(topo: Topology, api: usize) -> Arm {
    let steps = schedule(SIM_SECS)
        .iter()
        .map(|&(t, v)| (SimTime::from_nanos((t * 1e9) as u64), v))
        .collect();
    let workload = Box::new(OpenLoopWorkload::new(vec![(
        cluster::ApiId(api as u32),
        RateSchedule::steps(steps),
    )]));
    let engine = Engine::new(topo, EngineConfig::default(), workload);
    let (ctrl, _) = controller();
    let mut h = Harness::new(engine, ctrl);
    h.run_for_secs(SIM_SECS);
    Arm::of("sim", SIM_SECS, h.result(), api)
}

fn live_arm(topo: &Topology, api: usize) -> Result<Arm, String> {
    let cfg = LiveConfig {
        slo: Duration::from_secs(1),
        control_interval: Duration::from_millis(250),
        cpu_scale: 1.0,
        ..LiveConfig::default()
    };
    let mut server = LiveServer::start(topo, cfg).map_err(|e| format!("live server: {e}"))?;
    let scale = LIVE_SECS as f64 / SIM_SECS as f64;
    let rate_steps = schedule(SIM_SECS)
        .iter()
        .map(|&(t, v)| (t * scale, v))
        .collect();
    let arm = OpenLoopArm {
        api,
        rate_steps,
        key_space: 0,
    };
    let gen = LoadGen::start(server.addr(), None, vec![arm])
        .map_err(|e| format!("load generator: {e}"))?;
    let mut ctl = cluster::ControlLoop::new(controller().0);
    let result = liveserve::run(
        &mut ctl,
        &mut server,
        cfg.control_interval,
        Duration::from_secs(LIVE_SECS),
    );
    gen.stop();
    server.shutdown();
    Ok(Arm::of("live", LIVE_SECS, &result, api))
}

pub fn run() {
    let mut r = Report::new(
        "sim2real",
        "Sim2Real: live TCP serving plane vs simulator, same controller",
    );
    let ob = OnlineBoutique::build();
    let api = ob.getproduct.idx();
    let (_, ctrl_label) = controller();
    r.note(format!(
        "controller: {ctrl_label}; getproduct open-loop surge {BASE_RPS}→{SURGE_RPS}→{BASE_RPS} rps; \
         sim horizon {SIM_SECS}s virtual, live horizon {LIVE_SECS}s wall clock (schedule compressed 4x)"
    ));

    let sim = sim_arm(ob.topology.clone(), api);
    let live = match live_arm(&ob.topology, api) {
        Ok(a) => a,
        Err(e) => {
            r.note(format!("live arm failed to start: {e}"));
            r.finish();
            return;
        }
    };

    let mut rows = Vec::new();
    for arm in [&sim, &live] {
        r.series(
            &format!("{} getproduct goodput (rps vs normalized t)", arm.label),
            arm.normalized(&arm.goodput),
        );
        r.series(
            &format!("{} getproduct p99 (s vs normalized t)", arm.label),
            arm.normalized(&arm.p99),
        );
        let pre = arm.mean_goodput(arm.horizon_secs / 6.0, arm.horizon_secs / 3.0);
        let surge = arm.mean_goodput(arm.horizon_secs / 3.0, 2.0 * arm.horizon_secs / 3.0);
        let recovery = arm.recovery_secs(0.8);
        rows.push(vec![
            arm.label.to_string(),
            f1(pre),
            f1(surge),
            recovery.map_or("never".into(), f1),
        ]);
    }
    r.table(
        "per-plane control summary (recovery target: 80% of pre-surge within 10s wall)",
        &[
            "plane",
            "pre-surge goodput (rps)",
            "goodput during surge (rps)",
            "recovery after surge end (s)",
        ],
        rows,
    );
    r.note(
        "caveat: single-vCPU host — the live worker pool multiplexes every service onto one \
         core, so live absolute capacity is the path's summed CPU (≈270 rps for getproduct), \
         not the simulator's per-service replica capacity (≈500 rps at recommendationservice). \
         Compare control shape (cut/hold/recover), not raw magnitudes.",
    );
    r.finish();
}
