//! The surge `sim2real` and `multishard` both replay on two planes: one
//! Online Boutique getproduct step — base, surge over the middle third,
//! base — in the simulator over [`SIM_SECS`] virtual seconds and against
//! the live serving plane (`liveserve`: loopback TCP gateway,
//! CPU-burning worker pool) compressed into a wall-clock horizon. Both
//! figures plot every arm on a time axis normalized by its horizon.

use crate::scenarios::{Recipe, Roster};
use apps::OnlineBoutique;
use cluster::{
    ApiId, ControlLoop, EngineConfig, Harness, Plane, RateSchedule, RunResult, SimPlane,
};
use liveserve::{LiveConfig, LiveServer, LoadGen, OpenLoopArm};
use simnet::SimTime;
use std::time::Duration;

/// Simulated scenario length (virtual seconds).
pub const SIM_SECS: u64 = 120;
/// Baseline getproduct rate — under capacity on both planes.
pub const BASE_RPS: f64 = 150.0;
/// Surge rate: 3× the simulator's recommendation-service capacity
/// (≈500 rps) and ≈5× the live plane's single-core capacity.
pub const SURGE_RPS: f64 = 1500.0;

/// `(t, rps)` surge schedule over a horizon of `secs`.
fn schedule(secs: u64) -> [(f64, f64); 3] {
    let t = secs as f64;
    [
        (0.0, BASE_RPS),
        (t / 3.0, SURGE_RPS),
        (2.0 * t / 3.0, BASE_RPS),
    ]
}

/// getproduct's timelines out of one finished run on either plane.
pub struct Arm {
    pub label: String,
    pub horizon_secs: f64,
    /// `(t, goodput)`.
    pub goodput: Vec<(f64, f64)>,
    /// `(t, p99 seconds)`.
    pub p99: Vec<(f64, f64)>,
}

impl Arm {
    pub fn of(label: impl Into<String>, horizon_secs: u64, r: &RunResult, api: ApiId) -> Arm {
        Arm {
            label: label.into(),
            horizon_secs: horizon_secs as f64,
            goodput: r.goodput_series(api),
            p99: r.series(|s| s.p99[api.idx()]),
        }
    }

    /// Mean goodput over `[from, to)` seconds — half-open, so thirds of
    /// a run tile it (`RunResult::mean_over` counts a boundary tick in
    /// both neighbours).
    pub fn mean_goodput(&self, from: f64, to: f64) -> f64 {
        let inside = self.goodput.iter().filter(|(t, _)| *t >= from && *t < to);
        simnet::stats::mean(&inside.map(|(_, v)| *v).collect::<Vec<f64>>())
    }

    /// `series` with time as a fraction of the horizon.
    pub fn normalized(&self, series: &[(f64, f64)]) -> Vec<(f64, f64)> {
        let scale = |(t, v): &(f64, f64)| (t / self.horizon_secs, *v);
        series.iter().map(scale).collect()
    }
}

/// The surge in the simulator, on the engine's default seed.
pub fn recipe(ob: &OnlineBoutique) -> Recipe {
    let steps = schedule(SIM_SECS).map(|(t, v)| (SimTime::from_nanos((t * 1e9) as u64), v));
    let rates = vec![(ob.getproduct, RateSchedule::steps(steps.to_vec()))];
    Recipe::open_loop(&ob.topology, rates, EngineConfig::default().seed)
}

/// `roster`'s entry controller over a simulated plane — an engine, or
/// one behind gateway shards — for [`SIM_SECS`].
pub fn run_sim<P: SimPlane>(plane: P, roster: Roster) -> Harness<P> {
    let mut h = Harness::new(plane, roster.controller());
    h.run_for_secs(SIM_SECS);
    h
}

pub fn live_config() -> LiveConfig {
    LiveConfig {
        slo: Duration::from_secs(1),
        control_interval: Duration::from_millis(250),
        cpu_scale: 1.0,
        ..LiveConfig::default()
    }
}

/// The surge as one open-loop arm over `live_secs` of wall clock.
pub fn live_load(ob: &OnlineBoutique, live_secs: u64) -> Vec<OpenLoopArm> {
    vec![OpenLoopArm {
        api: ob.getproduct.idx(),
        rate_steps: schedule(live_secs).to_vec(),
        key_space: 0,
    }]
}

/// `roster`'s entry controller over a started live plane for
/// `live_secs`, on the calling thread.
pub fn run_live(plane: &mut dyn Plane, roster: Roster, live_secs: u64) -> RunResult {
    liveserve::run(
        &mut ControlLoop::new(roster.controller()),
        plane,
        live_config().control_interval,
        Duration::from_secs(live_secs),
    )
}

/// The one-gateway live arm: server, load generator, run, teardown.
pub fn live_single(
    label: &str,
    ob: &OnlineBoutique,
    roster: Roster,
    live_secs: u64,
) -> Result<Arm, String> {
    let mut server =
        LiveServer::start(&ob.topology, live_config()).map_err(|e| format!("live server: {e}"))?;
    let gen = LoadGen::start(server.addr(), None, live_load(ob, live_secs))
        .map_err(|e| format!("load generator: {e}"))?;
    let result = run_live(&mut server, roster, live_secs);
    gen.stop();
    server.shutdown();
    Ok(Arm::of(label, live_secs, &result, ob.getproduct))
}
