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

use crate::experiments::two_plane::{self, Arm, BASE_RPS, SIM_SECS, SURGE_RPS};
use crate::models;
use crate::report::{f1, Report};
use crate::scenarios::Roster;
use apps::OnlineBoutique;

/// Live replay length (wall-clock seconds); the schedule compresses by
/// `LIVE_SECS / SIM_SECS`.
const LIVE_SECS: u64 = 30;

/// The shared controller: the cached Sim2Real-transferred policy when
/// present, the MIMD ablation otherwise. Never trains here — `figures
/// train` owns that.
fn roster() -> (Roster, &'static str) {
    match models::load("transfer_ob") {
        Some(policy) => (Roster::TopFull(policy), "topfull-rl(transfer_ob)"),
        None => (Roster::TopFullMimd, "topfull-mimd (no cached policy)"),
    }
}

/// Seconds from surge end until goodput first regains `frac` of the
/// pre-surge mean (`None` = never within the run).
fn recovery_secs(arm: &Arm, frac: f64) -> Option<f64> {
    let surge_end = 2.0 * arm.horizon_secs / 3.0;
    let pre = arm.mean_goodput(arm.horizon_secs / 6.0, arm.horizon_secs / 3.0);
    arm.goodput
        .iter()
        .find(|(t, v)| *t >= surge_end && *v >= frac * pre)
        .map(|(t, _)| t - surge_end)
}

pub fn run() -> Report {
    let mut r = Report::new(
        "sim2real",
        "Sim2Real: live TCP serving plane vs simulator, same controller",
    );
    let ob = OnlineBoutique::build();
    let (roster, ctrl_label) = roster();
    r.note(format!(
        "controller: {ctrl_label}; getproduct open-loop surge {BASE_RPS}→{SURGE_RPS}→{BASE_RPS} rps; \
         sim horizon {SIM_SECS}s virtual, live horizon {LIVE_SECS}s wall clock (schedule compressed 4x)"
    ));

    let h = two_plane::run_sim(two_plane::recipe(&ob).engine(), roster.clone());
    let sim = Arm::of("sim", SIM_SECS, h.result(), ob.getproduct);
    let live = match two_plane::live_single("live", &ob, roster, LIVE_SECS) {
        Ok(a) => a,
        Err(e) => {
            r.note(format!("live arm failed to start: {e}"));
            return r;
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
        let recovery = recovery_secs(arm, 0.8);
        rows.push(vec![
            arm.label.clone(),
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
    r
}
