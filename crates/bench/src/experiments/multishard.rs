//! Multi-shard overlay: one logical controller over N gateway shards.
//!
//! Runs the Online Boutique getproduct surge four times — simulator and
//! live serving plane, each with a single gateway and with three shards
//! under the sharded control plane — and overlays the goodput
//! trajectories. The acceptance bar: sharding is a *deployment* change,
//! not a *control* change, so the 3-shard arms must track their
//! single-gateway twins within noise while the journal shows the extra
//! aggregation/split machinery at work.

use crate::experiments::two_plane::{self, Arm, BASE_RPS, SIM_SECS, SURGE_RPS};
use crate::report::{f1, Report};
use crate::scenarios::Roster;
use apps::OnlineBoutique;
use liveserve::{ShardedLive, ShardedLiveConfig};
use topfull::{ShardPlaneStats, Sharded, ShardedConfig};

/// Live replay length (wall-clock seconds).
const LIVE_SECS: u64 = 36;
/// Shard count for the sharded arms.
const SHARDS: usize = 3;

fn detail(plane: &str, stats: ShardPlaneStats) -> String {
    format!(
        "{plane} 3-shard plane: merges={} strike-outs={} redistributions={}",
        stats.merges, stats.strike_outs, stats.redistributions
    )
}

fn live_sharded(ob: &OnlineBoutique) -> Result<(Arm, String), String> {
    let cfg = ShardedLiveConfig::new(SHARDS, two_plane::live_config());
    let load = two_plane::live_load(ob, LIVE_SECS);
    let mut fleet = ShardedLive::start(&ob.topology, cfg, None, load)
        .map_err(|e| format!("sharded fleet: {e}"))?;
    let result = two_plane::run_live(&mut fleet, Roster::TopFullMimd, LIVE_SECS);
    let detail = detail("live", fleet.plane_stats());
    fleet.into_set().shutdown();
    let label = format!("live {SHARDS}-shard");
    Ok((Arm::of(label, LIVE_SECS, &result, ob.getproduct), detail))
}

pub fn run() -> Report {
    let mut r = Report::new(
        "multishard",
        "Sharded control plane: 3 gateway shards vs 1, simulator and live",
    );
    let ob = OnlineBoutique::build();
    let api = ob.getproduct;
    r.note(format!(
        "topfull-mimd; getproduct open-loop surge {BASE_RPS}→{SURGE_RPS}→{BASE_RPS} rps; \
         sim horizon {SIM_SECS}s virtual, live horizon {LIVE_SECS}s wall clock; sharded arms \
         run {SHARDS} gateways whose observations merge into one logical controller"
    ));

    let recipe = two_plane::recipe(&ob);
    let single = two_plane::run_sim(recipe.engine(), Roster::TopFullMimd);
    let plane =
        Sharded::sim(recipe.engine(), ShardedConfig::uniform(SHARDS)).expect("valid config");
    let sharded = two_plane::run_sim(plane, Roster::TopFullMimd);
    r.note(detail("sim", sharded.engine.plane_stats()));
    r.journal(sharded.journal().snapshot());

    let mut arms = vec![
        Arm::of("sim 1-gateway", SIM_SECS, single.result(), api),
        Arm::of(
            format!("sim {SHARDS}-shard"),
            SIM_SECS,
            sharded.result(),
            api,
        ),
    ];
    match two_plane::live_single("live 1-gateway", &ob, Roster::TopFullMimd, LIVE_SECS) {
        Ok(a) => arms.push(a),
        Err(e) => r.note(format!("live 1-gateway arm failed: {e}")),
    }
    match live_sharded(&ob) {
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
            arm.normalized(&arm.goodput),
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
    r
}
