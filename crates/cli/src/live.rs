//! Scenario → live plane translation (`topfull live`).
//!
//! Takes the *same* scenario file the simulator runs and serves it for
//! real: the topology becomes a CPU-burning worker pool behind a
//! loopback TCP gateway ([`liveserve`]), the workload becomes socket
//! clients, and the controller runs on a wall-clock tick. The front half
//! is the simulator's own — `crate::preflight`, then [`crate::build`]'s
//! topology, entry controller, API-name resolution, front-door and shard
//! lowering. What is live's alone is here: workload step times are
//! compressed by `live_duration / scenario.duration_secs` (a 120-second
//! scenario replays its shape in, say, a 24-second live run), the host
//! knobs become a [`LiveConfig`], and what has no live equivalent is
//! refused loudly, by its key, before any socket binds — live mode
//! controls **entry admission only**, so the per-service baselines
//! (DAGOR, Breakwater, WISP), the retry-storm workload, the `faults`,
//! `autoscaler` and `resilience` blocks, `pod_startup_secs`,
//! `sharding.weights` and the telemetry-dropout shard fault are
//! simulator-only. A hardened controller runs under the same watchdog
//! as on the simulator.

use crate::build::{api_id, build_topology, entry_controller, front_door_config, resolve_weights};
use crate::report::{self, ScenarioOutcome};
use crate::schema::{ControllerSpec, LiveSpec, Scenario, ShardingSpec, WorkloadSpec};
use cluster::{ControlLoop, ShardFault, Topology};
use liveserve::{
    ClosedLoopSpec, LiveConfig, LiveServer, LoadGen, OpenLoopArm, ShardedLive, ShardedLiveConfig,
};
use std::time::Duration;

/// Compress a `(from_secs, value)` schedule by `scale`.
fn scale_steps(steps: &[(u64, f64)], scale: f64) -> Vec<(f64, f64)> {
    steps.iter().map(|&(t, v)| (t as f64 * scale, v)).collect()
}

/// Translate the scenario workload into live clients.
fn build_load(
    topo: &Topology,
    spec: &WorkloadSpec,
    scale: f64,
) -> Result<(Option<ClosedLoopSpec>, Vec<OpenLoopArm>), String> {
    match spec {
        WorkloadSpec::OpenLoop { rates } => {
            let mut arms = Vec::with_capacity(rates.len());
            for r in rates {
                arms.push(OpenLoopArm {
                    api: api_id(topo, &r.api)?.idx(),
                    rate_steps: scale_steps(&r.steps, scale),
                    key_space: 0,
                });
            }
            Ok((None, arms))
        }
        WorkloadSpec::ClosedLoop {
            users_steps,
            think_ms,
            api_weights,
        } => {
            let weights = resolve_weights(topo, api_weights)?;
            Ok((
                Some(ClosedLoopSpec {
                    users_steps: scale_steps(users_steps, scale),
                    think: Duration::from_millis(*think_ms),
                    api_weights: weights.into_iter().map(|(id, w)| (id.idx(), w)).collect(),
                    key_spaces: Vec::new(),
                }),
                Vec::new(),
            ))
        }
        WorkloadSpec::RetryStorm { .. } => Err(
            "the retry_storm workload has no live equivalent (its retrying \
             clients live inside the simulator); use open_loop or closed_loop"
                .into(),
        ),
    }
}

/// Run a scenario against the live plane for `duration_secs` of wall
/// clock, returning the same outcome shape as the simulator. With a
/// `sharding` block the plane is N real gateways under the one logical
/// controller; either way the same [`ControlLoop`] drives it.
pub fn run_live(sc: &Scenario, duration_secs: u64) -> Result<ScenarioOutcome, String> {
    if duration_secs == 0 {
        return Err("live duration must be at least 1 second".into());
    }
    if sc.duration_secs == 0 {
        return Err("scenario duration_secs must be positive".into());
    }
    crate::preflight(sc)?;
    refuse_simulator_only(sc)?;
    let mut cfg = live_config(&sc.live.clone().unwrap_or_default(), sc.slo_ms)?;
    let topo = build_topology(&sc.app)?;
    let mut ctl = control_loop(sc)?;
    let scale = duration_secs as f64 / sc.duration_secs as f64;
    let (mut closed, mut arms) = build_load(&topo, &sc.workload, scale)?;
    if let Some(adm) = &sc.admission {
        let (front, key_spaces) = front_door_config(&topo, adm)?;
        cfg.front = Some(front);
        // Keyed traffic: each client draws keys from the scenario's
        // per-API key space so duplicate reads actually collide.
        if let Some(c) = closed.as_mut() {
            c.key_spaces.clone_from(&key_spaces);
        }
        for a in &mut arms {
            a.key_space = key_spaces.get(a.api).copied().unwrap_or(0);
        }
    }
    let (interval, duration) = (cfg.control_interval, Duration::from_secs(duration_secs));
    let api_names: Vec<String> = topo.apis().map(|(_, a)| a.name.clone()).collect();
    let outcome = |result: &cluster::RunResult, ctl: &ControlLoop| {
        report::outcome(sc, Some(duration_secs), result, ctl.journal(), &api_names)
    };
    let Some(spec) = &sc.sharding else {
        let mut server =
            LiveServer::start(&topo, cfg).map_err(|e| format!("cannot start live server: {e}"))?;
        let gen = LoadGen::start(server.addr(), closed, arms)
            .map_err(|e| format!("cannot start load generator: {e}"))?;
        let result = liveserve::run(&mut ctl, &mut server, interval, duration);
        let mut out = outcome(&result, &ctl);
        out.live_rejects = Some((gen.rejects().limit(), gen.rejects().shed()));
        gen.stop();
        out.traces = server.traces();
        server.shutdown();
        return Ok(out);
    };
    let mut fleet = ShardedLive::start(&topo, sharded_live_config(spec, scale, cfg)?, closed, arms)
        .map_err(|e| format!("cannot start sharded live fleet: {e}"))?;
    fleet.attach_journal(std::sync::Arc::clone(ctl.journal()));
    let result = liveserve::run(&mut ctl, &mut fleet, interval, duration);
    let mut out = outcome(&result, &ctl);
    out.shard_plane = Some(fleet.plane_stats());
    out.shard_guards = Some(fleet.guard_stats());
    out.traces = fleet.set().traces();
    fleet.into_set().shutdown();
    Ok(out)
}

/// Refuse, by its key, a block only the simulator runs, rather than
/// serving the scenario without it.
fn refuse_simulator_only(sc: &Scenario) -> Result<(), String> {
    let weighted = sc.sharding.as_ref().is_some_and(|s| s.weights.is_some());
    let blocks = [
        ("faults", !sc.faults.is_empty()),
        ("autoscaler", sc.autoscaler.is_some()),
        ("pod_startup_secs", sc.pod_startup_secs.is_some()),
        ("resilience", sc.resilience.is_some()),
        ("sharding.weights", weighted),
    ];
    match blocks.into_iter().find(|(_, set)| *set) {
        Some((key, _)) => Err(format!(
            "{key} has no live equivalent (simulator only); remove it to run live"
        )),
        None => Ok(()),
    }
}

/// The loop that drives the live plane: the scenario's entry controller
/// and SLO monitor, under the watchdog when the controller is hardened —
/// what the simulator's harness runs.
fn control_loop(sc: &Scenario) -> Result<ControlLoop, String> {
    let controller = entry_controller(&sc.controller)?.ok_or_else(|| {
        format!(
            "live mode drives entry admission only; per-service admission \
             controller {:?} has no live equivalent (use topfull or none)",
            sc.controller
        )
    })?;
    let mut ctl = ControlLoop::new(controller);
    if matches!(
        sc.controller,
        ControllerSpec::Topfull { hardened: true, .. }
    ) {
        ctl = ctl.with_watchdog();
    }
    if let Some(slo) = sc.slo {
        ctl.set_slo_config(slo);
    }
    Ok(ctl)
}

/// Translate the scenario's shard spec into a live fleet config — the
/// simulator's validated shard config, with fault times (scenario
/// seconds) compressed by the same factor as the workload schedule.
fn sharded_live_config(
    spec: &ShardingSpec,
    scale: f64,
    base: LiveConfig,
) -> Result<ShardedLiveConfig, String> {
    let sim = crate::build::sharded_config(spec)?;
    let mut cfg = ShardedLiveConfig::new(spec.shards, base);
    cfg.plane = sim.plane;
    let secs = |t: simnet::SimTime| t.as_secs_f64() * scale;
    for f in sim.faults {
        match f {
            ShardFault::Kill { shard, at } => {
                if cfg.kill.replace((shard, secs(at))).is_some() {
                    return Err("live mode supports at most one shard kill per run".into());
                }
            }
            ShardFault::ControllerLoss { from, until } => {
                if cfg
                    .controller_loss
                    .replace((secs(from), secs(until)))
                    .is_some()
                {
                    return Err("live mode supports one controller-loss window per run".into());
                }
            }
            ShardFault::Dropout { shard, .. } => {
                return Err(format!(
                    "the dropout fault (shard {shard}) models a telemetry partition and \
                     is simulator-only; live mode supports kill and controller_loss"
                ));
            }
        }
    }
    Ok(cfg)
}

/// The `live` block lowered, each omitted key from `LiveConfig::default()`.
/// A `cpu_scale` that is not a positive number (every burn zero: a
/// gateway of unbounded capacity, or a panic building the stages) and a
/// non-finite `gateway_burst_secs` (buckets of infinite tokens) are
/// refused here, before anything binds a socket.
pub(crate) fn live_config(live: &LiveSpec, slo_ms: u64) -> Result<LiveConfig, String> {
    let base = LiveConfig::default();
    let cpu_scale = live.cpu_scale.unwrap_or(base.cpu_scale);
    if !(cpu_scale.is_finite() && cpu_scale > 0.0) {
        return Err(format!(
            "live.cpu_scale must be a finite number above 0, got {cpu_scale}"
        ));
    }
    let gateway_burst_secs = live.gateway_burst_secs.unwrap_or(base.gateway_burst_secs);
    if !gateway_burst_secs.is_finite() {
        return Err(format!(
            "live.gateway_burst_secs must be finite, got {gateway_burst_secs}"
        ));
    }
    Ok(LiveConfig {
        slo: Duration::from_millis(slo_ms),
        control_interval: live
            .control_interval_ms
            .map_or(base.control_interval, |ms| {
                Duration::from_millis(ms.max(10))
            }),
        cpu_scale,
        gateway_burst_secs,
        port: live.port.unwrap_or(base.port),
        metrics_port: live.metrics_port.unwrap_or(base.metrics_port),
        event_loops: live.event_loops.unwrap_or(base.event_loops),
        max_conn_output: live.max_conn_output.unwrap_or(base.max_conn_output),
        front: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_scenario;
    use crate::schema::ShardFaultJson;

    fn tiny_live_scenario(workload: &str, controller: &str) -> Scenario {
        let json = format!(
            r#"{{
                "name": "live-test",
                "duration_secs": 2,
                "slo_ms": 100,
                "app": {{"type": "inline",
                    "services": [{{"name": "svc", "replicas": 1, "queue_capacity": 64}}],
                    "apis": [{{"name": "ping", "paths": [
                        {{"root": {{"service": "svc", "cost_ms": 0.1}}}}
                    ]}}]
                }},
                "workload": {workload},
                "controller": {controller},
                "live": {{"control_interval_ms": 100}},
                "report": {{"measure_from_secs": 0}}
            }}"#
        );
        parse_scenario(&json).expect("parse")
    }

    #[test]
    fn open_loop_scenario_serves_real_traffic() {
        let sc = tiny_live_scenario(
            r#"{"type": "open_loop", "rates": [{"api": "ping", "steps": [[0, 200.0]]}]}"#,
            r#"{"type": "topfull", "rate_controller": "mimd"}"#,
        );
        let out = run_live(&sc, 2).expect("live run");
        assert_eq!(out.name, "live-test");
        assert_eq!(out.duration_secs, 2);
        assert_eq!(out.goodput_per_api[0].0, "ping");
        assert!(
            out.total_goodput > 100.0,
            "200 rps of 100µs work should mostly complete, got {}",
            out.total_goodput
        );
        assert!(!out.timeline.is_empty());
    }

    #[test]
    fn closed_loop_scenario_serves_real_traffic() {
        let sc = tiny_live_scenario(
            r#"{"type": "closed_loop", "users_steps": [[0, 4.0]], "think_ms": 10,
                "api_weights": [["ping", 1.0]]}"#,
            r#"{"type": "none"}"#,
        );
        let out = run_live(&sc, 2).expect("live run");
        assert!(
            out.total_goodput > 50.0,
            "4 users at ~10ms/turn exceed 50 rps, got {}",
            out.total_goodput
        );
    }

    #[test]
    fn unsupported_modes_are_rejected_loudly() {
        let sc = tiny_live_scenario(
            r#"{"type": "retry_storm", "users": 5, "api_weights": [["ping", 1.0]]}"#,
            r#"{"type": "none"}"#,
        );
        let err = run_live(&sc, 1).expect_err("retry storm must be rejected");
        assert!(err.contains("retry_storm"), "{err}");

        let sc = tiny_live_scenario(
            r#"{"type": "open_loop", "rates": []}"#,
            r#"{"type": "dagor"}"#,
        );
        let err = run_live(&sc, 1).expect_err("dagor must be rejected");
        assert!(err.contains("no live equivalent"), "{err}");

        let sc = tiny_live_scenario(
            r#"{"type": "open_loop", "rates": [{"api": "nope", "steps": []}]}"#,
            r#"{"type": "none"}"#,
        );
        let err = run_live(&sc, 1).expect_err("unknown API must be rejected");
        assert!(err.contains("nope"), "{err}");

        // Each simulator-only block is refused by its key, before the
        // gateway's port (taken here) is bound.
        let taken = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        for key in [
            "faults",
            "autoscaler",
            "pod_startup_secs",
            "resilience",
            "sharding.weights",
        ] {
            let mut sc = tiny_live_scenario(
                r#"{"type": "open_loop", "rates": [{"api": "ping", "steps": [[0, 50.0]]}]}"#,
                r#"{"type": "none"}"#,
            );
            match key {
                "faults" => {
                    let stall =
                        r#"[{"kind": "controller_stall", "from_secs": 0, "until_secs": 1}]"#;
                    sc.faults = serde_json::from_str(stall).expect("fault");
                }
                "autoscaler" => sc.autoscaler = Some(Default::default()),
                "pod_startup_secs" => sc.pod_startup_secs = Some(5),
                "resilience" => sc.resilience = Some(Default::default()),
                _ => {
                    sc.sharding = Some(ShardingSpec {
                        shards: 2,
                        weights: Some(vec![1.0, 3.0]),
                        ..Default::default()
                    })
                }
            }
            sc.live.as_mut().expect("live block").port =
                Some(taken.local_addr().expect("addr").port());
            let err = run_live(&sc, 1).expect_err(key);
            assert!(err.starts_with(&format!("{key} has no live")), "{err}");
        }
    }

    /// A hardened document runs under the watchdog live too: ticked over
    /// a telemetry blackout, the loop `run_live` drives freezes limits.
    #[test]
    fn a_hardened_controller_gets_the_watchdog() {
        for (hardened, frozen) in [(true, true), (false, false)] {
            let mut sc = tiny_live_scenario(
                r#"{"type": "open_loop", "rates": [{"api": "ping", "steps": [[0, 50.0]]}]}"#,
                &format!(
                    r#"{{"type": "topfull", "rate_controller": "mimd", "hardened": {hardened}}}"#
                ),
            );
            let mut ctl = control_loop(&sc).expect("an entry controller");
            sc.faults = vec![crate::schema::FaultSpecJson::TelemetryDropout {
                from_secs: 0,
                until_secs: 10,
                service: None,
            }];
            let mut engine = crate::build_scenario(&sc).expect("builds").engine;
            for t in 1..=6 {
                engine.run_until(simnet::SimTime::from_secs(t));
                ctl.tick(&mut engine);
            }
            let stats = ctl.watchdog_stats();
            assert_eq!(
                stats.frozen_ticks > 0,
                frozen,
                "hardened: {hardened}, {stats:?}"
            );
        }
    }

    #[test]
    fn sharded_live_run_reports_plane_stats() {
        let mut sc = tiny_live_scenario(
            r#"{"type": "open_loop", "rates": [{"api": "ping", "steps": [[0, 150.0]]}]}"#,
            r#"{"type": "topfull", "rate_controller": "mimd"}"#,
        );
        sc.sharding = Some(ShardingSpec {
            shards: 2,
            ..Default::default()
        });
        let out = run_live(&sc, 2).expect("sharded live run");
        let plane = out.shard_plane.expect("plane stats present");
        assert!(plane.merges > 0, "controller ticked on merged observations");
        assert!(
            out.total_goodput > 50.0,
            "two shards of 100µs work should serve >50 rps, got {}",
            out.total_goodput
        );
    }

    /// `topfull live` ran this to completion while `topfull check`
    /// refused it: `run_live` never called `preflight`.
    #[test]
    fn sharding_with_the_hardened_loop_is_refused_by_preflight() {
        let mut sc = tiny_live_scenario(
            r#"{"type": "open_loop", "rates": [{"api": "ping", "steps": [[0, 50.0]]}]}"#,
            r#"{"type": "topfull", "rate_controller": "mimd", "hardened": true}"#,
        );
        sc.sharding = Some(ShardingSpec {
            shards: 2,
            ..Default::default()
        });
        let err = run_live(&sc, 1).expect_err("hardened + sharding is ambiguous live too");
        assert_eq!(Err(err), crate::preflight(&sc));
    }

    #[test]
    fn dropout_fault_is_simulator_only_in_live_mode() {
        let mut sc = tiny_live_scenario(
            r#"{"type": "open_loop", "rates": [{"api": "ping", "steps": [[0, 50.0]]}]}"#,
            r#"{"type": "none"}"#,
        );
        sc.sharding = Some(ShardingSpec {
            shards: 2,
            faults: vec![ShardFaultJson::Dropout {
                shard: 0,
                from_secs: 0,
                until_secs: 1,
            }],
            ..Default::default()
        });
        let err = run_live(&sc, 1).expect_err("dropout must be rejected live");
        assert!(err.contains("simulator-only"), "{err}");
    }

    #[test]
    fn an_unusable_cpu_scale_or_burst_is_refused_before_binding() {
        for (block, key) in [
            (r#"{"cpu_scale": 0}"#, "live.cpu_scale"),
            (r#"{"cpu_scale": -1}"#, "live.cpu_scale"),
            (r#"{"cpu_scale": 1e999}"#, "live.cpu_scale"),
            (
                r#"{"gateway_burst_secs": 1e999}"#,
                "live.gateway_burst_secs",
            ),
        ] {
            let mut sc = tiny_live_scenario(
                r#"{"type": "open_loop", "rates": [{"api": "ping", "steps": [[0, 50.0]]}]}"#,
                r#"{"type": "none"}"#,
            );
            // The gateway's port is taken: an error naming the key, not
            // a bind failure, proves the check ran first.
            let taken = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            let mut live: LiveSpec = serde_json::from_str(block).expect("parse");
            live.port = Some(taken.local_addr().expect("addr").port());
            sc.live = Some(live);
            let err = run_live(&sc, 1).expect_err(block);
            assert!(err.starts_with(key), "{block}: {err}");
            let err = crate::validate_scenario(&sc).expect_err(block);
            assert!(err.starts_with(key), "{block}: {err}");
        }
    }

    #[test]
    fn schedules_compress_to_the_live_duration() {
        assert_eq!(
            scale_steps(&[(0, 10.0), (60, 30.0), (120, 10.0)], 0.25),
            vec![(0.0, 10.0), (15.0, 30.0), (30.0, 10.0)]
        );
    }
}
