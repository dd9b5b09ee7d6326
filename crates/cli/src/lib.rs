//! # topfull-cli — JSON scenario runner
//!
//! Lets operators exercise the TopFull stack without writing Rust: a
//! scenario file describes an application topology (or names a built-in
//! benchmark), a workload, a controller, and optional autoscaling /
//! failure injection; `topfull-sim run scenario.json` executes it and
//! prints per-API goodput, latency and an optional timeline.
//!
//! See [`schema`] for the file format, [`build`] for the
//! scenario → engine translation, and [`report`] for the output.

pub mod build;
pub mod explain;
pub mod keys;
pub mod live;
pub mod report;
pub mod schema;
pub mod trace;

pub use build::build_scenario;
pub use explain::explain_file;
pub use live::run_live;
pub use report::{render_report, ScenarioOutcome};
pub use schema::Scenario;
pub use trace::trace_source;

/// Top-level keys the scenario schema accepts. Kept in sync with
/// [`schema::Scenario`]'s fields; `parse_scenario` rejects anything
/// else so typos fail loudly instead of being silently ignored.
const TOP_LEVEL_KEYS: &[&str] = &[
    "name",
    "seed",
    "duration_secs",
    "slo_ms",
    "app",
    "workload",
    "controller",
    "autoscaler",
    "failures",
    "faults",
    "resilience",
    "live",
    "sharding",
    "admission",
    "slo",
    "report",
];

const SLO_KEYS: &[&str] = &[
    "objective",
    "fast_windows_secs",
    "slow_windows_secs",
    "page_burn",
    "ticket_burn",
];

const ADMISSION_KEYS: &[&str] = &["coalesce", "priority"];
const COALESCE_KEYS: &[&str] = &["apis", "key_space", "cache_capacity", "cache_ttl_ms"];
const PRIORITY_KEYS: &[&str] = &[
    "business_tiers",
    "user_levels",
    "alpha",
    "beta",
    "queuing_delay_ms",
];

const LIVE_KEYS: &[&str] = &[
    "cpu_scale",
    "control_interval_ms",
    "gateway_burst_secs",
    "port",
    "metrics_port",
    "event_loops",
    "max_conn_output",
];

const SHARDING_KEYS: &[&str] = &[
    "shards",
    "weights",
    "min_quantum",
    "strike_out",
    "reentry_ticks",
    "limit_ttl",
    "faults",
];

const RESILIENCE_KEYS: &[&str] = &["deadlines", "retry_budget", "breakers"];
const DEADLINE_KEYS: &[&str] = &["budget_ms", "cancel_doomed"];
const RETRY_BUDGET_KEYS: &[&str] = &["max_tokens", "token_ratio", "retry_cost"];
const BREAKER_KEYS: &[&str] = &[
    "failure_threshold",
    "min_calls",
    "open_for_ms",
    "half_open_probes",
];

const REPORT_KEYS: &[&str] = &["measure_from_secs", "timeline"];
const AUTOSCALER_KEYS: &[&str] = &[
    "target_utilization",
    "sync_period_secs",
    "pod_startup_secs",
    "vm_pool",
];
const VM_POOL_KEYS: &[&str] = &["vcpus_per_vm", "initial_vms", "max_vms", "vm_startup_secs"];

/// Per-variant key sets for the `faults` array (tagged by `kind`).
/// Public because the workflow engine (crates/scenario) embeds fault
/// schedules and key-checks them with the same table.
pub const FAULT_VARIANTS: &[(&str, &[&str])] = &[
    ("pod_kill", &["at_secs", "service", "pods"]),
    (
        "slow_pods",
        &["from_secs", "until_secs", "service", "factor"],
    ),
    (
        "network_degrade",
        &[
            "from_secs",
            "until_secs",
            "service",
            "extra_latency_ms",
            "loss",
        ],
    ),
    ("telemetry_dropout", &["from_secs", "until_secs", "service"]),
    (
        "telemetry_staleness",
        &["from_secs", "until_secs", "by_secs"],
    ),
    ("telemetry_noise", &["from_secs", "until_secs", "sigma"]),
    ("controller_stall", &["from_secs", "until_secs"]),
];

/// Per-variant key sets for `sharding.faults` (tagged by `kind`).
const SHARD_FAULT_VARIANTS: &[(&str, &[&str])] = &[
    ("dropout", &["shard", "from_secs", "until_secs"]),
    ("kill", &["shard", "at_secs"]),
    ("controller_loss", &["from_secs", "until_secs"]),
];

/// Reject unknown keys — top-level and inside the nested `live`,
/// `sharding`, `faults`, `resilience`, `report` and `autoscaler`
/// blocks — with a "did you mean" suggestion.
fn check_scenario_keys(value: &serde_json::JsonValue) -> Result<(), String> {
    let serde::Value::Object(_) = value else {
        return Err("invalid scenario: top level must be a JSON object".into());
    };
    keys::check_keys("scenario", "", value, TOP_LEVEL_KEYS)?;
    if let Some(v) = value.get("live") {
        keys::check_keys("scenario", "live", v, LIVE_KEYS)?;
    }
    if let Some(v) = value.get("report") {
        keys::check_keys("scenario", "report", v, REPORT_KEYS)?;
    }
    if let Some(v) = value.get("slo") {
        keys::check_keys("scenario", "slo", v, SLO_KEYS)?;
    }
    if let Some(v) = value.get("autoscaler") {
        keys::check_keys("scenario", "autoscaler", v, AUTOSCALER_KEYS)?;
        if let Some(vp) = v.get("vm_pool") {
            keys::check_keys("scenario", "autoscaler.vm_pool", vp, VM_POOL_KEYS)?;
        }
    }
    if let Some(v) = value.get("sharding") {
        keys::check_keys("scenario", "sharding", v, SHARDING_KEYS)?;
        if let Some(f) = v.get("faults") {
            keys::check_tagged_items(
                "scenario",
                "sharding.faults",
                f,
                "kind",
                SHARD_FAULT_VARIANTS,
            )?;
        }
    }
    if let Some(v) = value.get("admission") {
        keys::check_keys("scenario", "admission", v, ADMISSION_KEYS)?;
        for (block, allowed) in [("coalesce", COALESCE_KEYS), ("priority", PRIORITY_KEYS)] {
            if let Some(sub) = v.get(block) {
                keys::check_keys("scenario", &format!("admission.{block}"), sub, allowed)?;
            }
        }
    }
    if let Some(v) = value.get("faults") {
        keys::check_tagged_items("scenario", "faults", v, "kind", FAULT_VARIANTS)?;
    }
    if let Some(v) = value.get("resilience") {
        keys::check_keys("scenario", "resilience", v, RESILIENCE_KEYS)?;
        for (block, allowed) in [
            ("deadlines", DEADLINE_KEYS),
            ("retry_budget", RETRY_BUDGET_KEYS),
            ("breakers", BREAKER_KEYS),
        ] {
            if let Some(sub) = v.get(block) {
                keys::check_keys("scenario", &format!("resilience.{block}"), sub, allowed)?;
            }
        }
    }
    Ok(())
}

/// Parse a scenario from JSON text. Unknown keys — top-level or inside
/// the nested config blocks — are an error (with a "did you mean"
/// hint), not a silent no-op.
pub fn parse_scenario(json: &str) -> Result<Scenario, String> {
    let value: serde_json::JsonValue =
        serde_json::from_str(json).map_err(|e| format!("invalid scenario: {e}"))?;
    check_scenario_keys(&value)?;
    serde_json::from_str(json).map_err(|e| format!("invalid scenario: {e}"))
}

/// Cross-spec composition rules checked before any run (and by
/// `topfull-sim check`): which controllers compose with sharding.
fn preflight(sc: &Scenario) -> Result<(), String> {
    if sc.admission.is_some() && sc.sharding.is_some() {
        return Err(
            "admission (front-door coalescing/priority) and sharding don't compose yet: \
             the coalescing cache and priority gate are per-gateway state, and the \
             virtual-shard plane splits one engine entry across shards"
                .into(),
        );
    }
    if sc.sharding.is_some() {
        if !matches!(
            sc.controller,
            schema::ControllerSpec::None | schema::ControllerSpec::Topfull { .. }
        ) {
            return Err(
                "sharding splits entry rate limits across gateway shards, so it only \
                 composes with entry controllers ('none' or 'topfull'); per-service \
                 schemes (dagor/breakwater/wisp) don't run at the sharded gateway"
                    .into(),
            );
        }
        if matches!(
            sc.controller,
            schema::ControllerSpec::Topfull { hardened: true, .. }
        ) {
            return Err(
                "sharding and hardened are mutually exclusive: the shard plane carries its \
                 own degradation ladder (limit TTL + local MIMD fallback) in place of the \
                 watchdog"
                    .into(),
            );
        }
    }
    Ok(())
}

/// What `validate_scenario` measured while building (for `check` output).
#[derive(Debug)]
pub struct CheckSummary {
    pub services: usize,
    pub apis: usize,
}

/// Validate a scenario without running it: composition rules, the full
/// scenario → engine build (topology, workload, controller, faults),
/// and — when sharded — the shard-plane config. This is everything
/// `run_scenario` does short of executing, so a scenario that checks
/// clean cannot fail at startup.
pub fn validate_scenario(sc: &Scenario) -> Result<CheckSummary, String> {
    preflight(sc)?;
    let built = build_scenario(sc)?;
    if let Some(spec) = &sc.sharding {
        build::sharded_config(spec)?;
    }
    Ok(CheckSummary {
        services: built.engine.topology().num_services(),
        apis: built.engine.topology().num_apis(),
    })
}

/// Run a scenario end to end.
pub fn run_scenario(sc: &Scenario) -> Result<ScenarioOutcome, String> {
    preflight(sc)?;
    let built = build_scenario(sc)?;
    let shards = sc
        .sharding
        .as_ref()
        .map(build::sharded_config)
        .transpose()?;
    report::execute(sc, built, shards)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_top_level_key_gets_a_did_you_mean_hint() {
        let json = r#"{
            "app": {"type": "builtin", "name": "online-boutique"},
            "workload": {"type": "open_loop", "rates": []},
            "shardng": {"shards": 3}
        }"#;
        let err = parse_scenario(json).expect_err("typo must be rejected");
        assert!(err.contains("unknown top-level key 'shardng'"), "{err}");
        assert!(err.contains("did you mean 'sharding'?"), "{err}");
        assert!(err.contains("valid keys:"), "{err}");
    }

    #[test]
    fn unrelated_unknown_key_lists_valid_keys_without_a_guess() {
        let json = r#"{
            "app": {"type": "builtin", "name": "online-boutique"},
            "workload": {"type": "open_loop", "rates": []},
            "zzqx": 1
        }"#;
        let err = parse_scenario(json).expect_err("unknown key must be rejected");
        assert!(err.contains("unknown top-level key 'zzqx'"), "{err}");
        assert!(!err.contains("did you mean"), "{err}");
    }

    #[test]
    fn nested_sharding_typo_is_rejected() {
        let json = r#"{
            "app": {"type": "builtin", "name": "online-boutique"},
            "workload": {"type": "open_loop", "rates": []},
            "sharding": {"shards": 3, "striek_out": 5}
        }"#;
        let err = parse_scenario(json).expect_err("nested typo must be rejected");
        assert!(
            err.contains("unknown key 'striek_out' in 'sharding'"),
            "{err}"
        );
        assert!(err.contains("did you mean 'strike_out'?"), "{err}");
    }

    #[test]
    fn nested_live_and_resilience_typos_are_rejected() {
        let json = r#"{
            "app": {"type": "builtin", "name": "online-boutique"},
            "workload": {"type": "open_loop", "rates": []},
            "live": {"control_intervl_ms": 100}
        }"#;
        let err = parse_scenario(json).expect_err("live typo must be rejected");
        assert!(err.contains("in 'live'"), "{err}");
        assert!(err.contains("did you mean 'control_interval_ms'?"), "{err}");

        let json = r#"{
            "app": {"type": "builtin", "name": "online-boutique"},
            "workload": {"type": "open_loop", "rates": []},
            "resilience": {"breakers": {"failure_treshold": 0.4}}
        }"#;
        let err = parse_scenario(json).expect_err("breaker typo must be rejected");
        assert!(err.contains("in 'resilience.breakers'"), "{err}");
        assert!(err.contains("did you mean 'failure_threshold'?"), "{err}");
    }

    #[test]
    fn fault_entry_typos_name_the_entry_and_variant() {
        let json = r#"{
            "app": {"type": "builtin", "name": "online-boutique"},
            "workload": {"type": "open_loop", "rates": []},
            "faults": [
                {"kind": "slow_pods", "from_secs": 10, "until_secs": 20,
                 "service": "cartservice", "factor": 4.0},
                {"kind": "network_degrade", "from_secs": 10, "until_secs": 20, "los": 0.1}
            ]
        }"#;
        let err = parse_scenario(json).expect_err("fault typo must be rejected");
        assert!(err.contains("'faults[1] (network_degrade)'"), "{err}");
        assert!(err.contains("did you mean 'loss'?"), "{err}");
    }

    #[test]
    fn shard_fault_typos_are_rejected() {
        let json = r#"{
            "app": {"type": "builtin", "name": "online-boutique"},
            "workload": {"type": "open_loop", "rates": []},
            "sharding": {"shards": 3, "faults": [{"kind": "kill", "shard": 1, "at_sec": 30}]}
        }"#;
        let err = parse_scenario(json).expect_err("shard fault typo must be rejected");
        assert!(err.contains("'sharding.faults[0] (kill)'"), "{err}");
        assert!(err.contains("did you mean 'at_secs'?"), "{err}");
    }

    #[test]
    fn valid_nested_blocks_still_parse() {
        let json = r#"{
            "app": {"type": "builtin", "name": "online-boutique"},
            "workload": {"type": "open_loop", "rates": [
                {"api": "getproduct", "steps": [[0, 100.0]]}
            ]},
            "live": {"control_interval_ms": 100, "metrics_port": 9900},
            "sharding": {"shards": 2, "faults": [{"kind": "kill", "shard": 1, "at_secs": 30}]},
            "faults": [{"kind": "controller_stall", "from_secs": 5, "until_secs": 10}],
            "resilience": {"deadlines": {"cancel_doomed": true}}
        }"#;
        let sc = parse_scenario(json).expect("valid scenario parses");
        assert_eq!(sc.sharding.expect("sharding").shards, 2);
    }

    #[test]
    fn sharding_rejects_per_service_controllers() {
        let mut sc = Scenario::example();
        sc.controller = schema::ControllerSpec::Dagor { alpha: 0.05 };
        sc.sharding = Some(schema::ShardingSpec {
            shards: 3,
            ..Default::default()
        });
        let err = run_scenario(&sc).expect_err("dagor cannot shard at the gateway");
        assert!(err.contains("entry controllers"), "{err}");
        let err = validate_scenario(&sc).expect_err("check catches it too");
        assert!(err.contains("entry controllers"), "{err}");
    }

    #[test]
    fn sharding_rejects_the_hardened_loop() {
        let mut sc = Scenario::example();
        sc.controller = schema::ControllerSpec::Topfull {
            rate_controller: "mimd".into(),
            clustering: true,
            hardened: true,
        };
        sc.sharding = Some(schema::ShardingSpec {
            shards: 2,
            ..Default::default()
        });
        let err = run_scenario(&sc).expect_err("hardened + sharding is ambiguous");
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = validate_scenario(&sc).expect_err("check catches it too");
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn admission_typos_and_sharding_combo_are_rejected() {
        let json = r#"{
            "app": {"type": "builtin", "name": "online-boutique"},
            "workload": {"type": "open_loop", "rates": []},
            "admission": {"coalesce": {"apis": ["getproduct"], "cache_tl_ms": 100}}
        }"#;
        let err = parse_scenario(json).expect_err("admission typo must be rejected");
        assert!(err.contains("in 'admission.coalesce'"), "{err}");
        assert!(err.contains("did you mean 'cache_ttl_ms'?"), "{err}");

        let mut sc = Scenario::example();
        sc.admission = Some(schema::AdmissionSpec {
            priority: Some(schema::PrioritySpec::default()),
            ..Default::default()
        });
        sc.sharding = Some(schema::ShardingSpec {
            shards: 2,
            ..Default::default()
        });
        let err = validate_scenario(&sc).expect_err("admission + sharding must be rejected");
        assert!(err.contains("don't compose"), "{err}");
    }

    #[test]
    fn validate_scenario_summarizes_without_running() {
        let sc = Scenario::example();
        let sum = validate_scenario(&sc).expect("example validates");
        assert_eq!(sum.services, 2);
        assert_eq!(sum.apis, 1);
    }

    #[test]
    fn sharded_run_matches_single_gateway_within_noise() {
        let mut sc = Scenario::example();
        sc.duration_secs = 60;
        sc.report.measure_from_secs = 30;
        sc.report.timeline = false;
        let single = run_scenario(&sc).expect("single runs");
        sc.sharding = Some(schema::ShardingSpec {
            shards: 3,
            ..Default::default()
        });
        let sharded = run_scenario(&sc).expect("sharded runs");
        let plane = sharded.shard_plane.as_ref().expect("plane stats present");
        assert!(plane.merges > 0, "controller saw merged observations");
        let (a, b) = (single.total_goodput, sharded.total_goodput);
        assert!(
            (a - b).abs() / a.max(1.0) < 0.15,
            "3-shard goodput {b:.1} strays from single-gateway {a:.1}"
        );
        let text = render_report(&sc, &sharded);
        assert!(text.contains("shard plane:"), "{text}");
    }

    #[test]
    fn sharded_kill_redistributes_and_journals() {
        let mut sc = Scenario::example();
        sc.duration_secs = 60;
        sc.report.measure_from_secs = 30;
        sc.report.timeline = false;
        sc.sharding = Some(schema::ShardingSpec {
            shards: 3,
            faults: vec![schema::ShardFaultJson::Kill {
                shard: 2,
                at_secs: 30,
            }],
            ..Default::default()
        });
        let out = run_scenario(&sc).expect("sharded kill runs");
        let plane = out.shard_plane.as_ref().expect("plane stats");
        assert!(plane.strike_outs >= 1, "killed shard must strike out");
        assert!(plane.redistributions >= 1, "quota must redistribute");
        let membership: Vec<_> = out
            .journal
            .iter()
            .filter(|e| matches!(e, obs::JournalEntry::ShardMembership { .. }))
            .collect();
        assert!(!membership.is_empty(), "membership transitions journaled");
    }
}
