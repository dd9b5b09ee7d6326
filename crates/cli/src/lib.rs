//! # topfull-cli — the `topfull` command line
//!
//! Lets operators exercise the TopFull stack without writing Rust: a
//! scenario file describes an application topology (or names a built-in
//! benchmark), a workload, a controller, and optional autoscaling /
//! failure injection; `topfull run scenario.json` executes it on the
//! simulator and prints per-API goodput, latency and an optional
//! timeline, and `topfull live` serves it on a real TCP gateway.
//!
//! See [`schema`] for the file format, [`build`] for the
//! scenario → engine translation, and [`report`] for the output.
//!
//! Above one scenario at a time sits the adversarial scenario engine:
//!
//! - [`workflow`] — reusable phases (plateau, ramp, flash crowd,
//!   diurnal, oscillating) composed into per-API tracks and compiled to
//!   the plain [`Scenario`] schema, so every plane runs them unchanged.
//! - [`matrix`] — workloads × fault plans × controller arms, executed
//!   through `cluster::runner`'s worker pool with a journal fingerprint
//!   per cell.
//! - [`objectives`] — what counts as a controller weakness, always
//!   against a no-controller oracle run of the same workflow.
//! - [`fuzz`] — the seeded mutation loop over workflow genomes.
//! - [`shrink`] — greedy reduction of a tripping genome to a minimal
//!   reproducer.

pub mod build;
pub mod explain;
pub mod fuzz;
pub mod live;
pub mod matrix;
pub mod objectives;
pub mod report;
pub mod schema;
pub mod shrink;
pub mod trace;
pub mod workflow;

pub use build::build_scenario;
pub use live::run_live;
pub use report::{render_report, ScenarioOutcome};
pub use schema::Scenario;
pub use trace::trace_source;

/// Parse a scenario from JSON text. The [`schema`] types deny unknown
/// fields, so a misspelt key at any depth is an error naming its path
/// and the nearest valid key, not a run with the default.
pub fn parse_scenario(json: &str) -> Result<Scenario, String> {
    serde_json::from_str(json).map_err(|e| format!("invalid scenario: {e}"))
}

/// Cross-spec composition rules, checked before anything is built on
/// either plane ([`run_scenario`], [`validate_scenario`], [`run_live`]):
/// what composes with sharding.
pub(crate) fn preflight(sc: &Scenario) -> Result<(), String> {
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
/// and — when present — the shard-plane and live configs. This is
/// everything [`run_scenario`] does short of executing, so a scenario
/// that checks clean cannot fail at the *simulator's* startup.
/// [`run_live`] shares `preflight` and the lowering, then refuses what
/// has no live equivalent — that half is checked only by running it.
pub fn validate_scenario(sc: &Scenario) -> Result<CheckSummary, String> {
    preflight(sc)?;
    let built = build_scenario(sc)?;
    if let Some(spec) = &sc.sharding {
        build::sharded_config(spec)?;
    }
    if let Some(live) = &sc.live {
        live::live_config(live, sc.slo_ms)?;
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
        assert!(
            err.starts_with("invalid scenario: unknown key 'shardng'"),
            "{err}"
        );
        assert!(err.contains("did you mean 'sharding'?"), "{err}");
        assert!(err.contains("valid keys: name, seed, "), "{err}");
    }

    #[test]
    fn unrelated_unknown_key_lists_valid_keys_without_a_guess() {
        // `failures` was the second spelling of a pod kill; a
        // `pod_kill` entry in `faults` is the one that is left.
        for (key, value) in [
            ("zzqx", "1"),
            (
                "failures",
                r#"[{"at_secs": 50, "service": "cartservice", "pods": 1}]"#,
            ),
        ] {
            let json = format!(
                r#"{{
                    "app": {{"type": "builtin", "name": "online-boutique"}},
                    "workload": {{"type": "open_loop", "rates": []}},
                    "{key}": {value}
                }}"#
            );
            let err = parse_scenario(&json).expect_err("unknown key must be rejected");
            assert!(err.contains(&format!("unknown key '{key}'")), "{err}");
            assert!(err.contains("valid keys: name, seed, "), "{err}");
            assert!(!err.contains("did you mean"), "{err}");
        }
    }

    #[test]
    fn nested_sharding_typo_is_rejected() {
        let json = r#"{
            "app": {"type": "builtin", "name": "online-boutique"},
            "workload": {"type": "open_loop", "rates": []},
            "sharding": {"shards": 3, "striek_out": 5}
        }"#;
        let err = parse_scenario(json).expect_err("nested typo must be rejected");
        assert!(err.contains("sharding: unknown key 'striek_out'"), "{err}");
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
        assert!(err.contains(" live: unknown key"), "{err}");
        assert!(err.contains("did you mean 'control_interval_ms'?"), "{err}");

        let json = r#"{
            "app": {"type": "builtin", "name": "online-boutique"},
            "workload": {"type": "open_loop", "rates": []},
            "resilience": {"breakers": {"failure_treshold": 0.4}}
        }"#;
        let err = parse_scenario(json).expect_err("breaker typo must be rejected");
        assert!(err.contains(" resilience.breakers: unknown key"), "{err}");
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
        assert!(err.contains(" faults[1] (network_degrade): "), "{err}");
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
        assert!(err.contains(" sharding.faults[0] (kill): "), "{err}");
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
        sc.controller = schema::ControllerSpec::topfull("mimd");
        if let schema::ControllerSpec::Topfull { hardened, .. } = &mut sc.controller {
            *hardened = true;
        }
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
        assert!(err.contains(" admission.coalesce: unknown key"), "{err}");
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
