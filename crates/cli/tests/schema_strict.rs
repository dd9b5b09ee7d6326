//! The two document formats check themselves: no key table.
//!
//! For each of scenario and matrix, a fixture with every
//! optional block present is serialized, and *every* object key at
//! *every* depth is replaced in turn by a one-edit misspelling. The
//! parser must reject each one, naming the path of the object the key
//! is in and suggesting the key that was meant. The fixtures are struct
//! literals without `..`, so a field added to a schema type does not
//! compile here until the fixture carries it — and is then covered.
//!
//! Below that, named regressions: the typos the hand-kept key tables
//! let through before the schema types denied unknown fields.

use serde::Value;
use topfull_cli::matrix::{parse_matrix, ArmDef, FaultPlanDef, MatrixSpec, WorkloadDef};
use topfull_cli::parse_scenario;
use topfull_cli::schema::*;

#[derive(Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// The location of every object key under `v`, depth first.
fn key_locations(v: &Value, at: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    match v {
        Value::Object(fields) => {
            for (k, child) in fields {
                at.push(Step::Key(k.clone()));
                out.push(at.clone());
                key_locations(child, at, out);
                at.pop();
            }
        }
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                at.push(Step::Index(i));
                key_locations(item, at, out);
                at.pop();
            }
        }
        _ => {}
    }
}

/// `doc` with the key at `loc` misspelt; also the path of the object
/// holding it (as the parser writes paths, less any variant note), the
/// key and the misspelling.
fn misspell(doc: &Value, loc: &[Step]) -> (Value, String, String, String) {
    let mut doc = doc.clone();
    let (Some(Step::Key(key)), parents) = (loc.last(), &loc[..loc.len() - 1]) else {
        panic!("a key location ends in a key");
    };
    let (mut node, mut path) = (&mut doc, String::new());
    for step in parents {
        node = match (step, node) {
            (Step::Key(k), Value::Object(fields)) => {
                if !path.is_empty() {
                    path.push('.');
                }
                path.push_str(k);
                &mut fields.iter_mut().find(|(n, _)| n == k).expect("key").1
            }
            (Step::Index(i), Value::Array(items)) => {
                path.push_str(&format!("[{i}]"));
                &mut items[*i]
            }
            _ => panic!("location does not fit the document"),
        };
    }
    let Value::Object(fields) = node else {
        panic!("a key lives in an object");
    };
    let typo = format!("{key}{}", key.chars().last().expect("non-empty key"));
    let slot = fields.iter_mut().find(|(n, _)| n == key).expect("key");
    slot.0.clone_from(&typo);
    (doc, path, key.clone(), typo)
}

/// Misspell every key of `doc` in turn; `parse` must reject each one at
/// its path with the right hint. Returns how many keys were tried.
fn every_misspelt_key_is_rejected<T: serde::Serialize>(
    doc: &T,
    parse: &dyn Fn(&str) -> Result<(), String>,
) -> usize {
    let doc = doc.to_value();
    let text = serde_json::to_string(&doc).expect("serializes");
    parse(&text).unwrap_or_else(|e| panic!("the fixture itself must parse: {e}\n{text}"));
    let mut locations = Vec::new();
    key_locations(&doc, &mut Vec::new(), &mut locations);
    for loc in &locations {
        let (bad, path, key, typo) = misspell(&doc, loc);
        let text = serde_json::to_string(&bad).expect("serializes");
        let Err(err) = parse(&text) else {
            panic!("'{typo}' for '{key}' at '{path}' was accepted");
        };
        // The tag of an enum is looked up before its variant is known,
        // so a misspelt tag reads as the tag missing.
        let hinted = err.contains(&format!("unknown key '{typo}' — did you mean '{key}'?"))
            || err.contains(&format!("missing field `{key}`"));
        assert!(hinted, "'{typo}' at '{path}': no hint for '{key}': {err}");
        let placed = path.is_empty()
            || err.contains(&format!(" {path}: "))
            || err.contains(&format!(" {path} ("));
        assert!(placed, "'{typo}': error does not name '{path}': {err}");
        assert!(err.contains("valid keys: ") || !err.contains("unknown key"));
    }
    locations.len()
}

fn no_nulls(doc: &impl serde::Serialize) {
    let text = serde_json::to_string(doc).expect("serializes");
    assert!(
        !text.contains("null"),
        "an optional block is absent from the fixture: {text}"
    );
}

fn inline_app() -> AppSpec {
    let call = |service: &str, children| CallSpec {
        service: service.into(),
        cost_ms: 1.0,
        children,
    };
    AppSpec::Inline {
        services: vec![
            ServiceSpec {
                name: "frontend".into(),
                replicas: 4,
                queue_capacity: Some(256),
                pod_speed: Some(1.0),
                crash_on_overload: true,
            },
            ServiceSpec {
                name: "backend".into(),
                replicas: 1,
                queue_capacity: Some(512),
                pod_speed: Some(2.0),
                crash_on_overload: false,
            },
        ],
        apis: vec![ApiSpec {
            name: "get".into(),
            business_priority: 1,
            paths: vec![PathSpec {
                weight: 1.0,
                root: call("frontend", vec![call("backend", vec![])]),
            }],
        }],
    }
}

fn every_fault() -> Vec<FaultSpecJson> {
    let (from_secs, until_secs) = (10, 20);
    let service = Some("backend".to_string());
    vec![
        FaultSpecJson::PodKill {
            at_secs: 5,
            service: "backend".into(),
            pods: 1,
        },
        FaultSpecJson::SlowPods {
            from_secs,
            until_secs,
            service: "backend".into(),
            factor: 2.0,
        },
        FaultSpecJson::NetworkDegrade {
            from_secs,
            until_secs,
            service: service.clone(),
            extra_latency_ms: 5,
            loss: 0.1,
        },
        FaultSpecJson::TelemetryDropout {
            from_secs,
            until_secs,
            service,
        },
        FaultSpecJson::TelemetryStaleness {
            from_secs,
            until_secs,
            by_secs: 3,
        },
        FaultSpecJson::TelemetryNoise {
            from_secs,
            until_secs,
            sigma: 0.3,
        },
        FaultSpecJson::ControllerStall {
            from_secs,
            until_secs,
        },
    ]
}

fn full_resilience() -> ResilienceSpec {
    ResilienceSpec {
        deadlines: Some(DeadlineSpecJson {
            budget_ms: Some(800),
            cancel_doomed: Some(true),
        }),
        retry_budget: Some(cluster::RetryBudgetConfig {
            max_tokens: 50.0,
            token_ratio: 0.2,
            retry_cost: 1.0,
        }),
        breakers: Some(BreakerSpecJson {
            failure_threshold: Some(0.4),
            min_calls: Some(10),
            open_for_ms: Some(1000),
            half_open_probes: Some(3),
        }),
    }
}

fn full_sharding() -> ShardingSpec {
    ShardingSpec {
        shards: 3,
        weights: Some(vec![0.5, 0.3, 0.2]),
        min_quantum: Some(1.0),
        strike_out: Some(3),
        reentry_ticks: Some(5),
        limit_ttl: Some(5),
        faults: vec![
            ShardFaultJson::Dropout {
                shard: 0,
                from_secs: 5,
                until_secs: 9,
            },
            ShardFaultJson::Kill {
                shard: 1,
                at_secs: 30,
            },
            ShardFaultJson::ControllerLoss {
                from_secs: 40,
                until_secs: 50,
            },
        ],
    }
}

fn topfull_arm() -> ControllerSpec {
    ControllerSpec::Topfull {
        rate_controller: "mimd".into(),
        clustering: true,
        hardened: false,
        single_target_per_cluster: Some(true),
        restrict_cuts_to_contributing: Some(false),
        fair_group_steps: Some(false),
    }
}

/// Every block present. It is only parsed, never built, so blocks that
/// do not compose (admission × sharding) sit side by side.
fn full_scenario() -> Scenario {
    Scenario {
        name: "full".into(),
        seed: 7,
        duration_secs: 60,
        slo_ms: 1000,
        pod_startup_secs: Some(5),
        app: inline_app(),
        workload: WorkloadSpec::OpenLoop {
            rates: vec![RateSpec {
                api: "get".into(),
                steps: vec![(0, 50.0), (20, 300.0)],
            }],
        },
        controller: topfull_arm(),
        autoscaler: Some(AutoscalerSpec {
            target_utilization: Some(0.6),
            sync_period_secs: Some(10),
            vm_pool: Some(VmPoolSpec {
                vcpus_per_vm: 4,
                initial_vms: 2,
                max_vms: 8,
                vm_startup_secs: 30,
            }),
        }),
        faults: every_fault(),
        resilience: Some(full_resilience()),
        live: Some(LiveSpec {
            cpu_scale: Some(2.0),
            control_interval_ms: Some(100),
            gateway_burst_secs: Some(0.1),
            port: Some(19001),
            metrics_port: Some(19002),
            event_loops: Some(1),
            max_conn_output: Some(4096),
        }),
        sharding: Some(full_sharding()),
        admission: Some(AdmissionSpec {
            coalesce: Some(CoalesceSpec {
                apis: vec!["get".into()],
                key_space: 32,
                cache_capacity: Some(128),
                cache_ttl_ms: Some(250),
            }),
            priority: Some(PrioritySpec {
                business_tiers: Some(4),
                user_levels: Some(16),
                alpha: Some(0.1),
                beta: Some(0.02),
                queuing_delay_ms: Some(10),
            }),
        }),
        slo: Some(obs::SloConfig {
            objective: 0.99,
            fast_windows_secs: (5.0, 60.0),
            slow_windows_secs: (30.0, 360.0),
            page_burn: 10.0,
            ticket_burn: 4.0,
        }),
        report: ReportSpec {
            measure_from_secs: 20,
            timeline: true,
        },
    }
}

fn every_phase() -> Vec<PhaseSpec> {
    let duration_secs = 30;
    vec![
        PhaseSpec::Plateau {
            duration_secs,
            rate: 50.0,
        },
        PhaseSpec::Ramp {
            duration_secs,
            from: 50.0,
            to: 200.0,
        },
        PhaseSpec::FlashCrowd {
            duration_secs,
            base: 50.0,
            peak: 300.0,
            burst_from_secs: 5,
            burst_until_secs: 15,
        },
        PhaseSpec::Diurnal {
            duration_secs,
            base: 80.0,
            amplitude: 40.0,
            period_secs: 20,
        },
        PhaseSpec::Oscillate {
            duration_secs,
            low: 20.0,
            high: 200.0,
            period_secs: 10,
        },
    ]
}

fn tracks() -> Vec<TrackSpec> {
    let track = |phases| TrackSpec {
        api: "get".into(),
        phases,
    };
    vec![track(every_phase()[..1].to_vec()), track(every_phase())]
}

#[test]
fn every_misspelt_scenario_key_is_rejected_at_every_depth() {
    let parse = |text: &str| parse_scenario(text).map(|_| ());
    let full = full_scenario();
    no_nulls(&full);
    let mut tried = every_misspelt_key_is_rejected(&full, &parse);
    // The enum-typed blocks hold one variant at a time: the rest of
    // each, in turn, in the same document.
    let api_weights = vec![("get".to_string(), 1.0)];
    let with = |set: &dyn Fn(&mut Scenario)| {
        let mut sc = full_scenario();
        set(&mut sc);
        sc
    };
    let variants = [
        with(&|sc| {
            sc.app = AppSpec::Builtin {
                name: "alibaba-demo".into(),
                topology_seed: 3,
                services: vec![ServiceOverride {
                    name: "s0".into(),
                    replicas: Some(2),
                    pod_speed: Some(0.5),
                }],
                apis: vec![ApiOverride {
                    name: "api0".into(),
                    business_priority: 1,
                }],
            }
        }),
        with(&|sc| {
            sc.workload = WorkloadSpec::ClosedLoop {
                users_steps: vec![(0, 10.0)],
                think_ms: 500,
                api_weights: api_weights.clone(),
            }
        }),
        with(&|sc| sc.workload = WorkloadSpec::Phases { tracks: tracks() }),
        with(&|sc| {
            sc.workload = WorkloadSpec::RetryStorm {
                users: 10,
                think_ms: 500,
                api_weights: api_weights.clone(),
                max_retries: 2,
                retry_backoff_ms: 20,
            }
        }),
        with(&|sc| sc.controller = ControllerSpec::None),
        with(&|sc| sc.controller = ControllerSpec::Dagor { alpha: 0.1 }),
        with(&|sc| sc.controller = ControllerSpec::Breakwater),
        with(&|sc| sc.controller = ControllerSpec::Wisp),
    ];
    for sc in &variants {
        no_nulls(sc);
        tried += every_misspelt_key_is_rejected(sc, &parse);
    }
    assert!(tried > 1000, "walked only {tried} keys");
}

#[test]
fn every_misspelt_matrix_key_is_rejected_at_every_depth() {
    let arm = |name: &str, controller| ArmDef {
        name: name.into(),
        controller,
    };
    let matrix = MatrixSpec {
        base: full_scenario(),
        workloads: vec![WorkloadDef {
            name: "w".into(),
            workload: WorkloadSpec::Phases { tracks: tracks() },
        }],
        fault_plans: vec![FaultPlanDef {
            name: "chaos".into(),
            faults: every_fault(),
        }],
        arms: vec![
            arm("none", ControllerSpec::None),
            arm("topfull", topfull_arm()),
            arm("dagor", ControllerSpec::Dagor { alpha: 0.1 }),
        ],
    };
    no_nulls(&matrix);
    let tried = every_misspelt_key_is_rejected(&matrix, &|text| parse_matrix(text).map(|_| ()));
    assert!(tried > 100, "walked only {tried} keys");
}

/// `doc` carries one typo: it must fail to parse, naming `path` and
/// suggesting `meant`.
fn rejected<T>(parse: fn(&str) -> Result<T, String>, doc: &str, path: &str, meant: &str) {
    let Err(err) = parse(doc) else {
        panic!("accepted a document with a typo for '{meant}' at '{path}'");
    };
    assert!(err.contains(&format!(" {path}")), "{err}");
    assert!(err.contains(&format!("did you mean '{meant}'?")), "{err}");
}

/// Before the schema denied unknown fields, `topfull check` said
/// `ok` to each of these and ran MIMD, clustered, unhardened, with the
/// default think time and topology seed.
#[test]
fn typos_the_key_tables_let_through_in_a_scenario() {
    let scenario = |app: &str, workload: &str, controller: &str| {
        format!(r#"{{"app": {app}, "workload": {workload}, "controller": {controller}}}"#)
    };
    let app = r#"{"type": "builtin", "name": "online-boutique"}"#;
    let workload = r#"{"type": "open_loop", "rates": []}"#;
    let controller = r#"{"type": "topfull"}"#;
    for (doc, path, meant) in [
        (
            scenario(
                app,
                workload,
                r#"{"type": "topfull", "rate_controler": "bw"}"#,
            ),
            "controller (topfull): ",
            "rate_controller",
        ),
        (
            scenario(app, workload, r#"{"type": "topfull", "hardend": true}"#),
            "controller (topfull): ",
            "hardened",
        ),
        (
            scenario(app, workload, r#"{"type": "dagor", "alpa": 0.2}"#),
            "controller (dagor): ",
            "alpha",
        ),
        (
            scenario(
                app,
                r#"{"type": "closed_loop", "users_steps": [[0, 5.0]], "think_msec": 10,
                    "api_weights": [["getproduct", 1.0]]}"#,
                controller,
            ),
            "workload (closed_loop): ",
            "think_ms",
        ),
        (
            scenario(
                r#"{"type": "builtin", "name": "alibaba-demo", "topology_sed": 9}"#,
                workload,
                controller,
            ),
            "app (builtin): ",
            "topology_seed",
        ),
    ] {
        rejected(parse_scenario, &doc, path, meant);
    }
}

/// `topfull workflow --check` and `topfull matrix --check` passed these
/// when a phase workload was a document of its own: its walker never
/// looked inside `sharding` / `resilience`, the matrix walker never
/// inside an arm's `controller`.
#[test]
fn typos_the_key_tables_let_through_in_phases_and_a_matrix() {
    let phases = |block: &str| {
        format!(
            r#"{{"app": {{"type": "builtin", "name": "online-boutique"}},
                "workload": {{"type": "phases", "tracks": [{{"api": "getproduct", "phases": [
                    {{"kind": "plateau", "duration_secs": 30, "rate": 100.0}}]}}]}},
                {block}}}"#
        )
    };
    rejected(
        parse_scenario,
        &phases(r#""sharding": {"shards": 2, "striek_out": 9}"#),
        "sharding: ",
        "strike_out",
    );
    rejected(
        parse_scenario,
        &phases(r#""resilience": {"breakers": {"failure_treshold": 0.1}}"#),
        "resilience.breakers: ",
        "failure_threshold",
    );
    rejected(
        parse_matrix,
        r#"{"base": {"app": {"type": "builtin", "name": "online-boutique"},
                     "workload": {"type": "open_loop", "rates": []}},
            "workloads": [{"name": "w", "workload": {"type": "phases", "tracks": []}}],
            "arms": [{"name": "a",
                      "controller": {"type": "topfull", "rate_controler": "bw"}}]}"#,
        "arms[0].controller (topfull): ",
        "rate_controller",
    );
    // An absent block written as `null` (the fuzzer's reproducers do)
    // is still an absent block.
    parse_scenario(&phases(r#""resilience": null, "sharding": null"#)).expect("null is absent");
}
