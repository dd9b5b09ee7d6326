//! Scenario file format (JSON, serde).
//!
//! These types are the only statement of the format: a key exists
//! because a field does, and every type here is
//! `#[serde(deny_unknown_fields)]`, so a misspelt key at any depth is a
//! parse error naming its path and the nearest valid key — never a run
//! with the default. A block that tunes a library type states no
//! defaults of its own: where keys and units match, the library type is
//! the block (`cluster::RetryBudgetConfig`, `obs::SloConfig`); where they
//! differ, the block's keys are `Option`s and the one lowering in
//! [`crate::build`] fills each omitted key from the library `Default`.
//! Minimal scenarios stay minimal; [`Scenario::example`] emits a
//! populated one for `topfull example`.

use cluster::EngineConfig;
use serde::{Deserialize, Serialize};

/// Top-level scenario.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Scenario {
    /// Display name.
    #[serde(default = "default_name")]
    pub name: String,
    /// RNG seed (runs are deterministic per seed).
    #[serde(default = "default_seed")]
    pub seed: u64,
    /// Simulated duration in seconds.
    #[serde(default = "default_duration")]
    pub duration_secs: u64,
    /// Latency SLO in milliseconds (default: the engine's, the paper's
    /// 1 s).
    #[serde(default = "default_slo_ms")]
    pub slo_ms: u64,
    /// Seconds a new pod takes to become ready, after a pod kill or an
    /// autoscaler scale-up (default: the engine's).
    #[serde(default)]
    pub pod_startup_secs: Option<u64>,
    /// The application: inline services+apis, or a named benchmark.
    pub app: AppSpec,
    pub workload: WorkloadSpec,
    #[serde(default)]
    pub controller: ControllerSpec,
    #[serde(default)]
    pub autoscaler: Option<AutoscalerSpec>,
    /// Fault schedule: pod kills and gray failures (slow pods, lossy
    /// links, degraded telemetry, controller stalls).
    #[serde(default)]
    pub faults: Vec<FaultSpecJson>,
    /// Request-plane resilience: deadlines, retry budgets, breakers.
    #[serde(default)]
    pub resilience: Option<ResilienceSpec>,
    /// Live-plane tuning for `topfull live` (ignored by the simulator).
    #[serde(default)]
    pub live: Option<LiveSpec>,
    /// Sharded control plane: N gateway shards under one logical
    /// controller, with partition-tolerant failover.
    #[serde(default)]
    pub sharding: Option<ShardingSpec>,
    /// Front-door admission plane: single-flight request coalescing and
    /// DAGOR-style priority admission in front of the token bucket.
    #[serde(default)]
    pub admission: Option<AdmissionSpec>,
    /// SLO error-budget / burn-rate monitor tuning. The monitor always
    /// runs (with Google-SRE defaults when omitted); this block adjusts
    /// the objective and alert thresholds.
    #[serde(default)]
    pub slo: Option<obs::SloConfig>,
    #[serde(default)]
    pub report: ReportSpec,
}

fn default_name() -> String {
    "scenario".into()
}
fn default_duration() -> u64 {
    120
}
// One default each for the scenario, workflow and matrix formats.
pub(crate) fn default_seed() -> u64 {
    EngineConfig::default().seed
}
pub(crate) fn default_slo_ms() -> u64 {
    EngineConfig::default().slo.as_nanos() / 1_000_000
}
pub(crate) fn default_measure_from() -> u64 {
    30
}

/// Application definition.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case", deny_unknown_fields)]
pub enum AppSpec {
    /// A built-in benchmark topology.
    Builtin {
        /// `online-boutique`, `train-ticket`, or `alibaba-demo`.
        name: String,
        /// Seed for generated topologies (alibaba-demo).
        #[serde(default = "default_seed")]
        topology_seed: u64,
        /// Overrides of named services, in the inline app's keys.
        #[serde(default)]
        services: Vec<ServiceOverride>,
        /// Overrides of named APIs, in the inline app's keys.
        #[serde(default)]
        apis: Vec<ApiOverride>,
    },
    /// An inline topology.
    Inline {
        services: Vec<ServiceSpec>,
        apis: Vec<ApiSpec>,
    },
}

/// One service.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ServiceSpec {
    pub name: String,
    pub replicas: u32,
    #[serde(default)]
    pub queue_capacity: Option<u32>,
    #[serde(default)]
    pub pod_speed: Option<f64>,
    #[serde(default)]
    pub crash_on_overload: bool,
}

/// A builtin service's pod count or speed, set by name.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ServiceOverride {
    pub name: String,
    #[serde(default)]
    pub replicas: Option<u32>,
    #[serde(default)]
    pub pod_speed: Option<f64>,
}

/// A builtin API's business priority, set by name.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ApiOverride {
    pub name: String,
    /// Lower = more important.
    pub business_priority: u8,
}

/// One external API.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ApiSpec {
    pub name: String,
    /// Lower = more important.
    #[serde(default)]
    pub business_priority: u8,
    /// Weighted execution paths (one = non-branching).
    pub paths: Vec<PathSpec>,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PathSpec {
    #[serde(default = "default_weight")]
    pub weight: f64,
    pub root: CallSpec,
}

fn default_weight() -> f64 {
    1.0
}

/// A call-tree node: process `cost_ms` at `service`, then call children.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CallSpec {
    pub service: String,
    pub cost_ms: f64,
    #[serde(default)]
    pub children: Vec<CallSpec>,
}

/// Workload definition.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case", deny_unknown_fields)]
pub enum WorkloadSpec {
    /// Poisson arrivals with per-API stepwise rate schedules.
    OpenLoop { rates: Vec<RateSpec> },
    /// Locust-style user population.
    ClosedLoop {
        /// `(from_secs, users)` steps.
        users_steps: Vec<(u64, f64)>,
        #[serde(default = "default_think_ms")]
        think_ms: u64,
        api_weights: Vec<(String, f64)>,
    },
    /// Closed-loop clients that retry failures (a §1 retry storm).
    RetryStorm {
        users: u32,
        #[serde(default = "default_think_ms")]
        think_ms: u64,
        api_weights: Vec<(String, f64)>,
        #[serde(default = "default_retries")]
        max_retries: u32,
        #[serde(default = "default_backoff_ms")]
        retry_backoff_ms: u64,
    },
}

fn default_think_ms() -> u64 {
    1000
}
fn default_retries() -> u32 {
    3
}
fn default_backoff_ms() -> u64 {
    50
}

/// Per-API stepwise rate schedule: `(from_secs, rps)`.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RateSpec {
    pub api: String,
    pub steps: Vec<(u64, f64)>,
}

/// Overload controller selection.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case", deny_unknown_fields)]
pub enum ControllerSpec {
    /// No overload control.
    #[default]
    None,
    /// TopFull at the entry.
    Topfull {
        /// `mimd`, `bw`, or `rl:<path-to-policy.json>`.
        #[serde(default = "default_rate_controller")]
        rate_controller: String,
        #[serde(default = "default_true")]
        clustering: bool,
        /// Run the hardened loop: safe-fallback rate controller plus the
        /// harness watchdog (freeze → decay when telemetry goes dark).
        #[serde(default)]
        hardened: bool,
        /// Algorithm 1's refinements (DESIGN.md §5), each the
        /// `topfull::TopFullConfig` field of its name; an omitted key
        /// takes `TopFullConfig::default()`, every refinement on.
        #[serde(default)]
        single_target_per_cluster: Option<bool>,
        #[serde(default)]
        restrict_cuts_to_contributing: Option<bool>,
        #[serde(default)]
        fair_group_steps: Option<bool>,
    },
    /// DAGOR per-service admission control.
    Dagor {
        #[serde(default = "default_alpha")]
        alpha: f64,
    },
    /// Breakwater per-service credit control.
    Breakwater,
    /// WISP upward-propagated rate limits (extension comparator).
    Wisp,
}

impl ControllerSpec {
    /// TopFull under `rate_controller`, every other key omitted.
    pub fn topfull(rate_controller: &str) -> ControllerSpec {
        ControllerSpec::Topfull {
            rate_controller: rate_controller.into(),
            clustering: true,
            hardened: false,
            single_target_per_cluster: None,
            restrict_cuts_to_contributing: None,
            fair_group_steps: None,
        }
    }
}

fn default_rate_controller() -> String {
    "mimd".into()
}
fn default_true() -> bool {
    true
}
fn default_alpha() -> f64 {
    cluster::front::PriorityConfig::default().alpha
}

/// HPA + optional VM pool: JSON form of [`cluster::autoscaler::HpaConfig`];
/// an omitted key takes `HpaConfig::default()`. How long a new pod takes
/// is the top-level `pod_startup_secs`.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct AutoscalerSpec {
    pub target_utilization: Option<f64>,
    pub sync_period_secs: Option<u64>,
    pub vm_pool: Option<VmPoolSpec>,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct VmPoolSpec {
    pub vcpus_per_vm: u32,
    pub initial_vms: u32,
    pub max_vms: u32,
    pub vm_startup_secs: u64,
}

/// One scheduled gray-failure fault (JSON form of
/// [`cluster::FaultSpec`]; windows are `[from_secs, until_secs)`).
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case", deny_unknown_fields)]
pub enum FaultSpecJson {
    /// Kill `pods` ready pods of `service` at `at_secs`; replacements
    /// become ready after the pod startup delay (the Fig. 18 mechanism).
    PodKill {
        at_secs: u64,
        service: String,
        pods: u32,
    },
    /// Multiply `service`'s service time by `factor` inside the window.
    SlowPods {
        from_secs: u64,
        until_secs: u64,
        service: String,
        factor: f64,
    },
    /// Add per-hop latency and a loss probability on calls into
    /// `service` (all services when omitted).
    NetworkDegrade {
        from_secs: u64,
        until_secs: u64,
        #[serde(default)]
        service: Option<String>,
        #[serde(default)]
        extra_latency_ms: u64,
        #[serde(default)]
        loss: f64,
    },
    /// Blank `service`'s utilization (all services when omitted) in the
    /// controller-facing observation.
    TelemetryDropout {
        from_secs: u64,
        until_secs: u64,
        #[serde(default)]
        service: Option<String>,
    },
    /// Serve the controller observations `by_secs` old.
    TelemetryStaleness {
        from_secs: u64,
        until_secs: u64,
        by_secs: u64,
    },
    /// Multiplicative lognormal noise (σ = `sigma`) on utilization.
    TelemetryNoise {
        from_secs: u64,
        until_secs: u64,
        sigma: f64,
    },
    /// The control loop misses every tick inside the window.
    ControllerStall { from_secs: u64, until_secs: u64 },
}

/// Request-plane resilience layer (deadline propagation, adaptive retry
/// budgets, per-edge circuit breakers). All three parts are optional and
/// independent.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct ResilienceSpec {
    /// Deadline propagation + doomed-work cancellation.
    pub deadlines: Option<DeadlineSpecJson>,
    /// Client-side adaptive retry budget (requires the `retry_storm`
    /// workload, which owns the retrying clients).
    pub retry_budget: Option<cluster::RetryBudgetConfig>,
    /// Per-downstream-edge circuit breakers.
    pub breakers: Option<BreakerSpecJson>,
}

/// Deadline policy: JSON form of [`cluster::DeadlineConfig`]; an omitted
/// key takes `DeadlineConfig::default()`.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct DeadlineSpecJson {
    /// Per-request budget in ms; omitted = client timeout, else the SLO.
    pub budget_ms: Option<u64>,
    /// Skip queued work for cancelled requests and tear down the
    /// in-flight subtree when the client timeout fires.
    pub cancel_doomed: Option<bool>,
}

/// Circuit-breaker tuning: JSON form of [`cluster::BreakerConfig`]; an
/// omitted key takes `BreakerConfig::default()`.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct BreakerSpecJson {
    pub failure_threshold: Option<f64>,
    pub min_calls: Option<u32>,
    pub open_for_ms: Option<u64>,
    pub half_open_probes: Option<u32>,
}

/// Live-plane (`topfull live`) tuning: JSON form of
/// [`liveserve::LiveConfig`]; an omitted key takes `LiveConfig::default()`.
/// The simulated scenario's topology, workload shape, controller and SLO
/// carry over unchanged; these knobs only exist because wall-clock
/// capacity depends on the host.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct LiveSpec {
    /// Multiplier on every call's CPU cost; live capacity scales as
    /// `1 / cpu_scale`, letting one host emulate a larger cluster.
    pub cpu_scale: Option<f64>,
    /// Controller tick period in milliseconds (at least 10).
    pub control_interval_ms: Option<u64>,
    /// Gateway token-bucket burst window, in seconds of the current rate.
    pub gateway_burst_secs: Option<f64>,
    /// Loopback TCP port; 0 = ephemeral.
    pub port: Option<u16>,
    /// Loopback TCP port of the HTTP exposition endpoint
    /// (`GET /metrics`, `GET /trace`); 0 = ephemeral.
    pub metrics_port: Option<u16>,
    /// Gateway event loops; 0 = one per core (capped at 8).
    pub event_loops: Option<usize>,
    /// Per-connection pending-output cap in bytes; a peer that stops
    /// reading its replies is paused, then dropped past this.
    pub max_conn_output: Option<usize>,
}

/// Sharded control plane: N gateway shards feed one logical TopFull
/// controller; the aggregated limits are split back per shard by
/// observed arrival share. Applies to both the simulator (virtual
/// shards over one engine) and `topfull live` (N real gateways). JSON
/// form of `topfull::ShardedConfig`; an omitted tuning key takes
/// `ShardPlaneConfig::default()`.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ShardingSpec {
    /// Number of gateway shards (≥ 1).
    pub shards: usize,
    /// Client-affinity weights, one per shard (uniform when omitted).
    /// Simulator only; live shards always split uniformly.
    pub weights: Option<Vec<f64>>,
    /// Minimum per-shard quota (rps) so cold shards can still probe.
    pub min_quantum: Option<f64>,
    /// Consecutive missed reports before a shard is declared dead and
    /// its quota redistributed.
    pub strike_out: Option<u32>,
    /// Ticks of ramped re-entry after a dead shard returns.
    pub reentry_ticks: Option<u32>,
    /// Ticks a shard holds last-good limits without controller contact
    /// before decaying into its local MIMD fallback.
    pub limit_ttl: Option<u32>,
    /// Scheduled shard-plane faults.
    #[serde(default)]
    pub faults: Vec<ShardFaultJson>,
}

/// One scheduled shard-plane fault (JSON form of
/// [`cluster::ShardFault`]; windows are `[from_secs, until_secs)`).
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case", deny_unknown_fields)]
pub enum ShardFaultJson {
    /// Telemetry partition: the shard keeps serving but its reports and
    /// the controller's pushes don't get through (simulator only).
    Dropout {
        shard: usize,
        from_secs: u64,
        until_secs: u64,
    },
    /// The shard dies abruptly at `at_secs`; its client share fails
    /// over to the survivors.
    Kill { shard: usize, at_secs: u64 },
    /// The logical controller is unreachable inside the window; shards
    /// degrade to held limits, then the local MIMD fallback.
    ControllerLoss { from_secs: u64, until_secs: u64 },
}

/// Front-door admission plane. Both stages are optional and
/// independent; they run before the TopFull token bucket in both the
/// simulator and the live gateway.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct AdmissionSpec {
    /// Single-flight coalescing of identical in-flight reads, backed by
    /// a bounded TTL'd response cache.
    pub coalesce: Option<CoalesceSpec>,
    /// DAGOR-style (business, user) priority gate with an adaptive
    /// threshold driven by queuing-delay feedback.
    pub priority: Option<PrioritySpec>,
}

/// Coalescing stage tuning: JSON form of [`cluster::front`]'s
/// `CoalesceConfig` plus the per-API key spaces; an omitted cache key
/// takes `CoalesceConfig::default()`.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CoalesceSpec {
    /// Names of the APIs whose requests are coalescable (reads).
    pub apis: Vec<String>,
    /// Distinct request keys per coalescable API; duplicate keys are the
    /// coalescing opportunity.
    #[serde(default = "default_key_space")]
    pub key_space: u64,
    /// Response-cache capacity in entries; 0 disables caching but keeps
    /// single-flight leader election.
    pub cache_capacity: Option<usize>,
    /// Response-cache entry TTL in milliseconds.
    pub cache_ttl_ms: Option<u64>,
}

fn default_key_space() -> u64 {
    64
}

/// Priority-gate tuning: JSON form of [`cluster::front`]'s
/// `PriorityConfig`; an omitted key takes `PriorityConfig::default()`.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct PrioritySpec {
    /// Business tiers (level = business * user_levels + user).
    pub business_tiers: Option<u8>,
    /// User sub-levels within each business tier.
    pub user_levels: Option<u8>,
    /// Target shed fraction under overload (DAGOR's alpha).
    pub alpha: Option<f64>,
    /// Recovery fraction per non-overloaded window (DAGOR's beta).
    pub beta: Option<f64>,
    /// Mean queuing delay above which a window counts as overloaded.
    pub queuing_delay_ms: Option<u64>,
}

/// Output options.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct ReportSpec {
    /// Steady-state window start (seconds).
    pub measure_from_secs: u64,
    /// Print a per-second total-goodput timeline.
    pub timeline: bool,
}

impl Default for ReportSpec {
    fn default() -> Self {
        ReportSpec {
            measure_from_secs: default_measure_from(),
            timeline: false,
        }
    }
}

impl Scenario {
    /// A fully-populated example scenario (for `topfull example`).
    pub fn example() -> Scenario {
        Scenario {
            name: "two-tier-overload".into(),
            seed: 7,
            duration_secs: 120,
            slo_ms: 1000,
            pod_startup_secs: None,
            app: AppSpec::Inline {
                services: vec![
                    ServiceSpec {
                        name: "frontend".into(),
                        replicas: 4,
                        queue_capacity: None,
                        pod_speed: None,
                        crash_on_overload: false,
                    },
                    ServiceSpec {
                        name: "backend".into(),
                        replicas: 1,
                        queue_capacity: Some(512),
                        pod_speed: None,
                        crash_on_overload: false,
                    },
                ],
                apis: vec![ApiSpec {
                    name: "get".into(),
                    business_priority: 0,
                    paths: vec![PathSpec {
                        weight: 1.0,
                        root: CallSpec {
                            service: "frontend".into(),
                            cost_ms: 1.0,
                            children: vec![CallSpec {
                                service: "backend".into(),
                                cost_ms: 10.0,
                                children: vec![],
                            }],
                        },
                    }],
                }],
            },
            workload: WorkloadSpec::OpenLoop {
                rates: vec![RateSpec {
                    api: "get".into(),
                    steps: vec![(0, 50.0), (20, 300.0)],
                }],
            },
            controller: ControllerSpec::topfull("mimd"),
            autoscaler: None,
            faults: vec![],
            resilience: Some(ResilienceSpec {
                deadlines: Some(DeadlineSpecJson {
                    budget_ms: None,
                    cancel_doomed: Some(true),
                }),
                retry_budget: None,
                breakers: Some(BreakerSpecJson {
                    failure_threshold: Some(0.5),
                    min_calls: Some(20),
                    open_for_ms: Some(2000),
                    half_open_probes: Some(5),
                }),
            }),
            live: None,
            sharding: None,
            admission: None,
            slo: None,
            report: ReportSpec {
                measure_from_secs: 60,
                timeline: true,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_round_trips_through_json() {
        let sc = Scenario::example();
        let json = serde_json::to_string_pretty(&sc).expect("serialize");
        let back: Scenario = serde_json::from_str(&json).expect("parse");
        assert_eq!(back.name, "two-tier-overload");
        assert_eq!(back.duration_secs, 120);
        match back.app {
            AppSpec::Inline { services, apis } => {
                assert_eq!(services.len(), 2);
                assert_eq!(apis.len(), 1);
            }
            _ => panic!("example is inline"),
        }
    }

    #[test]
    fn minimal_scenario_uses_defaults() {
        let json = r#"{
            "app": {"type": "builtin", "name": "online-boutique"},
            "workload": {"type": "open_loop", "rates": [
                {"api": "getproduct", "steps": [[0, 100.0]]}
            ]}
        }"#;
        let sc: Scenario = serde_json::from_str(json).expect("minimal parse");
        assert_eq!(sc.seed, 1);
        assert_eq!(sc.duration_secs, 120);
        assert!(matches!(sc.controller, ControllerSpec::None));
        assert!(sc.faults.is_empty());
    }

    #[test]
    fn controller_variants_parse() {
        let tf: ControllerSpec =
            serde_json::from_str(r#"{"type": "topfull", "rate_controller": "bw"}"#).unwrap();
        assert!(matches!(
            tf,
            ControllerSpec::Topfull {
                clustering: true,
                ..
            }
        ));
        let dg: ControllerSpec = serde_json::from_str(r#"{"type": "dagor"}"#).unwrap();
        match dg {
            ControllerSpec::Dagor { alpha } => assert_eq!(alpha, 0.05),
            _ => panic!("dagor"),
        }
    }

    #[test]
    fn admission_spec_parses_with_defaults() {
        let json = r#"{
            "coalesce": {"apis": ["get"]},
            "priority": {"alpha": 0.1}
        }"#;
        let spec: AdmissionSpec = serde_json::from_str(json).expect("admission parse");
        let co = spec.coalesce.expect("coalesce");
        assert_eq!(co.apis, vec!["get".to_string()]);
        assert_eq!(co.key_space, 64);
        assert_eq!(co.cache_capacity, None);
        let pr = spec.priority.expect("priority");
        assert_eq!(pr.alpha, Some(0.1));
        assert_eq!(pr.business_tiers, None);
    }

    #[test]
    fn slo_block_parses_with_sre_defaults() {
        let cfg: obs::SloConfig =
            serde_json::from_str(r#"{"objective": 0.99}"#).expect("slo parse");
        assert_eq!(
            cfg,
            obs::SloConfig {
                objective: 0.99,
                ..obs::SloConfig::default()
            }
        );
        assert!((cfg.budget() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn bad_json_is_an_error() {
        assert!(crate::parse_scenario("{nope").is_err());
        assert!(
            crate::parse_scenario("{}").is_err(),
            "app+workload required"
        );
    }
}
