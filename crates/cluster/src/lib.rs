//! # cluster — a microservice cluster simulator
//!
//! A deterministic discrete-event model of a microservice application, the
//! substrate on which the TopFull reproduction runs. It stands in for the
//! paper's Kubernetes + Istio + Locust testbed (see DESIGN.md §2) while
//! preserving the dynamics the evaluation depends on:
//!
//! * **Services and pods** — each service runs `replicas` pods; a pod is a
//!   single-server FIFO queue with bounded backlog. Overload manifests as
//!   queue growth → latency growth → SLO violations, exactly the signal
//!   chain the paper's controllers react to.
//! * **APIs and execution paths** — an external API owns one or more
//!   weighted call trees over services ([`topology`]); a request fans out
//!   through its tree, and its end-to-end latency is the root's completion
//!   time. Work already done upstream of a downstream drop is wasted,
//!   which is the starvation mechanism of the paper's Figure 1.
//! * **Entry gateway** — per-API token-bucket rate limiting, the actuation
//!   point of TopFull ([`entry_admission`]), shared with the live plane.
//! * **Front door** — an optional coalescing cache and DAGOR's
//!   priority-threshold gate ahead of the token bucket ([`front`]); the
//!   gate is the one statement of DAGOR's law, which `baselines::Dagor`
//!   runs once per service.
//! * **Per-service admission hooks** — the actuation point of DAGOR and
//!   Breakwater ([`admission`]).
//! * **Autoscaling** — an HPA replica law plus a VM-pool cluster
//!   autoscaler with provisioning delays ([`autoscaler`]).
//! * **Failure injection** — scheduled pod kills and an overload
//!   crash-loop model ([`failure`]), plus a gray-failure fault plane
//!   (slow pods, lossy links, degraded telemetry, controller stalls —
//!   [`faults`]).
//! * **Observation** — 1-second snapshots of per-service utilization and
//!   per-API goodput/latency percentiles ([`observe`]), mirroring the
//!   paper's cAdvisor + Istio tracing collector.
//!
//! The [`engine::Engine`] ties these together; [`control_loop`] is the one
//! Observe → Decide → Act loop that steps a [`controller::Controller`]
//! over a plane, and [`harness`] runs it over an engine at the control
//! cadence. [`runner`] fans independent runs out over a worker pool,
//! results in submission order.

pub mod admission;
pub mod autoscaler;
pub mod control_loop;
pub mod controller;
pub mod engine;
pub mod entry_admission;
pub mod failure;
pub mod faults;
pub mod front;
pub mod harness;
pub mod observe;
pub mod resilience;
pub mod runner;
pub mod sharded;
pub mod topology;
pub mod tracing;
pub mod types;
pub mod workload;

pub use control_loop::{Contact, ControlLoop, Observed, Plane, WatchdogStats};
pub use controller::{Controller, NoControl, RateLimitUpdate};
pub use engine::{Engine, EngineConfig};
pub use entry_admission::EntryAdmission;
pub use faults::FaultSpec;
pub use harness::{Harness, RunResult, SimPlane};
pub use observe::{ApiWindow, ClusterObservation, ServiceWindow};
pub use resilience::{
    BreakerConfig, BreakerState, DeadlineConfig, EdgeBreakers, ResilienceConfig, ResilienceStats,
    RetryBudget, RetryBudgetConfig,
};
pub use sharded::{ShardFault, ShardSlicer};
pub use topology::{ApiSpec, CallNode, CallTemplate, ServiceSpec, Topology};
pub use types::{ApiId, BusinessPriority, RequestMeta, ServiceId};
pub use workload::{
    ClosedLoopWorkload, OpenLoopWorkload, RateSchedule, ResponseKind, RetryStormWorkload, Workload,
};

#[cfg(test)]
mod tests {
    /// The workspace's dev profile optimises this crate; it must still
    /// trap on overflow, exactly when debug assertions are on.
    #[test]
    fn overflow_traps_exactly_when_debug_assertions_are_on() {
        let trapped = std::panic::catch_unwind(|| u8::MAX + std::hint::black_box(1)).is_err();
        assert_eq!(trapped, cfg!(debug_assertions));
    }
}
