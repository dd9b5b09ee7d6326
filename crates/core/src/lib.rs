//! # topfull — adaptive top-down overload control (SIGCOMM 2024)
//!
//! The paper's contribution: an entry-point overload controller for
//! microservices that maximizes SLO-goodput by (1) adaptive API-wise load
//! control aware of each API's full execution path, (2) clustering APIs
//! that share overloaded microservices into independent sub-problems,
//! each decided on its own, and (3) an RL-based rate controller that sizes
//! multiplicative rate steps from end-to-end metrics.
//!
//! * [`detector`] — overload detection from per-service utilization.
//! * [`clustering`] — Equation 2 clustering via union–find, with dynamic
//!   re-clustering every control interval.
//! * [`rate_controller`] — the pluggable step-size policy: the RL policy
//!   (default), the MIMD ablation of §6.2, and the Breakwater-style AIMD
//!   of §6.3's TopFull(BW).
//! * [`controller`] — the end-to-end control loop as one pipeline,
//!   detect → cluster → select → decide → apply → journal, a file per
//!   paper section (`select.rs` §4.1, `decide.rs` §4.3, `apply.rs`
//!   Algorithm 1, `episode.rs` the collapse backoff, `journal.rs`),
//!   implementing [`cluster::Controller`] so it plugs into either plane.
//!
//! ## Quick start
//!
//! ```
//! use cluster::{Engine, EngineConfig, Harness, OpenLoopWorkload};
//! use cluster::{ApiSpec, CallNode, ServiceSpec, Topology};
//! use simnet::SimDuration;
//! use topfull::{TopFull, TopFullConfig};
//!
//! // A one-service app with a 100 rps capacity bottleneck.
//! let mut topo = Topology::new("demo");
//! let svc = topo.add_service(ServiceSpec::new("backend", 1).queue_capacity(256));
//! let api = topo.add_api(ApiSpec::single(
//!     "get",
//!     CallNode::leaf(svc, SimDuration::from_millis(10)),
//! ));
//!
//! // Offer 300 rps — a 3× overload.
//! let workload = OpenLoopWorkload::constant(vec![(api, 300.0)]);
//! let engine = Engine::new(topo, EngineConfig::default(), Box::new(workload));
//!
//! // TopFull with the built-in MIMD controller (no trained model
//! // needed; the MIMD steps converge slowly — see Fig. 13 — hence the
//! // long run).
//! let controller = TopFull::new(TopFullConfig::default().with_mimd());
//! let mut harness = Harness::new(engine, Box::new(controller));
//! harness.run_for_secs(90);
//! let goodput = harness.result().mean_total_goodput(60.0, 90.0);
//! assert!(goodput > 60.0, "controller keeps goodput near capacity: {goodput}");
//! ```

pub mod clustering;
pub mod controller;
pub mod detector;
pub mod rate_controller;
pub mod shard;

pub use clustering::{cluster_apis, Cluster};
pub use controller::{TopFull, TopFullConfig};
pub use detector::OverloadDetector;
pub use rate_controller::{
    BwRateController, MimdController, RateController, RateState, RlRateController,
    SafeRateController,
};
pub use shard::{
    merge_observations, split_limit, GuardStats, ShardLocalGuard, ShardPlane, ShardPlaneConfig,
    ShardPlaneStats, ShardSet, ShardWindow, Sharded, ShardedConfig, SimShards,
};
