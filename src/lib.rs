//! # topfull-suite — facade over the TopFull reproduction workspace
//!
//! Re-exports every workspace crate so examples and integration tests can
//! depend on a single package:
//!
//! * [`simnet`] — discrete-event simulation substrate.
//! * [`cluster`] — microservice cluster simulator (pods, execution paths,
//!   gateway, autoscaler, failures).
//! * [`apps`] — benchmark topologies (Online Boutique, Train Ticket,
//!   Alibaba real-trace demo).
//! * [`rl`] — from-scratch PPO and the Sim2Real training pipeline.
//! * [`topfull`] — the paper's contribution: adaptive top-down overload
//!   control.
//! * [`baselines`] — DAGOR, Breakwater and no-control comparators.
//! * [`topfull_cli`] — the `topfull` binary's library: JSON scenarios,
//!   workflows, matrices and the fuzzer, on the simulator or live.

pub use apps;
pub use baselines;
pub use cluster;
pub use rl;
pub use simnet;
pub use topfull;
pub use topfull_cli;
