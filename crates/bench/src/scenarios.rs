//! The engines `benchmark/` and the tick-allocation test drive, built
//! in one place.

use apps::{AlibabaDemo, OnlineBoutique};
use cluster::{
    ApiId, ClosedLoopWorkload, Engine, EngineConfig, OpenLoopWorkload, RateSchedule, Topology,
    Workload,
};
use simnet::SimDuration;

/// Every API in `apis` at a constant `rps`.
pub fn constant(apis: &[ApiId], rps: f64) -> Vec<(ApiId, RateSchedule)> {
    let at = |a: &ApiId| (*a, RateSchedule::constant(rps));
    apis.iter().map(at).collect()
}

/// `workload` over a copy of `topology`, 1 s SLO and 1 s control cadence.
pub fn engine(topology: &Topology, seed: u64, workload: Box<dyn Workload>) -> Engine {
    let cfg = EngineConfig {
        seed,
        ..EngineConfig::default()
    };
    Engine::new(topology.clone(), cfg, workload)
}

/// Online Boutique with a fixed closed-loop population picking among its
/// five APIs evenly, one request a second each (§6.1's Locust users).
pub fn boutique_closed_loop(users: u32, seed: u64) -> (OnlineBoutique, Engine) {
    let ob = OnlineBoutique::build();
    let weights = ob.apis().iter().map(|a| (*a, 1.0)).collect();
    let users = RateSchedule::constant(f64::from(users));
    let think = SimDuration::from_secs(1);
    let workload = ClosedLoopWorkload::new(weights, users, think);
    let engine = engine(&ob.topology, seed, Box::new(workload));
    (ob, engine)
}

/// The Alibaba real-trace demo, every API offered `120 × surge` rps —
/// enough at `surge ≥ 1.5` to overload its hot services — built.
pub fn alibaba_surged(surge: f64, seed: u64) -> (AlibabaDemo, Engine) {
    let demo = AlibabaDemo::build(7);
    let rates = constant(&demo.apis, 120.0 * surge);
    let engine = engine(&demo.topology, seed, Box::new(OpenLoopWorkload::new(rates)));
    (demo, engine)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_expected_apps() {
        let (ob, e) = boutique_closed_loop(100, 1);
        assert_eq!(e.topology().num_services(), 11);
        assert_eq!(ob.apis().len(), 5);
        let (demo, e) = alibaba_surged(1.0, 1);
        assert_eq!(e.topology().num_services(), 127);
        assert_eq!(demo.apis.len(), 25);
    }
}
