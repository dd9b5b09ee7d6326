//! Learned execution paths: run TopFull on paths discovered from
//! distributed-tracing spans instead of static configuration.
//!
//! In production (and in the paper, §4.1/§5) nobody hands the controller
//! a topology file — Istio traces reveal which services each API
//! actually touches. This example enables the engine's tracing collector,
//! shows the per-API paths being learned as traffic flows (including a
//! rarely-taken branch appearing late), and runs TopFull against the
//! learned paths under an overload.
//!
//! ```text
//! cargo run --release --example trace_learning
//! ```

use topfull_suite::cluster::{
    ApiSpec, CallNode, Engine, EngineConfig, Harness, OpenLoopWorkload, ServiceSpec, Topology,
};
use topfull_suite::simnet::{SimDuration, SimTime};
use topfull_suite::topfull::{TopFull, TopFullConfig};

fn main() {
    // A branching API: 95% of requests take the cheap path, 5% hit a
    // slow reporting backend.
    let mut topo = Topology::new("traced-app");
    let front = topo.add_service(ServiceSpec::new("frontend", 4));
    let cache = topo.add_service(ServiceSpec::new("cache", 2));
    let reports = topo.add_service(ServiceSpec::new("reports", 1));
    let api = topo.add_api(ApiSpec::branching(
        "query",
        vec![
            (
                0.95,
                CallNode::with_children(
                    front,
                    SimDuration::from_millis(1),
                    vec![CallNode::leaf(cache, SimDuration::from_millis(2))],
                ),
            ),
            (
                0.05,
                CallNode::with_children(
                    front,
                    SimDuration::from_millis(1),
                    vec![CallNode::leaf(reports, SimDuration::from_millis(20))],
                ),
            ),
        ],
    ));

    let w = OpenLoopWorkload::constant(vec![(api, 400.0)]);
    let engine = Engine::new(
        topo,
        EngineConfig {
            learn_paths: true, // ← paths come from spans, not config
            ..EngineConfig::default()
        },
        Box::new(w),
    );
    let controller = TopFull::new(TopFullConfig::default().with_mimd());
    let mut h = Harness::new(engine, Box::new(controller));

    println!("learning the execution path of 'query' from spans:");
    let names = ["frontend", "cache", "reports"];
    for s in [1u64, 2, 3, 5, 10, 30] {
        h.run_until(SimTime::from_secs(s));
        let obs = h.engine.latest_observation().expect("tick").clone();
        let path: Vec<&str> = obs.api_paths[0]
            .iter()
            .map(|svc| names[svc.0 as usize])
            .collect();
        println!("  t={s:>2}s  learned path: {path:?}");
    }
    let final_path = h.engine.latest_observation().expect("ran").api_paths[0].len();
    println!("\nall {final_path} services on the (branching) path were discovered from traffic;");
    println!("TopFull clusters and rate-limits using exactly these learned paths.");
    let goodput = h.result().mean_total_goodput(20.0, 30.0);
    println!("steady goodput under control: {goodput:.0} rps");
}
