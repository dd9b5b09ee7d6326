//! Pod-failure adaptation (the paper's Figure 18 scenario): 25 of 35
//! ts-station pods die at t = 50 s. Without overload control the whole
//! application collapses until replacements arrive; TopFull clamps the
//! load to what the surviving 10 pods can serve.
//!
//! ```text
//! cargo run --release --example failure_recovery
//! ```

use topfull_suite::apps::TrainTicket;
use topfull_suite::cluster::{
    Controller, Engine, EngineConfig, FaultSpec, Harness, NoControl, OpenLoopWorkload,
};
use topfull_suite::simnet::{SimDuration, SimTime};
use topfull_suite::topfull::{TopFull, TopFullConfig};

fn engine(seed: u64) -> Engine {
    let mut tt = TrainTicket::build();
    // 35 slow pods put ts-station near capacity under this workload (the
    // paper's deployment shape), so losing 25 is a 70% capacity cut.
    tt.topology.service_mut(tt.station).replicas = 35;
    tt.topology.service_mut(tt.station).pod_speed = 0.1;
    let rates: Vec<(topfull_suite::cluster::ApiId, f64)> =
        tt.apis().iter().map(|a| (*a, 600.0)).collect();
    let mut e = Engine::new(
        tt.topology.clone(),
        EngineConfig {
            seed,
            // Replacements take 90 s to schedule and become ready.
            pod_startup: SimDuration::from_secs(90),
            ..EngineConfig::default()
        },
        Box::new(OpenLoopWorkload::constant(rates)),
    );
    e.inject_faults(vec![FaultSpec::PodKill {
        at: SimTime::from_secs(50),
        service: tt.station,
        pods: 25,
    }]);
    e
}

fn run(label: &str, controller: Box<dyn Controller>) -> Vec<(f64, f64)> {
    let mut h = Harness::new(engine(18), controller);
    h.run_for_secs(220);
    let series = h.result().total_goodput_series();
    let during = h.result().mean_total_goodput(60.0, 140.0);
    let after = h.result().mean_total_goodput(160.0, 220.0);
    println!(
        "{label:<14} goodput during failure: {during:>6.0} rps   after recovery: {after:>6.0} rps"
    );
    series
}

fn main() {
    println!("killing 25/35 ts-station pods at t=50s (replacements ready ≈t=140s)\n");
    let none = run("no control", Box::new(NoControl));
    // The cached RL policy recovers limits far faster than the MIMD
    // fallback once replacement pods land (run `figures train` once).
    let cfg = match topfull_suite::rl::policy::PolicyValue::load(std::path::Path::new(
        "artifacts/models/transfer_tt.json",
    )) {
        Ok(p) => TopFullConfig::default().with_rl(p),
        Err(_) => TopFullConfig::default().with_mimd(),
    };
    let tf = run("TopFull", Box::new(TopFull::new(cfg)));

    println!("\ntimeline (total goodput, rps):");
    println!("{:>5} {:>12} {:>12}", "t(s)", "no-control", "topfull");
    for i in (0..none.len()).step_by(10) {
        println!("{:>5.0} {:>12.0} {:>12.0}", none[i].0, none[i].1, tf[i].1);
    }
}
