//! Online Boutique under a traffic surge, with and without TopFull —
//! the scenario the paper's introduction motivates (the "success
//! disaster": a sudden user influx crash-loops the weakest service).
//!
//! Uses the cached Sim2Real policy when `artifacts/models/` exists
//! (create it once with `figures train`), otherwise pre-trains one on
//! the paper's graph simulator; then runs the surge with the
//! Kubernetes-style autoscaler alone versus autoscaler + TopFull.
//!
//! ```text
//! cargo run --release --example boutique_surge
//! ```

use topfull_suite::apps::OnlineBoutique;
use topfull_suite::cluster::autoscaler::HpaConfig;
use topfull_suite::cluster::{
    ClosedLoopWorkload, Controller, Engine, EngineConfig, Harness, NoControl, RateSchedule,
};
use topfull_suite::rl::graph_env::GraphEnv;
use topfull_suite::rl::ppo::PpoConfig;
use topfull_suite::rl::trainer::{Trainer, TrainerConfig};
use topfull_suite::simnet::{SimDuration, SimTime};
use topfull_suite::topfull::{TopFull, TopFullConfig};

fn engine(seed: u64) -> (OnlineBoutique, Engine) {
    let ob = OnlineBoutique::build();
    // 400 users surging to 8 000 between t=20 s and t=200 s; each user
    // issues ~1 request/s across the five APIs, Locust-style. A finite
    // VM pool and 30 s pod startup make the autoscaler realistically
    // slow (the Fig. 15 setup).
    let weights = ob.apis().iter().map(|a| (*a, 1.0)).collect();
    let users = RateSchedule::surge(
        400.0,
        8000.0,
        SimTime::from_secs(20),
        SimTime::from_secs(200),
    );
    let w = ClosedLoopWorkload::new(weights, users, SimDuration::from_secs(1));
    let mut e = Engine::new(
        ob.topology.clone(),
        EngineConfig {
            seed,
            pod_startup: SimDuration::from_secs(30),
            ..EngineConfig::default()
        },
        Box::new(w),
    );
    e.set_vm_pool(topfull_suite::cluster::autoscaler::VmPoolConfig {
        vcpus_per_vm: 48,
        initial_vms: 1,
        max_vms: 10,
        vm_startup: SimDuration::from_secs(40),
    });
    e.enable_hpa(HpaConfig::default());
    (ob, e)
}

fn run(label: &str, controller: Box<dyn Controller>) -> (f64, u64) {
    let (_, e) = engine(7);
    let mut h = Harness::new(e, controller);
    h.run_for_secs(240);
    let crashes = h.engine.crash_events;
    let goodput = h.result().mean_total_goodput(20.0, 200.0);
    println!("{label:<22} goodput during surge: {goodput:>7.0} rps   pod crashes: {crashes}");
    (goodput, crashes)
}

fn main() {
    // Prefer the cached Sim2Real policy (created by `figures train`);
    // otherwise pre-train one here — a few minutes of CPU.
    let policy = match topfull_suite::rl::policy::PolicyValue::load(std::path::Path::new(
        "artifacts/models/transfer_ob.json",
    )) {
        Ok(p) => {
            println!("using the cached Transfer-OB policy\n");
            p
        }
        Err(_) => {
            println!("no cached policy; pre-training on the graph simulator (minutes)…");
            let mut trainer = Trainer::new(TrainerConfig {
                ppo: PpoConfig::fast(),
                episodes: 4000,
                checkpoint_every: 200,
                validation_episodes: 12,
                seed: 42,
            });
            let report = trainer.train(GraphEnv::new);
            println!(
                "trained {} episodes (best validation reward {:.2})\n",
                report.episodes_run, report.best_validation_reward
            );
            report.best_model
        }
    };

    let (solo, solo_crashes) = run("autoscaler alone", Box::new(NoControl));
    let (with_tf, tf_crashes) = run(
        "autoscaler + TopFull",
        Box::new(TopFull::new(TopFullConfig::default().with_rl(policy))),
    );
    println!(
        "\nTopFull gain: {:.2}x  (paper reports 3.91x on this scenario)",
        with_tf / solo.max(1.0)
    );
    println!("crash-loop events: {solo_crashes} without control vs {tf_crashes} with TopFull");
}
