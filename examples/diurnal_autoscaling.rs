//! Diurnal load with an autoscaler: overload control covers the gaps.
//!
//! Load on real services breathes over the day. The HPA follows the
//! curve, but every upswing outruns provisioning for a while — exactly
//! the transient (§1: "autoscalers take several seconds to minutes to
//! provision additional resources") TopFull exists to cover. This
//! example runs two sinusoidal load cycles against Online Boutique and
//! compares the autoscaler alone with autoscaler + TopFull.
//!
//! ```text
//! cargo run --release --example diurnal_autoscaling
//! ```

use topfull_suite::apps::OnlineBoutique;
use topfull_suite::cluster::autoscaler::HpaConfig;
use topfull_suite::cluster::{
    ClosedLoopWorkload, Controller, Engine, EngineConfig, Harness, NoControl, RateSchedule,
};
use topfull_suite::simnet::{SimDuration, SimTime};
use topfull_suite::topfull::{TopFull, TopFullConfig};

const PERIOD_S: u64 = 150;
const RUN_S: u64 = 320;

fn engine(seed: u64) -> Engine {
    let ob = OnlineBoutique::build();
    let weights = ob.apis().iter().map(|a| (*a, 1.0)).collect();
    // 300 → 6000 users, two full cycles in 5 s steps, starting at the
    // trough so the run warms up gently.
    let users = RateSchedule::steps(
        (0..=RUN_S)
            .step_by(5)
            .map(|t| {
                let phase = std::f64::consts::TAU * t as f64 / PERIOD_S as f64;
                (SimTime::from_secs(t), 3150.0 - 2850.0 * phase.cos())
            })
            .collect(),
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
    e.enable_hpa(HpaConfig::default());
    e
}

struct Outcome {
    overall: f64,
    /// Goodput during the upswings, where provisioning lags demand.
    upswings: f64,
    crashes: u64,
    series: Vec<(f64, f64)>,
}

fn run(controller: Box<dyn Controller>) -> Outcome {
    let mut h = Harness::new(engine(31), controller);
    h.run_until(SimTime::from_secs(RUN_S));
    let overall = h.result().mean_total_goodput(10.0, RUN_S as f64);
    // The first upswing hits a cold deployment — the window where the
    // HPA is furthest behind and crash-loops bite.
    let upswings = h.result().mean_total_goodput(50.0, 110.0);
    Outcome {
        overall,
        upswings,
        crashes: h.engine.crash_events,
        series: h.result().total_goodput_series(),
    }
}

fn main() {
    let solo = run(Box::new(NoControl));
    // Cyclic load wants eager limit release: once the trough arrives,
    // drop the limit entirely so the next upswing starts unthrottled.
    let cfg = TopFullConfig {
        release_headroom: 1.3,
        release_after: 3,
        ..TopFullConfig::default()
    }
    .with_mimd();
    let tf = run(Box::new(TopFull::new(cfg)));
    println!("two diurnal cycles (300–6000 users, period {PERIOD_S}s):\n");
    println!(
        "{:<22} {:>10} {:>12} {:>12}",
        "", "overall", "cold upswing", "pod crashes"
    );
    println!(
        "{:<22} {:>10.0} {:>12.0} {:>12}",
        "autoscaler alone", solo.overall, solo.upswings, solo.crashes
    );
    println!(
        "{:<22} {:>10.0} {:>12.0} {:>12}",
        "autoscaler + TopFull", tf.overall, tf.upswings, tf.crashes
    );
    println!("\ngoodput through the cycles (rps):");
    println!("{:>5} {:>10} {:>10}", "t(s)", "solo", "topfull");
    for i in (0..solo.series.len()).step_by(20) {
        println!(
            "{:>5.0} {:>10.0} {:>10.0}",
            solo.series[i].0, solo.series[i].1, tf.series[i].1
        );
    }
    println!(
        "\ncold-upswing coverage: {:.2}x, crash-loops {} → {}; once the HPA has\n\
         warmed up, uncontrolled queueing can ride closer to the edge, so the\n\
         controller's utilization margin costs a little overall — the RL policy\n\
         (see boutique_surge.rs) tracks allocations faster than this MIMD demo",
        tf.upswings / solo.upswings.max(1.0),
        solo.crashes,
        tf.crashes
    );
}
