//! Business-priority shedding: when the cluster cannot serve everyone,
//! TopFull sacrifices the lowest-priority APIs first (Algorithm 1) while
//! DAGOR-style per-service shedding starves them completely.
//!
//! ```text
//! cargo run --release --example priority_shedding
//! ```

use topfull_suite::apps::OnlineBoutique;
use topfull_suite::baselines::{Dagor, PriorityConfig};
use topfull_suite::cluster::{Engine, EngineConfig, Harness, NoControl, OpenLoopWorkload};
use topfull_suite::topfull::{TopFull, TopFullConfig};

fn engine(seed: u64) -> (OnlineBoutique, Engine) {
    let mut ob = OnlineBoutique::build();
    // Assign business priorities (lower = more important):
    // postcheckout > getproduct > getcart > postcart, then overload all
    // four APIs simultaneously.
    for (i, api) in [ob.postcheckout, ob.getproduct, ob.getcart, ob.postcart]
        .into_iter()
        .enumerate()
    {
        ob.topology.api_mut(api).business =
            topfull_suite::cluster::types::BusinessPriority(i as u8);
    }
    let rates = vec![
        (ob.postcheckout, 900.0),
        (ob.getproduct, 700.0),
        (ob.getcart, 700.0),
        (ob.postcart, 700.0),
    ];
    let w = OpenLoopWorkload::constant(rates);
    let e = Engine::new(
        ob.topology.clone(),
        EngineConfig {
            seed,
            ..EngineConfig::default()
        },
        Box::new(w),
    );
    (ob, e)
}

fn report(label: &str, ob: &OnlineBoutique, h: &Harness) {
    let r = h.result();
    let apis = [ob.postcheckout, ob.getproduct, ob.getcart, ob.postcart];
    let names = ["postcheckout", "getproduct", "getcart", "postcart"];
    println!("\n{label}");
    for (api, name) in apis.iter().zip(names) {
        let g = r.mean_goodput_api(*api, 40.0, 120.0);
        let bar = "#".repeat((g / 12.0) as usize);
        println!("  {name:<14} {g:>6.0} rps  {bar}");
    }
}

fn main() {
    // DAGOR: per-service admission thresholds shed low priorities at
    // every microservice independently.
    let (ob, mut e) = engine(11);
    e.set_admission(Box::new(Dagor::new(
        e.topology().num_services(),
        PriorityConfig::default(),
    )));
    let mut dagor = Harness::new(e, Box::new(NoControl));
    dagor.run_for_secs(120);
    report("DAGOR (per-service priority shedding)", &ob, &dagor);

    // TopFull: uses the cached RL policy when present (run
    // `figures train` to create it), else the MIMD fallback.
    let (ob2, e2) = engine(11);
    let policy = topfull_suite::rl::policy::PolicyValue::load(std::path::Path::new(
        "artifacts/models/transfer_ob.json",
    ));
    let cfg = match policy {
        Ok(p) => {
            println!(
                "
(using the cached RL policy)"
            );
            TopFullConfig::default().with_rl(p)
        }
        Err(_) => {
            println!(
                "
(no cached RL policy; using the MIMD fallback)"
            );
            TopFullConfig::default().with_mimd()
        }
    };
    let tf = TopFull::new(cfg);
    let mut topfull = Harness::new(e2, Box::new(tf));
    topfull.run_for_secs(120);
    report("TopFull (API-wise entry control)", &ob2, &topfull);

    let d = dagor.result().mean_total_goodput(40.0, 120.0);
    let t = topfull.result().mean_total_goodput(40.0, 120.0);
    println!(
        "\ntotal goodput: DAGOR {d:.0} rps vs TopFull {t:.0} rps ({:.2}x)",
        t / d.max(1.0)
    );
}
