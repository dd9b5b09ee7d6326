//! §2 + §6.4 trace analyses: starvation vulnerability, clustering
//! scalability, and the "surges create multiple overloads" measurement.
//!
//! * §2: "44.4% of APIs among those involved in overloaded microservices
//!   were potentially vulnerable to starvation"; "it creates 3.4
//!   overloaded microservices on average" for single-API surges on
//!   Online Boutique.
//! * §6.4: "59% of [overloaded services] do not share any overlapping
//!   APIs … the remaining 41% … forming an average of 2.38
//!   microservices"; "the initial problem with 68 overloaded
//!   microservices … is divided into 57 independent clusters with each
//!   sub-problem containing 1.19 constraints on average."

use crate::report::Report;
use crate::scenarios::{constant, engine};
use apps::trace::{SyntheticTrace, OVERLOAD_THRESHOLD};
use apps::OnlineBoutique;
use cluster::OpenLoopWorkload;
use simnet::SimTime;
use topfull::cluster_apis;

/// §2 empirical check: surge one Online Boutique API at a time and count
/// services that exceed the overload threshold.
fn overloads_per_single_api_surge() -> f64 {
    let ob = OnlineBoutique::build();
    let mut counts = Vec::new();
    for api in ob.apis() {
        let workload = OpenLoopWorkload::new(constant(&[api], 4000.0));
        let mut engine = engine(&ob.topology, 2, Box::new(workload));
        engine.run_until(SimTime::from_secs(30));
        let obs = engine.latest_observation().expect("ran 30s");
        counts.push(obs.overloaded_services(OVERLOAD_THRESHOLD).len() as f64);
    }
    simnet::stats::mean(&counts)
}

pub fn run() -> Report {
    let mut r = Report::new("trace_analysis", "Alibaba-trace analyses (§2, §6.4)");
    let tr = SyntheticTrace::generate(1);
    let over = tr.overloaded(OVERLOAD_THRESHOLD);
    r.compare("microservices in trace", "23,481", tr.utilization.len(), "");
    r.compare("overloaded at analyzed instant", 68, over.len(), "");

    // §6.4 sharing stats.
    let sharing = tr.sharing_analysis(OVERLOAD_THRESHOLD);
    r.compare(
        "overloaded sharing no APIs (isolated)",
        "59%",
        format!("{:.0}%", sharing.isolated_fraction() * 100.0),
        "",
    );
    r.compare(
        "mean sharing-group size",
        "2.38",
        format!("{:.2}", sharing.mean_group_size()),
        "",
    );

    // Clustering through TopFull's own production clustering code.
    let (paths, over_sids) = tr.clustering_input(OVERLOAD_THRESHOLD);
    let clusters = cluster_apis(&paths, &over_sids);
    r.compare("independent clusters", 57, clusters.len(), "");
    let constraints: f64 = clusters.iter().map(|c| c.overloaded.len() as f64).sum();
    r.compare(
        "constraints per cluster",
        1.19,
        format!("{:.2}", constraints / clusters.len() as f64),
        "",
    );

    // §2 starvation vulnerability.
    let st = tr.starvation_analysis(OVERLOAD_THRESHOLD);
    r.compare(
        "starvation-vulnerable APIs",
        "44.4%",
        format!("{:.1}%", st.vulnerable_fraction() * 100.0),
        "",
    );

    // §2 surge experiment on Online Boutique.
    let avg_over = overloads_per_single_api_surge();
    r.compare(
        "overloaded services per single-API surge (Online Boutique)",
        3.4,
        format!("{avg_over:.1}"),
        "",
    );
    r
}
