//! §6.4 "Online deployment overhead cost".
//!
//! The paper reports, per control cycle, clustering ≈ 1.26 × 10⁶ cycles
//! on Train Ticket (41 services) and one RL inference ≈ 2.33 × 10⁶
//! cycles, and concludes that one core controls ≈ 15 000 microservices in
//! 1 000 independent clusters. This report times the same operations
//! here, on the committed policy, and the one cost no gated workload
//! pays: the front door's priority gate. Every other per-request or
//! per-tick cost is a row of the gated benchmark's `--trace 1` layer
//! table (`benchmark/README.md`).
//!
//! A timing, so it moves with the host and stays out of the determinism
//! ledger.

use crate::models;
use crate::report::Report;
use crate::scenarios::{constant, engine};
use apps::trace::{SyntheticTrace, OVERLOAD_THRESHOLD};
use apps::{AlibabaDemo, TrainTicket};
use cluster::front::{FrontConfig, FrontDoor, PreVerdict};
use cluster::{ApiId, Controller, OpenLoopWorkload, ServiceId};
use simnet::SimTime;
use std::hint::black_box;
use std::time::{Duration, Instant};
use topfull::{cluster_apis, RateController, RlRateController, TopFull, TopFullConfig};

/// Wall time each timed row gets.
const ROW_BUDGET: Duration = Duration::from_millis(140);
/// Timed batches per row; a row reports their median.
const BATCHES: u32 = 7;

/// Seconds per call of `op`, the median of [`BATCHES`] batches. A batch's
/// call count doubles, from one, until a batch lasts `budget / BATCHES`.
fn per_call<T>(budget: Duration, mut op: impl FnMut() -> T) -> f64 {
    let mut batch = |calls: u32| {
        let start = Instant::now();
        (0..calls).for_each(|_| drop(black_box(op())));
        start.elapsed().as_secs_f64() / f64::from(calls)
    };
    let mut calls = 1;
    while batch(calls) * f64::from(calls * BATCHES) < budget.as_secs_f64() {
        calls *= 2;
    }
    let mut secs: Vec<f64> = (0..BATCHES).map(|_| batch(calls)).collect();
    secs.sort_by(f64::total_cmp);
    secs[secs.len() / 2]
}

/// Each timed row's label and the paper's figure for it.
const ROWS: [(&str, &str); 6] = [
    ("clustering, Train Ticket (41 services)", "1.26e6 cycles"),
    ("clustering, trace demo (127 services)", "—"),
    ("clustering, trace scale (23 481 services)", "—"),
    ("one RL inference (decide, Transfer-TT)", "2.33e6 cycles"),
    ("TopFull control cycle, Train Ticket", "—"),
    ("priority gate (FrontDoor::pre_admit)", "—"),
];

pub fn run() -> Report {
    report(ROW_BUDGET).0
}

/// The report at `budget` of wall time per timed row, each timed row's
/// seconds per call, and the derived row's share of the control period.
fn report(budget: Duration) -> (Report, [f64; 6], f64) {
    let cluster = |paths: &[Vec<ServiceId>], hot: &[ServiceId]| {
        per_call(budget, || cluster_apis(black_box(paths), black_box(hot)))
    };
    let tt = TrainTicket::build();
    let tt_hot = [tt.basic, tt.station, tt.order, tt.travel];
    let demo = AlibabaDemo::build(7);
    let (paths, hot) = SyntheticTrace::generate(1).clustering_input(OVERLOAD_THRESHOLD);
    // Train Ticket after 5 s with every API at 1 100 rps, controlled by
    // Transfer-TT; `decide` times the first state TopFull then takes.
    let workload = OpenLoopWorkload::new(constant(&tt.apis(), 1100.0));
    let mut sim = engine(&tt.topology, 1, Box::new(workload));
    sim.run_until(SimTime::from_secs(5));
    let obs = sim.latest_observation().expect("ran 5 s").clone();
    let policy = models::load("transfer_tt").expect("committed transfer_tt model");
    let mut tf = TopFull::new(TopFullConfig::default().with_rl(policy.clone()));
    let control = per_call(budget, || tf.control(black_box(&obs)));
    let state = tf.last_decisions().first().expect("an overload").state;
    let rl = RlRateController::new(policy);
    let inference = per_call(budget, || rl.decide(black_box(state)));
    // The front door's stage 2 (DESIGN.md §17), cycling through users.
    let mut door = FrontDoor::new(FrontConfig {
        priority: Some(Default::default()),
        ..Default::default()
    });
    let mut user = 0u8;
    let gate = per_call(budget, || {
        user = user.wrapping_add(1) & 127;
        let verdict = door.pre_admit(ApiId(0), None, 1, black_box(user), SimTime::ZERO);
        matches!(verdict, PreVerdict::Shed { .. })
    });
    let secs = [
        cluster(&tt.topology.api_service_map(), &tt_hot),
        cluster(&demo.topology.api_service_map(), &demo.hot_services),
        cluster(&paths, &hot),
        inference,
        control,
        gate,
    ];
    let mut r = Report::new("overhead", "Deployment overhead (§6.4)");
    for ((label, paper), secs) in ROWS.into_iter().zip(secs) {
        r.compare(label, paper, format!("{:.0}", secs * 1e9), "ns");
    }
    // The paper's capacity claim: the 23k-service clustering plus one
    // inference for each of 1 000 clusters, within the 1 s control period.
    let share = secs[2] + 1_000.0 * secs[3];
    r.compare(
        "23k clustering + 1 000 inferences per 1 s",
        "1k clusters/core",
        format!("{:.2} %", share * 100.0),
        "",
    );
    (r, secs, share)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row times something, and §6.4's deployability claim holds:
    /// the 23k-service clustering and 1 000 inferences fit one control
    /// period.
    #[test]
    fn every_row_is_timed_and_the_paper_scale_fits_one_period() {
        let (report, secs, share) = report(Duration::from_millis(1));
        assert_eq!(report.comparisons.len(), ROWS.len() + 1);
        assert!(secs.iter().all(|s| s.is_finite() && *s > 0.0), "{secs:?}");
        assert!(share < 1.0, "{share} of the control period");
    }
}
