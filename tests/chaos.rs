//! Gray-failure chaos integration tests: the hardened control loop must
//! survive a full fault schedule — slow pods, telemetry dropout, metric
//! noise, controller stalls, stale observations, and a hostile rate
//! controller — without panicking, without emitting unbounded or
//! non-finite rate limits, and recovering goodput once the faults clear.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use topfull_suite::apps::OnlineBoutique;
use topfull_suite::cluster::control_loop::FREEZE_TICKS;
use topfull_suite::cluster::{
    Engine, EngineConfig, FaultSpec, Harness, OpenLoopWorkload, RateSchedule, RunResult,
};
use topfull_suite::simnet::SimTime;
use topfull_suite::topfull::{RateController, RateState, TopFull, TopFullConfig};

fn config(seed: u64) -> EngineConfig {
    EngineConfig {
        seed,
        ..EngineConfig::default()
    }
}

/// Online Boutique under steady load with the full gray-failure
/// schedule — brownout, dropout, noise, stall, staleness — as
/// `scenarios/gray_failure_chaos.json` states it, at `seed`.
fn chaos_engine(seed: u64) -> Engine {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/gray_failure_chaos.json"
    );
    let json = std::fs::read_to_string(path).expect("committed scenario");
    let mut sc = topfull_suite::topfull_cli::parse_scenario(&json).expect("parses");
    sc.seed = seed;
    topfull_suite::topfull_cli::build_scenario(&sc)
        .expect("builds")
        .engine
}

const FLOOR: f64 = 1.0;
const CEIL: f64 = 10_000.0;

fn assert_limits_bounded(r: &RunResult) {
    for s in &r.samples {
        for (i, l) in s.rate_limit.iter().enumerate() {
            assert!(!l.is_nan(), "NaN rate limit for api {i} at {:?}", s.at);
            if l.is_finite() {
                assert!(
                    (FLOOR..=CEIL).contains(l),
                    "rate limit {l} for api {i} at {:?} outside [{FLOOR}, {CEIL}]",
                    s.at
                );
            } else {
                assert!(*l > 0.0, "negative-infinite limit for api {i}");
            }
        }
        for (i, g) in s.goodput.iter().enumerate() {
            assert!(
                g.is_finite() && *g >= 0.0,
                "bad goodput {g} for api {i} at {:?}",
                s.at
            );
        }
    }
}

fn run_hardened(seed: u64) -> (RunResult, topfull_suite::cluster::WatchdogStats) {
    let cfg = TopFullConfig::default()
        .with_mimd()
        .with_rate_bounds(FLOOR, CEIL)
        .hardened();
    let mut h = Harness::with_watchdog(chaos_engine(seed), Box::new(TopFull::new(cfg)));
    h.run_for_secs(240);
    let stats = h.watchdog_stats();
    (h.into_result(), stats)
}

/// The full schedule runs without panics, every recorded limit is
/// bounded, the run is deterministic, and goodput recovers to ≥90% of
/// the pre-fault level once the faults clear.
#[test]
fn hardened_loop_survives_full_fault_schedule() {
    let (r1, stats1) = run_hardened(11);
    let (r2, stats2) = run_hardened(11);

    assert_limits_bounded(&r1);

    // Determinism: identical seeds give bit-identical timelines.
    assert_eq!(r1.samples.len(), r2.samples.len());
    for (a, b) in r1.samples.iter().zip(&r2.samples) {
        assert_eq!(a.at, b.at);
        assert_eq!(a.goodput, b.goodput, "goodput diverged at {:?}", a.at);
        assert_eq!(a.rate_limit, b.rate_limit, "limits diverged at {:?}", a.at);
    }
    assert_eq!(stats1, stats2);

    // The watchdog actually fired: the stall skipped ticks and the
    // 30 s dropout pushed it through freeze into decay and back out.
    assert!(stats1.stalled_ticks > 0, "stall fault never observed");
    assert!(stats1.frozen_ticks > 0, "dropout never froze limits");
    assert!(stats1.decayed_ticks > 0, "dropout never reached decay");
    assert!(stats1.reentries > 0, "watchdog never re-entered control");

    // Recovery: post-fault goodput within 90% of pre-fault.
    let pre = r1.mean_total_goodput(20.0, 40.0);
    let post = r1.mean_total_goodput(200.0, 240.0);
    assert!(pre > 100.0, "pre-fault baseline implausibly low: {pre}");
    assert!(
        post >= 0.9 * pre,
        "goodput failed to recover: pre {pre:.1} rps, post {post:.1} rps"
    );
}

/// A step policy that cycles through hostile outputs: NaN, infinities,
/// and actions far outside the contract's `[-0.5, 0.5]`.
struct RogueRateController {
    script: Vec<f64>,
    cursor: AtomicUsize,
}

impl RogueRateController {
    fn new() -> Self {
        RogueRateController {
            script: vec![
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                10.0,
                -10.0,
                0.4,
                -0.4,
            ],
            cursor: AtomicUsize::new(0),
        }
    }
}

impl RateController for RogueRateController {
    fn decide(&self, _s: RateState) -> f64 {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        self.script[i % self.script.len()]
    }

    fn name(&self) -> &str {
        "rogue"
    }
}

/// A hostile step policy inside the hardened loop can't poison the
/// cluster: no panics, every limit stays bounded, and the safe wrapper
/// eventually benches the rogue in favor of the MIMD fallback.
#[test]
fn hardened_loop_contains_rogue_rate_controller() {
    let safe = Arc::new(topfull_suite::topfull::SafeRateController::with_defaults(
        Arc::new(RogueRateController::new()),
    ));
    let cfg = TopFullConfig::default()
        .with_rate_controller(safe.clone())
        .with_rate_bounds(FLOOR, CEIL);
    let mut h = Harness::with_watchdog(chaos_engine(7), Box::new(TopFull::new(cfg)));
    h.run_for_secs(120);
    assert_limits_bounded(h.result());
    assert!(
        safe.tripped(),
        "a controller emitting NaN/±inf every few calls must get benched"
    );
}

/// A total telemetry blackout engages the watchdog: limits freeze, then
/// decay toward the floor, and control re-enters once light returns.
#[test]
fn watchdog_freezes_then_decays_during_blackout() {
    let ob = OnlineBoutique::build();
    let rates = vec![
        (ob.getproduct, RateSchedule::constant(300.0)),
        (ob.getcart, RateSchedule::constant(100.0)),
    ];
    let mut engine = Engine::new(
        ob.topology.clone(),
        config(5),
        Box::new(OpenLoopWorkload::new(rates)),
    );
    engine.inject_faults(vec![FaultSpec::TelemetryDropout {
        from: SimTime::from_secs(30),
        until: SimTime::from_secs(60),
        service: None,
    }]);
    let cfg = TopFullConfig::default()
        .with_mimd()
        .with_rate_bounds(FLOOR, CEIL);
    let mut h = Harness::with_watchdog(engine, Box::new(TopFull::new(cfg)));
    h.run_for_secs(90);
    let stats = h.watchdog_stats();
    assert_eq!(stats.frozen_ticks, u64::from(FREEZE_TICKS));
    assert!(
        stats.decayed_ticks > 0,
        "a 30 s blackout must outlast the freeze window"
    );
    assert_eq!(stats.reentries, 1, "light returned exactly once");
    assert_limits_bounded(h.result());
}

/// Shard-kill chaos: 1 of 3 gateway shards dies mid-surge. The plane
/// strikes it out within the strike-out window, redistributes its quota
/// to the survivors, and total goodput recovers to within 10% of what a
/// 2-shard fleet sustains at steady state.
#[test]
fn shard_kill_mid_surge_recovers_to_two_shard_steady_state() {
    use topfull_suite::cluster::ShardFault;
    use topfull_suite::topfull::{Sharded, ShardedConfig};

    let surged = |seed: u64| {
        let ob = OnlineBoutique::build();
        let rates = vec![
            (
                ob.getproduct,
                RateSchedule::steps(vec![
                    (SimTime::ZERO, 150.0),
                    (SimTime::from_secs(30), 1200.0),
                ]),
            ),
            (ob.getcart, RateSchedule::constant(100.0)),
        ];
        Engine::new(
            ob.topology.clone(),
            config(seed),
            Box::new(OpenLoopWorkload::new(rates)),
        )
    };
    let topfull = || {
        Box::new(TopFull::new(TopFullConfig::default().with_mimd()))
            as Box<dyn topfull_suite::cluster::Controller>
    };
    let mean_total = |r: &RunResult, from: f64, to: f64| r.mean_total_goodput(from, to);

    // Reference: a healthy 2-shard fleet under the same surge.
    let sharded =
        |engine, cfg| Harness::new(Sharded::sim(engine, cfg).expect("valid config"), topfull());
    let mut two = sharded(surged(21), ShardedConfig::uniform(2));
    two.run_for_secs(120);

    // Chaos arm: 3 shards, shard 1 SIGKILLed at t=60, mid-surge.
    let mut cfg = ShardedConfig::uniform(3);
    cfg.faults = vec![ShardFault::Kill {
        shard: 1,
        at: SimTime::from_secs(60),
    }];
    let strike_out = cfg.plane.strike_out;
    let mut three = sharded(surged(21), cfg);
    three.run_for_secs(120);

    let stats = three.engine.plane_stats();
    assert!(stats.strike_outs >= 1, "killed shard never struck out");
    assert_eq!(stats.reentries, 0, "a killed shard cannot return");
    assert!(stats.redistributions >= 1, "quota never redistributed");

    // The strike-out decision lands within the window: the journal's
    // membership entry is stamped no later than kill + strike_out + 1
    // control ticks.
    let journal = three.journal().snapshot();
    let struck_at = journal
        .iter()
        .find_map(|e| match e {
            obs::JournalEntry::ShardMembership { t, event, .. } if event.contains("struck out") => {
                Some(*t)
            }
            _ => None,
        })
        .expect("strike-out journaled");
    assert!(
        struck_at <= 60.0 + strike_out as f64 + 1.0,
        "strike-out too slow: t={struck_at}"
    );

    // Recovery: once the strike-out window plus a few settling ticks
    // pass, the 2-survivor fleet's goodput is within 10% of the
    // 2-shard steady state over the same interval.
    let recover_from = 60.0 + strike_out as f64 + 5.0;
    let reference = mean_total(two.result(), recover_from, 120.0);
    let recovered = mean_total(three.result(), recover_from, 120.0);
    assert!(reference > 50.0, "2-shard reference implausibly low");
    assert!(
        recovered >= 0.9 * reference,
        "post-kill goodput {recovered:.1} below 90% of 2-shard steady {reference:.1}"
    );
}
