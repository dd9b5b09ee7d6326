//! Sharded control plane integration tests: the limit splitter's
//! conservation invariants (proptest), plane transparency when healthy,
//! dropout failover with ramped re-entry, the controller-loss
//! degradation ladder (never fail-open, never fail-closed), and journal
//! determinism across experiment worker counts.

use proptest::prelude::*;
use topfull_suite::apps::OnlineBoutique;
use topfull_suite::cluster::harness::TickSample;
use topfull_suite::cluster::{
    Engine, EngineConfig, Harness, OpenLoopWorkload, RateSchedule, ShardFault,
};
use topfull_suite::simnet::SimTime;
use topfull_suite::topfull::{
    split_limit, Sharded, ShardedConfig, SimShards, TopFull, TopFullConfig,
};

const MIN_QUANTUM: f64 = 1.0;

/// Surged Online Boutique engine, the workhorse of these tests.
fn surge_engine(seed: u64) -> Engine {
    let ob = OnlineBoutique::build();
    let rates = vec![
        (
            ob.getproduct,
            RateSchedule::steps(vec![
                (SimTime::ZERO, 150.0),
                (SimTime::from_secs(20), 1200.0),
            ]),
        ),
        (ob.getcart, RateSchedule::constant(100.0)),
    ];
    Engine::new(
        ob.topology.clone(),
        EngineConfig {
            seed,
            ..EngineConfig::default()
        },
        Box::new(OpenLoopWorkload::new(rates)),
    )
}

fn controller() -> Box<dyn topfull_suite::cluster::Controller> {
    Box::new(TopFull::new(TopFullConfig::default().with_mimd()))
}

/// The surged engine behind `cfg`'s virtual gateway shards.
fn sharded(seed: u64, cfg: ShardedConfig) -> Harness<Sharded<SimShards>> {
    let plane = Sharded::sim(surge_engine(seed), cfg).expect("valid config");
    Harness::new(plane, controller())
}

fn mean_goodput(samples: &[Box<TickSample>], from: f64) -> f64 {
    let xs: Vec<f64> = samples
        .iter()
        .filter(|s| s.at.as_secs_f64() >= from)
        .map(|s| s.goodput.iter().sum())
        .collect();
    topfull_suite::simnet::stats::mean(&xs)
}

// ---------------------------------------------------------------------
// Satellite: proptest invariants of the limit splitter.

proptest! {
    /// Live quotas sum to the global limit (±1 token), every live shard
    /// gets at least the min-quantum, dead shards get exactly zero.
    #[test]
    fn split_conserves_and_floors(
        global in 0.0f64..5000.0,
        arrivals in prop::collection::vec(0.0f64..1000.0, 1..8),
        live_bits in prop::collection::vec(any::<bool>(), 1..8),
    ) {
        let n = arrivals.len().min(live_bits.len());
        let arrivals = &arrivals[..n];
        let mut live = live_bits[..n].to_vec();
        live[0] = true; // at least one survivor
        let quotas = split_limit(global, arrivals, &live, MIN_QUANTUM, None);
        let n_live = live.iter().filter(|l| **l).count() as f64;
        let expected = global.max(n_live * MIN_QUANTUM);
        let sum: f64 = quotas.iter().sum();
        prop_assert!(
            (sum - expected).abs() <= 1.0,
            "quotas sum {sum} vs expected {expected}"
        );
        for (i, q) in quotas.iter().enumerate() {
            if live[i] {
                prop_assert!(*q >= MIN_QUANTUM - 1e-9, "live shard {i} below floor: {q}");
            } else {
                prop_assert_eq!(*q, 0.0, "dead shard {} got quota", i);
            }
        }
    }

    /// Killing one shard and re-splitting conserves the total: the dead
    /// shard's quota flows to the survivors, not into thin air.
    #[test]
    fn redistribution_conserves_total(
        global in 50.0f64..5000.0,
        arrivals in prop::collection::vec(0.1f64..1000.0, 3..8),
        victim in 1usize..8,
    ) {
        let n = arrivals.len();
        let victim = victim % n;
        let all_live = vec![true; n];
        let before = split_limit(global, &arrivals, &all_live, MIN_QUANTUM, None);
        let mut live = all_live.clone();
        live[victim] = false; // n >= 3, so at least two survivors remain
        let after = split_limit(global, &arrivals, &live, MIN_QUANTUM, None);
        let (sb, sa): (f64, f64) = (before.iter().sum(), after.iter().sum());
        prop_assert!(
            (sb - sa).abs() <= 1.0 + MIN_QUANTUM,
            "redistribution leaked quota: {sb} -> {sa}"
        );
        prop_assert_eq!(after[victim], 0.0);
    }

    /// An unlimited global stays unlimited for live shards unless a
    /// re-entry cap bounds them; finite caps always bound the quota.
    #[test]
    fn caps_bound_quotas(
        global in 100.0f64..5000.0,
        arrivals in prop::collection::vec(0.0f64..1000.0, 2..6),
        cap in 2.0f64..50.0,
    ) {
        let n = arrivals.len();
        let live = vec![true; n];
        let mut caps = vec![f64::INFINITY; n];
        caps[0] = cap;
        let quotas = split_limit(global, &arrivals, &live, MIN_QUANTUM, Some(&caps));
        prop_assert!(
            quotas[0] <= cap.max(MIN_QUANTUM) + 1e-9,
            "re-entry cap violated: {} > {cap}",
            quotas[0]
        );
        for (i, q) in quotas.iter().enumerate() {
            prop_assert!(q.is_finite(), "finite global must give finite quota {i}");
            prop_assert!(*q >= MIN_QUANTUM - 1e-9);
        }
    }
}

// ---------------------------------------------------------------------
// Plane transparency: with healthy shards the sharded stack is a
// deployment detail, not a control change.

#[test]
fn healthy_sharded_plane_matches_single_gateway() {
    let bits = |s: &TickSample| s.goodput.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
    for seed in [7, 1, 2, 3] {
        let mut single = Harness::new(surge_engine(seed), controller());
        single.run_for_secs(90);
        let mut sharded = sharded(seed, ShardedConfig::uniform(3));
        sharded.run_for_secs(90);
        // The two planes' goodput overlays exactly, tick for tick and
        // API for API.
        let (one, three) = (&single.result().samples, &sharded.result().samples);
        assert_eq!((one.len(), three.len()), (90, 90));
        for (t, (a, b)) in one.iter().zip(three).enumerate() {
            assert_eq!(
                bits(a),
                bits(b),
                "seed {seed}, tick {t}: goodput {:?} on 1 gateway, {:?} on 3 shards",
                a.goodput,
                b.goodput
            );
        }
        let stats = sharded.engine.plane_stats();
        assert!(stats.merges > 0, "controller ran on merged observations");
        assert_eq!(stats.strike_outs, 0, "no failover on a healthy fleet");
    }
}

// ---------------------------------------------------------------------
// Dropout failover: strike-out, redistribution, ramped re-entry.

#[test]
fn dropout_strikes_out_and_reenters_with_ramp() {
    let mut cfg = ShardedConfig::uniform(3);
    cfg.faults = vec![ShardFault::Dropout {
        shard: 1,
        from: SimTime::from_secs(30),
        until: SimTime::from_secs(60),
    }];
    let mut h = sharded(11, cfg);
    h.run_for_secs(100);
    let stats = h.engine.plane_stats();
    assert!(stats.strike_outs >= 1, "shard 1 must strike out: {stats:?}");
    assert!(stats.reentries >= 1, "shard 1 must re-enter: {stats:?}");
    assert!(
        stats.redistributions >= 2,
        "strike-out and re-entry both redistribute: {stats:?}"
    );
    let journal = h.journal().snapshot();
    let events: Vec<String> = journal
        .iter()
        .filter_map(|e| match e {
            obs::JournalEntry::ShardMembership { event, shard, .. } => {
                Some(format!("shard {shard}: {event}"))
            }
            _ => None,
        })
        .collect();
    let all = events.join("\n");
    assert!(all.contains("struck out"), "journal: {all}");
    assert!(
        all.contains("re-entering with ramped quota"),
        "journal: {all}"
    );
    assert!(all.contains("ramp complete"), "journal: {all}");
    // Goodput after the shard returns recovers to the healthy level.
    let late = mean_goodput(&h.result().samples, 75.0);
    assert!(late > 100.0, "post-re-entry goodput too low: {late:.1}");
}

// ---------------------------------------------------------------------
// Controller loss: hold, then MIMD fallback — never fail-open (an
// unbounded limit) and never fail-closed (a zero limit).

#[test]
fn controller_loss_degrades_without_failing_open_or_closed() {
    let mut cfg = ShardedConfig::uniform(3);
    cfg.faults = vec![ShardFault::ControllerLoss {
        from: SimTime::from_secs(40),
        until: SimTime::from_secs(70),
    }];
    let ttl = cfg.plane.limit_ttl;
    let mut h = sharded(13, cfg);
    h.run_for_secs(100);
    let guards = h.engine.guard_stats();
    assert!(guards.held_ticks > 0, "limits must be held inside the TTL");
    assert!(
        guards.fallback_ticks > 0,
        "the MIMD fallback must engage past the TTL: {guards:?}"
    );
    assert!(
        guards.resyncs >= 3,
        "all shards resync on return: {guards:?}"
    );
    assert!(
        h.engine.lost_ticks() > 0,
        "loss window must cost controller ticks"
    );
    // Once every shard is past its TTL (limit_ttl ticks into the
    // window), the enforced limits are the fallback's: finite, bounded
    // away from zero (>= 3 live shards x min-quantum).
    let blind_from = 40.0 + ttl as f64 + 2.0;
    for s in &h.result().samples {
        let t = s.at.as_secs_f64();
        if !(blind_from..70.0).contains(&t) {
            continue;
        }
        for (api, l) in s.rate_limit.iter().enumerate() {
            assert!(
                l.is_finite(),
                "t={t}: api {api} fail-open (unbounded limit) while blind"
            );
            assert!(
                *l >= 3.0 * MIN_QUANTUM - 1e-9,
                "t={t}: api {api} fail-closed (limit {l}) while blind"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Determinism: the sharded journal is identical regardless of how many
// experiment workers run around it.

#[test]
fn sharded_journal_fingerprint_is_worker_count_invariant() {
    let run_one = |seed: u64| {
        let mut cfg = ShardedConfig::uniform(3);
        cfg.faults = vec![ShardFault::Dropout {
            shard: 2,
            from: SimTime::from_secs(20),
            until: SimTime::from_secs(35),
        }];
        let mut h = sharded(seed, cfg);
        h.run_for_secs(50);
        obs::journal_fingerprint(&obs::to_jsonl(&h.journal().snapshot()))
    };
    let fingerprints = |workers: usize| -> Vec<u64> {
        let mut plan = cluster::runner::RunPlan::new().with_workers(workers);
        for seed in [3u64, 5, 7] {
            plan.submit(move || run_one(seed));
        }
        plan.run()
    };
    let serial = fingerprints(1);
    let parallel = fingerprints(4);
    assert_eq!(serial, parallel, "journal must not depend on worker count");
    assert_ne!(serial[0], serial[1], "different seeds journal differently");
}
