//! Front-door admission figures (repo extension; DESIGN.md §17).
//!
//! Two figures, one per stage of the front door:
//!
//! * **Flash-crowd coalescing** — a read-heavy surge whose requests
//!   concentrate on a small key space (the committed
//!   `scenarios/read_flash_crowd.json` shape). With single-flight
//!   coalescing the duplicate reads collapse onto one backend flight
//!   plus a bounded TTL cache, so effective goodput must clear **2×**
//!   the no-coalescing arm.
//! * **TopFull+DAGOR hybrid** — a mixed-priority surge where the
//!   DAGOR-style priority gate (shedding low-business users first)
//!   composes with TopFull's per-API token buckets, against either
//!   stage alone. The hybrid arm's journal carries every
//!   priority-threshold move (`topfull explain` renders them).

use crate::report::{f1, ratio, Report};
use crate::scenarios::{engine_config, Roster};
use cluster::front::{CoalesceConfig, FrontConfig, PriorityConfig};
use cluster::types::BusinessPriority;
use cluster::{
    ApiId, ApiSpec, CallNode, Engine, OpenLoopWorkload, RateSchedule, ServiceSpec, Topology,
};
use simnet::{SimDuration, SimTime};

const RUN_SECS: u64 = 60;
const SURGE_AT: u64 = 10;
const MEASURE_FROM: f64 = 30.0;

/// The read-flash-crowd app: a cheap frontend fanning into a single
/// slow catalog replica (~100 rps capacity), surged to 1200 rps.
fn read_engine(seed: u64) -> (Engine, ApiId) {
    let mut t = Topology::default();
    let fe = t.add_service(ServiceSpec::new("frontend", 2).queue_capacity(256));
    let cat = t.add_service(ServiceSpec::new("catalog", 1).queue_capacity(256));
    let read = t.add_api(ApiSpec::single(
        "read",
        CallNode::with_children(
            fe,
            SimDuration::from_micros(500),
            vec![CallNode::leaf(cat, SimDuration::from_millis(10))],
        ),
    ));
    let w = OpenLoopWorkload::new(vec![(
        read,
        RateSchedule::steps(vec![
            (SimTime::ZERO, 60.0),
            (SimTime::from_secs(SURGE_AT), 1200.0),
        ]),
    )]);
    (Engine::new(t, engine_config(seed), Box::new(w)), read)
}

/// The mixed-priority app: checkout (business 0) and browse (business
/// 1) share one backend; the flash crowd is almost entirely browse.
fn mixed_engine(seed: u64) -> (Engine, ApiId, ApiId) {
    let mut t = Topology::default();
    let fe = t.add_service(ServiceSpec::new("frontend", 2).queue_capacity(256));
    let be = t.add_service(ServiceSpec::new("backend", 1).queue_capacity(256));
    let api = |name: &str, business: u8| {
        ApiSpec::single(
            name,
            CallNode::with_children(
                fe,
                SimDuration::from_micros(500),
                vec![CallNode::leaf(be, SimDuration::from_millis(8))],
            ),
        )
        .business(BusinessPriority(business))
    };
    let checkout = t.add_api(api("checkout", 0));
    let browse = t.add_api(api("browse", 1));
    let w = OpenLoopWorkload::new(vec![
        (checkout, RateSchedule::steps(vec![(SimTime::ZERO, 50.0)])),
        (
            browse,
            RateSchedule::steps(vec![
                (SimTime::ZERO, 60.0),
                (SimTime::from_secs(SURGE_AT), 900.0),
            ]),
        ),
    ]);
    (
        Engine::new(t, engine_config(seed), Box::new(w)),
        checkout,
        browse,
    )
}

fn coalesce_front() -> FrontConfig {
    FrontConfig {
        coalesce: Some(CoalesceConfig {
            cache_capacity: 1024,
            cache_ttl: SimDuration::from_millis(400),
        }),
        priority: None,
    }
}

fn priority_front() -> FrontConfig {
    FrontConfig {
        coalesce: None,
        priority: Some(PriorityConfig::default()),
    }
}

/// Flash-crowd coalescing: goodput with the single-flight stage on
/// must be ≥2× the no-coalescing arm.
fn run_coalesce() {
    let mut r = Report::new(
        "admission_coalesce",
        "Read flash crowd: single-flight coalescing vs plain TopFull",
    );
    let (engine, read) = read_engine(11);
    let mut h = Roster::TopFullMimd.into_harness(engine);
    h.run_for_secs(RUN_SECS);
    let base = h
        .result()
        .mean_goodput_api(read, MEASURE_FROM, RUN_SECS as f64);
    let base_series = h.result().goodput_series(read);

    let (mut engine, read) = read_engine(11);
    engine.set_front_door(coalesce_front(), vec![16]);
    let mut h = Roster::TopFullMimd.into_harness(engine);
    h.run_for_secs(RUN_SECS);
    let co = h
        .result()
        .mean_goodput_api(read, MEASURE_FROM, RUN_SECS as f64);
    let co_series = h.result().goodput_series(read);
    let stats = h.engine.front_stats().expect("front door installed");
    let hits = stats.cache_hits.get() + stats.follower_hits.get();

    r.table(
        "steady-state goodput (rps) under a 1200 rps read surge, key space 16",
        &["arm", "goodput"],
        vec![
            vec!["topfull (no coalescing)".into(), f1(base)],
            vec!["topfull + coalescing".into(), f1(co)],
        ],
    );
    r.compare(
        "coalescing / no-coalescing effective goodput",
        ">=2x",
        ratio(co, base),
        "",
    );
    r.note(format!(
        "coalesced {hits} duplicate reads (cache {} + in-flight {}), hit rate {:.3}",
        stats.cache_hits.get(),
        stats.follower_hits.get(),
        hits as f64 / (hits + stats.misses.get()) as f64
    ));
    r.series("goodput: no coalescing", base_series);
    r.series("goodput: coalescing", co_series);
    r.journal(h.journal().snapshot());
    r.finish();
}

/// One hybrid-figure arm; returns (checkout, browse) steady goodputs,
/// the browse priority-shed count, and the run journal.
fn mixed_arm(
    front: Option<FrontConfig>,
    roster: Roster,
    seed: u64,
) -> ((f64, f64), u64, Vec<obs::JournalEntry>) {
    let (mut engine, checkout, browse) = mixed_engine(seed);
    if let Some(cfg) = front {
        engine.set_front_door(cfg, Vec::new());
    }
    let mut h = roster.into_harness(engine);
    h.run_for_secs(RUN_SECS);
    let to = RUN_SECS as f64;
    let goodputs = (
        h.result().mean_goodput_api(checkout, MEASURE_FROM, to),
        h.result().mean_goodput_api(browse, MEASURE_FROM, to),
    );
    let shed = h.engine.api_totals(browse).rejected_shed;
    (goodputs, shed, h.journal().snapshot())
}

/// TopFull+DAGOR hybrid vs each stage alone on the mixed-priority
/// surge: the hybrid must hold checkout at its offered 50 rps.
fn run_hybrid() {
    let mut r = Report::new(
        "admission_hybrid",
        "Mixed-priority surge: TopFull+DAGOR hybrid vs either stage alone",
    );
    let ((tf_co, tf_br), _, _) = mixed_arm(None, Roster::TopFullMimd, 7);
    let ((dg_co, dg_br), dg_shed, _) = mixed_arm(Some(priority_front()), Roster::None, 7);
    let ((hy_co, hy_br), hy_shed, journal) =
        mixed_arm(Some(priority_front()), Roster::TopFullMimd, 7);
    r.table(
        "steady-state goodput (rps); checkout offered 50, browse surged to 900",
        &["arm", "checkout", "browse", "browse priority-sheds"],
        vec![
            vec!["topfull-only".into(), f1(tf_co), f1(tf_br), "0".into()],
            vec![
                "dagor-only".into(),
                f1(dg_co),
                f1(dg_br),
                dg_shed.to_string(),
            ],
            vec![
                "topfull+dagor".into(),
                f1(hy_co),
                f1(hy_br),
                hy_shed.to_string(),
            ],
        ],
    );
    r.compare(
        "hybrid / topfull-only checkout goodput",
        ">=1x",
        ratio(hy_co, tf_co),
        "",
    );
    let moves = journal
        .iter()
        .filter(|e| matches!(e, obs::JournalEntry::PriorityThreshold { .. }))
        .count();
    r.note(format!(
        "hybrid arm journaled {moves} priority-threshold moves \
         (render with `topfull explain artifacts/results/admission_hybrid.json`)"
    ));
    r.journal(journal);
    r.finish();
}

pub fn run() {
    run_coalesce();
    run_hybrid();
}
