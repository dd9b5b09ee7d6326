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

use crate::exec::{self, Of};
use crate::report::{f1, ratio, Report};
use crate::scenarios::{Recipe, Roster};
use cluster::front::{CoalesceConfig, FrontConfig, PriorityConfig};
use cluster::types::BusinessPriority;
use cluster::{ApiId, ApiSpec, CallNode, RateSchedule, ServiceSpec, Topology};
use simnet::{SimDuration, SimTime};

const RUN_SECS: u64 = 60;
const SURGE_AT: u64 = 10;
const WINDOW: (f64, f64) = (30.0, RUN_SECS as f64);

/// The read-flash-crowd app: a cheap frontend fanning into a single
/// slow catalog replica (~100 rps capacity), surged to 1200 rps.
pub fn read_recipe(seed: u64) -> (Recipe, ApiId) {
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
    let surge = RateSchedule::steps(vec![
        (SimTime::ZERO, 60.0),
        (SimTime::from_secs(SURGE_AT), 1200.0),
    ]);
    (Recipe::open_loop(&t, vec![(read, surge)], seed), read)
}

/// The mixed-priority app: checkout (business 0) and browse (business
/// 1) share one backend; the flash crowd is almost entirely browse.
pub fn mixed_recipe(seed: u64) -> (Recipe, ApiId, ApiId) {
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
    let rates = vec![
        (checkout, RateSchedule::steps(vec![(SimTime::ZERO, 50.0)])),
        (
            browse,
            RateSchedule::steps(vec![
                (SimTime::ZERO, 60.0),
                (SimTime::from_secs(SURGE_AT), 900.0),
            ]),
        ),
    ];
    (Recipe::open_loop(&t, rates, seed), checkout, browse)
}

/// `recipe` behind a front door; `key_space` as `Engine::set_front_door`.
fn behind(recipe: Recipe, front: FrontConfig, key_space: Vec<u64>) -> Recipe {
    recipe.then(move |engine| engine.set_front_door(front, key_space.clone()))
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
pub fn coalesce() -> Report {
    let mut r = Report::new(
        "admission_coalesce",
        "Read flash crowd: single-flight coalescing vs plain TopFull",
    );
    let (plain, read) = read_recipe(11);
    let coalescing = behind(plain.clone(), coalesce_front(), vec![16]);
    let arms = [
        ("topfull (no coalescing)", Roster::TopFullMimd, plain),
        ("topfull + coalescing", Roster::TopFullMimd, coalescing),
    ];
    let mut runs = exec::run_arms(arms, RUN_SECS);
    let goodput: Vec<f64> = runs
        .iter()
        .map(|o| Of::Api(read).mean(&o.result, WINDOW))
        .collect();
    r.table(
        "steady-state goodput (rps) under a 1200 rps read surge, key space 16",
        &["arm", "goodput"],
        (runs.iter().zip(&goodput))
            .map(|(o, g)| vec![o.label.clone(), f1(*g)])
            .collect(),
    );
    r.compare(
        "coalescing / no-coalescing effective goodput",
        ">=2x",
        ratio(goodput[1], goodput[0]),
        "",
    );
    r.series(
        "goodput: no coalescing",
        Of::Api(read).series(&runs[0].result),
    );
    r.series("goodput: coalescing", Of::Api(read).series(&runs[1].result));
    let co = runs.pop().expect("two arms");
    let stats = co.front.expect("front door installed");
    let hits = stats.cache_hits.get() + stats.follower_hits.get();
    r.note(format!(
        "coalesced {hits} duplicate reads (cache {} + in-flight {}), hit rate {:.3}",
        stats.cache_hits.get(),
        stats.follower_hits.get(),
        hits as f64 / (hits + stats.misses.get()) as f64
    ));
    r.journal(co.result.journal);
    r
}

/// TopFull+DAGOR hybrid vs each stage alone on the mixed-priority
/// surge: the hybrid must hold checkout at its offered 50 rps.
pub fn hybrid() -> Report {
    let mut r = Report::new(
        "admission_hybrid",
        "Mixed-priority surge: TopFull+DAGOR hybrid vs either stage alone",
    );
    let (plain, checkout, browse) = mixed_recipe(7);
    let gated = behind(plain.clone(), priority_front(), Vec::new());
    let arms = [
        ("topfull-only", Roster::TopFullMimd, plain),
        ("dagor-only", Roster::None, gated.clone()),
        ("topfull+dagor", Roster::TopFullMimd, gated),
    ];
    let mut runs = exec::run_arms(arms, RUN_SECS);
    // Per arm: steady (checkout, browse) goodputs and browse's
    // priority-shed count.
    let row = |o: &exec::ArmOutcome| {
        vec![
            o.label.clone(),
            f1(Of::Api(checkout).mean(&o.result, WINDOW)),
            f1(Of::Api(browse).mean(&o.result, WINDOW)),
            o.api_totals[browse.idx()].rejected_shed.to_string(),
        ]
    };
    r.table(
        "steady-state goodput (rps); checkout offered 50, browse surged to 900",
        &["arm", "checkout", "browse", "browse priority-sheds"],
        runs.iter().map(row).collect(),
    );
    let held = |l| Of::Api(checkout).mean(&exec::arm(&runs, l).result, WINDOW);
    r.compare(
        "hybrid / topfull-only checkout goodput",
        ">=1x",
        ratio(held("topfull+dagor"), held("topfull-only")),
        "",
    );
    let journal = runs.pop().expect("three arms").result.journal;
    let moves = journal
        .iter()
        .filter(|e| matches!(e, obs::JournalEntry::PriorityThreshold { .. }))
        .count();
    r.note(format!(
        "hybrid arm journaled {moves} priority-threshold moves \
         (render with `topfull explain artifacts/results/admission_hybrid.json`)"
    ));
    r.journal(journal);
    r
}
