//! Scenario execution and output rendering.

use crate::build::BuiltScenario;
use crate::schema::Scenario;
use cluster::{ApiId, Harness, ResilienceStats, SimPlane};
use serde::Serialize;

/// The measured outcome of a scenario run.
#[derive(Debug, Serialize)]
pub struct ScenarioOutcome {
    pub name: String,
    /// Seconds run: simulated, or wall-clock when `live`.
    pub duration_secs: u64,
    /// Served on the live plane (`topfull live`), not simulated.
    pub live: bool,
    /// Where the steady-state window opened, on the run's own clock.
    pub steady_from_secs: f64,
    /// Per-API steady-state mean goodput (rps), in API order.
    pub goodput_per_api: Vec<(String, f64)>,
    pub total_goodput: f64,
    /// Per-API steady-state mean offered rate.
    pub offered_per_api: Vec<(String, f64)>,
    /// Pod crash-loop events over the run.
    pub crash_events: u64,
    /// Request-plane resilience counters over the whole run.
    pub resilience: ResilienceStats,
    /// `(t, total goodput)` timeline.
    pub timeline: Vec<(f64, f64)>,
    /// Each API's `(t, goodput)` timeline, in API order.
    pub goodput_timeline_per_api: Vec<(String, Vec<(f64, f64)>)>,
    /// `(t, worst per-API p99 seconds)` timeline. The scenario fuzzer's
    /// sustained-breach objective reads this.
    pub p99_timeline: Vec<(f64, f64)>,
    /// Controller decision journal, in decision order. Feed to
    /// `topfull explain` to render the timeline.
    pub journal: Vec<obs::JournalEntry>,
    /// Shard-plane activity (sharded runs only).
    pub shard_plane: Option<topfull::ShardPlaneStats>,
    /// Shard-local guard activity summed over shards (sharded runs only).
    pub shard_guards: Option<topfull::GuardStats>,
    /// Per-class reject counts `(entry-limit, priority-shed)` observed
    /// by the load generator's reply readers (live runs only).
    pub live_rejects: Option<(u64, u64)>,
    /// Causal trace events harvested from the gateway's trace log (live
    /// runs only; the simulator has no wire to carry trace ids). Feed
    /// the run JSON to `topfull trace` to render waterfalls.
    pub traces: Vec<obs::TraceEvent>,
}

/// Run a built scenario to completion and collect the outcome. With
/// `shards`, the engine sits behind N virtual gateway shards: its
/// controller-facing observation is sliced per shard, one logical
/// controller runs on the weighted merge, and the resulting limits are
/// split back per shard (see `topfull::shard`). `crate::preflight` has
/// already refused sharding × hardened: the shard plane carries its own
/// degradation ladder in place of the watchdog.
pub(crate) fn execute(
    sc: &Scenario,
    built: BuiltScenario,
    shards: Option<topfull::ShardedConfig>,
) -> Result<ScenarioOutcome, String> {
    let BuiltScenario {
        engine,
        controller,
        api_names,
        hardened,
    } = built;
    let Some(cfg) = shards else {
        let mut h = if hardened {
            Harness::with_watchdog(engine, controller)
        } else {
            Harness::new(engine, controller)
        };
        return Ok(run(sc, &mut h, &api_names));
    };
    let mut h = Harness::new(topfull::Sharded::sim(engine, cfg)?, controller);
    let mut out = run(sc, &mut h, &api_names);
    out.shard_plane = Some(h.engine.plane_stats());
    out.shard_guards = Some(h.engine.guard_stats());
    Ok(out)
}

/// Drive `h` for the scenario's duration and summarize its timeline.
fn run<P: SimPlane>(sc: &Scenario, h: &mut Harness<P>, api_names: &[String]) -> ScenarioOutcome {
    if let Some(slo) = sc.slo {
        h.set_slo_config(slo);
    }
    h.run_for_secs(sc.duration_secs);
    let mut out = outcome(sc, None, h.result(), h.journal(), api_names);
    let engine = h.engine.engine();
    out.crash_events = engine.crash_events;
    out.resilience = engine.resilience_totals();
    out
}

/// Summarize a finished run's timeline. A simulation takes steady state
/// over `[measure_from_secs, duration_secs]` of virtual time. A live run
/// of `live_secs` wall-clock seconds replayed the schedule compressed by
/// `live_secs / duration_secs`, so its window opens where the
/// simulator's would, compressed by the same factor, and stays open.
pub(crate) fn outcome(
    sc: &Scenario,
    live_secs: Option<u64>,
    r: &cluster::RunResult,
    journal: &obs::Journal,
    api_names: &[String],
) -> ScenarioOutcome {
    let measure_from = sc.report.measure_from_secs as f64;
    let (duration_secs, from, to) = match live_secs {
        None => (sc.duration_secs, measure_from, sc.duration_secs as f64),
        Some(secs) => {
            let scale = secs as f64 / sc.duration_secs as f64;
            (secs, measure_from * scale, f64::INFINITY)
        }
    };
    let per_api = |mean: &dyn Fn(usize) -> f64| -> Vec<(String, f64)> {
        let named = api_names.iter().enumerate();
        named.map(|(i, n)| (n.clone(), mean(i))).collect()
    };
    ScenarioOutcome {
        name: sc.name.clone(),
        duration_secs,
        live: live_secs.is_some(),
        steady_from_secs: from,
        total_goodput: r.mean_total_goodput(from, to),
        goodput_per_api: per_api(&|i| r.mean_goodput_api(ApiId(i as u32), from, to)),
        offered_per_api: per_api(&|i| r.mean_over(from, f64::INFINITY, |s| s.offered[i])),
        crash_events: 0,
        resilience: ResilienceStats::default(),
        timeline: r.total_goodput_series(),
        goodput_timeline_per_api: (api_names.iter().enumerate())
            .map(|(i, n)| (n.clone(), r.goodput_series(ApiId(i as u32))))
            .collect(),
        p99_timeline: r.series(|s| s.p99.iter().copied().fold(0.0, f64::max)),
        journal: journal.snapshot(),
        shard_plane: None,
        shard_guards: None,
        live_rejects: None,
        traces: Vec::new(),
    }
}

/// Run the same scenario under a roster of controllers and under its
/// own (the `document` row), and tabulate.
pub fn compare(sc: &Scenario) -> Result<String, String> {
    use crate::schema::ControllerSpec;
    use std::fmt::Write;
    let rosters: Vec<(&str, ControllerSpec)> = vec![
        ("none", ControllerSpec::None),
        ("dagor", ControllerSpec::Dagor { alpha: 0.05 }),
        ("breakwater", ControllerSpec::Breakwater),
        ("wisp", ControllerSpec::Wisp),
        ("topfull-mimd", ControllerSpec::topfull("mimd")),
        ("document", sc.controller.clone()),
    ];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "scenario: {} — comparing controllers ({}s each)",
        sc.name, sc.duration_secs
    );
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>14}",
        "controller", "goodput", "pod crashes"
    );
    // Controller variants are independent runs of the same scenario:
    // fan them out over the experiment worker pool, consuming outcomes
    // in roster order so the table is identical at any worker count.
    let mut plan = cluster::runner::RunPlan::new();
    for (label, ctrl) in rosters {
        plan.submit(move || {
            let mut variant = sc.clone();
            variant.controller = ctrl;
            (label, crate::run_scenario(&variant))
        });
    }
    let mut rows: Vec<(String, f64)> = Vec::new();
    for (label, outcome) in plan.run() {
        let outcome = outcome?;
        let _ = writeln!(
            out,
            "{:<14} {:>12.1} {:>14}",
            label, outcome.total_goodput, outcome.crash_events
        );
        rows.push((label.to_string(), outcome.total_goodput));
    }
    if let Some((best, top)) = rows
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
    {
        let _ = writeln!(
            out,
            "
best: {best} at {top:.1} rps"
        );
    }
    Ok(out)
}

/// Render a human-readable report.
pub fn render_report(sc: &Scenario, out: &ScenarioOutcome) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let clock = if out.live { "live" } else { "simulated" };
    let _ = writeln!(s, "scenario: {} ({}s {clock})", out.name, out.duration_secs);
    let from = (out.steady_from_secs * 100.0).round() / 100.0;
    let _ = writeln!(s, "steady state from t={from}s:");
    let _ = writeln!(s, "{:<24} {:>12} {:>12}", "api", "offered", "goodput");
    for ((name, good), (_, offered)) in out.goodput_per_api.iter().zip(&out.offered_per_api) {
        if *offered < 0.01 && *good < 0.01 {
            continue; // idle APIs of builtin topologies
        }
        let _ = writeln!(s, "{name:<24} {offered:>12.1} {good:>12.1}");
    }
    let _ = writeln!(s, "{:<24} {:>12} {:>12.1}", "total", "", out.total_goodput);
    if out.crash_events > 0 {
        let _ = writeln!(s, "pod crash-loop events: {}", out.crash_events);
    }
    if out.resilience.any() {
        let r = &out.resilience;
        let _ = writeln!(
            s,
            "resilience: doomed-cancelled={} deadline-rejected={} client-cancelled={}",
            r.doomed_cancelled, r.deadline_rejected, r.client_cancelled
        );
        let _ = writeln!(
            s,
            "            retries issued={} suppressed={} breaker rejected={} transitions={}",
            r.retries_issued, r.retries_suppressed, r.breaker_rejected, r.breaker_transitions
        );
    }
    if let Some(p) = &out.shard_plane {
        let _ = writeln!(
            s,
            "shard plane: merges={} strike-outs={} re-entries={} redistributions={}",
            p.merges, p.strike_outs, p.reentries, p.redistributions
        );
    }
    if let Some((limit, shed)) = out.live_rejects {
        if limit > 0 || shed > 0 {
            let _ = writeln!(s, "live rejects: entry-limit={limit} priority-shed={shed}");
        }
    }
    if let Some(g) = &out.shard_guards {
        if g.held_ticks > 0 || g.fallback_ticks > 0 {
            let _ = writeln!(
                s,
                "shard guards: held-ticks={} fallback-ticks={} resyncs={}",
                g.held_ticks, g.fallback_ticks, g.resyncs
            );
        }
    }
    if sc.report.timeline {
        let _ = writeln!(s, "\ntimeline (total goodput, rps):");
        let stride = (out.timeline.len() / 24).max(1);
        for (t, v) in out.timeline.iter().step_by(stride) {
            let bar_len = (v / 25.0).min(100.0) as usize;
            let _ = writeln!(s, "{t:>5.0}s {v:>8.0} {}", "#".repeat(bar_len));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Scenario;

    #[test]
    fn example_runs_and_reports() {
        let sc = Scenario::example();
        let out = crate::run_scenario(&sc).expect("runs");
        assert_eq!(out.name, "two-tier-overload");
        // The backend caps at ~100 rps; the MIMD controller holds
        // goodput near it in steady state.
        assert!(
            out.total_goodput > 50.0,
            "controlled goodput too low: {}",
            out.total_goodput
        );
        let text = render_report(&sc, &out);
        assert!(text.contains("scenario: two-tier-overload"));
        assert!(text.contains("timeline"), "example asks for a timeline");
    }

    #[test]
    fn a_compressed_live_run_reports_its_own_clock_and_window() {
        let mut sc = Scenario::example();
        sc.duration_secs = 20;
        sc.report.measure_from_secs = 10;
        let (result, journal) = (cluster::RunResult::default(), obs::Journal::new());
        let live = outcome(&sc, Some(2), &result, &journal, &[]);
        let text = render_report(&sc, &live);
        assert!(text.contains("(2s live)"), "{text}");
        assert!(text.contains("steady state from t=1s:"), "{text}");
        let sim = outcome(&sc, None, &result, &journal, &[]);
        let text = render_report(&sc, &sim);
        assert!(text.contains("(20s simulated)"), "{text}");
        assert!(text.contains("steady state from t=10s:"), "{text}");
    }

    #[test]
    fn compare_tabulates_all_controllers() {
        let mut sc = Scenario::example();
        sc.duration_secs = 20; // keep the test quick
        sc.report.measure_from_secs = 10;
        let table = compare(&sc).expect("compare runs");
        for label in ["none", "dagor", "breakwater", "wisp", "topfull-mimd"] {
            assert!(table.contains(label), "missing {label} in:\n{table}");
        }
        assert!(table.contains("best:"));
    }

    #[test]
    fn outcome_serializes_to_json() {
        let sc = Scenario::example();
        let out = crate::run_scenario(&sc).expect("runs");
        let json = serde_json::to_string(&out).expect("json");
        assert!(json.contains("total_goodput"));
    }
}
