//! The gated benchmark of this repository (see README.md beside this
//! package, and `/BENCHMARK.json` for the contract the driver checks).
//!
//! ```text
//! topfull-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! topfull-benchmark [--quick] [--seed <n>] [--seconds <s>]   # all four workloads
//! topfull-benchmark aa [--runs <n>] [--seconds <s>] [--workload <name>]
//! topfull-benchmark golden                                   # regenerate golden.json
//! ```
//!
//! One process per (workload, run): the multi-workload forms re-execute
//! this binary per run, so no run inherits another's heap, page cache
//! warmth inside the process, or peak RSS.

mod aa;
mod control;
mod harness;
mod layers;
mod live;
mod sim;
mod spans;

use harness::{context_line, result_line, Host, Outcome, Pinned, RunSpec};
use live::LiveKind;
use std::time::Duration;

pub const WORKLOADS: [&str; 4] = [
    "live.shed",
    "live.cached",
    "sim.boutique",
    "control.alibaba",
];
/// `run_seconds` of `/BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// The seed the issue's probe numbers were taken at.
pub const DEFAULT_SEED: u64 = 5;
/// How long a traced run probes the planes it was not asked about.
const SIDE_PROBE: Duration = Duration::from_secs(2);

/// Seeds `golden.json` records a simulator prefix for.
const GOLDEN_SEEDS: std::ops::RangeInclusive<u64> = 0..=31;

/// `(events, goodput fnv)` recorded for `seed`, if any.
fn golden_for(seed: u64) -> Option<(u64, u64)> {
    let table: serde_json::JsonValue =
        serde_json::from_str(include_str!("../golden.json")).expect("golden.json parses");
    let as_u64 = |v: &serde_json::JsonValue| match v {
        serde_json::JsonValue::Int(i) => u64::try_from(*i).ok(),
        _ => None,
    };
    if as_u64(table.get("golden_secs")?)? != sim::GOLDEN_SECS {
        return None;
    }
    match table.get("seeds")?.get(&seed.to_string())? {
        serde_json::JsonValue::Array(pair) if pair.len() == 2 => {
            Some((as_u64(&pair[0])?, as_u64(&pair[1])?))
        }
        _ => None,
    }
}

fn print_golden() {
    println!(
        "{{\n  \"golden_secs\": {},\n  \"seeds\": {{",
        sim::GOLDEN_SECS
    );
    let last = *GOLDEN_SEEDS.end();
    for seed in GOLDEN_SEEDS {
        let (events, fnv) = sim::golden_prefix(seed);
        let comma = if seed == last { "" } else { "," };
        println!("    \"{seed}\": [{events}, {fnv}]{comma}");
    }
    println!("  }}\n}}");
}

/// Run one workload in this process. A traced run measures the named
/// workload for the full time and probes the other planes briefly, so
/// that it can report every per-layer metric of `/BENCHMARK.json`.
fn run_one(spec: &RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let is = |w: &str| spec.workload == w;
    let time_for = |on: bool| if on { spec.measure } else { SIDE_PROBE };
    if !spec.trace {
        // Gated runs are pinned to one CPU (threads started from here
        // inherit the mask; the guard restores it). Traced runs are not:
        // the event loop's stage timers read the wall clock and must not
        // be charged the generator's time slices, and the 2-loop probe
        // needs its second CPU.
        let pin = Pinned::to_first_cpu();
        out.notes
            .insert("pinned".into(), f64::from(u8::from(pin.is_some())));
        match spec.workload.as_str() {
            "live.shed" => live::run(LiveKind::Shed, spec, spec.measure, &mut out),
            "live.cached" => live::run(LiveKind::Cached, spec, spec.measure, &mut out),
            "sim.boutique" => sim::run(spec, spec.measure, golden_for(spec.seed), &mut out),
            "control.alibaba" => control::run(spec, spec.measure, &mut out),
            other => unreachable!("workload {other} was validated at parse time"),
        }
        return out;
    }
    let kind = if is("live.cached") {
        LiveKind::Cached
    } else {
        LiveKind::Shed
    };
    let live_time = time_for(is("live.shed") || is("live.cached"));
    live::run(kind, spec, live_time, &mut out);
    let sim_time = time_for(is("sim.boutique"));
    sim::run(spec, sim_time, golden_for(spec.seed), &mut out);
    control::run(spec, time_for(is("control.alibaba")), &mut out);
    layers::run(spec.seed, &mut out);
    let scale = if spec.quick { 10 } else { 1 };
    live::served_diagnostic(spec.seed, Duration::from_secs(5) / scale, &mut out);
    live::loops2_shed_ratio(spec.seed, Duration::from_secs(3) / scale, &mut out);
    out
}

struct Cli {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: usize,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        runs: 5,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
                }
                cli.workload = Some(w);
            }
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--runs" => {
                cli.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if cli.runs < 2 {
                    return Err("--runs must be at least 2".into());
                }
            }
            "--quick" => cli.quick = true,
            "aa" | "golden" if cli.command.is_none() => cli.command = Some(arg),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn main() -> std::process::ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return std::process::ExitCode::from(64);
        }
    };
    let seconds = cli
        .seconds
        .unwrap_or(if cli.quick { 1.0 } else { DEFAULT_SECONDS });
    match cli.command.as_deref() {
        Some("golden") => {
            print_golden();
            return std::process::ExitCode::SUCCESS;
        }
        Some("aa") => return aa::run(cli.workload.as_deref(), cli.runs, seconds, cli.seed),
        _ => {}
    }
    let Some(workload) = cli.workload else {
        return aa::run_all(cli.seed, seconds, cli.trace, cli.quick);
    };
    let host = Host::probe();
    let spec = RunSpec {
        workload,
        seed: cli.seed,
        measure: Duration::from_secs_f64(seconds),
        trace: cli.trace,
        quick: cli.quick,
    };
    let out = run_one(&spec);
    println!("{}", context_line(&spec, &host, &out));
    println!("{}", result_line(&out));
    if out.failed == 0 && out.gate_failures.is_empty() {
        std::process::ExitCode::SUCCESS
    } else {
        for g in &out.gate_failures {
            eprintln!("gate failed: {g}");
        }
        std::process::ExitCode::from(2)
    }
}
