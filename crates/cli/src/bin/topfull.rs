//! `topfull` — run overload-control scenarios on the simulator or the
//! live plane, and drive matrices and the fuzzer.
//!
//! ```text
//! topfull run <scenario.json> [--json]       # execute a scenario
//! topfull check <scenario.json>              # validate without running
//! topfull compare <scenario.json>            # same scenario, a fixed roster + its own
//! topfull example                            # print a documented example
//! topfull live <scenario.json> --duration <secs> [--json]
//! topfull explain <run.json|journal.jsonl>
//! topfull trace <run.json|traces.jsonl|http://host:port> [--id <trace>]
//! topfull matrix <matrix.json> [--json | --check] [--workers <n>]
//! topfull fuzz [--seed <n>] [--iters <k>] [--base <scenario.json>]
//!              [--out <dir>] [--json]
//! ```
//!
//! `check` speaks for the simulator: it applies the cross-spec
//! composition rules (admission × sharding × controller × hardened — the
//! same `preflight` that `live` runs first) and performs the full
//! scenario → engine build, so a scenario that checks clean cannot fail
//! at `run`'s startup. `live` additionally refuses what has no live
//! equivalent (a per-service controller, the `retry_storm` workload, the
//! `faults`, `autoscaler` and `resilience` blocks, `sharding.weights`,
//! the `dropout` shard fault).
//!
//! `live` serves the scenario's topology as a real multi-threaded TCP
//! gateway plus CPU-burning worker pool on 127.0.0.1 and drives the
//! same TopFull controller the simulator uses on a real timer tick.
//! `matrix` expands a base scenario × workloads × fault plans ×
//! controller arms and runs every cell through the experiment worker
//! pool; `fuzz` mutates a `phases` scenario against SLO-violation
//! objectives and shrinks findings to minimal reproducers.

use std::path::PathBuf;
use topfull_cli::{explain, fuzz, matrix, render_report, Scenario};

fn usage() -> ! {
    eprint!(
        "usage:
  topfull run <scenario.json> [--json]
  topfull check <scenario.json>
  topfull compare <scenario.json>
  topfull example
  topfull live <scenario.json> --duration <secs> [--json]
  topfull explain <run.json|journal.jsonl> [--fingerprint]
  topfull trace <run.json|traces.jsonl|http://host:port> [--id <trace>]
  topfull matrix <matrix.json> [--json | --check] [--workers <n>]
  topfull fuzz [--seed <n>] [--iters <k>] [--base <scenario.json>] [--out <dir>] [--json]

  --fingerprint       print the journal's order-sensitive fingerprint
  --id t              render only trace id t's waterfall
  --check             validate without running
  --workers n         worker pool size (default: TOPFULL_WORKERS or cores)
  --seed n            fuzz mutation seed (default 1)
  --iters k           genomes to evaluate (default 40)
  --out dir           where shrunk reproducers land (default scenarios/found)
"
    );
    std::process::exit(2)
}

fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("{e}");
    std::process::exit(1)
}

/// A document at `path` that does not parse, compile or validate.
fn invalid(path: &str, e: String) -> ! {
    fail(format!("invalid: {path}: {e}"))
}

fn read_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")))
}

fn load(path: &str) -> Scenario {
    topfull_cli::parse_scenario(&read_file(path)).unwrap_or_else(|e| fail(e))
}

/// The flags each subcommand names, as `(switches, flags that take a
/// value)`; `None` for an unknown subcommand.
fn flags(cmd: &str) -> Option<(&[&str], &[&str])> {
    Some(match cmd {
        "run" => (&["--json"], &[]),
        "check" | "compare" | "example" => (&[], &[]),
        "live" => (&["--json"], &["--duration"]),
        "explain" => (&["--fingerprint"], &[]),
        "trace" => (&[], &["--id"]),
        "matrix" => (&["--json", "--check"], &["--workers"]),
        "fuzz" => (&["--json"], &["--seed", "--iters", "--base", "--out"]),
        _ => return None,
    })
}

/// A usage error unless every argument in `rest` is a flag `cmd` names.
/// A value flag consumes the argument after it; a trailing one is left
/// to the subcommand (`flag_value` rejects it, `fuzz --out` defaults).
fn check_flags(cmd: &str, rest: &[String]) {
    let (switches, values) = flags(cmd).unwrap_or_else(|| usage());
    let mut rest = rest.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        if values.contains(&arg) {
            rest.next();
        } else if !switches.contains(&arg) {
            usage();
        }
    }
}

fn has(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// `--flag <value>` lookup with parse; a missing or unparsable value is
/// a usage error.
fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    let value = args.get(i + 1).and_then(|v| v.parse().ok());
    Some(value.unwrap_or_else(|| usage()))
}

fn pretty(value: &impl serde::Serialize) -> String {
    serde_json::to_string_pretty(value).expect("serializable")
}

/// Print `value` as JSON under `--json`, else as `render` draws it.
fn emit<T: serde::Serialize>(args: &[String], value: &T, render: impl FnOnce(&T) -> String) {
    if has(args, "--json") {
        println!("{}", pretty(value));
    } else {
        print!("{}", render(value));
    }
}

fn cmd_matrix(args: &[String], path: &str) {
    let spec = matrix::parse_matrix(&read_file(path)).unwrap_or_else(|e| invalid(path, e));
    if has(args, "--check") {
        let cells = spec.check().unwrap_or_else(|e| invalid(path, e));
        return println!("ok: {} ({path}) — {cells} cells validate", spec.base.name);
    }
    let workers = flag_value(args, "--workers");
    let report = matrix::run_matrix(&spec, workers).unwrap_or_else(|e| fail(e));
    emit(args, &report, matrix::render_matrix);
}

fn cmd_fuzz(args: &[String]) {
    let defaults = fuzz::FuzzConfig::default();
    let cfg = fuzz::FuzzConfig {
        seed: flag_value(args, "--seed").unwrap_or(defaults.seed),
        iters: flag_value(args, "--iters").unwrap_or(defaults.iters),
        // Not `flag_value`: a trailing `--out` with no directory has
        // always meant the default one, not a usage error.
        out_dir: Some(
            args.iter()
                .position(|a| a == "--out")
                .and_then(|i| args.get(i + 1))
                .map_or_else(|| PathBuf::from("scenarios/found"), PathBuf::from),
        ),
        base: flag_value::<String>(args, "--base").map(|path| load(&path)),
    };
    let report = fuzz::run_fuzz(&cfg).unwrap_or_else(|e| fail(e));
    emit(args, &report, fuzz::render_fuzz);
    if !report.findings.is_empty() {
        std::process::exit(3); // findings are a distinct exit code
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map_or("", String::as_str);
    // Every subcommand but these two takes a document (or a URL) first.
    let takes_document = !matches!(cmd, "example" | "fuzz");
    let rest = args.get(1 + usize::from(takes_document)..);
    check_flags(cmd, rest.unwrap_or_else(|| usage()));
    match cmd {
        "example" => return println!("{}", pretty(&Scenario::example())),
        "fuzz" => return cmd_fuzz(&args),
        _ => {}
    }
    let path = args[1].as_str();
    match cmd {
        "run" => {
            let sc = load(path);
            let out = topfull_cli::run_scenario(&sc).unwrap_or_else(|e| fail(e));
            emit(&args, &out, |out| render_report(&sc, out));
        }
        "check" => {
            let sc = load(path);
            let sum = topfull_cli::validate_scenario(&sc).unwrap_or_else(|e| invalid(path, e));
            println!(
                "ok: {} ({path}) — {} services, {} APIs, {}s",
                sc.name, sum.services, sum.apis, sc.duration_secs
            );
        }
        "compare" => {
            let table = topfull_cli::report::compare(&load(path)).unwrap_or_else(|e| fail(e));
            print!("{table}");
        }
        "live" => {
            let duration = flag_value(&args, "--duration").unwrap_or_else(|| usage());
            let sc = load(path);
            let out = topfull_cli::run_live(&sc, duration).unwrap_or_else(|e| fail(e));
            emit(&args, &out, |out| render_report(&sc, out));
        }
        "explain" => {
            let text = if has(&args, "--fingerprint") {
                explain::fingerprint_file(path).map(|fp| format!("{fp}\n"))
            } else {
                explain::explain_file(path)
            };
            print!("{}", text.unwrap_or_else(|e| fail(e)));
        }
        "trace" => {
            let text = topfull_cli::trace_source(path, flag_value(&args, "--id"));
            print!("{}", text.unwrap_or_else(|e| fail(e)));
        }
        "matrix" => cmd_matrix(&args, path),
        _ => usage(),
    }
}
