//! `topfull-sim` — run overload-control scenarios from JSON files.
//!
//! ```text
//! topfull-sim run scenario.json [--json]   # execute a scenario
//! topfull-sim run scenario.json --check    # validate only, don't run
//! topfull-sim compare scenario.json        # same scenario, every controller
//! topfull-sim example                      # print a documented example
//! topfull-sim check scenario.json          # validate without running
//! ```
//!
//! `check` (and `run --check`) speaks for the simulator: it applies the
//! cross-spec composition rules (admission × sharding × controller ×
//! hardened — the same `preflight` that `topfull live` runs first) and
//! performs the full scenario → engine build, so a scenario that checks
//! clean cannot fail at `topfull-sim run`'s startup. `topfull live`
//! additionally refuses what has no live equivalent (a per-service
//! controller, the `retry_storm` workload, the `dropout` shard fault).

use topfull_cli::{parse_scenario, render_report, run_scenario, validate_scenario, Scenario};

fn usage() -> ! {
    eprintln!("usage:");
    eprintln!("  topfull-sim run <scenario.json> [--json] [--check]");
    eprintln!("  topfull-sim compare <scenario.json>");
    eprintln!("  topfull-sim check <scenario.json>");
    eprintln!("  topfull-sim example");
    std::process::exit(2)
}

fn check(path: &str, sc: &Scenario) -> ! {
    match validate_scenario(sc) {
        Ok(sum) => {
            println!(
                "ok: {} ({path}) — {} services, {} APIs, {}s",
                sc.name, sum.services, sum.apis, sc.duration_secs
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("invalid: {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn load(path: &str) -> Scenario {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    parse_scenario(&text).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("example") => {
            let sc = Scenario::example();
            println!(
                "{}",
                serde_json::to_string_pretty(&sc).expect("serializable")
            );
        }
        Some("check") => {
            let path = args.get(1).unwrap_or_else(|| usage());
            let sc = load(path);
            check(path, &sc);
        }
        Some("compare") => {
            let path = args.get(1).unwrap_or_else(|| usage());
            let sc = load(path);
            match topfull_cli::report::compare(&sc) {
                Ok(table) => print!("{table}"),
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
        }
        Some("run") => {
            let path = args.get(1).unwrap_or_else(|| usage());
            let as_json = args.iter().any(|a| a == "--json");
            let sc = load(path);
            if args.iter().any(|a| a == "--check") {
                check(path, &sc);
            }
            match run_scenario(&sc) {
                Ok(out) => {
                    if as_json {
                        println!(
                            "{}",
                            serde_json::to_string_pretty(&out).expect("serializable")
                        );
                    } else {
                        print!("{}", render_report(&sc, &out));
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
        }
        _ => usage(),
    }
}
