//! The `topfull` binary's argument handling: usage errors (an unknown
//! subcommand or flag, a malformed value) exit 2, a document that does
//! not check exits 1 with its hint, and `example` prints a scenario that
//! checks clean.

use std::process::{Command, Output};

const SUBCOMMANDS: [&str; 10] = [
    "run", "check", "compare", "example", "live", "explain", "trace", "workflow", "matrix", "fuzz",
];

fn topfull(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_topfull"))
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("the topfull binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_bare_or_unknown_subcommand_prints_usage_naming_every_subcommand() {
    for args in [
        &[][..],
        &["frobnicate"],
        &["frobnicate", "scenarios/live_smoke.json"],
    ] {
        let out = topfull(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let usage = stderr(&out);
        for cmd in SUBCOMMANDS {
            let line = format!("\n  topfull {cmd}");
            assert!(usage.contains(&line), "{args:?}: no '{cmd}' in\n{usage}");
        }
    }
}

#[test]
fn malformed_live_shard_flags_are_usage_errors() {
    for flags in [["--shards", "0"], ["--kill-shard", "1"]] {
        let mut args = vec!["live", "scenarios/live_smoke.json", "--duration", "1"];
        args.extend(flags);
        let out = topfull(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).starts_with("usage:"), "{args:?}");
    }
}

#[test]
fn an_argument_the_subcommand_does_not_name_is_a_usage_error() {
    for args in [
        &["explain", "run.json", "--fingerprnt"][..],
        &["check", "scenarios/read_flash_crowd.json", "--jsn"],
        &[
            "run",
            "scenarios/boutique_surge_topfull.json",
            "--duration",
            "0",
        ],
    ] {
        let out = topfull(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).starts_with("usage:"), "{args:?}");
    }
}

#[test]
fn a_misspelt_key_fails_check_with_a_hint() {
    let out = topfull(&["check", "scenarios/invalid/controller_typo.json"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("did you mean"), "{err}");
}

#[test]
fn the_example_scenario_checks_clean() {
    let out = topfull(&["example"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let sc =
        topfull_cli::parse_scenario(&String::from_utf8_lossy(&out.stdout)).expect("example parses");
    topfull_cli::validate_scenario(&sc).expect("example validates");
}
