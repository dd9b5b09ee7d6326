//! The `topfull` binary's argument handling: usage errors (an unknown
//! subcommand or flag, a malformed value) exit 2, a document that does
//! not check exits 1 with its hint, and `example` prints a scenario that
//! checks clean.

use std::process::{Command, Output};

const SUBCOMMANDS: [&str; 9] = [
    "run", "check", "compare", "example", "live", "explain", "trace", "matrix", "fuzz",
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

/// Sharding is the document's `sharding` block alone: `live` knows no
/// `--shards` or `--kill-shard` flag, whatever its value.
#[test]
fn live_shard_flags_are_unknown_flags() {
    for flags in [
        ["--shards", "0"],
        ["--shards", "3"],
        ["--kill-shard", "1"],
        ["--kill-shard", "1@2"],
    ] {
        let mut args = vec!["live", "scenarios/live_smoke.json", "--duration", "1"];
        args.extend(flags);
        let out = topfull(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        let usage = stderr(&out);
        assert!(usage.starts_with("usage:"), "{args:?}");
        assert!(
            !usage.contains("shard"),
            "usage names a shard flag:\n{usage}"
        );
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

/// A builtin app's overrides name what they set: one naming a service
/// or an API the app lacks fails `check` by its key, and so does
/// `pod_startup_secs` left in the `autoscaler` block it moved out of.
#[test]
fn a_missing_override_name_or_a_misplaced_pod_startup_is_refused_by_key() {
    let dir = std::env::temp_dir().join(format!("topfull-cli-keys-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a temporary directory");
    let workload = r#""workload": {"type": "open_loop", "rates": []}"#;
    for (name, rest, refusal) in [
        (
            "service",
            r#""app": {"type": "builtin", "name": "train-ticket",
                "services": [{"name": "ts-nope", "replicas": 3}]}"#,
            "app.services[0].name: unknown service 'ts-nope'",
        ),
        (
            "api",
            r#""app": {"type": "builtin", "name": "online-boutique",
                "apis": [{"name": "nope", "business_priority": 1}]}"#,
            "app.apis[0].name: unknown API 'nope'",
        ),
        (
            "pod_startup_secs",
            r#""app": {"type": "builtin", "name": "online-boutique"},
                "autoscaler": {"pod_startup_secs": 30}"#,
            "autoscaler: unknown key 'pod_startup_secs'",
        ),
    ] {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, format!("{{{rest}, {workload}}}")).expect("a document");
        let out = topfull(&["check", path.to_str().expect("a UTF-8 path")]);
        assert_eq!(out.status.code(), Some(1), "{name}: {}", stderr(&out));
        assert!(stderr(&out).contains(refusal), "{name}: {}", stderr(&out));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_example_scenario_checks_clean() {
    let out = topfull(&["example"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let sc =
        topfull_cli::parse_scenario(&String::from_utf8_lossy(&out.stdout)).expect("example parses");
    topfull_cli::validate_scenario(&sc).expect("example validates");
}

/// `compare` runs the document's own controller beside its fixed roster:
/// Fig. 8's document (TopFull with the RL policy), cut to 30 s, has a
/// `document` row that is `run`'s total, and it is not the MIMD row.
#[test]
fn compare_tabulates_the_documents_own_controller() {
    let fig08 = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/paper/fig08.json"
    ))
    .expect("the committed document");
    let cut = fig08.replace("\"duration_secs\": 120", "\"duration_secs\": 30");
    assert_ne!(cut, fig08, "fig08.json no longer runs 120 s");
    let path = std::env::temp_dir().join(format!("topfull_compare_{}.json", std::process::id()));
    std::fs::write(&path, cut).expect("a temporary document");
    let doc = path.to_str().expect("a UTF-8 path");
    let (compare, run) = (topfull(&["compare", doc]), topfull(&["run", doc]));
    std::fs::remove_file(&path).ok();
    assert_eq!(compare.status.code(), Some(0), "{}", stderr(&compare));
    assert_eq!(run.status.code(), Some(0), "{}", stderr(&run));
    let goodput = |out: &Output, row: &str| -> String {
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text
            .lines()
            .find(|l| l.split_whitespace().next() == Some(row));
        let line = line.unwrap_or_else(|| panic!("no '{row}' row in\n{text}"));
        line.split_whitespace()
            .nth(1)
            .expect("a goodput")
            .to_string()
    };
    assert_eq!(goodput(&compare, "document"), goodput(&run, "total"));
    assert_ne!(
        goodput(&compare, "document"),
        goodput(&compare, "topfull-mimd")
    );
}
