//! The multi-run forms: every workload once (`run_all`), and the A/A
//! comparison that sizes the bounds in `/BENCHMARK.json` (`run`).
//!
//! Each run is a child process of this same binary, so a run's peak RSS
//! and allocator state are its own.

use crate::harness::median;
use crate::WORKLOADS;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// One child run's parsed result line.
struct Child {
    ok: bool,
    attempted: u64,
    failed: u64,
    /// name -> (value, unit)
    metrics: BTreeMap<String, (f64, String)>,
}

fn spawn(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let Some(last) = stdout.lines().last() else {
        return Err(format!(
            "{workload} printed no result (exit {:?}): {}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        ));
    };
    let v: serde_json::JsonValue =
        serde_json::from_str(last).map_err(|e| format!("{workload} result line: {e}"))?;
    let int = |k: &str| match v.get(k) {
        Some(serde_json::JsonValue::Int(i)) => *i as u64,
        _ => 0,
    };
    let mut metrics = BTreeMap::new();
    if let Some(serde_json::JsonValue::Object(fields)) = v.get("metrics") {
        for (name, m) in fields {
            let value = match m.get("value") {
                Some(serde_json::JsonValue::Float(f)) => *f,
                Some(serde_json::JsonValue::Int(i)) => *i as f64,
                _ => continue,
            };
            let unit = match m.get("unit") {
                Some(serde_json::JsonValue::Str(s)) => s.clone(),
                _ => String::new(),
            };
            metrics.insert(name.clone(), (value, unit));
        }
    }
    Ok(Child {
        ok: output.status.success()
            && matches!(v.get("correct"), Some(serde_json::JsonValue::Bool(true))),
        attempted: int("attempted"),
        failed: int("failed"),
        metrics,
    })
}

/// Every workload once: the one command that prints every end-to-end
/// metric (or, traced, every per-layer metric) by name with its unit.
pub fn run_all(seed: u64, seconds: f64, trace: bool, quick: bool) -> ExitCode {
    let mut all_ok = true;
    for w in WORKLOADS {
        match spawn(w, seed, seconds, trace, quick) {
            Ok(c) => {
                all_ok &= c.ok;
                println!(
                    "{w}: ops_attempted={} ops_failed={} {}",
                    c.attempted,
                    c.failed,
                    if c.ok { "correct" } else { "INCORRECT" }
                );
                for (name, (value, unit)) in &c.metrics {
                    println!("  {name:<44} {value:>16.4} {unit}");
                }
            }
            Err(e) => {
                all_ok = false;
                println!("{w}: FAILED: {e}");
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// `(q1, median, q3)` the way Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) computes them — the driver's own spread.
fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let at = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + frac * (s[j] - s[j - 1])
    };
    (at(1), median(&mut s.clone()), at(3))
}

/// Two interleaved sets of `runs` runs per workload on this checkout.
/// Prints, per (metric, workload): both medians, both inter-quartile
/// spreads as a share of the median, and the gap between the medians.
pub fn run(only: Option<&str>, runs: usize, seconds: f64, seed: u64) -> ExitCode {
    let mut all_ok = true;
    println!(
        "| workload | metric | unit | median A | median B | IQR/median A | IQR/median B | gap |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for w in WORKLOADS.iter().filter(|w| only.is_none_or(|o| o == **w)) {
        let mut sets: [BTreeMap<String, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        let mut units: BTreeMap<String, String> = BTreeMap::new();
        for i in 0..runs {
            // A, B, A, B, …: drift on the host lands on both sets. Each
            // run of a set takes another seed, as the driver's do.
            for (set, samples) in sets.iter_mut().enumerate() {
                match spawn(w, seed + i as u64, seconds, false, false) {
                    Ok(c) => {
                        all_ok &= c.ok;
                        for (name, (value, unit)) in c.metrics {
                            samples.entry(name.clone()).or_default().push(value);
                            units.insert(name, unit);
                        }
                    }
                    Err(e) => {
                        all_ok = false;
                        eprintln!("{w} set {set} run {i}: {e}");
                    }
                }
            }
        }
        for (name, a) in &sets[0] {
            let Some(b) = sets[1].get(name) else { continue };
            if a.len() < 2 || b.len() < 2 {
                continue;
            }
            let (a1, am, a3) = quartiles(a);
            let (b1, bm, b3) = quartiles(b);
            println!(
                "| {w} | {name} | {} | {am:.4} | {bm:.4} | {:.2}% | {:.2}% | {:.2}% |",
                units[name],
                100.0 * (a3 - a1) / am,
                100.0 * (b3 - b1) / bm,
                100.0 * (bm - am).abs() / am,
            );
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    }
}
