//! Experiment runner: what the paper reports that is not a run — Table 1,
//! the trace analyses and the training cost — and the model training.
//! The paper's figures are scenario documents under `scenarios/paper/`,
//! run and asserted by `tests/paper.rs`.
//!
//! ```text
//! cargo run --release -p topfull-bench --bin figures -- <experiment>…
//! cargo run --release -p topfull-bench --bin figures -- all
//! cargo run --release -p topfull-bench --bin figures -- train
//! ```

use topfull_bench::experiments as ex;
use topfull_bench::models;
use topfull_bench::report::Report;

/// An experiment, run to completion.
type Run = fn() -> Report;

/// Each experiment by name.
const EXPERIMENTS: &[(&str, Run)] = &[
    ("table1", ex::table1::run),
    ("trace-analysis", ex::trace_analysis::run),
    ("training-cost", ex::training_cost::run),
];

fn usage() -> ! {
    eprintln!("usage: figures <experiment>… | all | train");
    eprintln!("experiments:");
    for (name, _) in EXPERIMENTS {
        eprintln!("  {name}");
    }
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    for arg in &args {
        match arg.as_str() {
            "all" => {
                for (name, report) in EXPERIMENTS {
                    eprintln!("\n>>> running {name}");
                    report().finish();
                }
            }
            "train" => {
                // Force the full Sim2Real pipeline (cached afterwards).
                let _ = models::base_model();
                let _ = models::transfer_tt();
                let _ = models::transfer_ob();
                eprintln!("models trained and cached under artifacts/models/");
            }
            name => match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
                Some((_, report)) => report().finish(),
                None => usage(),
            },
        }
    }
}
