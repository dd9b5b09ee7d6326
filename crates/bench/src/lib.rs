//! # topfull-bench — experiment harness
//!
//! Regenerates the tables and figures of the paper's evaluation (§6)
//! that are not yet scenario documents.
//! Shared infrastructure lives here:
//!
//! * [`models`] — the Sim2Real training pipeline producing the base
//!   (graph-simulator) policy and the Transfer-TT / Transfer-OB
//!   specialized policies, cached as JSON under `artifacts/models/`.
//! * [`scenarios`] — the only place an experiment engine or a controller
//!   arm is built: a `Recipe` (an application under a load, plus the
//!   modifiers the figures share) and the `Roster` (TopFull, its
//!   ablations and explicit configs, DAGOR, Breakwater, none).
//! * [`report`] — uniform "paper vs measured" result rows and JSON dumps
//!   under `artifacts/results/`.
//! * [`exec`] — what each experiment uses to run: arms of `(label,
//!   roster, recipe)` go in, `ArmOutcome`s come out, always through
//!   `cluster::runner`'s worker pool (`TOPFULL_WORKERS` overrides the
//!   size, `=1` forces serial) with byte-identical artifacts at any
//!   worker count; `Figure` is the table/timelines body the remaining
//!   figures share.
//! * [`experiments`] — one module per figure/table, each returning its
//!   `Report`; the `figures` binary dispatches to them and finishes it.
//!
//! Run everything with `cargo run --release -p topfull-bench --bin
//! figures -- all`, or a single experiment with e.g. `-- fig12`. Figs. 4,
//! 8, 9, 10, 13, 14, 15, 17 and 19 and Table 2 are not `figures`: they are
//! documents under `scenarios/paper/` and their variants, run and asserted
//! by `cargo test --release --test paper -- --nocapture`.

pub mod exec;
pub mod experiments;
pub mod models;
pub mod report;
pub mod scenarios;

/// Repository-relative artifacts directory (models, results).
pub fn artifacts_dir() -> std::path::PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; artifacts live at the repo root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../artifacts")
        .components()
        .collect()
}
