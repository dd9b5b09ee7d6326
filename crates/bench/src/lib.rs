//! # topfull-bench — what the paper reports that is not a run
//!
//! The paper's figures are scenario documents under `scenarios/paper/`,
//! run and asserted by `cargo test --release --test paper --
//! --nocapture`; this crate keeps the rest:
//!
//! * [`models`] — the Sim2Real training pipeline producing the base
//!   (graph-simulator) policy and the Transfer-TT / Transfer-OB
//!   specialized policies, cached as JSON under `artifacts/models/`.
//! * [`experiments`] — Table 1, the §2 / §6.4 trace analyses and the
//!   training cost, each returning its `Report`; the `figures` binary
//!   dispatches to them (`figures -- table1`, `-- trace-analysis`,
//!   `-- training-cost`, `-- all`) and finishes it.
//! * [`report`] — uniform "paper vs measured" rows and JSON dumps under
//!   `artifacts/results/`.
//! * [`scenarios`] — the engines `benchmark/` and the tick-allocation
//!   test drive.

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
