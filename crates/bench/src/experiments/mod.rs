//! One module per result that is not a run. Each exposes `run()`, which
//! returns the finished [`crate::report::Report`]; the `figures` binary
//! prints and persists it ([`crate::report::Report::finish`]).

pub mod overhead;
pub mod table1;
pub mod trace_analysis;
pub mod training_cost;
