//! One module per paper table/figure. Each exposes `run()`, which
//! returns the finished [`crate::report::Report`]; the `figures` binary
//! prints and persists it ([`crate::report::Report::finish`]).

pub mod fig11;
pub mod fig12;
pub mod fig16;
pub mod fig18;
pub mod refinements;
pub mod table1;
pub mod trace_analysis;
pub mod training_cost;
