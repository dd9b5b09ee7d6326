//! The unified telemetry plane shared by the simulated engine and the
//! live serving plane.
//!
//! TopFull's premise is that overload control is driven by *observed*
//! signals (execution paths from traces, goodput/latency state, §4.1 and
//! §4.3) — so the control system itself must be observable. This crate
//! provides the two halves of that:
//!
//! * [`registry`] — a metrics registry of typed instrument handles
//!   ([`Counter`], [`Gauge`], [`Histogram`]). Handles are plain
//!   `Arc`-backed cells: incrementing is one relaxed atomic op, with no
//!   allocation and no registry lock on the hot path. The registry
//!   renders the whole instrument set in Prometheus text exposition
//!   format 0.0.4 for the live gateway's `GET /metrics`.
//! * [`journal`] — the controller decision journal: a bounded,
//!   append-only log of detector verdicts, re-clustering events,
//!   per-API rate actions (with state inputs and a human-readable
//!   reason), fallback strikes, watchdog transitions and plane-veto
//!   window aggregates. Entries serialize to deterministic JSONL and are
//!   embedded in run artifacts so runs can be *explained*, not just
//!   scored.
//!
//! Naming scheme (see DESIGN.md §13): every family is prefixed
//! `topfull_`, counters end in `_total`, base units are spelled out
//! (`_seconds`, `_nanoseconds`), and per-API/per-service instruments
//! carry `api="…"` / `service="…"` labels.

pub mod decimal;
pub mod journal;
pub mod registry;
pub mod slo;
pub mod trace;

pub use decimal::fmt_u64;
pub use journal::{journal_fingerprint, to_jsonl, Journal, JournalEntry, RateDecision};
pub use registry::{Counter, Gauge, Histogram, Registry};
pub use slo::{ApiSloSample, SloBurnSignal, SloConfig, SloMonitor, SloSeverity, SloTick};
pub use trace::{render_waterfall, TraceEvent, TraceLog};
