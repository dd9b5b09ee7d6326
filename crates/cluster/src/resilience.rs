//! Request-plane resilience: deadline propagation, adaptive retry
//! budgets, and per-downstream-edge circuit breakers.
//!
//! TopFull's thesis is that overload control must stop *wasted work* —
//! partially-built responses a bottleneck will discard (§1, Figs. 1–4).
//! The engine's request plane earns that realism here:
//!
//! * **Deadlines** ([`DeadlineConfig`]) — every request carries an
//!   absolute deadline derived from the client timeout / SLO; services
//!   check it before starting work and before dispatching sub-calls, and
//!   the engine tears down the in-flight subtree when the root's client
//!   timeout fires instead of silently finishing doomed work.
//! * **Retry budgets** ([`RetryBudget`]) — gRPC/Finagle-style token
//!   buckets: a retry withdraws a token, only successes deposit, so a
//!   retry storm drains the bucket and self-extinguishes instead of
//!   multiplying shed load (DAGOR §1's metastable feedback loop).
//! * **Circuit breakers** ([`EdgeBreakers`]) — per (caller service →
//!   callee service) edge, closed → open → half-open with probe
//!   admission, consulted at call dispatch alongside admission control.
//!
//! Everything is observable: [`ResilienceStats`] counts doomed work
//! cancelled, deadline-expired rejects, retries suppressed by budget and
//! breaker activity, so experiments can quantify the waste avoided.

use crate::types::ServiceId;
use serde::{Deserialize, Serialize};
use simnet::{SimDuration, SimTime};
use std::collections::HashMap;

// ---------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------

/// Deadline propagation policy.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DeadlineConfig {
    /// Per-request deadline budget from arrival. `None` derives it from
    /// the workload's client timeout, falling back to the latency SLO.
    pub budget: Option<SimDuration>,
    /// When true (default), work whose owning request was already
    /// cancelled or has an expired deadline is skipped at the pod
    /// instead of executing as waste, and a firing client timeout tears
    /// down the request's in-flight subtree.
    pub cancel_doomed: bool,
}

impl Default for DeadlineConfig {
    fn default() -> Self {
        DeadlineConfig {
            budget: None,
            cancel_doomed: true,
        }
    }
}

// ---------------------------------------------------------------------
// Retry budgets
// ---------------------------------------------------------------------

/// Token-bucket retry budget (gRPC retry throttling / Finagle retry
/// budget): retries withdraw `retry_cost`, successes deposit
/// `token_ratio`, the bucket caps at `max_tokens`. When the bucket
/// cannot cover a retry, the retry is suppressed — under sustained
/// failure the deposit stream dries up and the storm self-extinguishes.
/// This is also the scenario file's `resilience.retry_budget` block.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct RetryBudgetConfig {
    /// Bucket capacity (also the initial fill).
    pub max_tokens: f64,
    /// Tokens deposited per successful response.
    pub token_ratio: f64,
    /// Tokens withdrawn per retry.
    pub retry_cost: f64,
}

impl Default for RetryBudgetConfig {
    fn default() -> Self {
        RetryBudgetConfig {
            max_tokens: 100.0,
            token_ratio: 0.1,
            retry_cost: 1.0,
        }
    }
}

/// A live retry budget (see [`RetryBudgetConfig`]).
#[derive(Clone, Debug)]
pub struct RetryBudget {
    cfg: RetryBudgetConfig,
    tokens: f64,
}

impl RetryBudget {
    /// A budget starting full.
    pub fn new(cfg: RetryBudgetConfig) -> Self {
        let cfg = RetryBudgetConfig {
            max_tokens: cfg.max_tokens.max(0.0),
            token_ratio: cfg.token_ratio.max(0.0),
            retry_cost: cfg.retry_cost.max(0.0),
        };
        RetryBudget {
            tokens: cfg.max_tokens,
            cfg,
        }
    }

    /// Tokens currently available.
    pub fn tokens(&self) -> f64 {
        self.tokens
    }

    /// A success deposits `token_ratio`, capped at `max_tokens`.
    pub fn on_success(&mut self) {
        self.tokens = (self.tokens + self.cfg.token_ratio).min(self.cfg.max_tokens);
    }

    /// Try to pay for one retry: withdraws `retry_cost` and returns
    /// `true`, or returns `false` (suppress the retry) when the bucket
    /// cannot cover it.
    pub fn try_retry(&mut self) -> bool {
        if self.tokens >= self.cfg.retry_cost {
            self.tokens -= self.cfg.retry_cost;
            true
        } else {
            false
        }
    }
}

// ---------------------------------------------------------------------
// Circuit breakers
// ---------------------------------------------------------------------

/// Per-edge circuit breaker tuning.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// Open when `failures / calls ≥ failure_threshold` over a tumbling
    /// window of `min_calls` outcomes.
    pub failure_threshold: f64,
    /// Outcomes per evaluation window (also the minimum evidence before
    /// the breaker may open).
    pub min_calls: u32,
    /// How long an open breaker rejects before probing (half-open).
    pub open_for: SimDuration,
    /// Probe calls admitted while half-open; all must succeed to close,
    /// any failure re-opens.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 0.5,
            min_calls: 20,
            open_for: SimDuration::from_secs(2),
            half_open_probes: 5,
        }
    }
}

/// Breaker state machine phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; outcomes are tallied.
    Closed,
    /// All calls rejected until `open_for` elapses.
    Open,
    /// A bounded number of probe calls admitted.
    HalfOpen,
}

#[derive(Clone, Debug)]
struct Breaker {
    state: BreakerState,
    /// Window tallies while closed.
    calls: u32,
    failures: u32,
    /// When the breaker opened.
    opened_at: SimTime,
    /// Probes admitted / succeeded while half-open.
    probes_sent: u32,
    probes_ok: u32,
}

impl Breaker {
    fn new() -> Self {
        Breaker {
            state: BreakerState::Closed,
            calls: 0,
            failures: 0,
            opened_at: SimTime::ZERO,
            probes_sent: 0,
            probes_ok: 0,
        }
    }
}

/// One circuit breaker per downstream call edge. The caller side is
/// `None` for the entry (gateway → root service) edge.
pub struct EdgeBreakers {
    cfg: BreakerConfig,
    edges: HashMap<(u32, u32), Breaker>,
    transitions: u64,
}

/// Encode an edge as a map key (`u32::MAX` = the entry gateway).
fn key(caller: Option<ServiceId>, callee: ServiceId) -> (u32, u32) {
    (caller.map_or(u32::MAX, |s| s.0), callee.0)
}

impl EdgeBreakers {
    /// Breakers over an initially-empty edge set.
    pub fn new(cfg: BreakerConfig) -> Self {
        EdgeBreakers {
            cfg,
            edges: HashMap::new(),
            transitions: 0,
        }
    }

    /// Cumulative state transitions (closed→open, open→half-open,
    /// half-open→closed/open) across all edges.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Current state of an edge (closed when never exercised).
    pub fn state(&self, caller: Option<ServiceId>, callee: ServiceId) -> BreakerState {
        self.edges
            .get(&key(caller, callee))
            .map_or(BreakerState::Closed, |b| b.state)
    }

    /// Whether a call over this edge may be dispatched at `now`.
    /// Half-open admits up to `half_open_probes` probe calls.
    pub fn allow(&mut self, caller: Option<ServiceId>, callee: ServiceId, now: SimTime) -> bool {
        let cfg = self.cfg;
        let b = self
            .edges
            .entry(key(caller, callee))
            .or_insert_with(Breaker::new);
        match b.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now.duration_since(b.opened_at) >= cfg.open_for {
                    b.state = BreakerState::HalfOpen;
                    b.probes_sent = 1;
                    b.probes_ok = 0;
                    self.transitions += 1;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                if b.probes_sent < cfg.half_open_probes {
                    b.probes_sent += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record a successful call over this edge.
    pub fn on_success(&mut self, caller: Option<ServiceId>, callee: ServiceId, _now: SimTime) {
        let cfg = self.cfg;
        let b = self
            .edges
            .entry(key(caller, callee))
            .or_insert_with(Breaker::new);
        match b.state {
            BreakerState::Closed => {
                b.calls += 1;
                Self::evaluate(b, cfg, &mut self.transitions, SimTime::ZERO);
            }
            BreakerState::HalfOpen => {
                b.probes_ok += 1;
                if b.probes_ok >= cfg.half_open_probes {
                    b.state = BreakerState::Closed;
                    b.calls = 0;
                    b.failures = 0;
                    self.transitions += 1;
                }
            }
            BreakerState::Open => {}
        }
    }

    /// Record a failed call over this edge (downstream rejection, drop,
    /// crash, loss — anything the caller would see as edge trouble).
    pub fn on_failure(&mut self, caller: Option<ServiceId>, callee: ServiceId, now: SimTime) {
        let cfg = self.cfg;
        let b = self
            .edges
            .entry(key(caller, callee))
            .or_insert_with(Breaker::new);
        match b.state {
            BreakerState::Closed => {
                b.calls += 1;
                b.failures += 1;
                Self::evaluate(b, cfg, &mut self.transitions, now);
            }
            BreakerState::HalfOpen => {
                // A failed probe re-opens immediately.
                b.state = BreakerState::Open;
                b.opened_at = now;
                self.transitions += 1;
            }
            BreakerState::Open => {}
        }
    }

    /// Close of a tumbling window: open on failure rate, else reset.
    fn evaluate(b: &mut Breaker, cfg: BreakerConfig, transitions: &mut u64, now: SimTime) {
        if b.calls < cfg.min_calls.max(1) {
            return;
        }
        let rate = f64::from(b.failures) / f64::from(b.calls);
        if rate >= cfg.failure_threshold {
            b.state = BreakerState::Open;
            b.opened_at = now;
            *transitions += 1;
        }
        b.calls = 0;
        b.failures = 0;
    }
}

// ---------------------------------------------------------------------
// Config + stats
// ---------------------------------------------------------------------

/// Engine-side resilience configuration ([`crate::Engine::set_resilience`]).
/// Retry budgets are client-side and live in the workload
/// ([`crate::workload::RetryStormWorkload::with_retry_budget`]).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct ResilienceConfig {
    /// Deadline propagation + doomed-work cancellation.
    pub deadlines: Option<DeadlineConfig>,
    /// Per-downstream-edge circuit breakers.
    pub breakers: Option<BreakerConfig>,
}

/// Request-plane resilience counters. Appears per observation window in
/// [`crate::ClusterObservation`] and cumulatively via
/// [`crate::Engine::resilience_totals`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilienceStats {
    /// Queued calls skipped at a pod because their request was already
    /// cancelled — work that would have executed as pure waste.
    pub doomed_cancelled: u64,
    /// Calls rejected (request failed) because the deadline had expired
    /// before work started or before a sub-call was dispatched.
    pub deadline_rejected: u64,
    /// Root requests torn down when the client's timeout fired.
    pub client_cancelled: u64,
    /// Retries issued by the client population.
    pub retries_issued: u64,
    /// Retries suppressed by an exhausted retry budget.
    pub retries_suppressed: u64,
    /// Calls rejected by an open circuit breaker.
    pub breaker_rejected: u64,
    /// Breaker state transitions across all edges.
    pub breaker_transitions: u64,
}

impl ResilienceStats {
    /// Element-wise accumulate.
    pub fn add(&mut self, other: &ResilienceStats) {
        self.doomed_cancelled += other.doomed_cancelled;
        self.deadline_rejected += other.deadline_rejected;
        self.client_cancelled += other.client_cancelled;
        self.retries_issued += other.retries_issued;
        self.retries_suppressed += other.retries_suppressed;
        self.breaker_rejected += other.breaker_rejected;
        self.breaker_transitions += other.breaker_transitions;
    }

    /// Element-wise difference against an earlier snapshot of the same
    /// (monotone) counters — how a window is carved out of cumulative
    /// registry instruments.
    pub fn since(&self, base: &ResilienceStats) -> ResilienceStats {
        ResilienceStats {
            doomed_cancelled: self.doomed_cancelled - base.doomed_cancelled,
            deadline_rejected: self.deadline_rejected - base.deadline_rejected,
            client_cancelled: self.client_cancelled - base.client_cancelled,
            retries_issued: self.retries_issued - base.retries_issued,
            retries_suppressed: self.retries_suppressed - base.retries_suppressed,
            breaker_rejected: self.breaker_rejected - base.breaker_rejected,
            breaker_transitions: self.breaker_transitions - base.breaker_transitions,
        }
    }

    /// True when any counter is nonzero.
    pub fn any(&self) -> bool {
        *self != ResilienceStats::default()
    }
}

/// The resilience counters as shared, cumulative registry instruments.
/// The engine's resilience plane increments these on the hot path and a
/// [`obs::Registry`] exposes them; windowed [`ResilienceStats`] views are
/// derived by differencing snapshots, so the stats type stays the plain
/// `Copy` value every report already serializes.
#[derive(Clone, Debug, Default)]
pub struct ResilienceCounters {
    pub doomed_cancelled: obs::Counter,
    pub deadline_rejected: obs::Counter,
    pub client_cancelled: obs::Counter,
    pub retries_issued: obs::Counter,
    pub retries_suppressed: obs::Counter,
    pub breaker_rejected: obs::Counter,
    pub breaker_transitions: obs::Counter,
}

impl ResilienceCounters {
    /// Current cumulative values as a plain stats snapshot.
    pub fn snapshot(&self) -> ResilienceStats {
        ResilienceStats {
            doomed_cancelled: self.doomed_cancelled.get(),
            deadline_rejected: self.deadline_rejected.get(),
            client_cancelled: self.client_cancelled.get(),
            retries_issued: self.retries_issued.get(),
            retries_suppressed: self.retries_suppressed.get(),
            breaker_rejected: self.breaker_rejected.get(),
            breaker_transitions: self.breaker_transitions.get(),
        }
    }

    /// Register every counter under `topfull_resilience_events_total`,
    /// one `event` label per field (see DESIGN.md §13).
    pub fn register_into(&self, reg: &obs::Registry) {
        const FAMILY: &str = "topfull_resilience_events_total";
        for (event, c) in [
            ("doomed_cancelled", &self.doomed_cancelled),
            ("deadline_rejected", &self.deadline_rejected),
            ("client_cancelled", &self.client_cancelled),
            ("retries_issued", &self.retries_issued),
            ("retries_suppressed", &self.retries_suppressed),
            ("breaker_rejected", &self.breaker_rejected),
            ("breaker_transitions", &self.breaker_transitions),
        ] {
            reg.register_counter(FAMILY, &[("event", event)], c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_snapshot_and_window_difference() {
        let c = ResilienceCounters::default();
        c.doomed_cancelled.add(3);
        c.retries_issued.add(5);
        let base = c.snapshot();
        c.doomed_cancelled.inc();
        c.breaker_rejected.add(2);
        let win = c.snapshot().since(&base);
        assert_eq!(win.doomed_cancelled, 1);
        assert_eq!(win.breaker_rejected, 2);
        assert_eq!(win.retries_issued, 0, "unchanged counters read as zero");
        let reg = obs::Registry::new();
        c.register_into(&reg);
        assert_eq!(reg.len(), 7);
        let text = reg.render_prometheus();
        assert!(text.contains("topfull_resilience_events_total{event=\"doomed_cancelled\"} 4"));
    }

    #[test]
    fn retry_budget_drains_and_refills() {
        let mut b = RetryBudget::new(RetryBudgetConfig {
            max_tokens: 2.0,
            token_ratio: 0.5,
            retry_cost: 1.0,
        });
        assert!(b.try_retry());
        assert!(b.try_retry());
        assert!(!b.try_retry(), "bucket empty: retry suppressed");
        b.on_success();
        assert!(!b.try_retry(), "0.5 tokens < cost 1.0");
        b.on_success();
        assert!(b.try_retry(), "two successes buy one retry");
    }

    #[test]
    fn retry_budget_caps_at_max() {
        let mut b = RetryBudget::new(RetryBudgetConfig {
            max_tokens: 1.0,
            token_ratio: 10.0,
            retry_cost: 1.0,
        });
        for _ in 0..100 {
            b.on_success();
        }
        assert!(b.tokens() <= 1.0 + 1e-9);
        assert!(b.try_retry());
        assert!(!b.try_retry());
    }

    #[test]
    fn breaker_opens_on_failure_rate() {
        let cfg = BreakerConfig {
            failure_threshold: 0.5,
            min_calls: 4,
            ..BreakerConfig::default()
        };
        let mut eb = EdgeBreakers::new(cfg);
        let callee = ServiceId(1);
        let t = SimTime::from_secs(1);
        // 2 ok + 2 failed = 50% over the 4-call window → open.
        eb.on_success(None, callee, t);
        eb.on_failure(None, callee, t);
        eb.on_success(None, callee, t);
        assert_eq!(eb.state(None, callee), BreakerState::Closed);
        eb.on_failure(None, callee, t);
        assert_eq!(eb.state(None, callee), BreakerState::Open);
        assert!(!eb.allow(None, callee, t));
        assert_eq!(eb.transitions(), 1);
    }

    #[test]
    fn breaker_window_resets_when_healthy() {
        let cfg = BreakerConfig {
            failure_threshold: 0.5,
            min_calls: 4,
            ..BreakerConfig::default()
        };
        let mut eb = EdgeBreakers::new(cfg);
        let callee = ServiceId(0);
        let t = SimTime::ZERO;
        // One bad window's worth of failures spread across two healthy
        // windows never opens the breaker.
        for _ in 0..2 {
            eb.on_failure(None, callee, t);
            eb.on_success(None, callee, t);
            eb.on_success(None, callee, t);
            eb.on_success(None, callee, t);
        }
        assert_eq!(eb.state(None, callee), BreakerState::Closed);
    }

    #[test]
    fn breaker_half_open_probes_then_closes() {
        let cfg = BreakerConfig {
            failure_threshold: 0.5,
            min_calls: 2,
            open_for: SimDuration::from_secs(1),
            half_open_probes: 2,
        };
        let mut eb = EdgeBreakers::new(cfg);
        let callee = ServiceId(3);
        let t0 = SimTime::from_secs(10);
        eb.on_failure(None, callee, t0);
        eb.on_failure(None, callee, t0);
        assert_eq!(eb.state(None, callee), BreakerState::Open);
        // Still open before the cooldown elapses.
        assert!(!eb.allow(None, callee, t0 + SimDuration::from_millis(500)));
        // Cooldown over: half-open admits exactly two probes.
        let t1 = t0 + SimDuration::from_secs(1);
        assert!(eb.allow(None, callee, t1));
        assert_eq!(eb.state(None, callee), BreakerState::HalfOpen);
        assert!(eb.allow(None, callee, t1));
        assert!(!eb.allow(None, callee, t1), "probe quota exhausted");
        // Both probes succeed → closed again.
        eb.on_success(None, callee, t1);
        eb.on_success(None, callee, t1);
        assert_eq!(eb.state(None, callee), BreakerState::Closed);
        assert!(eb.allow(None, callee, t1));
    }

    #[test]
    fn breaker_failed_probe_reopens() {
        let cfg = BreakerConfig {
            failure_threshold: 0.5,
            min_calls: 2,
            open_for: SimDuration::from_secs(1),
            half_open_probes: 3,
        };
        let mut eb = EdgeBreakers::new(cfg);
        let callee = ServiceId(2);
        let t0 = SimTime::ZERO;
        eb.on_failure(None, callee, t0);
        eb.on_failure(None, callee, t0);
        let t1 = t0 + SimDuration::from_secs(1);
        assert!(eb.allow(None, callee, t1));
        eb.on_failure(None, callee, t1);
        assert_eq!(eb.state(None, callee), BreakerState::Open);
        // The re-open restarts the cooldown from the probe failure.
        assert!(!eb.allow(None, callee, t1 + SimDuration::from_millis(900)));
        assert!(eb.allow(None, callee, t1 + SimDuration::from_secs(1)));
    }

    #[test]
    fn edges_are_independent() {
        let cfg = BreakerConfig {
            failure_threshold: 0.5,
            min_calls: 2,
            ..BreakerConfig::default()
        };
        let mut eb = EdgeBreakers::new(cfg);
        let t = SimTime::ZERO;
        eb.on_failure(None, ServiceId(1), t);
        eb.on_failure(None, ServiceId(1), t);
        assert_eq!(eb.state(None, ServiceId(1)), BreakerState::Open);
        // Same callee, different caller: separate edge, still closed.
        assert_eq!(
            eb.state(Some(ServiceId(0)), ServiceId(1)),
            BreakerState::Closed
        );
        assert!(eb.allow(Some(ServiceId(0)), ServiceId(1), t));
    }

    #[test]
    fn stats_accumulate_and_report_any() {
        let mut a = ResilienceStats::default();
        assert!(!a.any());
        let b = ResilienceStats {
            doomed_cancelled: 2,
            retries_suppressed: 3,
            ..ResilienceStats::default()
        };
        a.add(&b);
        a.add(&b);
        assert_eq!(a.doomed_cancelled, 4);
        assert_eq!(a.retries_suppressed, 6);
        assert!(a.any());
    }
}
