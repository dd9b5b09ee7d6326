//! Cross-cutting planes hooked into the request lifecycle.
//!
//! Three concerns veto or observe requests as they move through the
//! cluster: per-service **admission** control (DAGOR, Breakwater), the
//! request-plane **resilience** layer (deadlines, doomed-work
//! cancellation, circuit breakers), and the gray-failure **fault**
//! plane (degraded network paths). [`Planes`] asks them at two points
//! and answers with a uniform [`Verdict`] the lifecycle code applies
//! mechanically: [`Planes::dispatch`] on the caller side, where all
//! three judge in the fixed order resilience → admission → faults, and
//! [`Planes::accept`] on the service side, as a call reaches the pod
//! queues and again before a pod spends CPU on it, where only
//! resilience judges.
//!
//! The fixed order, short-circuiting on the first veto, preserves the
//! exact event and RNG sequence of the monolithic engine — determinism
//! is the refactor's regression oracle.

use crate::admission::AdmissionControl;
use crate::faults::FaultPlane;
use crate::resilience::{EdgeBreakers, ResilienceConfig, ResilienceCounters, ResilienceStats};
use crate::types::{RequestMeta, RequestOutcome, ServiceId};
use rand::rngs::SmallRng;
use simnet::{SimDuration, SimTime};

/// The call a plane is asked to judge.
#[derive(Clone, Copy, Debug)]
pub(super) struct CallCtx {
    /// Request metadata; `None` when the owning request already
    /// terminated elsewhere (the call is wasted work in flight).
    pub meta: Option<RequestMeta>,
    /// Service of the calling node (`None` at the entry edge or when the
    /// request is gone).
    pub caller: Option<ServiceId>,
    /// Service the call targets.
    pub callee: ServiceId,
}

/// The planes' answer at a lifecycle point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(super) enum Verdict {
    /// Let the call continue; `extra` is added network latency
    /// (dispatch only).
    Proceed { extra: SimDuration },
    /// Drop the call silently — its request is already gone and the
    /// plane accounted for the skipped work.
    Cancel,
    /// Fail the owning request. `drop_at_callee` charges a dropped call
    /// to the target service; `edge_failure` feeds the caller→callee
    /// circuit breaker.
    Fail {
        outcome: RequestOutcome,
        drop_at_callee: bool,
        edge_failure: bool,
    },
}

/// Per-plane veto counters: calls cancelled or failed by each plane,
/// cumulative over the run. Registered under
/// `topfull_plane_vetoes_total{plane=…}`; the engine journals per-window
/// deltas so `topfull explain` can show which plane was shedding.
#[derive(Clone, Debug, Default)]
pub(super) struct PlaneVetoCounters {
    pub(super) resilience: obs::Counter,
    pub(super) admission: obs::Counter,
    pub(super) faults: obs::Counter,
}

impl PlaneVetoCounters {
    pub(super) fn register_into(&self, reg: &obs::Registry) {
        for (plane, c) in [
            ("resilience", &self.resilience),
            ("admission", &self.admission),
            ("faults", &self.faults),
        ] {
            reg.register_counter("topfull_plane_vetoes_total", &[("plane", plane)], c);
        }
    }

    /// Current cumulative counts `(resilience, admission, faults)`.
    pub(super) fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.resilience.get(),
            self.admission.get(),
            self.faults.get(),
        )
    }
}

/// The engine's plane stack, consulted in fixed order.
pub(super) struct Planes {
    pub(super) resilience: ResiliencePlane,
    /// Per-service admission control (DAGOR, Breakwater): the upstream
    /// checks the downstream's advertised threshold before sending.
    pub(super) admission: Option<Box<dyn AdmissionControl>>,
    pub(super) faults: FaultPlane,
    /// How often each plane vetoed a call (Cancel or Fail verdicts).
    pub(super) vetoes: PlaneVetoCounters,
}

impl Planes {
    pub(super) fn new(fault_rng: SmallRng) -> Self {
        Planes {
            resilience: ResiliencePlane::default(),
            admission: None,
            faults: FaultPlane::new(fault_rng),
            vetoes: PlaneVetoCounters::default(),
        }
    }

    /// Adopt every plane counter into `reg` (resilience events, plane
    /// vetoes, fault-plane telemetry distortions).
    pub(super) fn register_into(&self, reg: &obs::Registry) {
        self.resilience.counters.register_into(reg);
        self.vetoes.register_into(reg);
        self.faults.counters().register_into(reg);
    }

    /// Caller side, before a sub-call is sent downstream: resilience
    /// (deadline, breaker), then admission (the callee's advertised
    /// threshold), then faults (a degraded network path, whose delay is
    /// the `Proceed` latency). The first veto wins and is the only one
    /// counted, and the fault plane draws its RNG only for a call the
    /// two before it let through, so the veto counts never perturb the
    /// event or RNG sequence.
    pub(super) fn dispatch(&mut self, ctx: &CallCtx, now: SimTime) -> Verdict {
        if let Some(veto) = self.resilience.veto_dispatch(ctx, now) {
            self.vetoes.resilience.inc();
            return veto;
        }
        if let (Some(ctrl), Some(meta)) = (self.admission.as_mut(), ctx.meta.as_ref()) {
            if !ctrl.admit(ctx.callee, meta, now) {
                self.vetoes.admission.inc();
                return Verdict::Fail {
                    outcome: RequestOutcome::RejectedAtService(ctx.callee),
                    drop_at_callee: true,
                    edge_failure: true,
                };
            }
        }
        let net = self.faults.net_effect(now, ctx.callee);
        if net.dropped {
            self.vetoes.faults.inc();
            return Verdict::Fail {
                outcome: RequestOutcome::NetworkLost(ctx.callee),
                drop_at_callee: true,
                edge_failure: true,
            };
        }
        Verdict::Proceed { extra: net.extra }
    }

    /// Service side, as a call reaches the pod queues and again before a
    /// pod spends CPU on it. Admission and faults act at dispatch only,
    /// so resilience alone judges here.
    pub(super) fn accept(&mut self, ctx: &CallCtx, now: SimTime) -> Verdict {
        match self.resilience.veto_accept(ctx, now) {
            Some(veto) => {
                self.vetoes.resilience.inc();
                veto
            }
            None => Verdict::Proceed {
                extra: SimDuration::ZERO,
            },
        }
    }
}

/// The request-plane resilience layer ([`crate::resilience`]): deadline
/// propagation, doomed-work cancellation, and per-edge circuit breakers.
#[derive(Default)]
pub(super) struct ResiliencePlane {
    /// Resolved per-request deadline budget (`None` = deadlines off).
    pub(super) deadline_budget: Option<SimDuration>,
    /// Skip doomed queued work and tear down timed-out requests.
    pub(super) cancel_doomed: bool,
    /// Per-downstream-edge circuit breakers (`None` = breakers off).
    pub(super) breakers: Option<EdgeBreakers>,
    /// Cumulative resilience counters as shared registry instruments;
    /// windows and run totals are views derived by differencing.
    pub(super) counters: ResilienceCounters,
    /// Cumulative snapshot taken when the current window opened.
    window_base: ResilienceStats,
    /// Workload retry counters already folded into the counters above.
    retry_snapshot: (u64, u64),
    /// Breaker transitions already folded into the counters above.
    breaker_snapshot: u64,
}

impl ResiliencePlane {
    /// Apply a [`ResilienceConfig`], resolving the deadline budget
    /// against `fallback` (client timeout, else the latency SLO).
    pub(super) fn configure(&mut self, cfg: ResilienceConfig, fallback: SimDuration) {
        match cfg.deadlines {
            Some(d) => {
                self.deadline_budget = Some(d.budget.unwrap_or(fallback));
                self.cancel_doomed = d.cancel_doomed;
            }
            None => {
                self.deadline_budget = None;
                self.cancel_doomed = false;
            }
        }
        self.breakers = cfg.breakers.map(EdgeBreakers::new);
    }

    /// Cumulative counters including the window in progress, folding in
    /// the workload's live retry counters.
    pub(super) fn totals(&self, retry_stats: (u64, u64)) -> ResilienceStats {
        let mut t = self.counters.snapshot();
        let (ri, rs) = retry_stats;
        t.retries_issued += ri - self.retry_snapshot.0;
        t.retries_suppressed += rs - self.retry_snapshot.1;
        if let Some(b) = &self.breakers {
            t.breaker_transitions += b.transitions() - self.breaker_snapshot;
        }
        t
    }

    /// Close the metrics window: fold client-side retry counters and
    /// breaker transitions into the cumulative instruments, and return
    /// the window's stats (cumulative delta since the window opened).
    pub(super) fn close_window(&mut self, retry_stats: (u64, u64)) -> ResilienceStats {
        let (ri, rs) = retry_stats;
        self.counters.retries_issued.add(ri - self.retry_snapshot.0);
        self.counters
            .retries_suppressed
            .add(rs - self.retry_snapshot.1);
        self.retry_snapshot = (ri, rs);
        if let Some(b) = &self.breakers {
            let t = b.transitions();
            self.counters
                .breaker_transitions
                .add(t - self.breaker_snapshot);
            self.breaker_snapshot = t;
        }
        let cum = self.counters.snapshot();
        let closed = cum.since(&self.window_base);
        self.window_base = cum;
        closed
    }

    /// A root request was torn down by its client's timeout.
    pub(super) fn on_client_cancelled(&self) {
        self.counters.client_cancelled.inc();
    }

    /// A failed call is a failure signal for its inbound edge.
    pub(super) fn on_edge_failure(
        &mut self,
        now: SimTime,
        caller: Option<ServiceId>,
        callee: ServiceId,
    ) {
        if let Some(b) = self.breakers.as_mut() {
            b.on_failure(caller, callee, now);
        }
    }

    /// A completed call is a success signal for its inbound edge.
    pub(super) fn on_edge_success(
        &mut self,
        now: SimTime,
        caller: Option<ServiceId>,
        callee: ServiceId,
    ) {
        if let Some(b) = self.breakers.as_mut() {
            b.on_success(caller, callee, now);
        }
    }

    fn deadline_expired(&self, ctx: &CallCtx, now: SimTime) -> bool {
        matches!(ctx.meta.and_then(|m| m.deadline), Some(dl) if now >= dl)
    }

    /// A caller never dispatches work its deadline can no longer use,
    /// nor across an open breaker.
    fn veto_dispatch(&mut self, ctx: &CallCtx, now: SimTime) -> Option<Verdict> {
        let outcome = if self.deadline_expired(ctx, now) {
            self.counters.deadline_rejected.inc();
            RequestOutcome::DeadlineExpired(ctx.callee)
        } else if self
            .breakers
            .as_mut()
            .is_some_and(|b| !b.allow(ctx.caller, ctx.callee, now))
        {
            self.counters.breaker_rejected.inc();
            RequestOutcome::BreakerOpen(ctx.callee)
        } else {
            return None;
        };
        Some(Verdict::Fail {
            outcome,
            drop_at_callee: false,
            edge_failure: false,
        })
    }

    /// The service recognizes dead requests at the door and checks the
    /// propagated deadline before accepting; a pod re-checks both before
    /// spending CPU on a queued call.
    fn veto_accept(&mut self, ctx: &CallCtx, now: SimTime) -> Option<Verdict> {
        if ctx.meta.is_none() {
            if !self.cancel_doomed {
                return None;
            }
            self.counters.doomed_cancelled.inc();
            return Some(Verdict::Cancel);
        }
        self.deadline_expired(ctx, now).then(|| {
            self.counters.deadline_rejected.inc();
            Verdict::Fail {
                outcome: RequestOutcome::DeadlineExpired(ctx.callee),
                drop_at_callee: true,
                edge_failure: false,
            }
        })
    }
}
