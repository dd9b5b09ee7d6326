//! §4.3: candidate set → RL state → step, for cluster targets and
//! recovery probes alike.
//!
//! A [`Decision`] is born here with its state, the rate controller's
//! action and the collapse escalation (`episode.rs`); `apply.rs` fills in
//! who the step landed on and `journal.rs` renders it. A recovery probe
//! is nothing more than a decision whose subject is an API and whose
//! candidate set is that API alone.

use super::{episode, TopFull};
use crate::rate_controller::RateState;
use cluster::observe::ClusterObservation;
use cluster::types::{ApiId, ServiceId};

/// What a decision is about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Subject {
    /// An overloaded service selected as a cluster target (§4.1).
    Target(ServiceId),
    /// A rate-limited API whose path is free of hot services, probed
    /// for recovery (§4.1 "handled separately by a rate controller").
    Probe(ApiId),
}

/// One rate decision of a control interval, kept for inspection and
/// rendered into the journal.
#[derive(Clone, Debug)]
pub struct Decision {
    pub subject: Subject,
    /// The APIs the decision is taken over (a probe: just its own).
    pub candidates: Vec<ApiId>,
    /// §4.3 state of the candidate set.
    pub state: RateState,
    /// The step to apply, after any collapse escalation.
    pub action: f64,
    /// Whether the collapse backoff deepened the policy's cut.
    pub escalated: bool,
    /// The subject's collapse-episode anchor after this decision
    /// (`episode.rs`): `Some` while an episode is open.
    pub anchor: Option<f64>,
    /// Candidates Algorithm 1 picked to receive the step.
    pub applied_to: Vec<ApiId>,
    /// Candidates vetoed from a raise by §4.1's rule, each with the hot
    /// service on its path that is not this decision's target.
    pub blocked: Vec<(ApiId, ServiceId)>,
}

impl TopFull {
    /// RL state for a candidate set (§4.3 "RL model design").
    fn state_for(&self, obs: &ClusterObservation, apis: &[ApiId]) -> RateState {
        // An unlimited API's effective limit is its currently admitted
        // (≈ offered) rate.
        let effective_limit = |a: &ApiId| match self.apis[a.idx()].limit {
            l if l.is_finite() => l,
            _ => obs.api(*a).admitted.max(obs.api(*a).offered).max(1.0),
        };
        let goodput: f64 = apis.iter().map(|a| obs.api(*a).goodput).sum();
        let limit: f64 = apis.iter().map(effective_limit).sum();
        let slo = obs.slo.as_secs_f64().max(1e-9);
        let lat = apis
            .iter()
            .map(|a| obs.api(*a).tail_latency().as_secs_f64())
            .fold(0.0, f64::max);
        RateState {
            goodput_ratio: if limit > 0.0 {
                (goodput / limit).clamp(0.0, 2.0)
            } else {
                0.0
            },
            latency_ratio: (lat / slo).clamp(0.0, 5.0),
            total_limit: limit,
        }
    }

    /// State → policy step → collapse escalation, for either kind of
    /// subject. What differs is where the subject's episode anchor is
    /// remembered. A target's lives in the previous tick's decision for
    /// the same service, so it ends on the first tick the service is not
    /// a collapsing target; a probe's stays with its API until a visit
    /// finds no collapse, however many ticks pass between visits.
    pub(super) fn decide(
        &mut self,
        obs: &ClusterObservation,
        subject: Subject,
        candidates: Vec<ApiId>,
    ) -> Decision {
        let state = self.state_for(obs, &candidates);
        let action = self.cfg.rate_controller.decide(state);
        // Episodes only *start* shortly after a candidate's limit was
        // initialized; ongoing ones run until their conditions clear.
        let recent = candidates.iter().any(|a| {
            self.apis[a.idx()]
                .init_tick
                .is_some_and(|t| self.ticks.saturating_sub(t) <= episode::COLLAPSE_INIT_WINDOW)
        });
        let mut anchor = match subject {
            Subject::Target(_) => self
                .last_decisions
                .iter()
                .find(|d| d.subject == subject)
                .and_then(|d| d.anchor),
            Subject::Probe(api) => self.apis[api.idx()].probe_anchor,
        };
        let (action, escalated) = episode::escalate(
            &mut anchor,
            recent,
            self.cfg.collapse_backoff,
            action,
            &state,
        );
        if let Subject::Probe(api) = subject {
            self.apis[api.idx()].probe_anchor = anchor;
        }
        Decision {
            subject,
            candidates,
            state,
            action,
            escalated,
            anchor,
            applied_to: Vec::new(),
            blocked: Vec::new(),
        }
    }
}
