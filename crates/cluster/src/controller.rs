//! Entry-point controller interface.
//!
//! TopFull (and its ablations) actuate the cluster exclusively through
//! per-API rate limits at the entry gateway — "unlike existing approaches
//! that control the load at every microservice, TopFull only controls the
//! load of external user-facing APIs" (§3). A [`Controller`] is invoked
//! once per control interval with the latest [`ClusterObservation`] and
//! returns the rate-limit updates to apply.

use crate::observe::ClusterObservation;
use crate::types::ApiId;
use serde::{Deserialize, Serialize};

/// One rate-limit change for one API.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RateLimitUpdate {
    pub api: ApiId,
    /// New admitted rate in requests/s; `f64::INFINITY` removes the limit.
    pub rate: f64,
}

impl RateLimitUpdate {
    /// Limit `api` to `rate` requests/s.
    pub fn limit(api: ApiId, rate: f64) -> Self {
        RateLimitUpdate { api, rate }
    }

    /// Remove the limit on `api`.
    pub fn unlimited(api: ApiId) -> Self {
        RateLimitUpdate {
            api,
            rate: f64::INFINITY,
        }
    }
}

/// An entry-point overload controller, ticked once per control interval.
pub trait Controller {
    /// Inspect the observation and return rate-limit updates. APIs not
    /// mentioned keep their current limits.
    fn control(&mut self, obs: &ClusterObservation) -> Vec<RateLimitUpdate>;

    /// Human-readable name for experiment reports.
    fn name(&self) -> &str {
        "controller"
    }

    /// Adopt a shared decision journal. Controllers that explain their
    /// verdicts (TopFull) record detector transitions, re-clusterings and
    /// rate actions here; the default is a no-op so baselines stay
    /// journal-free.
    fn attach_journal(&mut self, _journal: std::sync::Arc<obs::Journal>) {}
}

/// The "no overload control" baseline: never touches any rate limit.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoControl;

impl Controller for NoControl {
    fn control(&mut self, _obs: &ClusterObservation) -> Vec<RateLimitUpdate> {
        Vec::new()
    }

    fn name(&self) -> &str {
        "no-control"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_constructors() {
        let u = RateLimitUpdate::limit(ApiId(3), 120.0);
        assert_eq!(u.api, ApiId(3));
        assert_eq!(u.rate, 120.0);
        assert!(RateLimitUpdate::unlimited(ApiId(0)).rate.is_infinite());
    }

    #[test]
    fn no_control_is_inert() {
        let obs = ClusterObservation {
            now: simnet::SimTime::ZERO,
            window: simnet::SimDuration::from_secs(1),
            services: vec![],
            apis: vec![],
            api_paths: vec![],
            slo: simnet::SimDuration::from_secs(1),
            resilience: Default::default(),
        };
        assert!(NoControl.control(&obs).is_empty());
        assert_eq!(NoControl.name(), "no-control");
    }
}
