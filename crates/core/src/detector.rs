//! Overload detection from per-service resource utilization.
//!
//! "We detect overloaded microservices when the resource utilization of a
//! microservice exceeds a predetermined threshold" (§4.2). The paper's
//! trace analysis classifies services as overloaded above 0.8 CPU
//! utilization, which we adopt as the default. A small hysteresis gap
//! keeps services from flapping in and out of the overloaded set at the
//! 1-second cadence.
//!
//! The detector also tolerates degraded telemetry: a non-finite
//! utilization sample (NaN from a metrics dropout, say) is replaced by the
//! service's last good value as long as that value is younger than
//! [`MAX_SAMPLE_AGE`]. Past that age the service's state is *unknown*,
//! which is treated as not-newly-overloaded: the flag is held where it
//! was, so a blinded detector neither flags healthy services nor
//! releases pressure on services that were overloaded when the lights
//! went out.
//!
//! The overloaded set is written into a buffer the detector owns, so a
//! tick builds no vector for it.

use cluster::observe::ClusterObservation;
use cluster::types::ServiceId;
use simnet::{SimDuration, SimTime};

/// Enter the overloaded set above this utilization (§4.2: 0.8 CPU).
pub const OVERLOAD_ENTER: f64 = 0.8;
/// Leave the overloaded set below this utilization.
pub const OVERLOAD_EXIT: f64 = 0.75;
/// How stale a last-good utilization sample may be and still stand in
/// for a missing one.
pub const MAX_SAMPLE_AGE: SimDuration = SimDuration::from_secs(5);

/// Utilization-threshold overload detector with hysteresis.
#[derive(Clone, Debug)]
pub struct OverloadDetector {
    /// Per-service state, indexed by `ServiceId`; grows to whatever the
    /// observations mention.
    services: Vec<ServiceState>,
    /// The last update's overloaded set, kept for its capacity.
    overloaded: Vec<ServiceId>,
}

#[derive(Clone, Debug, Default)]
struct ServiceState {
    overloaded: bool,
    /// Last finite utilization sample and when it was taken.
    last_good: Option<(SimTime, f64)>,
}

impl OverloadDetector {
    /// Detector with the paper's 0.8 threshold (exit at 0.75).
    pub fn new(num_services: usize) -> Self {
        OverloadDetector {
            services: vec![ServiceState::default(); num_services],
            overloaded: Vec::new(),
        }
    }

    /// Update from an observation; returns the overloaded set, ascending.
    pub fn detect(&mut self, obs: &ClusterObservation) -> &[ServiceId] {
        self.overloaded.clear();
        for w in &obs.services {
            let i = w.service.idx();
            if i >= self.services.len() {
                self.services.resize(i + 1, ServiceState::default());
            }
            let state = &mut self.services[i];
            let util = if w.utilization.is_finite() {
                state.last_good = Some((obs.now, w.utilization));
                Some(w.utilization)
            } else {
                // Degraded sample: fall back to the last good value if it
                // is fresh enough, else the state is unknown.
                state
                    .last_good
                    .filter(|(t, _)| obs.now.duration_since(*t) <= MAX_SAMPLE_AGE)
                    .map(|(_, u)| u)
            };
            // Unknown (`None`) is not healthy: hold the flag as-is.
            if let Some(u) = util {
                if state.overloaded {
                    if u < OVERLOAD_EXIT {
                        state.overloaded = false;
                    }
                } else if u > OVERLOAD_ENTER {
                    state.overloaded = true;
                }
            }
            if state.overloaded {
                self.overloaded.push(w.service);
            }
        }
        &self.overloaded
    }

    /// Whether a service is currently flagged.
    pub fn is_overloaded(&self, svc: ServiceId) -> bool {
        self.services.get(svc.idx()).is_some_and(|s| s.overloaded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::observe::{ApiWindow, ServiceWindow};

    fn obs_at(now: SimTime, utils: &[f64]) -> ClusterObservation {
        ClusterObservation {
            now,
            window: SimDuration::from_secs(1),
            services: utils
                .iter()
                .enumerate()
                .map(|(i, u)| ServiceWindow {
                    service: ServiceId(i as u32),
                    name: format!("s{i}"),
                    utilization: *u,
                    alive_pods: 1,
                    desired_pods: 1,
                    queue_len: 0,
                    mean_queuing_delay: SimDuration::ZERO,
                    started_calls: 0,
                    dropped_calls: 0,
                })
                .collect(),
            apis: Vec::<ApiWindow>::new(),
            api_paths: vec![],
            slo: SimDuration::from_secs(1),
            resilience: Default::default(),
        }
    }

    fn obs(utils: &[f64]) -> ClusterObservation {
        obs_at(SimTime::from_secs(1), utils)
    }

    #[test]
    fn detects_above_enter_threshold() {
        let mut d = OverloadDetector::new(3);
        let got = d.detect(&obs(&[0.5, 0.85, 0.79]));
        assert_eq!(got, vec![ServiceId(1)]);
    }

    #[test]
    fn hysteresis_holds_between_thresholds() {
        let mut d = OverloadDetector::new(1);
        assert_eq!(d.detect(&obs(&[0.9])).len(), 1);
        // 0.77 is between exit (0.75) and enter (0.8): stays overloaded.
        assert_eq!(d.detect(&obs(&[0.77])).len(), 1);
        assert!(d.is_overloaded(ServiceId(0)));
        // Below exit: clears.
        assert!(d.detect(&obs(&[0.7])).is_empty());
        // Back between thresholds: stays clear.
        assert!(d.detect(&obs(&[0.77])).is_empty());
    }

    #[test]
    fn nan_falls_back_to_fresh_last_good_value() {
        let mut d = OverloadDetector::new(1);
        assert_eq!(d.detect(&obs_at(SimTime::from_secs(1), &[0.9])).len(), 1);
        // Dropout 2 s later: last good value (0.9) is fresh → stays flagged.
        assert_eq!(
            d.detect(&obs_at(SimTime::from_secs(3), &[f64::NAN])).len(),
            1
        );
        // Healthy sample below exit clears it again.
        assert!(d.detect(&obs_at(SimTime::from_secs(4), &[0.5])).is_empty());
        // NaN with a fresh *healthy* last-good value does not flag.
        assert!(d
            .detect(&obs_at(SimTime::from_secs(5), &[f64::NAN]))
            .is_empty());
    }

    #[test]
    fn stale_unknown_holds_flag_state() {
        let mut d = OverloadDetector::new(2);
        // Service 0 overloaded, service 1 healthy at t=1.
        assert_eq!(
            d.detect(&obs_at(SimTime::from_secs(1), &[0.9, 0.2])),
            vec![ServiceId(0)]
        );
        // Total dropout at t=60: both last-good samples are stale, so the
        // state is unknown — flags hold (0 stays flagged, 1 stays clear).
        let got = d.detect(&obs_at(SimTime::from_secs(60), &[f64::NAN, f64::NAN]));
        assert_eq!(got, vec![ServiceId(0)]);
    }

    #[test]
    fn detector_grows_with_the_observation() {
        // Sized from a 1-service view, then shown three services (a
        // topology that gained services, a shard view that filled in).
        let mut d = OverloadDetector::new(1);
        assert_eq!(d.detect(&obs(&[0.9])), vec![ServiceId(0)]);
        assert_eq!(
            d.detect(&obs(&[0.9, 0.2, 0.95])),
            vec![ServiceId(0), ServiceId(2)]
        );
        assert!(d.is_overloaded(ServiceId(2)));
        assert!(!d.is_overloaded(ServiceId(7)), "unseen is not overloaded");
    }

    #[test]
    fn nan_never_newly_flags_a_service() {
        let mut d = OverloadDetector::new(1);
        // No history at all: NaN must not flag.
        assert!(d
            .detect(&obs_at(SimTime::from_secs(1), &[f64::NAN]))
            .is_empty());
    }
}
