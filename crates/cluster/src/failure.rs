//! Failure injection and the overload crash-loop model.
//!
//! Two failure mechanisms from the paper's evaluation:
//!
//! * **Injected pod kills** (Fig. 18): "We delete 25 pods among 35 pods of
//!   ts-station microservice at time 50s. Then, Kubernetes automatically
//!   starts scaling 25 pods to maintain the number of 35 healthy pods."
//!   A [`FaultSpec::PodKill`](crate::FaultSpec::PodKill) schedules exactly
//!   that: pods die instantly, losing queued and in-flight work, and
//!   replacements become ready after the pod startup delay.
//! * **Overload crash-loops** (§6.3): "Recommendation microservice's pods
//!   completely failed at the initial traffic surge… they kept failing
//!   until enough pods are allocated at once. … such pod failures can
//!   occur when liveness and readiness probes fail due to sudden
//!   overload." [`CrashLoopConfig`] models this: a pod whose queue is
//!   saturated for `probes_to_crash` consecutive probe intervals crashes
//!   (dropping its backlog) and restarts after `restart_delay`.

use serde::{Deserialize, Serialize};
use simnet::SimDuration;

/// How a crashed pod's restart delay grows across consecutive crashes.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum RestartBackoff {
    /// Every restart waits exactly `restart_delay` (the original model;
    /// keeps the Fig. 18 recovery timeline paper-faithful).
    Fixed,
    /// k8s CrashLoopBackOff: `restart_delay` doubles per consecutive
    /// crash (10 s, 20 s, 40 s, …) up to `cap`. A healthy probe streak
    /// decays the crash count back down.
    Exponential { cap: SimDuration },
}

impl Default for RestartBackoff {
    fn default() -> Self {
        // k8s caps CrashLoopBackOff at 5 minutes.
        RestartBackoff::Exponential {
            cap: SimDuration::from_secs(300),
        }
    }
}

impl RestartBackoff {
    /// The delay before restart number `crash_count` (1 = first crash).
    pub fn delay(self, base: SimDuration, crash_count: u32) -> SimDuration {
        match self {
            RestartBackoff::Fixed => base,
            RestartBackoff::Exponential { cap } => {
                // 2^(count-1), saturating well before overflow.
                let doublings = crash_count.saturating_sub(1).min(30);
                base.mul_f64(f64::from(1u32 << doublings.min(20))).min(cap)
            }
        }
    }
}

/// Liveness-probe crash-loop parameters for services with
/// `crash_on_overload` set.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CrashLoopConfig {
    /// Queue fill fraction (of `queue_capacity`) above which a probe
    /// counts the pod as saturated.
    pub saturation_fraction: f64,
    /// Consecutive saturated probes before the pod crashes.
    pub probes_to_crash: u32,
    /// Probe cadence.
    pub probe_interval: SimDuration,
    /// Base downtime before the crashed pod restarts (k8s
    /// CrashLoopBackOff starts at 10 s).
    pub restart_delay: SimDuration,
    /// How the delay grows across consecutive crashes.
    #[serde(default)]
    pub backoff: RestartBackoff,
}

impl Default for CrashLoopConfig {
    fn default() -> Self {
        CrashLoopConfig {
            saturation_fraction: 0.95,
            probes_to_crash: 6,
            probe_interval: SimDuration::from_secs(1),
            restart_delay: SimDuration::from_secs(10),
            backoff: RestartBackoff::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_loop_defaults_are_sane() {
        let c = CrashLoopConfig::default();
        assert!(c.saturation_fraction > 0.0 && c.saturation_fraction <= 1.0);
        assert!(c.probes_to_crash >= 1);
        assert!(!c.restart_delay.is_zero());
    }
}
