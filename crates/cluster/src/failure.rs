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
//!   overload." [`PROBES_TO_CRASH`] and [`restart_delay`] model this: a
//!   pod whose queue is saturated for `PROBES_TO_CRASH` consecutive
//!   probes — one per metrics window — crashes (dropping its backlog)
//!   and restarts after `restart_delay`.

use simnet::SimDuration;

/// Queue fill fraction (of `queue_capacity`) above which a probe counts
/// the pod as saturated.
pub(crate) const SATURATION_FRACTION: f64 = 0.95;
/// Consecutive saturated probes before the pod crashes.
pub const PROBES_TO_CRASH: u32 = 6;
/// k8s caps CrashLoopBackOff at 5 minutes.
const RESTART_CAP: SimDuration = SimDuration::from_secs(300);

/// k8s CrashLoopBackOff: the downtime before restart number `crash`
/// (1 = first crash) starts at 10 s and doubles per consecutive crash
/// (10 s, 20 s, 40 s, …) up to 5 minutes. A healthy probe streak decays
/// the crash count back down.
pub fn restart_delay(crash: u32) -> SimDuration {
    SimDuration::from_secs(10 << crash.saturating_sub(1).min(5)).min(RESTART_CAP)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restart_delay_doubles_from_ten_seconds_to_the_five_minute_cap() {
        let secs = |crash| restart_delay(crash).as_nanos() / 1_000_000_000;
        let law: Vec<u64> = (1..=8).map(secs).collect();
        assert_eq!(law, [10, 20, 40, 80, 160, 300, 300, 300]);
        assert_eq!(secs(0), 10, "no crash yet reads as the first");
        assert_eq!(secs(u32::MAX), 300);
    }
}
