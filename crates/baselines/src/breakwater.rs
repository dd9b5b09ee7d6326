//! Breakwater: credit-based per-server overload control.
//!
//! Re-implementation of Breakwater [Cho et al., OSDI '20] as the paper
//! deploys it (§5): "it is implemented in each pod regarding gRPC
//! exchange between pods as a client-server relationship. Each pod
//! informs its token thresholds to the upstream pods, where upstream pods
//! generate tokens following the thresholds."
//!
//! Per server (service), a credit pool sets how many requests upstream
//! clients may send. Following the paper's §6.3 description of the
//! control law: the pool "increases the admitted rate additively …
//! when the measured delay is less than the target delay" and
//! "multiplicatively decreases the admitted rate proportional to the
//! level of overload, … the difference between the measured delay and
//! the target delay". We model the distributed credit pool as a
//! per-service admitted-*rate* enforced with a token bucket at dispatch
//! time (client-side credit gating).
//!
//! Because every service sheds independently and *randomly* with respect
//! to request identity, a request crossing `k` overloaded tiers survives
//! with probability `(1-p)^k` — the multi-tier weakness §6.1 analyzes.
//!
//! A second weakness the paper measures (Fig. 9: "Breakwater suffers
//! from further performance degradation when user demands increase") is
//! the per-client credit floor: every connected client holds at least
//! one credit, so with `n` clients the server cannot issue fewer than
//! `n × (1/credit_lifetime)` requests/s of credit no matter how small
//! its pool. We model this floor with
//! [`MIN_CREDIT_RATE_PER_CLIENT`], estimating the
//! clients contacting a service from the offered rate of the APIs whose
//! paths cross it (1 request/s per Locust user).

use cluster::admission::AdmissionControl;
use cluster::observe::ClusterObservation;
use cluster::types::{RequestMeta, ServiceId};
use simnet::{SimDuration, SimTime, TokenBucket};

/// Target queueing delay (Breakwater's `d_t`).
const TARGET_DELAY: SimDuration = SimDuration::from_millis(20);
/// Additive credit growth per interval, in requests/s.
const ADDITIVE_STEP: f64 = 40.0;
/// Sensitivity of the multiplicative decrease to overload severity
/// (Breakwater's β).
const BETA: f64 = 0.4;
/// Initial per-service admitted rate (requests/s).
pub(crate) const INITIAL_RATE: f64 = 5_000.0;
/// Floor on the admitted rate so recovery is always possible.
const MIN_RATE: f64 = 10.0;
/// Credit floor per connected client, in requests/s (one credit per
/// client, refreshed every ~3 s ⇒ ≈0.3).
pub const MIN_CREDIT_RATE_PER_CLIENT: f64 = 0.3;

/// One interval of the delay law, its only statement (WISP's local
/// rates take the same step): at or under `TARGET_DELAY` the rate grows
/// by `ADDITIVE_STEP`; over it, it shrinks by `BETA` times the overload
/// level `(d - d_t) / d`, in (0, 1) — never to less than a tenth in one
/// step — and `MIN_RATE` floors the result.
pub fn step(rate: f64, delay: SimDuration) -> f64 {
    let rate = if delay <= TARGET_DELAY {
        rate + ADDITIVE_STEP
    } else {
        let d = delay.as_secs_f64();
        let dt = TARGET_DELAY.as_secs_f64();
        let severity = ((d - dt) / d).clamp(0.0, 1.0);
        rate * (1.0 - BETA * severity).max(0.1)
    };
    rate.max(MIN_RATE)
}

/// Breakwater admission across all services.
pub struct Breakwater {
    /// Per-service admitted rate (the distributed credit pool).
    rates: Vec<f64>,
    /// Per-service enforcement buckets.
    buckets: Vec<TokenBucket>,
}

impl Breakwater {
    /// Breakwater for `num_services` services.
    pub fn new(num_services: usize) -> Self {
        Breakwater {
            rates: vec![INITIAL_RATE; num_services],
            buckets: (0..num_services)
                .map(|_| TokenBucket::new(INITIAL_RATE, INITIAL_RATE * 0.05, SimTime::ZERO))
                .collect(),
        }
    }

    /// Current admitted rate of a service (for tests/inspection).
    pub fn rate(&self, svc: ServiceId) -> f64 {
        self.rates[svc.idx()]
    }
}

impl AdmissionControl for Breakwater {
    fn admit(&mut self, service: ServiceId, _meta: &RequestMeta, now: SimTime) -> bool {
        self.buckets[service.idx()].try_admit(now)
    }

    fn on_interval(&mut self, obs: &ClusterObservation) {
        // Clients contacting each service ≈ offered rate of the APIs
        // whose (possible) paths cross it, at 1 request/s per client.
        let mut clients = vec![0.0f64; self.rates.len()];
        for (api_idx, path) in obs.api_paths.iter().enumerate() {
            let offered = obs.apis.get(api_idx).map(|a| a.offered).unwrap_or(0.0);
            for svc in path {
                if let Some(c) = clients.get_mut(svc.idx()) {
                    *c += offered;
                }
            }
        }
        for w in &obs.services {
            let i = w.service.idx();
            let rate = step(self.rates[i], w.mean_queuing_delay);
            self.rates[i] = rate;
            // The per-client credit floor: the server cannot issue less.
            let issued = rate.max(MIN_CREDIT_RATE_PER_CLIENT * clients[i]);
            self.buckets[i].set_rate_and_burst(issued, (issued * 0.05).max(1.0), obs.now);
        }
    }

    fn name(&self) -> &str {
        "breakwater"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::observe::{ApiWindow, ServiceWindow};
    use cluster::types::{ApiId, BusinessPriority};
    use proptest::prelude::*;

    fn meta() -> RequestMeta {
        RequestMeta {
            api: ApiId(0),
            business: BusinessPriority(0),
            user: 0,
            arrival: SimTime::ZERO,
            deadline: None,
        }
    }

    fn obs(now_s: u64, delays_ms: &[u64]) -> ClusterObservation {
        ClusterObservation {
            now: SimTime::from_secs(now_s),
            window: SimDuration::from_secs(1),
            services: delays_ms
                .iter()
                .enumerate()
                .map(|(i, d)| ServiceWindow {
                    service: ServiceId(i as u32),
                    name: format!("s{i}"),
                    utilization: 0.5,
                    alive_pods: 1,
                    desired_pods: 1,
                    queue_len: 0,
                    mean_queuing_delay: SimDuration::from_millis(*d),
                    started_calls: 100,
                    dropped_calls: 0,
                })
                .collect(),
            apis: Vec::<ApiWindow>::new(),
            api_paths: vec![],
            slo: SimDuration::from_secs(1),
            resilience: Default::default(),
        }
    }

    #[test]
    fn decreases_multiplicatively_under_overload() {
        let mut b = Breakwater::new(1);
        let r0 = b.rate(ServiceId(0));
        b.on_interval(&obs(1, &[100]));
        let r1 = b.rate(ServiceId(0));
        assert!(r1 < r0 * 0.8, "severe overload cuts hard: {r0} → {r1}");
    }

    #[test]
    fn decrease_scales_with_severity() {
        let mut mild = Breakwater::new(1);
        let mut severe = Breakwater::new(1);
        mild.on_interval(&obs(1, &[25]));
        severe.on_interval(&obs(1, &[500]));
        assert!(severe.rate(ServiceId(0)) < mild.rate(ServiceId(0)));
    }

    #[test]
    fn increases_additively_when_healthy() {
        let mut b = Breakwater::new(1);
        // Crash the rate first.
        for s in 1..=20 {
            b.on_interval(&obs(s, &[200]));
        }
        let low = b.rate(ServiceId(0));
        for s in 21..=30 {
            b.on_interval(&obs(s, &[1]));
        }
        let grown = b.rate(ServiceId(0));
        assert!(
            (grown - (low + 10.0 * ADDITIVE_STEP)).abs() < 1e-6,
            "AI growth: {low} → {grown}"
        );
    }

    #[test]
    fn rate_never_falls_below_floor() {
        let mut b = Breakwater::new(1);
        for s in 1..=200 {
            b.on_interval(&obs(s, &[1_000]));
        }
        assert!(b.rate(ServiceId(0)) >= MIN_RATE);
    }

    #[test]
    fn bucket_enforces_the_rate() {
        let mut b = Breakwater::new(1);
        for s in 1..=30 {
            b.on_interval(&obs(s, &[200]));
        }
        let rate = b.rate(ServiceId(0));
        // Offer 10× the rate for 10 s; admitted should track `rate`.
        let mut admitted = 0u64;
        let offers = (rate * 10.0) as u64 * 10;
        for k in 0..offers {
            let t = SimTime::from_secs(30)
                + SimDuration::from_nanos(k * 10_000_000_000 / offers.max(1));
            if b.admit(ServiceId(0), &meta(), t) {
                admitted += 1;
            }
        }
        let admitted_rate = admitted as f64 / 10.0;
        assert!(
            (admitted_rate - rate).abs() / rate < 0.25,
            "admitted {admitted_rate} vs credit rate {rate}"
        );
    }

    #[test]
    fn credit_floor_grows_with_client_count() {
        // Even with a crushed AIMD rate, many clients force issuance.
        let mut b = Breakwater::new(1);
        let mut o = obs(1, &[500]);
        o.api_paths = vec![vec![ServiceId(0)]];
        o.apis = vec![ApiWindow {
            api: ApiId(0),
            name: "a".into(),
            business: BusinessPriority(0),
            offered: 4_000.0,
            admitted: 4_000.0,
            goodput: 100.0,
            slo_violated: 0.0,
            failed: 0.0,
            p50: None,
            p95: None,
            p99: None,
            rate_limit: f64::INFINITY,
        }];
        for s in 1..=30 {
            o.now = SimTime::from_secs(s);
            b.on_interval(&o);
        }
        // AIMD rate is at the floor, but 4000 clients × 0.3 = 1200 rps
        // of credits must still be issued.
        let meta = meta();
        let mut admitted = 0u64;
        for k in 0..20_000u64 {
            let t = SimTime::from_secs(30) + SimDuration::from_nanos(k * 500_000);
            if b.admit(ServiceId(0), &meta, t) {
                admitted += 1;
            }
        }
        let rate = admitted as f64 / 10.0;
        assert!(
            rate > 900.0,
            "credit floor must dominate the crushed AIMD rate, got {rate}"
        );
    }

    #[test]
    fn services_are_independent() {
        let mut b = Breakwater::new(2);
        for s in 1..=10 {
            b.on_interval(&obs(s, &[300, 1]));
        }
        assert!(b.rate(ServiceId(0)) < b.rate(ServiceId(1)));
    }

    proptest! {
        /// [`step`] against the arithmetic `on_interval`
        /// spelt out in place before it (kept here verbatim), over random
        /// delays from none to 100× the target, on it and a microsecond
        /// either side: the same rate, bit for bit, every interval.
        #[test]
        fn step_matches_the_inline_arithmetic(
            delays_us in prop::collection::vec(0u64..2_000_000, 1..300),
            near_target in prop::collection::vec(19_999u64..=20_001, 0..8),
        ) {
            let mut b = Breakwater::new(1);
            let mut inline = INITIAL_RATE;
            for (s, us) in delays_us.iter().chain(&near_target).enumerate() {
                let mut o = obs(s as u64 + 1, &[0]);
                let delay = SimDuration::from_micros(*us);
                o.services[0].mean_queuing_delay = delay;
                b.on_interval(&o);
                let rate = &mut inline;
                if delay <= TARGET_DELAY {
                    *rate += ADDITIVE_STEP;
                } else {
                    let d = delay.as_secs_f64();
                    let dt = TARGET_DELAY.as_secs_f64();
                    let severity = ((d - dt) / d).clamp(0.0, 1.0);
                    *rate *= (1.0 - BETA * severity).max(0.1);
                }
                *rate = rate.max(MIN_RATE);
                prop_assert_eq!(
                    b.rate(ServiceId(0)).to_bits(),
                    inline.to_bits(),
                    "interval {}: delay {} us", s, us
                );
            }
        }
    }
}
