//! DAGOR: priority-threshold admission control per microservice.
//!
//! Re-implementation of WeChat's overload controller [Zhou et al., SoCC
//! '18] as the paper deploys it (§5): "every request is assigned a
//! pre-determined business priority for API type and random user priority
//! at the entry points. For every second, each pod sets a priority
//! threshold according to a queuing delay and the number of incoming
//! requests during the last second. The priority threshold is piggybacked
//! to its upstream service."
//!
//! A request carries a composite priority `level = business · 128 + user`
//! (lower = more important; the user part is drawn uniformly in `0..=127`
//! at entry and inherited by all sub-requests). Each service keeps an
//! admission threshold over levels and, critically, a **histogram of the
//! levels it saw last second** — WeChat adjusts the threshold so that a
//! *fraction of the observed load* is shed (α, default 5%) or re-admitted
//! (β, default 1%), not by a fixed number of levels. The engine consults
//! the downstream threshold at dispatch time, which models the
//! piggybacked early rejection exactly.
//!
//! The starvation the paper demonstrates (Figures 4, 11, 12) is inherent
//! to this design: each service sheds by priority using only local
//! signals, so an API throttled at one bottleneck still consumes
//! upstream capacity, and low-priority APIs are shed everywhere at once.

use cluster::admission::AdmissionControl;
use cluster::observe::ClusterObservation;
use cluster::types::{RequestMeta, ServiceId};
use simnet::{SimDuration, SimTime};

/// Levels per business priority tier (user priorities 0..=127).
pub const USER_LEVELS: u32 = 128;

/// DAGOR tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct DagorConfig {
    /// Queueing delay above which a service considers itself overloaded
    /// (WeChat uses ~20 ms of average queuing time).
    pub queuing_delay_threshold: SimDuration,
    /// Fraction of last-second load shed when overloaded (paper/Fig. 13:
    /// "static decisions of 0.05 multiplicative decreases").
    pub alpha: f64,
    /// Fraction of load re-admitted when healthy (paper: 0.01).
    pub beta: f64,
    /// Number of business tiers (level space is tiers × 128).
    pub business_tiers: u32,
}

impl Default for DagorConfig {
    fn default() -> Self {
        DagorConfig {
            queuing_delay_threshold: SimDuration::from_millis(20),
            alpha: 0.05,
            beta: 0.01,
            business_tiers: 8,
        }
    }
}

/// Per-service DAGOR state.
#[derive(Clone, Debug)]
struct SvcState {
    /// Admit levels strictly below this threshold.
    threshold: u32,
    /// Histogram of levels seen (admitted + rejected) last second.
    seen: Vec<u32>,
    /// Of which admitted.
    admitted: Vec<u32>,
}

/// DAGOR admission controller over all services.
#[derive(Clone, Debug)]
pub struct Dagor {
    cfg: DagorConfig,
    levels: u32,
    services: Vec<SvcState>,
}

impl Dagor {
    /// DAGOR for `num_services` services, initially admitting everything.
    pub fn new(num_services: usize, cfg: DagorConfig) -> Self {
        let levels = cfg.business_tiers * USER_LEVELS;
        Dagor {
            cfg,
            levels,
            services: (0..num_services)
                .map(|_| SvcState {
                    threshold: levels,
                    seen: vec![0; levels as usize],
                    admitted: vec![0; levels as usize],
                })
                .collect(),
        }
    }

    /// Composite priority level of a request (lower = more important).
    pub fn level(meta: &RequestMeta) -> u32 {
        u32::from(meta.business.0) * USER_LEVELS + u32::from(meta.user)
    }

    /// Current admission threshold of a service (for tests/inspection).
    pub fn threshold(&self, svc: ServiceId) -> u32 {
        self.services[svc.idx()].threshold
    }
}

impl AdmissionControl for Dagor {
    fn admit(&mut self, service: ServiceId, meta: &RequestMeta, _now: SimTime) -> bool {
        let level = Self::level(meta).min(self.levels - 1);
        let st = &mut self.services[service.idx()];
        st.seen[level as usize] += 1;
        let ok = level < st.threshold;
        if ok {
            st.admitted[level as usize] += 1;
        }
        ok
    }

    fn on_interval(&mut self, obs: &ClusterObservation) {
        for w in &obs.services {
            let st = &mut self.services[w.service.idx()];
            let overloaded = w.mean_queuing_delay > self.cfg.queuing_delay_threshold;
            let admitted_total: u64 = st.admitted.iter().map(|c| u64::from(*c)).sum();
            if overloaded {
                // Shed the top α fraction of last second's admitted load:
                // walk levels ascending until (1-α) of it is covered.
                if admitted_total > 0 {
                    let keep = (admitted_total as f64 * (1.0 - self.cfg.alpha)) as u64;
                    let mut acc = 0u64;
                    let mut new_th = 0u32;
                    for (lvl, c) in st.admitted.iter().enumerate() {
                        if acc >= keep {
                            break;
                        }
                        acc += u64::from(*c);
                        new_th = lvl as u32 + 1;
                    }
                    // Always make progress by at least one level.
                    st.threshold = new_th.min(st.threshold.saturating_sub(1));
                } else {
                    st.threshold = st.threshold.saturating_sub(1);
                }
            } else if st.threshold < self.levels {
                // Re-admit ≈β of the load: extend the threshold upward
                // until the rejected histogram would add β more requests
                // (at least one level so recovery always proceeds).
                let extra_target = ((admitted_total as f64 * self.cfg.beta) as u64).max(1);
                let mut acc = 0u64;
                let mut th = st.threshold;
                while th < self.levels {
                    acc += u64::from(st.seen[th as usize]);
                    th += 1;
                    if acc >= extra_target {
                        break;
                    }
                }
                st.threshold = th;
            }
            st.seen.iter_mut().for_each(|c| *c = 0);
            st.admitted.iter_mut().for_each(|c| *c = 0);
        }
    }

    fn name(&self) -> &str {
        "dagor"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::observe::{ApiWindow, ServiceWindow};
    use cluster::types::{ApiId, BusinessPriority};
    use rand::Rng;

    fn meta(business: u8, user: u8) -> RequestMeta {
        RequestMeta {
            api: ApiId(0),
            business: BusinessPriority(business),
            user,
            arrival: SimTime::ZERO,
            deadline: None,
        }
    }

    fn obs_with_delay(delays_ms: &[u64]) -> ClusterObservation {
        ClusterObservation {
            now: SimTime::from_secs(1),
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

    /// Offer `n` uniform-priority requests of one business tier.
    fn offer(d: &mut Dagor, svc: ServiceId, business: u8, n: u32, rng: &mut impl Rng) -> u32 {
        let mut admitted = 0;
        for _ in 0..n {
            if d.admit(svc, &meta(business, rng.gen_range(0..=127)), SimTime::ZERO) {
                admitted += 1;
            }
        }
        admitted
    }

    #[test]
    fn level_orders_business_before_user() {
        assert!(Dagor::level(&meta(0, 127)) < Dagor::level(&meta(1, 0)));
        assert!(Dagor::level(&meta(1, 10)) < Dagor::level(&meta(1, 11)));
    }

    #[test]
    fn admits_everything_initially() {
        let mut d = Dagor::new(2, DagorConfig::default());
        assert!(d.admit(ServiceId(0), &meta(7, 127), SimTime::ZERO));
    }

    #[test]
    fn sheds_alpha_fraction_of_observed_load() {
        let mut d = Dagor::new(1, DagorConfig::default());
        let mut rng = simnet::rng::fork(1, "t");
        let svc = ServiceId(0);
        // One overloaded interval with 10k single-tier requests: the
        // threshold should move into the occupied band, shedding ≈5%.
        offer(&mut d, svc, 0, 10_000, &mut rng);
        d.on_interval(&obs_with_delay(&[50]));
        let th = d.threshold(svc);
        assert!(
            th < 128,
            "threshold must cut into the occupied tier, got {th}"
        );
        let admitted = offer(&mut d, svc, 0, 10_000, &mut rng);
        let frac = f64::from(admitted) / 10_000.0;
        assert!(
            (0.92..=0.98).contains(&frac),
            "≈95% admitted after one α=0.05 cut, got {frac}"
        );
    }

    #[test]
    fn repeated_overload_converges_to_load_fraction() {
        // 20 overloaded seconds at α=0.05 → ≈0.95^20 ≈ 36% admitted.
        let mut d = Dagor::new(1, DagorConfig::default());
        let mut rng = simnet::rng::fork(2, "t");
        let svc = ServiceId(0);
        let mut last = 0.0;
        for _ in 0..20 {
            let admitted = offer(&mut d, svc, 0, 5_000, &mut rng);
            last = f64::from(admitted) / 5_000.0;
            d.on_interval(&obs_with_delay(&[50]));
        }
        assert!(
            (0.25..=0.50).contains(&last),
            "≈0.95^19 ≈ 38% admitted, got {last}"
        );
    }

    #[test]
    fn recovery_readmits_beta_fraction() {
        let mut d = Dagor::new(1, DagorConfig::default());
        let mut rng = simnet::rng::fork(3, "t");
        let svc = ServiceId(0);
        for _ in 0..20 {
            offer(&mut d, svc, 0, 5_000, &mut rng);
            d.on_interval(&obs_with_delay(&[50]));
        }
        let low = d.threshold(svc);
        // Healthy intervals: threshold climbs back (at least one level
        // per interval, ≈β of load when the histogram is populated).
        for _ in 0..300 {
            offer(&mut d, svc, 0, 5_000, &mut rng);
            d.on_interval(&obs_with_delay(&[1]));
        }
        let high = d.threshold(svc);
        assert!(high > low, "threshold recovers: {low} → {high}");
        assert!(high <= 8 * 128);
    }

    #[test]
    fn sheds_low_business_priority_first() {
        let mut d = Dagor::new(1, DagorConfig::default());
        let mut rng = simnet::rng::fork(4, "t");
        let svc = ServiceId(0);
        // Two tiers offering equally; sustained overload. Each interval
        // sheds 5% of observed load from the top of the level space, so
        // the low tier empties long before the high tier.
        for _ in 0..30 {
            offer(&mut d, svc, 0, 2_000, &mut rng);
            offer(&mut d, svc, 5, 2_000, &mut rng);
            d.on_interval(&obs_with_delay(&[50]));
        }
        let high_adm = offer(&mut d, svc, 0, 1_000, &mut rng);
        let low_adm = offer(&mut d, svc, 5, 1_000, &mut rng);
        assert!(
            high_adm > 0,
            "high business priority still partially admitted"
        );
        assert_eq!(low_adm, 0, "low business priority fully shed first");
    }

    #[test]
    fn thresholds_are_per_service() {
        let mut d = Dagor::new(2, DagorConfig::default());
        let mut rng = simnet::rng::fork(5, "t");
        for _ in 0..10 {
            offer(&mut d, ServiceId(0), 0, 1_000, &mut rng);
            offer(&mut d, ServiceId(1), 0, 1_000, &mut rng);
            d.on_interval(&obs_with_delay(&[50, 1]));
        }
        assert!(d.threshold(ServiceId(0)) < d.threshold(ServiceId(1)));
    }

    #[test]
    fn admission_is_monotone_in_priority() {
        let mut d = Dagor::new(1, DagorConfig::default());
        let mut rng = simnet::rng::fork(6, "t");
        for _ in 0..15 {
            offer(&mut d, ServiceId(0), 3, 3_000, &mut rng);
            d.on_interval(&obs_with_delay(&[50]));
        }
        let mut last_admitted = true;
        for biz in 0..8u8 {
            let admitted = d.admit(ServiceId(0), &meta(biz, 64), SimTime::ZERO);
            assert!(
                last_admitted || !admitted,
                "admission must be monotone in priority"
            );
            last_admitted = admitted;
        }
    }
}
