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
//! (β, default 1%), not by a fixed number of levels. That law is stated
//! once, in [`cluster::front::priority`] (the front door runs one gate of
//! it at the entry); here it runs once per service. The engine consults
//! the downstream threshold at dispatch time, which models the
//! piggybacked early rejection exactly.
//!
//! The starvation the paper demonstrates (Figures 4, 11, 12) is inherent
//! to this design: each service sheds by priority using only local
//! signals, so an API throttled at one bottleneck still consumes
//! upstream capacity, and low-priority APIs are shed everywhere at once.

use cluster::admission::AdmissionControl;
use cluster::front::priority::{PriorityConfig, PriorityGate};
use cluster::observe::ClusterObservation;
use cluster::types::{RequestMeta, ServiceId};
use simnet::SimTime;

/// DAGOR admission controller over all services: one [`PriorityGate`]
/// each — the threshold, the two histograms and the α/β adaptation law
/// are the gate's — adapting on that service's own queuing delay.
pub struct Dagor {
    user_levels: u32,
    services: Vec<PriorityGate>,
}

impl Dagor {
    /// DAGOR for `num_services` services, initially admitting everything.
    pub fn new(num_services: usize, cfg: PriorityConfig) -> Self {
        Dagor {
            user_levels: cfg.user_levels,
            services: (0..num_services).map(|_| PriorityGate::new(cfg)).collect(),
        }
    }

    /// Composite priority level of a request (lower = more important).
    /// Unlike the front door's per-component clamp, a business tier past
    /// the configured ones is not folded into the last tier: the gate
    /// clamps the composite, so all of it lands on the single lowest
    /// level.
    pub fn level(&self, meta: &RequestMeta) -> u32 {
        u32::from(meta.business.0) * self.user_levels + u32::from(meta.user)
    }

    /// Current admission threshold of a service (for tests/inspection).
    pub fn threshold(&self, svc: ServiceId) -> u32 {
        self.services[svc.idx()].threshold()
    }
}

impl AdmissionControl for Dagor {
    fn admit(&mut self, service: ServiceId, meta: &RequestMeta, _now: SimTime) -> bool {
        let level = self.level(meta);
        self.services[service.idx()].admit(level)
    }

    fn on_interval(&mut self, obs: &ClusterObservation) {
        for w in &obs.services {
            let gate = &mut self.services[w.service.idx()];
            gate.adapt(w.mean_queuing_delay > gate.queuing_delay_threshold());
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
    use proptest::prelude::*;
    use rand::Rng;
    use simnet::SimDuration;

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
        let d = Dagor::new(1, PriorityConfig::default());
        assert!(d.level(&meta(0, 127)) < d.level(&meta(1, 0)));
        assert!(d.level(&meta(1, 10)) < d.level(&meta(1, 11)));
    }

    #[test]
    fn admits_everything_initially() {
        let mut d = Dagor::new(2, PriorityConfig::default());
        assert!(d.admit(ServiceId(0), &meta(7, 127), SimTime::ZERO));
    }

    #[test]
    fn sheds_alpha_fraction_of_observed_load() {
        let mut d = Dagor::new(1, PriorityConfig::default());
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
        let mut d = Dagor::new(1, PriorityConfig::default());
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
        let mut d = Dagor::new(1, PriorityConfig::default());
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
        let mut d = Dagor::new(1, PriorityConfig::default());
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
        let mut d = Dagor::new(2, PriorityConfig::default());
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
        let mut d = Dagor::new(1, PriorityConfig::default());
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

    /// `Dagor` as it stood before it became one `PriorityGate` per
    /// service — its own histograms and its own copy of the α/β walk,
    /// verbatim — kept as the reference the proptest below compares with.
    struct OwnWalk {
        cfg: PriorityConfig,
        levels: u32,
        services: Vec<SvcState>,
    }

    struct SvcState {
        threshold: u32,
        seen: Vec<u32>,
        admitted: Vec<u32>,
    }

    impl OwnWalk {
        fn new(num_services: usize, cfg: PriorityConfig) -> Self {
            let levels = cfg.business_tiers * 128;
            OwnWalk {
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

        fn admit(&mut self, service: ServiceId, meta: &RequestMeta) -> bool {
            let level =
                (u32::from(meta.business.0) * 128 + u32::from(meta.user)).min(self.levels - 1);
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
                        st.threshold = new_th.min(st.threshold.saturating_sub(1));
                    } else {
                        st.threshold = st.threshold.saturating_sub(1);
                    }
                } else if st.threshold < self.levels {
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
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random programs over two services — business tiers past the
        /// configured ones and user bytes past 127 included, delays on
        /// both sides of (and on) the 20 ms threshold — admit the same
        /// requests and hold the same thresholds after every interval as
        /// the walk `Dagor` used to carry itself.
        #[test]
        fn one_gate_per_service_matches_the_own_walk(
            business_tiers in 1u32..=8,
            alpha in 0.0f64..0.6,
            beta in 0.0f64..0.3,
            program in prop::collection::vec(
                (
                    prop::collection::vec((0u32..2, 0u8..12, any::<u8>()), 0..300),
                    0u64..45,
                    0u64..45,
                ),
                1..40,
            ),
        ) {
            let cfg = PriorityConfig {
                business_tiers,
                alpha,
                beta,
                ..PriorityConfig::default()
            };
            let mut new = Dagor::new(2, cfg);
            let mut old = OwnWalk::new(2, cfg);
            for (i, (requests, d0, d1)) in program.iter().enumerate() {
                for (svc, business, user) in requests {
                    let (svc, meta) = (ServiceId(*svc), meta(*business, *user));
                    prop_assert_eq!(
                        new.admit(svc, &meta, SimTime::ZERO),
                        old.admit(svc, &meta),
                        "interval {}: admit of ({}, {}) at {:?}", i, business, user, svc
                    );
                }
                let obs = obs_with_delay(&[*d0, *d1]);
                new.on_interval(&obs);
                old.on_interval(&obs);
                for svc in [ServiceId(0), ServiceId(1)] {
                    prop_assert_eq!(
                        new.threshold(svc),
                        old.services[svc.idx()].threshold,
                        "interval {}: threshold of {:?}", i, svc
                    );
                }
            }
        }
    }
}
