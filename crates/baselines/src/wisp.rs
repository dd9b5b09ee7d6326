//! WISP: distributed rate limiting pushed toward the upper layers.
//!
//! Re-implementation of WISP [Suresh et al., SoCC '17] as the paper
//! characterizes it (§7): "WISP collects downstream microservices'
//! admission rates and applies a priori weights to make rate-limit
//! decisions at the upper microservices\[,\] trying to rate limit at the
//! upper layer as much as possible. Nevertheless, their request drop
//! policy makes them vulnerable to the random sub-request drop identified
//! by DAGOR[, and] WISP does not consider the contending relationship
//! between client requests … leaving it vulnerable to a starvation
//! problem."
//!
//! Model: every service runs a delay-driven AIMD rate `R_s` (its own
//! protection), and each interval the *effective* limit
//! `E_s = min(R_s, min_child E_child / w(s, child))` propagates bottleneck
//! capacity up the call graph using the a-priori call weights `w` derived
//! from the execution paths. Admission enforces `E_s` with a token bucket
//! at dispatch time, so most drops happen at the top of the tree — but
//! drops remain identity-blind (random with respect to requests and
//! APIs), preserving the weaknesses the paper analyzes.
//!
//! WISP is discussed but not evaluated in the paper; this implementation
//! exists as an *extension* comparator (see the fig. 8 extension row in
//! EXPERIMENTS.md).

use crate::breakwater::{self, INITIAL_RATE};
use cluster::admission::AdmissionControl;
use cluster::observe::ClusterObservation;
use cluster::types::{RequestMeta, ServiceId};
use cluster::Topology;
use simnet::{SimTime, TokenBucket};
use std::collections::HashMap;

/// WISP admission across all services.
pub struct Wisp {
    /// Local AIMD rates, under Breakwater's delay law from its start
    /// rate (the per-client credit floor is Breakwater's issuance and
    /// plays no part here).
    rates: Vec<f64>,
    /// Effective (bottleneck-propagated) rates.
    effective: Vec<f64>,
    /// `children[s]` = `(child, weight)`: average calls to `child` per
    /// request processed at `s`, the a-priori weights.
    children: Vec<Vec<(ServiceId, f64)>>,
    buckets: Vec<TokenBucket>,
}

impl Wisp {
    /// Build WISP for a topology (the call-graph weights come from the
    /// execution paths, which WISP assumes known a priori).
    pub fn new(topo: &Topology) -> Self {
        let n = topo.num_services();
        // Count parent→child call edges over all paths, weighted by
        // branch weight, normalized per parent visit.
        let mut edge_calls: HashMap<(ServiceId, ServiceId), f64> = HashMap::new();
        let mut visits: HashMap<ServiceId, f64> = HashMap::new();
        for (_, api) in topo.apis() {
            let wsum: f64 = api.paths.iter().map(|(w, _)| *w).sum();
            for (w, root) in &api.paths {
                let share = if wsum > 0.0 { w / wsum } else { 0.0 };
                // Walk the tree, accumulating weighted visits and edges.
                let mut stack = vec![root];
                while let Some(node) = stack.pop() {
                    *visits.entry(node.service).or_insert(0.0) += share;
                    for c in &node.children {
                        *edge_calls.entry((node.service, c.service)).or_insert(0.0) += share;
                        stack.push(c);
                    }
                }
            }
        }
        let mut children: Vec<Vec<(ServiceId, f64)>> = vec![Vec::new(); n];
        for ((parent, child), calls) in edge_calls {
            let v = visits.get(&parent).copied().unwrap_or(1.0).max(1e-9);
            children[parent.idx()].push((child, calls / v));
        }
        for c in children.iter_mut() {
            c.sort_by_key(|(s, _)| *s);
        }
        Wisp {
            rates: vec![INITIAL_RATE; n],
            effective: vec![INITIAL_RATE; n],
            buckets: (0..n)
                .map(|_| TokenBucket::new(INITIAL_RATE, INITIAL_RATE * 0.05, SimTime::ZERO))
                .collect(),
            children,
        }
    }

    /// Current effective (propagated) rate of a service.
    pub fn effective_rate(&self, svc: ServiceId) -> f64 {
        self.effective[svc.idx()]
    }

    /// Current local AIMD rate of a service.
    pub fn local_rate(&self, svc: ServiceId) -> f64 {
        self.rates[svc.idx()]
    }

    /// Propagate bottleneck rates upward:
    /// `E_s = min(R_s, min_child E_child / w)`. The call graph is a DAG,
    /// so a few fixed-point sweeps converge.
    fn propagate(&mut self) {
        self.effective.copy_from_slice(&self.rates);
        for _ in 0..8 {
            let mut changed = false;
            for s in 0..self.children.len() {
                let mut e = self.rates[s];
                for (child, w) in &self.children[s] {
                    if *w > 1e-9 {
                        e = e.min(self.effective[child.idx()] / w);
                    }
                }
                if (e - self.effective[s]).abs() > 1e-9 {
                    self.effective[s] = e;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }
}

impl AdmissionControl for Wisp {
    fn admit(&mut self, service: ServiceId, _meta: &RequestMeta, now: SimTime) -> bool {
        self.buckets[service.idx()].try_admit(now)
    }

    fn on_interval(&mut self, obs: &ClusterObservation) {
        // Local AIMD on queueing delay: Breakwater's law.
        for w in &obs.services {
            let i = w.service.idx();
            self.rates[i] = breakwater::step(self.rates[i], w.mean_queuing_delay);
        }
        // Push bottleneck limits toward the entry.
        self.propagate();
        for (i, bucket) in self.buckets.iter_mut().enumerate() {
            let e = self.effective[i];
            bucket.set_rate_and_burst(e, (e * 0.05).max(1.0), obs.now);
        }
    }

    fn name(&self) -> &str {
        "wisp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::observe::{ApiWindow, ServiceWindow};
    use cluster::{ApiSpec, CallNode, ServiceSpec};
    use proptest::prelude::*;
    use simnet::SimDuration;

    fn chain_topo() -> (Topology, ServiceId, ServiceId, ServiceId) {
        // front → mid → back, one call each.
        let mut t = Topology::new("chain");
        let front = t.add_service(ServiceSpec::new("front", 4));
        let mid = t.add_service(ServiceSpec::new("mid", 2));
        let back = t.add_service(ServiceSpec::new("back", 1));
        t.add_api(ApiSpec::single(
            "x",
            CallNode::with_children(
                front,
                SimDuration::from_millis(1),
                vec![CallNode::with_children(
                    mid,
                    SimDuration::from_millis(1),
                    vec![CallNode::leaf(back, SimDuration::from_millis(1))],
                )],
            ),
        ));
        (t, front, mid, back)
    }

    fn obs(delays_ms: &[u64]) -> ClusterObservation {
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

    #[test]
    fn weights_derive_from_paths() {
        let (t, front, mid, back) = chain_topo();
        let w = Wisp::new(&t);
        assert_eq!(w.children[front.idx()], vec![(mid, 1.0)]);
        assert_eq!(w.children[mid.idx()], vec![(back, 1.0)]);
        assert!(w.children[back.idx()].is_empty());
    }

    #[test]
    fn bottleneck_propagates_to_entry() {
        let (t, front, _mid, back) = chain_topo();
        let mut w = Wisp::new(&t);
        // Only the back service is overloaded.
        for _ in 0..10 {
            w.on_interval(&obs(&[1, 1, 200]));
        }
        let e_back = w.effective_rate(back);
        let e_front = w.effective_rate(front);
        assert!(
            (e_front - e_back).abs() < 1e-6,
            "entry limit tracks the downstream bottleneck: {e_front} vs {e_back}"
        );
        assert!(
            w.local_rate(front) > w.effective_rate(front),
            "front's own rate stays high; the propagated one binds"
        );
    }

    #[test]
    fn branch_weights_split_effective_rates() {
        // front calls `a` on 30% of requests (branch weight 0.3).
        let mut t = Topology::new("branch");
        let front = t.add_service(ServiceSpec::new("front", 4));
        let a = t.add_service(ServiceSpec::new("a", 1));
        t.add_api(ApiSpec::branching(
            "x",
            vec![
                (
                    0.3,
                    CallNode::with_children(
                        front,
                        SimDuration::from_millis(1),
                        vec![CallNode::leaf(a, SimDuration::from_millis(1))],
                    ),
                ),
                (0.7, CallNode::leaf(front, SimDuration::from_millis(1))),
            ],
        ));
        let mut w = Wisp::new(&t);
        for _ in 0..10 {
            w.on_interval(&obs(&[1, 300]));
        }
        // Only 30% of front's requests hit `a`, so front may run ~3.3×
        // faster than a's limit.
        let ratio = w.effective_rate(front) / w.effective_rate(a);
        assert!(
            (3.0..3.6).contains(&ratio),
            "weighted propagation: front/a = {ratio}"
        );
    }

    #[test]
    fn healthy_services_recover_additively() {
        let (t, front, _, _) = chain_topo();
        let mut w = Wisp::new(&t);
        for _ in 0..20 {
            w.on_interval(&obs(&[1, 1, 300]));
        }
        let low = w.effective_rate(front);
        for _ in 0..20 {
            w.on_interval(&obs(&[1, 1, 1]));
        }
        assert!(w.effective_rate(front) > low, "recovery after relief");
    }

    #[test]
    fn admission_enforces_effective_rate() {
        let (t, front, _, back) = chain_topo();
        let mut w = Wisp::new(&t);
        for _ in 0..30 {
            w.on_interval(&obs(&[1, 1, 500]));
        }
        let rate = w.effective_rate(front);
        let meta = RequestMeta {
            api: cluster::ApiId(0),
            business: cluster::types::BusinessPriority(0),
            user: 0,
            arrival: SimTime::ZERO,
            deadline: None,
        };
        let mut admitted = 0u64;
        let offers = 20_000u64;
        for k in 0..offers {
            let t = SimTime::from_secs(30) + SimDuration::from_nanos(k * 10_000_000_000 / offers);
            if w.admit(front, &meta, t) {
                admitted += 1;
            }
        }
        let admitted_rate = admitted as f64 / 10.0;
        assert!(
            (admitted_rate - rate).abs() / rate < 0.3,
            "bucket ≈ effective rate: {admitted_rate} vs {rate}"
        );
        let _ = back;
    }

    proptest! {
        /// WISP's local rates against the AIMD it carried inline, with
        /// the five defaults `WispConfig` restated (both verbatim here):
        /// over random per-service delays the three local rates agree
        /// bit for bit every interval, so sharing Breakwater's law moved
        /// nothing.
        #[test]
        fn local_rates_match_the_inline_arithmetic(
            delays_us in prop::collection::vec(
                (0u64..2_000_000, 0u64..60_000, 19_999u64..=20_001),
                1..200,
            ),
        ) {
            let (target_delay, additive_step, beta, initial_rate, min_rate) =
                (SimDuration::from_millis(20), 40.0, 0.4, 5_000.0, 10.0);
            let (t, ..) = chain_topo();
            let mut w = Wisp::new(&t);
            let mut rates = [initial_rate; 3];
            for (s, (a, b, c)) in delays_us.iter().enumerate() {
                let mut o = obs(&[0, 0, 0]);
                for (i, us) in [a, b, c].into_iter().enumerate() {
                    let delay = SimDuration::from_micros(*us);
                    o.services[i].mean_queuing_delay = delay;
                    if delay <= target_delay {
                        rates[i] += additive_step;
                    } else {
                        let d = delay.as_secs_f64();
                        let dt = target_delay.as_secs_f64();
                        let severity = ((d - dt) / d).clamp(0.0, 1.0);
                        rates[i] *= (1.0 - beta * severity).max(0.1);
                    }
                    rates[i] = rates[i].max(min_rate);
                }
                w.on_interval(&o);
                for (i, rate) in rates.iter().enumerate() {
                    prop_assert_eq!(
                        w.local_rate(ServiceId(i as u32)).to_bits(),
                        rate.to_bits(),
                        "interval {}: service {}", s, i
                    );
                }
            }
        }
    }
}
