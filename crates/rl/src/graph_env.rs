//! The paper's lightweight DAG simulator for pre-training (§4.3).
//!
//! "The simulator contains DAGs, each DAG represents an API execution
//! path, and each node in a DAG represents a microservice. Each node is
//! assigned with latency and load capacity, which is randomly generated
//! within a range. The node is classified as overloaded when requests
//! exceed its load capacity." Node dynamics follow the paper's three
//! rules: under overload, more input → higher latency and *lower*
//! goodput; less input → lower latency and higher goodput; without
//! overload, latency is low and goodput equals the incoming rate. Latency
//! and goodput carry "random noise proportional to its scale of overload
//! conditions".
//!
//! Hyper-parameters follow "Base model training": 1–3 DAGs of 1–5 nodes
//! each per episode. Mid-episode capacity jumps emulate autoscaler
//! allocations so the pre-trained policy also learns rapid *recovery*
//! (§6.3 depends on this).

use crate::env::{self, RlEnv, StepResult};
use rand::rngs::SmallRng;
use rand::Rng;

/// Latency SLO inside the simulator (1 s, like the applications).
const SLO: f64 = 1.0;

/// One simulated microservice node.
#[derive(Clone, Debug)]
struct Node {
    /// Serving capacity, requests/s.
    capacity: f64,
    /// Base latency when idle, seconds.
    base_latency: f64,
    /// Backlog in request-units; grows while input exceeds capacity.
    backlog: f64,
}

impl Node {
    /// Advance one control interval with `input` rps; returns
    /// `(output_rps, latency_s)` including overload noise.
    fn step(&mut self, input: f64, rng: &mut SmallRng) -> (f64, f64) {
        let over = if self.capacity > 0.0 {
            input / self.capacity
        } else {
            f64::INFINITY
        };
        // Backlog integrates the excess; drains when under capacity.
        self.backlog = (self.backlog + (input - self.capacity)).max(0.0);
        // Rule 3: not overloaded and no backlog → output = input, low lat.
        // Rules 1–2: overloaded → output degrades with over-rate (more
        // input, less goodput), latency grows with the queue.
        let (output, latency) = if over <= 1.0 && self.backlog <= 0.0 {
            (input, self.base_latency)
        } else {
            let out = self.capacity / over.max(1.0).sqrt();
            let lat = self.base_latency + self.backlog / self.capacity.max(1.0);
            (out, lat)
        };
        // Noise proportional to the scale of overload.
        let noise_scale = (over - 1.0).clamp(0.0, 3.0);
        let noisy_out = output * (1.0 + 0.05 * noise_scale * (rng.gen::<f64>() - 0.5));
        let noisy_lat = latency * (1.0 + 0.10 * noise_scale * (rng.gen::<f64>() - 0.5));
        (noisy_out.max(0.0), noisy_lat.max(0.0))
    }
}

/// One DAG = one API execution path (a chain of nodes).
#[derive(Clone, Debug)]
struct Dag {
    nodes: Vec<Node>,
    /// Share of the admitted load this DAG receives.
    weight: f64,
}

/// The pre-training environment. Each episode draws fresh DAGs, node
/// characteristics and demand; the agent controls one aggregate rate
/// limit, exactly the quantity a per-cluster TopFull controller moves.
/// `reset` sets every field, so a new environment is all zeros.
#[derive(Default)]
pub struct GraphEnv {
    dags: Vec<Dag>,
    /// Total offered demand (rps).
    demand: f64,
    /// The rate limit under control.
    limit: f64,
    /// Previous total goodput, for ΔGoodput.
    prev_goodput: f64,
    /// Normalization scale for rewards.
    scale: f64,
    /// Step at which capacity jumps (autoscaler allocation), if any.
    scale_up_at: Option<usize>,
    step_count: usize,
}

impl GraphEnv {
    pub fn new() -> Self {
        Self::default()
    }

    /// Run the DAGs for one interval at the current limit; returns
    /// `(total_goodput, max_latency)`.
    fn simulate(&mut self, rng: &mut SmallRng) -> (f64, f64) {
        let admitted = self.demand.min(self.limit);
        let mut total_good = 0.0;
        let mut max_lat: f64 = 0.0;
        let wsum: f64 = self.dags.iter().map(|d| d.weight).sum();
        for d in self.dags.iter_mut() {
            let mut rate = admitted * d.weight / wsum;
            let mut lat_sum = 0.0;
            for n in d.nodes.iter_mut() {
                let (out, lat) = n.step(rate, rng);
                rate = rate.min(out);
                lat_sum += lat;
            }
            // Responses beyond the SLO are not good.
            let good = if lat_sum <= SLO { rate } else { 0.0 };
            total_good += good;
            max_lat = max_lat.max(lat_sum);
        }
        (total_good, max_lat)
    }

    /// Bottleneck capacity across DAGs (for tests/diagnostics): the total
    /// load at which some node first saturates, approximated as the sum of
    /// per-DAG minimum capacities.
    pub fn bottleneck_capacity(&self) -> f64 {
        let wsum: f64 = self.dags.iter().map(|d| d.weight).sum();
        self.dags
            .iter()
            .map(|d| {
                let min_cap = d
                    .nodes
                    .iter()
                    .map(|n| n.capacity)
                    .fold(f64::INFINITY, f64::min);
                min_cap * wsum / d.weight
            })
            .fold(f64::INFINITY, f64::min)
    }
}

impl RlEnv for GraphEnv {
    fn reset(&mut self, rng: &mut SmallRng) -> [f64; 2] {
        // "we used 1-3 for the number of DAGs and 1-5 nodes for each DAG".
        let n_dags = rng.gen_range(1..=3);
        self.dags = (0..n_dags)
            .map(|_| Dag {
                nodes: (0..rng.gen_range(1..=5))
                    .map(|_| Node {
                        capacity: rng.gen_range(100.0..1000.0),
                        base_latency: rng.gen_range(0.001..0.020),
                        backlog: 0.0,
                    })
                    .collect(),
                weight: rng.gen_range(0.5..2.0),
            })
            .collect();
        let cap = self.bottleneck_capacity();
        // Overload scenarios: demand usually exceeds the bottleneck.
        self.demand = cap * rng.gen_range(0.8..3.0);
        // Initial limit anywhere from deep throttling to wide open.
        self.limit = cap * rng.gen_range(0.2..2.5);
        self.scale = cap.max(1.0);
        self.scale_up_at = rng.gen_bool(0.4).then(|| rng.gen_range(15..40));
        self.step_count = 0;
        // Pre-existing congestion when the limit is too high.
        let (g, l) = self.simulate(rng);
        self.prev_goodput = g;
        env::state(g, self.limit, l, SLO)
    }

    fn step(&mut self, action: f64, rng: &mut SmallRng) -> StepResult {
        self.step_count += 1;
        // Autoscaler allocation lands: capacities jump.
        if self.scale_up_at == Some(self.step_count) {
            let k = rng.gen_range(1.5..3.0);
            for d in self.dags.iter_mut() {
                for n in d.nodes.iter_mut() {
                    n.capacity *= k;
                }
            }
        }
        self.limit = env::step_limit(self.limit, action, self.scale);
        let (good, lat) = self.simulate(rng);
        let reward = env::reward(good - self.prev_goodput, self.scale, lat, SLO);
        self.prev_goodput = good;
        StepResult {
            state: env::state(good, self.limit, lat, SLO),
            reward,
            done: self.step_count >= self.horizon(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn reset_draws_paper_scale_dags() {
        let mut env = GraphEnv::new();
        let mut r = rng(1);
        for _ in 0..50 {
            env.reset(&mut r);
            assert!((1..=3).contains(&env.dags.len()));
            for d in &env.dags {
                assert!((1..=5).contains(&d.nodes.len()));
            }
        }
    }

    #[test]
    fn state_is_bounded() {
        let mut env = GraphEnv::new();
        let mut r = rng(2);
        let s0 = env.reset(&mut r);
        assert!((0.0..=2.0).contains(&s0[0]));
        assert!((0.0..=5.0).contains(&s0[1]));
        for _ in 0..50 {
            let res = env.step(0.5, &mut r);
            assert!((0.0..=2.0).contains(&res.state[0]));
            assert!((0.0..=5.0).contains(&res.state[1]));
            assert!(res.reward.is_finite());
        }
    }

    #[test]
    fn throttling_reduces_latency_under_overload() {
        let mut env = GraphEnv::new();
        let mut r = rng(3);
        env.reset(&mut r);
        // Force a severe overload state.
        env.limit = env.bottleneck_capacity() * 3.0;
        env.demand = env.limit;
        for _ in 0..5 {
            env.step(0.0, &mut r);
        }
        let lat_over = env.step(0.0, &mut r).state[1];
        // Now throttle hard for a while.
        for _ in 0..20 {
            env.step(-0.5, &mut r);
        }
        let lat_throttled = env.step(0.0, &mut r).state[1];
        assert!(
            lat_throttled < lat_over,
            "throttling must drain backlog: {lat_over} → {lat_throttled}"
        );
    }

    #[test]
    fn goodput_ratio_near_one_when_under_capacity() {
        let mut env = GraphEnv::new();
        let mut r = rng(4);
        env.reset(&mut r);
        env.limit = env.bottleneck_capacity() * 0.5;
        env.demand = env.limit * 2.0; // plenty of demand, limit binds
                                      // Drain any initial backlog.
        for d in env.dags.iter_mut() {
            for n in d.nodes.iter_mut() {
                n.backlog = 0.0;
            }
        }
        let res = env.step(0.0, &mut r);
        assert!(
            res.state[0] > 0.9,
            "below capacity goodput ≈ limit, ratio {}",
            res.state[0]
        );
        assert!(res.state[1] < 0.2, "low latency under capacity");
    }

    #[test]
    fn increasing_into_overload_is_penalized() {
        let mut env = GraphEnv::new();
        let mut r = rng(5);
        env.reset(&mut r);
        let cap = env.bottleneck_capacity();
        env.limit = cap * 0.9;
        env.demand = cap * 4.0;
        // Ramp the limit way past capacity.
        let mut last = 0.0;
        for _ in 0..15 {
            last = env.step(0.5, &mut r).reward;
        }
        assert!(last < 0.0, "sustained overload must earn negative reward");
    }

    #[test]
    fn episode_terminates_at_horizon() {
        let mut env = GraphEnv::new();
        let mut r = rng(6);
        env.reset(&mut r);
        for i in 1..=env.horizon() {
            let res = env.step(0.0, &mut r);
            assert_eq!(res.done, i == env.horizon());
        }
    }

    #[test]
    fn capacity_jump_allows_higher_goodput() {
        let mut env = GraphEnv::new();
        let mut r = rng(7);
        env.reset(&mut r);
        env.scale_up_at = Some(1);
        let cap_before = env.bottleneck_capacity();
        env.step(0.0, &mut r);
        let cap_after = env.bottleneck_capacity();
        assert!(cap_after > cap_before * 1.4, "capacities jumped");
    }
}
