//! Specialization environment: the full cluster simulator as the
//! "target real-world application" of the Sim2Real pipeline (§4.3).
//!
//! "For each episode, we randomly generate workloads composed of
//! different external APIs for the application. At each step, for a given
//! set of APIs, an RL-based rate controller observes state features,
//! makes rate control decisions, and then receives the reward."
//!
//! Each episode builds a fresh [`cluster::Engine`] over the target
//! topology, offers a randomized overload workload, and lets the agent
//! move one collective rate limit across the candidate APIs — the same
//! actuation a per-cluster TopFull controller performs. Mid-episode
//! replica scale-ups emulate autoscaler allocations.

use crate::env::{self, RlEnv, StepResult};
use cluster::{Engine, EngineConfig, OpenLoopWorkload, Topology};
use rand::rngs::SmallRng;
use rand::Rng;
use simnet::{SimDuration, SimTime};

/// Nominal per-API offered rate (requests/s), before the surge.
const BASE_RATE: f64 = 300.0;
/// Range of the per-episode surge, a multiple of [`BASE_RATE`] drawn per
/// API.
const SURGE_RANGE: std::ops::Range<f64> = 0.3..3.0;
/// Probability an episode includes a mid-episode capacity scale-up.
const SCALE_UP_PROB: f64 = 0.4;
/// Warmup before the first observation (s).
const WARMUP_SECS: u64 = 3;

/// The environment. `reset` rebuilds the engine; `step` advances one
/// control interval (1 simulated second).
pub struct ClusterEnv {
    topo: Topology,
    engine: Option<Engine>,
    /// Collective rate limit applied across all APIs (split evenly).
    limit: f64,
    prev_goodput: f64,
    scale: f64,
    scale_up_at: Option<usize>,
    step_count: usize,
    now: SimTime,
    /// The engine's SLO (s), which the state and the reward divide by.
    slo: f64,
}

impl ClusterEnv {
    /// An environment over `topo` (cloned per episode).
    pub fn new(topo: Topology) -> Self {
        ClusterEnv {
            topo,
            engine: None,
            limit: 1.0,
            prev_goodput: 0.0,
            scale: 1.0,
            scale_up_at: None,
            step_count: 0,
            now: SimTime::ZERO,
            slo: 1.0,
        }
    }

    fn apply_limit(&mut self) {
        let engine = self.engine.as_mut().expect("reset first");
        let n = engine.topology().num_apis() as f64;
        let per_api = self.limit / n;
        let apis: Vec<cluster::ApiId> = engine.topology().apis().map(|(id, _)| id).collect();
        for api in apis {
            engine.set_rate_limit(api, per_api);
        }
    }

    /// Total goodput and the worst API's tail latency (s) in the latest
    /// observation; zeros before the first.
    fn measure(&self) -> (f64, f64) {
        let engine = self.engine.as_ref().expect("reset first");
        engine.latest_observation().map_or((0.0, 0.0), |obs| {
            let lat = obs.apis.iter().map(|a| a.tail_latency().as_secs_f64());
            (obs.total_goodput(), lat.fold(0.0, f64::max))
        })
    }
}

impl RlEnv for ClusterEnv {
    fn reset(&mut self, rng: &mut SmallRng) -> [f64; 2] {
        let seed = rng.gen();
        // Randomized overload workload: each API offers base × surge.
        let rates: Vec<(cluster::ApiId, f64)> = self
            .topo
            .apis()
            .map(|(id, _)| (id, BASE_RATE * rng.gen_range(SURGE_RANGE)))
            .collect();
        let total_offered: f64 = rates.iter().map(|(_, r)| r).sum();
        let workload = OpenLoopWorkload::constant(rates);
        let mut engine = Engine::new(
            self.topo.clone(),
            EngineConfig {
                seed,
                ..EngineConfig::default()
            },
            Box::new(workload),
        );
        // Start the collective limit anywhere from throttled to open.
        self.limit = total_offered * rng.gen_range(0.2..1.2);
        self.scale = total_offered.max(1.0);
        self.scale_up_at = rng.gen_bool(SCALE_UP_PROB).then(|| rng.gen_range(15..40));
        self.step_count = 0;
        self.now = SimTime::from_secs(WARMUP_SECS);
        engine.run_until(self.now);
        self.slo = engine.config().slo.as_secs_f64();
        self.engine = Some(engine);
        self.apply_limit();
        let (goodput, lat) = self.measure();
        self.prev_goodput = goodput;
        env::state(goodput, self.limit, lat, self.slo)
    }

    fn step(&mut self, action: f64, _rng: &mut SmallRng) -> StepResult {
        self.step_count += 1;
        self.limit = env::step_limit(self.limit, action, self.scale);
        self.apply_limit();
        let engine = self.engine.as_mut().expect("reset first");
        // Mid-episode capacity allocation: scale every service up 2×,
        // mimicking an autoscaler landing new pods.
        if self.scale_up_at == Some(self.step_count) {
            let services: Vec<(cluster::ServiceId, u32)> = engine
                .topology()
                .services()
                .map(|(id, s)| (id, s.replicas * 2))
                .collect();
            for (sid, n) in services {
                engine.grow_service(sid, n);
            }
        }
        self.now += SimDuration::from_secs(1);
        engine.run_until(self.now);
        let (good, lat) = self.measure();
        let reward = env::reward(good - self.prev_goodput, self.scale, lat, self.slo);
        self.prev_goodput = good;
        StepResult {
            state: env::state(good, self.limit, lat, self.slo),
            reward,
            done: self.step_count >= self.horizon(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ApiSpec, CallNode, ServiceSpec};
    use rand::SeedableRng;

    fn topo() -> Topology {
        let mut t = Topology::new("env-test");
        // Small queues so warmup backlog drains within a few steps.
        let s = t.add_service(ServiceSpec::new("s", 2).queue_capacity(64));
        t.add_api(ApiSpec::single(
            "a",
            CallNode::leaf(s, SimDuration::from_millis(10)),
        ));
        t
    }

    #[test]
    fn reset_and_full_episode_run() {
        let mut env = ClusterEnv::new(topo());
        let mut rng = SmallRng::seed_from_u64(1);
        let s0 = env.reset(&mut rng);
        assert!(s0.iter().all(|x| x.is_finite()));
        let mut done = false;
        for _ in 0..env.horizon() {
            let r = env.step(0.1, &mut rng);
            assert!(r.reward.is_finite());
            done = r.done;
        }
        assert!(done);
    }

    #[test]
    fn throttling_to_capacity_yields_high_ratio() {
        // 2 pods × 10 ms = 200 rps capacity.
        let mut env = ClusterEnv::new(topo());
        let mut rng = SmallRng::seed_from_u64(2);
        env.reset(&mut rng);
        // Hold the limit below both the capacity and the rate this
        // episode offers (`scale`), and let the warmup backlog drain
        // before judging.
        env.limit = 150.0_f64.min(0.75 * env.scale);
        env.apply_limit();
        let mut last = [0.0, 0.0];
        for _ in 0..15 {
            last = env.step(0.0, &mut rng).state;
        }
        assert!(last[0] > 0.8, "goodput/limit ≈ 1, got {}", last[0]);
        assert!(last[1] < 0.5, "latency low below capacity, got {}", last[1]);
    }

    #[test]
    fn episodes_are_randomized() {
        let mut env = ClusterEnv::new(topo());
        let mut rng = SmallRng::seed_from_u64(3);
        env.reset(&mut rng);
        let l1 = env.limit;
        env.reset(&mut rng);
        let l2 = env.limit;
        assert_ne!(l1, l2, "per-episode randomization");
    }
}
