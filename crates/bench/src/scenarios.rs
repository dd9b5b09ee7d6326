//! The two things every experiment is made of, each built in one place:
//! a [`Recipe`] — an application under a load, with the engine
//! modifiers the paper's figures share — and a [`Roster`] entry, the
//! controller arm run over it. `crate::exec` turns the pair into a run.

use apps::{AlibabaDemo, OnlineBoutique, TrainTicket};
use baselines::Scheme;
use cluster::types::BusinessPriority;
use cluster::{
    ApiId, ClosedLoopWorkload, Controller, Engine, EngineConfig, Harness, NoControl,
    OpenLoopWorkload, RateSchedule, ServiceId, Topology, Workload,
};
use rl::policy::PolicyValue;
use simnet::SimDuration;
use std::sync::Arc;
use topfull::{TopFull, TopFullConfig};

/// The controller roster used across experiments.
#[derive(Clone)]
pub enum Roster {
    /// No overload control anywhere.
    None,
    /// DAGOR per-service admission control (α = multiplicative decrease).
    Dagor { alpha: f64 },
    /// Breakwater per-service credit control.
    Breakwater,
    /// TopFull with the RL policy.
    TopFull(PolicyValue),
    /// TopFull ablation: MIMD steps instead of RL (§6.2).
    TopFullMimd,
    /// TopFull exactly as configured (refinement ablations, step sweeps).
    Config(TopFullConfig),
}

impl Roster {
    /// Short label for report rows.
    pub fn label(&self) -> &'static str {
        match self {
            Roster::None => "no-control",
            Roster::Dagor { .. } => "dagor",
            Roster::Breakwater => "breakwater",
            Roster::TopFull(_) => "topfull",
            Roster::TopFullMimd => "topfull-mimd",
            Roster::Config(_) => "topfull-config",
        }
    }

    /// The entry-point controller of this arm. Panics on the per-service
    /// schemes, which act inside an engine: only [`Roster::into_harness`]
    /// builds those.
    fn controller(self) -> Box<dyn Controller> {
        let base = TopFullConfig::default();
        let cfg = match self {
            Roster::None => return Box::new(NoControl),
            Roster::TopFull(policy) => base.with_rl(policy),
            Roster::TopFullMimd => base.with_mimd(),
            Roster::Config(cfg) => cfg,
            Roster::Dagor { .. } | Roster::Breakwater => {
                panic!("'{}' is no entry controller: into_harness", self.label())
            }
        };
        Box::new(TopFull::new(cfg))
    }

    /// Install this roster entry into an engine + harness pair.
    pub fn into_harness(self, mut engine: Engine) -> Harness {
        let scheme = match self {
            Roster::Dagor { alpha } => Scheme::Dagor { alpha },
            Roster::Breakwater => Scheme::Breakwater,
            entry => return Harness::new(engine, entry.controller()),
        };
        scheme.install(&mut engine);
        Harness::new(engine, Box::new(NoControl))
    }
}

type Hook = Arc<dyn Fn(&mut Engine) + Send + Sync>;

/// What an experiment runs over: a topology, the load offered to it and
/// the engine modifiers the figures apply. Cheap to clone and
/// `Send`, so each arm builds its own engine inside its worker (engines
/// are not `Send`).
#[derive(Clone)]
pub struct Recipe {
    /// Cloned from the caller's, who makes one-off changes (replica
    /// counts, pod speeds) before handing it over.
    topology: Topology,
    workload: Arc<dyn Fn() -> Box<dyn Workload> + Send + Sync>,
    /// 1 s SLO, 1 s control cadence.
    cfg: EngineConfig,
    /// Applied in order to each built engine.
    then: Vec<Hook>,
}

/// Every API in `apis` at a constant `rps`.
pub fn constant(apis: &[ApiId], rps: f64) -> Vec<(ApiId, RateSchedule)> {
    let at = |a: &ApiId| (*a, RateSchedule::constant(rps));
    apis.iter().map(at).collect()
}

/// Closed-loop users pick among `apis` evenly, one request a second.
fn evenly(apis: &[ApiId]) -> Vec<(ApiId, f64)> {
    apis.iter().map(|a| (*a, 1.0)).collect()
}
const THINK: SimDuration = SimDuration::from_secs(1);

impl Recipe {
    fn new(
        topology: &Topology,
        seed: u64,
        workload: impl Fn() -> Box<dyn Workload> + Send + Sync + 'static,
    ) -> Recipe {
        Recipe {
            topology: topology.clone(),
            workload: Arc::new(workload),
            cfg: EngineConfig {
                seed,
                ..EngineConfig::default()
            },
            then: Vec::new(),
        }
    }

    /// Closed-loop Locust-style users over `apis`; `users` is the
    /// population over time (§6.1: "2600 Locust users invoking 1 request
    /// per second").
    pub fn users(topology: &Topology, apis: &[ApiId], users: RateSchedule, seed: u64) -> Recipe {
        let weights = evenly(apis);
        Recipe::new(topology, seed, move || {
            Box::new(ClosedLoopWorkload::new(
                weights.clone(),
                users.clone(),
                THINK,
            ))
        })
    }

    /// Open-loop Poisson arrivals at per-API rate schedules.
    pub fn open_loop(topology: &Topology, rates: Vec<(ApiId, RateSchedule)>, seed: u64) -> Recipe {
        Recipe::new(topology, seed, move || {
            Box::new(OpenLoopWorkload::new(rates.clone()))
        })
    }

    /// Distinct business priorities, `high_to_low[0]` the most important.
    pub fn priorities(mut self, high_to_low: &[ApiId]) -> Recipe {
        for (api, p) in high_to_low.iter().zip(0u8..) {
            self.topology.api_mut(*api).business = BusinessPriority(p);
        }
        self
    }

    /// New pods take `secs` to come up (scheduling + image pull).
    pub fn pod_startup(mut self, secs: u64) -> Recipe {
        self.cfg.pod_startup = SimDuration::from_secs(secs);
        self
    }

    /// Fig. 16's pre-provisioning: split `vcpus` pods (one vCPU each)
    /// over the `critical` services — an even share apiece, the
    /// remainder to the last, never fewer than one.
    pub fn provisioned(mut self, critical: &[ServiceId], vcpus: u32) -> Recipe {
        let share = (vcpus / critical.len() as u32).max(1);
        let mut left = vcpus;
        for (i, svc) in critical.iter().enumerate() {
            let after = (critical.len() - 1 - i) as u32;
            let n = if after == 0 {
                left.max(1)
            } else {
                share.min(left.saturating_sub(after)).max(1)
            };
            left = left.saturating_sub(n);
            self.topology.service_mut(*svc).replicas = n;
        }
        self
    }

    /// A finishing touch on each built engine — a figure's own (a
    /// failure schedule).
    pub fn then(mut self, f: impl Fn(&mut Engine) + Send + Sync + 'static) -> Recipe {
        self.then.push(Arc::new(f));
        self
    }

    /// Build the engine.
    pub fn engine(&self) -> Engine {
        let mut engine = Engine::new(self.topology.clone(), self.cfg.clone(), (self.workload)());
        for f in &self.then {
            f(&mut engine);
        }
        engine
    }
}

/// Online Boutique under `users` closed-loop users over its five APIs.
pub fn boutique_users(users: RateSchedule, seed: u64) -> Recipe {
    let ob = OnlineBoutique::build();
    Recipe::users(&ob.topology, &ob.apis(), users, seed)
}

/// Online Boutique with a fixed closed-loop population, built.
pub fn boutique_closed_loop(users: u32, seed: u64) -> (OnlineBoutique, Engine) {
    let ob = OnlineBoutique::build();
    let users = RateSchedule::constant(f64::from(users));
    let engine = Recipe::users(&ob.topology, &ob.apis(), users, seed).engine();
    (ob, engine)
}

/// Train Ticket with its six measured APIs each offered `rps` open-loop.
pub fn trainticket_constant(rps: f64, seed: u64) -> Recipe {
    let tt = TrainTicket::build();
    Recipe::open_loop(&tt.topology, constant(&tt.apis(), rps), seed)
}

/// The Alibaba real-trace demo, every API offered `120 × surge` rps —
/// enough at `surge ≥ 1.5` to overload its hot services — built.
pub fn alibaba_surged(surge: f64, seed: u64) -> (AlibabaDemo, Engine) {
    let demo = AlibabaDemo::build(7);
    let rates = constant(&demo.apis, 120.0 * surge);
    let engine = Recipe::open_loop(&demo.topology, rates, seed).engine();
    (demo, engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments as ex;
    use simnet::SimTime;

    fn policy(seed: u64) -> PolicyValue {
        PolicyValue::new(
            2,
            &mut <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed),
        )
    }

    fn every_roster() -> Vec<Roster> {
        vec![
            Roster::None,
            Roster::Dagor { alpha: 0.05 },
            Roster::Breakwater,
            Roster::TopFull(policy(1)),
            Roster::TopFullMimd,
            Roster::Config(
                TopFullConfig::default()
                    .with_rate_controller(Arc::new(topfull::MimdController::with_steps(0.5, 0.2))),
            ),
        ]
    }

    #[test]
    fn roster_labels_are_distinct() {
        let rosters = every_roster();
        let labels: std::collections::HashSet<&str> = rosters.iter().map(Roster::label).collect();
        assert_eq!(labels.len(), rosters.len(), "labels must be unique");
    }

    #[test]
    #[should_panic(expected = "'dagor' is no entry controller")]
    fn a_per_service_arm_has_no_gateway_controller() {
        Roster::Dagor { alpha: 0.05 }.controller();
    }

    /// Every recipe constructor and modifier, on each application, and
    /// every recipe a figure defines: a panicking builder or a misnamed
    /// API shows here, not an hour into `figures all`.
    fn every_recipe() -> Vec<(&'static str, Recipe)> {
        let ob = OnlineBoutique::build();
        let (from, until) = (SimTime::from_secs(1), SimTime::from_secs(2));
        let surge = RateSchedule::surge(50.0, 400.0, from, until);
        let step = RateSchedule::steps(vec![(SimTime::ZERO, 20.0), (from, 300.0)]);
        let ranked = [ob.postcheckout, ob.getproduct, ob.getcart, ob.postcart];
        vec![
            ("users", boutique_users(RateSchedule::constant(50.0), 1)),
            ("users surging", boutique_users(surge, 1)),
            ("tt constant", trainticket_constant(100.0, 1)),
            (
                "steps ranked",
                Recipe::open_loop(&ob.topology, vec![(ob.getproduct, step)], 1).priorities(&ranked),
            ),
            ("fig12", ex::fig12::recipe(&ob, 1)),
            ("fig16 tt", ex::fig16::tt_recipe(5)),
            ("fig16 ob", ex::fig16::ob_recipe(10)),
            ("fig18", ex::fig18::recipe(1)),
        ]
    }

    #[test]
    fn every_roster_builds_a_harness() {
        for (name, recipe) in every_recipe() {
            for roster in every_roster() {
                let label = roster.label();
                let mut h = roster.into_harness(recipe.engine());
                h.run_for_secs(3);
                assert_eq!(h.result().samples.len(), 3, "{name} under {label}");
            }
        }
    }

    #[test]
    fn builders_produce_expected_apps() {
        let (ob, e) = boutique_closed_loop(100, 1);
        assert_eq!(e.topology().num_services(), 11);
        assert_eq!(ob.apis().len(), 5);
        let e = trainticket_constant(10.0, 1).engine();
        assert_eq!(e.topology().num_services(), 41);
        let (demo, e) = alibaba_surged(1.0, 1);
        assert_eq!(e.topology().num_services(), 127);
        assert_eq!(demo.apis.len(), 25);
    }

    #[test]
    fn modifiers_edit_the_topology_and_the_engine() {
        let ob = OnlineBoutique::build();
        let ranked = [ob.emptycart, ob.getcart];
        let r = boutique_users(RateSchedule::constant(10.0), 1).priorities(&ranked);
        assert_eq!(r.topology.api(ob.emptycart).business, BusinessPriority(0));
        assert_eq!(r.topology.api(ob.getcart).business, BusinessPriority(1));
        // 7 vCPUs over three services: 2, 2 and the remaining 3; one
        // vCPU still gives every service a pod.
        let critical = [ob.cart, ob.checkout, ob.frontend];
        let replicas = |r: &Recipe| critical.map(|s| r.topology.service(s).replicas);
        assert_eq!(replicas(&r.clone().provisioned(&critical, 7)), [2, 2, 3]);
        assert_eq!(replicas(&r.clone().provisioned(&critical, 1)), [1, 1, 1]);
        // Hooks run on every engine built, in the order they were added.
        let r = r
            .pod_startup(7)
            .then(|e| e.crash_events += 1)
            .then(|e| e.crash_events *= 10);
        assert_eq!(r.engine().crash_events, 10);
        assert_eq!(r.engine().config().pod_startup, SimDuration::from_secs(7));
    }
}
