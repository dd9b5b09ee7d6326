//! The sharded control step as a [`Plane`]: N gateway shards behind one
//! logical controller, written once over a [`ShardSet`] — the
//! simulator's virtual shards ([`SimShards`]) or real gateways
//! (`liveserve::ShardedLive`).
//!
//! Per tick, inside the control loop's observe → decide → act:
//! membership and aggregation (`observe`), then split → push → ramp
//! bookkeeping → local guards → enforce (`apply`). The journal order —
//! membership/aggregate, SLO burn, controller entries, splits, guard
//! resync, end-of-tick membership, guard hold/fallback — is part of the
//! contract.

use super::{
    merge_observations, GuardStats, ShardLocalGuard, ShardPlane, ShardPlaneConfig, ShardPlaneStats,
};
use cluster::observe::ClusterObservation;
use cluster::sharded::{ShardFault, ShardSlicer};
use cluster::types::ApiId;
use cluster::{Contact, Engine, Observed, Plane, RateLimitUpdate, SimPlane};
use std::sync::Arc;

/// Static configuration of a sharded simulation run.
pub struct ShardedConfig {
    pub shards: usize,
    /// Client-affinity weights (`None` = uniform).
    pub weights: Option<Vec<f64>>,
    pub plane: ShardPlaneConfig,
    pub faults: Vec<ShardFault>,
}

impl ShardedConfig {
    pub fn uniform(shards: usize) -> Self {
        ShardedConfig {
            shards,
            weights: None,
            plane: ShardPlaneConfig::default(),
            faults: Vec::new(),
        }
    }
}

/// One control tick's per-shard windows, as a [`ShardSet`] closes them.
#[derive(Clone)]
pub struct ShardWindow {
    /// Timestamp (seconds) stamped on this tick's journal entries.
    pub t: f64,
    /// One slot per shard: the local view of a serving shard — carrying
    /// the shard's own quotas as its applied rate limits — or `None` for
    /// a dead one.
    pub locals: Vec<Option<ClusterObservation>>,
    /// Whether each shard's report reaches the controller this tick, and
    /// the controller's push reaches the shard.
    pub reporting: Vec<bool>,
    /// The controller is unreachable for every shard this tick.
    pub controller_lost: bool,
}

/// The gateways a [`Sharded`] plane fans out to: the simulator's virtual
/// shards over one engine ([`SimShards`]), or N real gateways
/// (`liveserve::ShardedLive`).
pub trait ShardSet {
    /// Close every shard's metric window. `quotas[shard][api]` are the
    /// limits currently in force. `None` when no window has completed.
    fn observe(&mut self, quotas: &[Vec<f64>]) -> Option<ShardWindow>;

    /// Make `quotas[shard][api]` the limits serving shards enforce.
    fn enforce(&mut self, quotas: &[Vec<f64>]);

    /// The fleet-wide burn-rate signals of the tick, for sets that
    /// export them.
    fn slo_signals(&mut self, _signals: &[obs::SloBurnSignal]) {}
}

/// N gateway shards presented to the control loop as one [`Plane`]:
/// `observe` runs membership and merges the reporting shards' windows
/// into the controller's view; `apply` splits the controller's global
/// limits into per-shard quotas, pushes them, and lets every serving
/// shard the push did not reach run its local degradation ladder. The
/// one sharded control step, shared verbatim by simulator and live.
pub struct Sharded<S> {
    set: S,
    plane: ShardPlane,
    guards: Vec<ShardLocalGuard>,
    /// Per-shard per-API quotas (`INFINITY` = unlimited).
    quotas: Vec<Vec<f64>>,
    /// The controller's logical global limit per API.
    globals: Vec<f64>,
    /// The windows `observe` closed, until `apply` consumes them.
    window: Option<ShardWindow>,
    lost_ticks: u64,
}

impl<S: ShardSet> Sharded<S> {
    /// `shards` gateways serving `num_apis` APIs, all initially
    /// unlimited.
    pub fn new(set: S, shards: usize, num_apis: usize, cfg: ShardPlaneConfig) -> Self {
        Sharded {
            set,
            plane: ShardPlane::new(shards, cfg),
            guards: (0..shards)
                .map(|s| ShardLocalGuard::new(s as u32, cfg))
                .collect(),
            quotas: vec![vec![f64::INFINITY; num_apis]; shards],
            globals: vec![f64::INFINITY; num_apis],
            window: None,
            lost_ticks: 0,
        }
    }

    /// Route membership, aggregation, split and fallback events to
    /// `journal`.
    pub fn attach_journal(&mut self, journal: Arc<obs::Journal>) {
        self.plane.attach_journal(Arc::clone(&journal));
        for g in &mut self.guards {
            g.attach_journal(Arc::clone(&journal));
        }
    }

    pub fn set(&self) -> &S {
        &self.set
    }

    pub fn into_set(self) -> S {
        self.set
    }

    pub fn plane_stats(&self) -> ShardPlaneStats {
        self.plane.stats()
    }

    /// Guard activity summed over shards.
    pub fn guard_stats(&self) -> GuardStats {
        let mut total = GuardStats::default();
        for g in &self.guards {
            total.held_ticks += g.stats().held_ticks;
            total.fallback_ticks += g.stats().fallback_ticks;
            total.resyncs += g.stats().resyncs;
        }
        total
    }

    /// Controller ticks lost to controller-loss windows or stalls.
    pub fn lost_ticks(&self) -> u64 {
        self.lost_ticks
    }
}

impl<S: ShardSet> Plane for Sharded<S> {
    fn observe(&mut self) -> Option<Observed> {
        let w = self.set.observe(&self.quotas)?;
        let merged = if w.controller_lost {
            self.lost_ticks += 1;
            None
        } else {
            let reports: Vec<Option<&ClusterObservation>> = w
                .locals
                .iter()
                .zip(&w.reporting)
                .map(|(local, reporting)| local.as_ref().filter(|_| *reporting))
                .collect();
            self.plane.observe(w.t, &reports)
        };
        let observed = match merged {
            Some(view) => Some((view, Contact::Up)),
            // Nothing reached the controller; the caller's timeline
            // still gets what the serving shards saw.
            None => {
                let serving: Vec<&ClusterObservation> = w.locals.iter().flatten().collect();
                (!serving.is_empty()).then(|| (merge_observations(&serving), Contact::Lost))
            }
        };
        self.window = Some(w);
        // Staleness is judged per shard (strike-out), not fleet-wide.
        observed.map(|(view, contact)| Observed {
            now: view.now,
            view,
            contact,
        })
    }

    fn rate_limit(&self, api: ApiId) -> f64 {
        self.globals
            .get(api.idx())
            .copied()
            .unwrap_or(f64::INFINITY)
    }

    fn apply(&mut self, updates: Option<&[RateLimitUpdate]>) {
        let Some(w) = self.window.take() else {
            return;
        };
        let t = w.t;
        let mut pushed = vec![false; self.guards.len()];
        if let Some(updates) = updates {
            let mut touched = vec![false; self.globals.len()];
            for u in updates {
                // An `ApiId` outside the topology is a controller bug;
                // it must not take the control thread down with it.
                if let Some(global) = self.globals.get_mut(u.api.idx()) {
                    *global = u.rate;
                    touched[u.api.idx()] = true;
                }
            }
            // A membership change or an active ramp re-splits every
            // API, not just the ones the controller moved this tick: a
            // dead shard's quota must leave the enforced total even in
            // steady state.
            let resplit_all = self.plane.membership_changed() || self.plane.any_ramping();
            for (a, touched) in touched.into_iter().enumerate() {
                if !(touched || resplit_all) {
                    continue;
                }
                let split = self.plane.split(t, ApiId(a as u32), self.globals[a]);
                let live = self.plane.live();
                for ((quotas, q), live) in self.quotas.iter_mut().zip(split).zip(live) {
                    if live {
                        quotas[a] = q;
                    }
                }
            }
            // Every reporting shard heard from the controller this tick
            // (fresh limits or a heartbeat).
            for (s, reporting) in w.reporting.iter().enumerate() {
                if *reporting {
                    pushed[s] = true;
                    self.guards[s].on_push(t);
                }
            }
            self.plane.end_tick(t);
        }
        // Shards serving without controller contact run their local
        // degradation ladder (hold → MIMD fallback).
        for (s, local) in w.locals.iter().enumerate() {
            if let (Some(local), false) = (local, pushed[s]) {
                self.guards[s].tick(t, local, &mut self.quotas[s]);
            }
        }
        self.set.enforce(&self.quotas);
    }

    fn slo_signals(&mut self, signals: &[obs::SloBurnSignal]) {
        self.set.slo_signals(signals);
    }
}

/// The simulator's shard set: N *virtual* gateway shards over one
/// [`Engine`] (ground truth). Each tick the engine's controller-facing
/// observation is sliced into per-shard views, and the engine's single
/// gateway enforces the sum of the serving shards' quotas — the
/// virtual-shard model's invariant.
pub struct SimShards {
    engine: Engine,
    slicer: ShardSlicer,
    /// Last enforced engine-level limit per API (avoid redundant sets).
    enforced: Vec<f64>,
}

impl ShardSet for SimShards {
    fn observe(&mut self, quotas: &[Vec<f64>]) -> Option<ShardWindow> {
        let o = self.engine.latest_observation()?;
        let now = self.engine.now();
        let mut locals = self.slicer.slice(o, now);
        // Each shard's local view carries its own quota as the applied
        // rate limit — that is what its gateway enforces.
        for (local, quotas) in locals.iter_mut().zip(quotas) {
            if let Some(local) = local {
                for (w, q) in local.apis.iter_mut().zip(quotas) {
                    w.rate_limit = *q;
                }
            }
        }
        Some(ShardWindow {
            t: o.now.as_secs_f64(),
            locals,
            reporting: self.slicer.reporting(now),
            controller_lost: self.slicer.controller_lost(now) || self.engine.control_stalled(),
        })
    }

    fn enforce(&mut self, quotas: &[Vec<f64>]) {
        let serving = self.slicer.serving(self.engine.now());
        for (a, enforced) in self.enforced.iter_mut().enumerate() {
            // Added up in shard order from +0.0: the sum's bits are the
            // limit's bits.
            let sum = quotas
                .iter()
                .zip(&serving)
                .filter(|(_, up)| **up)
                .fold(0.0, |sum, (q, _)| sum + q[a]);
            if sum != *enforced {
                self.engine.set_rate_limit(ApiId(a as u32), sum);
                *enforced = sum;
            }
        }
    }
}

impl Sharded<SimShards> {
    /// `engine` behind `cfg.shards` virtual gateway shards: slice →
    /// report → aggregate → control → split → push, with membership
    /// failover and shard-local degradation. Drive it with
    /// [`cluster::Harness::new`].
    pub fn sim(engine: Engine, cfg: ShardedConfig) -> Result<Self, String> {
        let slicer = ShardSlicer::new(cfg.shards, cfg.weights)?.with_faults(cfg.faults);
        let num_apis = engine.topology().num_apis();
        let set = SimShards {
            engine,
            slicer,
            enforced: vec![f64::INFINITY; num_apis],
        };
        Ok(Sharded::new(set, cfg.shards, num_apis, cfg.plane))
    }
}

impl SimPlane for Sharded<SimShards> {
    fn engine(&self) -> &Engine {
        &self.set.engine
    }

    fn engine_mut(&mut self) -> &mut Engine {
        &mut self.set.engine
    }

    fn set_journal(&mut self, journal: Arc<obs::Journal>) {
        self.set.engine.set_journal(Arc::clone(&journal));
        self.attach_journal(journal);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::view;
    use super::*;
    use crate::{TopFull, TopFullConfig};
    use cluster::{
        ApiSpec, CallNode, ControlLoop, EngineConfig, NoControl, OpenLoopWorkload, ServiceSpec,
        Topology,
    };
    use simnet::{SimDuration, SimTime};
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::rc::Rc;

    /// What a shard set was told to enforce, tick by tick.
    type Enforced = Rc<RefCell<Vec<Vec<Vec<f64>>>>>;

    /// A stand-in for live gateways: replays scripted windows, stamping
    /// each shard's view with the limits it was last told to enforce —
    /// as a real gateway's window carries them.
    struct FakeShards {
        script: VecDeque<ShardWindow>,
        in_force: Vec<Vec<f64>>,
        enforced: Enforced,
        burn_exports: usize,
    }

    impl FakeShards {
        fn new(script: Vec<ShardWindow>) -> Self {
            FakeShards {
                script: script.into(),
                in_force: Vec::new(),
                enforced: Enforced::default(),
                burn_exports: 0,
            }
        }
    }

    impl ShardSet for FakeShards {
        fn observe(&mut self, _quotas: &[Vec<f64>]) -> Option<ShardWindow> {
            let mut w = self.script.pop_front()?;
            for (local, limits) in w.locals.iter_mut().zip(&self.in_force) {
                if let Some(local) = local {
                    for (api, limit) in local.apis.iter_mut().zip(limits) {
                        api.rate_limit = *limit;
                    }
                }
            }
            Some(w)
        }

        fn enforce(&mut self, quotas: &[Vec<f64>]) {
            self.in_force = quotas.to_vec();
            self.enforced.borrow_mut().push(quotas.to_vec());
        }

        fn slo_signals(&mut self, _signals: &[obs::SloBurnSignal]) {
            self.burn_exports += 1;
        }
    }

    /// Two healthy shards, each seeing `bad` of its 100 rps violate.
    fn two_shard_window(t: u64, bad: f64) -> ShardWindow {
        let mut v = view(100.0 - bad, 100.0, 2, 0.6);
        v.now = SimTime::from_secs(t);
        v.apis[0].slo_violated = bad;
        v.apis[0].failed = 0.0;
        ShardWindow {
            t: t as f64,
            locals: vec![Some(v.clone()), Some(v)],
            reporting: vec![true, true],
            controller_lost: false,
        }
    }

    #[test]
    fn an_out_of_range_api_update_is_dropped_not_a_panic() {
        let set = FakeShards::new(vec![two_shard_window(1, 0.0)]);
        let enforced = Rc::clone(&set.enforced);
        let mut sharded = Sharded::new(set, 2, 1, ShardPlaneConfig::default());
        assert!(sharded.observe().is_some());
        sharded.apply(Some(&[
            RateLimitUpdate::limit(ApiId(99), 5.0),
            RateLimitUpdate::limit(ApiId(0), 80.0),
        ]));
        assert!(sharded.rate_limit(ApiId(99)).is_infinite());
        assert_eq!(sharded.rate_limit(ApiId(0)), 80.0);
        let quotas = &enforced.borrow()[0];
        assert!(
            (quotas[0][0] + quotas[1][0] - 80.0).abs() < 1e-9,
            "{quotas:?}"
        );
    }

    #[test]
    fn fleet_burn_is_folded_once_however_many_shards_report() {
        let script = (1..=8).map(|t| two_shard_window(t, 50.0)).collect();
        let mut sharded = Sharded::new(FakeShards::new(script), 2, 1, ShardPlaneConfig::default());
        let mut ctl = ControlLoop::new(Box::new(NoControl));
        sharded.attach_journal(Arc::clone(ctl.journal()));
        for _ in 0..8 {
            assert!(ctl.tick(&mut sharded).is_some());
        }
        let burns: Vec<_> = ctl
            .journal()
            .snapshot()
            .into_iter()
            .filter(|e| matches!(e, obs::JournalEntry::SloBurn { .. }))
            .collect();
        assert_eq!(burns.len(), 1, "one escalation, one entry: {burns:?}");
        assert_eq!(sharded.set().burn_exports, 8, "signals exported per tick");
    }

    /// Records what passes through a shard set.
    struct Tap<S> {
        inner: S,
        windows: Vec<ShardWindow>,
        enforced: Enforced,
    }

    impl<S: ShardSet> ShardSet for Tap<S> {
        fn observe(&mut self, quotas: &[Vec<f64>]) -> Option<ShardWindow> {
            let w = self.inner.observe(quotas)?;
            self.windows.push(w.clone());
            Some(w)
        }

        fn enforce(&mut self, quotas: &[Vec<f64>]) {
            self.enforced.borrow_mut().push(quotas.to_vec());
            self.inner.enforce(quotas);
        }
    }

    /// The same per-shard windows give the same quotas and the same
    /// journal whether they come from the simulator's virtual shards or
    /// from (stand-in) live gateways: the sharded step is one
    /// implementation, through strike-out, ramped re-entry and the
    /// controller-loss ladder.
    #[test]
    fn sim_and_live_shard_sets_run_the_same_step() {
        const SHARDS: usize = 3;
        const TICKS: u64 = 40;
        let controller = || Box::new(TopFull::new(TopFullConfig::default().with_mimd()));
        let plane_cfg = ShardPlaneConfig {
            strike_out: 2,
            limit_ttl: 3,
            ..ShardPlaneConfig::default()
        };

        // A 100-rps bottleneck offered 300 rps, so the controller acts.
        let mut topo = Topology::new("parity");
        let svc = topo.add_service(ServiceSpec::new("backend", 1).queue_capacity(256));
        let api = topo.add_api(ApiSpec::single(
            "get",
            CallNode::leaf(svc, SimDuration::from_millis(10)),
        ));
        let workload = OpenLoopWorkload::constant(vec![(api, 300.0)]);
        let engine = Engine::new(topo, EngineConfig::default(), Box::new(workload));
        let slicer = ShardSlicer::new(SHARDS, None)
            .expect("uniform weights")
            .with_faults(vec![
                ShardFault::Dropout {
                    shard: 1,
                    from: SimTime::from_secs(8),
                    until: SimTime::from_secs(16),
                },
                ShardFault::ControllerLoss {
                    from: SimTime::from_secs(24),
                    until: SimTime::from_secs(32),
                },
            ]);
        let tap = Tap {
            inner: SimShards {
                engine,
                slicer,
                enforced: vec![f64::INFINITY; 1],
            },
            windows: Vec::new(),
            enforced: Enforced::default(),
        };
        let mut sim = Sharded::new(tap, SHARDS, 1, plane_cfg);
        let mut ctl = ControlLoop::new(controller());
        sim.attach_journal(Arc::clone(ctl.journal()));
        for t in 1..=TICKS {
            sim.set.inner.engine.run_until(SimTime::from_secs(t));
            ctl.tick(&mut sim);
        }
        let sim_journal = obs::to_jsonl(&ctl.journal().snapshot());
        assert!(sim.plane_stats().strike_outs >= 1 && sim.plane_stats().reentries >= 1);
        assert!(sim.guard_stats().fallback_ticks > 0 && sim.lost_ticks() == 8);

        let live_set = FakeShards::new(sim.set.windows.clone());
        let live_enforced = Rc::clone(&live_set.enforced);
        let mut live = Sharded::new(live_set, SHARDS, 1, plane_cfg);
        let mut ctl = ControlLoop::new(controller());
        live.attach_journal(Arc::clone(ctl.journal()));
        for _ in 1..=TICKS {
            ctl.tick(&mut live);
        }
        assert_eq!(*live_enforced.borrow(), *sim.set.enforced.borrow());
        assert_eq!(obs::to_jsonl(&ctl.journal().snapshot()), sim_journal);
        assert!(sim_journal.contains("shard_fallback") && sim_journal.contains("shard_split"));
    }
}
