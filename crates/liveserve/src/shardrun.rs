//! shardrun — N real gateways, one logical TopFull controller.
//!
//! Every shard is a full [`LiveServer`] (own TCP gateway, worker pool
//! and metric windows). [`ShardedLive`] is the set of them — a
//! [`topfull::ShardSet`] — and [`ShardedLive::start`] hands it back
//! behind [`topfull::Sharded`], the same adapter the simulator's virtual
//! shards sit behind: one [`cluster::ControlLoop`] runs against the
//! *merged* observation each tick, and membership, quota splits and
//! controller-loss degradation are one implementation on both planes.
//!
//! Chaos hooks:
//!
//! * **Shard kill** — [`ShardedLiveConfig::kill`] terminates one server
//!   abruptly mid-run ([`LiveServer::kill`], the in-process SIGKILL).
//!   Its load generator is stopped and the surviving shards' generators
//!   are restarted with the dead shard's traffic share redistributed —
//!   client-side failover. The plane strikes the shard out after
//!   `strike_out` silent ticks and redistributes its quota.
//! * **Controller loss** — [`ShardedLiveConfig::controller_loss`]
//!   suppresses the logical controller for a window; every shard's
//!   local guard holds last-good limits through the TTL, then degrades
//!   into the bounded MIMD fallback. Never fail-open.

use crate::loadgen::{value_at, ClosedLoopSpec, LoadGen, OpenLoopArm};
use crate::{LiveConfig, LiveServer};
use cluster::{ApiId, RateLimitUpdate, Topology};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;
use topfull::{ShardPlaneConfig, ShardSet, ShardWindow, Sharded};

/// Configuration of a sharded live run.
#[derive(Clone)]
pub struct ShardedLiveConfig {
    /// Number of gateway shards (each a full [`LiveServer`]).
    pub shards: usize,
    /// Per-shard live config. Shard 0 binds `port`/`metrics_port` as
    /// given; the other shards always take ephemeral ports.
    pub live: LiveConfig,
    /// Shard plane tunables (strike-out, re-entry ramp, TTL, …).
    pub plane: ShardPlaneConfig,
    /// `(shard, t_secs)`: SIGKILL-style termination of one shard.
    pub kill: Option<(usize, f64)>,
    /// `[from, until)` seconds during which the logical controller is
    /// unreachable; shard-local guards take over.
    pub controller_loss: Option<(f64, f64)>,
}

impl ShardedLiveConfig {
    pub fn new(shards: usize, live: LiveConfig) -> Self {
        ShardedLiveConfig {
            shards,
            live,
            plane: ShardPlaneConfig::default(),
            kill: None,
            controller_loss: None,
        }
    }
}

/// N live gateway shards and the clients that load them: the live
/// [`ShardSet`].
pub struct ShardedLive {
    cfg: ShardedLiveConfig,
    servers: Vec<Option<LiveServer>>,
    gens: Vec<Option<LoadGen>>,
    /// Total (unsplit) workload, kept for failover re-splits.
    closed: Option<ClosedLoopSpec>,
    arms: Vec<OpenLoopArm>,
    killed: Option<usize>,
    /// Fleet start: the zero of kill / controller-loss times and of the
    /// load generators' schedules.
    started: Instant,
}

/// Scale every value of a step schedule by `k` (times stay put).
fn scale_steps(steps: &[(f64, f64)], k: f64) -> Vec<(f64, f64)> {
    steps.iter().map(|&(at, v)| (at, v * k)).collect()
}

/// Re-anchor a step schedule so a generator started at absolute time
/// `dt` sees the same absolute timeline: the value in force at `dt`
/// becomes the new t=0 baseline and later steps shift left.
fn shift_steps(steps: &[(f64, f64)], dt: f64) -> Vec<(f64, f64)> {
    let mut out = vec![(0.0, value_at(steps, dt))];
    for &(at, v) in steps {
        if at > dt {
            out.push((at - dt, v));
        }
    }
    out
}

impl ShardedLive {
    /// Start all shards and their load generators, and return the fleet
    /// as one control plane. The `closed` spec and `arms` describe the
    /// TOTAL offered load; each of the N shards receives a `1/N` share
    /// (client-side affinity).
    pub fn start(
        topo: &Topology,
        cfg: ShardedLiveConfig,
        closed: Option<ClosedLoopSpec>,
        arms: Vec<OpenLoopArm>,
    ) -> std::io::Result<Sharded<Self>> {
        assert!(cfg.shards > 0, "at least one shard");
        let mut servers = Vec::with_capacity(cfg.shards);
        for s in 0..cfg.shards {
            let mut live = cfg.live;
            if s != 0 {
                live.port = 0;
                live.metrics_port = 0;
            }
            servers.push(Some(LiveServer::start(topo, live)?));
        }
        // One scrape shows the whole fleet: every shard's instruments
        // also register into shard 0's registry under a `shard` label.
        let reg = Arc::clone(servers[0].as_ref().expect("shard 0").registry());
        for (s, srv) in servers.iter().enumerate() {
            let srv = srv.as_ref().expect("just started");
            srv.shared.metrics.register_into_sharded(&reg, &srv.desc, s);
        }
        let started = Instant::now();
        let share = 1.0 / cfg.shards as f64;
        let mut gens = Vec::with_capacity(cfg.shards);
        for srv in &servers {
            let addr = srv.as_ref().expect("just started").addr();
            gens.push(Some(start_gen(addr, &closed, &arms, share, 0.0)?));
        }
        let (shards, plane) = (cfg.shards, cfg.plane);
        let set = ShardedLive {
            servers,
            gens,
            closed,
            arms,
            killed: None,
            started,
            cfg,
        };
        Ok(Sharded::new(set, shards, topo.num_apis(), plane))
    }

    /// Trace events from every living shard's trace log, shard order,
    /// each labelled with its shard: every shard's generator mints the
    /// same trace ids, so `(shard, trace)` is what names one request.
    pub fn traces(&self) -> Vec<obs::TraceEvent> {
        let mut out = Vec::new();
        for (shard, server) in self.servers.iter().enumerate() {
            for mut ev in server.iter().flat_map(LiveServer::traces) {
                ev.shard = shard as u32;
                out.push(ev);
            }
        }
        out
    }

    /// Shard 0's exposition endpoint (all shards' series, `shard` label).
    pub fn metrics_addr(&self) -> SocketAddr {
        self.servers[0]
            .as_ref()
            .expect("shard 0 lives")
            .metrics_addr()
    }

    /// Kill `shard` abruptly and fail its traffic over to survivors.
    fn kill_shard(&mut self, shard: usize, t: f64) {
        let Some(server) = self.servers[shard].take() else {
            return;
        };
        if let Some(g) = self.gens[shard].take() {
            g.stop();
        }
        server.kill();
        self.killed = Some(shard);
        // Client failover: restart the survivors' generators with the
        // dead shard's share redistributed, schedules re-anchored to
        // the kill instant so the workload timeline continues.
        let survivors = self.servers.iter().filter(|s| s.is_some()).count();
        if survivors == 0 {
            return;
        }
        let share = 1.0 / survivors as f64;
        for s in 0..self.cfg.shards {
            let Some(srv) = self.servers[s].as_ref() else {
                continue;
            };
            let addr = srv.addr();
            if let Some(g) = self.gens[s].take() {
                g.stop();
            }
            match start_gen(addr, &self.closed, &self.arms, share, t) {
                Ok(g) => self.gens[s] = Some(g),
                Err(e) => eprintln!("liveserve: shard {s} loadgen restart failed: {e}"),
            }
        }
    }

    /// Which shard was killed, if any.
    pub fn killed(&self) -> Option<usize> {
        self.killed
    }

    /// Stop every load generator, drain and shut down surviving shards.
    pub fn shutdown(mut self) {
        for g in &mut self.gens {
            if let Some(g) = g.take() {
                g.stop();
            }
        }
        for s in &mut self.servers {
            if let Some(s) = s.take() {
                s.shutdown();
            }
        }
    }
}

impl ShardSet for ShardedLive {
    fn observe(&mut self, _quotas: &[Vec<f64>]) -> Option<ShardWindow> {
        let t = self.started.elapsed().as_secs_f64();
        if let Some((shard, at)) = self.cfg.kill {
            if self.killed.is_none() && t >= at {
                self.kill_shard(shard, t);
            }
        }
        // A live gateway's window already carries the limits it enforced.
        let locals: Vec<_> = self
            .servers
            .iter_mut()
            .map(|s| s.as_mut().map(|srv| srv.observe_tick()))
            .collect();
        Some(ShardWindow {
            t,
            reporting: locals.iter().map(Option::is_some).collect(),
            locals,
            controller_lost: self
                .cfg
                .controller_loss
                .is_some_and(|(from, until)| t >= from && t < until),
        })
    }

    fn enforce(&mut self, quotas: &[Vec<f64>]) {
        for (srv, quotas) in self.servers.iter_mut().zip(quotas) {
            let Some(srv) = srv else {
                continue;
            };
            let ups: Vec<RateLimitUpdate> = quotas
                .iter()
                .enumerate()
                .map(|(i, rate)| RateLimitUpdate::limit(ApiId(i as u32), *rate))
                .collect();
            srv.push_limits(&ups);
        }
    }

    /// Fleet burn is exported once, on shard 0's `/metrics` — the
    /// endpoint that already aggregates every shard's series.
    fn slo_signals(&mut self, signals: &[obs::SloBurnSignal]) {
        if let Some(srv) = &self.servers[0] {
            srv.shared.metrics.set_slo_signals(signals);
        }
    }
}

/// Start one shard's generator: the total workload scaled by `share`,
/// schedules re-anchored to absolute time `dt`.
fn start_gen(
    addr: SocketAddr,
    closed: &Option<ClosedLoopSpec>,
    arms: &[OpenLoopArm],
    share: f64,
    dt: f64,
) -> std::io::Result<LoadGen> {
    let closed = closed.as_ref().map(|c| ClosedLoopSpec {
        users_steps: scale_steps(&shift_steps(&c.users_steps, dt), share),
        think: c.think,
        api_weights: c.api_weights.clone(),
        key_spaces: c.key_spaces.clone(),
    });
    let arms = arms
        .iter()
        .map(|a| OpenLoopArm {
            api: a.api,
            rate_steps: scale_steps(&shift_steps(&a.rate_steps, dt), share),
            key_space: a.key_space,
        })
        .collect();
    LoadGen::start(addr, closed, arms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::observe::ClusterObservation;
    use cluster::{ApiSpec, CallNode, ControlLoop, Controller, NoControl, ServiceSpec};
    use simnet::SimDuration;
    use std::time::Duration;

    fn tiny_topo() -> Topology {
        let mut t = Topology::default();
        let s = t.add_service(ServiceSpec::new("svc", 2).queue_capacity(128));
        t.add_api(ApiSpec::single(
            "ping",
            CallNode::leaf(s, SimDuration::from_micros(50)),
        ));
        t
    }

    #[test]
    fn step_helpers_rescale_and_reanchor() {
        let steps = [(0.0, 30.0), (10.0, 90.0)];
        assert_eq!(
            scale_steps(&steps, 1.0 / 3.0),
            vec![(0.0, 10.0), (10.0, 30.0)]
        );
        // Shift past the first step: its value becomes the baseline.
        assert_eq!(shift_steps(&steps, 4.0), vec![(0.0, 30.0), (6.0, 90.0)]);
        // Shift past everything: constant tail.
        assert_eq!(shift_steps(&steps, 20.0), vec![(0.0, 90.0)]);
    }

    #[test]
    fn three_shards_run_merge_and_survive_a_kill() {
        let mut cfg = ShardedLiveConfig::new(
            3,
            LiveConfig {
                control_interval: Duration::from_millis(50),
                ..LiveConfig::default()
            },
        );
        cfg.plane.strike_out = 2;
        cfg.kill = Some((1, 0.4));
        let arms = vec![OpenLoopArm {
            api: 0,
            rate_steps: vec![(0.0, 300.0)],
            key_space: 0,
        }];
        let interval = cfg.live.control_interval;
        let mut live = ShardedLive::start(&tiny_topo(), cfg, None, arms).expect("start");
        let mut ctl = ControlLoop::new(Box::new(NoControl));
        let journal = Arc::clone(ctl.journal());
        live.attach_journal(Arc::clone(&journal));
        let result = crate::run(&mut ctl, &mut live, interval, Duration::from_secs(1));
        assert!(!result.samples.is_empty());
        assert_eq!(live.set().killed(), Some(1));
        // The kill was a real teardown: the dead shard's server is gone,
        // the survivors' still stand.
        let servers = &live.set().servers;
        assert!(servers[1].is_none());
        assert!(servers[0].is_some() && servers[2].is_some());
        // The plane noticed the kill and struck the shard out.
        assert!(
            live.plane_stats().strike_outs >= 1,
            "{:?}",
            live.plane_stats()
        );
        let jsonl = obs::to_jsonl(&journal.snapshot());
        assert!(jsonl.contains("struck out"), "journal: {jsonl}");
        // Schedule re-anchor: after failover the survivors' generators
        // carry the dead shard's share, so merged offered load and
        // goodput keep flowing on ticks well past the kill instant.
        let late: Vec<_> = result
            .samples
            .iter()
            .filter(|s| s.at.as_secs_f64() > 0.6)
            .collect();
        assert!(!late.is_empty(), "run produced post-kill ticks");
        let late_offered: f64 = late.iter().map(|s| s.offered.iter().sum::<f64>()).sum();
        let late_goodput: f64 = late.iter().map(|s| s.goodput.iter().sum::<f64>()).sum();
        assert!(late_offered > 0.0, "survivors keep receiving traffic");
        assert!(late_goodput > 0.0, "survivors keep completing requests");
        // Clean drain: shutting the survivors down joins their event
        // loops and worker pools without hanging or panicking.
        live.into_set().shutdown();
    }

    #[test]
    fn sharded_registry_carries_shard_labels() {
        let cfg = ShardedLiveConfig::new(2, LiveConfig::default());
        let live = ShardedLive::start(&tiny_topo(), cfg, None, Vec::new()).expect("start");
        let text = live.set().servers[0]
            .as_ref()
            .expect("shard 0")
            .registry()
            .render_prometheus();
        assert!(text.contains("shard=\"0\""), "{text}");
        assert!(text.contains("shard=\"1\""), "{text}");
        live.into_set().shutdown();
    }

    #[test]
    fn sharded_traces_carry_their_servers_index() {
        use std::io::{BufRead, BufReader, Write};
        let cfg = ShardedLiveConfig::new(2, LiveConfig::default());
        let live = ShardedLive::start(&tiny_topo(), cfg, None, Vec::new()).expect("start");
        // The same trace id on both shards, as their generators mint it.
        for server in live.set().servers.iter().flatten() {
            let mut conn = std::net::TcpStream::connect(server.addr()).expect("connect");
            conn.write_all(b"REQ 7 0 - 7\n").expect("send");
            let mut line = String::new();
            BufReader::new(conn).read_line(&mut line).expect("reply");
            assert!(line.starts_with("OK 7 "), "got {line:?}");
        }
        let shards: Vec<u32> = live.set().traces().iter().map(|e| e.shard).collect();
        assert_eq!(shards, [0, 0, 0, 1, 1, 1]);
        live.into_set().shutdown();
    }

    #[test]
    fn controller_loss_engages_local_guards_without_fail_open() {
        let mut cfg = ShardedLiveConfig::new(
            2,
            LiveConfig {
                control_interval: Duration::from_millis(40),
                ..LiveConfig::default()
            },
        );
        cfg.plane.limit_ttl = 2;
        cfg.controller_loss = Some((0.2, 10.0));
        let arms = vec![OpenLoopArm {
            api: 0,
            rate_steps: vec![(0.0, 200.0)],
            key_space: 0,
        }];
        let interval = cfg.live.control_interval;
        let mut live = ShardedLive::start(&tiny_topo(), cfg, None, arms).expect("start");
        // A controller that pushes a finite limit before the loss window.
        struct Fixed;
        impl Controller for Fixed {
            fn control(&mut self, obs: &ClusterObservation) -> Vec<RateLimitUpdate> {
                vec![RateLimitUpdate {
                    api: obs.apis[0].api,
                    rate: 120.0,
                }]
            }
        }
        let mut ctl = ControlLoop::new(Box::new(Fixed));
        let result = crate::run(&mut ctl, &mut live, interval, Duration::from_secs(1));
        // Ticks inside the loss window still land on the timeline.
        assert!(
            result.samples.iter().any(|s| s.at.as_secs_f64() > 0.3),
            "lost ticks recorded"
        );
        let gs = live.guard_stats();
        assert!(gs.held_ticks > 0, "guards held: {gs:?}");
        assert!(gs.fallback_ticks > 0, "guards fell back: {gs:?}");
        // Never fail-open or fail-closed while blind: read the limits
        // the gateways actually enforce.
        for srv in live.set().servers.iter().flatten() {
            let q = srv.rate_limit(0);
            assert!(q.is_finite(), "blind quota must be finite");
            assert!(q > 0.0, "blind quota must admit something");
        }
        live.into_set().shutdown();
    }
}
