//! The one control loop: Observe → Decide → Act over a [`Plane`].
//!
//! TopFull has exactly one loop (§5): once per control interval observe
//! the cluster, decide, move the per-API limits at the gateway.
//! [`ControlLoop`] is that loop and the only place a
//! [`Controller`] is stepped or the SLO burn-rate monitor is fed; what
//! it runs over is a [`Plane`] — the simulator's [`Engine`], the live
//! gateway (`liveserve::LiveServer`), or N gateway shards behind the
//! sharded adapter (`topfull::shard::Sharded`). The loop knows nothing
//! about which one it has.
//!
//! Per tick, in this order (the journal order is part of the contract):
//!
//! 1. [`Plane::observe`] closes the metric window;
//! 2. the window is folded into the [`obs::SloMonitor`] — transitions
//!    are journaled, the signals handed back via [`Plane::slo_signals`];
//! 3. the optional watchdog gates the tick (freeze → decay → re-entry);
//! 4. [`Controller::control`] decides;
//! 5. [`Plane::apply`] acts — with the decision, or with `None` when the
//!    controller had no say this tick.

use crate::controller::{Controller, RateLimitUpdate};
use crate::engine::Engine;
use crate::observe::ClusterObservation;
use crate::types::ApiId;
use simnet::{SimDuration, SimTime};
use std::sync::Arc;

/// Whether a window reached the deciding side of the loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Contact {
    /// Observe, fold, decide, act.
    Up,
    /// The control loop itself is down this tick (the simulator's
    /// controller-stall fault): the window is still folded into the SLO
    /// monitor — alerting outlives the loop — but nothing is decided.
    Stalled,
    /// The window never reached the controller (sharded controller
    /// loss, every report partitioned away): it is handed back to the
    /// caller for its timeline, and neither folded nor acted on.
    Lost,
}

/// One closed metric window as a [`Plane`] presents it.
pub struct Observed {
    /// The controller's view of the window.
    pub view: ClusterObservation,
    /// The plane's clock at window close. `view.now` can lag it when
    /// telemetry is stale; the watchdog measures that gap.
    pub now: SimTime,
    pub contact: Contact,
}

/// What the control loop runs over: something that closes metric
/// windows and enforces per-API entry limits.
pub trait Plane {
    /// Close the current metric window. `None` when there is nothing to
    /// see (no window has completed yet, every shard is dead).
    fn observe(&mut self) -> Option<Observed>;

    /// The limit currently in force for `api` (`INFINITY` = unlimited),
    /// as the controller would have set it.
    fn rate_limit(&self, api: ApiId) -> f64;

    /// Act on the window just observed. `Some(updates)` is the
    /// controller's decision (possibly empty: a heartbeat); `None` means
    /// no controller contact this tick — limits stay where they are, or
    /// degrade by whatever local rule the plane carries.
    fn apply(&mut self, updates: Option<&[RateLimitUpdate]>);

    /// The burn-rate signals folded from the window just observed, for
    /// planes that export them (the live gateway's `/metrics` gauges).
    fn slo_signals(&mut self, _signals: &[obs::SloBurnSignal]) {}
}

/// The simulator as a plane: the engine closes its own windows on the
/// metrics tick, so observing is reading the latest one.
impl Plane for Engine {
    fn observe(&mut self) -> Option<Observed> {
        let view = self.latest_observation()?.clone();
        Some(Observed {
            view,
            now: self.now(),
            // A stalled control plane stalls every controller, watchdog
            // or not — the fault models the loop itself being down.
            contact: if self.control_stalled() {
                Contact::Stalled
            } else {
                Contact::Up
            },
        })
    }

    fn rate_limit(&self, api: ApiId) -> f64 {
        Engine::rate_limit(self, api)
    }

    fn apply(&mut self, updates: Option<&[RateLimitUpdate]>) {
        for u in updates.unwrap_or_default() {
            self.set_rate_limit(u.api, u.rate);
        }
    }
}

/// The hardened loop's watchdog ([`ControlLoop::with_watchdog`]): an
/// observation older than this counts as dark (stale telemetry).
const MAX_OBS_AGE: SimDuration = SimDuration::from_secs(3);
/// Consecutive dark ticks before the watchdog engages.
const DARK_AFTER: u32 = 2;
/// Ticks to hold rate limits frozen once engaged, before decaying.
pub const FREEZE_TICKS: u32 = 5;
/// Per-tick multiplicative decay applied to finite limits after the
/// freeze expires (gently sheds load while blind).
const DECAY: f64 = 0.98;
/// Limits never decay below this rate (requests/s).
const FLOOR: f64 = 1.0;
/// Maximum per-tick growth factor of any limit while re-entering
/// control after an outage (smooth ramp instead of a step).
const REENTRY_GROWTH: f64 = 1.25;
/// Ticks the re-entry ramp lasts.
const REENTRY_TICKS: u32 = 5;

/// What the watchdog did over a run (for tests and experiment reports).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WatchdogStats {
    /// Control ticks skipped because the control plane was stalled.
    pub stalled_ticks: u64,
    /// Ticks spent with limits frozen (observations dark).
    pub frozen_ticks: u64,
    /// Ticks spent decaying limits (still dark past the freeze window).
    pub decayed_ticks: u64,
    /// Times control was re-entered after an outage.
    pub reentries: u64,
}

#[derive(Default)]
struct Watchdog {
    dark_streak: u32,
    reentry_left: u32,
    stats: WatchdogStats,
}

/// The watchdog's verdict on one tick.
enum Gate {
    /// Control runs; `ramp` caps per-tick limit growth at
    /// [`REENTRY_GROWTH`] while re-entering.
    Open { ramp: bool },
    /// Dark and engaged, inside the freeze window: limits stay put.
    Frozen,
    /// Dark past the freeze window: finite limits shrink by [`DECAY`]
    /// per tick, never below [`FLOOR`].
    Decay,
}

impl Watchdog {
    fn engaged(&self) -> bool {
        self.dark_streak >= DARK_AFTER
    }

    /// Advance the dark/light state machine on this window and journal
    /// its transitions.
    fn gate(&mut self, view: &ClusterObservation, now: SimTime, journal: &obs::Journal) -> Gate {
        let note = |event: &str| {
            journal.record(obs::JournalEntry::Watchdog {
                t: view.now.as_secs_f64(),
                event: event.into(),
            });
        };
        let dark = now.duration_since(view.now) > MAX_OBS_AGE
            || view.services.iter().all(|s| !s.utilization.is_finite());
        if !dark {
            if self.engaged() {
                self.stats.reentries += 1;
                self.reentry_left = REENTRY_TICKS;
                note("reentry: observations recovered, ramping limits");
            }
            self.dark_streak = 0;
            return self.open();
        }
        self.dark_streak = self.dark_streak.saturating_add(1);
        if self.dark_streak == DARK_AFTER {
            note("engaged: observations dark, limits frozen");
        }
        if !self.engaged() {
            // One flaky tick is the hardened controller's problem, not
            // the watchdog's.
            return self.open();
        }
        let past_engage = self.dark_streak - DARK_AFTER;
        if past_engage < FREEZE_TICKS {
            self.stats.frozen_ticks += 1;
            return Gate::Frozen;
        }
        if past_engage == FREEZE_TICKS {
            note("decaying: still dark past freeze window");
        }
        self.stats.decayed_ticks += 1;
        Gate::Decay
    }

    fn open(&mut self) -> Gate {
        let ramp = self.reentry_left > 0;
        self.reentry_left = self.reentry_left.saturating_sub(1);
        Gate::Open { ramp }
    }
}

/// The control loop: holds the controller, the SLO burn-rate monitor,
/// the decision journal and the optional watchdog, and steps them over
/// whatever [`Plane`] it is handed.
pub struct ControlLoop {
    controller: Box<dyn Controller>,
    slo: obs::SloMonitor,
    journal: Arc<obs::Journal>,
    watchdog: Option<Watchdog>,
}

impl ControlLoop {
    /// A loop around `controller`, with a fresh shared decision journal
    /// the controller records its verdicts into.
    pub fn new(mut controller: Box<dyn Controller>) -> Self {
        let journal = obs::Journal::shared();
        controller.attach_journal(Arc::clone(&journal));
        ControlLoop {
            controller,
            slo: obs::SloMonitor::new(obs::SloConfig::default()),
            journal,
            watchdog: None,
        }
    }

    /// The hardened loop: a watchdog that (a) counts ticks the control
    /// plane was stalled, (b) freezes rate limits when observations go
    /// dark (stale, or all utilizations unreadable), then gently decays
    /// them toward a floor — blind open-loop operation sheds instead of
    /// running on the last pre-outage limits — and (c) ramps limit
    /// growth when control re-enters, instead of letting the
    /// controller's stale internal state step limits up abruptly.
    pub fn with_watchdog(mut self) -> Self {
        self.watchdog = Some(Watchdog::default());
        self
    }

    /// The shared decision journal.
    pub fn journal(&self) -> &Arc<obs::Journal> {
        &self.journal
    }

    /// Replace the SLO burn-rate monitor's objective/windows. Resets any
    /// accumulated burn history, so call before the run starts.
    pub fn set_slo_config(&mut self, cfg: obs::SloConfig) {
        self.slo = obs::SloMonitor::new(cfg);
    }

    /// What the watchdog did so far (zeroes when none is attached).
    pub fn watchdog_stats(&self) -> WatchdogStats {
        self.watchdog.as_ref().map(|w| w.stats).unwrap_or_default()
    }

    /// Name of the attached controller.
    pub fn controller_name(&self) -> &str {
        self.controller.name()
    }

    /// One control tick over `plane`. Returns the window the plane
    /// closed, whether or not it reached the controller, for the
    /// caller's timeline.
    pub fn tick(&mut self, plane: &mut dyn Plane) -> Option<ClusterObservation> {
        let Some(Observed { view, now, contact }) = plane.observe() else {
            plane.apply(None);
            return None;
        };
        if contact != Contact::Lost {
            self.fold_slo(&view, plane);
        }
        let updates = match contact {
            Contact::Up => self.decide(&view, now, plane),
            Contact::Stalled => {
                // The control plane missed this tick entirely; limits
                // stay exactly where they are.
                if let Some(wd) = &mut self.watchdog {
                    wd.stats.stalled_ticks += 1;
                }
                None
            }
            Contact::Lost => None,
        };
        plane.apply(updates.as_deref());
        Some(view)
    }

    /// This tick's updates: the controller's, as far as the watchdog
    /// lets them through (`None` = hold). Limits are only read here.
    fn decide(
        &mut self,
        view: &ClusterObservation,
        now: SimTime,
        plane: &dyn Plane,
    ) -> Option<Vec<RateLimitUpdate>> {
        let gate = match &mut self.watchdog {
            Some(wd) => wd.gate(view, now, &self.journal),
            None => Gate::Open { ramp: false },
        };
        match gate {
            Gate::Frozen => None,
            Gate::Decay => Some(
                (0..view.apis.len() as u32)
                    .map(ApiId)
                    .filter_map(|api| {
                        let l = plane.rate_limit(api);
                        l.is_finite()
                            .then(|| RateLimitUpdate::limit(api, (l * DECAY).max(FLOOR)))
                    })
                    .collect(),
            ),
            Gate::Open { ramp } => {
                let mut updates = self.controller.control(view);
                if ramp {
                    // No limit may grow faster than `REENTRY_GROWTH`
                    // per tick right after an outage. A second update
                    // for the same API ramps from the first, as if the
                    // two were applied one at a time.
                    for i in 0..updates.len() {
                        let api = updates[i].api;
                        let cur = updates[..i]
                            .iter()
                            .rev()
                            .find(|p| p.api == api)
                            .map_or_else(|| plane.rate_limit(api), |p| p.rate);
                        if cur.is_finite() {
                            updates[i].rate = updates[i].rate.min(cur * REENTRY_GROWTH);
                        }
                    }
                }
                Some(updates)
            }
        }
    }

    /// Feed this window into the SLO burn-rate monitor, journal every
    /// severity transition and hand the per-API signals to the plane.
    /// Runs on the control thread only, so journal order is
    /// deterministic across worker counts. Rejected (never-admitted)
    /// requests are neither good nor bad: shedding spends no error
    /// budget.
    fn fold_slo(&mut self, view: &ClusterObservation, plane: &mut dyn Plane) {
        let w = view.window.as_secs_f64();
        let samples: Vec<obs::ApiSloSample> = view
            .apis
            .iter()
            .map(|a| obs::ApiSloSample {
                good: a.goodput * w,
                bad: (a.slo_violated + a.failed) * w,
            })
            .collect();
        let t = view.now.as_secs_f64();
        let tick = self.slo.observe(t, &samples);
        for tr in &tick.transitions {
            let api_name = view
                .apis
                .get(tr.api as usize)
                .map(|a| a.name.clone())
                .unwrap_or_else(|| format!("api{}", tr.api));
            self.journal.record(obs::JournalEntry::SloBurn {
                t,
                api: tr.api,
                api_name,
                from: tr.from.as_str().into(),
                to: tr.to.as_str().into(),
                fast_burn: tr.fast_burn,
                slow_burn: tr.slow_burn,
                budget_remaining: tr.budget_remaining,
            });
        }
        plane.slo_signals(&tick.signals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{ApiWindow, ServiceWindow};
    use crate::resilience::ResilienceStats;
    use crate::types::{BusinessPriority, ServiceId};
    use std::cell::RefCell;
    use std::rc::Rc;

    type Log = Rc<RefCell<Vec<String>>>;

    /// A one-service, one-API window: `util` on the service, `bad` of 100
    /// requests/s violating the SLO, stamped `age` seconds before `at`.
    fn window(at: u64, age: u64, util: f64, bad: f64) -> Observed {
        let now = SimTime::from_secs(at);
        Observed {
            view: ClusterObservation {
                now: SimTime::from_secs(at - age),
                window: SimDuration::from_secs(1),
                services: vec![ServiceWindow {
                    service: ServiceId(0),
                    name: "svc".into(),
                    utilization: util,
                    alive_pods: 1,
                    desired_pods: 1,
                    queue_len: 0,
                    mean_queuing_delay: SimDuration::ZERO,
                    started_calls: 100,
                    dropped_calls: 0,
                }],
                apis: vec![ApiWindow {
                    api: ApiId(0),
                    name: "get".into(),
                    business: BusinessPriority(0),
                    offered: 100.0,
                    admitted: 100.0,
                    goodput: 100.0 - bad,
                    slo_violated: bad,
                    failed: 0.0,
                    p50: None,
                    p95: None,
                    p99: None,
                    rate_limit: f64::INFINITY,
                }],
                api_paths: vec![vec![ServiceId(0)]],
                slo: SimDuration::from_secs(1),
                resilience: ResilienceStats::default(),
            },
            now,
            contact: Contact::Up,
        }
    }

    /// A scripted plane: hands out queued windows, keeps one limit, and
    /// logs every call the loop makes on it.
    struct FakePlane {
        windows: std::collections::VecDeque<Observed>,
        limit: f64,
        log: Log,
    }

    impl FakePlane {
        fn new(log: &Log, windows: Vec<Observed>) -> Self {
            FakePlane {
                windows: windows.into(),
                limit: f64::INFINITY,
                log: Rc::clone(log),
            }
        }
    }

    impl Plane for FakePlane {
        fn observe(&mut self) -> Option<Observed> {
            self.log.borrow_mut().push("observe".into());
            self.windows.pop_front()
        }

        fn rate_limit(&self, _api: ApiId) -> f64 {
            self.log.borrow_mut().push("read".into());
            self.limit
        }

        fn apply(&mut self, updates: Option<&[RateLimitUpdate]>) {
            self.log.borrow_mut().push(match updates {
                Some(u) => format!("apply {:?}", u.iter().map(|u| u.rate).collect::<Vec<_>>()),
                None => "apply none".into(),
            });
            if let Some(u) = updates.and_then(|u| u.last()) {
                self.limit = u.rate;
            }
        }

        fn slo_signals(&mut self, signals: &[obs::SloBurnSignal]) {
            self.log
                .borrow_mut()
                .push(format!("slo x{}", signals.len()));
        }
    }

    /// Always asks for `rate` on API 0, and logs being asked.
    struct Wants {
        rate: f64,
        log: Log,
    }

    impl Controller for Wants {
        fn control(&mut self, _o: &ClusterObservation) -> Vec<RateLimitUpdate> {
            self.log.borrow_mut().push("control".into());
            vec![RateLimitUpdate::limit(ApiId(0), self.rate)]
        }
    }

    fn wants(rate: f64, log: &Log) -> Box<Wants> {
        Box::new(Wants {
            rate,
            log: Rc::clone(log),
        })
    }

    #[test]
    fn a_tick_observes_folds_decides_then_applies() {
        let log = Log::default();
        let mut plane = FakePlane::new(&log, vec![window(1, 0, 0.5, 0.0)]);
        let mut ctl = ControlLoop::new(wants(40.0, &log));
        let seen = ctl.tick(&mut plane).expect("the window comes back");
        assert_eq!(seen.now, SimTime::from_secs(1));
        assert_eq!(
            *log.borrow(),
            ["observe", "slo x1", "control", "apply [40.0]"]
        );
        // Nothing to observe: nothing folded or decided, and the plane
        // is told the controller had no say.
        log.borrow_mut().clear();
        assert!(ctl.tick(&mut plane).is_none());
        assert_eq!(*log.borrow(), ["observe", "apply none"]);
    }

    #[test]
    fn a_stalled_tick_folds_but_applies_nothing_and_is_counted() {
        let log = Log::default();
        let mut stalled = window(1, 0, 0.5, 0.0);
        stalled.contact = Contact::Stalled;
        let mut lost = window(2, 0, 0.5, 0.0);
        lost.contact = Contact::Lost;
        let mut plane = FakePlane::new(&log, vec![stalled, lost]);
        let mut ctl = ControlLoop::new(wants(40.0, &log)).with_watchdog();
        assert!(ctl.tick(&mut plane).is_some());
        assert_eq!(*log.borrow(), ["observe", "slo x1", "apply none"]);
        assert_eq!(ctl.watchdog_stats().stalled_ticks, 1);
        // A window that never reached the controller is handed back for
        // the timeline, but not even folded.
        log.borrow_mut().clear();
        assert!(ctl.tick(&mut plane).is_some());
        assert_eq!(*log.borrow(), ["observe", "apply none"]);
        assert_eq!(ctl.watchdog_stats().stalled_ticks, 1);
        assert!(plane.limit.is_infinite(), "no limit moved");
    }

    #[test]
    fn sustained_burn_journals_one_transition_per_escalation() {
        let log = Log::default();
        let windows = (1..=10).map(|t| window(t, 0, 0.5, 50.0)).collect();
        let mut plane = FakePlane::new(&log, windows);
        let mut ctl = ControlLoop::new(Box::new(crate::NoControl));
        for _ in 0..10 {
            ctl.tick(&mut plane);
        }
        let burns = ctl
            .journal()
            .snapshot()
            .iter()
            .filter(|e| matches!(e, obs::JournalEntry::SloBurn { .. }))
            .count();
        assert_eq!(burns, 1, "ok → page once, then it stays paged");
    }

    #[test]
    fn watchdog_freezes_decays_and_ramps_only_through_the_plane() {
        let log = Log::default();
        let dark = |t| window(t, 0, f64::NAN, 0.0);
        let lit = |t| window(t, 0, 0.5, 0.0);
        let mut windows = vec![lit(1), dark(2)];
        windows.extend((3..=8).map(dark));
        windows.push(window(9, 4, 0.5, 0.0)); // stale is dark too
        windows.extend((10..=15).map(lit));
        let mut plane = FakePlane::new(&log, windows);
        // 1.04 decays twice: once above the floor, once onto it.
        let mut ctl = ControlLoop::new(wants(1.04, &log)).with_watchdog();
        ctl.tick(&mut plane);
        // One dark tick short of engaging still reaches the controller.
        ctl.tick(&mut plane);
        assert_eq!(plane.limit, 1.04);
        ctl.controller = wants(1000.0, &log);
        let frozen = [1.04; FREEZE_TICKS as usize];
        // ×0.98 a tick onto a floor of 1 rps.
        let decayed = [1.04 * 0.98, 1.0];
        // Re-entry ramps by 1.25 a tick for five ticks, then lets go.
        let ramp = [1.25, 1.5625, 1.953125, 2.44140625, 3.0517578125, 1000.0];
        let mut limits = Vec::new();
        for _ in 3..=15 {
            log.borrow_mut().clear();
            ctl.tick(&mut plane);
            limits.push(plane.limit);
            let calls = log.borrow();
            let controlled = calls.iter().any(|c| c == "control");
            let applied = calls.last().expect("every tick ends in apply");
            assert!(applied.starts_with("apply"), "{calls:?}");
            // Engaged dark ticks never consult the controller.
            let dark_ticks = frozen.len() + decayed.len();
            assert_eq!(controlled, limits.len() > dark_ticks, "{calls:?}");
        }
        assert_eq!(limits, [&frozen[..], &decayed, &ramp].concat());
        let stats = ctl.watchdog_stats();
        assert_eq!(
            (stats.frozen_ticks, stats.decayed_ticks, stats.reentries),
            (u64::from(FREEZE_TICKS), 2, 1)
        );
        let events: Vec<String> = ctl
            .journal()
            .snapshot()
            .iter()
            .filter_map(|e| match e {
                obs::JournalEntry::Watchdog { event, .. } => {
                    event.split(':').next().map(str::to_string)
                }
                _ => None,
            })
            .collect();
        assert_eq!(events, ["engaged", "decaying", "reentry"]);
    }
}
