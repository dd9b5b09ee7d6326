//! Workload generation: open-loop Poisson traffic and closed-loop users.
//!
//! The paper drives its testbed with Locust (§5): a population of users
//! each issuing ~1 request/s ("2600 Locust users invoking 1 request per
//! second", §6.1). [`ClosedLoopWorkload`] models that population —
//! each user issues a request, waits for the response (bounded by a client
//! timeout), then paces to its think time. [`OpenLoopWorkload`] offers
//! rate-scheduled Poisson arrivals, useful when the experiment wants an
//! arrival process that does not self-throttle under overload.

use crate::resilience::{RetryBudget, RetryBudgetConfig};
use crate::types::ApiId;
use rand::rngs::SmallRng;
use rand::Rng;
use rand_distr::{Distribution, Exp};
use serde::{Deserialize, Serialize};
use simnet::{SimDuration, SimTime};

/// One client request arriving at the gateway.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    pub at: SimTime,
    pub api: ApiId,
    /// Present for closed-loop arrivals: the issuing user and its request
    /// generation (for timeout deduplication).
    pub user: Option<UserRef>,
}

/// A closed-loop user reference carried through a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct UserRef {
    pub id: u32,
    /// Monotonic per-user request counter; a response or timeout only
    /// wakes the user if its generation matches the user's current one.
    pub gen: u64,
}

/// How a request concluded, from the client's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResponseKind {
    /// Completed within the SLO.
    Success,
    /// Completed, but late (SLO violated).
    Late,
    /// Failed inside the cluster (shed, dropped, crashed).
    Failed,
    /// The client's own timeout fired first.
    Timeout,
}

impl ResponseKind {
    /// What a naive retrying client would retry on.
    pub fn is_retryable(self) -> bool {
        !matches!(self, ResponseKind::Success)
    }
}

/// A workload plugged into the engine.
///
/// The engine calls [`Workload::on_tick`] at `t = 0` and then every
/// [`Workload::tick_interval`]; ticks may emit arrivals (open loop
/// generates a whole interval's worth; closed loop adjusts its user
/// population). Responses and client timeouts call
/// [`Workload::on_response`], which may emit the user's next request.
pub trait Workload: Send {
    /// Periodic driver; appends arrivals with `at` in
    /// `[now, now + tick_interval)` to `out` (a caller-owned buffer, so
    /// a tick allocates nothing once it has grown).
    fn on_tick(&mut self, now: SimTime, rng: &mut SmallRng, out: &mut Vec<Arrival>);

    /// A response (or client timeout) for `user`'s request generation
    /// arrived at `now`; returns the user's follow-up arrival, if any —
    /// a closed-loop user has at most one request outstanding. `kind`
    /// lets retry-aware clients distinguish failures from successes.
    fn on_response(
        &mut self,
        user: UserRef,
        kind: ResponseKind,
        now: SimTime,
        rng: &mut SmallRng,
    ) -> Option<Arrival>;

    /// How often `on_tick` should run.
    fn tick_interval(&self) -> SimDuration {
        SimDuration::from_secs(1)
    }

    /// Closed-loop client timeout: a user abandons a request after this
    /// long and issues its next one. `None` disables timeouts.
    fn client_timeout(&self) -> Option<SimDuration> {
        None
    }

    /// Cumulative `(retries_issued, retries_suppressed)` counters for
    /// retry-aware populations; the engine folds these into its
    /// resilience observability. Non-retrying workloads report zeros.
    fn retry_stats(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// A piecewise-constant schedule: `(from, value)` steps, sorted by time.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RateSchedule {
    steps: Vec<(SimTime, f64)>,
}

impl RateSchedule {
    /// A constant schedule.
    pub fn constant(v: f64) -> Self {
        RateSchedule {
            steps: vec![(SimTime::ZERO, v)],
        }
    }

    /// Build from `(from, value)` steps; sorted internally.
    pub fn steps(mut steps: Vec<(SimTime, f64)>) -> Self {
        steps.sort_by_key(|(t, _)| *t);
        RateSchedule { steps }
    }

    /// Value in force at time `t` (0 before the first step): the last
    /// step from `t` or earlier, found by bisection.
    pub fn at(&self, t: SimTime) -> f64 {
        let after = self.steps.partition_point(|(from, _)| *from <= t);
        after.checked_sub(1).map_or(0.0, |i| self.steps[i].1)
    }

    /// A surge: `base` rate, stepping to `peak` during `[from, until)`.
    pub fn surge(base: f64, peak: f64, from: SimTime, until: SimTime) -> Self {
        RateSchedule::steps(vec![(SimTime::ZERO, base), (from, peak), (until, base)])
    }
}

/// Open-loop Poisson arrivals per API, with per-API rate schedules.
///
/// Each tick generates the whole next interval's arrivals at the rate in
/// force at the start of the interval, so rate steps take effect within
/// one tick.
pub struct OpenLoopWorkload {
    schedules: Vec<(ApiId, RateSchedule)>,
    tick: SimDuration,
}

impl OpenLoopWorkload {
    /// Poisson arrivals for each `(api, schedule)` pair.
    pub fn new(schedules: Vec<(ApiId, RateSchedule)>) -> Self {
        OpenLoopWorkload {
            schedules,
            tick: SimDuration::from_secs(1),
        }
    }

    /// Constant-rate convenience constructor.
    pub fn constant(rates: Vec<(ApiId, f64)>) -> Self {
        Self::new(
            rates
                .into_iter()
                .map(|(api, r)| (api, RateSchedule::constant(r)))
                .collect(),
        )
    }
}

impl Workload for OpenLoopWorkload {
    fn on_tick(&mut self, now: SimTime, rng: &mut SmallRng, out: &mut Vec<Arrival>) {
        let horizon = now + self.tick;
        for (api, sched) in &self.schedules {
            let rate = sched.at(now);
            if rate <= 0.0 {
                continue;
            }
            let exp = Exp::new(rate).expect("positive rate");
            let mut t = now;
            loop {
                t += SimDuration::from_secs_f64(exp.sample(rng));
                if t >= horizon {
                    break;
                }
                out.push(Arrival {
                    at: t,
                    api: *api,
                    user: None,
                });
            }
        }
    }

    fn on_response(
        &mut self,
        _user: UserRef,
        _kind: ResponseKind,
        _now: SimTime,
        _rng: &mut SmallRng,
    ) -> Option<Arrival> {
        None
    }

    fn tick_interval(&self) -> SimDuration {
        self.tick
    }
}

/// State of one closed-loop user.
#[derive(Clone, Debug)]
struct UserState {
    gen: u64,
    /// True while waiting for a response/timeout.
    waiting: bool,
    /// When the in-flight request was issued (for pacing).
    issued_at: SimTime,
}

/// A Locust-style closed-loop user population.
///
/// Each active user repeatedly: picks an API by weight, issues a request,
/// waits for its response (or the client timeout), then issues the next
/// request at `max(response_time, issued_at + think_time)` — i.e. a user
/// contributes at most `1 / think_time` requests per second, less when
/// responses are slow.
pub struct ClosedLoopWorkload {
    api_weights: Vec<(ApiId, f64)>,
    weight_total: f64,
    think: SimDuration,
    timeout: Option<SimDuration>,
    users_schedule: RateSchedule,
    /// Every user ever created. Growth activates the lowest parked id
    /// and shrinking parks the highest active one, so the active users
    /// are always exactly the ids below `active`.
    users: Vec<UserState>,
    active: usize,
}

impl ClosedLoopWorkload {
    /// A population following `users_schedule` (value = user count), each
    /// pacing to `think` and picking APIs by `api_weights`.
    pub fn new(
        api_weights: Vec<(ApiId, f64)>,
        users_schedule: RateSchedule,
        think: SimDuration,
    ) -> Self {
        assert!(!api_weights.is_empty(), "need at least one API");
        let weight_total: f64 = api_weights.iter().map(|(_, w)| *w).sum();
        assert!(weight_total > 0.0, "weights must sum positive");
        ClosedLoopWorkload {
            api_weights,
            weight_total,
            think: if think.is_zero() {
                SimDuration::from_millis(1)
            } else {
                think
            },
            timeout: Some(SimDuration::from_secs(10)),
            users_schedule,
            users: Vec::new(),
            active: 0,
        }
    }

    /// A fixed-size population.
    pub fn fixed(api_weights: Vec<(ApiId, f64)>, users: u32, think: SimDuration) -> Self {
        Self::new(api_weights, RateSchedule::constant(f64::from(users)), think)
    }

    /// Builder: change (or disable) the client timeout.
    pub fn timeout(mut self, t: Option<SimDuration>) -> Self {
        self.timeout = t;
        self
    }

    /// Number of currently active users.
    pub fn active_users(&self) -> usize {
        self.active
    }

    fn pick_api(&self, rng: &mut SmallRng) -> ApiId {
        let mut x: f64 = rng.gen::<f64>() * self.weight_total;
        for (api, w) in &self.api_weights {
            x -= w;
            if x <= 0.0 {
                return *api;
            }
        }
        self.api_weights.last().expect("non-empty").0
    }

    fn issue(&mut self, id: u32, at: SimTime, rng: &mut SmallRng) -> Arrival {
        let u = &mut self.users[id as usize];
        u.gen += 1;
        u.waiting = true;
        u.issued_at = at;
        let gen = u.gen;
        Arrival {
            at,
            api: self.pick_api(rng),
            user: Some(UserRef { id, gen }),
        }
    }
}

impl Workload for ClosedLoopWorkload {
    fn on_tick(&mut self, now: SimTime, rng: &mut SmallRng, out: &mut Vec<Arrival>) {
        let target = self.users_schedule.at(now).max(0.0) as usize;
        // Grow: activate new users, staggering their first request across
        // the tick so arrival bursts don't synchronize.
        while self.active < target {
            // Reactivate the lowest parked user if any, else create one.
            let id = self.active;
            if id == self.users.len() {
                self.users.push(UserState {
                    gen: 0,
                    waiting: false,
                    issued_at: SimTime::ZERO,
                });
            }
            self.active += 1;
            let jitter =
                SimDuration::from_secs_f64(rng.gen::<f64>() * self.tick_interval().as_secs_f64());
            out.push(self.issue(id as u32, now + jitter, rng));
        }
        // Shrink: park surplus users, highest id first; in-flight
        // requests are ignored on completion because the user is parked.
        self.active = self.active.min(target);
    }

    fn on_response(
        &mut self,
        user: UserRef,
        _kind: ResponseKind,
        now: SimTime,
        rng: &mut SmallRng,
    ) -> Option<Arrival> {
        let u = self.users.get(user.id as usize)?;
        // Stale generation (already timed out) or parked user: ignore.
        if user.id as usize >= self.active || u.gen != user.gen || !u.waiting {
            return None;
        }
        let pace_at = (u.issued_at + self.think).max(now);
        self.users[user.id as usize].waiting = false;
        Some(self.issue(user.id, pace_at, rng))
    }

    fn client_timeout(&self) -> Option<SimDuration> {
        self.timeout
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    /// One workload tick, as the arrivals it emitted.
    pub(super) fn tick(w: &mut impl Workload, now: SimTime, rng: &mut SmallRng) -> Vec<Arrival> {
        let mut out = Vec::new();
        w.on_tick(now, rng, &mut out);
        out
    }

    #[test]
    fn rate_schedule_steps() {
        let s = RateSchedule::surge(100.0, 500.0, SimTime::from_secs(10), SimTime::from_secs(20));
        assert_eq!(s.at(SimTime::ZERO), 100.0);
        assert_eq!(s.at(SimTime::from_secs(10)), 500.0);
        assert_eq!(s.at(SimTime::from_secs(19)), 500.0);
        assert_eq!(s.at(SimTime::from_secs(20)), 100.0);
    }

    #[test]
    fn rate_schedule_before_first_step_is_zero() {
        let s = RateSchedule::steps(vec![(SimTime::from_secs(5), 10.0)]);
        assert_eq!(s.at(SimTime::ZERO), 0.0);
        assert_eq!(s.at(SimTime::from_secs(5)), 10.0);
    }

    #[test]
    fn open_loop_mean_rate_matches_schedule() {
        let mut w = OpenLoopWorkload::constant(vec![(ApiId(0), 200.0)]);
        let mut r = rng();
        let mut count = 0usize;
        for s in 0..50u64 {
            let arrivals = tick(&mut w, SimTime::from_secs(s), &mut r);
            for a in &arrivals {
                assert!(a.at >= SimTime::from_secs(s));
                assert!(a.at < SimTime::from_secs(s + 1));
                assert_eq!(a.api, ApiId(0));
            }
            count += arrivals.len();
        }
        let mean = count as f64 / 50.0;
        assert!(
            (185.0..215.0).contains(&mean),
            "Poisson mean ≈200 rps, got {mean}"
        );
    }

    #[test]
    fn open_loop_zero_rate_emits_nothing() {
        let mut w = OpenLoopWorkload::constant(vec![(ApiId(0), 0.0)]);
        assert!(tick(&mut w, SimTime::ZERO, &mut rng()).is_empty());
    }

    #[test]
    fn closed_loop_spawns_to_target() {
        let mut w = ClosedLoopWorkload::fixed(vec![(ApiId(0), 1.0)], 10, SimDuration::from_secs(1));
        let arrivals = tick(&mut w, SimTime::ZERO, &mut rng());
        assert_eq!(arrivals.len(), 10);
        assert_eq!(w.active_users(), 10);
        // Second tick: everyone is in flight, no new arrivals.
        assert!(tick(&mut w, SimTime::from_secs(1), &mut rng()).is_empty());
    }

    #[test]
    fn closed_loop_user_paces_to_think_time() {
        let mut w = ClosedLoopWorkload::fixed(vec![(ApiId(0), 1.0)], 1, SimDuration::from_secs(1));
        let mut r = rng();
        let first = tick(&mut w, SimTime::ZERO, &mut r)[0];
        let user = first.user.unwrap();
        // Fast response (100 ms): next request waits until think time.
        let next = w.on_response(
            user,
            ResponseKind::Success,
            first.at + SimDuration::from_millis(100),
            &mut r,
        );
        let next = next.expect("the user reissues");
        assert_eq!(next.at, first.at + SimDuration::from_secs(1));
        // Slow response (3 s): next request issues immediately.
        let user2 = next.user.unwrap();
        let slow_done = next.at + SimDuration::from_secs(3);
        let next2 = w.on_response(user2, ResponseKind::Late, slow_done, &mut r);
        assert_eq!(next2.expect("the user reissues").at, slow_done);
    }

    #[test]
    fn closed_loop_ignores_stale_generation() {
        let mut w = ClosedLoopWorkload::fixed(vec![(ApiId(0), 1.0)], 1, SimDuration::from_secs(1));
        let mut r = rng();
        let first = tick(&mut w, SimTime::ZERO, &mut r)[0];
        let user = first.user.unwrap();
        let next = w.on_response(
            user,
            ResponseKind::Success,
            first.at + SimDuration::from_millis(10),
            &mut r,
        );
        assert!(next.is_some());
        // The old generation responds again (e.g. timeout raced response).
        assert!(w
            .on_response(user, ResponseKind::Timeout, SimTime::from_secs(9), &mut r)
            .is_none());
    }

    #[test]
    fn closed_loop_shrinks_population() {
        let sched = RateSchedule::steps(vec![(SimTime::ZERO, 5.0), (SimTime::from_secs(10), 2.0)]);
        let mut w =
            ClosedLoopWorkload::new(vec![(ApiId(0), 1.0)], sched, SimDuration::from_secs(1));
        let mut r = rng();
        tick(&mut w, SimTime::ZERO, &mut r);
        assert_eq!(w.active_users(), 5);
        tick(&mut w, SimTime::from_secs(10), &mut r);
        assert_eq!(w.active_users(), 2);
    }

    #[test]
    fn closed_loop_regrows_from_the_lowest_parked_user() {
        let at = SimTime::from_secs;
        let sched = RateSchedule::steps(vec![(at(0), 4.0), (at(10), 2.0), (at(20), 3.0)]);
        let mut w =
            ClosedLoopWorkload::new(vec![(ApiId(0), 1.0)], sched, SimDuration::from_secs(1));
        let mut r = rng();
        let first = tick(&mut w, at(0), &mut r);
        let ids: Vec<u32> = first.iter().map(|a| a.user.unwrap().id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3], "users are created in id order");
        // Shrinking parks the highest ids: their responses are ignored.
        assert!(tick(&mut w, at(10), &mut r).is_empty());
        for parked in &first[2..] {
            let u = parked.user.unwrap();
            assert!(w
                .on_response(u, ResponseKind::Success, at(11), &mut r)
                .is_none());
        }
        // Growing back by one re-activates user 2 — not 3, not a new
        // user — on its next generation.
        let regrown = tick(&mut w, at(20), &mut r);
        let users: Vec<UserRef> = regrown.iter().map(|a| a.user.unwrap()).collect();
        assert_eq!(users, vec![UserRef { id: 2, gen: 2 }]);
        assert_eq!(w.active_users(), 3);
    }

    #[test]
    fn closed_loop_api_weights_respected() {
        let mut w = ClosedLoopWorkload::fixed(
            vec![(ApiId(0), 9.0), (ApiId(1), 1.0)],
            1000,
            SimDuration::from_secs(1),
        );
        let arrivals = tick(&mut w, SimTime::ZERO, &mut rng());
        let a0 = arrivals.iter().filter(|a| a.api == ApiId(0)).count();
        assert!(
            (850..=950).contains(&a0),
            "≈90% of 1000 arrivals on api0, got {a0}"
        );
    }
}

/// A misbehaving closed-loop population that **retries failures
/// immediately** — the "retry storm" overload amplifier from the paper's
/// introduction ("unexpected load caused by … retry storm by misbehaving
/// clients", §1).
///
/// Each user paces successful requests to its think time like
/// [`ClosedLoopWorkload`], but a failed/late/timed-out request is
/// reissued after only `retry_backoff`, up to `max_retries` times per
/// logical operation. Under overload this multiplies the offered load by
/// up to `1 + max_retries`, which is exactly the positive feedback loop
/// an overload controller has to break.
pub struct RetryStormWorkload {
    inner: ClosedLoopWorkload,
    /// Retries per logical operation before giving up.
    max_retries: u32,
    /// Delay before a retry (misbehaving clients use ~0).
    retry_backoff: SimDuration,
    /// Outstanding retry budget per user id.
    budget: Vec<u32>,
    /// Optional shared adaptive budget across the population
    /// (gRPC/Finagle-style, [`crate::resilience::RetryBudget`]): retries
    /// spend from a bucket only successes refill, so a storm
    /// self-extinguishes instead of amplifying shed load.
    adaptive: Option<RetryBudget>,
    /// Total retries issued (observability for experiments).
    retries_issued: u64,
    /// Retries the adaptive budget refused.
    retries_suppressed: u64,
}

impl RetryStormWorkload {
    /// Wrap a fixed population with a retry policy.
    pub fn new(
        api_weights: Vec<(ApiId, f64)>,
        users: u32,
        think: SimDuration,
        max_retries: u32,
        retry_backoff: SimDuration,
    ) -> Self {
        RetryStormWorkload {
            inner: ClosedLoopWorkload::fixed(api_weights, users, think),
            max_retries,
            retry_backoff,
            budget: Vec::new(),
            adaptive: None,
            retries_issued: 0,
            retries_suppressed: 0,
        }
    }

    /// Builder: bound the whole population by a shared adaptive retry
    /// budget. Suppressed retries fall back to normal think-time pacing.
    pub fn with_retry_budget(mut self, cfg: RetryBudgetConfig) -> Self {
        self.adaptive = Some(RetryBudget::new(cfg));
        self
    }

    /// Total retries issued so far.
    pub fn retries_issued(&self) -> u64 {
        self.retries_issued
    }

    /// Retries the adaptive budget suppressed so far.
    pub fn retries_suppressed(&self) -> u64 {
        self.retries_suppressed
    }

    fn ensure_budget(&mut self, id: u32) {
        if self.budget.len() <= id as usize {
            self.budget.resize(id as usize + 1, self.max_retries);
        }
    }
}

impl Workload for RetryStormWorkload {
    fn on_tick(&mut self, now: SimTime, rng: &mut SmallRng, out: &mut Vec<Arrival>) {
        let first_new = out.len();
        self.inner.on_tick(now, rng, out);
        for a in &out[first_new..] {
            if let Some(u) = a.user {
                self.ensure_budget(u.id);
                self.budget[u.id as usize] = self.max_retries;
            }
        }
    }

    fn on_response(
        &mut self,
        user: UserRef,
        kind: ResponseKind,
        now: SimTime,
        rng: &mut SmallRng,
    ) -> Option<Arrival> {
        self.ensure_budget(user.id);
        // `None` is a stale generation or parked user: nothing was
        // reissued, so no retry is charged (a late response racing the
        // client timeout must not burn budget).
        let mut follow = self.inner.on_response(user, kind, now, rng)?;
        if kind == ResponseKind::Success {
            if let Some(b) = self.adaptive.as_mut() {
                b.on_success();
            }
        }
        if kind.is_retryable() && self.budget[user.id as usize] > 0 {
            let admitted = match self.adaptive.as_mut() {
                Some(b) => b.try_retry(),
                None => true,
            };
            if admitted {
                self.budget[user.id as usize] -= 1;
                self.retries_issued += 1;
                // Reissue almost immediately: the inner workload's pacing
                // is bypassed by shifting the issue time to `now + backoff`.
                follow.at = now + self.retry_backoff;
                return Some(follow);
            }
            self.retries_suppressed += 1;
        }
        // Success, per-op budget exhausted, or retry suppressed by the
        // adaptive budget: normal pacing, fresh per-op budget.
        self.budget[user.id as usize] = self.max_retries;
        Some(follow)
    }

    fn tick_interval(&self) -> SimDuration {
        self.inner.tick_interval()
    }

    fn client_timeout(&self) -> Option<SimDuration> {
        self.inner.client_timeout()
    }

    fn retry_stats(&self) -> (u64, u64) {
        (self.retries_issued, self.retries_suppressed)
    }
}

#[cfg(test)]
mod retry_tests {
    use super::tests::tick;
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn failures_trigger_fast_retries() {
        let mut w = RetryStormWorkload::new(
            vec![(ApiId(0), 1.0)],
            1,
            SimDuration::from_secs(1),
            3,
            SimDuration::from_millis(10),
        );
        let mut r = rng();
        let first = tick(&mut w, SimTime::ZERO, &mut r)[0];
        let user = first.user.expect("closed loop");
        let fail_at = first.at + SimDuration::from_millis(5);
        let retry = w.on_response(user, ResponseKind::Failed, fail_at, &mut r);
        assert_eq!(
            retry.expect("the user retries").at,
            fail_at + SimDuration::from_millis(10),
            "retry fires after the short backoff, not the think time"
        );
        assert_eq!(w.retries_issued(), 1);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let mut w = RetryStormWorkload::new(
            vec![(ApiId(0), 1.0)],
            1,
            SimDuration::from_secs(1),
            2,
            SimDuration::from_millis(1),
        );
        let mut r = rng();
        let mut arrival = tick(&mut w, SimTime::ZERO, &mut r)[0];
        let mut t = arrival.at;
        let mut pattern = Vec::new();
        for _ in 0..6 {
            t += SimDuration::from_millis(5);
            let user = arrival.user.expect("closed loop");
            let follow = w
                .on_response(user, ResponseKind::Failed, t, &mut r)
                .expect("user always reissues eventually");
            let fast = follow.at.duration_since(t) < SimDuration::from_millis(100);
            pattern.push(fast);
            arrival = follow;
        }
        // Two fast retries, then the operation gives up and paces; the
        // next operation gets a fresh budget — the cycle repeats.
        assert_eq!(pattern, vec![true, true, false, true, true, false]);
        assert_eq!(w.retries_issued(), 4);
    }

    #[test]
    fn success_resets_the_budget() {
        let mut w = RetryStormWorkload::new(
            vec![(ApiId(0), 1.0)],
            1,
            SimDuration::from_secs(1),
            1,
            SimDuration::from_millis(1),
        );
        let mut r = rng();
        let a0 = tick(&mut w, SimTime::ZERO, &mut r)[0];
        let t1 = a0.at + SimDuration::from_millis(5);
        let a1 = w
            .on_response(a0.user.expect("user"), ResponseKind::Failed, t1, &mut r)
            .expect("retry");
        assert_eq!(w.retries_issued(), 1);
        // Success → pacing resumes and budget refills.
        let t2 = a1.at + SimDuration::from_millis(5);
        let a2 = w
            .on_response(a1.user.expect("user"), ResponseKind::Success, t2, &mut r)
            .expect("next request");
        let t3 = a2.at + SimDuration::from_millis(5);
        let _ = w.on_response(a2.user.expect("user"), ResponseKind::Failed, t3, &mut r);
        assert_eq!(w.retries_issued(), 2, "budget was refilled by the success");
    }

    #[test]
    fn adaptive_budget_suppresses_sustained_retries() {
        let mut w = RetryStormWorkload::new(
            vec![(ApiId(0), 1.0)],
            1,
            SimDuration::from_secs(1),
            10,
            SimDuration::from_millis(1),
        )
        .with_retry_budget(RetryBudgetConfig {
            max_tokens: 2.0,
            token_ratio: 0.5,
            retry_cost: 1.0,
        });
        let mut r = rng();
        let mut arrival = tick(&mut w, SimTime::ZERO, &mut r)[0];
        let mut t = arrival.at;
        for _ in 0..5 {
            t += SimDuration::from_millis(5);
            let user = arrival.user.expect("closed loop");
            arrival = w
                .on_response(user, ResponseKind::Failed, t, &mut r)
                .expect("suppression still paces, never parks");
        }
        // The shared bucket held 2 tokens and nothing refilled it: only
        // 2 of the 5 failures became retries.
        assert_eq!(w.retries_issued(), 2);
        assert_eq!(w.retries_suppressed(), 3);
        assert_eq!(w.retry_stats(), (2, 3));
    }

    #[test]
    fn successes_refill_the_adaptive_budget() {
        let mut w = RetryStormWorkload::new(
            vec![(ApiId(0), 1.0)],
            1,
            SimDuration::from_secs(1),
            10,
            SimDuration::from_millis(1),
        )
        .with_retry_budget(RetryBudgetConfig {
            max_tokens: 1.0,
            token_ratio: 0.5,
            retry_cost: 1.0,
        });
        let mut r = rng();
        let mut arrival = tick(&mut w, SimTime::ZERO, &mut r)[0];
        let mut t = arrival.at;
        let mut respond = |w: &mut RetryStormWorkload, a: Arrival, kind| {
            t += SimDuration::from_millis(5);
            w.on_response(a.user.expect("user"), kind, t, &mut r)
                .expect("the user reissues")
        };
        // Drain the single token, then get suppressed.
        arrival = respond(&mut w, arrival, ResponseKind::Failed);
        arrival = respond(&mut w, arrival, ResponseKind::Failed);
        assert_eq!((w.retries_issued(), w.retries_suppressed()), (1, 1));
        // Two successes deposit 2 × 0.5 tokens → one retry affordable.
        arrival = respond(&mut w, arrival, ResponseKind::Success);
        arrival = respond(&mut w, arrival, ResponseKind::Success);
        respond(&mut w, arrival, ResponseKind::Failed);
        assert_eq!((w.retries_issued(), w.retries_suppressed()), (2, 1));
    }

    #[test]
    fn stale_response_does_not_burn_retry_budget() {
        let mut w = RetryStormWorkload::new(
            vec![(ApiId(0), 1.0)],
            1,
            SimDuration::from_secs(1),
            3,
            SimDuration::from_millis(1),
        );
        let mut r = rng();
        let first = tick(&mut w, SimTime::ZERO, &mut r)[0];
        let user = first.user.expect("closed loop");
        // The client timeout fires: the user reissues (new generation).
        let t1 = first.at + SimDuration::from_secs(10);
        let follow = w.on_response(user, ResponseKind::Timeout, t1, &mut r);
        assert!(follow.is_some());
        let issued = w.retries_issued();
        // The abandoned request's late Failed response arrives afterwards
        // with the stale generation: ignored, and no retry charged.
        let t2 = t1 + SimDuration::from_millis(5);
        assert!(w
            .on_response(user, ResponseKind::Failed, t2, &mut r)
            .is_none());
        assert_eq!(
            w.retries_issued(),
            issued,
            "stale response charges no retry"
        );
    }

    #[test]
    fn retryable_classification() {
        assert!(!ResponseKind::Success.is_retryable());
        assert!(ResponseKind::Late.is_retryable());
        assert!(ResponseKind::Failed.is_retryable());
        assert!(ResponseKind::Timeout.is_retryable());
    }
}
