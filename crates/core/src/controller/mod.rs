//! The TopFull control loop (§4.1, Algorithm 1).
//!
//! Once per control interval [`TopFull::control`] runs one pipeline, a
//! file per stage:
//!
//! 1. **Detect** overloaded services ([`crate::detector`], §4.2).
//! 2. **Cluster** the involved APIs into independent sub-problems
//!    ([`crate::clustering`], Equation 2); re-clustering is implicit
//!    because clustering runs from scratch on the current overloaded set.
//! 3. **Select** (`select.rs`, §4.1) the targets — "we iteratively choose
//!    the overloaded microservice utilized by the fewest APIs" — and the
//!    candidate APIs each one claims.
//! 4. **Decide** (`decide.rs`, §4.3): the candidate set's state
//!    (Σgoodput/Σlimit, max tail latency) goes to the rate controller
//!    for a multiplicative step, deepened by the collapse backoff
//!    (`episode.rs`) when admission has collapsed. The result is one
//!    typed [`Decision`].
//! 5. **Apply** (`apply.rs`, Algorithm 1): negative steps hit the
//!    lowest-business-priority candidates; positive steps raise the
//!    highest-priority candidates, and only those with no *other*
//!    overloaded service on their path (§4.1's rate-increase rule).
//! 6. **Journal** (`journal.rs`): the decision becomes journal entries.
//!
//! **Recovery** is the same pipeline from stage 3: rate-limited APIs
//! whose paths are currently free of overloaded services are "handled
//! separately by a rate controller for possible recovery" — each is a
//! decision over itself alone ([`Subject::Probe`]) — and a limit that
//! has stayed comfortably above the offered load is removed entirely.

mod apply;
mod config;
mod decide;
mod episode;
mod journal;
mod select;

pub use config::TopFullConfig;
pub use decide::{Decision, Subject};

use crate::clustering::{monolithic_cluster, Clustering};
use crate::detector::{OverloadDetector, OVERLOAD_ENTER};
use cluster::observe::ClusterObservation;
use cluster::types::{ApiId, ServiceId};
use cluster::{Controller, RateLimitUpdate};
use std::sync::Arc;

/// Everything the controller remembers about one API's rate limit.
#[derive(Clone, Copy, Debug)]
struct ApiLimit {
    /// Mirror of the gateway's limit (`INFINITY` = unlimited).
    limit: f64,
    /// Consecutive headroom intervals (release counter).
    headroom_ticks: u32,
    /// Tick at which the limit was initialized from the observed
    /// admitted rate (the first throttle after running unlimited).
    init_tick: Option<u64>,
    /// Collapse-episode anchor of this API's recovery probe
    /// (`episode.rs`).
    probe_anchor: Option<f64>,
}

/// No limit and nothing remembered: how an API starts, and what a
/// release resets it to.
const UNLIMITED: ApiLimit = ApiLimit {
    limit: f64::INFINITY,
    headroom_ticks: 0,
    init_tick: None,
    probe_anchor: None,
};

/// The TopFull controller; plugs into [`cluster::Harness`].
pub struct TopFull {
    cfg: TopFullConfig,
    detector: OverloadDetector,
    /// Per-API limit state, indexed by `ApiId`.
    apis: Vec<ApiLimit>,
    /// Control ticks elapsed (one per `control` call).
    ticks: u64,
    /// Last interval's decisions: targets in selection order, then
    /// recovery probes by API. Also the targets' collapse-episode memory
    /// (`decide.rs`).
    last_decisions: Vec<Decision>,
    /// Scratch of [`Controller::control`], kept between ticks.
    scratch: Scratch,
    journal: journal::Journaler,
}

/// Everything a tick builds but its updates and its decisions, kept
/// between ticks for its capacity and taken out of the controller
/// while a tick runs.
#[derive(Default)]
struct Scratch {
    clustering: Clustering,
    select: select::Selection,
    /// The services above the detector's enter threshold.
    hot: Vec<bool>,
    /// The next tick's decision list, empty.
    decisions: Vec<Decision>,
    spare: Spare,
}

/// The vectors of decisions past: a tick's decisions take theirs from
/// here and give them back the tick after, once `decide` no longer
/// reads them.
#[derive(Default)]
struct Spare {
    ids: Vec<Vec<ApiId>>,
    blocked: Vec<Vec<(ApiId, ServiceId)>>,
}

/// An emptied vector from `pool`, or a new one.
fn reuse<T>(pool: &mut Vec<Vec<T>>) -> Vec<T> {
    let mut v = pool.pop().unwrap_or_default();
    v.clear();
    v
}

/// Membership in a set of dense ids kept as a table of flags. An id
/// past the table is absent, as it would be from a `HashSet`.
fn flagged(set: &[bool], idx: usize) -> bool {
    set.get(idx).is_some_and(|f| *f)
}

impl TopFull {
    pub fn new(cfg: TopFullConfig) -> Self {
        // Malformed fields must not take the control loop down: the
        // rate bounds are sanitized once, here. The detector sizes itself
        // to the observations it is shown.
        let (min_rate, max_rate) = (cfg.min_rate, cfg.max_rate);
        let cfg = cfg.with_rate_bounds(min_rate, max_rate);
        TopFull {
            cfg,
            detector: OverloadDetector::new(0),
            apis: Vec::new(),
            ticks: 0,
            last_decisions: Vec::new(),
            scratch: Scratch::default(),
            journal: journal::Journaler::default(),
        }
    }

    /// The last interval's decisions, for inspection.
    pub fn last_decisions(&self) -> &[Decision] {
        &self.last_decisions
    }
}

impl Controller for TopFull {
    fn control(&mut self, obs: &ClusterObservation) -> Vec<RateLimitUpdate> {
        if self.apis.len() < obs.apis.len() {
            self.apis.resize(obs.apis.len(), UNLIMITED);
        }
        self.ticks += 1;
        let mut s = std::mem::take(&mut self.scratch);

        let overloaded = self.detector.detect(obs);
        self.journal.overloads(obs, overloaded);
        let monolithic;
        let clusters = if self.cfg.clustering_enabled {
            s.clustering.cluster(&obs.api_paths, overloaded)
        } else {
            monolithic = monolithic_cluster(&obs.api_paths, overloaded);
            &monolithic
        };
        self.journal.partition(obs, clusters);

        // Every target is decided before any step is applied, and every
        // probe after: a `SafeRateController` counts its strikes across
        // the `decide` calls in exactly this order.
        let strikes = self.cfg.rate_controller.fallback_state();
        let strikes_before = strikes.map_or(0, |(s, _, _)| s);
        let mut decisions = std::mem::take(&mut s.decisions);
        let targets = select::targets(&self.cfg, obs, clusters, &mut s.select, &mut s.spare.ids);
        for (target, candidates) in targets.drain(..) {
            let d = self.decide(obs, Subject::Target(target), candidates, &mut s.spare);
            decisions.push(d);
        }

        // "Hot" is the *instantaneous* enter threshold, not the
        // hysteresis set: a service cooling through the 0.75–0.8 band
        // still anchors its cluster, but must not veto recovery of every
        // API crossing it — otherwise near-threshold services freeze the
        // whole application below capacity.
        let span = obs.services.iter().map(|w| w.service.idx() + 1).max();
        s.hot.clear();
        s.hot.resize(span.unwrap_or(0), false);
        for w in obs
            .services
            .iter()
            .filter(|w| w.utilization > OVERLOAD_ENTER)
        {
            s.hot[w.service.idx()] = true;
        }
        // A target's step lands on some of its candidates, once each.
        let mut updates = Vec::with_capacity(decisions.iter().map(|d| d.candidates.len()).sum());
        for d in &mut decisions {
            self.apply(obs, &s.hot, d, &mut updates);
            self.journal.decision(obs, &self.cfg, d);
        }
        for &api in select::probes(&self.apis, obs, &s.hot, &decisions, &mut s.select) {
            if self.release_if_idle(obs, api) {
                updates.push(RateLimitUpdate::unlimited(api));
                self.journal.release(obs, api, &self.cfg);
                continue;
            }
            let mut candidates = reuse(&mut s.spare.ids);
            candidates.push(api);
            let mut d = self.decide(obs, Subject::Probe(api), candidates, &mut s.spare);
            // A probe's step must not restart its API's release count.
            let held = self.apis[api.idx()].headroom_ticks;
            self.apply(obs, &s.hot, &mut d, &mut updates);
            self.apis[api.idx()].headroom_ticks = held;
            self.journal.decision(obs, &self.cfg, &d);
            decisions.push(d);
        }
        self.journal.strikes(obs, strikes_before, &self.cfg);
        s.decisions = std::mem::replace(&mut self.last_decisions, decisions);
        for d in s.decisions.drain(..) {
            s.spare.ids.extend([d.candidates, d.applied_to]);
            s.spare.blocked.push(d.blocked);
        }
        self.scratch = s;
        updates
    }

    fn attach_journal(&mut self, journal: Arc<obs::Journal>) {
        self.journal.sink = Some(journal);
    }

    fn name(&self) -> &str {
        "topfull"
    }
}

#[cfg(test)]
mod tests;
