//! The TopFull control loop (§4.1, Algorithm 1).
//!
//! Once per control interval:
//!
//! 1. **Detect** overloaded services (utilization threshold, §4.2).
//! 2. **Cluster** the involved APIs into independent sub-problems
//!    (Equation 2); re-clustering is implicit because clustering runs
//!    from scratch on the current overloaded set.
//! 3. **Per cluster, independently**: pick the target microservice — "we
//!    iteratively choose the overloaded microservice utilized by the
//!    fewest APIs" — gather its candidate APIs, form the RL state
//!    (Σgoodput/Σlimit, max tail latency), and get a multiplicative step
//!    from the rate controller. Apply it per Algorithm 1: negative steps
//!    hit the lowest-business-priority candidates; positive steps raise
//!    the highest-priority candidates, and only those with no *other*
//!    overloaded service on their path (§4.1's rate-increase rule).
//! 4. **Recovery**: rate-limited APIs whose paths are currently free of
//!    overloaded services are "handled separately by a rate controller
//!    for possible recovery" — each gets its own controller decision, and
//!    a limit that has stayed comfortably above the offered load is
//!    removed entirely.

use crate::clustering::{cluster_apis, Cluster};
use crate::detector::OverloadDetector;
use crate::rate_controller::{
    BwRateController, MimdController, RateController, RateState, RlRateController,
    SafeRateController,
};
use cluster::observe::ClusterObservation;
use cluster::types::{ApiId, ServiceId};
use cluster::{Controller, RateLimitUpdate};
use rl::policy::PolicyValue;
use std::sync::Arc;

/// TopFull configuration.
#[derive(Clone)]
pub struct TopFullConfig {
    /// Utilization threshold entering the overloaded set (paper: 0.8).
    pub overload_enter: f64,
    /// Hysteresis exit threshold.
    pub overload_exit: f64,
    /// Disable for the §6.2 "w/o cluster" ablation: all involved APIs and
    /// overloaded services form a single sub-problem handled serially.
    pub clustering_enabled: bool,
    /// Floor for any rate limit (requests/s).
    pub min_rate: f64,
    /// Ceiling for any finite rate limit (requests/s). `INFINITY` means
    /// no ceiling; releasing a limit entirely is separate and always
    /// allowed.
    pub max_rate: f64,
    /// Remove a recovery API's limit after it has exceeded the offered
    /// load by this factor...
    pub release_headroom: f64,
    /// ...for this many consecutive intervals.
    pub release_after: u32,
    /// Refinement ablation: process only the single fewest-API target
    /// per cluster per interval (a literal reading of §4.1's "one at a
    /// time"); the default acts on every overloaded service each
    /// interval. See DESIGN.md §5, refinement 1.
    pub single_target_per_cluster: bool,
    /// Refinement ablation: when false, decreases follow Algorithm 1
    /// verbatim and may target idle or floor-pinned APIs. See DESIGN.md
    /// §5, refinement 2.
    pub restrict_cuts_to_contributing: bool,
    /// Refinement ablation: when false, group increases are
    /// multiplicative per API (like decreases), freezing whatever rate
    /// ratio the transient produced between same-priority APIs. See
    /// DESIGN.md §5, refinement 3.
    pub fair_group_steps: bool,
    /// The step-size policy shared by all cluster/recovery controllers.
    pub rate_controller: Arc<dyn RateController>,
    /// Minimum cut magnitude while admission is fully collapsed
    /// (goodput ratio ≈ 0 with latency pinned far past the SLO). A
    /// fixed multiplicative step converges geometrically from whatever
    /// limit the overload transient inflated — tens of intervals during
    /// which nothing is served; the scenario fuzzer's minimal
    /// reproducer is a plain flash crowd that keeps p99 above 1.5×SLO
    /// for 23 s with zero goodput. Collapse is unambiguous evidence the
    /// limit is far above capacity, so the cut is deepened to at least
    /// this much — but only until the target's limit has shrunk to
    /// `COLLAPSE_FLOOR_FRAC` of its value when the collapse was first
    /// seen (the episode budget); past that the normal step law
    /// resumes. `0.0` disables the escalation (ablation).
    pub collapse_backoff: f64,
}

/// Goodput ratio below this counts as collapsed admission...
pub(crate) const COLLAPSE_GOODPUT_EPS: f64 = 0.05;
/// ...when latency is simultaneously pinned at least this far past the
/// SLO. Both must hold: near-zero goodput alone can be an idle API.
pub(crate) const COLLAPSE_LATENCY_RATIO: f64 = 2.0;
/// Episode budget for the collapse backoff: escalated cuts may shrink a
/// target's total limit to at most this fraction of its value when the
/// collapse was first detected, then the normal step law resumes.
/// Collapse proves the limit is *far* above capacity, but "far" is
/// bounded — under sustained overload with a deep queue, latency stays
/// pinned long after the limit has reached capacity, and unbounded
/// escalation would ride every API to the floor (erasing the
/// priority-ordered split the cuts are supposed to produce).
pub(crate) const COLLAPSE_FLOOR_FRAC: f64 = 0.25;
/// A collapse episode may only *start* within this many control ticks
/// of one of the target's candidate APIs getting its limit
/// initialized (the first throttle snapshots the admitted rate, which
/// an overload transient — flash crowd or ramp past capacity —
/// inflates far above what the service can serve). That mistake is
/// visible immediately, so a collapse right after initialization is
/// the initialization's fault. A collapse that develops later, under
/// an established limit, is a capacity fade (e.g. a slow-pod
/// brownout); cutting 4× deep there tracks the faulted capacity
/// faster but strands recovery several times lower once the fault
/// clears, so the normal step law keeps it.
pub(crate) const COLLAPSE_INIT_WINDOW: u64 = 5;

impl Default for TopFullConfig {
    fn default() -> Self {
        TopFullConfig {
            overload_enter: 0.8,
            overload_exit: 0.75,
            clustering_enabled: true,
            min_rate: 1.0,
            max_rate: f64::INFINITY,
            release_headroom: 2.0,
            release_after: 5,
            single_target_per_cluster: false,
            restrict_cuts_to_contributing: true,
            fair_group_steps: true,
            rate_controller: Arc::new(MimdController::paper_default()),
            collapse_backoff: 0.25,
        }
    }
}

impl TopFullConfig {
    /// Use the trained RL policy (TopFull proper).
    pub fn with_rl(mut self, policy: PolicyValue) -> Self {
        self.rate_controller = Arc::new(RlRateController::new(policy));
        self
    }

    /// Use the MIMD ablation controller (§6.2).
    pub fn with_mimd(mut self) -> Self {
        self.rate_controller = Arc::new(MimdController::paper_default());
        self
    }

    /// Use custom MIMD steps (Fig. 13 sweep).
    pub fn with_mimd_steps(mut self, decrease: f64, increase: f64) -> Self {
        self.rate_controller = Arc::new(MimdController::with_steps(decrease, increase));
        self
    }

    /// Use the Breakwater-style AIMD controller (TopFull(BW), §6.3).
    pub fn with_bw(mut self) -> Self {
        self.rate_controller = Arc::new(BwRateController::default());
        self
    }

    /// Use an arbitrary step policy (tests, chaos injection, new
    /// controllers without a dedicated builder).
    pub fn with_rate_controller(mut self, rc: Arc<dyn RateController>) -> Self {
        self.rate_controller = rc;
        self
    }

    /// Disable clustering (§6.2 "w/o cluster" ablation).
    pub fn without_clustering(mut self) -> Self {
        self.clustering_enabled = false;
        self
    }

    /// Absolute floor and ceiling on every finite rate limit. Degenerate
    /// inputs are sanitized: a non-finite or negative floor falls back to
    /// the default (1 rps), a ceiling below the floor snaps to the floor.
    pub fn with_rate_bounds(mut self, min_rate: f64, max_rate: f64) -> Self {
        self.min_rate = if min_rate.is_finite() && min_rate > 0.0 {
            min_rate
        } else {
            1.0
        };
        self.max_rate = if max_rate.is_nan() {
            f64::INFINITY
        } else {
            max_rate.max(self.min_rate)
        };
        self
    }

    /// Wrap the configured step policy in a [`SafeRateController`]:
    /// degraded state routes to the MIMD fallback, and a primary that
    /// repeatedly returns non-finite or out-of-range actions is benched.
    pub fn hardened(mut self) -> Self {
        self.rate_controller = Arc::new(SafeRateController::with_defaults(Arc::clone(
            &self.rate_controller,
        )));
        self
    }
}

/// One per-cluster decision, kept for tests and experiment tracing.
#[derive(Clone, Debug)]
pub struct ClusterDecision {
    pub target: ServiceId,
    pub candidates: Vec<ApiId>,
    pub action: f64,
    pub applied_to: Vec<ApiId>,
}

/// The TopFull controller; plugs into [`cluster::Harness`].
pub struct TopFull {
    cfg: TopFullConfig,
    detector: Option<OverloadDetector>,
    /// Mirror of current per-API limits (`INFINITY` = unlimited).
    limits: Vec<f64>,
    /// Consecutive headroom intervals per API (release counter).
    headroom_ticks: Vec<u32>,
    /// Last interval's decisions, for inspection.
    pub last_decisions: Vec<ClusterDecision>,
    /// Decision journal (attached by the harness). All writes happen
    /// after the decision batch, in cluster order, so journaling never
    /// perturbs the decisions or the determinism contract.
    journal: Option<Arc<obs::Journal>>,
    /// Previous detector set, to journal enter/clear transitions only.
    prev_overloaded: Vec<ServiceId>,
    /// Previous cluster partition rendered `api,api|api`, to journal
    /// re-clusterings only when the partition actually changes.
    prev_assignment: String,
    /// Collapse-backoff episode anchors: target service → total limit
    /// when the current collapse episode began. Escalated cuts stop at
    /// `anchor × COLLAPSE_FLOOR_FRAC`; entries clear when the target's
    /// collapse conditions clear.
    collapse_anchor: std::collections::HashMap<u32, f64>,
    /// Collapse-backoff anchors for the recovery-probe path, keyed by
    /// API: when the overload detector flaps (e.g. telemetry noise
    /// around the enter threshold), a freshly throttled API's cuts
    /// route through the per-API recovery decision — which must apply
    /// the same escalation, or the walk-down from a transient-inflated
    /// limit is the normal step law again while nothing is served (the
    /// fuzzer's noise-blinded-descent reproducer, fuzz 2-10).
    recovery_anchor: std::collections::HashMap<u32, f64>,
    /// Control ticks elapsed (one per `control` call).
    ticks: u64,
    /// Tick at which each API's limit was last initialized from the
    /// observed admitted rate (the first throttle after running
    /// unlimited); entries clear when the limit is released.
    limit_init: std::collections::HashMap<u32, u64>,
}

/// Journal-safe float: the JSONL schema keeps NaN/∞ out of the wire
/// format (the reason string carries the degradation note instead).
fn jf(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        -1.0
    }
}

/// Comma-joined API indices (`"0,2"`) for journal entries.
fn api_list(apis: &[ApiId]) -> String {
    let mut s = String::new();
    for (i, a) in apis.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&a.0.to_string());
    }
    s
}

impl TopFull {
    pub fn new(cfg: TopFullConfig) -> Self {
        TopFull {
            cfg,
            detector: None,
            limits: Vec::new(),
            headroom_ticks: Vec::new(),
            last_decisions: Vec::new(),
            journal: None,
            prev_overloaded: Vec::new(),
            prev_assignment: String::new(),
            collapse_anchor: std::collections::HashMap::new(),
            recovery_anchor: std::collections::HashMap::new(),
            ticks: 0,
            limit_init: std::collections::HashMap::new(),
        }
    }

    fn service_name(obs: &ClusterObservation, s: ServiceId) -> String {
        obs.services
            .get(s.idx())
            .map(|w| w.name.clone())
            .unwrap_or_else(|| format!("svc {}", s.0))
    }

    /// Journal detector transitions (diff against the previous set).
    fn journal_overloads(&mut self, obs: &ClusterObservation, overloaded: &[ServiceId]) {
        if let Some(j) = self.journal.as_ref() {
            let t = obs.now.as_secs_f64();
            for s in overloaded {
                if !self.prev_overloaded.contains(s) {
                    j.record(obs::JournalEntry::Overload {
                        t,
                        service: s.0,
                        name: Self::service_name(obs, *s),
                        utilization: jf(obs.services.get(s.idx()).map_or(-1.0, |w| w.utilization)),
                        entered: true,
                    });
                }
            }
            for s in &self.prev_overloaded {
                if !overloaded.contains(s) {
                    j.record(obs::JournalEntry::Overload {
                        t,
                        service: s.0,
                        name: Self::service_name(obs, *s),
                        utilization: jf(obs.services.get(s.idx()).map_or(-1.0, |w| w.utilization)),
                        entered: false,
                    });
                }
            }
        }
        self.prev_overloaded = overloaded.to_vec();
    }

    /// Journal the cluster partition when it differs from the last tick.
    fn journal_clusters(&mut self, obs: &ClusterObservation, clusters: &[Cluster]) {
        let mut assignment = String::new();
        for (i, c) in clusters.iter().enumerate() {
            if i > 0 {
                assignment.push('|');
            }
            assignment.push_str(&api_list(&c.apis));
        }
        if assignment != self.prev_assignment {
            if let Some(j) = self.journal.as_ref() {
                j.record(obs::JournalEntry::Recluster {
                    t: obs.now.as_secs_f64(),
                    clusters: clusters.len() as u32,
                    assignment: assignment.clone(),
                });
            }
            self.prev_assignment = assignment;
        }
    }

    fn ensure_sized(&mut self, obs: &ClusterObservation) {
        if self.detector.is_none() {
            // A malformed threshold pair must not take the control loop
            // down mid-run; fall back to the paper's defaults.
            self.detector = Some(
                OverloadDetector::with_thresholds(
                    obs.services.len(),
                    self.cfg.overload_enter,
                    self.cfg.overload_exit,
                )
                .unwrap_or_else(|_| OverloadDetector::new(obs.services.len())),
            );
        }
        if self.limits.len() < obs.apis.len() {
            self.limits.resize(obs.apis.len(), f64::INFINITY);
            self.headroom_ticks.resize(obs.apis.len(), 0);
        }
    }

    /// Effective limit used in the goodput-ratio feature: the actual
    /// limit if finite, else the currently admitted (≈ offered) rate.
    fn effective_limit(&self, obs: &ClusterObservation, api: ApiId) -> f64 {
        let l = self.limits[api.idx()];
        if l.is_finite() {
            l
        } else {
            obs.api(api).admitted.max(obs.api(api).offered).max(1.0)
        }
    }

    /// RL state for a candidate set (§4.3 "RL model design").
    fn state_for(&self, obs: &ClusterObservation, apis: &[ApiId]) -> RateState {
        let goodput: f64 = apis.iter().map(|a| obs.api(*a).goodput).sum();
        let limit: f64 = apis.iter().map(|a| self.effective_limit(obs, *a)).sum();
        let slo = obs.slo.as_secs_f64().max(1e-9);
        let lat = apis
            .iter()
            .map(|a| obs.api(*a).tail_latency().as_secs_f64())
            .fold(0.0, f64::max);
        RateState {
            goodput_ratio: if limit > 0.0 {
                (goodput / limit).clamp(0.0, 2.0)
            } else {
                0.0
            },
            latency_ratio: (lat / slo).clamp(0.0, 5.0),
            total_limit: limit,
        }
    }

    /// Collapse backoff for the recovery-probe path. The cluster path's
    /// escalation (below, in `control`) only covers APIs that are a
    /// cluster decision target this tick; when the overload detector
    /// flaps — telemetry noise straddling the enter threshold — a
    /// freshly throttled API's path reads as cold for a tick and its
    /// cut routes through the per-API recovery decision instead. Same
    /// law, same episode budget, anchored per API: a small cut under
    /// collapsed admission (goodput ≈ 0, latency pinned past the SLO)
    /// within the initialization window deepens to `collapse_backoff`,
    /// bounded by `anchor × COLLAPSE_FLOOR_FRAC`. Returns the possibly
    /// deepened action and whether it escalated.
    fn escalate_recovery_cut(&mut self, api: ApiId, a: f64, s: &RateState) -> (f64, bool) {
        let collapsed = self.cfg.collapse_backoff > 0.0
            && a.is_finite()
            && a < 0.0
            && a > -self.cfg.collapse_backoff
            && s.goodput_ratio < COLLAPSE_GOODPUT_EPS
            && s.latency_ratio >= COLLAPSE_LATENCY_RATIO
            && s.total_limit.is_finite()
            && s.total_limit > 0.0;
        if !collapsed {
            // Episode over: conditions cleared (or never held).
            self.recovery_anchor.remove(&api.0);
            return (a, false);
        }
        if !self.recovery_anchor.contains_key(&api.0) {
            let recent = self
                .limit_init
                .get(&api.0)
                .is_some_and(|e| self.ticks.saturating_sub(*e) <= COLLAPSE_INIT_WINDOW);
            if !recent {
                return (a, false);
            }
        }
        let anchor = *self.recovery_anchor.entry(api.0).or_insert(s.total_limit);
        let floor_action = (anchor * COLLAPSE_FLOOR_FRAC) / s.total_limit - 1.0;
        let deep = (-self.cfg.collapse_backoff).max(floor_action);
        if deep < a {
            (deep, true)
        } else {
            (a, false)
        }
    }

    /// Algorithm 1: pick the highest/lowest business-priority subset of
    /// the candidates (all ties included).
    fn priority_targets(
        obs: &ClusterObservation,
        candidates: &[ApiId],
        increase: bool,
    ) -> Vec<ApiId> {
        let key = |a: &ApiId| obs.api(*a).business;
        let best = if increase {
            candidates.iter().map(key).min()
        } else {
            candidates.iter().map(key).max()
        };
        match best {
            Some(b) => candidates.iter().copied().filter(|a| key(a) == b).collect(),
            None => Vec::new(),
        }
    }

    fn apply_action(
        &mut self,
        obs: &ClusterObservation,
        api: ApiId,
        action: f64,
        updates: &mut Vec<RateLimitUpdate>,
    ) {
        self.apply_group_action(obs, &[api], action, updates);
    }

    /// Apply one step to a target group.
    ///
    /// Decreases are multiplicative per API ("we reduce the rates of
    /// corresponding APIs equally" — the same factor for everyone);
    /// increases distribute the group's total step in **equal absolute
    /// shares**. The combination is the Chiu–Jain fairness argument:
    /// proportional cuts + equal gains converge same-priority APIs
    /// toward an even split of the bottleneck, instead of freezing
    /// whatever ratio the initial transient produced.
    fn apply_group_action(
        &mut self,
        obs: &ClusterObservation,
        apis: &[ApiId],
        action: f64,
        updates: &mut Vec<RateLimitUpdate>,
    ) {
        // A poisoned action (NaN from an unhardened policy) must not
        // poison the limit mirror — drop the step entirely.
        if !action.is_finite() {
            return;
        }
        let action = action.clamp(-0.5, 0.5);
        // Raising only applies to already-limited APIs.
        let group: Vec<ApiId> = if action >= 0.0 {
            apis.iter()
                .copied()
                .filter(|a| self.limits[a.idx()].is_finite())
                .collect()
        } else {
            apis.to_vec()
        };
        if group.is_empty() {
            return;
        }
        // First throttle initializes a limit from the observed admitted
        // rate; the group total drives the step size.
        let bases: Vec<f64> = group
            .iter()
            .map(|a| {
                let cur = self.limits[a.idx()];
                if cur.is_finite() {
                    cur
                } else {
                    self.limit_init.insert(a.0, self.ticks);
                    let adm = obs.api(*a).admitted;
                    // NaN admitted (degraded telemetry) → start from the
                    // floor; `max` with NaN already discards it, this just
                    // makes the intent explicit.
                    if adm.is_finite() {
                        adm.max(self.cfg.min_rate)
                    } else {
                        self.cfg.min_rate
                    }
                }
            })
            .collect();
        let total: f64 = bases.iter().sum();
        let share = action * total / group.len() as f64;
        for (api, base) in group.iter().zip(bases) {
            // Re-derive sane bounds even if the config fields were set
            // directly to degenerate values (`clamp` panics on NaN or an
            // inverted range).
            let floor = if self.cfg.min_rate.is_finite() && self.cfg.min_rate > 0.0 {
                self.cfg.min_rate
            } else {
                1.0
            };
            let ceil = if self.cfg.max_rate.is_nan() {
                f64::INFINITY
            } else {
                self.cfg.max_rate.max(floor)
            };
            let next = if action >= 0.0 && self.cfg.fair_group_steps {
                // Equal absolute gains across the group.
                base + share
            } else {
                // Proportional (multiplicative) steps.
                base * (1.0 + action)
            }
            .clamp(floor, ceil);
            self.limits[api.idx()] = next;
            self.headroom_ticks[api.idx()] = 0;
            updates.push(RateLimitUpdate::limit(*api, next));
        }
    }
}

impl Controller for TopFull {
    fn control(&mut self, obs: &ClusterObservation) -> Vec<RateLimitUpdate> {
        self.ensure_sized(obs);
        let Some(detector) = self.detector.as_mut() else {
            // Unreachable after ensure_sized, but a missing detector must
            // degrade to "no action", never to a panic mid-run.
            return Vec::new();
        };
        let overloaded = detector.detect(obs);
        self.ticks += 1;
        self.journal_overloads(obs, &overloaded);
        let clusters: Vec<Cluster> = if self.cfg.clustering_enabled {
            cluster_apis(&obs.api_paths, &overloaded)
        } else if overloaded.is_empty() {
            Vec::new()
        } else {
            // Ablation: one monolithic sub-problem.
            let over_set: std::collections::HashSet<ServiceId> =
                overloaded.iter().copied().collect();
            let apis: Vec<ApiId> = obs
                .api_paths
                .iter()
                .enumerate()
                .filter(|(_, p)| p.iter().any(|s| over_set.contains(s)))
                .map(|(i, _)| ApiId(i as u32))
                .collect();
            if apis.is_empty() {
                Vec::new()
            } else {
                vec![Cluster {
                    apis,
                    overloaded: overloaded.clone(),
                }]
            }
        };

        self.journal_clusters(obs, &clusters);

        // Per-cluster target selection + decision. The sub-problems are
        // independent (the point of clustering, §4.2) — no decision
        // reads another's result — and each is a few microseconds of
        // policy forward pass, so they run inline, in cluster order.
        //
        // Within a cluster, overloaded services are processed in
        // fewest-API-first order (§4.1's target priority). Each target
        // *claims* its candidate APIs so one API receives at most one
        // decision per interval; later targets control the remainder.
        // This keeps the paper's prioritization while guaranteeing every
        // bottleneck in the cluster is acted on each interval — a single
        // never-resolving target must not leave the rest uncontrolled.
        let mut prepared: Vec<(ServiceId, Vec<ApiId>)> = Vec::new();
        for c in &clusters {
            let mut targets = c.overloaded.clone();
            targets.sort_by_key(|s| {
                let users = obs.api_paths.iter().filter(|path| path.contains(s)).count();
                (users, s.0)
            });
            let mut claimed: std::collections::HashSet<ApiId> = std::collections::HashSet::new();
            let mut cluster_decisions = 0;
            for target in targets {
                if self.cfg.single_target_per_cluster && cluster_decisions >= 1 {
                    break;
                }
                let candidates: Vec<ApiId> = c
                    .apis
                    .iter()
                    .copied()
                    .filter(|a| !claimed.contains(a) && obs.api_paths[a.idx()].contains(&target))
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                for a in &candidates {
                    claimed.insert(*a);
                }
                prepared.push((target, candidates));
                cluster_decisions += 1;
            }
        }
        if !self.cfg.clustering_enabled {
            // §6.2 "w/o cluster" ablation: naive sequential load control —
            // one decision per interval over the monolithic problem.
            prepared.truncate(1);
        }
        let states: Vec<RateState> = prepared
            .iter()
            .map(|(_, cands)| self.state_for(obs, cands))
            .collect();
        let controller = Arc::clone(&self.cfg.rate_controller);
        // Strike counter before the decision batch; re-read after all
        // decisions (cluster + recovery) so strike transitions are
        // journaled once per tick, whichever decision triggered them.
        let strikes_before = controller.fallback_state().map_or(0, |(s, _, _)| s);
        let actions: Vec<f64> = states.iter().map(|s| controller.decide(*s)).collect();

        // Collapse backoff: the rate controller owns the step's
        // *direction*, but when the candidate set's admission has fully
        // collapsed — goodput ratio ≈ 0 with latency pinned far past
        // the SLO — a small fixed cut walks down geometrically from a
        // transient-inflated limit while nothing is served at all.
        // Collapse is unambiguous evidence the limit is far above
        // capacity, so deepen any cut to `collapse_backoff` — bounded
        // by an episode budget: once the target's limit has shrunk to
        // `COLLAPSE_FLOOR_FRAC` of its value at episode start, the
        // evidence is spent and the normal step law resumes (a deep
        // queue keeps latency pinned long after the limit reaches
        // capacity; unbounded escalation floors every API equally).
        let mut escalated = vec![false; actions.len()];
        let mut collapsing: std::collections::HashSet<u32> = std::collections::HashSet::new();
        let actions: Vec<f64> = actions
            .into_iter()
            .enumerate()
            .map(|(i, a)| {
                let s = &states[i];
                if !(self.cfg.collapse_backoff > 0.0
                    && a.is_finite()
                    && a < 0.0
                    && a > -self.cfg.collapse_backoff
                    && s.goodput_ratio < COLLAPSE_GOODPUT_EPS
                    && s.latency_ratio >= COLLAPSE_LATENCY_RATIO
                    && s.total_limit.is_finite()
                    && s.total_limit > 0.0)
                {
                    return a;
                }
                let target = prepared[i].0 .0;
                // Episodes only *start* shortly after a candidate's
                // limit initialization — the window where the limit is
                // a fresh (possibly transient-inflated) snapshot of
                // the admitted rate. Ongoing episodes run until their
                // conditions clear.
                if !self.collapse_anchor.contains_key(&target) {
                    let recent = prepared[i].1.iter().any(|api| {
                        self.limit_init
                            .get(&api.0)
                            .is_some_and(|e| self.ticks.saturating_sub(*e) <= COLLAPSE_INIT_WINDOW)
                    });
                    if !recent {
                        return a;
                    }
                }
                collapsing.insert(target);
                let anchor = *self.collapse_anchor.entry(target).or_insert(s.total_limit);
                // The action that lands exactly on the episode floor;
                // never cut past it, never deepen beyond the backoff.
                let floor_action = (anchor * COLLAPSE_FLOOR_FRAC) / s.total_limit - 1.0;
                let deep = (-self.cfg.collapse_backoff).max(floor_action);
                if deep < a {
                    escalated[i] = true;
                    deep
                } else {
                    a
                }
            })
            .collect();
        // An episode ends when its target stops meeting the collapse
        // conditions (goodput recovered, latency cleared, or the
        // detector released it).
        self.collapse_anchor.retain(|t, _| collapsing.contains(t));

        // Eligibility for rate increases uses the *instantaneous* enter
        // threshold, not the hysteresis set: a service cooling through
        // the 0.75–0.8 band still anchors its cluster, but must not veto
        // recovery of every API crossing it — otherwise near-threshold
        // services freeze the whole application below capacity.
        let hot_now: std::collections::HashSet<ServiceId> = obs
            .services
            .iter()
            .filter(|s| s.utilization > self.cfg.overload_enter)
            .map(|s| s.service)
            .collect();
        let mut updates = Vec::new();
        self.last_decisions.clear();

        for ((((target, candidates), action), state), escalated) in
            prepared.into_iter().zip(actions).zip(states).zip(escalated)
        {
            let applied_to: Vec<ApiId> = if action >= 0.0 {
                // §4.1 rate-increase rule: only candidates whose path has
                // no overloaded service other than the target.
                let mut eligible: Vec<ApiId> = Vec::new();
                for a in candidates.iter().copied() {
                    match obs.api_paths[a.idx()]
                        .iter()
                        .find(|s| **s != target && hot_now.contains(s))
                    {
                        None => eligible.push(a),
                        Some(blocker) => {
                            if let Some(j) = self.journal.as_ref() {
                                j.record(obs::JournalEntry::RateBlocked {
                                    t: obs.now.as_secs_f64(),
                                    api: a.0,
                                    reason: format!(
                                        "rate-increase blocked: path contains overloaded {}",
                                        Self::service_name(obs, *blocker)
                                    ),
                                });
                            }
                        }
                    }
                }
                Self::priority_targets(obs, &eligible, true)
            } else {
                // Rate-limiting an API that carries no load — or one
                // already cut to the floor — cannot relieve the target;
                // cut among the candidates still contributing traffic
                // (lowest business priority first). The ablation flag
                // reverts to verbatim Algorithm 1.
                let pool: Vec<ApiId> = if self.cfg.restrict_cuts_to_contributing {
                    candidates
                        .iter()
                        .copied()
                        .filter(|a| {
                            let carries_load =
                                obs.api(*a).admitted > 0.5 || obs.api(*a).offered > 0.5;
                            let can_go_lower = self.limits[a.idx()] > self.cfg.min_rate;
                            carries_load && can_go_lower
                        })
                        .collect()
                } else {
                    candidates.clone()
                };
                Self::priority_targets(obs, &pool, false)
            };
            self.apply_group_action(obs, &applied_to, action, &mut updates);
            if let Some(j) = self.journal.as_ref() {
                let name = self.cfg.rate_controller.name();
                let degraded = !state.goodput_ratio.is_finite()
                    || !state.latency_ratio.is_finite()
                    || !state.total_limit.is_finite();
                let mut reason = if action.is_finite() {
                    format!("{name} action {action:+.3}")
                } else {
                    format!("{name} action non-finite; step dropped")
                };
                if escalated {
                    reason.push_str("; collapse backoff: admission collapsed, cut deepened");
                }
                if degraded {
                    if name.starts_with("safe(") {
                        reason.push_str("; degraded telemetry routed to mimd fallback");
                    } else {
                        reason.push_str("; degraded telemetry");
                    }
                }
                if applied_to.is_empty() && action.is_finite() {
                    reason.push_str(if action >= 0.0 {
                        "; no eligible API to raise"
                    } else {
                        "; no contributing API to cut"
                    });
                }
                j.record(obs::JournalEntry::RateAction {
                    t: obs.now.as_secs_f64(),
                    target: target.0,
                    target_name: Self::service_name(obs, target),
                    apis: api_list(&applied_to),
                    action: jf(action),
                    goodput_ratio: jf(state.goodput_ratio),
                    latency_ratio: jf(state.latency_ratio),
                    total_limit: jf(state.total_limit),
                    reason,
                });
            }
            self.last_decisions.push(ClusterDecision {
                target,
                candidates,
                action,
                applied_to,
            });
        }

        // Recovery: rate-limited APIs whose paths are currently free of
        // hot services get individual decisions ("handled separately by a
        // rate controller for possible recovery", §4.1), and
        // long-standing headroom releases the limit entirely. An API can
        // still be inside a cluster through a cooling (hysteresis-band)
        // service — that must not block its recovery — but an API that
        // was a decision target this tick is skipped.
        let acted_on: std::collections::HashSet<ApiId> = self
            .last_decisions
            .iter()
            .flat_map(|d| d.applied_to.iter().copied())
            .collect();
        for i in 0..obs.apis.len() {
            let api = ApiId(i as u32);
            if !self.limits[i].is_finite() || acted_on.contains(&api) {
                continue;
            }
            let path_hot = obs.api_paths[i].iter().any(|s| hot_now.contains(s));
            if path_hot {
                continue;
            }
            let offered = obs.api(api).offered;
            let slo_ok = obs.api(api).tail_latency() <= obs.slo;
            if self.limits[i] >= offered * self.cfg.release_headroom && slo_ok {
                self.headroom_ticks[i] += 1;
                if self.headroom_ticks[i] >= self.cfg.release_after {
                    self.limits[i] = f64::INFINITY;
                    self.headroom_ticks[i] = 0;
                    self.limit_init.remove(&(i as u32));
                    if let Some(j) = self.journal.as_ref() {
                        j.record(obs::JournalEntry::Release {
                            t: obs.now.as_secs_f64(),
                            api: api.0,
                            reason: format!(
                                "limit held {:.1}x above offered for {} intervals",
                                self.cfg.release_headroom, self.cfg.release_after
                            ),
                        });
                    }
                    updates.push(RateLimitUpdate::unlimited(api));
                    continue;
                }
            } else {
                self.headroom_ticks[i] = 0;
            }
            let state = self.state_for(obs, &[api]);
            let action = self.cfg.rate_controller.decide(state);
            let (action, escalated) = self.escalate_recovery_cut(api, action, &state);
            // Preserve the headroom counter across the action.
            let ticks = self.headroom_ticks[i];
            self.apply_action(obs, api, action, &mut updates);
            self.headroom_ticks[i] = ticks;
            if let Some(j) = self.journal.as_ref() {
                let name = self.cfg.rate_controller.name();
                let degraded = !state.goodput_ratio.is_finite()
                    || !state.latency_ratio.is_finite()
                    || !state.total_limit.is_finite();
                let mut reason = if action.is_finite() {
                    format!("recovery probe: {name} action {action:+.3}")
                } else {
                    format!("recovery probe: {name} action non-finite; step dropped")
                };
                if escalated {
                    reason.push_str("; collapse backoff: admission collapsed, cut deepened");
                }
                if degraded {
                    if name.starts_with("safe(") {
                        reason.push_str("; degraded telemetry routed to mimd fallback");
                    } else {
                        reason.push_str("; degraded telemetry");
                    }
                }
                j.record(obs::JournalEntry::RateAction {
                    t: obs.now.as_secs_f64(),
                    target: api.0,
                    target_name: obs.api(api).name.clone(),
                    apis: api_list(&[api]),
                    action: jf(action),
                    goodput_ratio: jf(state.goodput_ratio),
                    latency_ratio: jf(state.latency_ratio),
                    total_limit: jf(state.total_limit),
                    reason,
                });
            }
        }
        // Strike transitions accumulated anywhere in this tick's decisions
        // are journaled once, in order, from the control thread.
        if let Some(j) = self.journal.as_ref() {
            if let Some((cur, max_strikes, _)) = self.cfg.rate_controller.fallback_state() {
                for v in (strikes_before + 1)..=cur {
                    j.record(obs::JournalEntry::FallbackStrike {
                        t: obs.now.as_secs_f64(),
                        strikes: v,
                        max_strikes,
                        tripped: v >= max_strikes,
                    });
                }
            }
        }
        updates
    }

    fn attach_journal(&mut self, journal: Arc<obs::Journal>) {
        self.journal = Some(journal);
    }

    fn name(&self) -> &str {
        "topfull"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::observe::{ApiWindow, ServiceWindow};
    use cluster::types::BusinessPriority;
    use simnet::{SimDuration, SimTime};

    /// Hand-built observation: utilization per service, per-API
    /// (offered, admitted, goodput, p99 ms, business, rate_limit).
    fn obs(
        utils: &[f64],
        apis: &[(f64, f64, f64, u64, u8, f64)],
        paths: Vec<Vec<ServiceId>>,
    ) -> ClusterObservation {
        ClusterObservation {
            now: SimTime::from_secs(1),
            window: SimDuration::from_secs(1),
            services: utils
                .iter()
                .enumerate()
                .map(|(i, u)| ServiceWindow {
                    service: ServiceId(i as u32),
                    name: format!("s{i}"),
                    utilization: *u,
                    alive_pods: 1,
                    desired_pods: 1,
                    queue_len: 0,
                    mean_queuing_delay: SimDuration::ZERO,
                    started_calls: 10,
                    dropped_calls: 0,
                })
                .collect(),
            apis: apis
                .iter()
                .enumerate()
                .map(|(i, (off, adm, good, p99, biz, lim))| ApiWindow {
                    api: ApiId(i as u32),
                    name: format!("a{i}"),
                    business: BusinessPriority(*biz),
                    offered: *off,
                    admitted: *adm,
                    goodput: *good,
                    slo_violated: 0.0,
                    failed: 0.0,
                    p50: Some(SimDuration::from_millis(*p99 / 2)),
                    p95: Some(SimDuration::from_millis(*p99)),
                    p99: Some(SimDuration::from_millis(*p99)),
                    rate_limit: *lim,
                })
                .collect(),
            api_paths: paths,
            slo: SimDuration::from_secs(1),
            resilience: Default::default(),
        }
    }

    fn sid(xs: &[u32]) -> Vec<ServiceId> {
        xs.iter().map(|x| ServiceId(*x)).collect()
    }

    #[test]
    fn no_overload_no_action() {
        let mut tf = TopFull::new(TopFullConfig::default());
        let o = obs(
            &[0.5, 0.6],
            &[(100.0, 100.0, 100.0, 10, 0, f64::INFINITY)],
            vec![sid(&[0, 1])],
        );
        assert!(tf.control(&o).is_empty());
        assert!(tf.last_decisions.is_empty());
    }

    #[test]
    fn overload_throttles_and_initializes_from_admitted() {
        let mut tf = TopFull::new(TopFullConfig::default());
        // Service 0 overloaded; latency 2 s (past SLO) → MIMD decreases.
        let o = obs(
            &[0.95],
            &[(300.0, 300.0, 80.0, 2000, 0, f64::INFINITY)],
            vec![sid(&[0])],
        );
        let ups = tf.control(&o);
        assert_eq!(ups.len(), 1);
        assert_eq!(ups[0].api, ApiId(0));
        // Initialized from admitted (300) then −5%: 285.
        assert!((ups[0].rate - 285.0).abs() < 1e-9, "got {}", ups[0].rate);
    }

    /// Collapsed admission (goodput ratio ≈ 0, latency pinned ≥2×SLO).
    const COLLAPSED: (f64, f64, f64, u64, u8, f64) = (285.0, 285.0, 0.0, 2500, 0, 285.0);
    /// Overloaded but serving: latency just past the SLO.
    const STRAINED: (f64, f64, f64, u64, u8, f64) = (285.0, 285.0, 100.0, 1100, 0, 285.0);

    #[test]
    fn collapse_backoff_deepens_cut_after_fresh_initialization() {
        let mut tf = TopFull::new(TopFullConfig::default());
        // Tick 1: first throttle initializes from admitted (300→285);
        // goodput ratio 0.27 is not collapsed, so the step is plain −5%.
        let ups = tf.control(&obs(
            &[0.95],
            &[(300.0, 300.0, 80.0, 2000, 0, f64::INFINITY)],
            vec![sid(&[0])],
        ));
        assert!((ups[0].rate - 285.0).abs() < 1e-9);
        // Tick 2: admission collapses right after initialization — the
        // −5% step escalates to the collapse backoff (−25%).
        let ups = tf.control(&obs(&[0.95], &[COLLAPSED], vec![sid(&[0])]));
        assert!(
            (ups[0].rate - 285.0 * 0.75).abs() < 1e-9,
            "escalated cut expected, got {}",
            ups[0].rate
        );
    }

    #[test]
    fn collapse_backoff_stops_at_episode_floor() {
        let mut tf = TopFull::new(TopFullConfig::default());
        tf.control(&obs(
            &[0.95],
            &[(300.0, 300.0, 80.0, 2000, 0, f64::INFINITY)],
            vec![sid(&[0])],
        ));
        // Sustained collapse: −25% steps walk 285 down, but stop at the
        // episode floor 285 × COLLAPSE_FLOOR_FRAC = 71.25 rather than
        // riding to the configured minimum rate.
        let mut last = 285.0;
        for _ in 0..5 {
            let ups = tf.control(&obs(&[0.95], &[COLLAPSED], vec![sid(&[0])]));
            last = ups[0].rate;
        }
        let floor = 285.0 * COLLAPSE_FLOOR_FRAC;
        assert!(
            (last - floor).abs() < 1e-6,
            "descent should land exactly on the floor: {last} vs {floor}"
        );
        // Past the floor the normal −5% law resumes.
        let ups = tf.control(&obs(&[0.95], &[COLLAPSED], vec![sid(&[0])]));
        assert!(
            (ups[0].rate - floor * 0.95).abs() < 1e-6,
            "normal step past the floor, got {}",
            ups[0].rate
        );
    }

    #[test]
    fn collapse_backoff_only_starts_near_limit_initialization() {
        let mut tf = TopFull::new(TopFullConfig::default());
        tf.control(&obs(
            &[0.95],
            &[(300.0, 300.0, 80.0, 2000, 0, f64::INFINITY)],
            vec![sid(&[0])],
        ));
        let mut expect = 285.0;
        // Strained-but-serving ticks age the initialization past the
        // episode window; each is a plain −5%.
        for _ in 0..COLLAPSE_INIT_WINDOW + 1 {
            let ups = tf.control(&obs(&[0.95], &[STRAINED], vec![sid(&[0])]));
            expect *= 0.95;
            assert!((ups[0].rate - expect).abs() < 1e-6);
        }
        // A collapse developing this late is a capacity fade, not a bad
        // initialization — the step must stay −5%.
        let ups = tf.control(&obs(&[0.95], &[COLLAPSED], vec![sid(&[0])]));
        expect *= 0.95;
        assert!(
            (ups[0].rate - expect).abs() < 1e-6,
            "late collapse must not escalate: {} vs {expect}",
            ups[0].rate
        );
    }

    #[test]
    fn collapse_backoff_applies_on_recovery_probe_path() {
        let mut tf = TopFull::new(TopFullConfig::default());
        // Tick 1: first throttle initializes from admitted (300→285).
        tf.control(&obs(
            &[0.95],
            &[(300.0, 300.0, 80.0, 2000, 0, f64::INFINITY)],
            vec![sid(&[0])],
        ));
        // Tick 2: telemetry noise drops the reported utilization below
        // the enter threshold — the detector flaps, the API's path
        // reads cold, and the collapsed cut routes through the per-API
        // recovery probe. It must escalate exactly like the cluster
        // path (fuzz 2-10: without this, the walk-down from the
        // inflated limit is −5%/tick while nothing is served).
        let ups = tf.control(&obs(&[0.5], &[COLLAPSED], vec![sid(&[0])]));
        assert_eq!(ups.len(), 1);
        assert!(
            (ups[0].rate - 285.0 * 0.75).abs() < 1e-9,
            "recovery-path cut must escalate under collapse, got {}",
            ups[0].rate
        );
        // Recovery ticks continue the episode down to the same floor …
        let mut last = ups[0].rate;
        for _ in 0..4 {
            let ups = tf.control(&obs(&[0.5], &[COLLAPSED], vec![sid(&[0])]));
            last = ups[0].rate;
        }
        let floor = 285.0 * COLLAPSE_FLOOR_FRAC;
        assert!(
            (last - floor).abs() < 1e-6,
            "recovery descent should stop at the episode floor: {last} vs {floor}"
        );
        // … past which the normal −5% law resumes.
        let ups = tf.control(&obs(&[0.5], &[COLLAPSED], vec![sid(&[0])]));
        assert!(
            (ups[0].rate - floor * 0.95).abs() < 1e-6,
            "normal step past the floor, got {}",
            ups[0].rate
        );
    }

    #[test]
    fn collapse_backoff_zero_disables_escalation() {
        let mut tf = TopFull::new(TopFullConfig {
            collapse_backoff: 0.0,
            ..TopFullConfig::default()
        });
        tf.control(&obs(
            &[0.95],
            &[(300.0, 300.0, 80.0, 2000, 0, f64::INFINITY)],
            vec![sid(&[0])],
        ));
        let ups = tf.control(&obs(&[0.95], &[COLLAPSED], vec![sid(&[0])]));
        assert!(
            (ups[0].rate - 285.0 * 0.95).abs() < 1e-9,
            "ablated backoff must keep the paper's −5% step, got {}",
            ups[0].rate
        );
    }

    #[test]
    fn decrease_hits_lowest_priority_only() {
        let mut tf = TopFull::new(TopFullConfig::default());
        // Both APIs pass overloaded service 0; API1 has lower priority
        // (higher value).
        let o = obs(
            &[0.95],
            &[
                (200.0, 200.0, 50.0, 2000, 0, f64::INFINITY),
                (200.0, 200.0, 50.0, 2000, 3, f64::INFINITY),
            ],
            vec![sid(&[0]), sid(&[0])],
        );
        let ups = tf.control(&o);
        assert_eq!(ups.len(), 1, "only the lowest priority is cut");
        assert_eq!(ups[0].api, ApiId(1));
    }

    #[test]
    fn equal_priorities_are_cut_together() {
        let mut tf = TopFull::new(TopFullConfig::default());
        let o = obs(
            &[0.95],
            &[
                (200.0, 200.0, 50.0, 2000, 1, f64::INFINITY),
                (200.0, 200.0, 50.0, 2000, 1, f64::INFINITY),
            ],
            vec![sid(&[0]), sid(&[0])],
        );
        let ups = tf.control(&o);
        assert_eq!(ups.len(), 2, "§4.1: reduce corresponding APIs equally");
    }

    #[test]
    fn increase_requires_overload_free_path_beyond_target() {
        // Two overloaded services; API0 touches both, API1 only the
        // target. A positive action may only lift API1 (and only if it is
        // already limited).
        let mut tf = TopFull::new(TopFullConfig::default().with_mimd_steps(0.05, 0.2));
        // Pre-limit both APIs.
        tf.limits = vec![100.0, 100.0];
        tf.headroom_ticks = vec![0, 0];
        tf.detector = Some(OverloadDetector::with_thresholds(3, 0.8, 0.75).unwrap());
        // Latency below SLO → MIMD increases; service 1 is the target
        // (fewest APIs pass it? both pass 1... paths: API0: {1, 2};
        // API1: {1}; service 2 used by 1 API → target = 2, candidates =
        // {API0}. API0 touches target 2 and overloaded 1 → ineligible.
        let o = obs(
            &[0.5, 0.95, 0.95],
            &[
                (200.0, 100.0, 100.0, 100, 0, 100.0),
                (200.0, 100.0, 100.0, 100, 1, 100.0),
            ],
            vec![sid(&[1, 2]), sid(&[1])],
        );
        let ups = tf.control(&o);
        // Cluster contains both APIs (share service 1). First target =
        // svc 2 (1 user); candidate {API0} is blocked from increasing
        // because API0 also passes hot svc 1. Second target = svc 1;
        // remaining candidate {API1} only touches its own target, so the
        // probe increase applies to it alone.
        assert_eq!(ups.len(), 1, "only API1 may be raised: {ups:?}");
        assert_eq!(ups[0].api, ApiId(1));
        assert!(
            !tf.last_decisions
                .iter()
                .any(|d| d.applied_to.contains(&ApiId(0))),
            "increase must not leak past other overloads"
        );
    }

    #[test]
    fn recovery_raises_limited_api_when_path_clear() {
        let mut tf = TopFull::new(TopFullConfig::default());
        tf.limits = vec![100.0];
        tf.headroom_ticks = vec![0];
        tf.detector = Some(OverloadDetector::with_thresholds(1, 0.8, 0.75).unwrap());
        // No overload anywhere; API0 is limited to 100 while offering
        // 300 → recovery controller should raise it (MIMD +1%).
        let o = obs(
            &[0.5],
            &[(300.0, 100.0, 100.0, 50, 0, 100.0)],
            vec![sid(&[0])],
        );
        let ups = tf.control(&o);
        assert_eq!(ups.len(), 1);
        assert!((ups[0].rate - 101.0).abs() < 1e-9, "got {}", ups[0].rate);
    }

    #[test]
    fn longstanding_headroom_releases_the_limit() {
        let mut tf = TopFull::new(TopFullConfig {
            release_after: 3,
            ..TopFullConfig::default()
        });
        tf.limits = vec![1000.0];
        tf.headroom_ticks = vec![0];
        tf.detector = Some(OverloadDetector::with_thresholds(1, 0.8, 0.75).unwrap());
        // Offered 100 ≪ limit 1000 (headroom 10×) with low latency.
        let o = obs(
            &[0.3],
            &[(100.0, 100.0, 100.0, 50, 0, 1000.0)],
            vec![sid(&[0])],
        );
        let mut released = false;
        for _ in 0..5 {
            for u in tf.control(&o) {
                if u.rate.is_infinite() {
                    released = true;
                }
            }
        }
        assert!(released, "limit should be released after headroom ticks");
        assert!(tf.limits[0].is_infinite());
    }

    #[test]
    fn ablation_without_clustering_forms_one_problem() {
        let mut tf = TopFull::new(TopFullConfig::default().without_clustering());
        // Two disjoint overloads would normally be two clusters.
        let o = obs(
            &[0.95, 0.95],
            &[
                (200.0, 200.0, 50.0, 2000, 0, f64::INFINITY),
                (200.0, 200.0, 50.0, 2000, 0, f64::INFINITY),
            ],
            vec![sid(&[0]), sid(&[1])],
        );
        tf.control(&o);
        assert_eq!(
            tf.last_decisions.len(),
            1,
            "ablation must solve one monolithic problem"
        );
        let mut tf2 = TopFull::new(TopFullConfig::default());
        tf2.control(&o);
        assert_eq!(tf2.last_decisions.len(), 2, "clustering splits in two");
    }

    #[test]
    fn target_is_fewest_api_service() {
        let mut tf = TopFull::new(TopFullConfig::default());
        // Both services overloaded and in one cluster via API0;
        // service 1 carries fewer APIs → chosen as target.
        let o = obs(
            &[0.95, 0.95],
            &[
                (200.0, 200.0, 50.0, 2000, 0, f64::INFINITY),
                (200.0, 200.0, 50.0, 2000, 1, f64::INFINITY),
            ],
            vec![sid(&[0, 1]), sid(&[0])],
        );
        tf.control(&o);
        assert_eq!(
            tf.last_decisions.len(),
            2,
            "both overloaded services acted on"
        );
        assert_eq!(
            tf.last_decisions[0].target,
            ServiceId(1),
            "fewest-API service processed first"
        );
    }

    #[test]
    fn journal_records_overload_recluster_and_actions() {
        let mut tf = TopFull::new(TopFullConfig::default());
        let journal = obs::Journal::shared();
        tf.attach_journal(std::sync::Arc::clone(&journal));
        let hot = obs(
            &[0.95],
            &[(300.0, 300.0, 80.0, 2000, 0, f64::INFINITY)],
            vec![sid(&[0])],
        );
        tf.control(&hot);
        let kinds: Vec<&'static str> = journal
            .snapshot()
            .iter()
            .map(|e| match e {
                obs::JournalEntry::Overload { .. } => "overload",
                obs::JournalEntry::Recluster { .. } => "recluster",
                obs::JournalEntry::RateAction { .. } => "rate_action",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, vec!["overload", "recluster", "rate_action"]);
        match &journal.snapshot()[0] {
            obs::JournalEntry::Overload {
                entered, service, ..
            } => {
                assert!(entered);
                assert_eq!(*service, 0);
            }
            e => panic!("unexpected first entry {e:?}"),
        }
        // Same observation again: the set and partition are unchanged, so
        // only the per-target action is journaled.
        let before = journal.len();
        tf.control(&hot);
        let tail = &journal.snapshot()[before..];
        assert_eq!(tail.len(), 1);
        assert!(matches!(tail[0], obs::JournalEntry::RateAction { .. }));
        // Load clears: the overload exit and empty partition are recorded.
        let cool = obs(&[0.1], &[(10.0, 10.0, 10.0, 10, 0, 285.0)], vec![sid(&[0])]);
        tf.limits = vec![f64::INFINITY];
        tf.control(&cool);
        let snap = journal.snapshot();
        assert!(snap
            .iter()
            .any(|e| matches!(e, obs::JournalEntry::Overload { entered: false, .. })));
        assert!(snap
            .iter()
            .any(|e| matches!(e, obs::JournalEntry::Recluster { clusters: 0, .. })));
    }

    #[test]
    fn journal_records_increase_blocks_and_releases() {
        // Same topology as increase_requires_overload_free_path_beyond_target.
        let mut tf = TopFull::new(TopFullConfig::default().with_mimd_steps(0.05, 0.2));
        let journal = obs::Journal::shared();
        tf.attach_journal(std::sync::Arc::clone(&journal));
        tf.limits = vec![100.0, 100.0];
        tf.headroom_ticks = vec![0, 0];
        tf.detector = Some(OverloadDetector::with_thresholds(3, 0.8, 0.75).unwrap());
        let o = obs(
            &[0.5, 0.95, 0.95],
            &[
                (200.0, 100.0, 100.0, 100, 0, 100.0),
                (200.0, 100.0, 100.0, 100, 1, 100.0),
            ],
            vec![sid(&[1, 2]), sid(&[1])],
        );
        tf.control(&o);
        let blocked: Vec<String> = journal
            .snapshot()
            .iter()
            .filter_map(|e| match e {
                obs::JournalEntry::RateBlocked { api, reason, .. } => {
                    Some(format!("{api}: {reason}"))
                }
                _ => None,
            })
            .collect();
        assert_eq!(blocked.len(), 1, "API0 blocked by hot svc 1: {blocked:?}");
        assert!(blocked[0].starts_with("0:"));
        assert!(blocked[0].contains("s1"), "{blocked:?}");
        // Headroom release is journaled.
        let mut tf = TopFull::new(TopFullConfig {
            release_after: 2,
            ..TopFullConfig::default()
        });
        let journal = obs::Journal::shared();
        tf.attach_journal(std::sync::Arc::clone(&journal));
        tf.limits = vec![1000.0];
        tf.headroom_ticks = vec![0];
        tf.detector = Some(OverloadDetector::with_thresholds(1, 0.8, 0.75).unwrap());
        let idle = obs(
            &[0.3],
            &[(100.0, 100.0, 100.0, 50, 0, 1000.0)],
            vec![sid(&[0])],
        );
        for _ in 0..3 {
            tf.control(&idle);
        }
        assert!(journal
            .snapshot()
            .iter()
            .any(|e| matches!(e, obs::JournalEntry::Release { api: 0, .. })));
    }

    #[test]
    fn journal_records_fallback_strikes_until_tripped() {
        /// A broken primary: every action is non-finite, so the safe
        /// wrapper strikes once per decision until it trips.
        struct NanPrimary;
        impl RateController for NanPrimary {
            fn decide(&self, _s: RateState) -> f64 {
                f64::NAN
            }
            fn name(&self) -> &str {
                "nan-primary"
            }
        }
        let cfg = TopFullConfig {
            rate_controller: Arc::new(SafeRateController::new(Arc::new(NanPrimary), 2)),
            ..TopFullConfig::default()
        };
        let mut tf = TopFull::new(cfg);
        let journal = obs::Journal::shared();
        tf.attach_journal(std::sync::Arc::clone(&journal));
        let hot = obs(
            &[0.95],
            &[(300.0, 300.0, 80.0, 2000, 0, f64::INFINITY)],
            vec![sid(&[0])],
        );
        tf.control(&hot);
        tf.control(&hot);
        let strikes: Vec<(u32, u32, bool)> = journal
            .snapshot()
            .iter()
            .filter_map(|e| match e {
                obs::JournalEntry::FallbackStrike {
                    strikes,
                    max_strikes,
                    tripped,
                    ..
                } => Some((*strikes, *max_strikes, *tripped)),
                _ => None,
            })
            .collect();
        assert_eq!(
            strikes,
            vec![(1, 2, false), (2, 2, true)],
            "one strike journaled per bad decision, tripping at max"
        );
        // The rate actions themselves stay finite: the MIMD fallback
        // supplied every step the broken primary failed to.
        assert!(journal.snapshot().iter().all(|e| match e {
            obs::JournalEntry::RateAction { action, .. } => action.is_finite(),
            _ => true,
        }));
    }
}

#[cfg(test)]
mod fairness_tests {
    use super::*;
    use cluster::{ApiSpec, CallNode, Engine, EngineConfig, Harness, OpenLoopWorkload};
    use cluster::{ServiceSpec, Topology};
    use simnet::{SimDuration, SimTime};

    /// Two same-priority APIs share one bottleneck; whatever skew the
    /// initial transient creates, the Chiu–Jain group actions must
    /// converge the pair toward an even split.
    #[test]
    fn equal_priority_apis_converge_to_fair_share() {
        let mut topo = Topology::new("fair");
        let s = topo.add_service(ServiceSpec::new("shared", 2));
        let mk = |t: &mut Topology, name: &str, s| {
            t.add_api(ApiSpec::single(
                name,
                CallNode::leaf(s, SimDuration::from_millis(10)),
            ))
        };
        let a = mk(&mut topo, "a", s);
        let b = mk(&mut topo, "b", s);
        // Capacity 200 rps; offered very asymmetrically: 900 vs 300.
        let w = OpenLoopWorkload::constant(vec![(a, 900.0), (b, 300.0)]);
        let engine = Engine::new(
            topo,
            EngineConfig {
                seed: 5,
                service_jitter: 0.0,
                ..EngineConfig::default()
            },
            Box::new(w),
        );
        let tf = TopFull::new(TopFullConfig::default().with_mimd());
        let mut h = Harness::new(engine, Box::new(tf));
        h.run_until(SimTime::from_secs(600));
        let ga = h.result().mean_goodput_api(a, 450.0, 600.0);
        let gb = h.result().mean_goodput_api(b, 450.0, 600.0);
        assert!(ga + gb > 120.0, "bottleneck well utilized: {ga} + {gb}");
        // The offered skew is 3:1; multiplicative cuts + equal-share
        // raises must pull the served split well inside that.
        let ratio = ga.max(gb) / ga.min(gb).max(1.0);
        assert!(
            ratio < 2.5,
            "equal-priority split should approach fairness: {ga} vs {gb}"
        );
    }

    /// Distinct priorities must NOT be fair: the high-priority API gets
    /// the bottleneck, the low one survives at the floor.
    #[test]
    fn distinct_priorities_prefer_the_important_api() {
        let mut topo = Topology::new("prio");
        let s = topo.add_service(ServiceSpec::new("shared", 2));
        let a = topo.add_api(
            ApiSpec::single("vip", CallNode::leaf(s, SimDuration::from_millis(10)))
                .business(cluster::types::BusinessPriority(0)),
        );
        let b = topo.add_api(
            ApiSpec::single("batch", CallNode::leaf(s, SimDuration::from_millis(10)))
                .business(cluster::types::BusinessPriority(5)),
        );
        let w = OpenLoopWorkload::constant(vec![(a, 400.0), (b, 400.0)]);
        let engine = Engine::new(
            topo,
            EngineConfig {
                seed: 6,
                service_jitter: 0.0,
                ..EngineConfig::default()
            },
            Box::new(w),
        );
        let tf = TopFull::new(TopFullConfig::default().with_mimd());
        let mut h = Harness::new(engine, Box::new(tf));
        h.run_until(SimTime::from_secs(240));
        let ga = h.result().mean_goodput_api(a, 150.0, 240.0);
        let gb = h.result().mean_goodput_api(b, 150.0, 240.0);
        assert!(
            ga > 2.0 * gb,
            "priority must dominate the split: vip={ga} batch={gb}"
        );
    }
}

#[cfg(test)]
mod refinement_flag_tests {
    use super::*;
    use cluster::{ApiSpec, CallNode, Engine, EngineConfig, Harness, OpenLoopWorkload};
    use cluster::{ServiceSpec, Topology};
    use simnet::SimDuration;

    /// Two independent bottlenecks inside one cluster (linked by a
    /// spanning API): single-target mode must act on only one per tick.
    fn two_bottleneck_engine(seed: u64) -> Engine {
        let mut topo = Topology::new("two-bn");
        let a = topo.add_service(ServiceSpec::new("a", 1));
        let b = topo.add_service(ServiceSpec::new("b", 1));
        let api_a = topo.add_api(ApiSpec::single(
            "on-a",
            CallNode::leaf(a, SimDuration::from_millis(10)),
        ));
        let api_b = topo.add_api(ApiSpec::single(
            "on-b",
            CallNode::leaf(b, SimDuration::from_millis(10)),
        ));
        // A spanning API links the two bottlenecks into one cluster.
        let spanning = topo.add_api(ApiSpec::single(
            "span",
            CallNode::with_children(
                a,
                SimDuration::from_millis(1),
                vec![CallNode::leaf(b, SimDuration::from_millis(1))],
            ),
        ));
        let w = OpenLoopWorkload::constant(vec![(api_a, 400.0), (api_b, 400.0), (spanning, 50.0)]);
        Engine::new(
            topo,
            EngineConfig {
                seed,
                service_jitter: 0.0,
                ..EngineConfig::default()
            },
            Box::new(w),
        )
    }

    fn run_with(cfg: TopFullConfig, seed: u64) -> f64 {
        let mut h = Harness::new(two_bottleneck_engine(seed), Box::new(TopFull::new(cfg)));
        h.run_for_secs(120);
        h.result().mean_total_goodput(60.0, 120.0)
    }

    #[test]
    fn multi_target_beats_single_target_on_linked_bottlenecks() {
        let multi = run_with(TopFullConfig::default().with_mimd(), 41);
        let single = run_with(
            TopFullConfig {
                single_target_per_cluster: true,
                ..TopFullConfig::default()
            }
            .with_mimd(),
            41,
        );
        assert!(
            multi >= single,
            "acting on every bottleneck per interval must not lose: \
             multi={multi} single={single}"
        );
    }

    #[test]
    fn verbatim_algorithm1_can_cut_idle_apis() {
        // Overloaded service 0; an idle low-priority API shares its path.
        let mk_obs = || {
            use cluster::observe::{ApiWindow, ServiceWindow};
            use cluster::types::BusinessPriority;
            use simnet::SimTime;
            ClusterObservation {
                now: SimTime::from_secs(1),
                window: SimDuration::from_secs(1),
                services: vec![ServiceWindow {
                    service: ServiceId(0),
                    name: "s0".into(),
                    utilization: 0.95,
                    alive_pods: 1,
                    desired_pods: 1,
                    queue_len: 50,
                    mean_queuing_delay: SimDuration::from_millis(100),
                    started_calls: 100,
                    dropped_calls: 0,
                }],
                apis: vec![
                    ApiWindow {
                        api: ApiId(0),
                        name: "busy".into(),
                        business: BusinessPriority(0),
                        offered: 300.0,
                        admitted: 300.0,
                        goodput: 80.0,
                        slo_violated: 100.0,
                        failed: 0.0,
                        p50: Some(SimDuration::from_millis(1500)),
                        p95: Some(SimDuration::from_millis(2000)),
                        p99: Some(SimDuration::from_millis(2000)),
                        rate_limit: f64::INFINITY,
                    },
                    ApiWindow {
                        api: ApiId(1),
                        name: "idle".into(),
                        business: BusinessPriority(5),
                        offered: 0.0,
                        admitted: 0.0,
                        goodput: 0.0,
                        slo_violated: 0.0,
                        failed: 0.0,
                        p50: None,
                        p95: None,
                        p99: None,
                        rate_limit: f64::INFINITY,
                    },
                ],
                api_paths: vec![vec![ServiceId(0)], vec![ServiceId(0)]],
                slo: SimDuration::from_secs(1),
                resilience: Default::default(),
            }
        };
        // Refined behaviour: the busy API is cut.
        let mut refined = TopFull::new(TopFullConfig::default());
        let ups = refined.control(&mk_obs());
        assert_eq!(ups.len(), 1);
        assert_eq!(ups[0].api, ApiId(0), "refined controller cuts the load");
        // Verbatim Algorithm 1: the idle lowest-priority API is cut
        // (uselessly) instead.
        let mut verbatim = TopFull::new(TopFullConfig {
            restrict_cuts_to_contributing: false,
            ..TopFullConfig::default()
        });
        let ups = verbatim.control(&mk_obs());
        assert_eq!(ups.len(), 1);
        assert_eq!(ups[0].api, ApiId(1), "verbatim targets the idle API");
    }

    #[test]
    fn unfair_group_steps_preserve_the_skew() {
        // Directly exercise apply_group_action on a skewed pair.
        use cluster::observe::{ApiWindow, ServiceWindow};
        use cluster::types::BusinessPriority;
        use simnet::SimTime;
        let obs = ClusterObservation {
            now: SimTime::from_secs(1),
            window: SimDuration::from_secs(1),
            services: vec![ServiceWindow {
                service: ServiceId(0),
                name: "s0".into(),
                utilization: 0.5,
                alive_pods: 1,
                desired_pods: 1,
                queue_len: 0,
                mean_queuing_delay: SimDuration::ZERO,
                started_calls: 0,
                dropped_calls: 0,
            }],
            apis: (0..2)
                .map(|i| ApiWindow {
                    api: ApiId(i),
                    name: format!("a{i}"),
                    business: BusinessPriority(0),
                    offered: 100.0,
                    admitted: 100.0,
                    goodput: 100.0,
                    slo_violated: 0.0,
                    failed: 0.0,
                    p50: None,
                    p95: None,
                    p99: None,
                    rate_limit: f64::INFINITY,
                })
                .collect(),
            api_paths: vec![vec![ServiceId(0)], vec![ServiceId(0)]],
            slo: SimDuration::from_secs(1),
            resilience: Default::default(),
        };
        let raise = |fair: bool| {
            let mut tf = TopFull::new(TopFullConfig {
                fair_group_steps: fair,
                ..TopFullConfig::default()
            });
            tf.limits = vec![300.0, 100.0]; // 3:1 skew
            tf.headroom_ticks = vec![0, 0];
            let mut ups = Vec::new();
            tf.apply_group_action(&obs, &[ApiId(0), ApiId(1)], 0.2, &mut ups);
            (tf.limits[0], tf.limits[1])
        };
        let (fa, fb) = raise(true);
        let (ua, ub) = raise(false);
        // Fair: equal absolute gains shrink the relative skew.
        assert!(fa / fb < 3.0, "fair steps reduce the ratio: {fa}/{fb}");
        // Unfair: multiplicative raise keeps the 3:1 ratio exactly.
        assert!((ua / ub - 3.0).abs() < 1e-9, "unfair keeps 3:1: {ua}/{ub}");
    }
}
