//! The only place controller state becomes journal records.
//!
//! The decision path hands over typed values — the overloaded set, the
//! partition, a finished [`Decision`] — and nothing is recorded unless a
//! journal is attached. A decision is recorded typed, its names shared
//! from a per-id cache ([`obs::RateDecision`]); the journal builds its
//! text when read. All writes happen from the control thread in decision
//! order, so journaling never perturbs the decisions or the determinism
//! contract.

use super::{Decision, Subject, TopFullConfig};
use crate::clustering::Cluster;
use cluster::observe::ClusterObservation;
use cluster::types::{ApiId, ServiceId};
use obs::journal::{jf, push_id_list};
use obs::JournalEntry;
use std::sync::Arc;

/// The attached journal plus what the previous tick looked like, so
/// detector and partition entries record transitions only.
#[derive(Default)]
pub(super) struct Journaler {
    pub(super) sink: Option<Arc<obs::Journal>>,
    prev_overloaded: Vec<ServiceId>,
    prev_partition: Vec<Vec<ApiId>>,
    names: Names,
    /// A decision's blocks, kept between decisions for its capacity.
    blocked: Vec<(u32, Arc<str>)>,
}

/// The names the journal shares, by id; the controller's at 0.
#[derive(Default)]
struct Names {
    services: Vec<Option<Arc<str>>>,
    apis: Vec<Option<Arc<str>>>,
    controller: Vec<Option<Arc<str>>>,
}

/// The copy of `name` shared from `table[i]`, made anew when the id's
/// name changed.
fn shared(table: &mut Vec<Option<Arc<str>>>, i: usize, name: &str) -> Arc<str> {
    if table.len() <= i {
        table.resize(i + 1, None);
    }
    match &table[i] {
        Some(s) if **s == *name => Arc::clone(s),
        _ => Arc::clone(table[i].insert(name.into())),
    }
}

impl Names {
    /// A service's name, or `"svc <id>"` for one the observation does
    /// not carry.
    fn service(&mut self, obs: &ClusterObservation, s: ServiceId) -> Arc<str> {
        match obs.services.get(s.idx()) {
            Some(w) => shared(&mut self.services, s.idx(), &w.name),
            None => format!("svc {}", s.0).into(),
        }
    }
}

impl Journaler {
    /// Detector transitions against the previous set: entries first, in
    /// the new set's order, then clears in the old one's.
    pub(super) fn overloads(&mut self, obs: &ClusterObservation, overloaded: &[ServiceId]) {
        if overloaded == self.prev_overloaded {
            return;
        }
        if let Some(j) = &self.sink {
            let prev = &self.prev_overloaded;
            let entered = overloaded.iter().filter(|s| !prev.contains(s));
            let cleared = prev.iter().filter(|s| !overloaded.contains(s));
            let marked = entered
                .map(|s| (s, true))
                .chain(cleared.map(|s| (s, false)));
            for (&s, entered) in marked {
                j.record(JournalEntry::Overload {
                    t: obs.now.as_secs_f64(),
                    service: s.0,
                    name: self.names.service(obs, s).to_string(),
                    utilization: jf(obs.services.get(s.idx()).map_or(-1.0, |w| w.utilization)),
                    entered,
                });
            }
        }
        self.prev_overloaded = overloaded.to_vec();
    }

    /// The cluster partition, when it differs from the last tick's.
    pub(super) fn partition(&mut self, obs: &ClusterObservation, clusters: &[Cluster]) {
        if clusters.iter().map(|c| &c.apis).eq(&self.prev_partition) {
            return;
        }
        self.prev_partition = clusters.iter().map(|c| c.apis.clone()).collect();
        if let Some(j) = &self.sink {
            // Up to three digits and a separator per API.
            let apis: usize = self.prev_partition.iter().map(Vec::len).sum();
            let mut assignment = String::with_capacity(4 * apis);
            for (i, group) in self.prev_partition.iter().enumerate() {
                if i > 0 {
                    assignment.push('|');
                }
                push_id_list(&mut assignment, group.iter().map(|a| a.0));
            }
            j.record(JournalEntry::Recluster {
                t: obs.now.as_secs_f64(),
                clusters: clusters.len() as u32,
                assignment,
            });
        }
    }

    /// One applied decision: its §4.1 raise vetoes, then the step
    /// itself. A probe renders exactly like a target, under its API's
    /// id and name and a `"recovery probe: "` prefix.
    pub(super) fn decision(&mut self, obs: &ClusterObservation, cfg: &TopFullConfig, d: &Decision) {
        let Some(j) = &self.sink else { return };
        let names = &mut self.names;
        self.blocked.clear();
        for (api, blocker) in &d.blocked {
            self.blocked.push((api.0, names.service(obs, *blocker)));
        }
        let (target, probe, target_name) = match d.subject {
            Subject::Target(s) => (s.0, false, names.service(obs, s)),
            Subject::Probe(a) => (
                a.0,
                true,
                shared(&mut names.apis, a.idx(), &obs.api(a).name),
            ),
        };
        let rc = &cfg.rate_controller;
        let decision = obs::RateDecision {
            t: obs.now.as_secs_f64(),
            target,
            probe,
            target_name,
            controller: shared(&mut names.controller, 0, rc.name()),
            action: d.action,
            goodput_ratio: d.state.goodput_ratio,
            latency_ratio: d.state.latency_ratio,
            total_limit: d.state.total_limit,
            escalated: d.escalated,
            degraded: d.state.is_degraded(),
            has_fallback: rc.fallback_state().is_some(),
        };
        j.record_decision(&self.blocked, decision, d.applied_to.iter().map(|a| a.0));
    }

    /// A long-standing headroom release.
    pub(super) fn release(&self, obs: &ClusterObservation, api: ApiId, cfg: &TopFullConfig) {
        if let Some(j) = &self.sink {
            let (headroom, after) = (cfg.release_headroom, cfg.release_after);
            j.record(JournalEntry::Release {
                t: obs.now.as_secs_f64(),
                api: api.0,
                reason: format!("limit held {headroom:.1}x above offered for {after} intervals"),
            });
        }
    }

    /// Strikes the safe wrapper accumulated anywhere in this tick's
    /// decisions (targets and probes), once each, in order.
    pub(super) fn strikes(&self, obs: &ClusterObservation, before: u32, cfg: &TopFullConfig) {
        let fallback = cfg.rate_controller.fallback_state();
        let (Some(j), Some((now, max_strikes, _))) = (&self.sink, fallback) else {
            return;
        };
        for strikes in (before + 1)..=now {
            j.record(JournalEntry::FallbackStrike {
                t: obs.now.as_secs_f64(),
                strikes,
                max_strikes,
                tripped: strikes >= max_strikes,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{obs, sid};
    use super::super::TopFull;
    use super::*;
    use crate::rate_controller::{MimdController, RateController, RateState, SafeRateController};
    use cluster::Controller;
    use proptest::prelude::*;

    fn service_name(obs: &ClusterObservation, s: ServiceId) -> String {
        obs.services
            .get(s.idx())
            .map_or_else(|| format!("svc {}", s.0), |w| w.name.clone())
    }

    /// The renderer before decisions were kept typed, as the oracle:
    /// every string built on the control thread and recorded through
    /// [`obs::Journal::record`]. Its action digits are the `{v:+.3}` its
    /// integer-digit writer was held to.
    fn eager_decision(
        j: &obs::Journal,
        obs: &ClusterObservation,
        cfg: &TopFullConfig,
        d: &Decision,
    ) {
        let rc = &cfg.rate_controller;
        let t = obs.now.as_secs_f64();
        for (api, blocker) in &d.blocked {
            j.record(JournalEntry::RateBlocked {
                t,
                api: api.0,
                reason: format!(
                    "rate-increase blocked: path contains overloaded {}",
                    service_name(obs, *blocker)
                ),
            });
        }
        let (prefix, target, target_name) = match d.subject {
            Subject::Target(s) => ("", s.0, service_name(obs, s)),
            Subject::Probe(a) => ("recovery probe: ", a.0, obs.api(a).name.clone()),
        };
        let (name, action) = (rc.name(), d.action);
        let mut reason = format!("{prefix}{name}");
        if action.is_finite() {
            reason.push_str(&format!(" action {action:+.3}"));
        } else {
            reason.push_str(" action non-finite; step dropped");
        }
        if d.escalated {
            reason.push_str("; collapse backoff: admission collapsed, cut deepened");
        }
        if d.state.is_degraded() {
            reason.push_str(if rc.fallback_state().is_some() {
                "; degraded telemetry routed to mimd fallback"
            } else {
                "; degraded telemetry"
            });
        }
        if d.applied_to.is_empty() && action.is_finite() {
            reason.push_str(if action >= 0.0 {
                "; no eligible API to raise"
            } else {
                "; no contributing API to cut"
            });
        }
        let apis: Vec<String> = d.applied_to.iter().map(|a| a.0.to_string()).collect();
        j.record(JournalEntry::RateAction {
            t,
            target,
            target_name,
            apis: apis.join(","),
            action: jf(action),
            goodput_ratio: jf(d.state.goodput_ratio),
            latency_ratio: jf(d.state.latency_ratio),
            total_limit: jf(d.state.total_limit),
            reason,
        });
    }

    /// Steps at and around the rendering's edges: ±0.5 ties, ±0, the
    /// non-finite ones, exact thousandth ties and ordinary values.
    const ACTIONS: [f64; 12] = [
        0.5,
        -0.5,
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0625,
        -0.1875,
        0.0005,
        0.123_456,
        -0.049_99,
    ];
    /// State values, the non-finite ones making a degraded state.
    const STATES: [f64; 7] = [
        0.42,
        1.7,
        0.0,
        350.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    /// Four services and four APIs, every name renamed when `renamed`,
    /// at `secs`.
    fn observed(renamed: bool, secs: u64) -> ClusterObservation {
        let api = (10.0, 10.0, 10.0, 10, 0, 10.0);
        let mut o = obs(&[0.9; 4], &[api; 4], vec![sid(&[0]); 4]);
        o.now = simnet::SimTime::from_secs(secs);
        if renamed {
            o.services
                .iter_mut()
                .for_each(|w| w.name.push_str("-renamed"));
            o.apis.iter_mut().for_each(|w| w.name.push_str("-renamed"));
        }
        o
    }

    type Subjects = (u32, usize, bool);
    type States = (usize, usize, usize);
    type Apis = (Vec<u32>, Vec<(u32, u32)>);
    type Context = (bool, bool, u64);

    /// One decision as drawn: subject (0–5 a service, 4 and 5 missing
    /// from the observation; 6–9 a probe of API 0–3), action, escalated;
    /// the state; recipients and blocks; fallback controller, renamed
    /// observation, time.
    fn drawn(
        (
            (subject, action, escalated),
            (g, l, limit),
            (applied, blocked),
            (fallback, renamed, secs),
        ): (Subjects, States, Apis, Context),
    ) -> (Decision, ClusterObservation, TopFullConfig) {
        let mimd = Arc::new(MimdController::with_steps(0.05, 0.2));
        let rate_controller: Arc<dyn RateController> = if fallback {
            Arc::new(SafeRateController::new(mimd, 3))
        } else {
            mimd
        };
        let d = Decision {
            subject: match subject {
                0..=5 => Subject::Target(ServiceId(subject)),
                _ => Subject::Probe(ApiId(subject - 6)),
            },
            candidates: Vec::new(),
            state: RateState {
                goodput_ratio: STATES[g],
                latency_ratio: STATES[l],
                total_limit: STATES[limit],
            },
            action: ACTIONS[action],
            escalated,
            anchor: None,
            applied_to: applied.into_iter().map(ApiId).collect(),
            blocked: blocked
                .into_iter()
                .map(|(a, s)| (ApiId(a), ServiceId(s)))
                .collect(),
        };
        let cfg = TopFullConfig {
            rate_controller,
            ..TopFullConfig::default()
        };
        (d, observed(renamed, secs), cfg)
    }

    /// The journal's entries after `decisions`, recorded typed through
    /// one [`Journaler`] and eagerly through the oracle, each at `cap`.
    fn both(
        cap: usize,
        decisions: &[(Decision, ClusterObservation, TopFullConfig)],
    ) -> [(Vec<JournalEntry>, usize, u64); 2] {
        let (typed, eager) = (
            Arc::new(obs::Journal::with_capacity(cap)),
            obs::Journal::with_capacity(cap),
        );
        let mut journaler = Journaler {
            sink: Some(Arc::clone(&typed)),
            ..Journaler::default()
        };
        for (d, o, cfg) in decisions {
            journaler.decision(o, cfg, d);
            eager_decision(&eager, o, cfg, d);
        }
        [&*typed, &eager].map(|j| (j.snapshot(), j.len(), j.dropped()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Decisions recorded typed and rendered on read equal the eager
        /// rendering, entry for entry, with the same length and drops at
        /// any cap — names cached across renamed observations and
        /// controllers with and without a fallback included.
        #[test]
        fn the_typed_journal_renders_what_the_eager_one_recorded(
            cap in 1usize..24,
            decisions in prop::collection::vec(
                (
                    (0u32..10, 0usize..ACTIONS.len(), any::<bool>()),
                    (0usize..STATES.len(), 0usize..STATES.len(), 0usize..STATES.len()),
                    (
                        prop::collection::vec(0u32..4, 0..4),
                        prop::collection::vec((0u32..4, 0u32..6), 0..=3),
                    ),
                    (any::<bool>(), any::<bool>(), 0u64..100),
                )
                    .prop_map(drawn),
                1..6,
            ),
        ) {
            let [typed, eager] = both(cap, &decisions);
            prop_assert_eq!(typed, eager);
        }
    }

    #[test]
    fn blocks_crossing_the_cap_count_like_the_eager_journal() {
        let (mut d, o, cfg) = drawn((
            (0, 0, false),
            (0, 0, 0),
            (vec![1], vec![(1, 1), (2, 2), (3, 5)]),
            (false, false, 1),
        ));
        for cap in 1..=5 {
            let [typed, eager] = both(cap, &[(d.clone(), o.clone(), cfg.clone())]);
            assert_eq!(typed, eager, "cap {cap}");
            assert_eq!((typed.1, typed.2), (cap.min(4), 4 - cap.min(4) as u64));
        }
        d.blocked.clear();
        let [typed, _] = both(1, &[(d, o, cfg)]);
        assert_eq!(typed.0.len(), 1);
        assert!(matches!(typed.0[0], JournalEntry::RateAction { .. }));
    }

    fn journaled(cfg: TopFullConfig) -> (TopFull, Arc<obs::Journal>) {
        let mut tf = TopFull::new(cfg);
        let journal = obs::Journal::shared();
        tf.attach_journal(Arc::clone(&journal));
        (tf, journal)
    }

    #[test]
    fn journal_records_overload_recluster_and_actions() {
        let (mut tf, journal) = journaled(TopFullConfig::default());
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
                JournalEntry::Overload { .. } => "overload",
                JournalEntry::Recluster { .. } => "recluster",
                JournalEntry::RateAction { .. } => "rate_action",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, vec!["overload", "recluster", "rate_action"]);
        match &journal.snapshot()[0] {
            JournalEntry::Overload {
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
        assert!(matches!(tail[0], JournalEntry::RateAction { .. }));
        // Load clears: the overload exit and empty partition are recorded.
        let cool = obs(&[0.1], &[(10.0, 10.0, 10.0, 10, 0, 285.0)], vec![sid(&[0])]);
        tf.preset_limits(&[f64::INFINITY]);
        tf.control(&cool);
        let snap = journal.snapshot();
        assert!(snap
            .iter()
            .any(|e| matches!(e, JournalEntry::Overload { entered: false, .. })));
        assert!(snap
            .iter()
            .any(|e| matches!(e, JournalEntry::Recluster { clusters: 0, .. })));
    }

    #[test]
    fn journal_records_increase_blocks_and_releases() {
        // Same topology as increase_requires_overload_free_path_beyond_target.
        let (mut tf, journal) = journaled(
            TopFullConfig::default()
                .with_rate_controller(Arc::new(MimdController::with_steps(0.05, 0.2))),
        );
        tf.preset_limits(&[100.0, 100.0]);
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
                JournalEntry::RateBlocked { api, reason, .. } => Some(format!("{api}: {reason}")),
                _ => None,
            })
            .collect();
        assert_eq!(blocked.len(), 1, "API0 blocked by hot svc 1: {blocked:?}");
        assert!(blocked[0].starts_with("0:"));
        assert!(blocked[0].contains("s1"), "{blocked:?}");
        // Headroom release is journaled.
        let (mut tf, journal) = journaled(TopFullConfig {
            release_after: 2,
            ..TopFullConfig::default()
        });
        tf.preset_limits(&[1000.0]);
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
            .any(|e| matches!(e, JournalEntry::Release { api: 0, .. })));
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
        let (mut tf, journal) = journaled(TopFullConfig {
            rate_controller: Arc::new(SafeRateController::new(Arc::new(NanPrimary), 2)),
            ..TopFullConfig::default()
        });
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
                JournalEntry::FallbackStrike {
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
            JournalEntry::RateAction { action, .. } => action.is_finite(),
            _ => true,
        }));
    }

    /// The one API is limited to 285 and collapsed one tick after its
    /// first throttle; at `util` 0.95 its service is a cluster target,
    /// at 0.5 the detector has let go and the same cut is a probe.
    fn second_tick(util: f64) -> (f64, JournalEntry) {
        let (mut tf, journal) = journaled(TopFullConfig::default());
        let api = |goodput, p99, limit| (300.0, 300.0, goodput, p99, 0, limit);
        tf.control(&obs(
            &[0.95],
            &[api(80.0, 2000, f64::INFINITY)],
            vec![sid(&[0])],
        ));
        let ups = tf.control(&obs(&[util], &[api(0.0, 2500, 285.0)], vec![sid(&[0])]));
        assert_eq!(ups.len(), 1);
        let last = journal.snapshot().last().cloned().expect("a rate action");
        (ups[0].rate, last)
    }

    #[test]
    fn a_probe_is_a_single_candidate_target_under_another_name() {
        let (target_rate, target_entry) = second_tick(0.95);
        let (probe_rate, probe_entry) = second_tick(0.5);
        assert_eq!(
            target_rate.to_bits(),
            probe_rate.to_bits(),
            "same (state, action), same limit"
        );
        // Modulo prefix, target id and name, the same journal entry.
        let normalized = match probe_entry {
            JournalEntry::RateAction {
                t,
                apis,
                action,
                goodput_ratio,
                latency_ratio,
                total_limit,
                reason,
                ..
            } => JournalEntry::RateAction {
                t,
                target: 0,
                target_name: "s0".into(),
                apis,
                action,
                goodput_ratio,
                latency_ratio,
                total_limit,
                reason: reason
                    .strip_prefix("recovery probe: ")
                    .expect("probe entries carry the prefix")
                    .to_string(),
            },
            e => panic!("expected a rate action, got {e:?}"),
        };
        assert_eq!(normalized, target_entry);
        assert!(
            format!("{target_entry:?}").contains("collapse backoff"),
            "the shared cut is the escalated one: {target_entry:?}"
        );
    }
}
