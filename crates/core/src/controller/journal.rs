//! The only place controller state becomes [`obs::JournalEntry`]s.
//!
//! The decision path hands over typed values — the overloaded set, the
//! partition, a finished [`Decision`] — and every string is built here,
//! and only when a journal is attached. All writes happen from the
//! control thread in decision order, so journaling never perturbs the
//! decisions or the determinism contract.

use super::{Decision, Subject, TopFullConfig};
use crate::clustering::Cluster;
use cluster::observe::ClusterObservation;
use cluster::types::{ApiId, ServiceId};
use obs::JournalEntry;
use std::fmt::Write;
use std::sync::Arc;

/// The attached journal plus what the previous tick looked like, so
/// detector and partition entries record transitions only.
#[derive(Default)]
pub(super) struct Journaler {
    pub(super) sink: Option<Arc<obs::Journal>>,
    prev_overloaded: Vec<ServiceId>,
    prev_partition: Vec<Vec<ApiId>>,
}

/// Journal-safe float: the JSONL schema keeps NaN/∞ out of the wire
/// format (the reason string carries the degradation note instead).
pub(crate) fn jf(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        -1.0
    }
}

/// Append comma-joined API indices (`"0,2"`).
fn push_api_list(out: &mut String, apis: &[ApiId]) {
    for (i, a) in apis.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64(out, a.0.into());
    }
}

/// Append `n` in decimal.
fn push_u64(out: &mut String, n: u64) {
    out.extend(obs::fmt_u64(&mut [0; 20], n).iter().map(|&d| char::from(d)));
}

/// Append `v` exactly as `{v:+.3}` renders it. `core::fmt` rounds the
/// exact binary value half to even, through a slow path for some values
/// (±0.5 among them); scaled by 1000 below 2³¹, the product is within
/// 2⁻²³ of exact, so away from a tie rounding it to the nearest integer
/// picks the same digits. Near a tie `core::fmt` decides.
fn push_action(out: &mut String, v: f64) {
    let scaled = v.abs() * 1000.0;
    if scaled < 2_147_483_648.0 && (scaled.fract() - 0.5).abs() > 1e-6 {
        let n = scaled.round() as u64;
        out.push(if v.is_sign_negative() { '-' } else { '+' });
        push_u64(out, n / 1000);
        out.push('.');
        let frac = n % 1000;
        if frac < 100 {
            out.push('0');
        }
        if frac < 10 {
            out.push('0');
        }
        push_u64(out, frac);
    } else {
        let _ = write!(out, "{v:+.3}");
    }
}

/// Append a service's name, or `"svc <id>"` for one the observation
/// does not carry.
fn push_service_name(out: &mut String, obs: &ClusterObservation, s: ServiceId) {
    match obs.services.get(s.idx()) {
        Some(w) => out.push_str(&w.name),
        None => {
            let _ = write!(out, "svc {}", s.0);
        }
    }
}

fn service_name(obs: &ClusterObservation, s: ServiceId) -> String {
    let mut name = String::new();
    push_service_name(&mut name, obs, s);
    name
}

impl Journaler {
    /// Detector transitions against the previous set: entries first, in
    /// the new set's order, then clears in the old one's.
    pub(super) fn overloads(&mut self, obs: &ClusterObservation, overloaded: &[ServiceId]) {
        if overloaded == self.prev_overloaded {
            return;
        }
        if let Some(j) = &self.sink {
            let entry = |s: ServiceId, entered: bool| JournalEntry::Overload {
                t: obs.now.as_secs_f64(),
                service: s.0,
                name: service_name(obs, s),
                utilization: jf(obs.services.get(s.idx()).map_or(-1.0, |w| w.utilization)),
                entered,
            };
            for s in overloaded
                .iter()
                .filter(|s| !self.prev_overloaded.contains(s))
            {
                j.record(entry(*s, true));
            }
            for s in self
                .prev_overloaded
                .iter()
                .filter(|s| !overloaded.contains(s))
            {
                j.record(entry(*s, false));
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
            let mut assignment = String::new();
            for (i, group) in self.prev_partition.iter().enumerate() {
                if i > 0 {
                    assignment.push('|');
                }
                push_api_list(&mut assignment, group);
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
    pub(super) fn decision(&self, obs: &ClusterObservation, cfg: &TopFullConfig, d: &Decision) {
        let Some(j) = &self.sink else { return };
        let rc = &cfg.rate_controller;
        let t = obs.now.as_secs_f64();
        for (api, blocker) in &d.blocked {
            const BLOCKED: &str = "rate-increase blocked: path contains overloaded ";
            // Room for the usual service name without a second allocation.
            let mut reason = String::with_capacity(BLOCKED.len() + 32);
            reason.push_str(BLOCKED);
            push_service_name(&mut reason, obs, *blocker);
            j.record(JournalEntry::RateBlocked {
                t,
                api: api.0,
                reason,
            });
        }
        let (prefix, target, target_name) = match d.subject {
            Subject::Target(s) => ("", s.0, service_name(obs, s)),
            Subject::Probe(a) => ("recovery probe: ", a.0, obs.api(a).name.clone()),
        };
        // Sized for the usual reason, `"<name> action +0.123"`; the
        // clauses below are the exception and may grow it.
        let (name, action) = (rc.name(), d.action);
        let mut reason = String::with_capacity(prefix.len() + name.len() + 14);
        reason.push_str(prefix);
        reason.push_str(name);
        if action.is_finite() {
            reason.push_str(" action ");
            push_action(&mut reason, action);
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
        // Up to three digits and a comma per API.
        let mut apis = String::with_capacity(4 * d.applied_to.len());
        push_api_list(&mut apis, &d.applied_to);
        j.record(JournalEntry::RateAction {
            t,
            target,
            target_name,
            apis,
            action: jf(action),
            goodput_ratio: jf(d.state.goodput_ratio),
            latency_ratio: jf(d.state.latency_ratio),
            total_limit: jf(d.state.total_limit),
            reason,
        });
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

    fn rendered(v: f64) -> String {
        let mut out = String::new();
        push_action(&mut out, v);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// [`push_action`] against `format!("{v:+.3}")`, byte for byte,
        /// at either sign: magnitudes from 1e-10 to 1e10 (the integer
        /// path ends near 2.1e6), exact ties (an odd multiple of 1/16 is
        /// an odd number of half-thousandths: 0.0625, 0.1875, 0.3125, …)
        /// and values a few ulps either side of one.
        #[test]
        fn push_action_renders_like_format(
            mantissa in 1.0f64..10.0,
            exp in -10i32..10,
            odd in 0u32..40_000,
            ulps in -3i64..=3,
            kind in 0u8..3,
            negative in any::<bool>(),
        ) {
            let tie = f64::from(2 * odd + 1) / 16.0;
            let v = match kind {
                0 => mantissa * 10f64.powi(exp),
                1 => tie,
                _ => f64::from_bits(tie.to_bits().wrapping_add_signed(ulps)),
            };
            let v = if negative { -v } else { v };
            prop_assert_eq!(rendered(v), format!("{v:+.3}"));
        }
    }

    #[test]
    fn push_action_renders_the_edges_like_format() {
        let ties = [0.0625, 0.1875, 0.3125, 2_097_151.937_5];
        let edges = [0.5, -0.5, 0.0, -0.0, -1e-9, 1e-9, 0.0005, 2_147_483.647];
        let far = [
            2_147_483.648,
            1e300,
            f64::INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
        ];
        for v in ties.into_iter().chain(edges).chain(far) {
            for v in [v, -v] {
                assert_eq!(rendered(v), format!("{v:+.3}"), "{v:e}");
            }
        }
        assert_eq!(rendered(-1e-9), "-0.000");
        assert_eq!(rendered(0.0625), "+0.062", "half to even");
        let mut list = String::new();
        push_api_list(&mut list, &[ApiId(0), ApiId(12), ApiId(u32::MAX)]);
        assert_eq!(list, "0,12,4294967295");
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
