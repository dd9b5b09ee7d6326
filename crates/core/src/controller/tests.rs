//! Hand-built observations shared by the per-seam tests, and the tests
//! of the pipeline as a whole.

use super::*;
use crate::MimdController;
use cluster::observe::{ApiWindow, ServiceWindow};
use cluster::types::{ApiId, BusinessPriority, ServiceId};
use simnet::{SimDuration, SimTime};

/// Hand-built observation: utilization per service, per-API
/// (offered, admitted, goodput, p99 ms, business, rate_limit).
pub(super) fn obs(
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

pub(super) fn sid(xs: &[u32]) -> Vec<ServiceId> {
    xs.iter().map(|x| ServiceId(*x)).collect()
}

impl TopFull {
    /// Start from established limits, as if earlier ticks had set them.
    pub(super) fn preset_limits(&mut self, limits: &[f64]) {
        self.apis = limits
            .iter()
            .map(|&limit| ApiLimit { limit, ..UNLIMITED })
            .collect();
    }
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

#[test]
fn probes_follow_targets_in_last_decisions() {
    let mut tf = TopFull::new(TopFullConfig::default());
    tf.preset_limits(&[f64::INFINITY, 100.0]);
    // API0 crosses hot service 0 (a target); API1 is limited on a cold
    // path (a probe).
    let o = obs(
        &[0.95, 0.3],
        &[
            (300.0, 300.0, 80.0, 2000, 0, f64::INFINITY),
            (300.0, 100.0, 100.0, 50, 0, 100.0),
        ],
        vec![sid(&[0]), sid(&[1])],
    );
    let ups = tf.control(&o);
    assert_eq!(ups.len(), 2);
    let subjects: Vec<Subject> = tf.last_decisions.iter().map(|d| d.subject).collect();
    assert_eq!(
        subjects,
        vec![Subject::Target(ServiceId(0)), Subject::Probe(ApiId(1))]
    );
    assert_eq!(tf.last_decisions[1].candidates, vec![ApiId(1)]);
    assert_eq!(tf.last_decisions[1].applied_to, vec![ApiId(1)]);
}

#[test]
fn a_path_through_a_service_the_observation_lacks_is_not_hot() {
    // Two services observed; the paths also name ids 7 and 4 000 000,
    // which no `ServiceWindow` carries. They are absent from the table
    // of hot services as they were from the hash set: no veto of API0's
    // raise, no probe of API1 withheld, no index out of range.
    let mut tf = TopFull::new(
        TopFullConfig::default()
            .with_rate_controller(Arc::new(MimdController::with_steps(0.05, 0.2))),
    );
    tf.preset_limits(&[100.0, 100.0]);
    let limited = (200.0, 100.0, 100.0, 100, 0, 100.0);
    let o = obs(
        &[0.95, 0.3],
        &[limited, limited],
        vec![sid(&[0, 7, 4_000_000]), sid(&[4_000_000, 7])],
    );
    let ups = tf.control(&o);
    let subjects: Vec<Subject> = tf.last_decisions.iter().map(|d| d.subject).collect();
    assert_eq!(
        subjects,
        vec![Subject::Target(ServiceId(0)), Subject::Probe(ApiId(1))]
    );
    assert!(tf.last_decisions.iter().all(|d| d.blocked.is_empty()));
    let raised: Vec<(ApiId, f64)> = ups.iter().map(|u| (u.api, u.rate)).collect();
    assert_eq!(raised, vec![(ApiId(0), 120.0), (ApiId(1), 120.0)]);
}

#[test]
fn a_release_forgets_everything_about_the_limit() {
    let mut tf = TopFull::new(TopFullConfig {
        release_after: 1,
        ..TopFullConfig::default()
    });
    tf.apis = vec![ApiLimit {
        limit: 1000.0,
        headroom_ticks: 0,
        init_tick: Some(0),
        probe_anchor: Some(4000.0),
    }];
    let idle = obs(
        &[0.3],
        &[(100.0, 100.0, 100.0, 50, 0, 1000.0)],
        vec![sid(&[0])],
    );
    let ups = tf.control(&idle);
    assert!(ups[0].rate.is_infinite());
    let slot = tf.apis[0];
    assert!(slot.limit.is_infinite() && slot.headroom_ticks == 0);
    assert!(slot.init_tick.is_none() && slot.probe_anchor.is_none());
}
