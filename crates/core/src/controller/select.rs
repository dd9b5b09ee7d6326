//! §4.1 selection: which overloaded services are decided on this
//! interval, over which candidate APIs — and which rate-limited APIs get
//! a recovery probe.

use super::{flagged, ApiLimit, Decision, TopFullConfig};
use crate::clustering::Cluster;
use cluster::observe::ClusterObservation;
use cluster::types::{ApiId, ServiceId};

/// Targets in decision order, each with the candidate APIs it claims.
///
/// Within a cluster, overloaded services are processed in
/// fewest-API-first order ("we iteratively choose the overloaded
/// microservice utilized by the fewest APIs"). Each target *claims* its
/// candidate APIs so one API receives at most one decision per interval;
/// later targets control the remainder. This keeps the paper's
/// prioritization while guaranteeing every bottleneck in the cluster is
/// acted on each interval — a single never-resolving target must not
/// leave the rest uncontrolled (DESIGN.md §5, refinement 1).
pub(super) fn targets(
    cfg: &TopFullConfig,
    obs: &ClusterObservation,
    clusters: &[Cluster],
) -> Vec<(ServiceId, Vec<ApiId>)> {
    // An idle tick builds no tables.
    if clusters.is_empty() {
        return Vec::new();
    }
    // At most one target per overloaded service.
    let mut out: Vec<(ServiceId, Vec<ApiId>)> =
        Vec::with_capacity(clusters.iter().map(|c| c.overloaded.len()).sum());
    // Clusters share no API, so one table of claims serves them all.
    let mut claimed = vec![false; obs.api_paths.len()];
    // Every overloaded service's user count, in one pass over the paths:
    // `(last API counted, APIs)` per service id, so a path that lists a
    // service twice counts its API once, as `contains` would.
    let span = clusters.iter().flat_map(|c| &c.overloaded);
    let span = span.map(|s| s.idx() + 1).max().unwrap_or(0);
    let mut users = vec![(usize::MAX, 0usize); span];
    for (api, path) in obs.api_paths.iter().enumerate() {
        for s in path {
            match users.get_mut(s.idx()) {
                Some((last, n)) if *last != api => (*last, *n) = (api, *n + 1),
                _ => {}
            }
        }
    }
    let mut order: Vec<(usize, ServiceId)> = Vec::new();
    for c in clusters {
        order.clear();
        order.extend(c.overloaded.iter().map(|s| (users[s.idx()].1, *s)));
        order.sort_unstable();
        for &(_, target) in &order {
            let candidates: Vec<ApiId> = c
                .apis
                .iter()
                .copied()
                .filter(|a| !claimed[a.idx()] && obs.api_paths[a.idx()].contains(&target))
                .collect();
            if candidates.is_empty() {
                continue;
            }
            for a in &candidates {
                claimed[a.idx()] = true;
            }
            out.push((target, candidates));
            if cfg.single_target_per_cluster {
                break;
            }
        }
    }
    if !cfg.clustering_enabled {
        // §6.2 "w/o cluster" ablation: naive sequential load control —
        // one decision per interval over the monolithic problem.
        out.truncate(1);
    }
    out
}

/// Rate-limited APIs due a recovery probe, ascending: those whose paths
/// are currently free of `hot` services. An API can still sit inside a
/// cluster through a cooling (hysteresis-band) service — that must not
/// block its recovery — but one a target decision already stepped this
/// tick is skipped.
pub(super) fn probes(
    apis: &[ApiLimit],
    obs: &ClusterObservation,
    hot: &[bool],
    decided: &[Decision],
) -> Vec<ApiId> {
    let mut due: Vec<ApiId> = (0..obs.apis.len())
        .filter(|&i| apis[i].limit.is_finite())
        .filter(|&i| !obs.api_paths[i].iter().any(|s| flagged(hot, s.idx())))
        .map(|i| ApiId(i as u32))
        .collect();
    // Usually nothing is limited, and then no table is built either.
    if !due.is_empty() {
        let mut acted_on = vec![false; obs.apis.len()];
        for api in decided.iter().flat_map(|d| &d.applied_to) {
            if let Some(flag) = acted_on.get_mut(api.idx()) {
                *flag = true;
            }
        }
        due.retain(|api| !acted_on[api.idx()]);
    }
    due
}

#[cfg(test)]
mod tests {
    use super::super::tests::{obs, sid};
    use super::super::{Subject, TopFull};
    use super::*;
    use cluster::Controller;
    use cluster::{ApiSpec, CallNode, Engine, EngineConfig, Harness, OpenLoopWorkload};
    use cluster::{ServiceSpec, Topology};
    use simnet::SimDuration;

    const HOT_API: (f64, f64, f64, u64, u8, f64) = (200.0, 200.0, 50.0, 2000, 0, f64::INFINITY);

    #[test]
    fn target_is_fewest_api_service() {
        let mut tf = TopFull::new(TopFullConfig::default());
        // Both services overloaded and in one cluster via API0;
        // service 1 carries fewer APIs → chosen as target.
        let o = obs(
            &[0.95, 0.95],
            &[HOT_API, (200.0, 200.0, 50.0, 2000, 1, f64::INFINITY)],
            vec![sid(&[0, 1]), sid(&[0])],
        );
        tf.control(&o);
        let subjects: Vec<Subject> = tf.last_decisions.iter().map(|d| d.subject).collect();
        assert_eq!(
            subjects,
            vec![Subject::Target(ServiceId(1)), Subject::Target(ServiceId(0))],
            "both overloaded services acted on, fewest-API service first"
        );
    }

    fn targets_of(paths: Vec<Vec<ServiceId>>, cluster: Cluster) -> Vec<(ServiceId, Vec<ApiId>)> {
        let o = obs(&[0.95; 3], &vec![HOT_API; paths.len()], paths);
        targets(&TopFullConfig::default(), &o, &[cluster])
    }

    #[test]
    fn a_path_that_lists_a_service_twice_counts_one_user() {
        // Service 1 has one user (API0, through it twice), service 0
        // two; counted twice, service 1 would tie and lose on its id.
        let got = targets_of(
            vec![sid(&[1, 0, 1]), sid(&[0])],
            Cluster {
                apis: vec![ApiId(0), ApiId(1)],
                overloaded: sid(&[0, 1]),
            },
        );
        assert_eq!(
            got,
            vec![
                (ServiceId(1), vec![ApiId(0)]),
                (ServiceId(0), vec![ApiId(1)])
            ]
        );
    }

    #[test]
    fn an_overloaded_service_on_no_path_is_no_target() {
        let got = targets_of(
            vec![sid(&[0, 1])],
            Cluster {
                apis: vec![ApiId(0)],
                overloaded: sid(&[0, 2]),
            },
        );
        assert_eq!(got, vec![(ServiceId(0), vec![ApiId(0)])]);
    }

    #[test]
    fn ablation_without_clustering_forms_one_problem() {
        let mut tf = TopFull::new(TopFullConfig::default().without_clustering());
        // Two disjoint overloads would normally be two clusters.
        let o = obs(
            &[0.95, 0.95],
            &[HOT_API, HOT_API],
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
}
