//! §4.1 selection: which overloaded services are decided on this
//! interval, over which candidate APIs — and which rate-limited APIs get
//! a recovery probe.
//!
//! Both read tables indexed by dense id (claims, user counts, acted-on
//! flags) and write their answers into a `Selection` the controller
//! keeps between ticks, so neither allocates once the tables have grown;
//! a target's candidate vector is one a past decision gave back.

use super::{flagged, reuse, ApiLimit, Decision, TopFullConfig};
use crate::clustering::Cluster;
use cluster::observe::ClusterObservation;
use cluster::types::{ApiId, ServiceId};

/// §4.1 selection's tables and its two results, kept between ticks for
/// their capacity.
#[derive(Default)]
pub(super) struct Selection {
    claimed: Vec<bool>,
    users: Vec<(usize, usize)>,
    order: Vec<(usize, ServiceId)>,
    targets: Vec<(ServiceId, Vec<ApiId>)>,
    due: Vec<ApiId>,
    acted_on: Vec<bool>,
}

/// Targets in decision order, each with the candidate APIs it claims
/// in a vector from `spare`; the caller drains them.
///
/// Within a cluster, overloaded services are processed in
/// fewest-API-first order ("we iteratively choose the overloaded
/// microservice utilized by the fewest APIs"). Each target *claims* its
/// candidate APIs so one API receives at most one decision per interval;
/// later targets control the remainder. This keeps the paper's
/// prioritization while guaranteeing every bottleneck in the cluster is
/// acted on each interval — a single never-resolving target must not
/// leave the rest uncontrolled (DESIGN.md §5, refinement 1).
pub(super) fn targets<'s>(
    cfg: &TopFullConfig,
    obs: &ClusterObservation,
    clusters: &[Cluster],
    sel: &'s mut Selection,
    spare: &mut Vec<Vec<ApiId>>,
) -> &'s mut Vec<(ServiceId, Vec<ApiId>)> {
    let (claimed, users) = (&mut sel.claimed, &mut sel.users);
    let (order, out) = (&mut sel.order, &mut sel.targets);
    // An idle tick fills no tables.
    if clusters.is_empty() {
        return out;
    }
    // Clusters share no API, so one table of claims serves them all.
    claimed.clear();
    claimed.resize(obs.api_paths.len(), false);
    // Every overloaded service's user count, in one pass over the paths:
    // `(last API counted, APIs)` per service id, so a path that lists a
    // service twice counts its API once, as `contains` would.
    let span = clusters.iter().flat_map(|c| &c.overloaded);
    let span = span.map(|s| s.idx() + 1).max().unwrap_or(0);
    users.clear();
    users.resize(span, (usize::MAX, 0));
    for (api, path) in obs.api_paths.iter().enumerate() {
        for s in path {
            match users.get_mut(s.idx()) {
                Some((last, n)) if *last != api => (*last, *n) = (api, *n + 1),
                _ => {}
            }
        }
    }
    for c in clusters {
        order.clear();
        order.extend(c.overloaded.iter().map(|s| (users[s.idx()].1, *s)));
        order.sort_unstable();
        for &(_, target) in order.iter() {
            let mut candidates = reuse(spare);
            let claimable =
                |a: &&ApiId| !claimed[a.idx()] && obs.api_paths[a.idx()].contains(&target);
            candidates.extend(c.apis.iter().filter(claimable));
            if candidates.is_empty() {
                spare.push(candidates);
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
pub(super) fn probes<'s>(
    apis: &[ApiLimit],
    obs: &ClusterObservation,
    hot: &[bool],
    decided: &[Decision],
    sel: &'s mut Selection,
) -> &'s [ApiId] {
    let Selection { due, acted_on, .. } = sel;
    due.clear();
    due.extend(
        (0..obs.apis.len())
            .filter(|&i| apis[i].limit.is_finite())
            .filter(|&i| !obs.api_paths[i].iter().any(|s| flagged(hot, s.idx())))
            .map(|i| ApiId(i as u32)),
    );
    // Usually nothing is limited, and then the table is left alone.
    if !due.is_empty() {
        acted_on.clear();
        acted_on.resize(obs.apis.len(), false);
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
    use super::super::{Subject, TopFull, UNLIMITED};
    use super::*;
    use crate::clustering::{cluster_apis_fresh, Clustering};
    use crate::rate_controller::RateState;
    use cluster::Controller;
    use cluster::{ApiSpec, CallNode, Engine, EngineConfig, Harness, OpenLoopWorkload};
    use cluster::{ServiceSpec, Topology};
    use proptest::prelude::*;
    use simnet::SimDuration;

    /// [`targets`] before its tables were kept between ticks, fresh
    /// tables every call, as the oracle.
    ///
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
    fn targets_fresh(
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

    /// [`probes`] before its tables were kept, as the oracle.
    ///
    /// Rate-limited APIs due a recovery probe, ascending: those whose paths
    /// are currently free of `hot` services. An API can still sit inside a
    /// cluster through a cooling (hysteresis-band) service — that must not
    /// block its recovery — but one a target decision already stepped this
    /// tick is skipped.
    fn probes_fresh(
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
        let (mut sel, mut spare) = (Selection::default(), Vec::new());
        std::mem::take(targets(
            &TopFullConfig::default(),
            &o,
            &[cluster],
            &mut sel,
            &mut spare,
        ))
    }

    /// xorshift64*: one step's input from a seed.
    struct Draw(u64);

    impl Draw {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n.max(1)
        }
    }

    /// One tick's inputs over `apis` APIs and service ids below `span`:
    /// the observation, the overloaded set (the largest id always in it,
    /// so the tables track `span`), the limits, the hot flags and the
    /// decisions already taken.
    fn step_input(
        apis: usize,
        span: usize,
        seed: u64,
    ) -> (
        ClusterObservation,
        Vec<ServiceId>,
        Vec<ApiLimit>,
        Vec<bool>,
        Vec<Decision>,
    ) {
        let mut r = Draw(seed | 1);
        // Mostly a dense handful of ids, so that paths share services.
        let id = |r: &mut Draw| {
            let range = if r.below(4) == 0 { span } else { span.min(12) };
            ServiceId(r.below(range) as u32)
        };
        let ids = |r: &mut Draw, most: usize| -> Vec<ServiceId> {
            let n = if span == 0 { 0 } else { r.below(most) };
            (0..n).map(|_| id(r)).collect()
        };
        let paths: Vec<Vec<ServiceId>> = (0..apis).map(|_| ids(&mut r, 7)).collect();
        let mut overloaded = ids(&mut r, 10);
        overloaded.extend(span.checked_sub(1).map(|top| ServiceId(top as u32)));
        let limits = (0..apis)
            .map(|_| ApiLimit {
                limit: [100.0, f64::INFINITY][r.below(2)],
                ..UNLIMITED
            })
            .collect();
        let hot = (0..r.below(span + 2)).map(|_| r.below(3) == 0).collect();
        let decided = (0..r.below(3))
            .map(|_| Decision {
                subject: Subject::Probe(ApiId(0)),
                candidates: Vec::new(),
                state: RateState {
                    goodput_ratio: 1.0,
                    latency_ratio: 0.0,
                    total_limit: 0.0,
                },
                action: 0.0,
                escalated: false,
                anchor: None,
                applied_to: (0..r.below(4))
                    .map(|_| ApiId(r.below(apis + 3) as u32))
                    .collect(),
                blocked: Vec::new(),
            })
            .collect();
        let o = obs(&vec![0.5; span], &vec![HOT_API; apis], paths);
        (o, overloaded, limits, hot, decided)
    }

    proptest! {
        /// One clustering scratch, one selection and one spare pool,
        /// reused over a sequence of ticks whose API count (1–40) and
        /// service-id span (0–150) each grow and shrink in turn, decide
        /// every tick exactly like fresh tables. The targets' vectors go
        /// back to the pool unemptied, as a tick's decisions do.
        #[test]
        fn reused_tables_decide_like_fresh_ones(
            steps in prop::collection::vec(
                ((1usize..=20, 76usize..=150), (21usize..=40, 0usize..=75), any::<u64>(), 0u8..3),
                2..5,
            ),
        ) {
            let mut clustering = Clustering::default();
            let (mut sel, mut spare) = (Selection::default(), Vec::new());
            for ((few, wide), (many, narrow), seed, kind) in steps {
                let cfg = match kind {
                    0 => TopFullConfig::default(),
                    1 => TopFullConfig { single_target_per_cluster: true, ..TopFullConfig::default() },
                    _ => TopFullConfig::default().without_clustering(),
                };
                for (i, (apis, span)) in [(few, wide), (many, narrow)].into_iter().enumerate() {
                    let (o, overloaded, limits, hot, decided) =
                        step_input(apis, span, seed.wrapping_add(i as u64));
                    let fresh = cluster_apis_fresh(&o.api_paths, &overloaded);
                    let clusters = clustering.cluster(&o.api_paths, &overloaded);
                    prop_assert_eq!(clusters, &fresh[..]);
                    let want = targets_fresh(&cfg, &o, clusters);
                    let got = targets(&cfg, &o, clusters, &mut sel, &mut spare);
                    prop_assert_eq!(&*got, &want);
                    spare.extend(got.drain(..).map(|(_, ids)| ids));
                    let want = probes_fresh(&limits, &o, &hot, &decided);
                    prop_assert_eq!(probes(&limits, &o, &hot, &decided, &mut sel), &want[..]);
                }
            }
        }
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
