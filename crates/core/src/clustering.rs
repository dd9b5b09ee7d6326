//! API clustering for parallel load control (§4.2).
//!
//! Equation 2: APIs *i* and *j* belong to the same cluster iff some
//! overloaded microservice lies on both of their execution paths; the
//! relation is closed transitively ("even if API 1 and API 3 do not
//! directly share any overloaded microservices, they are clustered
//! together if there exists API 2 that shares overloaded microservices
//! with both"). Branching APIs already contribute *every* possible path
//! to `api_paths` (the engine exports the union), so they are handled as
//! "an API that is involved in every microservice in its possible
//! execution paths".
//!
//! Clustering runs from scratch each control interval — re-clustering is
//! how the controller tracks the changing overloaded set (§4.2
//! "Re-clustering dynamically"). What keeps that cheap is that
//! `ServiceId` and `ApiId` are dense indices: the overloaded set is a
//! table indexed by service that doubles as each service's first user,
//! the union–find runs over API indices, and because the smaller root
//! always wins a cluster's root is its smallest member — so one
//! ascending scan emits clusters and members already in order. Nothing
//! is hashed and nothing is sorted; one pass over the paths and two
//! over small tables, under 2 µs for 25 APIs over 127 services.
//!
//! "From scratch" is about the answer, not the memory: the controller
//! keeps one [`Clustering`], whose tables, cluster list and clusters'
//! vectors are cleared and refilled each interval, so a tick allocates
//! nothing here once they have grown to the topology.
//! [`cluster_apis`] is the same over a fresh one.

use cluster::types::{ApiId, ServiceId};

/// One independent sub-problem: APIs tied together by shared overloaded
/// microservices.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cluster {
    /// Member APIs, ascending.
    pub apis: Vec<ApiId>,
    /// Overloaded services on the members' paths, ascending.
    pub overloaded: Vec<ServiceId>,
}

/// `first_user` entry of a service that is not overloaded.
const CLEAR: u32 = u32::MAX;
/// `first_user` entry of an overloaded service no API has crossed yet.
const UNCLAIMED: u32 = u32::MAX - 1;

/// Root of `x` in a union–find over API indices, halving the path.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let up = parent[parent[x as usize] as usize];
        parent[x as usize] = up;
        x = up;
    }
    x
}

/// Cluster APIs over the currently overloaded services.
///
/// * `api_paths[i]` — every service on any possible path of API `i`.
/// * `overloaded` — services currently past the overload threshold.
///
/// Returns clusters ordered by their smallest member API; APIs whose
/// paths contain no overloaded service appear in no cluster. Allocates
/// its tables and clusters anew: the controller clusters through one
/// [`Clustering`] it keeps.
pub fn cluster_apis(api_paths: &[Vec<ServiceId>], overloaded: &[ServiceId]) -> Vec<Cluster> {
    // A fresh scratch holds no spare clusters past the ones it returns.
    let mut scratch = Clustering::default();
    scratch.cluster(api_paths, overloaded);
    scratch.clusters
}

/// [`cluster_apis`]'s tables and clusters, kept between calls for their
/// capacity, each cluster's two vectors included.
#[derive(Clone, Debug, Default)]
pub struct Clustering {
    first_user: Vec<u32>,
    parent: Vec<u32>,
    involved: Vec<bool>,
    slot_of: Vec<u32>,
    /// The last call's clusters, then emptied ones kept for reuse.
    clusters: Vec<Cluster>,
    len: usize,
}

impl Clustering {
    /// [`cluster_apis`], into this scratch's tables.
    pub fn cluster(&mut self, paths: &[Vec<ServiceId>], overloaded: &[ServiceId]) -> &[Cluster] {
        self.len = 0;
        let Some(top) = overloaded.iter().map(|s| s.idx()).max() else {
            return &[];
        };
        // Per service: `CLEAR`, `UNCLAIMED`, or the first API found
        // crossing it. A path's id past the table is a service that is
        // not overloaded, like any other the set does not hold.
        let first_user = &mut self.first_user;
        first_user.clear();
        first_user.resize(top + 1, CLEAR);
        for s in overloaded {
            first_user[s.idx()] = UNCLAIMED;
        }
        // Union APIs through each overloaded service they share; the
        // smaller root wins, so a root is its cluster's smallest member.
        let parent = &mut self.parent;
        parent.clear();
        parent.extend(0..paths.len() as u32);
        self.involved.clear();
        self.involved.resize(paths.len(), false);
        for (api, path) in paths.iter().enumerate() {
            for s in path {
                let Some(slot) = first_user.get_mut(s.idx()) else {
                    continue;
                };
                match *slot {
                    CLEAR => continue,
                    UNCLAIMED => *slot = api as u32,
                    first => {
                        let (a, b) = (find(parent, first), find(parent, api as u32));
                        parent[a.max(b) as usize] = a.min(b);
                    }
                }
                self.involved[api] = true;
            }
        }
        // One ascending scan meets every cluster at its root first, so
        // the clusters come out ordered by smallest member, each member
        // list ascending, with nothing to sort. A root's slot is written
        // before any member reads it, so that table is never cleared;
        // a cluster past the last call's is a new one.
        let (slot_of, clusters, len) = (&mut self.slot_of, &mut self.clusters, &mut self.len);
        slot_of.resize(paths.len(), 0);
        for api in (0..paths.len()).filter(|a| self.involved[*a]) {
            let root = find(parent, api as u32) as usize;
            if root == api {
                slot_of[api] = *len as u32;
                clusters.resize_with(clusters.len().max(*len + 1), Cluster::default);
                clusters[*len].apis.clear();
                clusters[*len].overloaded.clear();
                *len += 1;
            }
            let slot = slot_of[root] as usize;
            clusters[slot].apis.push(ApiId(api as u32));
        }
        // Ascending over the table: each claimed service goes to its
        // first user's cluster, already in order and once.
        for (s, &first) in first_user.iter().enumerate() {
            if first < UNCLAIMED {
                let slot = slot_of[find(parent, first) as usize] as usize;
                clusters[slot].overloaded.push(ServiceId(s as u32));
            }
        }
        &clusters[..*len]
    }
}

/// The §6.2 "w/o cluster" ablation: every involved API and every
/// overloaded service as one monolithic sub-problem (none when no API
/// is involved).
pub(crate) fn monolithic_cluster(
    api_paths: &[Vec<ServiceId>],
    overloaded: &[ServiceId],
) -> Vec<Cluster> {
    let mut apis: Vec<ApiId> = cluster_apis(api_paths, overloaded)
        .into_iter()
        .flat_map(|c| c.apis)
        .collect();
    if apis.is_empty() {
        return Vec::new();
    }
    apis.sort();
    vec![Cluster {
        apis,
        overloaded: overloaded.to_vec(),
    }]
}

#[cfg(test)]
pub(crate) use tests::cluster_apis_fresh;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The id-indexed clustering before its tables were kept between
    /// calls, fresh tables every call, as the oracle [`Clustering`] must
    /// equal however its tables were left.
    pub(crate) fn cluster_apis_fresh(
        api_paths: &[Vec<ServiceId>],
        overloaded: &[ServiceId],
    ) -> Vec<Cluster> {
        let Some(top) = overloaded.iter().map(|s| s.idx()).max() else {
            return Vec::new();
        };
        // Per service: `CLEAR`, `UNCLAIMED`, or the first API found crossing
        // it. A path's id past the table is a service that is not
        // overloaded, like any other the set does not hold.
        let mut first_user = vec![CLEAR; top + 1];
        for s in overloaded {
            first_user[s.idx()] = UNCLAIMED;
        }
        // Union APIs through each overloaded service they share; the
        // smaller root wins, so a root is its cluster's smallest member.
        let mut parent: Vec<u32> = (0..api_paths.len() as u32).collect();
        let mut involved = vec![false; api_paths.len()];
        for (api, path) in api_paths.iter().enumerate() {
            for s in path {
                let Some(slot) = first_user.get_mut(s.idx()) else {
                    continue;
                };
                match *slot {
                    CLEAR => continue,
                    UNCLAIMED => *slot = api as u32,
                    first => {
                        let (a, b) = (find(&mut parent, first), find(&mut parent, api as u32));
                        parent[a.max(b) as usize] = a.min(b);
                    }
                }
                involved[api] = true;
            }
        }
        // One ascending scan meets every cluster at its root first, so the
        // clusters come out ordered by smallest member, each member list
        // ascending, with nothing to sort.
        let mut out: Vec<Cluster> = Vec::new();
        let mut slot_of = vec![0u32; api_paths.len()];
        for api in (0..api_paths.len()).filter(|a| involved[*a]) {
            let root = find(&mut parent, api as u32) as usize;
            if root == api {
                slot_of[api] = out.len() as u32;
                out.push(Cluster {
                    apis: Vec::new(),
                    overloaded: Vec::new(),
                });
            }
            out[slot_of[root] as usize].apis.push(ApiId(api as u32));
        }
        // Ascending over the table: each claimed service goes to its first
        // user's cluster, already in order and once.
        for (s, &first) in first_user.iter().enumerate() {
            if first < UNCLAIMED {
                let root = find(&mut parent, first) as usize;
                out[slot_of[root] as usize]
                    .overloaded
                    .push(ServiceId(s as u32));
            }
        }
        out
    }

    /// Union–find with path compression, as the oracle uses it.
    struct Dsu {
        parent: Vec<usize>,
    }

    impl Dsu {
        fn new(n: usize) -> Self {
            Dsu {
                parent: (0..n).collect(),
            }
        }

        fn find(&mut self, x: usize) -> usize {
            if self.parent[x] != x {
                let r = self.find(self.parent[x]);
                self.parent[x] = r;
            }
            self.parent[x]
        }

        fn union(&mut self, a: usize, b: usize) {
            let (ra, rb) = (self.find(a), self.find(b));
            if ra != rb {
                // Deterministic: smaller root wins.
                let (lo, hi) = (ra.min(rb), ra.max(rb));
                self.parent[hi] = lo;
            }
        }
    }

    /// The map-based clustering [`cluster_apis`] replaced — a hash set of
    /// the overloaded, a hash map of first users, clusters gathered in a
    /// `BTreeMap` and sorted — kept as the oracle it must equal.
    fn cluster_apis_by_maps(
        api_paths: &[Vec<ServiceId>],
        overloaded: &[ServiceId],
    ) -> Vec<Cluster> {
        if overloaded.is_empty() {
            return Vec::new();
        }
        let over: std::collections::HashSet<ServiceId> = overloaded.iter().copied().collect();
        // APIs participating in the overload problem.
        let involved: Vec<usize> = api_paths
            .iter()
            .enumerate()
            .filter(|(_, path)| path.iter().any(|s| over.contains(s)))
            .map(|(i, _)| i)
            .collect();
        if involved.is_empty() {
            return Vec::new();
        }
        // Union APIs through each overloaded service they share.
        let mut dsu = Dsu::new(involved.len());
        let mut first_user: std::collections::HashMap<ServiceId, usize> =
            std::collections::HashMap::new();
        for (k, &api) in involved.iter().enumerate() {
            for s in &api_paths[api] {
                if !over.contains(s) {
                    continue;
                }
                match first_user.entry(*s) {
                    std::collections::hash_map::Entry::Occupied(e) => dsu.union(*e.get(), k),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(k);
                    }
                }
            }
        }
        // Materialize clusters.
        let mut by_root: std::collections::BTreeMap<usize, Cluster> =
            std::collections::BTreeMap::new();
        for (k, &api) in involved.iter().enumerate() {
            let root = dsu.find(k);
            let c = by_root.entry(root).or_insert_with(|| Cluster {
                apis: Vec::new(),
                overloaded: Vec::new(),
            });
            c.apis.push(ApiId(api as u32));
            for s in &api_paths[api] {
                if over.contains(s) && !c.overloaded.contains(s) {
                    c.overloaded.push(*s);
                }
            }
        }
        let mut out: Vec<Cluster> = by_root.into_values().collect();
        for c in out.iter_mut() {
            c.apis.sort();
            c.apis.dedup();
            c.overloaded.sort();
        }
        out.sort_by_key(|c| c.apis[0]);
        out
    }

    fn sid(xs: &[u32]) -> Vec<ServiceId> {
        xs.iter().map(|x| ServiceId(*x)).collect()
    }

    /// Mostly a dense handful of ids — so paths repeat services and
    /// share them — and sometimes a sparse, large one.
    fn service_id(kind: u8, v: u32) -> ServiceId {
        ServiceId(match kind {
            0..=5 => v % 12,
            6 => 100 + v % 3,
            _ => [4_095, 4_096, 70_000][v as usize % 3],
        })
    }

    proptest! {
        /// Equal to the map-based clustering on random paths — services
        /// repeated inside a path, sparse and large ids, duplicate and
        /// unsorted overloaded ids, an overloaded id on no path and one
        /// beyond every path's ids.
        #[test]
        fn matches_the_map_based_oracle(
            paths in prop::collection::vec(
                prop::collection::vec((0u8..8, 0u32..1000), 0..7), 0..14),
            overloaded in prop::collection::vec((0u8..8, 0u32..1000), 0..10),
            stray in 0u8..3,
        ) {
            let ids = |xs: Vec<(u8, u32)>| -> Vec<ServiceId> {
                xs.into_iter().map(|(k, v)| service_id(k, v)).collect()
            };
            let paths: Vec<Vec<ServiceId>> = paths.into_iter().map(ids).collect();
            let mut overloaded = ids(overloaded);
            match stray {
                // On no path, inside the ids the paths use.
                1 => overloaded.push(ServiceId(50)),
                // Beyond every id any path can hold.
                2 => overloaded.insert(0, ServiceId(70_001)),
                _ => {}
            }
            prop_assert_eq!(
                cluster_apis(&paths, &overloaded),
                cluster_apis_by_maps(&paths, &overloaded),
                "paths {:?} overloaded {:?}", paths, overloaded
            );
        }
    }

    #[test]
    fn no_overload_no_clusters() {
        let paths = vec![sid(&[0, 1]), sid(&[1, 2])];
        assert!(cluster_apis(&paths, &[]).is_empty());
    }

    #[test]
    fn uninvolved_apis_are_excluded() {
        let paths = vec![sid(&[0, 1]), sid(&[2, 3])];
        let clusters = cluster_apis(&paths, &sid(&[0]));
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].apis, vec![ApiId(0)]);
        assert_eq!(clusters[0].overloaded, sid(&[0]));
    }

    #[test]
    fn apis_sharing_an_overloaded_service_cluster_together() {
        // Figure 1: API0 → {A, B}, API1 → {A}; A overloaded.
        let paths = vec![sid(&[0, 1]), sid(&[0])];
        let clusters = cluster_apis(&paths, &sid(&[0]));
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].apis, vec![ApiId(0), ApiId(1)]);
    }

    #[test]
    fn transitive_closure_merges_via_middle_api() {
        // The paper's example: API0–API1 share overloaded s0, API1–API2
        // share overloaded s1, so all three form one cluster although
        // API0 and API2 share nothing directly.
        let paths = vec![sid(&[0]), sid(&[0, 1]), sid(&[1])];
        let clusters = cluster_apis(&paths, &sid(&[0, 1]));
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].apis, vec![ApiId(0), ApiId(1), ApiId(2)]);
        assert_eq!(clusters[0].overloaded, sid(&[0, 1]));
    }

    #[test]
    fn independent_overloads_form_separate_clusters() {
        let paths = vec![sid(&[0, 9]), sid(&[1, 9]), sid(&[2])];
        let clusters = cluster_apis(&paths, &sid(&[0, 1, 2]));
        // Service 9 is NOT overloaded, so APIs 0 and 1 stay apart.
        assert_eq!(clusters.len(), 3);
        assert_eq!(clusters[0].apis, vec![ApiId(0)]);
        assert_eq!(clusters[1].apis, vec![ApiId(1)]);
        assert_eq!(clusters[2].apis, vec![ApiId(2)]);
    }

    #[test]
    fn cluster_inter_independence_invariant() {
        // Property: no overloaded service appears in two clusters.
        let paths = vec![
            sid(&[0, 1, 2]),
            sid(&[2, 3]),
            sid(&[4, 5]),
            sid(&[5, 6]),
            sid(&[7]),
        ];
        let overloaded = sid(&[2, 5, 7]);
        let clusters = cluster_apis(&paths, &overloaded);
        let mut seen = std::collections::HashSet::new();
        for c in &clusters {
            for s in &c.overloaded {
                assert!(seen.insert(*s), "{s} appears in two clusters");
            }
        }
        assert_eq!(clusters.len(), 3);
    }

    #[test]
    fn monolithic_cluster_is_every_involved_api_in_one_problem() {
        // Two disjoint overloads (two clusters under Equation 2) plus an
        // uninvolved API.
        let paths = vec![sid(&[0]), sid(&[1]), sid(&[2])];
        let over = sid(&[0, 1]);
        assert_eq!(cluster_apis(&paths, &over).len(), 2);
        assert_eq!(
            monolithic_cluster(&paths, &over),
            vec![Cluster {
                apis: vec![ApiId(0), ApiId(1)],
                overloaded: over,
            }]
        );
        assert!(monolithic_cluster(&paths, &[]).is_empty());
        assert!(monolithic_cluster(&paths, &sid(&[9])).is_empty());
    }

    #[test]
    fn deterministic_ordering() {
        let paths = vec![sid(&[3]), sid(&[2]), sid(&[1])];
        let clusters = cluster_apis(&paths, &sid(&[1, 2, 3]));
        let firsts: Vec<ApiId> = clusters.iter().map(|c| c.apis[0]).collect();
        assert_eq!(firsts, vec![ApiId(0), ApiId(1), ApiId(2)]);
    }

    #[test]
    fn branching_api_unions_through_any_branch() {
        // API0's path union covers both branches {0,1} and {0,2};
        // overload on 2 clusters it with API1 even though branch 1
        // alone wouldn't.
        let paths = vec![sid(&[0, 1, 2]), sid(&[2, 5])];
        let clusters = cluster_apis(&paths, &sid(&[2]));
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].apis, vec![ApiId(0), ApiId(1)]);
    }
}
