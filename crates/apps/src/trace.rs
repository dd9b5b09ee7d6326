//! Synthetic 23k-microservice trace for the §2 / §6.4 analyses.
//!
//! The paper analyzes the Alibaba cluster trace (23,481 microservices) to
//! establish that (a) starvation-vulnerable overload is common — "44.4% of
//! APIs among those involved in overloaded microservices were potentially
//! vulnerable to starvation" (§2) — and (b) clustering fragments the
//! overload-control problem well — "the initial problem with 68
//! overloaded microservices is divided into 57 independent clusters with
//! each sub-problem containing 1.19 constraints on average"; "59% of
//! [overloaded microservices] do not share any overlapping APIs …
//! forming an average of 2.38 microservices that share any common APIs"
//! (§6.4).
//!
//! The original trace is proprietary; [`SyntheticTrace::generate`] emits a
//! trace with the same published structure: 23,481 services, an
//! overloaded set of 68 built from isolated services plus small sharing
//! groups, and API paths arranged so the analysis functions reproduce the
//! paper's statistics. Background services/APIs fill out the population.

use cluster::ServiceId;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use simnet::rng::fork;

/// Total services, matching the Alibaba trace analysis.
pub const NUM_SERVICES: usize = 23_481;
/// Overloaded services at the analyzed instant.
pub const NUM_OVERLOADED: usize = 68;
/// CPU-utilization threshold classifying "overloaded".
pub const OVERLOAD_THRESHOLD: f64 = 0.8;

/// A point-in-time trace snapshot: utilizations plus API execution paths.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SyntheticTrace {
    /// Per-service CPU utilization in `[0, 1]`.
    pub utilization: Vec<f64>,
    /// Per-API set of services on its execution path (service indices).
    pub api_paths: Vec<Vec<u32>>,
}

/// §2-style starvation-vulnerability statistics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StarvationStats {
    /// APIs whose path includes ≥1 overloaded service.
    pub involved_apis: usize,
    /// Of those, APIs on ≥2 overloaded services that also have ≥2
    /// contending APIs at some overloaded service — the Figure 1 shape.
    pub vulnerable_apis: usize,
}

impl StarvationStats {
    /// Vulnerable fraction (paper: 44.4%).
    pub fn vulnerable_fraction(&self) -> f64 {
        if self.involved_apis == 0 {
            0.0
        } else {
            self.vulnerable_apis as f64 / self.involved_apis as f64
        }
    }
}

/// §6.4-style sharing statistics over overloaded services.
#[derive(Clone, Debug, PartialEq)]
pub struct SharingStats {
    pub overloaded: usize,
    /// Overloaded services sharing no API with any other overloaded one.
    pub isolated: usize,
    /// Sizes of the connected sharing groups (of size ≥ 2).
    pub group_sizes: Vec<usize>,
}

impl SharingStats {
    /// Fraction of overloaded services that are isolated (paper: 59%).
    pub fn isolated_fraction(&self) -> f64 {
        if self.overloaded == 0 {
            0.0
        } else {
            self.isolated as f64 / self.overloaded as f64
        }
    }

    /// Mean sharing-group size (paper: 2.38).
    pub fn mean_group_size(&self) -> f64 {
        if self.group_sizes.is_empty() {
            0.0
        } else {
            self.group_sizes.iter().sum::<usize>() as f64 / self.group_sizes.len() as f64
        }
    }

    /// Number of independent clusters the overload problem splits into
    /// (isolated services + sharing groups; paper: 57).
    pub fn num_clusters(&self) -> usize {
        self.isolated + self.group_sizes.len()
    }

    /// Mean constraints (overloaded services) per cluster (paper: 1.19).
    pub fn mean_constraints_per_cluster(&self) -> f64 {
        if self.num_clusters() == 0 {
            0.0
        } else {
            self.overloaded as f64 / self.num_clusters() as f64
        }
    }
}

impl SyntheticTrace {
    /// Generate the snapshot. Deterministic per seed.
    pub fn generate(seed: u64) -> Self {
        let mut rng = fork(seed, "alibaba-trace");
        // Background utilization: busy cluster, but below threshold.
        let mut utilization: Vec<f64> = (0..NUM_SERVICES)
            .map(|_| rng.gen_range(0.05..0.75))
            .collect();

        // Choose the 68 overloaded services: 49 isolated + 8 groups
        // ([3,3,3,2,2,2,2,2] = 19) → 57 clusters, 68/57 = 1.19
        // constraints per cluster, mean group size 19/8 = 2.375.
        let mut ids: Vec<u32> = (0..NUM_SERVICES as u32).collect();
        ids.shuffle(&mut rng);
        let group_sizes = [3usize, 3, 3, 2, 2, 2, 2, 2];
        let num_grouped: usize = group_sizes.iter().sum();
        let isolated: Vec<u32> = ids[..49].to_vec();
        let grouped: Vec<u32> = ids[49..49 + num_grouped].to_vec();
        for &s in isolated.iter().chain(grouped.iter()) {
            utilization[s as usize] = rng.gen_range(0.82..0.99);
        }

        let mut api_paths: Vec<Vec<u32>> = Vec::new();
        let mut background_pool: Vec<u32> = ids[49 + num_grouped..].to_vec();
        let bg = |rng: &mut rand::rngs::SmallRng, pool: &mut Vec<u32>, n: usize| -> Vec<u32> {
            (0..n)
                .map(|_| {
                    let i = rng.gen_range(0..pool.len());
                    pool[i]
                })
                .collect()
        };

        // Isolated overloaded services: 2 contending APIs each, every API
        // passing exactly one overloaded service → involved but NOT
        // vulnerable.
        for &s in &isolated {
            for _ in 0..2 {
                let mut path = vec![s];
                path.extend(bg(&mut rng, &mut background_pool, 3));
                api_paths.push(path);
            }
        }

        // Sharing groups: APIs spanning ≥2 members of the group → those
        // members share APIs (transitively one cluster) and the spanning
        // APIs are starvation-vulnerable. ~10 spanning APIs per group
        // calibrates the §2 ratio: 78 vulnerable / (98 + 78) ≈ 44.4%.
        let mut cursor = 0;
        for (gi, &size) in group_sizes.iter().enumerate() {
            let members = &grouped[cursor..cursor + size];
            cursor += size;
            let spanning = if gi < 6 { 10 } else { 9 }; // 6×10 + 2×9 = 78
            for k in 0..spanning {
                let a = members[k % size];
                let b = members[(k + 1) % size];
                let mut path = vec![a];
                if b != a {
                    path.push(b);
                }
                path.extend(bg(&mut rng, &mut background_pool, 2));
                api_paths.push(path);
            }
        }

        // Background APIs over non-overloaded services only.
        for _ in 0..1800 {
            let len = rng.gen_range(3..=10);
            api_paths.push(bg(&mut rng, &mut background_pool, len));
        }

        SyntheticTrace {
            utilization,
            api_paths,
        }
    }

    /// Services above the overload threshold.
    pub fn overloaded(&self, threshold: f64) -> Vec<u32> {
        self.utilization
            .iter()
            .enumerate()
            .filter(|(_, u)| **u > threshold)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// The API paths and the services above `threshold`, as the ids
    /// `topfull::cluster_apis` takes.
    pub fn clustering_input(&self, threshold: f64) -> (Vec<Vec<ServiceId>>, Vec<ServiceId>) {
        let ids = |path: &[u32]| path.iter().map(|s| ServiceId(*s)).collect();
        let paths = self.api_paths.iter().map(|p| ids(p)).collect();
        (paths, ids(&self.overloaded(threshold)))
    }

    /// §2 starvation-vulnerability analysis.
    pub fn starvation_analysis(&self, threshold: f64) -> StarvationStats {
        let over: std::collections::HashSet<u32> = self.overloaded(threshold).into_iter().collect();
        // Contending APIs per overloaded service.
        let mut contenders: std::collections::HashMap<u32, usize> =
            std::collections::HashMap::new();
        for path in &self.api_paths {
            for s in path {
                if over.contains(s) {
                    *contenders.entry(*s).or_insert(0) += 1;
                }
            }
        }
        let mut involved = 0;
        let mut vulnerable = 0;
        for path in &self.api_paths {
            let on_over: Vec<u32> = path.iter().copied().filter(|s| over.contains(s)).collect();
            if on_over.is_empty() {
                continue;
            }
            involved += 1;
            let multi_overloaded = on_over.len() >= 2;
            let contended = on_over.iter().any(|s| contenders[s] >= 2);
            if multi_overloaded && contended {
                vulnerable += 1;
            }
        }
        StarvationStats {
            involved_apis: involved,
            vulnerable_apis: vulnerable,
        }
    }

    /// §6.4 sharing analysis: union overloaded services that co-occur in
    /// some API's path, then report isolation and group sizes.
    pub fn sharing_analysis(&self, threshold: f64) -> SharingStats {
        let over = self.overloaded(threshold);
        let index: std::collections::HashMap<u32, usize> =
            over.iter().enumerate().map(|(i, s)| (*s, i)).collect();
        // Union-find over overloaded services.
        let mut parent: Vec<usize> = (0..over.len()).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let r = find(parent, parent[x]);
                parent[x] = r;
            }
            parent[x]
        }
        for path in &self.api_paths {
            let on_over: Vec<usize> = path.iter().filter_map(|s| index.get(s).copied()).collect();
            for w in on_over.windows(2) {
                let (a, b) = (find(&mut parent, w[0]), find(&mut parent, w[1]));
                if a != b {
                    parent[a] = b;
                }
            }
        }
        let mut sizes: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        for i in 0..over.len() {
            let r = find(&mut parent, i);
            *sizes.entry(r).or_insert(0) += 1;
        }
        let isolated = sizes.values().filter(|s| **s == 1).count();
        let mut group_sizes: Vec<usize> = sizes.values().copied().filter(|s| *s >= 2).collect();
        group_sizes.sort_unstable();
        SharingStats {
            overloaded: over.len(),
            isolated,
            group_sizes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overloaded_count_matches_paper() {
        let tr = SyntheticTrace::generate(1);
        assert_eq!(tr.utilization.len(), NUM_SERVICES);
        assert_eq!(tr.overloaded(OVERLOAD_THRESHOLD).len(), NUM_OVERLOADED);
    }

    #[test]
    fn clustering_stats_match_paper() {
        let tr = SyntheticTrace::generate(1);
        let s = tr.sharing_analysis(OVERLOAD_THRESHOLD);
        assert_eq!(s.num_clusters(), 57, "57 independent clusters");
        assert!(
            (s.mean_constraints_per_cluster() - 1.19).abs() < 0.01,
            "1.19 constraints per cluster, got {}",
            s.mean_constraints_per_cluster()
        );
        assert!(
            (s.mean_group_size() - 2.38).abs() < 0.05,
            "mean sharing group ≈2.38, got {}",
            s.mean_group_size()
        );
        assert!(s.isolated_fraction() > 0.5, "majority isolated");
    }

    #[test]
    fn starvation_fraction_matches_paper() {
        let tr = SyntheticTrace::generate(1);
        let s = tr.starvation_analysis(OVERLOAD_THRESHOLD);
        let f = s.vulnerable_fraction();
        assert!(
            (0.40..=0.49).contains(&f),
            "≈44.4% vulnerable, got {f} ({}/{})",
            s.vulnerable_apis,
            s.involved_apis
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SyntheticTrace::generate(5);
        let b = SyntheticTrace::generate(5);
        assert_eq!(a.overloaded(0.8), b.overloaded(0.8));
        let c = SyntheticTrace::generate(6);
        assert_ne!(a.overloaded(0.8), c.overloaded(0.8));
    }

    #[test]
    fn empty_threshold_edge_cases() {
        let tr = SyntheticTrace::generate(2);
        // Threshold 1.0: nothing overloaded.
        let s = tr.sharing_analysis(1.0);
        assert_eq!(s.overloaded, 0);
        assert_eq!(s.num_clusters(), 0);
        assert_eq!(s.mean_constraints_per_cluster(), 0.0);
        let st = tr.starvation_analysis(1.0);
        assert_eq!(st.involved_apis, 0);
        assert_eq!(st.vulnerable_fraction(), 0.0);
    }
}
