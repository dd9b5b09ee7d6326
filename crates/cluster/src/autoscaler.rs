//! Autoscaling: the Kubernetes HPA replica law and a VM-pool cluster
//! autoscaler.
//!
//! The paper's autoscaler baseline is the stock Kubernetes horizontal pod
//! autoscaler (§6), whose core law is
//! `desired = ceil(current · utilization / target)`, evaluated every sync
//! period, with a stabilization window damping scale-*down*. New pods take
//! time to become ready, and when the node pool is out of vCPUs a cluster
//! autoscaler provisions whole VMs after a (large, swept in Fig. 19)
//! startup delay. These delays are the fundamental gap overload control
//! fills: "autoscalers take several seconds to minutes to provision
//! additional resources" (§1).

use crate::types::ServiceId;
use serde::{Deserialize, Serialize};
use simnet::{SimDuration, SimTime};

/// Horizontal pod autoscaler configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HpaConfig {
    /// Target utilization (k8s default is 0.8 of requested CPU).
    pub target_utilization: f64,
    /// How often the control loop runs (k8s default 15 s).
    pub sync_period: SimDuration,
}

/// Scale-down stabilization: use the *maximum* desired count proposed
/// within this window (k8s default 300 s; shorter here so experiments of
/// a few minutes exercise it).
pub(crate) const STABILIZATION: SimDuration = SimDuration::from_secs(60);
/// Per-service replica ceiling.
const MAX_REPLICAS: u32 = 1000;
/// Tolerance band around the target within which no action is taken
/// (the k8s default).
const TOLERANCE: f64 = 0.1;

impl Default for HpaConfig {
    fn default() -> Self {
        HpaConfig {
            target_utilization: 0.7,
            sync_period: SimDuration::from_secs(15),
        }
    }
}

/// Per-service HPA state.
#[derive(Clone, Debug)]
struct HpaServiceState {
    min_replicas: u32,
    /// Recent desired-count proposals for scale-down stabilization.
    proposals: Vec<(SimTime, u32)>,
}

/// The HPA controller across all services.
#[derive(Clone, Debug)]
pub struct Hpa {
    pub config: HpaConfig,
    states: Vec<HpaServiceState>,
    last_sync: SimTime,
    first_sync_done: bool,
}

impl Hpa {
    /// An HPA managing `min_replicas[i]` as the floor for service `i`
    /// (typically the topology's initial replica counts).
    pub fn new(config: HpaConfig, min_replicas: Vec<u32>) -> Self {
        Hpa {
            config,
            states: min_replicas
                .into_iter()
                .map(|m| HpaServiceState {
                    min_replicas: m.max(1),
                    proposals: Vec::new(),
                })
                .collect(),
            last_sync: SimTime::ZERO,
            first_sync_done: false,
        }
    }

    /// True when a sync is due at `now`.
    pub fn sync_due(&self, now: SimTime) -> bool {
        !self.first_sync_done || now.duration_since(self.last_sync) >= self.config.sync_period
    }

    /// Run one sync: given each service's `(utilization, current_replicas)`,
    /// return `(service, desired)` for services whose desired count
    /// changed.
    ///
    /// `current_replicas` should count pods that exist or are being
    /// created (k8s scales on spec, not readiness).
    pub fn sync(&mut self, now: SimTime, per_service: &[(f64, u32)]) -> Vec<(ServiceId, u32)> {
        assert_eq!(per_service.len(), self.states.len());
        self.last_sync = now;
        self.first_sync_done = true;
        let target = self.config.target_utilization;
        let mut out = Vec::new();
        for (i, &(util, current)) in per_service.iter().enumerate() {
            let st = &mut self.states[i];
            let current = current.max(1);
            let ratio = util / target;
            // Tolerance band: no action when close to target.
            let raw = if (ratio - 1.0).abs() <= TOLERANCE {
                current
            } else {
                (f64::from(current) * ratio).ceil() as u32
            };
            let raw = raw.clamp(st.min_replicas, MAX_REPLICAS);
            // Record the proposal, prune old ones, and apply scale-down
            // stabilization: desired = max proposal in the window.
            st.proposals.push((now, raw));
            let horizon = now - STABILIZATION;
            st.proposals.retain(|(t, _)| *t >= horizon);
            let desired = if raw < current {
                st.proposals
                    .iter()
                    .map(|(_, d)| *d)
                    .max()
                    .unwrap_or(raw)
                    .min(MAX_REPLICAS)
            } else {
                raw
            };
            if desired != current {
                out.push((ServiceId(i as u32), desired));
            }
        }
        out
    }
}

/// Cluster-level vCPU pool with VM provisioning.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct VmPoolConfig {
    /// vCPUs per VM (the paper's D48ds_v5 has 48).
    pub vcpus_per_vm: u32,
    /// VMs running at t = 0.
    pub initial_vms: u32,
    /// Upper bound on VMs (paper: "dynamically scale up to 10 VMs").
    pub max_vms: u32,
    /// Time from provisioning request to the VM's vCPUs being usable
    /// (swept 20/40/60 s in Fig. 19).
    pub vm_startup: SimDuration,
}

/// vCPUs one pod occupies.
const VCPUS_PER_POD: f64 = 1.0;

impl Default for VmPoolConfig {
    fn default() -> Self {
        VmPoolConfig {
            vcpus_per_vm: 48,
            initial_vms: 2,
            max_vms: 10,
            vm_startup: SimDuration::from_secs(40),
        }
    }
}

/// Tracks vCPU allocation and in-flight VM provisioning.
#[derive(Clone, Debug)]
pub struct VmPool {
    pub config: VmPoolConfig,
    vms: u32,
    vms_provisioning: u32,
    vcpus_used: f64,
}

impl VmPool {
    pub fn new(config: VmPoolConfig) -> Self {
        VmPool {
            vms: config.initial_vms,
            vms_provisioning: 0,
            vcpus_used: 0.0,
            config,
        }
    }

    /// Total vCPUs across running VMs.
    pub fn capacity(&self) -> f64 {
        f64::from(self.vms * self.config.vcpus_per_vm)
    }

    /// vCPUs currently allocated to pods.
    pub fn used(&self) -> f64 {
        self.vcpus_used
    }

    /// Running VM count.
    pub fn vms(&self) -> u32 {
        self.vms
    }

    /// Try to allocate one pod's vCPUs; false when the pool is exhausted.
    pub fn try_allocate_pod(&mut self) -> bool {
        let need = VCPUS_PER_POD;
        if self.vcpus_used + need <= self.capacity() + 1e-9 {
            self.vcpus_used += need;
            true
        } else {
            false
        }
    }

    /// Release one pod's vCPUs.
    pub fn release_pod(&mut self) {
        self.vcpus_used = (self.vcpus_used - VCPUS_PER_POD).max(0.0);
    }

    /// Request capacity for `pending_pods` more pods: returns how many new
    /// VMs to start provisioning now (the caller schedules their arrival
    /// after `config.vm_startup`).
    pub fn provision_for(&mut self, pending_pods: u32) -> u32 {
        let need_vcpus = self.vcpus_used + f64::from(pending_pods) * VCPUS_PER_POD;
        let have = self.capacity() + f64::from(self.vms_provisioning * self.config.vcpus_per_vm);
        let deficit = need_vcpus - have;
        if deficit <= 0.0 {
            return 0;
        }
        let want = (deficit / f64::from(self.config.vcpus_per_vm)).ceil() as u32;
        let slots = self
            .config
            .max_vms
            .saturating_sub(self.vms + self.vms_provisioning);
        let start = want.min(slots);
        self.vms_provisioning += start;
        start
    }

    /// A provisioned VM came online.
    pub fn vm_ready(&mut self) {
        debug_assert!(self.vms_provisioning > 0, "vm_ready without provisioning");
        self.vms_provisioning = self.vms_provisioning.saturating_sub(1);
        self.vms += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hpa2() -> Hpa {
        Hpa::new(
            HpaConfig {
                target_utilization: 0.5,
                sync_period: SimDuration::from_secs(15),
            },
            vec![2, 2],
        )
    }

    #[test]
    fn hpa_scales_up_proportionally() {
        let mut h = hpa2();
        // Service 0 at 100% util with target 50% → double replicas.
        let ups = h.sync(SimTime::from_secs(15), &[(1.0, 4), (0.5, 2)]);
        assert_eq!(ups, vec![(ServiceId(0), 8)]);
    }

    #[test]
    fn hpa_tolerance_band_holds() {
        let mut h = hpa2();
        // 0.54/0.5 = 1.08 → within 10% tolerance → no change.
        assert!(h
            .sync(SimTime::from_secs(15), &[(0.54, 4), (0.45, 2)])
            .is_empty());
        // 0.56/0.5 = 1.12 → outside it → ceil(4 × 1.12) = 5.
        let ups = h.sync(SimTime::from_secs(30), &[(0.56, 4), (0.5, 2)]);
        assert_eq!(ups, vec![(ServiceId(0), 5)]);
    }

    #[test]
    fn hpa_scale_down_is_stabilized() {
        let mut h = hpa2();
        // High utilization proposes 8.
        let ups = h.sync(SimTime::from_secs(15), &[(1.0, 4), (0.5, 2)]);
        assert_eq!(ups, vec![(ServiceId(0), 8)]);
        // Load drops immediately; proposal is 2 but the 60 s window still
        // holds the 8 → no scale-down yet.
        let ups = h.sync(SimTime::from_secs(30), &[(0.1, 8), (0.5, 2)]);
        assert!(ups.is_empty(), "stabilization holds, got {ups:?}");
        // After the window expires the scale-down goes through.
        let ups = h.sync(SimTime::from_secs(120), &[(0.1, 8), (0.5, 2)]);
        assert!(!ups.is_empty());
        assert!(ups[0].1 < 8);
    }

    #[test]
    fn hpa_respects_min_and_max() {
        let mut h = Hpa::new(HpaConfig::default(), vec![3]);
        // Utilization 0 → raw desire would be min; floor at 3.
        let ups = h.sync(SimTime::from_secs(300), &[(0.0, 3)]);
        assert!(ups.is_empty());
        // Explosive overload → capped at the ceiling.
        let ups = h.sync(SimTime::from_secs(600), &[(1.0, MAX_REPLICAS - 1)]);
        assert_eq!(ups, vec![(ServiceId(0), MAX_REPLICAS)]);
    }

    #[test]
    fn hpa_sync_due_follows_period() {
        let mut h = hpa2();
        assert!(h.sync_due(SimTime::ZERO), "first sync always due");
        h.sync(SimTime::ZERO, &[(0.5, 2), (0.5, 2)]);
        assert!(!h.sync_due(SimTime::from_secs(10)));
        assert!(h.sync_due(SimTime::from_secs(15)));
    }

    #[test]
    fn vm_pool_allocates_until_full() {
        let mut p = VmPool::new(VmPoolConfig {
            vcpus_per_vm: 4,
            initial_vms: 1,
            max_vms: 2,
            vm_startup: SimDuration::from_secs(40),
        });
        for _ in 0..4 {
            assert!(p.try_allocate_pod());
        }
        assert!(!p.try_allocate_pod(), "pool exhausted at 4 vCPUs");
        p.release_pod();
        assert!(p.try_allocate_pod());
    }

    #[test]
    fn vm_pool_provisions_within_limits() {
        let mut p = VmPool::new(VmPoolConfig {
            vcpus_per_vm: 4,
            initial_vms: 1,
            max_vms: 3,
            vm_startup: SimDuration::from_secs(40),
        });
        for _ in 0..4 {
            assert!(p.try_allocate_pod());
        }
        // Need room for 6 more pods → 6 vCPUs deficit → 2 VMs.
        assert_eq!(p.provision_for(6), 2);
        // Asking again while they provision starts nothing new.
        assert_eq!(p.provision_for(6), 0);
        p.vm_ready();
        p.vm_ready();
        assert_eq!(p.vms(), 3);
        assert_eq!(p.capacity(), 12.0);
        // max_vms reached: no more provisioning even with deficit.
        assert_eq!(p.provision_for(100), 0);
    }
}
