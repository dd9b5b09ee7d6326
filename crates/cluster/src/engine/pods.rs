//! The pod and service runtime: queues, crash loops, epochs, scaling.
//!
//! A [`Pod`] is a single-threaded executor with a bounded queue; a
//! [`ServiceRt`] is the per-service collection of pods plus the window
//! accumulators the metrics module drains. This module also owns
//! everything that changes the pod population: crash-loop probes,
//! injected pod kills, the HPA reconciliation, and VM-pool scheduling.

use super::requests::ReqId;
use super::{Engine, Ev};
use crate::failure::{restart_delay, PROBES_TO_CRASH, SATURATION_FRACTION};
use crate::observe::ClusterObservation;
use crate::types::{RequestOutcome, ServiceId};
use simnet::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A call waiting in a pod queue. The cost is embedded so wasted work is
/// still executed even if the owning request has already failed.
#[derive(Clone, Copy, Debug)]
pub(super) struct QueuedCall {
    pub(super) req: ReqId,
    pub(super) node: u32,
    pub(super) cost: SimDuration,
    pub(super) enqueued: SimTime,
}

/// A call being processed by a pod.
#[derive(Clone, Copy, Debug)]
pub(super) struct InFlight {
    pub(super) req: ReqId,
    pub(super) node: u32,
    pub(super) started: SimTime,
    pub(super) done_at: SimTime,
}

#[derive(Clone, Debug, PartialEq)]
pub(super) enum PodPhase {
    Ready,
    /// Crashed or injected-killed; restarting at the given time.
    Down,
    /// Tombstone after scale-down.
    Removed,
}

#[derive(Debug)]
pub(super) struct Pod {
    pub(super) phase: PodPhase,
    /// Bumped on crash so stale `PodDone` events are ignored.
    pub(super) epoch: u64,
    pub(super) queue: VecDeque<QueuedCall>,
    pub(super) busy: Option<InFlight>,
    pub(super) saturated_probes: u32,
    /// Consecutive crash-loop count, for exponential restart backoff
    /// (k8s CrashLoopBackOff: 10 s, 20 s, 40 s, … capped).
    pub(super) crash_count: u32,
}

impl Pod {
    pub(super) fn fresh() -> Self {
        Pod {
            phase: PodPhase::Ready,
            epoch: 0,
            queue: VecDeque::new(),
            busy: None,
            saturated_probes: 0,
            crash_count: 0,
        }
    }

    pub(super) fn is_ready(&self) -> bool {
        self.phase == PodPhase::Ready
    }

    pub(super) fn load(&self) -> usize {
        self.queue.len() + usize::from(self.busy.is_some())
    }

    /// Recommission a tombstoned or crashed slot as a fresh ready pod.
    pub(super) fn recommission(&mut self) {
        self.phase = PodPhase::Ready;
        self.epoch += 1;
        self.saturated_probes = 0;
        self.queue.clear();
        self.busy = None;
    }
}

/// Shortest-queue dispatch: the first ready pod with the least load. An
/// idle pod cannot be beaten, so the search ends there.
pub(super) fn shortest_queue(pods: &[Pod]) -> Option<usize> {
    let mut pick: Option<(usize, usize)> = None;
    for (i, p) in pods.iter().enumerate().filter(|(_, p)| p.is_ready()) {
        let load = p.load();
        if pick.is_none_or(|(least, _)| load < least) {
            pick = Some((load, i));
            if load == 0 {
                break;
            }
        }
    }
    pick.map(|(_, i)| i)
}

/// Per-service runtime state.
pub(super) struct ServiceRt {
    pub(super) pods: Vec<Pod>,
    /// Replicas the autoscaler wants.
    pub(super) desired: u32,
    /// Pods allocated vCPUs and starting up (PodReady scheduled).
    pub(super) starting: u32,
    /// Pods waiting for vCPUs.
    pub(super) pending_unscheduled: u32,
    // --- per-window accumulators ---
    pub(super) busy_ns: u64,
    pub(super) queuing_delay_ns: u64,
    pub(super) started_calls: u64,
    pub(super) dropped_calls: u64,
    /// Integral of ready-pod count over the window (pod·ns).
    pub(super) alive_integral_ns: u64,
    pub(super) alive_last_change: SimTime,
}

impl ServiceRt {
    pub(super) fn fresh(replicas: u32) -> Self {
        ServiceRt {
            pods: (0..replicas).map(|_| Pod::fresh()).collect(),
            desired: replicas,
            starting: 0,
            pending_unscheduled: 0,
            busy_ns: 0,
            queuing_delay_ns: 0,
            started_calls: 0,
            dropped_calls: 0,
            alive_integral_ns: 0,
            alive_last_change: SimTime::ZERO,
        }
    }

    pub(super) fn ready_pods(&self) -> u32 {
        self.pods.iter().filter(|p| p.is_ready()).count() as u32
    }

    /// Pods that exist or are being created (the HPA's "current").
    pub(super) fn spec_pods(&self) -> u32 {
        self.pods
            .iter()
            .filter(|p| p.phase != PodPhase::Removed)
            .count() as u32
            + self.starting
            + self.pending_unscheduled
    }

    pub(super) fn accumulate_alive(&mut self, now: SimTime) {
        let ready = u64::from(self.ready_pods());
        let dt = now.duration_since(self.alive_last_change).as_nanos();
        self.alive_integral_ns += ready * dt;
        self.alive_last_change = now;
    }
}

impl Engine {
    /// Immediately bring a service to `total` *ready* pods (experiment
    /// hook emulating an allocation that already completed, e.g. Fig. 16
    /// pre-provisioning or a specialization-training scale-up). Growth
    /// stops early if the VM pool is exhausted; shrinking is not done
    /// here (use the autoscaler for graceful scale-down).
    pub fn grow_service(&mut self, sid: ServiceId, total: u32) {
        let now = self.now();
        self.services[sid.idx()].desired = self.services[sid.idx()].desired.max(total);
        while self.services[sid.idx()].ready_pods() < total {
            if !self.vm_pool.try_allocate_pod() {
                break;
            }
            let svc = &mut self.services[sid.idx()];
            svc.accumulate_alive(now);
            if let Some(p) = svc.pods.iter_mut().find(|p| p.phase == PodPhase::Removed) {
                p.recommission();
            } else {
                svc.pods.push(Pod::fresh());
            }
        }
    }

    pub(super) fn run_probes(&mut self, now: SimTime) {
        for i in 0..self.services.len() {
            let sid = ServiceId(i as u32);
            if !self.topo.service(sid).crash_on_overload {
                continue;
            }
            let cap = self.topo.service(sid).queue_capacity as f64;
            let threshold = (cap * SATURATION_FRACTION) as usize;
            for pi in 0..self.services[i].pods.len() {
                let pod = &mut self.services[i].pods[pi];
                if !pod.is_ready() {
                    continue;
                }
                if pod.queue.len() >= threshold.max(1) {
                    pod.saturated_probes += 1;
                } else {
                    if pod.saturated_probes == 0 && pod.crash_count > 0 {
                        // A healthy probe streak decays the backoff.
                        pod.crash_count -= 1;
                    }
                    pod.saturated_probes = 0;
                }
                if pod.saturated_probes >= PROBES_TO_CRASH {
                    // This crash is number `crash_count + 1`.
                    let backoff = restart_delay(pod.crash_count.saturating_add(1));
                    self.crash_pod(now, sid, pi, backoff);
                }
            }
        }
    }

    /// Crash a pod: lose its backlog and in-flight call, restart later.
    pub(super) fn crash_pod(
        &mut self,
        now: SimTime,
        sid: ServiceId,
        pod: usize,
        restart: SimDuration,
    ) {
        self.crash_events += 1;
        let win_start = self.metrics.window_start;
        let svc = &mut self.services[sid.idx()];
        svc.accumulate_alive(now);
        let p = &mut svc.pods[pod];
        // Credit busy time up to the crash.
        if let Some(fl) = p.busy.take() {
            svc.busy_ns += now.duration_since(fl.started.max(win_start)).as_nanos();
            let req = fl.req;
            svc.dropped_calls += 1;
            self.fail_request(now, req, RequestOutcome::PodCrashed(sid));
        }
        let svc = &mut self.services[sid.idx()];
        let p = &mut svc.pods[pod];
        let dropped: Vec<ReqId> = p.queue.drain(..).map(|c| c.req).collect();
        svc.dropped_calls += dropped.len() as u64;
        p.phase = PodPhase::Down;
        p.epoch += 1;
        p.saturated_probes = 0;
        p.crash_count = p.crash_count.saturating_add(1);
        let epoch = p.epoch;
        for req in dropped {
            self.fail_request(now, req, RequestOutcome::PodCrashed(sid));
        }
        self.queue.schedule(
            now + restart,
            Ev::PodRestart {
                svc: sid,
                pod: pod as u32,
                epoch,
            },
        );
    }

    pub(super) fn on_pod_restart(&mut self, now: SimTime, sid: ServiceId, pod: u32, epoch: u64) {
        let svc = &mut self.services[sid.idx()];
        if svc.pods[pod as usize].epoch != epoch || svc.pods[pod as usize].phase != PodPhase::Down {
            return;
        }
        svc.accumulate_alive(now);
        let p = &mut svc.pods[pod as usize];
        p.phase = PodPhase::Ready;
        p.saturated_probes = 0;
    }

    pub(super) fn run_hpa(&mut self, now: SimTime, obs: &ClusterObservation) {
        let Some(hpa) = self.hpa.as_mut() else {
            return;
        };
        if !hpa.sync_due(now) {
            return;
        }
        let per_service: Vec<(f64, u32)> = self
            .services
            .iter()
            .zip(obs.services.iter())
            .map(|(rt, w)| (w.utilization, rt.spec_pods()))
            .collect();
        let changes = hpa.sync(now, &per_service);
        for (sid, desired) in changes {
            self.scale_service(now, sid, desired);
        }
    }

    /// Reconcile a service to `desired` replicas.
    pub(super) fn scale_service(&mut self, now: SimTime, sid: ServiceId, desired: u32) {
        let current = self.services[sid.idx()].spec_pods();
        self.services[sid.idx()].desired = desired;
        if desired > current {
            let add = desired - current;
            for _ in 0..add {
                self.create_pod(now, sid);
            }
        } else if desired < current {
            let mut remove = current - desired;
            let svc = &mut self.services[sid.idx()];
            // Drop unscheduled pending first (they cost nothing).
            let from_pending = remove.min(svc.pending_unscheduled);
            svc.pending_unscheduled -= from_pending;
            remove -= from_pending;
            // Then remove idle ready pods; busy pods are left until a
            // later sync finds them idle (a simple graceful drain).
            if remove > 0 {
                svc.accumulate_alive(now);
                let mut removed = 0;
                for p in svc.pods.iter_mut() {
                    if removed == remove {
                        break;
                    }
                    if p.is_ready() && p.busy.is_none() && p.queue.is_empty() {
                        p.phase = PodPhase::Removed;
                        p.epoch += 1;
                        removed += 1;
                    }
                }
                for _ in 0..removed {
                    self.vm_pool.release_pod();
                }
            }
        }
    }

    /// Begin creating one pod: allocate vCPUs now if possible, else queue
    /// it as unscheduled and ask the VM pool to provision.
    pub(super) fn create_pod(&mut self, now: SimTime, sid: ServiceId) {
        if self.vm_pool.try_allocate_pod() {
            self.services[sid.idx()].starting += 1;
            self.queue
                .schedule(now + self.cfg.pod_startup, Ev::PodReady { svc: sid });
        } else {
            self.services[sid.idx()].pending_unscheduled += 1;
            let pending: u32 = self.services.iter().map(|s| s.pending_unscheduled).sum();
            let vms = self.vm_pool.provision_for(pending);
            let startup = self.vm_pool.config.vm_startup;
            for _ in 0..vms {
                self.queue.schedule(now + startup, Ev::VmReady);
            }
        }
    }

    pub(super) fn on_pod_ready(&mut self, now: SimTime, sid: ServiceId) {
        let svc = &mut self.services[sid.idx()];
        if svc.starting == 0 {
            return;
        }
        svc.starting -= 1;
        svc.accumulate_alive(now);
        // Reuse a Removed slot if present, else grow.
        if let Some(p) = svc.pods.iter_mut().find(|p| p.phase == PodPhase::Removed) {
            p.recommission();
        } else {
            svc.pods.push(Pod::fresh());
        }
    }

    pub(super) fn on_vm_ready(&mut self, now: SimTime) {
        self.vm_pool.vm_ready();
        // Schedule unscheduled pods FIFO across services (by id).
        for i in 0..self.services.len() {
            while self.services[i].pending_unscheduled > 0 && self.vm_pool.try_allocate_pod() {
                self.services[i].pending_unscheduled -= 1;
                self.services[i].starting += 1;
                let sid = ServiceId(i as u32);
                self.queue
                    .schedule(now + self.cfg.pod_startup, Ev::PodReady { svc: sid });
            }
        }
    }

    pub(super) fn on_inject_failure(&mut self, now: SimTime, idx: usize) {
        let (sid, pods) = self.kills[idx];
        // Kill up to `pods` ready pods (k8s will recreate them to
        // maintain the desired count, after pod startup).
        let mut killed = 0;
        for pi in 0..self.services[sid.idx()].pods.len() {
            if killed == pods {
                break;
            }
            if self.services[sid.idx()].pods[pi].is_ready() {
                // Reuse the crash path for teardown, then convert the pod
                // into a permanent tombstone replaced via create_pod.
                self.crash_pod(now, sid, pi, SimDuration::from_secs(3600));
                let svc = &mut self.services[sid.idx()];
                svc.pods[pi].phase = PodPhase::Removed;
                svc.pods[pi].epoch += 1;
                self.vm_pool.release_pod();
                killed += 1;
            }
        }
        for _ in 0..killed {
            self.create_pod(now, sid);
        }
    }
}
