//! The request lifecycle: arrival, dispatch, subtree fan-out,
//! completion, and teardown.
//!
//! Every point where a cross-cutting concern can veto a call goes
//! through the planes: [`Planes::dispatch`](super::planes::Planes::dispatch)
//! on the caller side before dispatch, and
//! [`Planes::accept`](super::planes::Planes::accept) on the service side
//! on arrival and on the pod side before CPU is spent. The handlers here
//! apply the returned [`Verdict`] mechanically — which counters move and
//! which requests fail is decided by the planes.

use super::planes::{CallCtx, Verdict};
use super::pods::{shortest_queue, InFlight, QueuedCall};
use super::requests::{Parked, ReqId, RequestRt};
use super::{Engine, Ev, ARRIVAL_LANE, HOP_LANE, HOP_LATENCY, TIMEOUT_LANE};
use crate::front::PreVerdict;
use crate::tracing::{Span, SpanVerdict};
use crate::types::{RequestMeta, RequestOutcome, ServiceId};
use crate::workload::{Arrival, ResponseKind, UserRef};
use rand::rngs::SmallRng;
use rand::Rng;
use rand_distr::Distribution;
use simnet::{SimDuration, SimTime};

impl Engine {
    fn schedule_arrival(&mut self, now: SimTime, a: Arrival) {
        let at = a.at.max(now);
        let ev = Ev::Arrival {
            api: a.api,
            user: a.user,
        };
        let Some(user) = a.user else {
            return self.queue.schedule(at, ev);
        };
        // A closed loop's next request is paced about one think time out,
        // so its arrival and timeout are born nearly sorted.
        self.queue.schedule_fifo(ARRIVAL_LANE, at, ev);
        if let Some(t) = self.workload.client_timeout() {
            let timeout = Ev::ClientTimeout { user };
            self.queue.schedule_fifo(TIMEOUT_LANE, at + t, timeout);
        }
    }

    pub(super) fn on_workload_tick(&mut self, now: SimTime) {
        let mut arrivals = std::mem::take(&mut self.tick_arrivals);
        self.workload.on_tick(now, &mut self.rng, &mut arrivals);
        for a in arrivals.drain(..) {
            self.schedule_arrival(now, a);
        }
        self.tick_arrivals = arrivals;
        let next = now + self.workload.tick_interval();
        self.queue.schedule(next, Ev::WorkloadTick);
    }

    pub(super) fn on_arrival(&mut self, now: SimTime, a: Arrival) {
        let acc = &mut self.metrics.api_accums[a.api.idx()];
        acc.offered += 1;
        self.metrics.api_totals[a.api.idx()].offered += 1;
        // Front-door stages (coalescing, priority) run before the token
        // bucket; requests they absorb never reach it. Keys and user
        // priorities come from the plane's own RNG fork, so the base
        // streams (and therefore runs without the plane) are unchanged.
        let mut front_user = None;
        let mut lead_key = None;
        if let Some(front) = self.front.as_mut() {
            let business = self.topo.api(a.api).business.0;
            let user: u8 = front.rng.gen_range(0..=127);
            let space = front.key_space[a.api.idx()];
            let key = (space > 0).then(|| front.rng.gen_range(0..space));
            match front.door.pre_admit(a.api, key, business, user, now) {
                PreVerdict::CacheHit(_) => {
                    // Answered at the gateway without touching the
                    // cluster: admitted + good at ~zero latency.
                    let acc = &mut self.metrics.api_accums[a.api.idx()];
                    acc.admitted += 1;
                    acc.good += 1;
                    acc.latencies.record(SimDuration::ZERO);
                    let tot = &mut self.metrics.api_totals[a.api.idx()];
                    tot.admitted += 1;
                    tot.good += 1;
                    self.notify_response(now, a.user, ResponseKind::Success);
                    return;
                }
                PreVerdict::Follower { leader } => {
                    self.metrics.api_accums[a.api.idx()].admitted += 1;
                    self.metrics.api_totals[a.api.idx()].admitted += 1;
                    // A flight is settled the moment its leader leaves
                    // the table, so an open flight's leader is live.
                    if let Some(r) = self.requests.get_mut(ReqId::from_bits(leader)) {
                        r.parked.push(Parked {
                            user: a.user,
                            arrival: now,
                        });
                    }
                    return;
                }
                PreVerdict::Shed { .. } => {
                    self.metrics.api_totals[a.api.idx()].rejected_shed += 1;
                    self.notify_response(now, a.user, ResponseKind::Failed);
                    return;
                }
                PreVerdict::Proceed { lead } => {
                    front_user = Some(user);
                    if lead {
                        lead_key = key;
                    }
                }
            }
        }
        if !self.entry.try_admit(a.api, now) {
            self.metrics.api_totals[a.api.idx()].rejected_entry += 1;
            // Tracing backends see rejections too: a zero-duration span
            // at the API's entry service carrying the admission verdict,
            // so live and simulated traces stay comparable. (The id 0 is
            // a placeholder — rejected requests are never materialized.)
            if let Some(tracer) = self.tracer.as_mut() {
                let entry = self.topo.api(a.api).paths[0].1.service;
                tracer.record(Span {
                    request: 0,
                    api: a.api,
                    service: entry,
                    parent: None,
                    start: now,
                    end: now,
                    verdict: SpanVerdict::RejectedAtEntry,
                });
            }
            self.notify_response(now, a.user, ResponseKind::Failed);
            return;
        }
        self.metrics.api_accums[a.api.idx()].admitted += 1;
        self.metrics.api_totals[a.api.idx()].admitted += 1;

        // Materialize the request: sample an execution path; the request
        // shares that path's template and owns only its join counters.
        let spec = self.topo.api(a.api);
        let path_idx = sample_weighted(&spec.paths, &mut self.rng);
        let tmpl = self.api_templates[a.api.idx()] + path_idx as u32;
        let meta = RequestMeta {
            api: a.api,
            business: spec.business,
            user: match front_user {
                Some(u) => u,
                None => self.rng.gen_range(0..=127),
            },
            arrival: now,
            deadline: self.planes.resilience.deadline_budget.map(|b| now + b),
        };
        let serial = self.next_serial;
        self.next_serial += 1;
        let pending = self
            .requests
            .pending_buffer(self.templates[tmpl as usize].len());
        let id = self.requests.insert(RequestRt {
            meta,
            user: a.user,
            serial,
            tmpl,
            pending,
            flight_key: lead_key,
            parked: Vec::new(),
        });
        if self.planes.resilience.cancel_doomed {
            if let Some(u) = a.user {
                let i = u.id as usize;
                if self.user_reqs.len() <= i {
                    self.user_reqs.resize_with(i + 1, Vec::new);
                }
                self.user_reqs[i].push((u.gen, id));
            }
        }
        if let Some(key) = lead_key {
            let front = self.front.as_mut().expect("lead implies front door");
            front.door.begin_flight(a.api, key, id.to_bits());
        }
        self.dispatch_call(now, id, 0);
    }

    /// Forget (and return) the live root request of `user`'s generation.
    fn untrack_user_request(&mut self, user: UserRef) -> Option<ReqId> {
        let live = self.user_reqs.get_mut(user.id as usize)?;
        let i = live.iter().position(|(gen, _)| *gen == user.gen)?;
        Some(live.swap_remove(i).1)
    }

    /// Apply a [`Verdict::Fail`]: charge the dropped call and the edge
    /// breaker as the verdict directs, then fail the owning request.
    fn apply_fail(
        &mut self,
        now: SimTime,
        req: ReqId,
        ctx: &CallCtx,
        outcome: RequestOutcome,
        drop_at_callee: bool,
        edge_failure: bool,
    ) {
        if drop_at_callee {
            self.services[ctx.callee.idx()].dropped_calls += 1;
        }
        if edge_failure {
            self.planes
                .resilience
                .on_edge_failure(now, ctx.caller, ctx.callee);
        }
        self.fail_request(now, req, outcome);
    }

    /// Dispatch the call for `node` of request `req`: consult the planes
    /// on the caller side (deadline, circuit breaker, the downstream's
    /// advertised admission threshold, network faults) and, if admitted,
    /// deliver after one hop of latency.
    pub(super) fn dispatch_call(&mut self, now: SimTime, req: ReqId, node: u32) {
        let Some(r) = self.requests.get(req) else {
            return;
        };
        let tmpl = &self.templates[r.tmpl as usize];
        let (svc, cost) = (tmpl.node(node).service, tmpl.node(node).cost);
        let ctx = CallCtx {
            meta: Some(r.meta),
            caller: tmpl.caller(node),
            callee: svc,
        };
        match self.planes.dispatch(&ctx, now) {
            Verdict::Proceed { extra } => {
                // Born sorted while `extra` is zero. A fault-plane delay
                // moves the lane's tail ahead; the hops scheduled behind
                // it are inserted while within reach, then declined.
                self.queue.schedule_fifo(
                    HOP_LANE,
                    now + HOP_LATENCY + extra,
                    Ev::CallArrive {
                        req,
                        node,
                        svc,
                        cost,
                    },
                );
            }
            Verdict::Cancel => {}
            Verdict::Fail {
                outcome,
                drop_at_callee,
                edge_failure,
            } => self.apply_fail(now, req, &ctx, outcome, drop_at_callee, edge_failure),
        }
    }

    fn record_edge_success(&mut self, now: SimTime, req: ReqId, node: u32, callee: ServiceId) {
        if self.planes.resilience.breakers.is_none() {
            return;
        }
        // The caller is the node's parent; unknowable once the request is
        // gone (wasted work), in which case nothing is recorded.
        let Some(r) = self.requests.get(req) else {
            return;
        };
        let caller = self.templates[r.tmpl as usize].caller(node);
        self.planes.resilience.on_edge_success(now, caller, callee);
    }

    pub(super) fn on_call_arrive(
        &mut self,
        now: SimTime,
        req: ReqId,
        node: u32,
        svc_id: ServiceId,
        cost: SimDuration,
    ) {
        // The request may have failed elsewhere already; by default the
        // call still arrives and consumes capacity (wasted work), but the
        // planes may recognize the dead request and drop the call at the
        // door, or reject it for an expired deadline.
        let r = self.requests.get(req);
        let request_alive = r.is_some();
        let ctx = CallCtx {
            meta: r.map(|r| r.meta),
            caller: r.and_then(|r| self.templates[r.tmpl as usize].caller(node)),
            callee: svc_id,
        };
        match self.planes.accept(&ctx, now) {
            Verdict::Proceed { .. } => {}
            Verdict::Cancel => return,
            Verdict::Fail {
                outcome,
                drop_at_callee,
                edge_failure,
            } => {
                self.apply_fail(now, req, &ctx, outcome, drop_at_callee, edge_failure);
                return;
            }
        }
        let spec_q = self.topo.service(svc_id).queue_capacity as usize;
        let svc = &mut self.services[svc_id.idx()];
        let Some(pi) = shortest_queue(&svc.pods) else {
            // No pod alive: the request fails here.
            svc.dropped_calls += 1;
            if request_alive {
                self.planes
                    .resilience
                    .on_edge_failure(now, ctx.caller, svc_id);
                self.fail_request(now, req, RequestOutcome::PodCrashed(svc_id));
            }
            return;
        };
        if svc.pods[pi].queue.len() >= spec_q {
            svc.dropped_calls += 1;
            if request_alive {
                self.planes
                    .resilience
                    .on_edge_failure(now, ctx.caller, svc_id);
                self.fail_request(now, req, RequestOutcome::QueueOverflow(svc_id));
            }
            return;
        }
        svc.pods[pi].queue.push_back(QueuedCall {
            req,
            node,
            cost,
            enqueued: now,
        });
        if svc.pods[pi].busy.is_none() {
            self.start_processing(now, svc_id, pi);
        }
    }

    /// The service checks each queued call with the planes before
    /// spending CPU on it: work for an already-cancelled request is
    /// skipped (doomed-work cancellation), and a call whose deadline
    /// expired while queued fails without executing.
    pub(super) fn start_processing(&mut self, now: SimTime, svc_id: ServiceId, pod: usize) {
        let call = loop {
            let Some(call) = self.services[svc_id.idx()].pods[pod].queue.pop_front() else {
                return;
            };
            let ctx = CallCtx {
                meta: self.requests.get(call.req).map(|r| r.meta),
                caller: None,
                callee: svc_id,
            };
            match self.planes.accept(&ctx, now) {
                Verdict::Proceed { .. } => break call,
                Verdict::Cancel => {}
                Verdict::Fail {
                    outcome,
                    drop_at_callee,
                    edge_failure,
                } => {
                    self.apply_fail(now, call.req, &ctx, outcome, drop_at_callee, edge_failure);
                }
            }
        };
        let speed = self.topo.service(svc_id).pod_speed;
        let jitter = self.sample_jitter();
        let slow = self.planes.faults.slow_factor(now, svc_id);
        let svc = &mut self.services[svc_id.idx()];
        svc.queuing_delay_ns += now.duration_since(call.enqueued).as_nanos();
        svc.started_calls += 1;
        let proc = call
            .cost
            .mul_f64(jitter * slow / speed)
            .max(SimDuration::from_nanos(1));
        let done_at = now + proc;
        svc.pods[pod].busy = Some(InFlight {
            req: call.req,
            node: call.node,
            started: now,
            done_at,
        });
        let epoch = svc.pods[pod].epoch;
        self.queue.schedule(
            done_at,
            Ev::PodDone {
                svc: svc_id,
                pod: pod as u32,
                epoch,
            },
        );
    }

    fn sample_jitter(&mut self) -> f64 {
        match &self.jitter {
            Some(ln) => ln.sample(&mut self.rng),
            None => 1.0,
        }
    }

    pub(super) fn on_pod_done(&mut self, now: SimTime, svc_id: ServiceId, pod: u32, epoch: u64) {
        let win_start = self.metrics.window_start;
        let svc = &mut self.services[svc_id.idx()];
        let p = &mut svc.pods[pod as usize];
        if p.epoch != epoch || !p.is_ready() {
            return; // stale completion from before a crash
        }
        let Some(fl) = p.busy.take() else {
            return;
        };
        debug_assert_eq!(fl.done_at, now, "PodDone at wrong time");
        // Busy-time accounting within the current window.
        svc.busy_ns += now.duration_since(fl.started.max(win_start)).as_nanos();
        // Next queued call starts immediately.
        if !svc.pods[pod as usize].queue.is_empty() {
            self.start_processing(now, svc_id, pod as usize);
        }
        // Emit the span to the tracing collector.
        if let Some(tracer) = self.tracer.as_mut() {
            if let Some(r) = self.requests.get(fl.req) {
                tracer.record(Span {
                    request: r.serial,
                    api: r.meta.api,
                    service: svc_id,
                    parent: self.templates[r.tmpl as usize].caller(fl.node),
                    start: fl.started,
                    end: now,
                    verdict: SpanVerdict::Admitted,
                });
            }
        }
        // A completed call is a success signal for its inbound edge.
        self.record_edge_success(now, fl.req, fl.node, svc_id);
        // Propagate completion of this node's processing.
        self.on_node_processed(now, fl.req, fl.node);
    }

    /// A node finished its CPU work: dispatch its children, or complete.
    fn on_node_processed(&mut self, now: SimTime, req: ReqId, node: u32) {
        let Some(r) = self.requests.get_mut(req) else {
            return;
        };
        let tmpl = r.tmpl as usize;
        let fanout = self.templates[tmpl].children(node).len();
        if fanout == 0 {
            self.on_node_complete(now, req, node);
        } else {
            r.pending[node as usize] = fanout as u32;
            for i in 0..fanout {
                let child = self.templates[tmpl].children(node)[i];
                self.dispatch_call(now, req, child);
                // A child dispatch can fail the whole request (admission
                // rejection); stop dispatching the rest if so.
                if !self.requests.contains(req) {
                    return;
                }
            }
        }
    }

    /// A node's subtree fully completed (processing + all children).
    pub(super) fn on_node_complete(&mut self, now: SimTime, req: ReqId, node: u32) {
        let Some(r) = self.requests.get_mut(req) else {
            return;
        };
        match self.templates[r.tmpl as usize].node(node).parent {
            None => self.complete_request(now, req),
            Some(parent) => {
                let pending = &mut r.pending[parent as usize];
                debug_assert!(*pending > 0, "join underflow");
                *pending -= 1;
                if *pending == 0 {
                    // The parent's response travels one hop back.
                    self.queue.schedule_fifo(
                        HOP_LANE,
                        now + HOP_LATENCY,
                        Ev::NodeJoin { req, node: parent },
                    );
                }
            }
        }
    }

    fn complete_request(&mut self, now: SimTime, req: ReqId) {
        let Some(r) = self.requests.remove(req) else {
            return;
        };
        if let Some(u) = r.user {
            self.untrack_user_request(u);
        }
        let api = r.meta.api;
        let latency = now.duration_since(r.meta.arrival);
        let acc = &mut self.metrics.api_accums[api.idx()];
        acc.latencies.record(latency);
        let kind = if latency <= self.cfg.slo {
            acc.good += 1;
            self.metrics.api_totals[api.idx()].good += 1;
            ResponseKind::Success
        } else {
            acc.slo_violated += 1;
            self.metrics.api_totals[api.idx()].slo_violated += 1;
            ResponseKind::Late
        };
        self.notify_response(now, r.user, kind);
        self.settle_flight(now, r, true);
    }

    pub(super) fn fail_request(&mut self, now: SimTime, req: ReqId, _outcome: RequestOutcome) {
        let Some(r) = self.requests.remove(req) else {
            return;
        };
        if let Some(u) = r.user {
            self.untrack_user_request(u);
        }
        let api = r.meta.api;
        self.metrics.api_accums[api.idx()].failed += 1;
        self.metrics.api_totals[api.idx()].failed += 1;
        self.notify_response(now, r.user, ResponseKind::Failed);
        self.settle_flight(now, r, false);
    }

    /// If the just-retired `req` led a coalescing flight, resolve it:
    /// fill (or clear) the response cache and settle every parked
    /// follower — each with its own arrival-to-now latency against the
    /// SLO on success, or a failure on leader failure (followers get
    /// errors, never hangs).
    fn settle_flight(&mut self, now: SimTime, req: RequestRt, ok: bool) {
        let (Some(front), Some(key)) = (self.front.as_mut(), req.flight_key) else {
            return;
        };
        let api = req.meta.api;
        if ok {
            front.door.complete_flight(api, key, "ok".into(), now);
        } else {
            front.door.fail_flight(api, key);
        }
        for p in req.parked {
            let kind = if ok {
                let latency = now.duration_since(p.arrival);
                let acc = &mut self.metrics.api_accums[api.idx()];
                acc.latencies.record(latency);
                if latency <= self.cfg.slo {
                    acc.good += 1;
                    self.metrics.api_totals[api.idx()].good += 1;
                    ResponseKind::Success
                } else {
                    acc.slo_violated += 1;
                    self.metrics.api_totals[api.idx()].slo_violated += 1;
                    ResponseKind::Late
                }
            } else {
                self.metrics.api_accums[api.idx()].failed += 1;
                self.metrics.api_totals[api.idx()].failed += 1;
                ResponseKind::Failed
            };
            self.notify_response(now, p.user, kind);
        }
    }

    fn notify_response(&mut self, now: SimTime, user: Option<UserRef>, kind: ResponseKind) {
        if let Some(u) = user {
            if let Some(next) = self.workload.on_response(u, kind, now, &mut self.rng) {
                self.schedule_arrival(now, next);
            }
        }
    }

    pub(super) fn on_client_timeout(&mut self, now: SimTime, user: UserRef) {
        // The workload ignores stale generations internally, so this is
        // safe to fire unconditionally. Notifying first bumps the user's
        // generation, so the teardown's failure notification below is
        // recognized as stale and cannot resurrect the user.
        self.notify_response(now, Some(user), ResponseKind::Timeout);
        // With cancellation enabled, the abandoned request's in-flight
        // subtree is torn down instead of silently finishing: queued
        // calls get skipped at their pods, scheduled hops evaporate on
        // arrival. (In-flight CPU work still runs to completion — a
        // busy pod cannot be preempted mid-call.)
        if self.planes.resilience.cancel_doomed {
            if let Some(req) = self.untrack_user_request(user) {
                if self.requests.contains(req) {
                    self.planes.resilience.on_client_cancelled();
                    self.fail_request(now, req, RequestOutcome::ClientTimeout);
                }
            }
        }
    }
}

/// Sample an index from weighted `(weight, _)` pairs.
pub(super) fn sample_weighted<T>(items: &[(f64, T)], rng: &mut SmallRng) -> usize {
    if items.len() == 1 {
        return 0;
    }
    let total: f64 = items.iter().map(|(w, _)| w.max(0.0)).sum();
    if total <= 0.0 {
        return 0;
    }
    let mut x = rng.gen::<f64>() * total;
    for (i, (w, _)) in items.iter().enumerate() {
        x -= w.max(0.0);
        if x <= 0.0 {
            return i;
        }
    }
    items.len() - 1
}
