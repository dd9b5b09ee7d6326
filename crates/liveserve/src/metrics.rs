//! Wall-clock metric windows → [`ClusterObservation`].
//!
//! The live plane's analogue of the engine's `metrics` module: per-API
//! and per-service counters accumulate lock-free on the request hot path
//! (atomics; the latency histogram takes a short mutex), and the control
//! thread folds a window into the *same* [`ClusterObservation`] struct
//! the simulator produces — so `core::{detector, clustering,
//! rate_controller}` and the trained policy run unchanged against real
//! threads and sockets.
//!
//! There is **one** set of per-API instruments: the cumulative counters
//! and latency histogram `/metrics` exposes. A control window is the
//! difference between their values now and at the previous window close
//! (a mark only the control thread touches), so the recording path pays
//! for each request once. The gateway goes one step further and records
//! per wakeup, not per request: [`ApiTally`] / [`LiveMetrics::flush_tally`].

use crate::relock;
use cluster::observe::{ApiWindow, ClusterObservation, ServiceWindow};
use cluster::resilience::ResilienceStats;
use cluster::types::{ApiId, BusinessPriority, ServiceId};
use cluster::Topology;
use simnet::{LatencyHistogram, SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Static facts about the served application, captured once at startup.
pub struct AppDescriptor {
    pub service_names: Vec<String>,
    pub replicas: Vec<u32>,
    pub api_names: Vec<String>,
    pub business: Vec<BusinessPriority>,
    /// Topology union per API — the live plane's execution-path map.
    pub api_paths: Vec<Vec<ServiceId>>,
    pub slo: SimDuration,
}

impl AppDescriptor {
    /// Capture the descriptor of a topology under a latency SLO.
    pub fn of(topo: &Topology, slo: Duration) -> Self {
        AppDescriptor {
            service_names: topo.services().map(|(_, s)| s.name.clone()).collect(),
            replicas: topo.services().map(|(_, s)| s.replicas).collect(),
            api_names: topo.apis().map(|(_, a)| a.name.clone()).collect(),
            business: topo.apis().map(|(_, a)| a.business).collect(),
            api_paths: topo.api_service_map(),
            slo: SimDuration::from_nanos(slo.as_nanos() as u64),
        }
    }
}

/// Per-API cumulative instruments: never reset, scraped by `/metrics`,
/// and read as windows by [`LiveMetrics::observe`].
#[derive(Default)]
struct ApiCell {
    offered: obs::Counter,
    admitted: obs::Counter,
    rejected: obs::Counter,
    good: obs::Counter,
    slo_violated: obs::Counter,
    failed: obs::Counter,
    latency: obs::Histogram,
}

/// One API's instrument values at the previous window close.
#[derive(Default)]
struct ApiMark {
    offered: u64,
    admitted: u64,
    good: u64,
    slo_violated: u64,
    failed: u64,
    latency: LatencyHistogram,
}

/// Advance `mark` to the counter's value; the events since are the window's.
fn window_of(counter: &obs::Counter, mark: &mut u64) -> u64 {
    let now = counter.get();
    now.saturating_sub(std::mem::replace(mark, now))
}

/// One event-loop wakeup's bookkeeping for one API, tallied in
/// loop-owned scratch and applied by [`LiveMetrics::flush_tally`] with
/// one `add(n)` per counter instead of one `inc()` per request.
#[derive(Default)]
pub struct ApiTally {
    pub offered: u64,
    pub admitted: u64,
    pub rejected: u64,
    /// Of `admitted`: answered from the front-door cache, i.e. completed
    /// in the same wakeup at zero service latency.
    pub cache_hits: u64,
    /// Trace ids of the traced requests among `cache_hits`.
    pub hit_traces: Vec<u64>,
}

/// Per-service window accumulators.
#[derive(Default)]
struct ServiceCell {
    busy_ns: AtomicU64,
    started_calls: AtomicU64,
    dropped_calls: AtomicU64,
    queue_delay_ns: AtomicU64,
    /// Live queue-depth gauge (not reset at window close).
    depth: AtomicU64,
    /// Registered gauges, refreshed at each window close.
    util_gauge: obs::Gauge,
    depth_gauge: obs::Gauge,
}

/// Per-API SLO burn-rate gauges, refreshed by the control tick from the
/// [`obs::SloMonitor`]'s signals.
#[derive(Default)]
struct SloCell {
    burn_fast: obs::Gauge,
    burn_slow: obs::Gauge,
    budget: obs::Gauge,
}

/// A profiled pipeline stage, for [`LiveMetrics::on_stage`]. The three
/// event-loop phases record one sample per *batch* (wakeup) — the whole
/// batch's wall time, one `Instant` per phase; the two admission stages
/// are sampled on the first request of each batch only.
#[derive(Clone, Copy, Debug)]
pub enum Stage {
    /// Socket drain + wire parse.
    ReadParse,
    /// Batched admission through the stage pipeline.
    Admit,
    /// Response flush across dirty connections.
    Write,
    FrontDoor,
    TokenBucket,
}

/// `(family, stage label)` of each [`Stage`]'s histogram, in its order.
const STAGE_SERIES: [(&str, &str); 5] = [
    ("topfull_loop_stage_seconds", "read_parse"),
    ("topfull_loop_stage_seconds", "admit"),
    ("topfull_loop_stage_seconds", "write"),
    ("topfull_front_stage_seconds", "front_door"),
    ("topfull_front_stage_seconds", "token_bucket"),
];

/// Shared live metric state; cloned into every gateway and worker thread
/// behind an `Arc`.
pub struct LiveMetrics {
    apis: Vec<ApiCell>,
    services: Vec<ServiceCell>,
    slo_cells: Vec<SloCell>,
    /// One histogram per [`Stage`], indexed by it.
    stages: [obs::Histogram; 5],
    /// Where the previous window closed; touched only by the control
    /// thread ([`LiveMetrics::observe`]).
    window_mark: Mutex<Vec<ApiMark>>,
    /// Causal request traces: bounded ring of per-stage events for
    /// requests that opted in via the wire line's trace token. Served by
    /// `GET /trace[/<id>]`; the live plane's only trace.
    traces: obs::TraceLog,
}

impl LiveMetrics {
    pub fn new(num_apis: usize, num_services: usize) -> Self {
        LiveMetrics {
            apis: (0..num_apis).map(|_| ApiCell::default()).collect(),
            services: (0..num_services).map(|_| ServiceCell::default()).collect(),
            slo_cells: (0..num_apis).map(|_| SloCell::default()).collect(),
            stages: Default::default(),
            window_mark: Mutex::new((0..num_apis).map(|_| ApiMark::default()).collect()),
            traces: obs::TraceLog::new(),
        }
    }

    /// Adopt every cumulative instrument into `reg` under stable family
    /// names, labelled with the application's API/service names.
    pub fn register_into(&self, reg: &obs::Registry, desc: &AppDescriptor) {
        self.register_with(reg, desc, &[]);
    }

    /// Like [`LiveMetrics::register_into`], but every family carries an
    /// extra `shard` label — N gateway shards expose through one
    /// registry without series collisions.
    pub fn register_into_sharded(&self, reg: &obs::Registry, desc: &AppDescriptor, shard: usize) {
        let shard = shard.to_string();
        self.register_with(reg, desc, &[("shard", shard.as_str())]);
    }

    fn register_with(&self, reg: &obs::Registry, desc: &AppDescriptor, extra: &[(&str, &str)]) {
        fn join<'a>(
            base: &[(&'a str, &'a str)],
            extra: &[(&'a str, &'a str)],
        ) -> Vec<(&'a str, &'a str)> {
            base.iter().chain(extra.iter()).copied().collect()
        }
        for (i, cell) in self.apis.iter().enumerate() {
            let api = desc.api_names[i].as_str();
            for (verdict, c) in [
                ("offered", &cell.offered),
                ("admitted", &cell.admitted),
                ("rejected", &cell.rejected),
            ] {
                reg.register_counter(
                    "topfull_gateway_requests_total",
                    &join(&[("api", api), ("verdict", verdict)], extra),
                    c,
                );
            }
            for (outcome, c) in [
                ("good", &cell.good),
                ("slo_violated", &cell.slo_violated),
                ("failed", &cell.failed),
            ] {
                reg.register_counter(
                    "topfull_request_outcomes_total",
                    &join(&[("api", api), ("outcome", outcome)], extra),
                    c,
                );
            }
            reg.register_histogram(
                "topfull_request_duration_seconds",
                &join(&[("api", api)], extra),
                &cell.latency,
            );
        }
        for (i, cell) in self.slo_cells.iter().enumerate() {
            let api = desc.api_names[i].as_str();
            reg.register_gauge(
                "topfull_slo_burn_rate",
                &join(&[("api", api), ("window", "fast")], extra),
                &cell.burn_fast,
            );
            reg.register_gauge(
                "topfull_slo_burn_rate",
                &join(&[("api", api), ("window", "slow")], extra),
                &cell.burn_slow,
            );
            // Budget reads 1.0 (untouched) until the first window closes.
            cell.budget.set(1.0);
            reg.register_gauge(
                "topfull_slo_budget_remaining",
                &join(&[("api", api)], extra),
                &cell.budget,
            );
        }
        for ((family, stage), h) in STAGE_SERIES.into_iter().zip(&self.stages) {
            reg.register_histogram(family, &join(&[("stage", stage)], extra), h);
        }
        for (i, cell) in self.services.iter().enumerate() {
            let svc = desc.service_names[i].as_str();
            reg.register_gauge(
                "topfull_service_utilization",
                &join(&[("service", svc)], extra),
                &cell.util_gauge,
            );
            reg.register_gauge(
                "topfull_service_queue_depth",
                &join(&[("service", svc)], extra),
                &cell.depth_gauge,
            );
        }
    }

    // ---- hot-path recording -------------------------------------------

    pub fn on_offered(&self, api: usize) {
        self.apis[api].offered.inc();
    }

    pub fn on_admitted(&self, api: usize) {
        self.apis[api].admitted.inc();
    }

    /// The entry token bucket (or the priority gate) turned the request
    /// away.
    pub fn on_rejected(&self, api: usize) {
        self.apis[api].rejected.inc();
    }

    pub fn on_failed(&self, api: usize) {
        self.apis[api].failed.inc();
    }

    /// A request completed end-to-end with the given latency.
    pub fn on_complete(&self, api: usize, latency: Duration, slo: Duration) {
        self.on_complete_traced(api, latency, slo, None);
    }

    /// Like [`LiveMetrics::on_complete`]; a traced request additionally
    /// attaches its trace id to the latency histogram bucket it lands in
    /// (an OpenMetrics exemplar), so `/metrics` readers can jump from a
    /// suspicious bucket straight to `GET /trace/<id>`.
    pub fn on_complete_traced(
        &self,
        api: usize,
        latency: Duration,
        slo: Duration,
        trace: Option<u64>,
    ) {
        let cell = &self.apis[api];
        if latency <= slo {
            cell.good.inc();
        } else {
            cell.slo_violated.inc();
        }
        let d = SimDuration::from_nanos(latency.as_nanos() as u64);
        cell.latency.record_with_exemplar(d, trace);
    }

    /// Apply one wakeup's tally for `api` and zero it for the next. The
    /// result is what the per-request calls above would have left: a
    /// cache hit is an admission that completed at zero latency, which
    /// is within any SLO.
    pub fn flush_tally(&self, api: usize, tally: &mut ApiTally) {
        if tally.offered == 0 {
            return; // every tallied request was offered first
        }
        let cell = &self.apis[api];
        cell.offered.add(tally.offered);
        cell.admitted.add(tally.admitted);
        cell.rejected.add(tally.rejected);
        if tally.cache_hits > 0 {
            cell.good.add(tally.cache_hits);
            cell.latency
                .record_n(SimDuration::ZERO, tally.cache_hits, &tally.hit_traces);
        }
        // Zeroed in place: `hit_traces` keeps its capacity.
        (
            tally.offered,
            tally.admitted,
            tally.rejected,
            tally.cache_hits,
        ) = (0, 0, 0, 0);
        tally.hit_traces.clear();
    }

    // ---- per-stage profiling ------------------------------------------

    /// One profiled stage finished (a whole batch phase, or the sampled
    /// first request's admission stage) after `d`.
    pub fn on_stage(&self, stage: Stage, d: Duration) {
        self.stages[stage as usize].record(SimDuration::from_nanos(d.as_nanos() as u64));
    }

    // ---- SLO burn signals ---------------------------------------------

    /// Refresh the burn-rate/budget gauges from this tick's monitor
    /// signals (called by the control thread each window close).
    pub fn set_slo_signals(&self, signals: &[obs::SloBurnSignal]) {
        for s in signals {
            let Some(cell) = self.slo_cells.get(s.api as usize) else {
                continue;
            };
            cell.burn_fast.set(s.fast_burn);
            cell.burn_slow.set(s.slow_burn);
            cell.budget.set(s.budget_remaining);
        }
    }

    // ---- causal request traces ----------------------------------------

    /// Record one stage of a request: nothing for an untraced one (one
    /// `Option` check), one short mutex push for a traced one. A server
    /// stamps every event shard 0; [`crate::ShardedLive::traces`] labels
    /// each server's events with its index.
    pub fn record_trace(
        &self,
        trace: Option<u64>,
        request: u64,
        api: usize,
        stage: &str,
        outcome: &str,
        (at, dur): (f64, f64),
    ) {
        if let Some(trace) = trace {
            self.traces.push(obs::TraceEvent {
                trace,
                request,
                api: api as u32,
                shard: 0,
                stage: stage.into(),
                outcome: outcome.into(),
                at,
                dur,
            });
        }
    }

    /// The bounded causal trace log.
    pub fn trace_log(&self) -> &obs::TraceLog {
        &self.traces
    }

    /// The `/trace` endpoint body: JSONL, optionally filtered by id.
    pub fn traces_jsonl(&self, filter: Option<u64>) -> String {
        self.traces.to_jsonl(filter)
    }

    /// A call started processing after waiting `queued` in the queue.
    pub fn on_started(&self, svc: usize, queued: Duration) {
        let cell = &self.services[svc];
        cell.started_calls.fetch_add(1, Ordering::Relaxed);
        cell.queue_delay_ns
            .fetch_add(queued.as_nanos() as u64, Ordering::Relaxed);
    }

    /// CPU burned at a service (wall time spent in the burn loop).
    pub fn on_busy(&self, svc: usize, burned: Duration) {
        self.services[svc]
            .busy_ns
            .fetch_add(burned.as_nanos() as u64, Ordering::Relaxed);
    }

    /// A call was dropped at a full service queue.
    pub fn on_dropped(&self, svc: usize) {
        self.services[svc]
            .dropped_calls
            .fetch_add(1, Ordering::Relaxed);
    }

    pub fn depth_inc(&self, svc: usize) {
        self.services[svc].depth.fetch_add(1, Ordering::Relaxed);
    }

    pub fn depth_dec(&self, svc: usize) {
        // Saturating: a dec can race a window close, never underflow.
        let d = &self.services[svc].depth;
        let _ = d.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(1))
        });
    }

    // ---- window close -------------------------------------------------

    /// Close the current window into a [`ClusterObservation`]: per-API
    /// rates and latency quantiles are what the cumulative instruments
    /// gained since the previous call. One caller at a time (the control
    /// thread) — concurrent callers would split a window between them.
    ///
    /// `rate_limits` is the admission bank's current per-API limit
    /// mirror; `now`/`window` come from the server's [`WallClock`].
    ///
    /// [`WallClock`]: crate::clock::WallClock
    pub fn observe(
        &self,
        desc: &AppDescriptor,
        now: SimTime,
        window: SimDuration,
        rate_limits: &[f64],
    ) -> ClusterObservation {
        let window_ns = window.as_nanos().max(1);
        let secs = window_ns as f64 / 1e9;
        let services = self
            .services
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                let busy = cell.busy_ns.swap(0, Ordering::Relaxed);
                let started = cell.started_calls.swap(0, Ordering::Relaxed);
                let dropped = cell.dropped_calls.swap(0, Ordering::Relaxed);
                let qd = cell.queue_delay_ns.swap(0, Ordering::Relaxed);
                // One worker thread emulates all replicas (per-call burn
                // is divided by the replica count), so the busy fraction
                // of the window *is* the pool utilization.
                let utilization = (busy as f64 / window_ns as f64).min(1.0);
                cell.util_gauge.set(utilization);
                cell.depth_gauge
                    .set(cell.depth.load(Ordering::Relaxed) as f64);
                ServiceWindow {
                    service: ServiceId(i as u32),
                    name: desc.service_names[i].clone(),
                    utilization,
                    alive_pods: desc.replicas[i],
                    desired_pods: desc.replicas[i],
                    queue_len: cell.depth.load(Ordering::Relaxed),
                    mean_queuing_delay: qd
                        .checked_div(started)
                        .map_or(SimDuration::ZERO, SimDuration::from_nanos),
                    started_calls: started,
                    dropped_calls: dropped,
                }
            })
            .collect();
        let mut marks = relock(&self.window_mark);
        let apis = self
            .apis
            .iter()
            .zip(marks.iter_mut())
            .enumerate()
            .map(|(i, (cell, mark))| {
                let hist = cell.latency.take_window(&mut mark.latency);
                let per_sec = |counter, mark| window_of(counter, mark) as f64 / secs;
                ApiWindow {
                    api: ApiId(i as u32),
                    name: desc.api_names[i].clone(),
                    business: desc.business[i],
                    offered: per_sec(&cell.offered, &mut mark.offered),
                    admitted: per_sec(&cell.admitted, &mut mark.admitted),
                    goodput: per_sec(&cell.good, &mut mark.good),
                    slo_violated: per_sec(&cell.slo_violated, &mut mark.slo_violated),
                    failed: per_sec(&cell.failed, &mut mark.failed),
                    p50: hist.quantile(0.50),
                    p95: hist.quantile(0.95),
                    p99: hist.quantile(0.99),
                    rate_limit: rate_limits[i],
                }
            })
            .collect();
        drop(marks);
        ClusterObservation {
            now,
            window,
            services,
            apis,
            api_paths: desc.api_paths.clone(),
            slo: desc.slo,
            resilience: ResilienceStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc() -> AppDescriptor {
        AppDescriptor {
            service_names: vec!["s0".into(), "s1".into()],
            replicas: vec![2, 1],
            api_names: vec!["a0".into()],
            business: vec![BusinessPriority(0)],
            api_paths: vec![vec![ServiceId(0), ServiceId(1)]],
            slo: SimDuration::from_millis(100),
        }
    }

    #[test]
    fn window_close_computes_rates_and_starts_the_next_window() {
        let m = LiveMetrics::new(1, 2);
        for _ in 0..100 {
            m.on_offered(0);
        }
        for _ in 0..80 {
            m.on_admitted(0);
        }
        for _ in 0..60 {
            m.on_complete(0, Duration::from_millis(10), Duration::from_millis(100));
        }
        for _ in 0..10 {
            m.on_complete(0, Duration::from_millis(500), Duration::from_millis(100));
        }
        for _ in 0..10 {
            m.on_failed(0);
        }
        m.on_busy(0, Duration::from_millis(500));
        m.on_started(0, Duration::from_millis(2));
        let obs = m.observe(
            &desc(),
            SimTime::from_secs(2),
            SimDuration::from_secs(2),
            &[f64::INFINITY],
        );
        let a = obs.api(ApiId(0));
        assert_eq!(a.offered, 50.0);
        assert_eq!(a.admitted, 40.0);
        assert_eq!(a.goodput, 30.0);
        assert_eq!(a.slo_violated, 5.0);
        assert_eq!(a.failed, 5.0);
        assert!(a.p99.expect("latencies recorded") >= SimDuration::from_millis(400));
        let s = obs.service(ServiceId(0));
        assert!((s.utilization - 0.25).abs() < 0.01, "{}", s.utilization);
        assert_eq!(s.started_calls, 1);
        // Second window starts from zero.
        let obs2 = m.observe(
            &desc(),
            SimTime::from_secs(3),
            SimDuration::from_secs(1),
            &[f64::INFINITY],
        );
        assert_eq!(obs2.api(ApiId(0)).offered, 0.0);
        assert_eq!(obs2.service(ServiceId(0)).utilization, 0.0);
        assert!(
            obs2.api(ApiId(0)).p99.is_none(),
            "the first window's latencies are behind the mark"
        );
        // Third window: only what arrived since the second close.
        m.on_offered(0);
        m.on_complete(0, Duration::from_millis(20), Duration::from_millis(100));
        let obs3 = m.observe(
            &desc(),
            SimTime::from_secs(4),
            SimDuration::from_secs(1),
            &[f64::INFINITY],
        );
        let a = obs3.api(ApiId(0));
        assert_eq!((a.offered, a.goodput, a.slo_violated), (1.0, 1.0, 0.0));
        let p99 = a.p99.expect("one latency in the window").as_millis_f64();
        assert!(
            (18.0..=22.0).contains(&p99),
            "p99 {p99} ms, not the 500 ms of window one"
        );
    }

    #[test]
    fn cumulative_instruments_survive_window_close() {
        let m = LiveMetrics::new(1, 1);
        let reg = obs::Registry::new();
        let d = AppDescriptor {
            service_names: vec!["svc".into()],
            replicas: vec![1],
            api_names: vec!["ping".into()],
            business: vec![BusinessPriority(0)],
            api_paths: vec![vec![ServiceId(0)]],
            slo: SimDuration::from_millis(100),
        };
        m.register_into(&reg, &d);
        m.on_offered(0);
        m.on_offered(0);
        m.on_admitted(0);
        m.on_rejected(0);
        m.on_complete(0, Duration::from_millis(10), Duration::from_millis(100));
        // A window close moves the control thread's mark; the registered
        // instruments themselves are never reset.
        let _ = m.observe(&d, SimTime::from_secs(1), SimDuration::from_secs(1), &[1.0]);
        let text = reg.render_prometheus();
        assert!(
            text.contains("topfull_gateway_requests_total{api=\"ping\",verdict=\"offered\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("topfull_gateway_requests_total{api=\"ping\",verdict=\"admitted\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("topfull_gateway_requests_total{api=\"ping\",verdict=\"rejected\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("topfull_request_duration_seconds_count{api=\"ping\"} 1"),
            "{text}"
        );
        assert!(text.contains("topfull_service_utilization{service=\"svc\"}"));
    }

    #[test]
    fn a_flushed_tally_equals_the_per_request_calls() {
        let slo = Duration::from_millis(100);
        let (batched, single) = (LiveMetrics::new(2, 1), LiveMetrics::new(2, 1));
        let (reg_b, reg_s) = (obs::Registry::new(), obs::Registry::new());
        let d = AppDescriptor {
            service_names: vec!["svc".into()],
            replicas: vec![1],
            api_names: vec!["a".into(), "b".into()],
            business: vec![BusinessPriority(0); 2],
            api_paths: vec![vec![ServiceId(0)]; 2],
            slo: SimDuration::from_millis(100),
        };
        batched.register_into(&reg_b, &d);
        single.register_into(&reg_s, &d);
        // API 1, one wakeup: 7 offered = 3 rejected + 4 admitted, of
        // which 2 were cache hits, one of them traced.
        let mut tally = ApiTally {
            offered: 7,
            admitted: 4,
            rejected: 3,
            cache_hits: 2,
            hit_traces: vec![41],
        };
        batched.flush_tally(1, &mut tally);
        assert_eq!((tally.offered, tally.admitted, tally.rejected), (0, 0, 0));
        assert!(tally.cache_hits == 0 && tally.hit_traces.is_empty());
        batched.flush_tally(1, &mut tally); // an empty tally changes nothing
        for _ in 0..7 {
            single.on_offered(1);
        }
        for _ in 0..3 {
            single.on_rejected(1);
        }
        for _ in 0..4 {
            single.on_admitted(1);
        }
        single.on_complete_traced(1, Duration::ZERO, slo, Some(41));
        single.on_complete_traced(1, Duration::ZERO, slo, None);
        assert_eq!(reg_b.render_prometheus(), reg_s.render_prometheus());
        let close = |m: &LiveMetrics| {
            let o = m.observe(
                &d,
                SimTime::from_secs(1),
                SimDuration::from_secs(1),
                &[1.0; 2],
            );
            let a = o.api(ApiId(1)).clone();
            (a.offered, a.admitted, a.goodput, a.p99)
        };
        assert_eq!(close(&batched), close(&single));
        assert_eq!(close(&batched), (0.0, 0.0, 0.0, None));
    }

    #[test]
    fn depth_gauge_survives_windows_and_never_underflows() {
        let m = LiveMetrics::new(1, 1);
        m.depth_inc(0);
        m.depth_inc(0);
        m.depth_dec(0);
        let d = AppDescriptor {
            service_names: vec!["s".into()],
            replicas: vec![1],
            api_names: vec!["a".into()],
            business: vec![BusinessPriority(0)],
            api_paths: vec![vec![ServiceId(0)]],
            slo: SimDuration::from_secs(1),
        };
        let obs = m.observe(&d, SimTime::from_secs(1), SimDuration::from_secs(1), &[1.0]);
        assert_eq!(obs.service(ServiceId(0)).queue_len, 1);
        m.depth_dec(0);
        m.depth_dec(0); // extra dec must not wrap
        let obs = m.observe(&d, SimTime::from_secs(2), SimDuration::from_secs(1), &[1.0]);
        assert_eq!(obs.service(ServiceId(0)).queue_len, 0);
    }
}
