//! Load generation against the live gateway.
//!
//! Two client shapes, mirroring the simulator's workload specs:
//!
//! * **Closed-loop users** — a pool of threads, each holding its own
//!   connection, that send one request, wait for its reply, think, and
//!   repeat. The number of *active* users follows a step schedule, which
//!   is how scenarios express load swings without changing per-user
//!   behaviour.
//! * **Open-loop surge arms** — paced senders that push `REQ` lines at a
//!   scheduled rate regardless of responses (a drainer thread discards
//!   replies). This is the overload instrument: offered load does not
//!   back off when the server slows, exactly like the simulator's
//!   open-loop arrival process.

use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Piecewise-constant schedule: the value at time `t` is the value of
/// the last step at or before `t` (0.0 before the first step).
pub fn value_at(steps: &[(f64, f64)], t_secs: f64) -> f64 {
    let mut v = 0.0;
    for &(at, value) in steps {
        if at <= t_secs {
            v = value;
        } else {
            break;
        }
    }
    v
}

/// Closed-loop client pool specification.
#[derive(Clone)]
pub struct ClosedLoopSpec {
    /// `(t_secs, active_users)` steps.
    pub users_steps: Vec<(f64, f64)>,
    pub think: Duration,
    /// `(api_idx, weight)`; weights need not be normalized.
    pub api_weights: Vec<(usize, f64)>,
    /// Per-API coalescing key space, indexed by wire API index. A
    /// request to an API with space `k > 0` carries a uniformly drawn
    /// key in `[0, k)`; `0` (or a missing entry) sends keyless lines.
    pub key_spaces: Vec<u64>,
}

/// One open-loop surge arm.
#[derive(Clone)]
pub struct OpenLoopArm {
    pub api: usize,
    /// `(t_secs, requests_per_sec)` steps.
    pub rate_steps: Vec<(f64, f64)>,
    /// Coalescing key space; `0` sends keyless lines.
    pub key_space: u64,
}

/// Per-class reject counts, parsed from `REJ` replies by every reply
/// reader the generator runs. The two classes are the gateway's two
/// shed points: `limit` (entry token bucket) and `shed` (priority
/// gate); a legacy bare `REJ <id>` counts as `limit`.
#[derive(Default)]
pub struct RejectCounts {
    limit: AtomicU64,
    shed: AtomicU64,
}

impl RejectCounts {
    fn record(&self, line: &str) {
        let mut parts = line.split_ascii_whitespace();
        if parts.next() != Some("REJ") {
            return;
        }
        let _id = parts.next();
        match parts.next() {
            Some("shed") => self.shed.fetch_add(1, Ordering::Relaxed),
            _ => self.limit.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Rejections at the entry token bucket.
    pub fn limit(&self) -> u64 {
        self.limit.load(Ordering::Relaxed)
    }

    /// Sheds at the priority gate.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }
}

/// Running load generator; stop with [`LoadGen::stop`].
pub struct LoadGen {
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
    rejects: Arc<RejectCounts>,
}

impl LoadGen {
    /// Connect all clients to `addr` and start generating.
    pub fn start(
        addr: SocketAddr,
        closed: Option<ClosedLoopSpec>,
        arms: Vec<OpenLoopArm>,
    ) -> std::io::Result<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let rejects = Arc::new(RejectCounts::default());
        let start = Instant::now();
        let mut handles = Vec::new();
        if let Some(spec) = closed {
            let max_users = spec
                .users_steps
                .iter()
                .map(|&(_, u)| u)
                .fold(0.0f64, f64::max)
                .ceil() as usize;
            let spec = Arc::new(spec);
            for slot in 0..max_users {
                let conn = TcpStream::connect(addr)?;
                let stop = Arc::clone(&stop);
                let spec = Arc::clone(&spec);
                let rejects = Arc::clone(&rejects);
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("live-user-{slot}"))
                        .spawn(move || closed_user(conn, slot, &spec, start, &stop, &rejects))
                        .expect("spawn user"),
                );
            }
        }
        for (i, arm) in arms.into_iter().enumerate() {
            let send_conn = TcpStream::connect(addr)?;
            let drain_conn = send_conn.try_clone()?;
            let stop_s = Arc::clone(&stop);
            let stop_d = Arc::clone(&stop);
            let rejects_d = Arc::clone(&rejects);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("live-arm-{i}"))
                    .spawn(move || open_loop_sender(send_conn, i, &arm, start, &stop_s))
                    .expect("spawn arm sender"),
            );
            handles.push(
                std::thread::Builder::new()
                    .name(format!("live-arm-drain-{i}"))
                    .spawn(move || drain_replies(drain_conn, &stop_d, &rejects_d))
                    .expect("spawn arm drainer"),
            );
        }
        Ok(LoadGen {
            stop,
            handles,
            rejects,
        })
    }

    /// Per-class reject counts observed so far (live; monotone).
    pub fn rejects(&self) -> &RejectCounts {
        &self.rejects
    }

    /// Signal every client thread and join them.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// Every `TRACE_SAMPLE`-th request of each sender carries a trace id
/// (the request id itself) in the optional fourth wire token, lighting
/// up the gateway's causal trace path on a steady trickle of requests
/// without changing the load shape. `-` fills the key slot when the
/// request is keyless (see [`crate::wire`]).
pub const TRACE_SAMPLE: u64 = 64;

/// Render one `REQ` line, attaching a trace id on sampled requests.
pub(crate) fn format_req(id: u64, api: usize, key: Option<u64>) -> String {
    let traced = id.is_multiple_of(TRACE_SAMPLE);
    match (key, traced) {
        (Some(k), true) => format!("REQ {id} {api} {k} {id}\n"),
        (Some(k), false) => format!("REQ {id} {api} {k}\n"),
        (None, true) => format!("REQ {id} {api} - {id}\n"),
        (None, false) => format!("REQ {id} {api}\n"),
    }
}

/// xorshift64* — deterministic per-slot API picks without a rand dep.
fn xorshift(state: &mut u64) -> f64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
}

fn pick_api(weights: &[(usize, f64)], state: &mut u64) -> usize {
    let total: f64 = weights.iter().map(|&(_, w)| w.max(0.0)).sum();
    if total <= 0.0 {
        return weights.first().map_or(0, |&(api, _)| api);
    }
    let mut roll = xorshift(state) * total;
    for &(api, w) in weights {
        roll -= w.max(0.0);
        if roll <= 0.0 {
            return api;
        }
    }
    weights[weights.len() - 1].0
}

fn closed_user(
    conn: TcpStream,
    slot: usize,
    spec: &ClosedLoopSpec,
    start: Instant,
    stop: &AtomicBool,
    rejects: &RejectCounts,
) {
    let _ = conn.set_nodelay(true);
    let _ = conn.set_read_timeout(Some(Duration::from_millis(250)));
    let mut writer = BufWriter::new(conn.try_clone().expect("clone user conn"));
    let mut reader = BufReader::new(conn);
    let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ ((slot as u64 + 1) << 17);
    let mut id: u64 = (slot as u64) << 32;
    let mut line = String::new();
    while !stop.load(Ordering::Relaxed) {
        let active = value_at(&spec.users_steps, start.elapsed().as_secs_f64());
        if (slot as f64) >= active {
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }
        id += 1;
        let api = pick_api(&spec.api_weights, &mut rng);
        let key = match spec.key_spaces.get(api).copied().unwrap_or(0) {
            0 => None,
            space => Some(((xorshift(&mut rng) * space as f64) as u64).min(space - 1)),
        };
        let req = format_req(id, api, key);
        if writer
            .write_all(req.as_bytes())
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
        // Wait for this request's reply (any verdict); a read timeout
        // counts as a turn so a stalled server cannot wedge the pool.
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => rejects.record(&line),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
            }
            Err(_) => return,
        }
        std::thread::sleep(spec.think);
    }
}

fn open_loop_sender(
    conn: TcpStream,
    arm_idx: usize,
    arm: &OpenLoopArm,
    start: Instant,
    stop: &AtomicBool,
) {
    let _ = conn.set_nodelay(true);
    let mut writer = BufWriter::new(conn);
    let mut rng = 0x5851_f42d_4c95_7f2du64 ^ ((arm_idx as u64 + 1) << 21);
    let mut id: u64 = (1 << 62) | ((arm_idx as u64) << 40);
    let mut carry = 0.0f64;
    let mut last = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(2));
        let now = Instant::now();
        let dt = now.duration_since(last).as_secs_f64();
        last = now;
        let rate = value_at(&arm.rate_steps, start.elapsed().as_secs_f64());
        carry += rate * dt;
        let burst = carry as u64;
        carry -= burst as f64;
        for _ in 0..burst {
            id += 1;
            let key = (arm.key_space > 0).then(|| {
                ((xorshift(&mut rng) * arm.key_space as f64) as u64).min(arm.key_space - 1)
            });
            let req = format_req(id, arm.api, key);
            if writer.write_all(req.as_bytes()).is_err() {
                return;
            }
        }
        if burst > 0 && writer.flush().is_err() {
            return;
        }
    }
}

fn drain_replies(conn: TcpStream, stop: &AtomicBool, rejects: &RejectCounts) {
    let _ = conn.set_read_timeout(Some(Duration::from_millis(50)));
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    while !stop.load(Ordering::Relaxed) {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => rejects.record(&line),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_lookup_is_piecewise_constant() {
        let steps = [(0.0, 10.0), (5.0, 30.0), (10.0, 10.0)];
        assert_eq!(value_at(&steps, 0.0), 10.0);
        assert_eq!(value_at(&steps, 4.9), 10.0);
        assert_eq!(value_at(&steps, 5.0), 30.0);
        assert_eq!(value_at(&steps, 9.0), 30.0);
        assert_eq!(value_at(&steps, 100.0), 10.0);
        assert_eq!(value_at(&[], 3.0), 0.0);
        assert_eq!(value_at(&[(2.0, 5.0)], 1.0), 0.0, "zero before first step");
    }

    #[test]
    fn reject_classes_parse_from_reply_lines() {
        let counts = RejectCounts::default();
        counts.record("REJ 7 limit\n");
        counts.record("REJ 8 shed\n");
        counts.record("REJ 9\n"); // legacy bare REJ counts as limit
        counts.record("OK 10 123\n");
        counts.record("ERR 11\n");
        assert_eq!(counts.limit(), 2);
        assert_eq!(counts.shed(), 1);
    }

    #[test]
    fn trace_sampling_attaches_ids_on_the_wire() {
        assert_eq!(format_req(1, 0, None), "REQ 1 0\n");
        assert_eq!(format_req(1, 0, Some(7)), "REQ 1 0 7\n");
        assert_eq!(format_req(64, 2, None), "REQ 64 2 - 64\n");
        assert_eq!(format_req(128, 1, Some(9)), "REQ 128 1 9 128\n");
    }

    #[test]
    fn weighted_pick_respects_weights() {
        let weights = [(0usize, 3.0), (1usize, 1.0)];
        let mut rng = 42u64;
        let mut counts = [0u32; 2];
        for _ in 0..4000 {
            counts[pick_api(&weights, &mut rng)] += 1;
        }
        let frac = f64::from(counts[0]) / 4000.0;
        assert!((0.70..0.80).contains(&frac), "got {frac}");
        // Degenerate weights fall back to the first entry.
        assert_eq!(pick_api(&[(2, 0.0)], &mut rng), 2);
    }
}
