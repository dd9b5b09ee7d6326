//! Live serving plane hot paths.
//!
//! `admission/…`, `parse/…` and `reply/…` measure the operations the
//! gateway performs per request line (decode, admit, encode the reply);
//! `metrics/…` the per-wakeup tally flush that replaced per-request
//! counter increments. `gateway/…` measures the full loopback
//! round trip — TCP read, parse, token bucket, worker burn, TCP write —
//! by pipelining a batch of requests over one connection against a
//! near-zero-cost topology. Results are recorded in `BENCH_live.json`
//! at the repo root with the single-vCPU caveat.

use cluster::{ApiId, CallNode, EntryAdmission, Topology};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use liveserve::metrics::ApiTally;
use liveserve::wire::{self, LineDecoder};
use liveserve::{LiveConfig, LiveMetrics, LiveServer};
use simnet::{SimDuration, SimTime};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Token-bucket admission with a finite limit — the gateway's per-line
/// admission decision, shared verbatim with the simulator.
fn bench_admission(c: &mut Criterion) {
    let mut adm = EntryAdmission::new(4, 0.05);
    adm.set_rate_limit(ApiId(0), 1e9, SimTime::ZERO);
    let mut now = SimTime::ZERO;
    c.bench_function("admission/try_admit-finite-limit", |b| {
        b.iter(|| {
            now += SimDuration::from_nanos(100);
            black_box(adm.try_admit(ApiId(0), now))
        })
    });
}

/// Wire-protocol parse of one request line, alone and framed out of a
/// pipelined segment by the decoder.
fn bench_parse(c: &mut Criterion) {
    c.bench_function("parse/request-line", |b| {
        b.iter(|| black_box(wire::parse_request(black_box(b"REQ 123456789 3"))))
    });
    let segment = b"REQ 1234567890123 0 4242424242\n".repeat(256);
    let (mut decoder, mut items) = (LineDecoder::new(), Vec::with_capacity(256));
    c.bench_function("parse/decoder-feed-256-lines", |b| {
        b.iter(|| {
            items.clear();
            decoder.feed(black_box(&segment), &mut items);
            black_box(items.len())
        })
    });
}

/// Encoding one reply line into a connection's output buffer.
fn bench_reply(c: &mut Criterion) {
    let mut out = Vec::with_capacity(64);
    c.bench_function("reply/encode-rej-line", |b| {
        b.iter(|| {
            out.clear();
            wire::push_reply(&mut out, "REJ", black_box(1234567890123), b"limit");
            black_box(out.len())
        })
    });
}

/// One wakeup's bookkeeping for 490 rejected requests: a tally flush
/// against the per-request calls it replaced.
fn bench_tally(c: &mut Criterion) {
    let metrics = LiveMetrics::new(1, 1);
    let mut tally = ApiTally::default();
    c.bench_function("metrics/flush-tally-490-rejects", |b| {
        b.iter(|| {
            for _ in 0..490 {
                tally.offered += 1;
                tally.rejected += 1;
            }
            metrics.flush_tally(0, black_box(&mut tally));
        })
    });
    c.bench_function("metrics/per-request-490-rejects", |b| {
        b.iter(|| {
            for _ in 0..490 {
                metrics.on_offered(0);
                metrics.on_rejected(0);
            }
        })
    });
}

fn tiny_topology() -> Topology {
    let mut t = Topology::new("live-bench");
    let svc = t.add_service(cluster::ServiceSpec::new("echo", 1).queue_capacity(1024));
    t.add_api(cluster::ApiSpec::single(
        "ping",
        CallNode::leaf(svc, SimDuration::from_micros(5)),
    ));
    t
}

/// Full loopback round trip, 1000 pipelined requests per iteration.
fn bench_gateway_roundtrip(c: &mut Criterion) {
    let cfg = LiveConfig {
        slo: Duration::from_millis(100),
        ..LiveConfig::default()
    };
    let server = LiveServer::start(&tiny_topology(), cfg).expect("bind loopback");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut id: u64 = 0;
    c.bench_function("gateway/roundtrip-1000-pipelined", |b| {
        b.iter(|| {
            let mut batch = String::with_capacity(1000 * 16);
            for _ in 0..1000 {
                id += 1;
                batch.push_str(&format!("REQ {id} 0\n"));
            }
            writer.write_all(batch.as_bytes()).expect("write");
            writer.flush().expect("flush");
            let mut line = String::new();
            for _ in 0..1000 {
                line.clear();
                reader.read_line(&mut line).expect("reply");
            }
            black_box(id)
        })
    });
    server.shutdown();
}

/// Multi-connection sustained throughput: 64 concurrent connections,
/// each pipelining 256 requests per iteration (16384 requests/iter).
/// This is the case the event-loop gateway exists for — many sockets
/// multiplexed over a few loops with per-wakeup batched admission —
/// where the old thread-per-connection design burned the core on
/// context switches. A deep queue keeps verdicts `OK` so the number is
/// end-to-end completions, not shed-path shortcuts.
fn bench_gateway_multiconn(c: &mut Criterion) {
    const CONNS: usize = 64;
    const PER_CONN: usize = 256;
    let mut topo = Topology::new("live-bench-multi");
    let svc = topo.add_service(cluster::ServiceSpec::new("echo", 1).queue_capacity(65536));
    topo.add_api(cluster::ApiSpec::single(
        "ping",
        CallNode::leaf(svc, SimDuration::from_micros(5)),
    ));
    let cfg = LiveConfig {
        slo: Duration::from_millis(500),
        ..LiveConfig::default()
    };
    let server = LiveServer::start(&topo, cfg).expect("bind loopback");
    let mut writers = Vec::with_capacity(CONNS);
    let mut readers = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        stream.set_nodelay(true).ok();
        readers.push(BufReader::new(stream.try_clone().expect("clone")));
        writers.push(stream);
    }
    let mut id: u64 = 0;
    c.bench_function("gateway/roundtrip-64conn-pipelined", |b| {
        b.iter(|| {
            // Phase 1: every connection's batch goes out first, so the
            // server sees all 64 sockets readable at once …
            for w in &mut writers {
                let mut batch = String::with_capacity(PER_CONN * 16);
                for _ in 0..PER_CONN {
                    id += 1;
                    batch.push_str(&format!("REQ {id} 0\n"));
                }
                w.write_all(batch.as_bytes()).expect("write");
            }
            // … phase 2: drain every reply (batches are small enough
            // that no socket buffer fills before we come back to read).
            let mut line = String::new();
            for r in &mut readers {
                for _ in 0..PER_CONN {
                    line.clear();
                    r.read_line(&mut line).expect("reply");
                }
            }
            black_box(id)
        })
    });
    server.shutdown();
}

criterion_group!(
    benches,
    bench_admission,
    bench_parse,
    bench_reply,
    bench_tally,
    bench_gateway_roundtrip,
    bench_gateway_multiconn
);
criterion_main!(benches);
