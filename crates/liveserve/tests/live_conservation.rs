//! Request conservation on a *running* gateway: every accepted line gets
//! exactly one reply of the right class, and by the time a client has
//! read its last reply the server's own books balance — the event loop
//! applies a wakeup's tallies before it writes that wakeup's replies.
//!
//! Two connections pipeline bursts that mix every in-loop reply path
//! with the worker path: a limit-0 API (`REJ … limit`), an unlimited
//! API (`OK` through a worker), warm keyed reads (`OK` from the
//! front-door cache), malformed lines and an out-of-range API (`ERR`).
//! The bursts are written in odd-sized pieces, so lines straddle TCP
//! segments and event-loop wakeups.

use cluster::front::{CoalesceConfig, FrontConfig};
use cluster::{ApiId, ApiSpec, CallNode, RateLimitUpdate, ServiceSpec, Topology};
use liveserve::{LiveConfig, LiveServer};
use simnet::SimDuration;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const SHED: usize = 0;
const OPEN: usize = 1;
const READ: usize = 2;
const KEYS: u64 = 8;
const ROUNDS: u64 = 60;

fn topology() -> Topology {
    let mut t = Topology::default();
    let svc = t.add_service(ServiceSpec::new("svc", 1).queue_capacity(4096));
    for name in ["shed", "open", "read"] {
        t.add_api(ApiSpec::single(
            name,
            CallNode::leaf(svc, SimDuration::from_micros(20)),
        ));
    }
    t
}

/// What one request line must be answered with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Want {
    RejLimit,
    OkServed,
    OkCached,
    Err,
}

/// One connection's burst and the replies it must produce.
struct Burst {
    bytes: Vec<u8>,
    by_id: HashMap<u64, Want>,
    /// `ERR 0` replies owed to malformed lines.
    malformed: usize,
}

fn burst(conn: u64) -> Burst {
    let mut b = Burst {
        bytes: Vec::new(),
        by_id: HashMap::new(),
        malformed: 0,
    };
    for i in 0..ROUNDS {
        let id = (conn + 1) * 1_000_000 + i * 10;
        let key = i % KEYS;
        let lines = [
            (format!("REQ {} {SHED}\n", id + 1), Some(Want::RejLimit)),
            (format!("REQ {} {OPEN}\r\n", id + 2), Some(Want::OkServed)),
            (
                format!("REQ {} {READ} {key} {}\n", id + 3, id + 3),
                Some(Want::OkCached),
            ),
            (
                format!("REQ  {}\t{SHED} - {}\n", id + 4, id + 4),
                Some(Want::RejLimit),
            ),
            (format!("REQ {} 9\n", id + 5), Some(Want::Err)),
            (
                format!("REQ {} {READ} +{key}\n", id + 6),
                Some(Want::OkCached),
            ),
            ("\n".to_string(), None), // a keep-alive: no reply
        ];
        for (k, (line, want)) in lines.iter().enumerate() {
            b.bytes.extend_from_slice(line.as_bytes());
            if let Some(want) = want {
                b.by_id.insert(id + 1 + k as u64, *want);
            }
        }
        if i % 7 == 0 {
            b.bytes
                .extend_from_slice(b"REQ 18446744073709551616 0\nbogus \xff\n");
            b.malformed += 2;
        }
    }
    b
}

/// Write the burst in odd-sized pieces, then read and classify every
/// reply. Returns the replies by class.
fn drive(addr: SocketAddr, burst: &Burst) -> HashMap<Want, usize> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut rest = &burst.bytes[..];
    for piece in [1usize, 7, 13, 64, 3, 29, 211].iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (now, later) = rest.split_at((*piece).min(rest.len()));
        conn.write_all(now).expect("send");
        rest = later;
        if *piece == 3 {
            std::thread::sleep(Duration::from_micros(300));
        }
    }
    let mut got: HashMap<Want, usize> = HashMap::new();
    let mut seen = std::collections::HashSet::new();
    let mut errs_for_malformed = 0;
    let mut line = String::new();
    for _ in 0..burst.by_id.len() + burst.malformed {
        line.clear();
        reader.read_line(&mut line).expect("a reply per line");
        let parts: Vec<&str> = line.split_ascii_whitespace().collect();
        let id: u64 = parts[1].parse().expect("reply echoes an id");
        if id == 0 {
            assert_eq!(parts, ["ERR", "0"], "reply {line:?}");
            errs_for_malformed += 1;
            continue;
        }
        assert!(seen.insert(id), "request {id} answered twice");
        let want = *burst
            .by_id
            .get(&id)
            .unwrap_or_else(|| panic!("reply {line:?} to a request never sent"));
        match want {
            Want::RejLimit => assert_eq!(parts, ["REJ", parts[1], "limit"], "{line:?}"),
            Want::Err => assert_eq!(parts, ["ERR", parts[1]], "{line:?}"),
            Want::OkServed | Want::OkCached => {
                assert_eq!((parts[0], parts.len()), ("OK", 3), "{line:?}");
                parts[2].parse::<u64>().expect("latency payload");
            }
        }
        *got.entry(want).or_default() += 1;
    }
    assert_eq!(errs_for_malformed, burst.malformed);
    assert_eq!(seen.len(), burst.by_id.len(), "one reply per request line");
    got
}

/// One sample of the registry's text exposition.
fn sample(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("{series} missing from:\n{text}"))
}

fn requests(text: &str, api: &str, verdict: &str) -> u64 {
    sample(
        text,
        &format!("topfull_gateway_requests_total{{api=\"{api}\",verdict=\"{verdict}\"}}"),
    )
}

#[test]
fn books_balance_when_the_last_reply_is_read() {
    let cfg = LiveConfig {
        event_loops: 2,
        front: Some(FrontConfig {
            coalesce: Some(CoalesceConfig {
                cache_capacity: 64,
                cache_ttl: SimDuration::from_secs(3600),
            }),
            priority: None,
        }),
        ..LiveConfig::default()
    };
    let mut server = LiveServer::start(&topology(), cfg).expect("start");
    server.push_limits(&[RateLimitUpdate::limit(ApiId(SHED as u32), 0.0)]);

    // Warm the response cache: one miss per key, through a worker.
    let mut warm = TcpStream::connect(server.addr()).expect("connect");
    let mut warm_reader = BufReader::new(warm.try_clone().expect("clone"));
    for key in 0..KEYS {
        warm.write_all(format!("REQ {} {READ} {key}\n", key + 1).as_bytes())
            .expect("send");
        let mut line = String::new();
        warm_reader.read_line(&mut line).expect("warm reply");
        assert!(line.starts_with("OK "), "warm-up got {line:?}");
    }
    let before = server.registry().render_prometheus();

    let bursts = [burst(0), burst(1)];
    let addr = server.addr();
    let got: Vec<HashMap<Want, usize>> = std::thread::scope(|s| {
        let drivers: Vec<_> = bursts
            .iter()
            .map(|b| s.spawn(move || drive(addr, b)))
            .collect();
        drivers
            .into_iter()
            .map(|d| d.join().expect("driver"))
            .collect()
    });
    // Scraped right after the last reply was read: no tick, no sleep.
    let after = server.registry().render_prometheus();

    let total = |want| got.iter().map(|g| g[&want]).sum::<usize>() as u64;
    let per_conn = 2 * ROUNDS;
    assert_eq!(total(Want::RejLimit), 2 * per_conn);
    assert_eq!(total(Want::OkServed), 2 * ROUNDS);
    assert_eq!(total(Want::OkCached), 2 * per_conn);
    assert_eq!(total(Want::Err), 2 * ROUNDS);

    let delta =
        |api: &str, verdict: &str| requests(&after, api, verdict) - requests(&before, api, verdict);
    for (api, offered, admitted, rejected) in [
        ("shed", total(Want::RejLimit), 0, total(Want::RejLimit)),
        ("open", total(Want::OkServed), total(Want::OkServed), 0),
        ("read", total(Want::OkCached), total(Want::OkCached), 0),
    ] {
        assert_eq!(delta(api, "offered"), offered, "{api} offered");
        assert_eq!(delta(api, "admitted"), admitted, "{api} admitted");
        assert_eq!(delta(api, "rejected"), rejected, "{api} rejected");
    }
    // Lines that never named a served API (malformed, API 9) are
    // answered but offered to no API.
    let hits = "topfull_coalesce_hit_total{kind=\"cache\"}";
    assert_eq!(
        sample(&after, hits) - sample(&before, hits),
        total(Want::OkCached),
        "every keyed OK was a cache hit"
    );
    // A completion is counted before its reply is sent: in the event
    // loop for a cache hit, on the worker thread for a served request.
    let good = |api: &str| {
        let series = format!("topfull_request_outcomes_total{{api=\"{api}\",outcome=\"good\"}}");
        sample(&after, &series) - sample(&before, &series)
    };
    assert_eq!(good("read"), total(Want::OkCached));
    assert_eq!(good("open"), total(Want::OkServed));
    server.shutdown();
}
