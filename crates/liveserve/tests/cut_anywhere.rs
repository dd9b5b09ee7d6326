//! The running gateway does not care how a stream's bytes are cut.
//!
//! One ≈ 2 000-line stream — canonical lines (which the decoder's
//! in-place tier takes), `\r\n` endings, `+7` numbers, double spaces, an
//! unknown API, garbage, blank keep-alives and one oversized line (all of
//! which it declines to the general path) — is written to a fresh
//! connection three ways: in one `write`, a byte at a time, and in seeded
//! random 1–97-byte writes. Each time the replies are exactly the
//! expected multiset, one per non-blank line, and the server's own
//! counters balance: `offered = admitted + rejected`.
//!
//! Every reply is produced inside the event loop (a limit-0 API, warm
//! keyed reads, `ERR`s), so its bytes are a function of the line alone.

use cluster::front::{CoalesceConfig, FrontConfig};
use cluster::{ApiId, ApiSpec, CallNode, RateLimitUpdate, ServiceSpec, Topology};
use liveserve::wire::MAX_LINE;
use liveserve::{LiveConfig, LiveServer};
use simnet::SimDuration;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const SHED: usize = 0;
const READ: usize = 1;
const KEYS: u64 = 8;
const LINES: u64 = 2000;

/// splitmix64: the stream's and the random cut's only source.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The stream's last line, and its reply: replies admitted in one wakeup
/// keep their order, so no other may follow it (ids before it are odd).
const LAST: (&str, &str) = ("REQ 4242 0\n", "REJ 4242 limit");

/// The stream, the replies it must produce (sorted), and how many of its
/// lines each API is offered.
fn stream(payloads: &[String]) -> (Vec<u8>, Vec<String>, [u64; 2]) {
    let (mut bytes, mut replies, mut offered) = (Vec::new(), Vec::new(), [0; 2]);
    let mut rng = 0x0c07_a17e;
    for i in 0..LINES {
        // Ids from one digit to loadgen's 19-digit open-loop range.
        let id = (next(&mut rng) >> (next(&mut rng) % 61)) | 1;
        let key = next(&mut rng) % KEYS;
        let rej = format!("REJ {id} limit");
        let ok = format!("OK {id} {}", payloads[key as usize]);
        let (line, reply, api) = match next(&mut rng) % 16 {
            0..=3 => (format!("REQ {id} {SHED}\n"), Some(rej), Some(SHED)),
            4 => (format!("REQ {id} {SHED} - {id}\n"), Some(rej), Some(SHED)),
            5..=7 => (format!("REQ {id} {READ} {key}\n"), Some(ok), Some(READ)),
            8 => (
                format!("REQ {id} {READ} {key} {id}\r\n"),
                Some(ok),
                Some(READ),
            ),
            9 => (format!("REQ {id} {SHED}\r\n"), Some(rej), Some(SHED)),
            10 => (format!("REQ +{id} {READ} +{key}\n"), Some(ok), Some(READ)),
            11 => (format!("REQ  {id}\t{SHED}  \n"), Some(rej), Some(SHED)),
            12 => (format!("REQ {id} 9\n"), Some(format!("ERR {id}")), None),
            13 => {
                // Canonical up to its last byte or token: what the tier
                // must hand to the general path, which refuses it.
                let tails = ["k", "-7", "7 8 9", "7x", "7\r8x"];
                let tail = tails[(id % 5) as usize];
                (
                    format!("REQ {id} {READ} {tail}\n"),
                    Some("ERR 0".into()),
                    None,
                )
            }
            14 => ("bogus \u{a0}\u{ff}\n".into(), Some("ERR 0".into()), None), // non-ASCII
            _ => ("\n".into(), None, None), // a keep-alive: no reply
        };
        bytes.extend_from_slice(line.as_bytes());
        replies.extend(reply);
        if let Some(api) = api {
            offered[api] += 1;
        }
        if i == LINES / 2 {
            bytes.extend(std::iter::repeat_n(b'z', 3 * MAX_LINE).chain([b'\n']));
            replies.push("ERR 0".into());
        }
    }
    bytes.extend_from_slice(LAST.0.as_bytes());
    replies.push(LAST.1.into());
    offered[SHED] += 1;
    replies.sort_unstable();
    (bytes, replies, offered)
}

/// How many bytes the next `write` carries, given the cut's RNG state.
type Cut = fn(&mut u64) -> usize;

/// Write `bytes` to a fresh connection in pieces of the sizes `cut`
/// yields, reading `replies` replies concurrently; returns them sorted.
fn drive(addr: SocketAddr, bytes: &[u8], replies: usize, cut: Cut) -> Vec<String> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    conn.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    let reader = BufReader::new(conn.try_clone().expect("clone"));
    std::thread::scope(|s| {
        let reading = s.spawn(move || {
            let mut got: Vec<String> = reader
                .lines()
                .take(replies)
                .map(|line| line.expect("a reply per non-blank line"))
                .collect();
            assert_eq!(
                got.last().map(String::as_str),
                Some(LAST.1),
                "a surplus reply"
            );
            got.sort_unstable();
            got
        });
        let (mut rest, mut rng) = (bytes, 0x5eed);
        while !rest.is_empty() {
            let (now, later) = rest.split_at(cut(&mut rng).min(rest.len()));
            conn.write_all(now).expect("send");
            rest = later;
        }
        reading.join().expect("reader")
    })
}

/// `topfull_gateway_requests_total{api, verdict}` off the registry.
fn requests(server: &LiveServer, api: &str, verdict: &str) -> u64 {
    let series = format!("topfull_gateway_requests_total{{api=\"{api}\",verdict=\"{verdict}\"}} ");
    let text = server.registry().render_prometheus();
    text.lines()
        .find_map(|l| l.strip_prefix(&series)?.parse().ok())
        .unwrap_or_else(|| panic!("{series} missing from:\n{text}"))
}

#[test]
fn replies_and_books_are_the_same_however_the_stream_is_cut() {
    let mut topo = Topology::default();
    let svc = topo.add_service(ServiceSpec::new("svc", 1).queue_capacity(64));
    for name in ["shed", "read"] {
        let leaf = CallNode::leaf(svc, SimDuration::from_micros(20));
        topo.add_api(ApiSpec::single(name, leaf));
    }
    let cfg = LiveConfig {
        event_loops: 1,
        front: Some(FrontConfig {
            coalesce: Some(CoalesceConfig {
                cache_capacity: 64,
                cache_ttl: SimDuration::from_secs(3600),
            }),
            priority: None,
        }),
        ..LiveConfig::default()
    };
    let mut server = LiveServer::start(&topo, cfg).expect("start");
    server.push_limits(&[RateLimitUpdate::limit(ApiId(SHED as u32), 0.0)]);

    // Warm the response cache: one miss per key, through a worker. The
    // cached payload is what every later read of that key is answered.
    let mut warm = TcpStream::connect(server.addr()).expect("connect");
    let mut warm_reader = BufReader::new(warm.try_clone().expect("clone"));
    let payloads: Vec<String> = (0..KEYS)
        .map(|key| {
            let mut line = String::new();
            warm.write_all(format!("REQ {} {READ} {key}\n", key + 1).as_bytes())
                .expect("send");
            warm_reader.read_line(&mut line).expect("warm reply");
            let payload = line.trim_end().strip_prefix(&format!("OK {} ", key + 1));
            payload
                .unwrap_or_else(|| panic!("warm-up got {line:?}"))
                .to_owned()
        })
        .collect();

    let (bytes, want, offered) = stream(&payloads);
    let cuts: [(&str, Cut); 3] = [
        ("one write", |_| usize::MAX),
        ("a byte at a time", |_| 1),
        ("random 1-97-byte writes", |rng| {
            1 + (next(rng) % 97) as usize
        }),
    ];
    for (how, cut) in cuts {
        let books = |verdict: &str| ["shed", "read"].map(|api| requests(&server, api, verdict));
        let before = ["offered", "admitted", "rejected"].map(books);
        let got = drive(server.addr(), &bytes, want.len(), cut);
        let differ = got.iter().zip(&want).find(|(got, want)| got != want);
        assert_eq!((differ, got.len()), (None, want.len()), "sent in {how}");
        // Read right after the last reply: the loop counts before it writes.
        let after = ["offered", "admitted", "rejected"].map(books);
        for api in [SHED, READ] {
            let [off, adm, rej] = [0, 1, 2].map(|v| after[v][api] - before[v][api]);
            assert_eq!(off, offered[api], "{how}: api {api} offered");
            assert_eq!(
                off,
                adm + rej,
                "{how}: api {api} offered = admitted + rejected"
            );
        }
    }
    server.shutdown();
}
