//! A slow-reading client must cost the gateway a bounded buffer, not a
//! stalled event loop.
//!
//! The scenario: one client pipelines a large burst of requests and
//! never reads a byte of its replies. Its socket send path fills, the
//! gateway's per-connection output buffer hits the configured cap, and
//! the gateway drops the connection — while a healthy connection on the
//! same event loop keeps getting prompt replies and the control tick
//! keeps closing windows. This is the live-plane version of TopFull's
//! isolation premise: one misbehaving consumer must not become
//! head-of-line blocking for the rest of the front door.

use cluster::{ApiSpec, CallNode, NoControl, ServiceSpec, Topology};
use liveserve::{LiveConfig, LiveServer};
use simnet::SimDuration;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::FromRawFd;
use std::time::{Duration, Instant};

/// Deliberately tiny output cap so the overflow path is exercised fast.
const OUT_CAP: usize = 4096;
/// The smallest reply line (`OK 1 0\n` and up).
const REPLY_BYTES: usize = 8;

/// Pipelined requests the slow client sends without ever reading. The
/// clamp below holds the client's side to a few kilobytes, but the
/// gateway's kernel send buffer autotunes up to `tcp_wmem`'s maximum
/// (4 MB by default) before a write would block, so the per-connection
/// cap trips only once that is full: the burst's replies outgrow the
/// host's maximum plus the cap by half again (≈ 790 000 requests at
/// 4 MB).
fn slow_burst() -> usize {
    let wmem = std::fs::read_to_string("/proc/sys/net/ipv4/tcp_wmem").expect("tcp_wmem");
    let max = wmem.split_whitespace().nth(2).and_then(|v| v.parse().ok());
    let max: usize = max.unwrap_or_else(|| panic!("no maximum in tcp_wmem: {wmem:?}"));
    (max + OUT_CAP) * 3 / 2 / REPLY_BYTES
}

/// Connect to `addr` with the socket's kernel receive buffer clamped.
/// Without the clamp, loopback TCP autotunes its window into the tens
/// of megabytes and swallows the whole reply stream before the
/// gateway's userspace cap can matter; setting `SO_RCVBUF` explicitly
/// also switches autotuning off. The clamp goes on before `connect`, so
/// the window the handshake advertises already fits it. Clamped after,
/// it shrinks the buffer under a window the gateway may still fill: the
/// kernel then drops the gateway's segments, and with them the acks of
/// the client's own requests, and both ends back off in exponential
/// retransmission timeouts (`ss` showed cwnd 1, backoff 4 and 3.9 MB of
/// requests unsent 6 s in), so the burst never reaches the gateway.
/// Same std-only FFI style as the crate's poller.
fn connect_with_small_rcvbuf(addr: SocketAddr) -> TcpStream {
    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOCK_CLOEXEC: i32 = 0o2_000_000;
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    #[repr(C)]
    struct SockaddrIn {
        family: u16,
        port: [u8; 2],
        addr: [u8; 4],
        zero: [u8; 8],
    }
    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const core::ffi::c_void,
            optlen: u32,
        ) -> i32;
        fn connect(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
    }
    let SocketAddr::V4(v4) = addr else {
        panic!("the gateway listens on IPv4 loopback, not {addr}")
    };
    // SAFETY: `socket` takes no pointers.
    let fd = unsafe { socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0) };
    assert!(fd >= 0, "socket: {}", std::io::Error::last_os_error());
    // SAFETY: `fd` is an open TCP socket that nothing else owns; the
    // stream closes it, also when an assert below fails.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    let val: i32 = 4096;
    // SAFETY: `optval` points at a live `i32` and `optlen` is its size.
    let rc = unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            SO_RCVBUF,
            std::ptr::from_ref(&val).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    };
    assert_eq!(
        rc,
        0,
        "setsockopt(SO_RCVBUF): {}",
        std::io::Error::last_os_error()
    );
    let sin = SockaddrIn {
        family: AF_INET as u16,
        port: v4.port().to_be_bytes(),
        addr: v4.ip().octets(),
        zero: [0; 8],
    };
    // SAFETY: `sin` is a live `sockaddr_in` (the kernel's layout, `repr(C)`)
    // and `len` is its size.
    let rc = unsafe { connect(fd, &sin, std::mem::size_of::<SockaddrIn>() as u32) };
    assert_eq!(rc, 0, "connect: {}", std::io::Error::last_os_error());
    stream
}

fn topo() -> Topology {
    let mut t = Topology::default();
    // Small queue: most of the burst answers ERR immediately, which is
    // exactly what piles output onto the non-reading connection.
    let s = t.add_service(ServiceSpec::new("svc", 4).queue_capacity(64));
    t.add_api(ApiSpec::single(
        "ping",
        CallNode::leaf(s, SimDuration::from_micros(10)),
    ));
    t
}

#[test]
fn slow_reader_is_bounded_and_dropped_while_others_proceed() {
    let cfg = LiveConfig {
        event_loops: 1, // one loop: the victim and the healthy conn share it
        max_conn_output: OUT_CAP,
        ..LiveConfig::default()
    };
    let mut server = LiveServer::start(&topo(), cfg).expect("start");
    let addr = server.addr();

    // The misbehaving client: a big pipelined burst, no reads.
    let burst = slow_burst();
    let slow = connect_with_small_rcvbuf(addr);
    slow.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    slow.set_write_timeout(Some(Duration::from_secs(10)))
        .expect("write timeout");
    let mut slow_writer = slow.try_clone().expect("clone slow");
    let writer = std::thread::spawn(move || {
        let mut sent = 0usize;
        for id in 0..burst {
            // An error here is the expected endgame: the gateway dropped
            // us once our replies overflowed the cap.
            if slow_writer
                .write_all(format!("REQ {id} 0\n").as_bytes())
                .is_err()
            {
                break;
            }
            sent += 1;
        }
        sent
    });

    // Meanwhile, on the same event loop: a healthy connection gets
    // prompt replies and the control tick keeps closing windows.
    let healthy = TcpStream::connect(addr).expect("connect healthy");
    healthy
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut healthy_writer = healthy.try_clone().expect("clone healthy");
    let mut healthy_reader = BufReader::new(healthy);
    for round in 0..10 {
        let started = Instant::now();
        healthy_writer
            .write_all(format!("REQ {} 0\n", 1_000_000 + round).as_bytes())
            .expect("healthy send");
        let mut line = String::new();
        healthy_reader.read_line(&mut line).expect("healthy reply");
        let verdict = line.split_whitespace().next().unwrap_or("");
        assert!(
            matches!(verdict, "OK" | "REJ" | "ERR"),
            "healthy conn got {line:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "healthy roundtrip stalled behind the slow reader"
        );
        let tick_started = Instant::now();
        let _ = server.tick(&mut NoControl);
        assert!(
            tick_started.elapsed() < Duration::from_secs(2),
            "control tick stalled behind the slow reader"
        );
    }

    let sent = writer.join().expect("writer thread");
    assert!(sent > 0, "slow client sent something");

    // Now read the slow connection out: it must end (EOF or reset) well
    // short of the full reply stream — the gateway held at most the cap,
    // not one reply per request.
    let mut delivered = 0usize;
    let mut buf = [0u8; 64 * 1024];
    let mut slow_reader = slow;
    let deadline = Instant::now() + Duration::from_secs(30);
    let dropped = loop {
        assert!(Instant::now() < deadline, "slow conn never closed");
        match slow_reader.read(&mut buf) {
            Ok(0) => break true,
            Ok(n) => delivered += n,
            Err(e) if matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe) => {
                break true
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(e) => panic!("unexpected slow-read error: {e}"),
        }
    };
    assert!(dropped, "slow connection must be disconnected");
    // Had the gateway buffered and delivered one reply per request, we
    // would have read at least `REPLY_BYTES` per sent request. The
    // kernel's send buffer plus OUT_CAP sit well below that:
    // per-connection buffering stayed bounded and the rest was dropped
    // with the connection.
    assert!(
        delivered < burst * REPLY_BYTES,
        "delivered {delivered} bytes for {sent} requests — output was not bounded"
    );

    server.shutdown();
}
