//! A minimal std-only epoll facade — the readiness engine under the
//! event-loop gateway.
//!
//! No `libc` crate: the four syscall wrappers the poller needs
//! (`epoll_create1`, `epoll_ctl`, `epoll_wait`, `eventfd`) are declared
//! as plain FFI prototypes and resolve against the C library std
//! already links on Linux. File descriptors are owned through
//! [`std::os::fd::OwnedFd`], so every registration target closes on
//! drop and nothing leaks across a panic.
//!
//! The surface is deliberately mio-shaped but tiny:
//!
//! * [`Poller`] — `add` / `modify` / `remove` a fd under a `u64` token
//!   with an [`Interest`] (readable and/or writable), then [`Poller::wait`]
//!   for level-triggered [`Event`]s;
//! * [`Waker`] — an eventfd registered like any other fd; any thread
//!   (worker completions, shutdown) can [`Waker::wake`] the loop out of
//!   `epoll_wait`, and the loop [`Waker::drain`]s it on wakeup, then
//!   drains the queues it announces. Writes coalesce in the eventfd
//!   counter, so a burst of completions costs one wakeup.
//!
//! Level-triggered mode keeps the state machine simple: a connection
//! with unread input or unflushed output keeps firing until the gateway
//! catches up, so a bounded per-wakeup read budget cannot lose data.

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EFD_NONBLOCK: i32 = 0o4000;
const EFD_CLOEXEC: i32 = 0o2000000;

/// Mirror of the kernel's `struct epoll_event`. Packed on x86-64, where
/// the kernel ABI leaves the 64-bit payload unaligned.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// What a registration wants to be woken for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    fn mask(self) -> u32 {
        let mut m = EPOLLRDHUP;
        if self.readable {
            m |= EPOLLIN;
        }
        if self.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// `EPOLLERR`/`EPOLLHUP`/`EPOLLRDHUP` — the peer is gone or going;
    /// the owner should read to EOF and close.
    pub hangup: bool,
}

/// A level-triggered epoll instance.
pub struct Poller {
    ep: OwnedFd,
    /// Kernel-filled scratch; sized for one syscall's worth of events.
    buf: Vec<EpollEvent>,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        // SAFETY: a plain syscall on an integer flag; no memory passes.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller {
            // SAFETY: `cvt` passed a descriptor the call above just
            // opened, and nothing else owns it.
            ep: unsafe { OwnedFd::from_raw_fd(fd) },
            buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest.mask(),
            data: token,
        };
        // SAFETY: `ev` is a live `struct epoll_event` the kernel reads
        // only during the call; `self.ep` is open while `self` lives.
        cvt(unsafe { epoll_ctl(self.ep.as_raw_fd(), op, fd, &mut ev) })?;
        Ok(())
    }

    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: as in `ctl`; `DEL` ignores `ev`, which kernels before
        // 2.6.9 still required to be non-null.
        cvt(unsafe { epoll_ctl(self.ep.as_raw_fd(), EPOLL_CTL_DEL, fd, &mut ev) })?;
        Ok(())
    }

    /// Block up to `timeout` for readiness; `events` is cleared and
    /// refilled. A signal-interrupted wait returns zero events.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        let ms = timeout.map_or(-1i32, |d| d.as_millis().min(i32::MAX as u128) as i32);
        // SAFETY: the kernel writes at most `buf.len()` events into
        // `buf`, which owns that many initialised `EpollEvent`s; the loop
        // below reads only the first `n`, the ones it filled.
        let n = unsafe {
            epoll_wait(
                self.ep.as_raw_fd(),
                self.buf.as_mut_ptr(),
                self.buf.len() as i32,
                ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for e in &self.buf[..n as usize] {
            // Copy out of the packed struct before using (no refs into it).
            let bits = e.events;
            let token = e.data;
            events.push(Event {
                token,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(())
    }
}

/// Cross-thread wakeup for a [`Poller`], backed by a non-blocking
/// eventfd. Clone freely: all clones share the counter, and concurrent
/// wakes coalesce into one readiness event.
///
/// The `signaled` flag keeps bursts cheap: once one wake's eventfd
/// write is in flight, further wakes are a single uncontended atomic
/// swap and no syscall, until the owning loop [`Waker::drain`]s. A
/// worker finishing 1000 jobs costs one `write(2)`, not 1000.
#[derive(Clone)]
pub struct Waker {
    file: Arc<File>,
    signaled: Arc<AtomicBool>,
}

impl Waker {
    pub fn new() -> io::Result<Waker> {
        // SAFETY: a plain syscall on integer arguments; no memory passes.
        let fd = cvt(unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) })?;
        // SAFETY: `cvt` passed a descriptor the call above just opened,
        // and nothing else owns it.
        let owned = unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(Waker {
            file: Arc::new(File::from(owned)),
            signaled: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Register this waker in a poller under `token` (read interest).
    pub fn register(&self, poller: &Poller, token: u64) -> io::Result<()> {
        poller.add(self.file.as_raw_fd(), token, Interest::READ)
    }

    /// Wake the owning loop. Infallible by design: the only failure mode
    /// of a non-blocking eventfd write is a full counter, which still
    /// leaves the fd readable.
    pub fn wake(&self) {
        if !self.signaled.swap(true, Ordering::AcqRel) {
            let _ = (&*self.file).write(&1u64.to_ne_bytes());
        }
    }

    /// Reset the counter so the level-triggered registration goes quiet.
    ///
    /// The eventfd is read *first* and the flag cleared after. While the
    /// flag is up no `wake` writes, so nothing can land between the two
    /// that this read would swallow: the flag never stays up over an
    /// empty counter (the other order allowed exactly that, and every
    /// later wake then skipped its write — completions waited for the
    /// loop's poll timeout). A `wake` that finds the flag still up in
    /// that gap writes nothing and is *not* re-signalled, hence the
    /// invariant the owner must keep: **after every `drain`, drain the
    /// queues this waker announces** (the completion and injection
    /// queues in `gateway::EventLoop::run`). Whatever that wake
    /// announced was enqueued before it, so that pass picks it up. The
    /// `AcqRel` swap pairs with the one in `wake`.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        while matches!((&*self.file).read(&mut buf), Ok(n) if n > 0) {}
        self.signaled.swap(false, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn poller_reports_readable_after_peer_write() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");

        let mut poller = Poller::new().expect("poller");
        poller
            .add(server.as_raw_fd(), 7, Interest::READ)
            .expect("add");
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert!(events.is_empty(), "no data yet: {events:?}");

        client.write_all(b"x").expect("write");
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Level-triggered: unread data keeps firing.
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .expect("wait");
        assert_eq!(events.len(), 1, "level-triggered re-arm");

        poller.remove(server.as_raw_fd()).expect("remove");
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert!(events.is_empty(), "deregistered fd stays silent");
    }

    #[test]
    fn writable_interest_fires_and_modify_switches_it_off() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let _client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");

        let mut poller = Poller::new().expect("poller");
        poller
            .add(
                server.as_raw_fd(),
                1,
                Interest {
                    readable: false,
                    writable: true,
                },
            )
            .expect("add");
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .expect("wait");
        assert!(events.iter().any(|e| e.token == 1 && e.writable));

        poller
            .modify(server.as_raw_fd(), 1, Interest::READ)
            .expect("modify");
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert!(events.is_empty(), "idle socket with read-only interest");
    }

    #[test]
    fn waker_coalesces_and_drains() {
        let mut poller = Poller::new().expect("poller");
        let waker = Waker::new().expect("waker");
        waker.register(&poller, 99).expect("register");
        // Many wakes from another thread → one readiness event.
        let w2 = waker.clone();
        std::thread::spawn(move || {
            for _ in 0..64 {
                w2.wake();
            }
        })
        .join()
        .expect("join");
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .expect("wait");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 99);
        waker.drain();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert!(events.is_empty(), "drained waker goes quiet");
    }

    /// A single producer announces items (`produced`, then `wake`, then
    /// `woken`) at most a few ahead of the consumer, so nearly every
    /// `drain` races the next `wake`. The consumer keeps the waker's
    /// invariant — it reads the queue (here: `produced`) after every
    /// drain. A wait that times out at 50 ms while a *fully issued* wake
    /// announces an item the consumer has not seen is a lost wakeup;
    /// a producer that is merely descheduled is not.
    #[test]
    fn racing_wakes_and_drains_never_lose_a_wakeup() {
        use std::sync::atomic::AtomicU64;
        const ITEMS: u64 = 1_000_000;
        const LEAD: u64 = 4;
        let waker = Waker::new().expect("waker");
        let produced = Arc::new(AtomicU64::new(0));
        let woken = Arc::new(AtomicU64::new(0));
        let consumed = Arc::new(AtomicU64::new(0));
        let producer = {
            let (waker, produced, woken, consumed) = (
                waker.clone(),
                Arc::clone(&produced),
                Arc::clone(&woken),
                Arc::clone(&consumed),
            );
            std::thread::spawn(move || {
                for i in 1..=ITEMS {
                    while i > consumed.load(Ordering::Acquire) + LEAD {
                        std::thread::yield_now();
                    }
                    produced.store(i, Ordering::Release);
                    waker.wake();
                    woken.store(i, Ordering::Release);
                }
            })
        };
        let mut poller = Poller::new().expect("poller");
        waker.register(&poller, 1).expect("register");
        let mut events = Vec::new();
        let (mut seen, mut drains) = (0u64, 0u64);
        while seen < ITEMS {
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .expect("wait");
            if events.is_empty() {
                let announced = woken.load(Ordering::Acquire);
                assert!(
                    announced <= seen,
                    "lost wakeup: waited 50 ms with item {announced} announced, {seen} seen, \
                     after {drains} drains"
                );
                continue;
            }
            waker.drain();
            drains += 1;
            seen = produced.load(Ordering::Acquire);
            consumed.store(seen, Ordering::Release);
        }
        producer.join().expect("producer");
        assert!(drains >= ITEMS / LEAD, "{drains} drains for {ITEMS} wakes");
    }
}
