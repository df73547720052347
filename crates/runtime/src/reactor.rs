//! Readiness-driven I/O core: an epoll-backed [`Reactor`], a hashed
//! [`DeadlineWheel`] for connection timeouts, and a wake pipe for
//! cross-thread unpark — the three primitives an event-driven server
//! needs to hold thousands of idle keep-alive connections on one thread.
//!
//! Zero dependencies: the epoll/pipe calls go through a tiny `extern "C"`
//! shim (the symbols come from the libc that `std` already links), and
//! everything else is `std::os::fd` + `std::net`. Registration is
//! level-triggered — simpler to reason about than edge-triggered, and the
//! callers here always drain sockets until `WouldBlock` anyway.
//!
//! Ownership model: the reactor never owns a file descriptor it did not
//! create. Callers keep their `TcpStream`/`TcpListener`, register the
//! borrowed fd under a [`Token`], and must [`Reactor::deregister`] before
//! closing it (a stale registration on a reused fd number is the classic
//! epoll bug; the [`Token`] generation scheme used by `sbq-http` guards
//! the other half of that race).

use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

/// FFI shim over the handful of syscall wrappers the reactor needs. The
/// symbols resolve from the platform libc that `std` links; no external
/// crate is involved.
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const O_NONBLOCK: c_int = 0o4000;
    pub const O_CLOEXEC: c_int = 0o2000000;

    pub const RLIMIT_NOFILE: c_int = 7;

    /// Matches the kernel's `struct epoll_event`; packed on x86, where
    /// the kernel ABI has no padding between `events` and `data`.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    pub struct RLimit {
        pub cur: u64,
        pub max: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        pub fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
        pub fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
        pub fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    }
}

/// Caller-chosen key identifying a registration; delivered back on every
/// event for that fd. The value `u64::MAX` is reserved for the reactor's
/// internal wake pipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(pub u64);

/// Reserved internal token for the wake pipe.
const WAKE_DATA: u64 = u64::MAX;

/// Which readiness a registration asks for. Construct from the
/// associated constants and combine with [`Interest::and`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    readable: bool,
    writable: bool,
}

impl Interest {
    /// No readiness: only error/hang-up events are delivered (epoll
    /// reports those unconditionally).
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
    /// Read readiness.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write readiness.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };

    /// Union of two interests.
    pub fn and(self, other: Interest) -> Interest {
        Interest {
            readable: self.readable || other.readable,
            writable: self.writable || other.writable,
        }
    }

    /// Whether read readiness is requested.
    pub fn is_readable(&self) -> bool {
        self.readable
    }

    /// Whether write readiness is requested.
    pub fn is_writable(&self) -> bool {
        self.writable
    }

    fn bits(&self) -> u32 {
        // EPOLLRDHUP is always requested so a half-closed peer surfaces
        // as an event even when the caller is between read interests.
        let mut bits = sys::EPOLLRDHUP;
        if self.readable {
            bits |= sys::EPOLLIN;
        }
        if self.writable {
            bits |= sys::EPOLLOUT;
        }
        bits
    }
}

/// One readiness event, translated out of the epoll bit soup.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The registration's token.
    pub token: Token,
    /// Read readiness (data, or EOF, is available).
    pub readable: bool,
    /// Write readiness.
    pub writable: bool,
    /// Peer shut down its write side (`EPOLLRDHUP`): reads will drain
    /// to EOF, but the connection may still accept our writes.
    pub rdhup: bool,
    /// Hard error or full hang-up (`EPOLLERR`/`EPOLLHUP`): the
    /// connection is unusable.
    pub error: bool,
}

/// What a [`Reactor::poll`] call observed besides the events it pushed.
#[derive(Debug, Clone, Copy, Default)]
pub struct PollSummary {
    /// Readiness events delivered into the caller's buffer.
    pub events: usize,
    /// Another thread called [`Reactor::wake`] since the last poll.
    pub woken: bool,
    /// The poll returned because the timeout elapsed.
    pub timed_out: bool,
}

/// An epoll instance plus a wake pipe. `poll` is meant to be called from
/// one event-loop thread; `wake` may be called from any thread to
/// unblock it (job completions, shutdown).
pub struct Reactor {
    epfd: RawFd,
    wake_rd: RawFd,
    wake_wr: RawFd,
}

// Raw fds are plain integers; the kernel synchronizes epoll_ctl/wait.
unsafe impl Send for Reactor {}
unsafe impl Sync for Reactor {}

impl Reactor {
    /// Creates the epoll instance and its wake pipe (both close-on-exec;
    /// the pipe is non-blocking so `wake` never stalls).
    pub fn new() -> io::Result<Reactor> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        let mut fds = [0i32; 2];
        if unsafe { sys::pipe2(fds.as_mut_ptr(), sys::O_NONBLOCK | sys::O_CLOEXEC) } < 0 {
            let e = io::Error::last_os_error();
            unsafe { sys::close(epfd) };
            return Err(e);
        }
        let reactor = Reactor {
            epfd,
            wake_rd: fds[0],
            wake_wr: fds[1],
        };
        let mut ev = sys::EpollEvent {
            events: sys::EPOLLIN,
            data: WAKE_DATA,
        };
        if unsafe { sys::epoll_ctl(reactor.epfd, sys::EPOLL_CTL_ADD, reactor.wake_rd, &mut ev) } < 0
        {
            return Err(io::Error::last_os_error());
        }
        Ok(reactor)
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent { events, data };
        let ptr = if op == sys::EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut sys::EpollEvent
        };
        if unsafe { sys::epoll_ctl(self.epfd, op, fd, ptr) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` (which should already be non-blocking) under
    /// `token` with the given interest, level-triggered.
    pub fn register(&self, fd: &impl AsRawFd, token: Token, interest: Interest) -> io::Result<()> {
        if token.0 == WAKE_DATA {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "token u64::MAX is reserved for the reactor wake pipe",
            ));
        }
        self.ctl(sys::EPOLL_CTL_ADD, fd.as_raw_fd(), interest.bits(), token.0)
    }

    /// Changes an existing registration's token and/or interest.
    pub fn reregister(
        &self,
        fd: &impl AsRawFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        if token.0 == WAKE_DATA {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "token u64::MAX is reserved for the reactor wake pipe",
            ));
        }
        self.ctl(sys::EPOLL_CTL_MOD, fd.as_raw_fd(), interest.bits(), token.0)
    }

    /// Removes a registration. Must be called before the fd is closed,
    /// or a later fd reuse inherits the stale registration.
    pub fn deregister(&self, fd: &impl AsRawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd.as_raw_fd(), 0, 0)
    }

    /// Unblocks a concurrent (or the next) [`Reactor::poll`]. Callable
    /// from any thread; never blocks (a full wake pipe already means a
    /// wake is pending).
    pub fn wake(&self) {
        let byte = 1u8;
        unsafe { sys::write(self.wake_wr, &byte as *const u8 as *const _, 1) };
    }

    /// Waits up to `timeout` (`None` blocks indefinitely) for readiness,
    /// clearing and refilling `events`. Wake-pipe events are consumed
    /// internally and reported via [`PollSummary::woken`], not as
    /// events. `EINTR` returns an empty, non-timed-out summary so the
    /// caller's loop just re-polls.
    pub fn poll(
        &self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<PollSummary> {
        events.clear();
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(d) => {
                let mut ms = d.as_millis();
                if d.subsec_nanos() % 1_000_000 != 0 {
                    ms += 1; // round up: never spin on a sub-millisecond deadline
                }
                ms.min(i32::MAX as u128) as i32
            }
        };
        let mut raw = [sys::EpollEvent { events: 0, data: 0 }; 256];
        let n =
            unsafe { sys::epoll_wait(self.epfd, raw.as_mut_ptr(), raw.len() as i32, timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(PollSummary::default());
            }
            return Err(e);
        }
        let mut summary = PollSummary {
            events: 0,
            woken: false,
            timed_out: n == 0,
        };
        for ev in &raw[..n as usize] {
            let (bits, data) = (ev.events, ev.data);
            if data == WAKE_DATA {
                summary.woken = true;
                self.drain_wake_pipe();
                continue;
            }
            events.push(Event {
                token: Token(data),
                readable: bits & sys::EPOLLIN != 0,
                writable: bits & sys::EPOLLOUT != 0,
                rdhup: bits & sys::EPOLLRDHUP != 0,
                error: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }
        summary.events = events.len();
        Ok(summary)
    }

    fn drain_wake_pipe(&self) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe { sys::read(self.wake_rd, buf.as_mut_ptr() as *mut _, buf.len()) };
            if n < buf.len() as isize {
                break; // drained (or EAGAIN / short read)
            }
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.wake_rd);
            sys::close(self.wake_wr);
            sys::close(self.epfd);
        }
    }
}

/// Raises the process's soft `RLIMIT_NOFILE` toward `want` (bounded by
/// the hard limit) and returns the resulting soft limit. Benchmarks that
/// open ten thousand sockets call this first; failures are non-fatal and
/// simply return the current limit.
pub fn raise_nofile_limit(want: u64) -> u64 {
    let mut lim = sys::RLimit { cur: 0, max: 0 };
    if unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) } != 0 {
        return 0;
    }
    if lim.cur >= want {
        return lim.cur;
    }
    let new = sys::RLimit {
        cur: want.min(lim.max),
        max: lim.max,
    };
    if unsafe { sys::setrlimit(sys::RLIMIT_NOFILE, &new) } == 0 {
        new.cur
    } else {
        lim.cur
    }
}

// ---------------------------------------------------------------------------
// Deadline wheel
// ---------------------------------------------------------------------------

/// A hashed timer wheel for coarse connection deadlines (read, write,
/// keep-alive idle). Entries are `(token, generation)` pairs;
/// cancellation is lazy — the owner bumps its generation counter and
/// simply ignores expirations whose generation is stale. That makes
/// `arm` O(1) with no removal bookkeeping, the right trade for
/// deadlines that are nearly always superseded before they fire.
pub struct DeadlineWheel {
    tick: Duration,
    slots: Vec<Vec<WheelEntry>>,
    base: Instant,
    /// Ticks fully processed so far.
    cursor: u64,
    len: usize,
}

#[derive(Clone, Copy)]
struct WheelEntry {
    token: Token,
    gen: u64,
    at_tick: u64,
}

impl DeadlineWheel {
    /// A wheel with the given tick resolution and slot count. A deadline
    /// further out than `tick * slots` wraps and is re-examined next
    /// round — correct, just one extra scan per round.
    pub fn new(tick: Duration, slots: usize) -> DeadlineWheel {
        DeadlineWheel {
            tick: tick.max(Duration::from_millis(1)),
            slots: vec![Vec::new(); slots.max(2)],
            base: Instant::now(),
            cursor: 0,
            len: 0,
        }
    }

    fn tick_of(&self, deadline: Instant) -> u64 {
        let dt = deadline.saturating_duration_since(self.base);
        let tick_ns = self.tick.as_nanos().max(1);
        let t = dt.as_nanos().div_ceil(tick_ns);
        (t.min(u64::MAX as u128) as u64).max(self.cursor + 1)
    }

    /// Schedules `(token, gen)` to expire at `deadline` (rounded up to
    /// the next tick; a past deadline fires on the very next tick).
    /// Returns the tick-rounded instant the entry fires at: the earliest
    /// `now` for which [`DeadlineWheel::expire_into`] reports it.
    pub fn arm(&mut self, token: Token, gen: u64, deadline: Instant) -> Instant {
        let at_tick = self.tick_of(deadline);
        let slot = (at_tick % self.slots.len() as u64) as usize;
        self.slots[slot].push(WheelEntry {
            token,
            gen,
            at_tick,
        });
        self.len += 1;
        self.base + self.tick * at_tick as u32
    }

    /// Advances the wheel to `now`, appending every expired
    /// `(token, generation)` to `out`. Stale generations are the
    /// caller's problem by design.
    pub fn expire_into(&mut self, now: Instant, out: &mut Vec<(Token, u64)>) {
        let target = {
            let dt = now.saturating_duration_since(self.base);
            (dt.as_nanos() / self.tick.as_nanos().max(1)).min(u64::MAX as u128) as u64
        };
        if self.len == 0 {
            self.cursor = self.cursor.max(target);
            return;
        }
        while self.cursor < target {
            self.cursor += 1;
            let slot = (self.cursor % self.slots.len() as u64) as usize;
            let cursor = self.cursor;
            let before = self.slots[slot].len();
            self.slots[slot].retain(|e| {
                if e.at_tick <= cursor {
                    out.push((e.token, e.gen));
                    false
                } else {
                    true // a later round's entry; keep it
                }
            });
            self.len -= before - self.slots[slot].len();
            if self.len == 0 {
                self.cursor = target;
                return;
            }
        }
    }

    /// Time until the next slot that holds any entry, or `None` when the
    /// wheel is empty. May be early for entries scheduled rounds ahead —
    /// the resulting poll wakeup expires nothing and re-sleeps, which is
    /// bounded to once per round per far entry.
    pub fn next_timeout(&self, now: Instant) -> Option<Duration> {
        if self.len == 0 {
            return None;
        }
        let n = self.slots.len() as u64;
        for d in 1..=n {
            let slot = ((self.cursor + d) % n) as usize;
            if !self.slots[slot].is_empty() {
                let at = self.base + self.tick * (self.cursor + d) as u32;
                return Some(at.saturating_duration_since(now));
            }
        }
        None
    }

    /// Entries currently scheduled (including lazily-cancelled ones).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn wake_unblocks_poll_and_is_not_an_event() {
        let reactor = std::sync::Arc::new(Reactor::new().unwrap());
        let r2 = std::sync::Arc::clone(&reactor);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            r2.wake();
        });
        let mut events = Vec::new();
        let summary = reactor
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        t.join().unwrap();
        assert!(summary.woken);
        assert_eq!(summary.events, 0);
        assert!(events.is_empty());
        // Drained: the next poll times out instead of re-reporting the wake.
        let summary = reactor
            .poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(!summary.woken);
        assert!(summary.timed_out);
    }

    #[test]
    fn readiness_round_trip_over_loopback() {
        let reactor = Reactor::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        reactor
            .register(&server, Token(7), Interest::READABLE)
            .unwrap();

        // Nothing to read yet.
        let mut events = Vec::new();
        let s = reactor
            .poll(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(s.timed_out, "no data: poll must time out");

        client.write_all(b"ping").unwrap();
        let s = reactor
            .poll(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(s.events, 1);
        assert_eq!(events[0].token, Token(7));
        assert!(events[0].readable);

        // Level-triggered: unread data re-reports.
        let s = reactor
            .poll(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(s.events, 1, "level-triggered readiness re-reports");

        let mut buf = [0u8; 16];
        let n = (&server).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");

        // Switch to write interest: loopback sockets are writable at once.
        reactor
            .reregister(&server, Token(8), Interest::WRITABLE)
            .unwrap();
        let s = reactor
            .poll(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(s.events, 1);
        assert_eq!(events[0].token, Token(8));
        assert!(events[0].writable);

        // Peer close surfaces as rdhup on a read-interest registration.
        reactor
            .reregister(&server, Token(9), Interest::READABLE)
            .unwrap();
        drop(client);
        let s = reactor
            .poll(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(s.events, 1);
        assert!(events[0].rdhup || events[0].readable);

        reactor.deregister(&server).unwrap();
        let s = reactor
            .poll(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(s.timed_out, "deregistered fd reports nothing");
    }

    #[test]
    fn reserved_wake_token_is_rejected() {
        let reactor = Reactor::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        assert!(reactor
            .register(&listener, Token(u64::MAX), Interest::READABLE)
            .is_err());
    }

    #[test]
    fn wheel_expires_in_order_with_lazy_cancellation() {
        let mut wheel = DeadlineWheel::new(Duration::from_millis(1), 16);
        let now = Instant::now();
        wheel.arm(Token(1), 10, now + Duration::from_millis(5));
        wheel.arm(Token(2), 20, now + Duration::from_millis(12));
        // "Cancel" token 1 by arming a superseding generation.
        wheel.arm(Token(1), 11, now + Duration::from_millis(5));
        assert_eq!(wheel.len(), 3);

        let mut fired = Vec::new();
        wheel.expire_into(now + Duration::from_millis(7), &mut fired);
        assert_eq!(fired, vec![(Token(1), 10), (Token(1), 11)]);
        fired.clear();
        wheel.expire_into(now + Duration::from_millis(30), &mut fired);
        assert_eq!(fired, vec![(Token(2), 20)]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn wheel_wraps_far_deadlines_across_rounds() {
        // 8 slots x 1 ms: a 25 ms deadline is three rounds out.
        let mut wheel = DeadlineWheel::new(Duration::from_millis(1), 8);
        let now = Instant::now();
        wheel.arm(Token(3), 1, now + Duration::from_millis(25));
        let mut fired = Vec::new();
        wheel.expire_into(now + Duration::from_millis(20), &mut fired);
        assert!(fired.is_empty(), "must not fire a wrapped deadline early");
        wheel.expire_into(now + Duration::from_millis(26), &mut fired);
        assert_eq!(fired, vec![(Token(3), 1)]);
    }

    #[test]
    fn arm_returns_the_tick_rounded_fire_instant() {
        let tick = Duration::from_millis(25);
        for offset_us in [1, 12_345, 25_000, 40_001, 1_000_000] {
            let mut wheel = DeadlineWheel::new(tick, 64);
            let deadline = Instant::now() + Duration::from_micros(offset_us);
            let fires_at = wheel.arm(Token(7), 1, deadline);
            assert!(fires_at >= deadline, "{offset_us} us");
            assert!(fires_at < deadline + tick, "{offset_us} us");
            let mut fired = Vec::new();
            wheel.expire_into(fires_at - Duration::from_nanos(1), &mut fired);
            assert!(fired.is_empty(), "{offset_us} us: fired 1 ns early");
            wheel.expire_into(fires_at, &mut fired);
            assert_eq!(fired, vec![(Token(7), 1)], "{offset_us} us");
        }
    }

    #[test]
    fn wheel_next_timeout_tracks_soonest_slot() {
        let mut wheel = DeadlineWheel::new(Duration::from_millis(10), 64);
        let now = Instant::now();
        assert!(wheel.next_timeout(now).is_none());
        wheel.arm(Token(1), 1, now + Duration::from_millis(200));
        let t = wheel.next_timeout(now).expect("armed wheel has a timeout");
        assert!(t <= Duration::from_millis(220), "{t:?}");
        assert!(t >= Duration::from_millis(150), "{t:?}");
    }

    #[test]
    fn nofile_limit_raise_is_monotonic() {
        let before = raise_nofile_limit(0);
        let after = raise_nofile_limit(before.saturating_add(1));
        assert!(after >= before);
    }
}
