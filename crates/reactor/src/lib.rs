//! Vendored std-only readiness polling.
//!
//! This crate is the workspace's stand-in for `mio`/`polling` (the build
//! environment has no crates.io access, so we vendor a minimal wrapper
//! over the OS readiness APIs). It provides:
//!
//! - [`Poller`] — a level-triggered readiness selector backed by `epoll`
//!   on Linux and `poll(2)` on other Unix systems. The crate builds only
//!   on Unix targets.
//! - [`Waker`] — a pipe-based cross-thread wakeup handle tied to a
//!   reserved token, so a blocked [`Poller::wait`] can be interrupted
//!   without a polling interval (used by oc-serve's accept loop and
//!   reactor threads for prompt shutdown).
//! - [`raise_nofile_limit`] — best-effort `RLIMIT_NOFILE` soft-to-hard
//!   raise for high fan-in servers and load generators.
//!
//! The API is deliberately tiny and synchronous: one selector per thread,
//! `register`/`reregister`/`deregister` by raw fd, and a `wait` that fills
//! a caller-owned [`Events`] buffer. All readiness is level-triggered:
//! callers must drain (read to `WouldBlock` / write until blocked) or
//! de-assert interest, or `wait` will report the same readiness again.
//!
//! This is the only crate in the workspace that contains `unsafe` code
//! (raw FFI to the libc symbols already linked into every Rust binary);
//! everything above it — oc-serve's reactor, the client load driver —
//! stays `#![forbid(unsafe_code)]`.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

use std::io;
use std::ops::BitOr;
use std::time::Duration;

mod sys;

/// Raw OS file descriptor accepted by [`Poller`] registration calls.
pub type RawFd = std::os::unix::io::RawFd;

/// Readiness interest: which directions of I/O a registration wants
/// reported. Combine with `|`: `Interest::READABLE | Interest::WRITABLE`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interest(u8);

impl Interest {
    /// Wake when the fd is readable (data, EOF, or peer close).
    pub const READABLE: Interest = Interest(0b01);
    /// Wake when the fd is writable (send buffer has room again).
    pub const WRITABLE: Interest = Interest(0b10);

    /// True if this interest includes readability.
    pub fn is_readable(self) -> bool {
        self.0 & Self::READABLE.0 != 0
    }

    /// True if this interest includes writability.
    pub fn is_writable(self) -> bool {
        self.0 & Self::WRITABLE.0 != 0
    }
}

impl BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        Interest(self.0 | rhs.0)
    }
}

/// One readiness notification returned by [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    token: usize,
    readable: bool,
    writable: bool,
    error: bool,
    read_closed: bool,
}

impl Event {
    pub(crate) fn new(
        token: usize,
        readable: bool,
        writable: bool,
        error: bool,
        read_closed: bool,
    ) -> Event {
        Event {
            token,
            readable,
            writable,
            error,
            read_closed,
        }
    }

    /// The token supplied at registration time.
    pub fn token(self) -> usize {
        self.token
    }

    /// Readable — includes EOF/peer-close/error conditions, so a caller
    /// that only checks `is_readable` will still observe the close when
    /// its next read returns 0 or an error.
    pub fn is_readable(self) -> bool {
        self.readable || self.error || self.read_closed
    }

    /// Writable (or in an error state, which a write will surface).
    pub fn is_writable(self) -> bool {
        self.writable || self.error
    }
}

/// Reusable buffer of [`Event`]s filled by [`Poller::wait`].
pub struct Events {
    sys: sys::EventBuf,
    list: Vec<Event>,
}

impl Events {
    /// Create a buffer that can report up to `capacity` events per wait.
    /// More ready fds than `capacity` are reported on subsequent waits
    /// (level-triggered readiness persists until handled).
    pub fn with_capacity(capacity: usize) -> Events {
        let capacity = capacity.max(1);
        Events {
            sys: sys::EventBuf::with_capacity(capacity),
            list: Vec::with_capacity(capacity),
        }
    }

    /// Iterate over the events from the most recent wait.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.list.iter()
    }

    /// Number of events from the most recent wait.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True if the most recent wait returned no events (timeout).
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }
}

impl<'a> IntoIterator for &'a Events {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.list.iter()
    }
}

/// A level-triggered readiness selector (`epoll` on Linux, `poll(2)` on
/// other Unix systems).
///
/// Tokens are caller-chosen `usize` values echoed back in events; the
/// poller does not interpret them. Registering an fd that is already
/// registered is an error on Linux (`EEXIST`) — use [`Poller::reregister`]
/// to change token or interest. Closing an fd removes it from an epoll
/// set automatically, but prefer explicit [`Poller::deregister`] so the
/// `poll(2)` backend (which tracks interest in user space) stays in sync.
pub struct Poller {
    sel: sys::Selector,
}

impl Poller {
    /// Create a new selector.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            sel: sys::Selector::new()?,
        })
    }

    /// Start watching `fd` with the given token and interest.
    pub fn register(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.sel.register(fd, token, interest)
    }

    /// Change the token and/or interest of an already-registered fd.
    pub fn reregister(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.sel.reregister(fd, token, interest)
    }

    /// Stop watching `fd`.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.sel.deregister(fd)
    }

    /// Block until at least one registered fd is ready, `timeout` elapses
    /// (`None` blocks indefinitely), or a [`Waker`] fires. Fills `events`
    /// and returns the number of events. A signal interruption (`EINTR`)
    /// is reported as an empty wait, not an error.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        events.list.clear();
        self.sel.wait(&mut events.sys, &mut events.list, timeout)?;
        Ok(events.list.len())
    }
}

/// Cross-thread wakeup handle for a [`Poller`].
///
/// Internally a non-blocking pipe whose read end is registered with the
/// poller under a caller-reserved token. [`Waker::wake`] is async-safe to
/// call from any thread; the poller's owning thread must call
/// [`Waker::drain`] when it sees the token, or (level-triggered) every
/// subsequent wait returns immediately.
///
/// The waker must not outlive its poller's use of it: dropping the waker
/// closes the pipe but does not deregister it (the `epoll` backend cleans
/// up on close; the `poll(2)` backend requires an explicit
/// [`Poller::deregister`] first).
pub struct Waker {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl Waker {
    /// Create a waker and register its read end with `poller` under
    /// `token`.
    pub fn new(poller: &Poller, token: usize) -> io::Result<Waker> {
        let (read_fd, write_fd) = sys::pipe_nonblocking()?;
        let waker = Waker { read_fd, write_fd };
        poller.register(read_fd, token, Interest::READABLE)?;
        Ok(waker)
    }

    /// The registered read-end fd (for explicit deregistration).
    pub fn fd(&self) -> RawFd {
        self.read_fd
    }

    /// Wake the poller. Idempotent while a wake is pending: if the pipe
    /// is already full the poller is guaranteed to wake, so a would-block
    /// write counts as success.
    pub fn wake(&self) -> io::Result<()> {
        match sys::write_fd(self.write_fd, &[1u8]) {
            Ok(_) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => self.wake(),
            Err(e) => Err(e),
        }
    }

    /// Consume all pending wakeups. Call from the poller thread when an
    /// event with the waker's token is seen.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            match sys::read_fd(self.read_fd, &mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        sys::close_fd(self.read_fd);
        sys::close_fd(self.write_fd);
    }
}

/// Best-effort raise of the process `RLIMIT_NOFILE` soft limit to the
/// hard limit. Returns the soft limit now in effect (the old one if the
/// raise failed or was unnecessary). High fan-in callers (the reactor
/// server, the 10k-connection load generator) call this at startup; a
/// failure is not an error — the caller just lives with the smaller
/// limit and its connection cap.
pub fn raise_nofile_limit() -> io::Result<u64> {
    sys::raise_nofile_limit()
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::Instant;

    #[test]
    fn timeout_elapses_without_events() {
        let poller = Poller::new().unwrap();
        let mut events = Events::with_capacity(4);
        let start = Instant::now();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert_eq!(n, 0);
        assert!(events.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    /// A timeout between whole milliseconds is not cut short: a caller
    /// that waits for a due time finds it due when the wait returns.
    #[test]
    fn a_wait_never_ends_before_its_timeout() {
        let poller = Poller::new().unwrap();
        let mut events = Events::with_capacity(4);
        for us in [1_900, 2_500, 14_700] {
            let timeout = Duration::from_micros(us);
            let start = Instant::now();
            poller.wait(&mut events, Some(timeout)).unwrap();
            let took = start.elapsed();
            assert!(
                took >= timeout,
                "a {timeout:?} wait returned after {took:?}"
            );
        }
    }

    #[test]
    fn readable_event_is_level_triggered() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller
            .register(rx.as_raw_fd(), 7, Interest::READABLE)
            .unwrap();
        tx.write_all(b"ping").unwrap();

        let mut events = Events::with_capacity(4);
        // Level-triggered: unread data keeps reporting until drained.
        for _ in 0..2 {
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(2)))
                .unwrap();
            assert_eq!(n, 1);
            let ev = events.iter().next().unwrap();
            assert_eq!(ev.token(), 7);
            assert!(ev.is_readable());
        }

        let mut rx_nb = rx;
        let mut buf = [0u8; 16];
        assert_eq!(rx_nb.read(&mut buf).unwrap(), 4);
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn writable_then_deregister() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (_rx, _) = listener.accept().unwrap();
        tx.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller
            .register(tx.as_raw_fd(), 3, Interest::WRITABLE)
            .unwrap();
        let mut events = Events::with_capacity(4);
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events.iter().next().unwrap().is_writable());

        poller
            .reregister(tx.as_raw_fd(), 3, Interest::READABLE)
            .unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0, "readable interest must mask writability");

        poller.deregister(tx.as_raw_fd()).unwrap();
        poller
            .register(tx.as_raw_fd(), 9, Interest::WRITABLE)
            .unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events.iter().next().unwrap().token(), 9);
    }

    #[test]
    fn waker_interrupts_blocked_wait() {
        let poller = std::sync::Arc::new(Poller::new().unwrap());
        let waker = std::sync::Arc::new(Waker::new(&poller, 0).unwrap());

        let w = std::sync::Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            w.wake().unwrap();
        });

        let mut events = Events::with_capacity(4);
        let start = Instant::now();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events.iter().next().unwrap().token(), 0);
        assert!(start.elapsed() < Duration::from_secs(5));
        waker.drain();

        // Drained: the next wait times out instead of re-reporting.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0);
        handle.join().unwrap();

        // Coalescing: many wakes, one drain.
        for _ in 0..1000 {
            waker.wake().unwrap();
        }
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);
        waker.drain();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn raise_nofile_is_best_effort() {
        // Must not error on Unix; the value is whatever the host grants.
        let limit = raise_nofile_limit().unwrap();
        assert!(limit > 0);
    }
}
