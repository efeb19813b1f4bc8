//! `poll(2)` fallback backend for non-Linux Unix.
//!
//! Interest is tracked in user space (a mutex-guarded map rebuilt into a
//! `pollfd` array per wait). This is O(fds) per wait — fine for the
//! portability fallback; Linux production deployments use the `epoll`
//! backend. Linux builds this module under `cfg(test)` too: the `POLL*`
//! values and `nfds_t` below are Linux's as well, so its tests run there.

use crate::{Event, Interest, RawFd};
use std::collections::BTreeMap;
use std::io;
use std::os::raw::{c_int, c_short, c_ulong};
use std::sync::Mutex;
use std::time::Duration;

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;
const POLLNVAL: c_short = 0x020;

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

extern "C" {
    // nfds_t is `unsigned long` on Linux and `unsigned int` on the BSDs;
    // passing a small value as c_ulong is ABI-compatible on the LP64
    // register conventions this fallback targets.
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

fn interest_bits(interest: Interest) -> c_short {
    let mut bits = 0;
    if interest.is_readable() {
        bits |= POLLIN;
    }
    if interest.is_writable() {
        bits |= POLLOUT;
    }
    bits
}

/// No raw buffer needed: events are converted directly out of the
/// `pollfd` snapshot.
pub struct EventBuf {
    cap: usize,
}

impl EventBuf {
    pub fn with_capacity(capacity: usize) -> EventBuf {
        EventBuf { cap: capacity }
    }
}

/// `poll(2)` selector: interest map keyed by fd (BTreeMap for a
/// deterministic pollfd order).
pub struct Selector {
    fds: Mutex<BTreeMap<RawFd, (usize, Interest)>>,
}

impl Selector {
    pub fn new() -> io::Result<Selector> {
        Ok(Selector {
            fds: Mutex::new(BTreeMap::new()),
        })
    }

    pub fn register(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let mut fds = self.fds.lock().unwrap();
        if fds.contains_key(&fd) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        fds.insert(fd, (token, interest));
        Ok(())
    }

    pub fn reregister(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let mut fds = self.fds.lock().unwrap();
        match fds.get_mut(&fd) {
            Some(entry) => {
                *entry = (token, interest);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
        }
    }

    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        let mut fds = self.fds.lock().unwrap();
        match fds.remove(&fd) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
        }
    }

    pub fn wait(
        &self,
        buf: &mut EventBuf,
        out: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<()> {
        // Snapshot under the lock, poll outside it: registrations made
        // while blocked are seen on the next wait (a Waker covers the
        // cross-thread nudge case).
        let mut pollfds: Vec<PollFd> = {
            let fds = self.fds.lock().unwrap();
            fds.iter()
                .map(|(&fd, &(_, interest))| PollFd {
                    fd,
                    events: interest_bits(interest),
                    revents: 0,
                })
                .collect()
        };
        // SAFETY: `pollfds` is a live `Vec` of `pollfd`-layout entries and
        // the kernel touches exactly `pollfds.len()` of them.
        let n = unsafe {
            poll(
                pollfds.as_mut_ptr(),
                pollfds.len() as c_ulong,
                super::timeout_ms(timeout),
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        if n == 0 {
            return Ok(());
        }
        let tokens = self.fds.lock().unwrap();
        for pfd in &pollfds {
            if pfd.revents == 0 || out.len() >= buf.cap {
                continue;
            }
            // Skip fds deregistered while we were polling (and POLLNVAL
            // from fds closed without deregistration).
            let Some(&(token, _)) = tokens.get(&pfd.fd) else {
                continue;
            };
            if pfd.revents & POLLNVAL != 0 {
                continue;
            }
            out.push(Event::new(
                token,
                pfd.revents & POLLIN != 0,
                pfd.revents & POLLOUT != 0,
                pfd.revents & POLLERR != 0,
                pfd.revents & POLLHUP != 0,
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sys::{close_fd, pipe_nonblocking, read_fd, write_fd};
    use std::time::Instant;

    /// One wait with room for a few events.
    fn wait(sel: &Selector, timeout: Duration) -> Vec<Event> {
        let mut buf = EventBuf::with_capacity(4);
        let mut out = Vec::new();
        sel.wait(&mut buf, &mut out, Some(timeout)).unwrap();
        out
    }

    /// A fresh selector and the `(read, write)` ends of a non-blocking pipe.
    fn pipe_selector() -> (Selector, RawFd, RawFd) {
        let (r, w) = pipe_nonblocking().unwrap();
        (Selector::new().unwrap(), r, w)
    }

    #[test]
    fn readable_is_level_triggered() {
        let (sel, r, w) = pipe_selector();
        sel.register(r, 7, Interest::READABLE).unwrap();
        assert!(wait(&sel, Duration::ZERO).is_empty());
        assert_eq!(write_fd(w, b"xy").unwrap(), 2);
        // Reported on every wait until the data is read.
        for _ in 0..2 {
            let events = wait(&sel, Duration::from_secs(1));
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].token(), 7);
            assert!(events[0].is_readable());
            assert!(!events[0].is_writable());
        }
        let mut buf = [0u8; 8];
        assert_eq!(read_fd(r, &mut buf).unwrap(), 2);
        assert!(wait(&sel, Duration::ZERO).is_empty());
        close_fd(r);
        close_fd(w);
    }

    #[test]
    fn writable_then_deregister() {
        let (sel, r, w) = pipe_selector();
        sel.register(w, 3, Interest::READABLE).unwrap();
        assert!(wait(&sel, Duration::ZERO).is_empty());
        sel.reregister(w, 4, Interest::WRITABLE).unwrap();
        let events = wait(&sel, Duration::from_secs(1));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token(), 4);
        assert!(events[0].is_writable());
        assert!(!events[0].is_readable());
        sel.deregister(w).unwrap();
        assert!(wait(&sel, Duration::ZERO).is_empty());
        close_fd(r);
        close_fd(w);
    }

    #[test]
    fn a_wait_never_ends_before_its_timeout() {
        let (sel, r, w) = pipe_selector();
        sel.register(r, 1, Interest::READABLE).unwrap();
        for timeout in [
            Duration::from_micros(1),
            Duration::from_micros(1_500),
            Duration::from_millis(10),
        ] {
            let start = Instant::now();
            assert!(wait(&sel, timeout).is_empty());
            let waited = start.elapsed();
            assert!(waited >= timeout, "{waited:?} < {timeout:?}");
        }
        close_fd(r);
        close_fd(w);
    }

    #[test]
    fn duplicate_and_unknown_registrations_are_refused() {
        let (sel, r, w) = pipe_selector();
        sel.register(r, 1, Interest::READABLE).unwrap();
        let kind = |res: io::Result<()>| res.unwrap_err().kind();
        assert_eq!(
            kind(sel.register(r, 2, Interest::WRITABLE)),
            io::ErrorKind::AlreadyExists
        );
        assert_eq!(
            kind(sel.reregister(w, 2, Interest::WRITABLE)),
            io::ErrorKind::NotFound
        );
        assert_eq!(kind(sel.deregister(w)), io::ErrorKind::NotFound);
        sel.deregister(r).unwrap();
        assert_eq!(kind(sel.deregister(r)), io::ErrorKind::NotFound);
        close_fd(r);
        close_fd(w);
    }
}
