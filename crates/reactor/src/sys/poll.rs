//! `poll(2)` fallback backend for non-Linux Unix.
//!
//! Interest is tracked in user space (a mutex-guarded map rebuilt into a
//! `pollfd` array per wait). This is O(fds) per wait — fine for the
//! portability fallback; Linux production deployments use the `epoll`
//! backend.

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
