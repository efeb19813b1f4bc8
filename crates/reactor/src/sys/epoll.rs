//! Linux `epoll` backend (level-triggered).

use crate::{Event, Interest, RawFd};
use std::io;
use std::os::raw::c_int;
use std::time::Duration;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

// The kernel ABI packs epoll_event on x86-64 (12 bytes, no padding
// between `events` and `data`); other architectures use natural C layout.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
}

fn interest_bits(interest: Interest) -> u32 {
    let mut bits = EPOLLRDHUP;
    if interest.is_readable() {
        bits |= EPOLLIN;
    }
    if interest.is_writable() {
        bits |= EPOLLOUT;
    }
    bits
}

/// Raw `epoll_event` buffer reused across waits.
pub struct EventBuf {
    raw: Vec<EpollEvent>,
}

impl EventBuf {
    pub fn with_capacity(capacity: usize) -> EventBuf {
        EventBuf {
            raw: vec![EpollEvent { events: 0, data: 0 }; capacity],
        }
    }
}

/// `epoll` selector: one epoll instance, closed on drop.
pub struct Selector {
    epfd: RawFd,
}

impl Selector {
    pub fn new() -> io::Result<Selector> {
        // SAFETY: `epoll_create1` takes a flags word and no pointers; the
        // returned fd (or -1) is checked below before it is used.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Selector { epfd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest_bits(interest),
            data: token as u64,
        };
        // SAFETY: `ev` is a live, properly laid-out `epoll_event` for the
        // whole call, and the kernel only reads it for ADD/MOD.
        if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn register(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    pub fn reregister(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        // A zeroed event for DEL: required on pre-2.6.9 kernels, harmless
        // everywhere else.
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: `ev` is a live `epoll_event` for the whole call; DEL
        // ignores it on current kernels.
        if unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn wait(
        &self,
        buf: &mut EventBuf,
        out: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<()> {
        // SAFETY: the kernel writes at most `buf.raw.len()` events into
        // `buf.raw`, which is borrowed mutably for the whole call, and
        // only the first `n` (checked below) are read back.
        let n = unsafe {
            epoll_wait(
                self.epfd,
                buf.raw.as_mut_ptr(),
                buf.raw.len() as c_int,
                super::timeout_ms(timeout),
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(()); // EINTR: report as an empty wait
            }
            return Err(err);
        }
        for raw in &buf.raw[..n as usize] {
            // Copy out of the (possibly packed) struct before reading.
            let bits = raw.events;
            let data = raw.data;
            out.push(Event::new(
                data as usize,
                bits & EPOLLIN != 0,
                bits & EPOLLOUT != 0,
                bits & EPOLLERR != 0,
                bits & (EPOLLRDHUP | EPOLLHUP) != 0,
            ));
        }
        Ok(())
    }
}

impl Drop for Selector {
    fn drop(&mut self) {
        super::close_fd(self.epfd);
    }
}
