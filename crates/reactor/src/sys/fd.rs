//! Shared Unix fd helpers: pipe creation, raw read/write/close, and the
//! best-effort `RLIMIT_NOFILE` raise.

use crate::RawFd;
use std::io;
use std::os::raw::{c_int, c_void};

extern "C" {
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
}

#[cfg(target_os = "linux")]
extern "C" {
    fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
}

#[cfg(not(target_os = "linux"))]
extern "C" {
    fn pipe(fds: *mut c_int) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
}

#[repr(C)]
struct Rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

#[cfg(target_os = "linux")]
const RLIMIT_NOFILE: c_int = 7;
#[cfg(not(target_os = "linux"))]
const RLIMIT_NOFILE: c_int = 8; // macOS / BSD value

extern "C" {
    fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
}

/// Close an fd, ignoring errors (used from `Drop` paths).
pub fn close_fd(fd: RawFd) {
    // SAFETY: `close` takes no pointers; callers pass an fd they own and
    // never use again, so no other handle is invalidated behind its back.
    unsafe {
        close(fd);
    }
}

/// Raw non-blocking read. Returns `Ok(0)` on EOF.
pub fn read_fd(fd: RawFd, buf: &mut [u8]) -> io::Result<usize> {
    // SAFETY: the kernel writes at most `buf.len()` bytes into `buf`,
    // which is borrowed mutably for the whole call.
    let n = unsafe { read(fd, buf.as_mut_ptr() as *mut c_void, buf.len()) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

/// Raw non-blocking write.
pub fn write_fd(fd: RawFd, buf: &[u8]) -> io::Result<usize> {
    // SAFETY: the kernel reads at most `buf.len()` bytes from `buf`,
    // which is borrowed for the whole call.
    let n = unsafe { write(fd, buf.as_ptr() as *const c_void, buf.len()) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

/// Create a non-blocking close-on-exec pipe; returns `(read, write)`.
#[cfg(target_os = "linux")]
pub fn pipe_nonblocking() -> io::Result<(RawFd, RawFd)> {
    const O_NONBLOCK: c_int = 0o4000;
    const O_CLOEXEC: c_int = 0o2000000;
    let mut fds = [0 as c_int; 2];
    // SAFETY: `fds` is a live two-element `c_int` array, exactly what
    // `pipe2` writes.
    if unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((fds[0], fds[1]))
}

/// Create a non-blocking close-on-exec pipe; returns `(read, write)`.
/// Non-Linux Unix lacks `pipe2`, so flags are applied with `fcntl`
/// afterwards (a benign race in multi-threaded exec'ing programs; this
/// workspace does not exec between the two calls).
#[cfg(not(target_os = "linux"))]
pub fn pipe_nonblocking() -> io::Result<(RawFd, RawFd)> {
    const F_SETFL: c_int = 4;
    const F_SETFD: c_int = 2;
    const FD_CLOEXEC: c_int = 1;
    const O_NONBLOCK: c_int = 0o4; // macOS / BSD value
    let mut fds = [0 as c_int; 2];
    // SAFETY: `fds` is a live two-element `c_int` array, exactly what
    // `pipe` writes.
    if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    for fd in fds {
        // SAFETY: `fcntl` with F_SETFL and an integer argument takes no
        // pointers; `fd` was just created by `pipe`.
        if unsafe { fcntl(fd, F_SETFL, O_NONBLOCK) } < 0
            // SAFETY: as above, F_SETFD with an integer argument.
            || unsafe { fcntl(fd, F_SETFD, FD_CLOEXEC) } < 0
        {
            let err = io::Error::last_os_error();
            close_fd(fds[0]);
            close_fd(fds[1]);
            return Err(err);
        }
    }
    Ok((fds[0], fds[1]))
}

/// Best-effort raise of the `RLIMIT_NOFILE` soft limit to the hard
/// limit. Returns the soft limit now in effect; a denied raise (e.g. no
/// `CAP_SYS_RESOURCE` trying to exceed the hard cap — not possible here,
/// we only go up to it) degrades to the old soft limit.
pub fn raise_nofile_limit() -> io::Result<u64> {
    let mut lim = Rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: `lim` is a live `Rlimit` with the C `struct rlimit` layout
    // for the whole call.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return Err(io::Error::last_os_error());
    }
    if lim.rlim_cur >= lim.rlim_max {
        return Ok(lim.rlim_cur);
    }
    let want = Rlimit {
        rlim_cur: lim.rlim_max,
        rlim_max: lim.rlim_max,
    };
    // SAFETY: `want` is a live `Rlimit` with the C `struct rlimit` layout,
    // only read by the kernel.
    if unsafe { setrlimit(RLIMIT_NOFILE, &want) } != 0 {
        return Ok(lim.rlim_cur); // best-effort: keep the old soft limit
    }
    Ok(want.rlim_cur)
}
