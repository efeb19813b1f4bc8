//! Platform backends. All `unsafe` in the crate lives below this module:
//! raw `extern "C"` declarations for the libc symbols every Rust binary
//! already links (no external crates — the build environment vendors
//! everything).

#[cfg(unix)]
mod fd;
#[cfg(unix)]
pub use fd::{close_fd, pipe_nonblocking, raise_nofile_limit, read_fd, write_fd};

#[cfg(target_os = "linux")]
mod epoll;
#[cfg(target_os = "linux")]
pub use epoll::{EventBuf, Selector};

#[cfg(all(unix, not(target_os = "linux")))]
mod poll;
#[cfg(all(unix, not(target_os = "linux")))]
pub use poll::{EventBuf, Selector};

#[cfg(not(unix))]
mod unsupported;
#[cfg(not(unix))]
pub use unsupported::{
    close_fd, pipe_nonblocking, raise_nofile_limit, read_fd, write_fd, EventBuf, Selector,
};

/// A wait's timeout in whole milliseconds for `epoll_wait`/`poll`
/// (`-1`: none), rounded up so a wait never ends before its timeout.
#[cfg(unix)]
fn timeout_ms(timeout: Option<std::time::Duration>) -> std::os::raw::c_int {
    timeout.map_or(-1, |d| {
        let ms = d.as_nanos().div_ceil(1_000_000);
        ms.min(std::os::raw::c_int::MAX as u128) as std::os::raw::c_int
    })
}
