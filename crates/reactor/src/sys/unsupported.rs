//! Stub backend for non-Unix targets: everything type-checks, every
//! constructor fails with `Unsupported` at runtime, which is what
//! `oc_serve::Server::start` reports on such a target.

use crate::{Event, Interest, RawFd};
use std::io;
use std::time::Duration;

fn unsupported<T>() -> io::Result<T> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "oc-reactor: readiness polling is only implemented on Unix",
    ))
}

pub struct EventBuf;

impl EventBuf {
    pub fn with_capacity(_capacity: usize) -> EventBuf {
        EventBuf
    }
}

pub struct Selector;

impl Selector {
    pub fn new() -> io::Result<Selector> {
        unsupported()
    }

    pub fn register(&self, _fd: RawFd, _token: usize, _interest: Interest) -> io::Result<()> {
        unsupported()
    }

    pub fn reregister(&self, _fd: RawFd, _token: usize, _interest: Interest) -> io::Result<()> {
        unsupported()
    }

    pub fn deregister(&self, _fd: RawFd) -> io::Result<()> {
        unsupported()
    }

    pub fn wait(
        &self,
        _buf: &mut EventBuf,
        _out: &mut Vec<Event>,
        _timeout: Option<Duration>,
    ) -> io::Result<()> {
        unsupported()
    }
}

pub fn close_fd(_fd: RawFd) {}

pub fn read_fd(_fd: RawFd, _buf: &mut [u8]) -> io::Result<usize> {
    unsupported()
}

pub fn write_fd(_fd: RawFd, _buf: &[u8]) -> io::Result<usize> {
    unsupported()
}

pub fn raise_nofile_limit() -> io::Result<u64> {
    unsupported()
}
