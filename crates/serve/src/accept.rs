//! The accept loop: takes connections off the listener and hands them to
//! the reactor pool.
//!
//! The listener itself is readiness-driven (an `oc-reactor` poller plus
//! a waker), so the accept thread sleeps until a connection arrives or
//! the server is stopped — there is no fixed-interval stop poll and no
//! shutdown latency floor. A `set_nonblocking` failure on an accepted
//! socket is counted in `serve.accept.errors` and traced, never silently
//! dropped.

use crate::reactor::ReactorPool;
use crate::server::{reject_over_cap, Shared};
use oc_reactor::{Events, Interest, Poller, Waker};
use oc_telemetry::trace;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use std::os::unix::io::AsRawFd;

/// Poller token for the listening socket.
const LISTENER_TOKEN: usize = 0;
/// Poller token for the accept thread's shutdown waker.
const ACCEPT_WAKE_TOKEN: usize = 1;

/// How long the accept loop sleeps after a resource-exhaustion accept
/// error (e.g. `EMFILE`) before trying again, so it cannot spin.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Runs the accept loop until the stop flag is raised. The listener is
/// non-blocking and polled for readiness together with `waker` (which
/// [`crate::server::Server`] fires on shutdown).
pub(crate) fn accept_loop(
    listener: TcpListener,
    poller: Poller,
    waker: Arc<Waker>,
    reactor: Arc<ReactorPool>,
    shared: Arc<Shared>,
) {
    let mut events = Events::with_capacity(8);
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        if poller.wait(&mut events, None).is_err() {
            break;
        }
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let mut accept_ready = false;
        for ev in &events {
            match ev.token() {
                ACCEPT_WAKE_TOKEN => waker.drain(),
                LISTENER_TOKEN => accept_ready = true,
                _ => {}
            }
        }
        if !accept_ready {
            continue;
        }
        loop {
            match listener.accept() {
                Ok((stream, _)) => handle_accepted(stream, &reactor, &shared),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    // Transient exhaustion (EMFILE/ENFILE/ECONNABORTED):
                    // count it, note it in the trace, and back off so a
                    // full fd table cannot spin this thread.
                    note_accept_error(&shared, &e);
                    std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                    break;
                }
            }
        }
    }
}

/// Counts and traces an accept-path failure (`serve.accept.errors`).
pub(crate) fn note_accept_error(shared: &Shared, e: &std::io::Error) {
    shared.accept_errors.inc();
    trace::event(
        "serve.accept.error",
        e.raw_os_error().unwrap_or(0) as u64,
        0,
    );
}

/// Hands an accepted socket to the reactor pool, enforcing the
/// connection cap.
fn handle_accepted(stream: TcpStream, reactor: &ReactorPool, shared: &Shared) {
    if let Err(e) = stream.set_nonblocking(true) {
        note_accept_error(shared, &e);
        return;
    }
    let live = shared.connections.get();
    if live >= shared.cfg.max_connections as i64 {
        shared.conn_rejects.inc();
        trace::event("serve.conn.reject", live.max(0) as u64, 0);
        reject_over_cap(stream, shared);
        return;
    }
    shared.connections.inc();
    reactor.submit(stream);
}

/// Creates the accept poller with the listener registered, switching the
/// listener to non-blocking mode. The waker is registered under
/// [`ACCEPT_WAKE_TOKEN`] and returned for the shutdown path.
pub(crate) fn accept_poller(listener: &TcpListener) -> std::io::Result<(Poller, Arc<Waker>)> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
    let waker = Arc::new(Waker::new(&poller, ACCEPT_WAKE_TOKEN)?);
    Ok((poller, waker))
}
