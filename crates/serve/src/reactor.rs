//! The readiness-driven reactor: the server's one connection frontend.
//!
//! A small fixed pool of reactor threads (sized by
//! [`crate::config::ServeConfig::reactor_threads`]) each owns an
//! `oc-reactor` poller and an interest list, and drives per-connection
//! state machines: read-accumulate ([`LineAccumulator`]) → parse via the
//! zero-copy codec → apply under the owning shard's lock → buffered
//! non-blocking write with would-block re-arm. While a thread applies it
//! does not read, so an overloaded server gates its senders through TCP. Tens of thousands of
//! mostly-idle connections multiplex onto a few threads.
//!
//! **Readiness semantics.** Polling is level-triggered. A readable
//! connection is drained to `WouldBlock` (or the write high-water mark,
//! see below) per event, [`READ_SCRATCH`] bytes per read; complete lines
//! are processed in arrival order and every response byte is appended to
//! the connection's output buffer, preserving the
//! one-response-per-request-in-order contract.
//!
//! **Write backpressure.** Responses are written opportunistically after
//! every read: its lines are answered before the next read is taken, so
//! a pipelining client gets its first replies while it still sends. On
//! `WouldBlock` the remainder stays
//! buffered, `WRITABLE` interest is armed, and
//! `serve.reactor.writes_blocked` ticks. While more than
//! [`OUTBUF_HIGH_WATER`] bytes are pending the connection's `READABLE`
//! interest is dropped — a peer that pipelines requests without reading
//! responses is throttled instead of growing the buffer without bound. A
//! peer that stays unwritable for `write_timeout` is disconnected.
//!
//! **Deadlines.** Each reactor thread sweeps its connections on a
//! fraction of the tightest configured deadline: idle connections get
//! `ERR timeout` and a drain-then-close; any read progress (even a
//! partial line) counts as activity.
//!
//! **Shutdown.** [`ReactorPool::stop_and_join`] wakes every thread via
//! its [`Waker`]; each applies pending observe chunks, makes one best-
//! effort write pass, drops its connections, and exits — so shutdown
//! latency is bounded by the in-flight work, not a polling interval, and
//! the shards hold every acknowledged sample once the threads are joined.

use crate::accept::note_accept_error;
use crate::conn::{
    flush_chunk, idle_resp, oversize_resp, process_line, ConnState, Feed, LineAccumulator,
};
use crate::server::Shared;
use crate::shard::ShardPool;
use oc_reactor::{Events, Interest, Poller, Waker};
use oc_telemetry::trace;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poller token reserved for each reactor thread's waker.
const WAKE_TOKEN: usize = usize::MAX;

/// Pending response bytes above which a connection stops being read
/// (write backpressure); reading resumes once the buffer drains.
pub(crate) const OUTBUF_HIGH_WATER: usize = 256 * 1024;

/// Bytes one read takes at most; each read's lines are answered before
/// the next. One buffer per reactor thread, shared by all of its
/// connections.
const READ_SCRATCH: usize = 8 * 1024;

/// New-connection handoff slot for one reactor thread.
struct Injector {
    queue: Mutex<Vec<TcpStream>>,
    waker: Waker,
}

/// The reactor thread pool. Accepted sockets are handed to threads
/// round-robin via [`ReactorPool::submit`].
pub(crate) struct ReactorPool {
    injectors: Vec<Arc<Injector>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    next: AtomicUsize,
}

impl ReactorPool {
    /// Spawns `threads` reactor threads sharing `pool` and `shared`.
    pub(crate) fn start(
        threads: usize,
        pool: &Arc<ShardPool>,
        shared: &Arc<Shared>,
    ) -> std::io::Result<ReactorPool> {
        let threads = threads.max(1);
        let mut injectors = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let poller = Poller::new()?;
            let waker = Waker::new(&poller, WAKE_TOKEN)?;
            let injector = Arc::new(Injector {
                queue: Mutex::new(Vec::new()),
                waker,
            });
            let thread_injector = Arc::clone(&injector);
            let thread_pool = Arc::clone(pool);
            let thread_shared = Arc::clone(shared);
            let handle = std::thread::Builder::new()
                .name(format!("oc-serve-reactor-{i}"))
                .spawn(move || {
                    ReactorThread::new(poller, thread_injector, thread_pool, thread_shared).run()
                })?;
            injectors.push(injector);
            handles.push(handle);
        }
        Ok(ReactorPool {
            injectors,
            handles: Mutex::new(handles),
            next: AtomicUsize::new(0),
        })
    }

    /// Hands an accepted (non-blocking) socket to a reactor thread. The
    /// caller has already counted it in `serve.connections`.
    pub(crate) fn submit(&self, stream: TcpStream) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.injectors.len();
        self.injectors[i]
            .queue
            .lock()
            .expect("reactor injector lock")
            .push(stream);
        let _ = self.injectors[i].waker.wake();
    }

    /// Wakes every reactor thread (the server's stop flag is already
    /// set) and joins them. After this returns every sample a connection
    /// had buffered is applied. `false` if a thread had panicked.
    pub(crate) fn stop_and_join(&self) -> bool {
        for injector in &self.injectors {
            let _ = injector.waker.wake();
        }
        let handles: Vec<JoinHandle<()>> = self
            .handles
            .lock()
            .expect("reactor handles lock")
            .drain(..)
            .collect();
        let mut clean = true;
        for h in handles {
            clean &= h.join().is_ok();
        }
        clean
    }
}

/// One reactor-owned connection.
struct RConn {
    stream: TcpStream,
    /// This connection's slot index — also its poller token.
    slot: usize,
    acc: LineAccumulator,
    state: ConnState,
    /// Buffered, not-yet-written response bytes (`outbuf[outpos..]`).
    outbuf: Vec<u8>,
    outpos: usize,
    last_activity: Instant,
    /// When the peer stopped accepting writes (`WouldBlock`); cleared on
    /// progress. Exceeding `write_timeout` disconnects.
    blocked_since: Option<Instant>,
    /// Interest currently registered with the poller.
    registered: (bool, bool),
    /// No more reads (peer EOF or idle-close sent); close once the
    /// output buffer drains.
    draining: bool,
}

/// A connection to drop now: a transport error, a passed deadline, or a
/// draining connection with nothing left to send. Pending output, if
/// any, is undeliverable.
struct Close;

struct ReactorThread {
    poller: Poller,
    injector: Arc<Injector>,
    pool: Arc<ShardPool>,
    shared: Arc<Shared>,
    conns: Vec<Option<RConn>>,
    free: Vec<usize>,
    events: Events,
    /// Event batch copied out of `events` so connection handling can
    /// borrow `self` mutably.
    batch: Vec<(usize, bool, bool)>,
    scratch: Vec<u8>,
    sweep: Duration,
    last_sweep: Instant,
}

impl ReactorThread {
    fn new(
        poller: Poller,
        injector: Arc<Injector>,
        pool: Arc<ShardPool>,
        shared: Arc<Shared>,
    ) -> ReactorThread {
        // Sweep deadlines at a fraction of the tightest one, bounded so
        // an idle reactor neither spins nor sleeps through shutdown
        // fallback (the waker is the primary shutdown signal).
        let tightest = shared.cfg.idle_timeout.min(shared.cfg.write_timeout);
        let sweep = (tightest / 4).clamp(Duration::from_millis(5), Duration::from_millis(500));
        ReactorThread {
            poller,
            injector,
            pool,
            shared,
            conns: Vec::new(),
            free: Vec::new(),
            events: Events::with_capacity(1024),
            batch: Vec::new(),
            scratch: vec![0u8; READ_SCRATCH],
            sweep,
            last_sweep: Instant::now(),
        }
    }

    fn run(mut self) {
        loop {
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            if self
                .poller
                .wait(&mut self.events, Some(self.sweep))
                .is_err()
            {
                break; // poller failure is unrecoverable for this thread
            }
            self.shared.reactor_wakeups.inc();
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            self.batch.clear();
            let mut woken = false;
            for ev in &self.events {
                if ev.token() == WAKE_TOKEN {
                    woken = true;
                } else {
                    self.batch
                        .push((ev.token(), ev.is_readable(), ev.is_writable()));
                }
            }
            if woken {
                self.injector.waker.drain();
                self.adopt_new();
            }
            for i in 0..self.batch.len() {
                let (slot, readable, writable) = self.batch[i];
                self.handle_event(slot, readable, writable);
            }
            if self.last_sweep.elapsed() >= self.sweep {
                self.last_sweep = Instant::now();
                self.sweep_deadlines();
            }
        }
        self.shutdown_conns();
    }

    /// Registers every connection handed over since the last wake.
    fn adopt_new(&mut self) {
        let streams: Vec<TcpStream> =
            std::mem::take(&mut *self.injector.queue.lock().expect("reactor injector lock"));
        for stream in streams {
            self.register_conn(stream);
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        if let Err(e) = self
            .poller
            .register(stream.as_raw_fd(), slot, Interest::READABLE)
        {
            self.free.push(slot);
            self.drop_unregistered(&e);
            return;
        }
        self.conns[slot] = Some(RConn {
            stream,
            slot,
            acc: LineAccumulator::new(),
            state: ConnState::new(),
            outbuf: Vec::with_capacity(1024),
            outpos: 0,
            last_activity: Instant::now(),
            blocked_since: None,
            registered: (true, false),
            draining: false,
        });
        self.shared.reactor_conns.inc();
    }

    /// A connection failed before it ever joined the interest list; it
    /// was already counted live by the accept loop.
    fn drop_unregistered(&self, err: &std::io::Error) {
        note_accept_error(&self.shared, err);
        self.shared.connections.dec();
    }

    fn handle_event(&mut self, slot: usize, readable: bool, writable: bool) {
        let Some(mut conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return; // closed earlier in this batch
        };
        match self.drive(&mut conn, readable, writable) {
            Ok(()) => self.conns[slot] = Some(conn),
            Err(Close) => self.close(slot, conn),
        }
    }

    fn close(&mut self, slot: usize, conn: RConn) {
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.free.push(slot);
        self.shared.reactor_conns.dec();
        self.shared.connections.dec();
        drop(conn);
    }

    /// Advances one connection's state machine for a readiness event.
    fn drive(&mut self, conn: &mut RConn, readable: bool, writable: bool) -> Result<(), Close> {
        if writable && conn.pending() > 0 {
            self.try_write(conn)?;
        }
        if readable && !conn.draining && conn.pending() <= OUTBUF_HIGH_WATER {
            self.read_and_process(conn)?;
            self.try_write(conn)?;
        }
        self.update_interest(conn)
    }

    /// Drains readable bytes, feeding complete lines through the shared
    /// protocol path. Each read's responses are written out before the
    /// next read; what the socket does not take stays in `conn.outbuf`.
    fn read_and_process(&mut self, conn: &mut RConn) -> Result<(), Close> {
        loop {
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    // EOF: a truncated final line is discarded, pending
                    // responses are still drained before the close.
                    conn.acc.discard_partial();
                    conn.draining = true;
                    break;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    let RConn {
                        acc, state, outbuf, ..
                    } = conn;
                    let pool = &self.pool;
                    let shared = &self.shared;
                    let fed = acc.feed(&self.scratch[..n], |line| {
                        // One line: parse, then buffer, cache answer, or
                        // apply under the shard's lock and encode.
                        let req_span = trace::span("serve.request");
                        let keep = process_line(line, state, outbuf, pool, shared)?;
                        drop(req_span);
                        Ok(keep)
                    });
                    // Every answer of this read goes out before the next.
                    let _ = flush_chunk(state, outbuf, pool, shared);
                    match fed {
                        Ok(Feed::More) => {}
                        Ok(Feed::Close) => {
                            conn.draining = true;
                            break;
                        }
                        Ok(Feed::Oversize) => {
                            let _ = state.respond(outbuf, &oversize_resp());
                            conn.draining = true;
                            break;
                        }
                        Err(_) => return Err(Close),
                    }
                    self.try_write(conn)?;
                    if conn.pending() > OUTBUF_HIGH_WATER {
                        break; // backpressure: stop reading until drained
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(Close),
            }
        }
        Ok(())
    }

    /// Writes as much buffered output as the socket accepts.
    fn try_write(&mut self, conn: &mut RConn) -> Result<(), Close> {
        while conn.outpos < conn.outbuf.len() {
            match conn.stream.write(&conn.outbuf[conn.outpos..]) {
                Ok(0) => return Err(Close),
                Ok(n) => {
                    conn.outpos += n;
                    conn.blocked_since = None;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if conn.blocked_since.is_none() {
                        conn.blocked_since = Some(Instant::now());
                        self.shared.reactor_writes_blocked.inc();
                    }
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(Close),
            }
        }
        if conn.outpos >= conn.outbuf.len() {
            conn.outbuf.clear();
            conn.outpos = 0;
            conn.blocked_since = None;
            if conn.draining {
                return Err(Close); // fully answered: close
            }
        } else if conn.outpos >= 32 * 1024 {
            // Reclaim the written prefix so a slow reader cannot pin a
            // buffer proportional to total bytes ever sent.
            conn.outbuf.drain(..conn.outpos);
            conn.outpos = 0;
        }
        Ok(())
    }

    /// Re-arms the poller registration to match what the connection now
    /// needs: `WRITABLE` while output is pending, `READABLE` unless
    /// draining or above the write high-water mark.
    fn update_interest(&mut self, conn: &mut RConn) -> Result<(), Close> {
        let want_write = conn.pending() > 0;
        let want_read = !conn.draining && conn.pending() <= OUTBUF_HIGH_WATER;
        let want = (want_read, want_write);
        if want == conn.registered {
            return Ok(());
        }
        let interest = match want {
            (_, true) if want_read => Interest::READABLE | Interest::WRITABLE,
            (_, true) => Interest::WRITABLE,
            _ => Interest::READABLE,
        };
        if self
            .poller
            .reregister(conn.stream.as_raw_fd(), conn.slot, interest)
            .is_err()
        {
            return Err(Close);
        }
        conn.registered = want;
        Ok(())
    }

    /// Idle and write deadlines, enforced on the sweep cadence.
    fn sweep_deadlines(&mut self) {
        for slot in 0..self.conns.len() {
            let Some(conn) = &self.conns[slot] else {
                continue;
            };
            let write_dead = conn
                .blocked_since
                .is_some_and(|t| t.elapsed() >= self.shared.cfg.write_timeout);
            let idle =
                !conn.draining && conn.last_activity.elapsed() >= self.shared.cfg.idle_timeout;
            if !write_dead && !idle {
                continue;
            }
            let Some(mut conn) = self.conns[slot].take() else {
                continue;
            };
            if write_dead {
                // The peer stopped reading responses past the deadline:
                // pending output is undeliverable, drop the connection.
                self.close(slot, conn);
                continue;
            }
            self.shared.timeouts.inc();
            trace::event("serve.conn.idle_close", 0, 0);
            {
                let RConn { state, outbuf, .. } = &mut conn;
                let _ = flush_chunk(state, outbuf, &self.pool, &self.shared);
                let _ = state.respond(outbuf, &idle_resp());
            }
            conn.draining = true;
            match self
                .try_write(&mut conn)
                .and_then(|()| self.update_interest(&mut conn))
            {
                Ok(()) => self.conns[slot] = Some(conn),
                Err(Close) => self.close(slot, conn),
            }
        }
    }

    /// Stop-flag exit: apply pending observe chunks (the shard shutdown
    /// that follows counts their outcomes), make one best-effort write
    /// pass, and drop every connection.
    fn shutdown_conns(&mut self) {
        for slot in 0..self.conns.len() {
            let Some(mut conn) = self.conns[slot].take() else {
                continue;
            };
            {
                let RConn { state, outbuf, .. } = &mut conn;
                let _ = flush_chunk(state, outbuf, &self.pool, &self.shared);
            }
            let _ = self.try_write(&mut conn);
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.shared.reactor_conns.dec();
            self.shared.connections.dec();
        }
        self.conns.clear();
        self.free.clear();
    }
}

impl RConn {
    /// Buffered response bytes not yet accepted by the socket.
    fn pending(&self) -> usize {
        self.outbuf.len() - self.outpos
    }
}
