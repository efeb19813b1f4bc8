//! High fan-in load driver: many connections, low per-connection rate.
//!
//! The thread-per-connection harness in [`crate::loadgen`] tops out at a
//! few hundred connections — beyond that the client machine spends its
//! time context-switching instead of driving load. This module is the
//! client-side mirror of the server's reactor frontend: **one** driver
//! thread multiplexes every connection over the vendored `oc-reactor`
//! poller, so `--connections 10000 --rate-per-conn 100` is a realistic
//! node-agent fleet rather than a thread-pool stress test.
//!
//! # How it drives load
//!
//! * Each connection impersonates one machine (`machine id == connection
//!   index`, zero-padded so every frame template has identical layout)
//!   streaming a synthetic cell called `fanin`.
//! * The whole replay is `BATCH` frames: a per-connection byte buffer is
//!   encoded **once** at setup, and only the fixed-width (10-digit,
//!   zero-padded) tick fields are patched in place before each send —
//!   the steady state allocates nothing and re-encodes nothing.
//! * Sends follow a globally staggered schedule: with `N` connections at
//!   `R` requests/sec each, one frame is due every `batch / (R * N)`
//!   seconds, rotating round-robin across connections. Arrivals at the
//!   server are smooth, not phase-locked bursts.
//! * Responses are verified by direct byte comparison (`BATCHR <n>`
//!   header, then `OK`/`ERR` per line). There are no retries: an `ERR`
//!   is counted and dropped, which is exactly what a fleet of
//!   fire-and-forget node agents does, and any other line fails its
//!   connection.
//!
//! Connect/setup time is measured per connection and reported separately
//! (`setup_*` fields in [`LoadReport`]) so the one-off connection storm
//! does not pollute steady-state latency percentiles; steady-state
//! latency here is *frame* latency (send → last response line).

use crate::error::ClientError;
use crate::loadgen::{fetch_stats, LoadReport};
use oc_reactor::{Events, Interest, Poller};
use oc_serve::proto::MAX_BATCH;
use oc_telemetry::trace;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

#[cfg(unix)]
use std::os::unix::io::AsRawFd;

/// Attempts per connection before the connection counts as failed.
const CONNECT_ATTEMPTS: u32 = 3;

/// Upper bound on one poller wait, so the safety deadline is checked
/// even when nothing is due and nothing is readable.
const MAX_WAIT: Duration = Duration::from_millis(100);

/// Read scratch shared by every connection (responses are tiny; one
/// syscall usually drains several frames' worth of replies).
const READ_SCRATCH: usize = 256 * 1024;

/// Maximum frames in flight (sent, response not yet complete) per
/// connection. Without this cap an overloaded run keeps stuffing frames
/// into full socket buffers, and every TCP window update then moves a
/// dribble of bytes with a full syscall round trip on both sides —
/// measured as ~90% of one core spent in system time. With the cap,
/// every frame write completes in full and the run degrades into
/// closed-loop pipelining at server capacity instead.
const MAX_INFLIGHT: u64 = 2;

/// Width of the zero-padded machine field (supports 99 999 connections).
const MACHINE_PAD: usize = 5;

/// Width of the zero-padded, patched-in-place tick field.
const TICK_PAD: usize = 10;

/// Configuration for a fan-in run ([`run`]).
#[derive(Debug, Clone)]
pub struct FaninConfig {
    /// Concurrent connections to open (each impersonates one machine).
    pub connections: usize,
    /// Per-connection request rate, `OBSERVE` lines per second.
    pub rate_per_conn: u64,
    /// Sub-requests per `BATCH` frame (`1..=MAX_BATCH`).
    pub batch: usize,
    /// Distinct tasks per machine; each frame covers `batch / tasks`
    /// ticks for every task. Must not exceed `batch`.
    pub tasks: usize,
    /// Ticks of history to stream per machine; together with `batch` and
    /// `tasks` this determines the frame count per connection.
    pub ticks: u64,
}

impl Default for FaninConfig {
    fn default() -> FaninConfig {
        FaninConfig {
            connections: 10_000,
            rate_per_conn: 128,
            batch: 64,
            tasks: 8,
            ticks: 288,
        }
    }
}

impl FaninConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`ClientError::Config`] naming the offending field.
    pub fn validate(&self) -> Result<(), ClientError> {
        if self.connections == 0 {
            return Err(ClientError::Config("connections must be >= 1".into()));
        }
        if self.rate_per_conn == 0 {
            return Err(ClientError::Config("rate_per_conn must be >= 1".into()));
        }
        if self.batch == 0 || self.batch > MAX_BATCH {
            return Err(ClientError::Config(format!(
                "batch must be in 1..={MAX_BATCH}"
            )));
        }
        if self.tasks == 0 || self.tasks > self.batch {
            return Err(ClientError::Config("tasks must be in 1..=batch".into()));
        }
        if self.ticks == 0 {
            return Err(ClientError::Config("ticks must be >= 1".into()));
        }
        Ok(())
    }

    /// Ticks each frame advances: `ceil(batch / tasks)`.
    fn ticks_per_frame(&self) -> u64 {
        (self.batch.div_ceil(self.tasks)) as u64
    }

    /// Frames each connection sends: `ceil(ticks / ticks_per_frame)`.
    fn frames_per_conn(&self) -> u64 {
        self.ticks.div_ceil(self.ticks_per_frame())
    }
}

/// Frame geometry shared by every connection: where the tick fields sit
/// in the (identically laid out) templates and what each response frame
/// must look like.
struct FrameLayout {
    /// Byte offset of each line's tick field within the frame.
    tick_offsets: Vec<usize>,
    /// Tick delta of each line relative to the frame's base tick
    /// (`line i` samples task `i % tasks` at `base + i / tasks`).
    line_delta: Vec<u64>,
    /// Ticks the base advances per frame.
    ticks_per_frame: u64,
    /// Sub-requests per frame.
    batch: usize,
    /// The exact `BATCHR <batch>` header every response must open with.
    expected_header: Vec<u8>,
}

impl FrameLayout {
    fn new(cfg: &FaninConfig) -> FrameLayout {
        let (_, tick_offsets) = build_template(cfg, 0);
        let line_delta = (0..cfg.batch).map(|i| (i / cfg.tasks) as u64).collect();
        FrameLayout {
            tick_offsets,
            line_delta,
            ticks_per_frame: cfg.ticks_per_frame(),
            batch: cfg.batch,
            expected_header: format!("BATCHR {}", cfg.batch).into_bytes(),
        }
    }
}

/// Patches a zero-padded decimal into `buf` (the field's exact bytes).
fn patch_decimal(buf: &mut [u8], mut v: u64) {
    for slot in buf.iter_mut().rev() {
        *slot = b'0' + (v % 10) as u8;
        v /= 10;
    }
}

/// Builds one frame template for `machine`, returning the bytes and the
/// byte offset of each line's tick field. Machine ids are zero-padded to
/// [`MACHINE_PAD`] digits so every template shares one layout.
fn build_template(cfg: &FaninConfig, machine: usize) -> (Vec<u8>, Vec<usize>) {
    let mut buf = Vec::with_capacity(16 + cfg.batch * 48);
    let mut tick_offsets = Vec::with_capacity(cfg.batch);
    buf.extend_from_slice(format!("BATCH {}\n", cfg.batch).as_bytes());
    for i in 0..cfg.batch {
        let task = i % cfg.tasks;
        buf.extend_from_slice(
            format!("OBSERVE fanin {machine:0>MACHINE_PAD$} {task}:0 0.200000 0.500000 ")
                .as_bytes(),
        );
        tick_offsets.push(buf.len());
        buf.extend_from_slice(&[b'0'; TICK_PAD]);
        buf.push(b'\n');
    }
    (buf, tick_offsets)
}

/// One multiplexed connection's state.
struct FConn {
    stream: TcpStream,
    /// The frame buffer: template with the machine id baked in; only the
    /// tick fields change between sends.
    buf: Vec<u8>,
    /// Bytes of the in-flight frame already written (== `buf.len()` when
    /// no frame is being written).
    outpos: usize,
    /// Whether a frame is currently being written out.
    writing: bool,
    /// Frames that came due while a previous write was still blocked.
    owed: u64,
    frames_sent: u64,
    frames_done: u64,
    /// Base tick for the next frame.
    next_tick: u64,
    /// Response lines still expected for the frame at the head of
    /// `sent_at` (0 ⇒ the next line must be a `BATCHR` header).
    body_left: usize,
    /// Unparsed tail of the last read (always shorter than one line).
    partial: Vec<u8>,
    /// Send instants of in-flight frames, oldest first.
    sent_at: VecDeque<Instant>,
    /// Whether the poller currently watches this fd for writability.
    want_write: bool,
    /// Set on a fatal transport or protocol error; the connection stops
    /// participating in the schedule.
    failed: Option<String>,
}

impl FConn {
    /// Frames sent whose responses have not fully arrived.
    fn in_flight(&self) -> u64 {
        self.frames_sent - self.frames_done
    }
}

/// Raw fd helper; the non-Unix arm is unreachable because
/// [`Poller::new`] fails with `Unsupported` first.
#[cfg(unix)]
fn raw_fd(s: &TcpStream) -> oc_reactor::RawFd {
    s.as_raw_fd()
}
#[cfg(not(unix))]
fn raw_fd(_s: &TcpStream) -> oc_reactor::RawFd {
    0
}

/// Connects with bounded retries, measuring total setup time (µs).
fn connect_one(addr: SocketAddr) -> Result<(TcpStream, f64), String> {
    let start = Instant::now();
    let mut last = String::new();
    for attempt in 0..CONNECT_ATTEMPTS {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(1 << attempt));
        }
        match TcpStream::connect(addr) {
            Ok(stream) => {
                let cfg = stream
                    .set_nodelay(true)
                    .and_then(|()| stream.set_nonblocking(true));
                match cfg {
                    Ok(()) => return Ok((stream, start.elapsed().as_secs_f64() * 1e6)),
                    Err(e) => last = format!("socket setup: {e}"),
                }
            }
            Err(e) => last = format!("connect: {e}"),
        }
    }
    Err(last)
}

/// Runs a fan-in replay against `addr` and gathers a [`LoadReport`].
///
/// Steady-state latency percentiles in the report are **frame**
/// latencies (send to last response line of the frame); `setup_*`
/// percentiles cover per-connection connect/setup time. `achieved_qps`
/// counts resolved sub-requests (`ok + errors`) over the replay
/// wall time, which starts *after* every connection is set up. The
/// final `STATS` snapshot is ordered behind every acknowledged sample
/// (a sample is applied before it is acknowledged), so `lost` is an
/// exact accounting, not a race.
///
/// # Errors
///
/// [`ClientError::Config`] for an invalid config, [`ClientError::Io`]
/// when the poller cannot be created or *no* connection could be
/// established, and any error of the final `STATS` fetch. Individual
/// connection failures mid-run are captured in the report instead.
pub fn run(addr: SocketAddr, cfg: &FaninConfig) -> Result<LoadReport, ClientError> {
    cfg.validate()?;
    let _ = oc_reactor::raise_nofile_limit();
    let poller = Poller::new().map_err(ClientError::Io)?;
    let _span = trace::span_ab("fanin.run", cfg.connections as u64, cfg.rate_per_conn);
    let layout = FrameLayout::new(cfg);
    let frames_per_conn = cfg.frames_per_conn();

    // Phase 1: connect serially, measuring per-connection setup time.
    let mut conns: Vec<FConn> = Vec::with_capacity(cfg.connections);
    // What the run counts, straight into the report: no retries,
    // reconnects or fault plan on this driver.
    let mut tally = LoadReport {
        connections: cfg.connections as u64,
        ..LoadReport::default()
    };
    for i in 0..cfg.connections {
        match connect_one(addr) {
            Ok((stream, us)) => {
                poller
                    .register(raw_fd(&stream), conns.len(), Interest::READABLE)
                    .map_err(ClientError::Io)?;
                let (buf, _) = build_template(cfg, i);
                let outpos = buf.len();
                conns.push(FConn {
                    stream,
                    buf,
                    outpos,
                    writing: false,
                    owed: 0,
                    frames_sent: 0,
                    frames_done: 0,
                    next_tick: 0,
                    body_left: 0,
                    partial: Vec::new(),
                    sent_at: VecDeque::with_capacity(4),
                    want_write: false,
                    failed: None,
                });
                tally.setup.record(us);
            }
            Err(why) => tally.conn_failures.push(format!("connection {i}: {why}")),
        }
    }
    let n_conns = conns.len();
    if n_conns == 0 {
        return Err(ClientError::Io(std::io::Error::other(format!(
            "no connection could be established ({})",
            tally
                .conn_failures
                .first()
                .map(String::as_str)
                .unwrap_or("no detail")
        ))));
    }

    // Phase 2: the staggered replay. Global frame `k` is due at
    // `start + k * stagger` on connection `k % n_conns`.
    let frame_interval = Duration::from_secs_f64(cfg.batch as f64 / cfg.rate_per_conn as f64);
    let stagger = frame_interval / n_conns as u32;
    let total_frames = frames_per_conn * n_conns as u64;
    let expected_wall = stagger * total_frames as u32;
    let mut scratch = vec![0u8; READ_SCRATCH];
    let mut events = Events::with_capacity(1024);
    let start = Instant::now();
    let hard_deadline = start + expected_wall * 3 + Duration::from_secs(30);
    let mut next_send: u64 = 0;
    let mut remaining = n_conns;
    while remaining > 0 {
        let now = Instant::now();
        if now > hard_deadline {
            for c in conns.iter_mut() {
                if c.failed.is_none() && c.frames_done < frames_per_conn {
                    c.failed = Some(format!(
                        "replay deadline exceeded ({}/{frames_per_conn} frames)",
                        c.frames_done
                    ));
                }
            }
            break;
        }
        // Launch every frame that has come due.
        while next_send < total_frames && start + stagger * next_send as u32 <= now {
            let ci = (next_send % n_conns as u64) as usize;
            next_send += 1;
            let conn = &mut conns[ci];
            if conn.failed.is_some() {
                continue;
            }
            if conn.writing || conn.in_flight() >= MAX_INFLIGHT {
                conn.owed += 1;
            } else {
                start_frame(conn, &layout, now);
                pump_write(conn, ci, &poller, &layout);
                if conn_settled(conn, frames_per_conn) {
                    remaining -= 1;
                }
            }
        }
        // Sleep until the next due send, a response, or the sweep bound.
        let timeout = if next_send < total_frames {
            (start + stagger * next_send as u32).saturating_duration_since(Instant::now())
        } else {
            MAX_WAIT
        };
        if poller
            .wait(&mut events, Some(timeout.min(MAX_WAIT)))
            .is_err()
        {
            break;
        }
        for ev in &events {
            let token = ev.token();
            let Some(conn) = conns.get_mut(token) else {
                continue;
            };
            if conn.failed.is_some() {
                continue;
            }
            let settled_before = conn_settled(conn, frames_per_conn);
            if ev.is_writable() && conn.writing {
                pump_write(conn, token, &poller, &layout);
            }
            if ev.is_readable() && conn.failed.is_none() {
                pump_read(conn, token, &poller, &mut scratch, &layout, &mut tally);
            }
            if !settled_before && conn_settled(conn, frames_per_conn) {
                remaining -= 1;
            }
        }
    }
    let wall_secs = start.elapsed().as_secs_f64();

    // Phase 3: close everything, then snapshot the server.
    for (i, c) in conns.iter_mut().enumerate() {
        if let Some(why) = c.failed.take() {
            tally.conn_failures.push(format!("connection {i}: {why}"));
        }
    }
    tally.sent = conns.iter().map(|c| c.frames_sent * cfg.batch as u64).sum();
    drop(conns);
    drop(poller);
    let server = fetch_stats(addr)?;
    tally.acked_observes = tally.ok;
    Ok(tally.finish(wall_secs, Some(server)))
}

/// Whether the connection no longer participates in the run.
fn conn_settled(conn: &FConn, frames_per_conn: u64) -> bool {
    conn.failed.is_some() || conn.frames_done >= frames_per_conn
}

/// Patches the next frame's tick fields into the buffer and marks it
/// in flight.
fn start_frame(conn: &mut FConn, layout: &FrameLayout, now: Instant) {
    for (&off, &delta) in layout.tick_offsets.iter().zip(&layout.line_delta) {
        patch_decimal(&mut conn.buf[off..off + TICK_PAD], conn.next_tick + delta);
    }
    conn.next_tick += layout.ticks_per_frame;
    conn.outpos = 0;
    conn.writing = true;
    conn.frames_sent += 1;
    conn.sent_at.push_back(now);
}

/// Writes as much of the in-flight frame as the socket accepts; on
/// completion, immediately starts any owed frames. Adjusts the poller's
/// write interest to match.
fn pump_write(conn: &mut FConn, token: usize, poller: &Poller, layout: &FrameLayout) {
    loop {
        while conn.outpos < conn.buf.len() {
            match conn.stream.write(&conn.buf[conn.outpos..]) {
                Ok(0) => {
                    fail(conn, poller, "write returned 0 (peer gone)".into());
                    return;
                }
                Ok(n) => conn.outpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    set_write_interest(conn, token, poller, true);
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    fail(conn, poller, format!("write: {e}"));
                    return;
                }
            }
        }
        conn.writing = false;
        if conn.owed == 0 || conn.in_flight() >= MAX_INFLIGHT {
            break;
        }
        conn.owed -= 1;
        start_frame(conn, layout, Instant::now());
    }
    set_write_interest(conn, token, poller, false);
}

/// Marks the connection failed and stops polling it.
fn fail(conn: &mut FConn, poller: &Poller, why: String) {
    conn.failed = Some(why);
    let _ = poller.deregister(raw_fd(&conn.stream));
}

/// Flips the poller's write interest for the connection when it changed.
fn set_write_interest(conn: &mut FConn, token: usize, poller: &Poller, want: bool) {
    if conn.want_write == want {
        return;
    }
    conn.want_write = want;
    let interest = if want {
        Interest::READABLE | Interest::WRITABLE
    } else {
        Interest::READABLE
    };
    if poller
        .reregister(raw_fd(&conn.stream), token, interest)
        .is_err()
    {
        conn.failed = Some("poller reregister failed".into());
    }
}

/// Drains the socket and verifies response lines against the expected
/// `BATCHR` framing, recording frame latencies as frames complete.
/// Completed frames free in-flight slots, so owed frames may start here.
fn pump_read(
    conn: &mut FConn,
    token: usize,
    poller: &Poller,
    scratch: &mut [u8],
    layout: &FrameLayout,
    tally: &mut LoadReport,
) {
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                fail(conn, poller, "server closed the connection".into());
                return;
            }
            Ok(n) => {
                if let Err(why) = consume(conn, &scratch[..n], layout, tally) {
                    fail(conn, poller, why);
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                fail(conn, poller, format!("read: {e}"));
                return;
            }
        }
    }
    if conn.owed > 0 && !conn.writing && conn.in_flight() < MAX_INFLIGHT {
        conn.owed -= 1;
        start_frame(conn, layout, Instant::now());
        pump_write(conn, token, poller, layout);
    }
}

/// Parses `data` (plus any carried partial line) as response lines.
fn consume(
    conn: &mut FConn,
    mut data: &[u8],
    layout: &FrameLayout,
    tally: &mut LoadReport,
) -> Result<(), String> {
    // Finish a carried partial line first.
    if !conn.partial.is_empty() {
        match data.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                let mut line = std::mem::take(&mut conn.partial);
                line.extend_from_slice(&data[..nl]);
                data = &data[nl + 1..];
                take_line(conn, &line, layout, tally)?;
            }
            None => {
                conn.partial.extend_from_slice(data);
                return Ok(());
            }
        }
    }
    while let Some(nl) = data.iter().position(|&b| b == b'\n') {
        let (line, rest) = data.split_at(nl);
        data = &rest[1..];
        take_line(conn, line, layout, tally)?;
    }
    conn.partial.extend_from_slice(data);
    Ok(())
}

/// Verifies one response line. Headers must match `BATCHR <batch>`
/// exactly; body lines are `OK` / `ERR …`. Anything else is a protocol
/// violation and fails the connection.
fn take_line(
    conn: &mut FConn,
    line: &[u8],
    layout: &FrameLayout,
    tally: &mut LoadReport,
) -> Result<(), String> {
    if conn.body_left == 0 {
        if line != layout.expected_header.as_slice() {
            return Err(format!(
                "expected {:?}, got {:?}",
                String::from_utf8_lossy(&layout.expected_header),
                String::from_utf8_lossy(line)
            ));
        }
        conn.body_left = layout.batch;
        return Ok(());
    }
    match line {
        b"OK" => tally.ok += 1,
        l if l.starts_with(b"ERR") => tally.errors += 1,
        other => {
            return Err(format!(
                "unexpected body line {:?}",
                String::from_utf8_lossy(other)
            ));
        }
    }
    conn.body_left -= 1;
    if conn.body_left == 0 {
        conn.frames_done += 1;
        if let Some(sent) = conn.sent_at.pop_front() {
            tally.latency.record(sent.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use oc_serve::{ServeConfig, Server};

    fn small_cfg() -> FaninConfig {
        FaninConfig {
            connections: 8,
            rate_per_conn: 4_000,
            batch: 16,
            tasks: 4,
            ticks: 8,
        }
    }

    #[test]
    fn config_validation_rejects_bad_fields() {
        for bad in [
            FaninConfig {
                connections: 0,
                ..small_cfg()
            },
            FaninConfig {
                rate_per_conn: 0,
                ..small_cfg()
            },
            FaninConfig {
                batch: 0,
                ..small_cfg()
            },
            FaninConfig {
                batch: MAX_BATCH + 1,
                ..small_cfg()
            },
            FaninConfig {
                tasks: 17,
                ..small_cfg()
            },
            FaninConfig {
                ticks: 0,
                ..small_cfg()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should not validate");
        }
        assert!(small_cfg().validate().is_ok());
    }

    #[test]
    fn frame_geometry() {
        let cfg = small_cfg();
        assert_eq!(cfg.ticks_per_frame(), 4);
        assert_eq!(cfg.frames_per_conn(), 2);
        let (buf, offsets) = build_template(&cfg, 3);
        assert_eq!(offsets.len(), cfg.batch);
        assert!(buf.starts_with(b"BATCH 16\n"));
        // Machine ids are zero-padded to a fixed width, so every
        // connection's template has identical tick-field offsets.
        assert!(buf.windows(6).any(|w| w == b"00003 "));
        for &off in &offsets {
            assert_eq!(&buf[off..off + TICK_PAD], &[b'0'; TICK_PAD]);
            assert_eq!(buf[off + TICK_PAD], b'\n');
        }
        let layout = FrameLayout::new(&cfg);
        // Line i samples task i % tasks at tick base + i / tasks.
        assert_eq!(layout.line_delta[0], 0);
        assert_eq!(layout.line_delta[3], 0);
        assert_eq!(layout.line_delta[4], 1);
        assert_eq!(layout.line_delta[15], 3);
    }

    #[test]
    fn patch_decimal_zero_pads() {
        let mut buf = [0u8; TICK_PAD];
        patch_decimal(&mut buf, 42);
        assert_eq!(&buf, b"0000000042");
        patch_decimal(&mut buf, 9_999_999_999);
        assert_eq!(&buf, b"9999999999");
    }

    /// The acceptance smoke: a small fan-in run against the reactor
    /// frontend resolves every request with nothing lost.
    #[cfg(unix)]
    #[test]
    fn fanin_replay_loses_nothing_on_reactor_frontend() {
        let server = Server::start(
            ServeConfig::default()
                .with_shards(2)
                .with_max_connections(64),
        )
        .unwrap();
        let cfg = small_cfg();
        let report = run(server.addr(), &cfg).unwrap();
        assert_eq!(report.failed_connections, 0, "{:?}", report.conn_failures);
        assert_eq!(report.connections, 8);
        // 8 conns x 2 frames x 16 lines.
        assert_eq!(report.sent, 256);
        assert_eq!(report.ok, 256);
        assert_eq!(report.errors, 0);
        assert_eq!(report.lost, 0);
        assert!(report.setup_p50_us() > 0.0);
        assert!(report.setup_max_us() >= report.setup_p50_us());
        // Every OK is accounted for on the server (fresh or stale).
        assert_eq!(report.server.observes + report.server.stale, report.ok);
        server.shutdown();
    }
}
