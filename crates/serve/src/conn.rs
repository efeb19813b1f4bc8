//! Per-connection protocol machinery.
//!
//! The wire behavior of a connection — line framing, the observe
//! micro-batcher, `PREDICT`/`ADMIT` answered on the spot, `BATCH`
//! framing, error handling — lives here, free of any socket: the reactor
//! (the `reactor` module, driven by readiness events) feeds bytes through
//! a [`LineAccumulator`] and dispatches complete lines through
//! `process_line` into any [`Write`], so the tests and the benchmark's
//! layer probes drive exactly the code a connection runs.
//!
//! **Run to completion.** The thread that parsed a line applies it: it
//! takes the owning shard's lock ([`ShardPool`]), applies the
//! connection's buffered observes or computes the `PREDICT`/`ADMIT`
//! answer, and writes the response — in request order, straight to the
//! frontend's writer. Nothing is handed to another thread and nothing is
//! held back, so an `OK` means *applied* and a read always sees every
//! sample acknowledged before it.
//!
//! **State transfer.** `HANDOFF` dumps every machine as a state record,
//! taking each shard's lock once. A `RESTORE <n>` frame's `n` lines are
//! reassembled into records as they arrive — at most one frame, so at
//! most [`crate::proto::MAX_BATCH`] lines, per connection — decoded
//! against this server's configuration, and installed when the frame
//! ends, with one answer for the frame.

use crate::proto::{
    decode_view_part, parse_batch_header, parse_view_header, push_u64, ErrCode, ProtoScratch,
    Request, Response, ViewHeader, MAX_LINE_BYTES,
};
use crate::ring::KeyRole;
use crate::server::{dispatch, not_mine, shutting_down, RingMember, Shared};
use crate::shard::{key_hash, MachineKey, ObserveChunk, ObserveItem, ShardPool, OBS_CHUNK};
use oc_core::ingest::IncrementalView;
use oc_trace::time::Tick;
use std::fmt;
use std::io::Write;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// What a [`LineAccumulator::feed`] call concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// Every complete line in the fed bytes was handled; any trailing
    /// partial line is retained for the next feed.
    More,
    /// The line handler asked to close the connection (unrecoverable
    /// framing; its response was already emitted). Remaining fed bytes
    /// were discarded.
    Close,
    /// The retained partial line exceeded [`MAX_LINE_BYTES`] without a
    /// newline. The connection cannot be resynchronized; the caller
    /// answers `ERR parse` and closes.
    Oversize,
}

/// The per-connection read state machine: splits an arbitrary sequence
/// of byte chunks (however the transport happened to segment them) into
/// complete protocol lines.
///
/// Invariants, pinned by the proptests in
/// `crates/serve/tests/line_accumulator.rs`:
///
/// * complete lines come out byte-identical no matter where chunk
///   boundaries fall (a chunk boundary mid-line loses nothing);
/// * a line is delivered only once its `\n` arrives — a truncated final
///   line is *never* delivered (the caller discards it at EOF via
///   [`LineAccumulator::discard_partial`], so a peer that died mid-write
///   cannot ingest half a request);
/// * an unterminated accumulation longer than [`MAX_LINE_BYTES`] is
///   reported as [`Feed::Oversize`] instead of buffering without bound.
///   (A *terminated* over-long line is delivered and rejected by the
///   parser as a recoverable `ERR parse` — the newline proves the stream
///   is still in sync.)
///
/// Chunks whose lines are already complete are handed to the callback
/// straight from the caller's buffer (zero-copy); only partial lines are
/// copied into the retained buffer.
#[derive(Debug, Default)]
pub struct LineAccumulator {
    acc: Vec<u8>,
}

impl LineAccumulator {
    /// An empty accumulator.
    pub fn new() -> LineAccumulator {
        LineAccumulator { acc: Vec::new() }
    }

    /// Bytes of the retained partial line (no newline seen yet).
    pub fn partial_len(&self) -> usize {
        self.acc.len()
    }

    /// Discards the retained partial line, returning its length. Called
    /// at EOF: a trailing fragment without a newline is a truncated
    /// request from a peer that died mid-write — dropping it (rather
    /// than guessing at half a request) is part of the wire contract.
    pub fn discard_partial(&mut self) -> usize {
        let n = self.acc.len();
        self.acc.clear();
        n
    }

    /// Feeds one chunk of received bytes, invoking `on_line` for every
    /// complete line (terminator included). `on_line` returns
    /// `Ok(false)` to close the connection.
    ///
    /// # Errors
    ///
    /// Propagates the first error returned by `on_line`; remaining fed
    /// bytes are discarded.
    pub fn feed<F>(&mut self, mut chunk: &[u8], mut on_line: F) -> std::io::Result<Feed>
    where
        F: FnMut(&[u8]) -> std::io::Result<bool>,
    {
        loop {
            match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    let (head, rest) = chunk.split_at(pos + 1);
                    chunk = rest;
                    let keep_open = if self.acc.is_empty() {
                        on_line(head)?
                    } else {
                        self.acc.extend_from_slice(head);
                        let keep = on_line(&self.acc);
                        self.acc.clear();
                        keep?
                    };
                    if !keep_open {
                        return Ok(Feed::Close);
                    }
                }
                None => {
                    self.acc.extend_from_slice(chunk);
                    if self.acc.len() > MAX_LINE_BYTES {
                        self.acc.clear();
                        return Ok(Feed::Oversize);
                    }
                    return Ok(Feed::More);
                }
            }
        }
    }
}

/// Per-connection reusable state: the parse scratch, the response encode
/// buffer, the observe micro-batcher, and `BATCH` framing progress. All
/// buffers are recycled line over line, so the steady-state `OBSERVE` path
/// performs no per-request heap allocation.
pub(crate) struct ConnState {
    pub(crate) scratch: ProtoScratch,
    pub(crate) out: Vec<u8>,
    /// Observes acknowledged-to-be: parsed, not yet applied. Applied in
    /// place by [`flush_chunk`]; the buffer is never moved or replaced.
    pub(crate) chunk: Box<ObserveChunk>,
    /// Shard the current chunk routes to (meaningful when `chunk.len > 0`).
    pub(crate) chunk_shard: usize,
    /// `(generation stripe, samples)` per run of consecutive same-stripe
    /// samples in the chunk: what [`flush_chunk`] bumps once the chunk is
    /// applied. A fan-in connection fills whole chunks from one machine,
    /// so this is usually one entry.
    runs: Vec<(usize, u64)>,
    /// Sub-request lines still expected in the current `BATCH` frame.
    pub(crate) batch_left: usize,
    /// Last observed routing key and its [`key_hash`]. A connection almost
    /// always streams samples for one machine (the node-agent shape), so
    /// this memo replaces the per-line hash with an equality check.
    hash_memo: Option<(MachineKey, u64)>,
    /// Ring version the cached [`ConnState::ring`] was cloned at;
    /// `u64::MAX` forces the first line to snapshot. Re-snapshotted
    /// whenever the server's version moves (a `RINGSET` landed), so the
    /// observe hot path pays one atomic load — not a lock — per line.
    ring_version: u64,
    /// Cached clone of the server's ring and this member's index in it
    /// (`None` = standalone: own every key).
    ring: Option<RingMember>,
    /// The `RESTORE` frame being received, if any.
    restore: Option<Box<RestoreFrame>>,
}

/// A `RESTORE` frame in reception. Records are decoded as their last
/// part arrives; nothing is installed before the frame ends, so a
/// malformed record fails the frame as a whole.
#[derive(Debug)]
struct RestoreFrame {
    /// Frame lines still expected.
    lines_left: usize,
    /// Header of the record being assembled and its parts still expected.
    record: Option<(ViewHeader, usize)>,
    /// State bytes of the record being assembled.
    state: Vec<u8>,
    /// Records decoded so far.
    decoded: Vec<(MachineKey, Box<IncrementalView>)>,
    /// The frame's first malformed line; later lines are consumed unread.
    error: Option<String>,
}

impl RestoreFrame {
    fn new(lines: usize) -> RestoreFrame {
        RestoreFrame {
            lines_left: lines,
            record: None,
            state: Vec::new(),
            decoded: Vec::new(),
            error: None,
        }
    }

    /// Takes one frame line, already counted off `lines_left`: a record's
    /// `VIEW` header or one of its hex parts. `like` is the view
    /// configuration records must carry.
    fn take_line(&mut self, raw: &[u8], like: &IncrementalView) -> Result<(), String> {
        let line = std::str::from_utf8(raw)
            .map_err(|_| "record line is not valid UTF-8".to_string())?
            .trim_end_matches(['\r', '\n']);
        let Some((header, parts_left)) = self.record.take() else {
            let header = parse_view_header(line).map_err(|e| e.to_string())?;
            if header.parts > self.lines_left {
                return Err(format!(
                    "record of {} parts overruns its RESTORE frame",
                    header.parts
                ));
            }
            self.state.clear();
            let parts = header.parts;
            self.record = Some((header, parts));
            return Ok(());
        };
        decode_view_part(line, &mut self.state).map_err(|e| e.to_string())?;
        if parts_left > 1 {
            self.record = Some((header, parts_left - 1));
            return Ok(());
        }
        let view = IncrementalView::decode(&self.state, like)
            .map_err(|e| format!("machine {}/{}: {e}", header.cell, header.machine))?;
        if view.samples() != header.samples {
            return Err(format!(
                "machine {}/{}: header says {} samples, the state {}",
                header.cell,
                header.machine,
                header.samples,
                view.samples()
            ));
        }
        self.decoded
            .push(((header.cell, header.machine), Box::new(view)));
        Ok(())
    }
}

impl ConnState {
    pub(crate) fn new() -> ConnState {
        ConnState {
            scratch: ProtoScratch::new(),
            out: Vec::with_capacity(256),
            chunk: Box::new(ObserveChunk::new()),
            chunk_shard: 0,
            runs: Vec::new(),
            batch_left: 0,
            hash_memo: None,
            ring_version: u64::MAX,
            ring: None,
            restore: None,
        }
    }

    /// Encodes `resp` with its newline and writes it out.
    pub(crate) fn respond<W: Write>(
        &mut self,
        writer: &mut W,
        resp: &Response,
    ) -> std::io::Result<()> {
        self.out.clear();
        resp.encode_into(&mut self.out);
        self.out.push(b'\n');
        writer.write_all(&self.out)
    }
}

/// This connection's role for the key hashing to `hash`, served from the
/// cached ring (refreshed when a `RINGSET` bumps the ring version).
fn cached_role(state: &mut ConnState, shared: &Shared, hash: u64) -> KeyRole {
    let version = shared.ring_version.load(Ordering::SeqCst);
    if state.ring_version != version {
        // Stamped with the version read *before* the ring: a concurrent
        // `RINGSET` can only make the copy look older than it is —
        // forcing a refresh, never pinning a stale ring.
        state.ring = shared.ring.lock().expect("ring state lock").member.clone();
        state.ring_version = version;
    }
    match &state.ring {
        Some((ring, index)) => ring.role(*index, hash),
        None => KeyRole::Owner,
    }
}

/// Applies the pending observe chunk (if any) under its shard's lock and
/// writes the acknowledgements, one per sample, in order. Generation
/// stripes are bumped strictly after the apply and before the `OK`s are
/// written — the predict cache's read-your-writes edge. The reactor also
/// calls this whenever it runs out of complete lines, before it writes
/// the output out and waits for more input — so no acknowledgement ever
/// outlives the readiness event that created it.
pub(crate) fn flush_chunk<W: Write>(
    state: &mut ConnState,
    writer: &mut W,
    pool: &ShardPool,
    shared: &Shared,
) -> std::io::Result<()> {
    let len = std::mem::take(&mut state.chunk.len);
    if len == 0 {
        return Ok(());
    }
    match pool.lock(state.chunk_shard) {
        Ok(mut shard) => {
            shard.observe(&state.chunk.items[..len], state.chunk.enqueued.elapsed());
        }
        Err(_closed) => {
            state.runs.clear();
            let resp = shutting_down();
            for _ in 0..len {
                state.respond(writer, &resp)?;
            }
            return Ok(());
        }
    }
    if len > 1 {
        shared.batch_coalesced.add(len as u64 - 1);
    }
    for (stripe, n) in state.runs.drain(..) {
        shared.cache.bump_n(stripe, n);
    }
    for _ in 0..len {
        writer.write_all(b"OK\n")?;
    }
    Ok(())
}

/// Handles one complete request line (batch header, batched sub-request,
/// or ordinary request). Returns `Ok(false)` when the connection must
/// close (unrecoverable framing).
pub(crate) fn process_line<W: Write>(
    raw: &[u8],
    state: &mut ConnState,
    writer: &mut W,
    pool: &ShardPool,
    shared: &Shared,
) -> std::io::Result<bool> {
    let parse_err = |e: &dyn fmt::Display| Response::Err {
        code: ErrCode::Parse,
        detail: e.to_string(),
    };
    if state.restore.is_some() {
        restore_line(raw, state, writer, pool, shared)?;
        return Ok(true);
    }
    let Ok(line) = std::str::from_utf8(raw) else {
        flush_chunk(state, writer, pool, shared)?;
        shared.parse_errors.inc();
        state.batch_left = state.batch_left.saturating_sub(1);
        let resp = parse_err(&"request line is not valid UTF-8");
        state.respond(writer, &resp)?;
        return Ok(true);
    };
    let line = line.trim_end_matches(['\r', '\n']);
    let in_batch = state.batch_left > 0;
    if in_batch {
        state.batch_left -= 1;
    } else {
        match parse_batch_header(line) {
            // Not a batch header (decided on the first token alone): fall
            // through to the ordinary parse.
            Ok(None) => {}
            Ok(Some(n)) => {
                flush_chunk(state, writer, pool, shared)?;
                shared.batch_requests.add(n as u64);
                state.batch_left = n;
                // The multi-response header goes out up front — the count
                // is known from the frame header, and sub-responses then
                // stream in sub-request order.
                state.out.clear();
                crate::proto::encode_batchr_header_into(n, &mut state.out);
                state.out.push(b'\n');
                writer.write_all(&state.out)?;
                return Ok(true);
            }
            Err(e) => {
                // A malformed BATCH header is unrecoverable: the number
                // of follow-up lines is unknown, so the stream cannot be
                // resynchronized. Answer and close.
                flush_chunk(state, writer, pool, shared)?;
                shared.parse_errors.inc();
                let resp = parse_err(&e);
                state.respond(writer, &resp)?;
                return Ok(false);
            }
        }
    }
    match Request::parse_in(line, &mut state.scratch) {
        Err(e) => {
            flush_chunk(state, writer, pool, shared)?;
            shared.parse_errors.inc();
            let resp = parse_err(&e);
            state.respond(writer, &resp)?;
            Ok(true)
        }
        Ok(Request::Observe {
            cell,
            machine,
            task,
            usage,
            limit,
            mem,
            tick,
        }) => {
            shared.requests.observe.inc();
            let key = (cell, machine);
            let hash = match &state.hash_memo {
                Some((memo_key, memo_hash)) if *memo_key == key => *memo_hash,
                _ => {
                    let h = key_hash(&key);
                    state.hash_memo = Some((key.clone(), h));
                    h
                }
            };
            // Owners ingest their own keys; replicas ingest the mirrored
            // stream. A key owned elsewhere is redirected — after the
            // pending chunk flushes, so responses stay in request order.
            if cached_role(state, shared, hash) == KeyRole::Remote {
                flush_chunk(state, writer, pool, shared)?;
                let resp = not_mine(shared);
                state.respond(writer, &resp)?;
                return Ok(true);
            }
            let shard = pool.route_hash(hash);
            if state.chunk.len > 0 && (shard != state.chunk_shard || state.chunk.len == OBS_CHUNK) {
                flush_chunk(state, writer, pool, shared)?;
            }
            if state.chunk.len == 0 {
                state.chunk_shard = shard;
                state.chunk.enqueued = Instant::now();
            }
            let stripe = shared.cache.stripe_of(hash);
            match state.runs.last_mut() {
                Some((last, n)) if *last == stripe => *n += 1,
                _ => state.runs.push((stripe, 1)),
            }
            let slot = state.chunk.len;
            state.chunk.items[slot] = ObserveItem {
                key,
                task,
                usage,
                limit,
                mem,
                tick: Tick(tick),
            };
            state.chunk.len = slot + 1;
            Ok(true)
        }
        Ok(
            req @ (Request::Stats
            | Request::Metrics
            | Request::Shutdown
            | Request::Ring
            | Request::RingSet { .. }
            | Request::Handoff
            | Request::Restore { .. }),
        ) if in_batch => {
            // Control verbs are not batchable: one per-sub-request parse
            // error, and the rest of the frame proceeds normally.
            // (State transfer is multi-line on either side and would
            // break the frame's one-line-per-sub-request shape.)
            flush_chunk(state, writer, pool, shared)?;
            shared.parse_errors.inc();
            let verb = match req {
                Request::Stats => "STATS",
                Request::Metrics => "METRICS",
                Request::Ring => "RING",
                Request::RingSet { .. } => "RINGSET",
                Request::Handoff => "HANDOFF",
                Request::Restore { .. } => "RESTORE",
                _ => "SHUTDOWN",
            };
            let resp = parse_err(&format_args!("{verb} is not allowed inside BATCH"));
            state.respond(writer, &resp)?;
            Ok(true)
        }
        Ok(Request::Handoff) => {
            shared.requests.handoff.inc();
            // The pending chunk flushes first so the dump reflects every
            // sample this connection already had acknowledged.
            flush_chunk(state, writer, pool, shared)?;
            dump_state(state, writer, pool)?;
            Ok(true)
        }
        Ok(Request::Restore { lines }) => {
            shared.requests.restore.inc();
            flush_chunk(state, writer, pool, shared)?;
            state.restore = Some(Box::new(RestoreFrame::new(lines)));
            Ok(true)
        }
        Ok(Request::Predict {
            cell,
            machine,
            vector,
        }) => {
            // Ordering: every coalesced sample must be applied before a
            // PREDICT/ADMIT/STATS sees the shard, so a connection always
            // reads its own acknowledged writes.
            flush_chunk(state, writer, pool, shared)?;
            shared.requests.predict.inc();
            let key = (cell, machine);
            let hash = key_hash(&key);
            // Reads are served by the owner and (for failover) the ring
            // successor; a key some other process owns is redirected.
            if cached_role(state, shared, hash) == KeyRole::Remote {
                let resp = not_mine(shared);
                state.respond(writer, &resp)?;
                return Ok(true);
            }
            // Both shapes share the cache; a hit must match the query's
            // shape (scalar vs per-lane vector). The generation is read
            // before the shard is touched and the result is stored under
            // it, so the stamp can only ever be conservative: a sample
            // another connection applies after this read forces a later
            // miss, never a stale hit.
            let gen = shared.cache.generation(shared.cache.stripe_of(hash));
            if let Some(resp) = shared.cache.lookup(&key, gen, vector) {
                shared.cache.hits.inc();
                state.respond(writer, &resp)?;
                return Ok(true);
            }
            shared.cache.misses.inc();
            let resp = match pool.lock(pool.route_hash(hash)) {
                Ok(mut shard) => shard.predict(&key, vector),
                Err(_closed) => shutting_down(),
            };
            if let Response::Pred { peak, mem } = resp {
                // Only successful predictions are cached; unknown-machine
                // errors must re-check the shard (an ADMIT may create the
                // machine at any time).
                shared.cache.store(key, gen, peak, mem);
            }
            state.respond(writer, &resp)?;
            Ok(true)
        }
        Ok(Request::Admit {
            cell,
            machine,
            limit,
        }) => {
            flush_chunk(state, writer, pool, shared)?;
            shared.requests.admit.inc();
            let key = (cell, machine);
            let hash = key_hash(&key);
            if cached_role(state, shared, hash) == KeyRole::Remote {
                let resp = not_mine(shared);
                state.respond(writer, &resp)?;
                return Ok(true);
            }
            let resp = match pool.lock(pool.route_hash(hash)) {
                Ok(mut shard) => shard.admit(&key, limit),
                Err(_closed) => shutting_down(),
            };
            state.respond(writer, &resp)?;
            Ok(true)
        }
        Ok(req) => {
            flush_chunk(state, writer, pool, shared)?;
            let resp = dispatch(req, pool, shared);
            state.respond(writer, &resp)?;
            Ok(true)
        }
    }
}

/// Answers `HANDOFF`: a `HANDOFF <n>` header and one state record per
/// machine. Each shard is locked once, its views encoded under the lock,
/// and released before the next.
#[inline(never)]
fn dump_state<W: Write>(
    state: &mut ConnState,
    writer: &mut W,
    pool: &ShardPool,
) -> std::io::Result<()> {
    let mut body = Vec::new();
    let mut records = 0;
    for shard in 0..pool.shards() {
        match pool.lock(shard) {
            Ok(locked) => records += locked.dump(&mut body),
            Err(_closed) => return state.respond(writer, &shutting_down()),
        }
    }
    state.out.clear();
    state.out.extend_from_slice(b"HANDOFF ");
    push_u64(&mut state.out, records);
    state.out.push(b'\n');
    writer.write_all(&state.out)?;
    writer.write_all(&body)
}

/// Takes one line of the open `RESTORE` frame; the frame's last line
/// installs it and writes its answer.
#[inline(never)]
fn restore_line<W: Write>(
    raw: &[u8],
    state: &mut ConnState,
    writer: &mut W,
    pool: &ShardPool,
    shared: &Shared,
) -> std::io::Result<()> {
    let frame = state.restore.as_mut().expect("a RESTORE frame is open");
    frame.lines_left -= 1;
    if frame.error.is_none() {
        frame.error = frame.take_line(raw, &shared.fresh_view).err();
    }
    if frame.lines_left > 0 {
        return Ok(());
    }
    let frame = state.restore.take().expect("the frame just ended");
    let resp = install_frame(*frame, state, pool, shared);
    state.respond(writer, &resp)
}

/// Installs a finished `RESTORE` frame and builds its answer. A record
/// installs only where the member's ring gives its machine a role and
/// the shard holds no view for it yet; the rest are rejected. A frame
/// with a malformed line installs nothing.
fn install_frame(
    frame: RestoreFrame,
    state: &mut ConnState,
    pool: &ShardPool,
    shared: &Shared,
) -> Response {
    if let Some(detail) = frame.error {
        shared.parse_errors.inc();
        shared.restore.rejected.add(frame.decoded.len() as u64 + 1);
        return Response::Err {
            code: ErrCode::Parse,
            detail,
        };
    }
    let (mut machines, mut samples, mut rejected) = (0, 0, 0);
    for (key, view) in frame.decoded {
        let hash = key_hash(&key);
        let carried = view.samples();
        let installed = cached_role(state, shared, hash) != KeyRole::Remote
            && match pool.lock(pool.route_hash(hash)) {
                Ok(mut shard) => shard.install(key, view),
                Err(_closed) => return shutting_down(),
            };
        if installed {
            machines += 1;
            samples += carried;
        } else {
            rejected += 1;
        }
    }
    shared.restore.machines.add(machines);
    shared.restore.samples.add(samples);
    shared.restore.rejected.add(rejected);
    Response::Restored {
        machines,
        samples,
        rejected,
    }
}

/// The `ERR parse` response for an unterminated over-long line.
pub(crate) fn oversize_resp() -> Response {
    Response::Err {
        code: ErrCode::Parse,
        detail: format!("line exceeds {MAX_LINE_BYTES} bytes"),
    }
}

/// The `ERR timeout` response for a connection idle past its deadline.
pub(crate) fn idle_resp() -> Response {
    Response::Err {
        code: ErrCode::Timeout,
        detail: "idle past deadline; reconnect to resume".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use crate::ring::{HashRing, RingSpec};
    use oc_trace::ids::{CellId, JobId, MachineId, TaskId};

    /// A shard pool and the server state over it, on one registry, for
    /// driving `process_line` directly.
    fn harness(cfg: &ServeConfig) -> (ShardPool, Shared) {
        let metrics = oc_telemetry::MetricsRegistry::new();
        let pool = ShardPool::new(cfg, &metrics).unwrap();
        (pool, Shared::new(cfg, metrics, 0))
    }

    /// One connection driven line by line; `end` is the end of a read
    /// burst, where a frontend would flush and go back to waiting.
    struct Driver<'a> {
        state: ConnState,
        out: Vec<u8>,
        pool: &'a ShardPool,
        shared: &'a Shared,
    }

    impl<'a> Driver<'a> {
        fn new(pool: &'a ShardPool, shared: &'a Shared) -> Driver<'a> {
            Driver {
                state: ConnState::new(),
                out: Vec::new(),
                pool,
                shared,
            }
        }

        fn line(&mut self, line: &str) {
            assert!(self.keeps(line), "{line} closed the connection");
        }

        /// Feeds one line; whether the connection stays open.
        fn keeps(&mut self, line: &str) -> bool {
            process_line(
                line.as_bytes(),
                &mut self.state,
                &mut self.out,
                self.pool,
                self.shared,
            )
            .unwrap()
        }

        fn end(&mut self) {
            flush_chunk(&mut self.state, &mut self.out, self.pool, self.shared).unwrap();
        }

        /// The response lines written so far; clears them.
        fn take(&mut self) -> Vec<String> {
            let text = String::from_utf8(std::mem::take(&mut self.out)).unwrap();
            text.lines().map(str::to_string).collect()
        }
    }

    /// `PREDICT m` / `OBSERVE m` / `PREDICT m` in one burst: the second
    /// read sees the observe although it was still buffered when the read
    /// arrived, both answers are bit-identical to an offline recompute,
    /// the first result does not outlive the observe in the cache, and a
    /// third `PREDICT m` in the next burst is a hit with the second
    /// value's bits.
    fn predicts_around_an_observe_in_one_burst(vector: bool) {
        use oc_core::ingest::IncrementalView;
        use oc_core::predictor::{clamp_prediction, clamp_prediction_lane};
        use oc_stats::resource::{Res2, CPU, MEM};

        let cfg = ServeConfig::default().with_shards(1);
        let (pool, shared) = harness(&cfg);
        let predictor = cfg.predictor.build().unwrap();
        let mut view =
            IncrementalView::new(cfg.machine_capacity, &cfg.sim).with_max_gap(cfg.max_tick_gap);
        let star = if vector { " *" } else { "" };
        let predict_line = format!("PREDICT c 3{star}");
        // One task per tick; the task of tick 10 is new, so the answer
        // moves even inside the predictor's warm-up.
        let sample = |tick: u64| {
            let task = TaskId::new(JobId(1), u32::from(tick == 10));
            (task, 0.1 + tick as f64 / 64.0, 0.3 + tick as f64 / 128.0)
        };
        let observe = |view: &mut IncrementalView, tick: u64| {
            let (task, usage, limit) = sample(tick);
            let mem = vector.then_some((usage / 2.0, limit * 1.5));
            match mem {
                Some((mu, ml)) => view.ingest_vec(
                    Tick(tick),
                    task,
                    Res2::from_lanes([limit, ml]),
                    Res2::from_lanes([usage, mu]),
                ),
                None => view.ingest(Tick(tick), task, limit, usage),
            }
            .unwrap();
            let req = Request::Observe {
                cell: CellId::new("c"),
                machine: MachineId(3),
                task,
                usage,
                limit,
                mem,
                tick,
            };
            req.encode()
        };
        let mut conn = Driver::new(&pool, &shared);
        for tick in 0..10 {
            conn.line(&observe(&mut view, tick));
        }
        conn.end();
        assert_eq!(conn.take(), vec!["OK"; 10]);

        // What the shard computes, from the same samples.
        let offline = |view: &mut IncrementalView| {
            view.flush();
            let v = view.view();
            if vector {
                Response::Pred {
                    peak: clamp_prediction_lane(predictor.predict_lane(v, CPU), v, CPU),
                    mem: Some(clamp_prediction_lane(
                        predictor.predict_lane(v, MEM),
                        v,
                        MEM,
                    )),
                }
            } else {
                Response::Pred {
                    peak: clamp_prediction(predictor.predict(v), v),
                    mem: None,
                }
            }
        };
        let before = offline(&mut view);
        conn.line(&predict_line);
        conn.line(&observe(&mut view, 10));
        let after = offline(&mut view);
        conn.line(&predict_line);
        conn.end();
        let got = conn.take();
        assert_eq!(got, [before.encode(), "OK".to_string(), after.encode()]);
        assert_ne!(before, after, "the observe must move the prediction");
        assert_eq!((shared.cache.hits.get(), shared.cache.misses.get()), (0, 2));

        conn.line(&predict_line);
        assert_eq!(conn.take(), [after.encode()], "a hit is answered at once");
        assert_eq!((shared.cache.hits.get(), shared.cache.misses.get()), (1, 2));

        // An observe buffered behind a read: the read's result is cached
        // under the generation read before the shard was touched, the
        // observe bumps it when the burst ends, so the next burst misses
        // and sees the newer sample.
        conn.line(&observe(&mut view, 11));
        let stale = offline(&mut view);
        conn.line(&predict_line);
        conn.line(&observe(&mut view, 12));
        conn.end();
        assert_eq!(
            conn.take(),
            ["OK".to_string(), stale.encode(), "OK".to_string()]
        );
        let fresh = offline(&mut view);
        conn.line(&predict_line);
        conn.end();
        assert_eq!(conn.take(), [fresh.encode()]);
        assert_eq!((shared.cache.hits.get(), shared.cache.misses.get()), (1, 4));
        pool.shutdown();
    }

    #[test]
    fn scalar_predicts_around_an_observe_in_one_burst() {
        predicts_around_an_observe_in_one_burst(false);
    }

    #[test]
    fn vector_predicts_around_an_observe_in_one_burst() {
        predicts_around_an_observe_in_one_burst(true);
    }

    /// The first two tokens of every response line: the verb and its
    /// first operand (the code, for an `ERR`).
    fn shapes(lines: &[String]) -> Vec<String> {
        lines
            .iter()
            .map(|l| l.split(' ').take(2).collect::<Vec<_>>().join(" "))
            .collect()
    }

    /// A line is a `BATCH` header by its first token alone, and what the
    /// reactor makes of a line is what it made when the whole line was
    /// tokenized for the header check: leading whitespace still finds a
    /// header, `BATCHR 3` sent as a request is an unknown verb, and a
    /// bare `BATCH`, `BATCH 2 3` or `BATCH 0` is answered with its parse
    /// error and closes the connection.
    #[test]
    fn batch_headers_are_detected_by_their_first_token() {
        let cfg = ServeConfig::default().with_shards(1);
        let (pool, shared) = harness(&cfg);
        let mut conn = Driver::new(&pool, &shared);
        conn.line(" \tBATCH 2\r");
        conn.line("  PREDICT c 1");
        conn.line("\tOBSERVE c 1 2:0 0.5 0.75 3 ");
        conn.line("BATCHR 3");
        conn.line("OBSERVE BATCH 1 2:0 0.5 0.75 3");
        conn.end();
        assert_eq!(
            conn.take(),
            [
                "BATCHR 2",
                "ERR unknown-machine c/m1 never observed",
                "OK",
                "ERR parse unknown verb 'BATCHR'",
                "OK",
            ]
        );
        for (header, answer) in [
            ("BATCH", "ERR parse BATCH takes 1 operands, got 0"),
            ("  BATCH 2 3", "ERR parse BATCH takes 1 operands, got 2"),
            (
                "BATCH 0",
                "ERR parse batch of 0 sub-requests outside 1..=1024",
            ),
        ] {
            let mut conn = Driver::new(&pool, &shared);
            assert!(!conn.keeps(header), "{header:?} kept the connection");
            assert_eq!(conn.take(), [answer], "{header:?}");
        }
        pool.shutdown();
    }

    /// Machine `m` of cell `c`'s role for member `index` of `ring`.
    fn role(ring: &HashRing, index: usize, m: u32) -> KeyRole {
        ring.role(index, key_hash(&(CellId::new("c"), MachineId(m))))
    }

    /// Reads check ownership through the connection's version-stamped
    /// snapshot, not the global lock. Slot 0 of a one-node ring holds
    /// every machine; once `RINGSET` grows the ring to three nodes, the
    /// next read of a machine the new ring calls `Remote` for slot 0 —
    /// scalar `PREDICT`, `ADMIT` and vector `PREDICT` alike — is
    /// redirected on the same open connection, and only the machines
    /// the new ring keeps on slot 0 are still held.
    #[test]
    fn ringset_redirects_the_next_read_on_an_open_connection() {
        const MACHINES: u32 = 24;
        let cfg = ServeConfig::default()
            .with_shards(2)
            .with_ring(RingSpec::new(1), 0);
        let (pool, shared) = harness(&cfg);
        let grown = RingSpec::new(3).build();
        let kept = (0..MACHINES)
            .filter(|&m| role(&grown, 0, m) != KeyRole::Remote)
            .count() as u64;
        assert!(0 < kept && kept < u64::from(MACHINES), "{kept}");
        let mut conn = Driver::new(&pool, &shared);
        for m in 0..MACHINES {
            conn.line(&format!("OBSERVE c {m} 1:0 0.2 0.5 0"));
            conn.line(&format!("PREDICT c {m}"));
        }
        conn.line("RINGSET 3 64 17 1 -");
        conn.end();
        let before = shapes(&conn.take());
        assert!(
            before.iter().all(|s| s == "OK" || s == "PRED 0.5"),
            "{before:?}"
        );
        for m in 0..MACHINES {
            conn.line(&format!("PREDICT c {m}"));
            conn.line(&format!("ADMIT c {m} 0.1"));
            conn.line(&format!("PREDICT c {m} *"));
            let want = if role(&grown, 0, m) == KeyRole::Remote {
                ["ERR not-mine"; 3]
            } else {
                ["PRED 0.5", "ADMITTED yes", "PRED 0.5,0"]
            };
            assert_eq!(shapes(&conn.take()), want, "machine {m}");
        }
        assert_eq!(shared.not_mine.get(), 3 * (u64::from(MACHINES) - kept));
        conn.line("STATS");
        let Response::Stats(stats) = Response::parse(&conn.take()[0]).unwrap() else {
            panic!("expected STATS");
        };
        assert_eq!(stats.machines, kept);
        let m = pool.shutdown();
        assert_eq!(
            (m.predicts, m.admits),
            (u64::from(MACHINES) + 2 * kept, kept),
            "redirected reads reach no shard"
        );
    }

    /// A `RINGSET` whose ring is too big to build is refused as a parse
    /// error before anything is allocated: the member keeps its ring and
    /// keeps serving.
    #[test]
    fn oversized_ringset_is_refused_and_the_member_keeps_serving() {
        let spec = RingSpec::new(3);
        let (pool, shared) = harness(&ServeConfig::default().with_shards(1).with_ring(spec, 0));
        let m = (0..)
            .find(|&m| role(&spec.build(), 0, m) != KeyRole::Remote)
            .unwrap();
        let mut conn = Driver::new(&pool, &shared);
        conn.line(&format!("OBSERVE c {m} 1:0 0.2 0.5 0"));
        conn.line("RINGSET 3 4294967296 17 1 -");
        conn.line("RING");
        conn.line(&format!("PREDICT c {m}"));
        conn.end();
        let got = conn.take();
        assert_eq!(shapes(&got), ["OK", "ERR parse", "RING 3", "PRED 0.5"]);
        assert_eq!(got[2], "RING 3 64 17 0 0 -", "generation 0 still installed");
        pool.shutdown();
    }

    /// A member takes any valid push that keeps a slot for its index and
    /// refuses one that does not; a standalone server refuses both ring
    /// verbs.
    #[test]
    fn ring_pushes_need_a_slot_for_this_member() {
        let cfg = ServeConfig::default().with_shards(1);
        let (pool, shared) = harness(&cfg.clone().with_ring(RingSpec::new(3), 2));
        let mut conn = Driver::new(&pool, &shared);
        conn.line("RINGSET 2 64 17 1 -");
        conn.line("RINGSET 4 8 5 1 -");
        conn.line("RINGSET 3 64 17 0 -");
        conn.line("RING");
        let got = conn.take();
        assert_eq!(shapes(&got[..3]), ["ERR internal", "OK", "ERR stale"]);
        assert_eq!(got[3], "RING 4 8 5 1 1 -");
        pool.shutdown();
        let (pool, shared) = harness(&cfg);
        let mut conn = Driver::new(&pool, &shared);
        conn.line("RING");
        conn.line("RINGSET 1 64 17 1 -");
        assert_eq!(shapes(&conn.take()), ["ERR internal"; 2]);
        pool.shutdown();
    }

    /// State transfer through the connection state machine: one server's
    /// `HANDOFF` dump installs into another with `RESTORE`; records of
    /// machines owned elsewhere or already held are rejected, a frame
    /// with a malformed record installs nothing and answers `ERR parse`,
    /// `RESTORE` inside `BATCH` is refused, and the installed machines
    /// answer exactly as their source does.
    #[test]
    fn restore_frames_install_reject_and_refuse() {
        // Two machines slot 0 of a three-node ring holds, then one it
        // does not.
        let spec = RingSpec::new(3);
        let ring = spec.build();
        let (held, remote): (Vec<u32>, Vec<u32>) =
            (0..64).partition(|&m| role(&ring, 0, m) != KeyRole::Remote);
        let machines = [held[0], held[1], remote[0]];
        let cfg = ServeConfig::default().with_shards(2);
        let (pool, shared) = harness(&cfg);
        let mut from = Driver::new(&pool, &shared);
        for t in 0..30 {
            for (i, m) in machines.iter().enumerate() {
                from.line(&format!("OBSERVE c {m} 1:0 0.{} 0.5 {t}", i + 1));
            }
        }
        from.line("HANDOFF");
        let dump = from.take();
        assert_eq!(dump[90], "HANDOFF 3");
        let records = &dump[91..];
        let first = parse_view_header(&records[0]).unwrap();
        assert!(first.parts >= 2, "{first:?}");

        let (pool2, shared2) = harness(&cfg.clone().with_ring(spec, 0));
        let mut to = Driver::new(&pool2, &shared2);
        to.line("BATCH 1");
        to.line("RESTORE 1");
        to.line(&format!("RESTORE {}", first.parts));
        for line in &records[..first.parts] {
            to.line(line);
        }
        for _ in 0..2 {
            to.line(&format!("RESTORE {}", records.len()));
            for line in records {
                to.line(line);
            }
        }
        let got = to.take();
        assert_eq!(
            got[..2],
            ["BATCHR 1", "ERR parse RESTORE is not allowed inside BATCH"]
        );
        assert!(got[2].starts_with("ERR parse record of"), "{got:?}");
        assert_eq!(got[3..], ["RESTORED 2 60 1", "RESTORED 0 0 3"]);
        assert_eq!(shared2.restore.machines.get(), 2);
        assert_eq!(shared2.restore.samples.get(), 60);
        assert_eq!(shared2.restore.rejected.get(), 1 + 1 + 3);
        assert_eq!(shared2.parse_errors.get(), 2);
        for m in &machines[..2] {
            let predict = format!("PREDICT c {m}");
            from.line(&predict);
            to.line(&predict);
            assert_eq!(to.take(), from.take());
        }
        let restored = pool2.shutdown();
        assert_eq!((restored.machines, restored.observes), (2, 0));
        pool.shutdown();
    }

    /// Renders generated `(kind, machine, value)` triples into a wire
    /// payload: scalar and vector `OBSERVE`s on advancing ticks, both
    /// `PREDICT` forms, `ADMIT`, reads of never-observed machines,
    /// malformed lines, and complete `BATCH` frames over any of those. A
    /// malformed `BATCH` header (which closes the connection) ends the
    /// payload. Returns the payload and the number of response lines it
    /// must draw.
    fn render(ops: &[(u32, u32, f64)]) -> (Vec<u8>, usize) {
        let mut wire = Vec::new();
        let mut ticks = [0u64; 4];
        let mut frame_left = 0usize;
        for (i, &(kind, m, v)) in ops.iter().enumerate() {
            let in_frame = frame_left > 0;
            frame_left = frame_left.saturating_sub(1);
            let tick = ticks[m as usize];
            let line = match kind % 16 {
                0..=2 => {
                    ticks[m as usize] += 1;
                    format!("OBSERVE c {m} 1:{} {v} 0.5 {tick}", kind % 2)
                }
                3 | 4 => {
                    ticks[m as usize] += 1;
                    format!("OBSERVE c {m} 1:0 {v},{} 0.5,0.6 {tick}", v / 2.0)
                }
                5 | 6 => format!("PREDICT c {m}"),
                7 | 8 => format!("PREDICT c {m} *"),
                9 | 10 => format!("ADMIT c {m} {v}"),
                11 => format!("PREDICT c 9{m}"),
                12 => format!("NONSENSE {m}"),
                13 => format!("OBSERVE c {m}"),
                // Not batchable: a recoverable per-line `ERR parse`.
                14 if in_frame => "STATS".to_string(),
                14 if i + 1 == ops.len() => "BATCH-LESS".to_string(),
                14 => {
                    frame_left = (1 + (v * 16.0) as usize).min(ops.len() - i - 1);
                    format!("BATCH {frame_left}")
                }
                // One kind in 64: the unrecoverable header. Answered,
                // then the connection closes and the rest is never read.
                _ if kind == 63 && !in_frame => {
                    wire.extend_from_slice(b"BATCH x\n");
                    return (wire, i + 1);
                }
                // Not UTF-8: a recoverable `ERR parse`.
                _ => {
                    wire.extend_from_slice(b"PREDICT c \xff\xfe\n");
                    continue;
                }
            };
            wire.extend_from_slice(line.as_bytes());
            wire.push(b'\n');
        }
        (wire, ops.len())
    }

    /// Serves `chunks` the way a frontend serves reads: every complete
    /// line through `process_line`, a burst end after every chunk.
    fn serve<'a>(chunks: impl Iterator<Item = &'a [u8]>) -> Vec<u8> {
        let cfg = ServeConfig::default().with_shards(2);
        let (pool, shared) = harness(&cfg);
        let mut state = ConnState::new();
        let mut acc = LineAccumulator::new();
        let mut out = Vec::new();
        for chunk in chunks {
            let fed = acc
                .feed(chunk, |line| {
                    process_line(line, &mut state, &mut out, &pool, &shared)
                })
                .unwrap();
            flush_chunk(&mut state, &mut out, &pool, &shared).unwrap();
            if fed != Feed::More {
                break;
            }
        }
        pool.shutdown();
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// However the transport cuts the input into read bursts, the
        /// response stream is byte-identical to serving the same input
        /// one line per burst — the reference, where no observe is ever
        /// coalesced with another and every chunk is a chunk of one.
        #[test]
        fn replies_match_the_line_at_a_time_reference_however_reads_are_cut(
            ops in proptest::collection::vec((0u32..64, 0u32..4, 0.0f64..0.5), 1..80),
            cuts in proptest::collection::vec(0u64..400, 0..12),
        ) {
            let (wire, responses) = render(&ops);
            let reference = serve(wire.split_inclusive(|&b| b == b'\n'));
            proptest::prop_assert_eq!(
                reference.iter().filter(|&&b| b == b'\n').count(),
                responses,
                "one response line per request line"
            );
            let mut chunks = Vec::new();
            let mut rest = &wire[..];
            for &cut in &cuts {
                let (head, tail) = rest.split_at((cut as usize + 1).min(rest.len()));
                chunks.push(head);
                rest = tail;
            }
            chunks.push(rest);
            let served = serve(chunks.into_iter());
            proptest::prop_assert_eq!(served, reference);
        }
    }
}
