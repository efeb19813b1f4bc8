//! Per-connection protocol machinery.
//!
//! The wire behavior of a connection — line framing, the observe
//! micro-batcher, deferred `PREDICT`/`ADMIT` replies, `BATCH` framing,
//! error handling — lives here, free of any socket: the reactor (the
//! `reactor` module, driven by readiness events) feeds bytes through a
//! [`LineAccumulator`] and dispatches complete lines through
//! `process_line` into any [`Write`], so the tests and the benchmark's
//! layer probes drive exactly the code a connection runs.
//!
//! **Reads are begun, then settled.** A `PREDICT` that misses the cache,
//! or an `ADMIT`, is enqueued on its shard without waiting (*begin*); the
//! replies of a whole read burst are collected afterwards in request order
//! (*settle*, in `end_burst`), so the shard workers compute while the
//! frontend is still parsing and the frontend blocks a few times per burst
//! instead of once per read. From the first pending read on, every later
//! response of the connection is held back in a side buffer so that
//! nothing overtakes it; with no read pending, responses go straight to
//! the frontend's writer.

use crate::proto::{parse_batch_header, ErrCode, ProtoScratch, Request, Response, MAX_LINE_BYTES};
use crate::server::{dispatch, shutting_down, Shared};
use crate::shard::{
    MachineKey, ObserveChunk, ObserveItem, SendFail, ShardMsg, ShardPool, MAX_PENDING_READS,
    OBS_CHUNK,
};
use oc_telemetry::trace;
use oc_trace::time::Tick;
use std::fmt;
use std::io::Write;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
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

/// One `PREDICT`/`ADMIT` enqueued on its shard whose reply has not been
/// collected yet.
struct PendingRead {
    rx: Receiver<Response>,
    /// `(key, generation)` a successful `PREDICT` is cached under: the
    /// generation read *before* the enqueue, so a racing observe can only
    /// turn a later hit into a miss. `None` for `ADMIT`.
    store: Option<(MachineKey, u64)>,
    /// Offset in [`Deferred::held`] where this read's response belongs.
    at: usize,
}

/// The reads a connection has begun but not yet settled, and the
/// responses held back behind them.
#[derive(Default)]
pub(crate) struct Deferred {
    /// Pending reads in request order; at most [`MAX_PENDING_READS`].
    reads: Vec<PendingRead>,
    /// Every response produced since the first pending read, in order,
    /// minus the awaited replies themselves ([`PendingRead::at`] marks
    /// where each belongs). Empty whenever `reads` is.
    held: Vec<u8>,
}

impl Deferred {
    /// No read is pending: the frontend may go back to waiting for input.
    pub(crate) fn is_settled(&self) -> bool {
        self.reads.is_empty()
    }

    /// Response bytes held back behind pending reads.
    pub(crate) fn held_len(&self) -> usize {
        self.held.len()
    }

    /// Appends `n` copies of `bytes` to the response stream: straight to
    /// the frontend's writer, or — while a read is pending — to the
    /// held-back buffer, so nothing overtakes the awaited reply.
    fn emit_n<W: Write>(&mut self, writer: &mut W, bytes: &[u8], n: usize) -> std::io::Result<()> {
        if self.reads.is_empty() {
            for _ in 0..n {
                writer.write_all(bytes)?;
            }
        } else {
            for _ in 0..n {
                self.held.extend_from_slice(bytes);
            }
        }
        Ok(())
    }

    fn emit<W: Write>(&mut self, writer: &mut W, bytes: &[u8]) -> std::io::Result<()> {
        self.emit_n(writer, bytes, 1)
    }
}

/// Per-connection reusable state: the parse scratch, the response encode
/// buffer, the observe micro-batcher, the deferred reads, and `BATCH`
/// framing progress. All buffers are recycled line over line, so the
/// steady-state `OBSERVE` path performs no per-request heap allocation.
pub(crate) struct ConnState {
    pub(crate) scratch: ProtoScratch,
    pub(crate) out: Vec<u8>,
    pub(crate) chunk: Box<ObserveChunk>,
    /// Shard the current chunk routes to (meaningful when `chunk.len > 0`).
    pub(crate) chunk_shard: usize,
    /// Reads begun but not yet settled, and the responses held behind them.
    pub(crate) deferred: Deferred,
    /// Sub-request lines still expected in the current `BATCH` frame.
    pub(crate) batch_left: usize,
    /// A chunk of the current `BATCH` frame was rejected `BUSY`: every
    /// later observe in the same frame answers `BUSY` without enqueueing,
    /// so a frame's applied observes are always a prefix of the frame.
    /// Pipelined clients rely on this to replay a rejected tail without
    /// reordering any machine's sample stream (PROTOCOL.md §2.1).
    pub(crate) frame_busy: bool,
    /// Last observed routing key and its shard. A connection almost
    /// always streams samples for one machine (the node-agent shape), so
    /// this memo replaces the per-line routing hash with an equality
    /// check. (Ring changes never invalidate it: shard routing is
    /// `key_hash % shards`, independent of the cluster ring.)
    route_memo: Option<(crate::shard::MachineKey, usize)>,
    /// Ring version the cached [`ConnState::ownership`] map was cloned
    /// at; `u64::MAX` forces the first line to snapshot. Re-snapshotted
    /// whenever the server's version moves (a `RINGSET` landed), so the
    /// observe hot path pays one atomic load — not a lock — per line.
    own_version: u64,
    /// Cached clone of the server's live ownership map (`None` =
    /// standalone: own every key).
    ownership: Option<crate::config::OwnershipMap>,
}

impl ConnState {
    pub(crate) fn new() -> ConnState {
        ConnState {
            scratch: ProtoScratch::new(),
            out: Vec::with_capacity(256),
            chunk: Box::new(ObserveChunk::new()),
            chunk_shard: 0,
            deferred: Deferred::default(),
            batch_left: 0,
            frame_busy: false,
            route_memo: None,
            own_version: u64::MAX,
            ownership: None,
        }
    }

    /// Encodes `resp` with its newline and appends it to the connection's
    /// response stream, behind any pending read.
    pub(crate) fn respond<W: Write>(
        &mut self,
        writer: &mut W,
        resp: &Response,
    ) -> std::io::Result<()> {
        self.out.clear();
        resp.encode_into(&mut self.out);
        self.out.push(b'\n');
        self.deferred.emit(writer, &self.out)
    }
}

/// This connection's role check for `key`, served from the cached
/// ownership map (refreshed when a `RINGSET` bumps the ring version).
fn cached_role(
    state: &mut ConnState,
    shared: &Shared,
    key: &crate::shard::MachineKey,
) -> crate::config::KeyRole {
    let version = crate::server::ring_version(shared);
    if state.own_version != version {
        let (v, map) = crate::server::ownership_snapshot(shared);
        state.own_version = v;
        state.ownership = map;
    }
    match &state.ownership {
        Some(map) => map.role_of(crate::shard::key_hash(key)),
        None => crate::config::KeyRole::Owner,
    }
}

/// Enqueues the pending observe chunk (if any) and writes the deferred
/// acknowledgements, one per sample, in order. `try_send` is all-or-
/// nothing for the chunk: on `BUSY` every sample is answered `BUSY` and
/// the client retries them individually (ingestion is idempotent, so the
/// partial overlap of a retried run is harmless). Generation stripes are
/// bumped strictly after a successful enqueue and before the `OK`s are
/// written — the predict cache's read-your-writes edge.
fn flush_chunk<W: Write>(
    state: &mut ConnState,
    writer: &mut W,
    pool: &ShardPool,
    shared: &Shared,
) -> std::io::Result<()> {
    let len = state.chunk.len;
    if len == 0 {
        return Ok(());
    }
    let shard = state.chunk_shard;
    // One stripe hash per run of same-machine samples (a fan-in
    // connection fills whole chunks from one machine); each run's
    // generation stripe is bumped once with the run length.
    let mut runs = [(0usize, 0u64); OBS_CHUNK];
    let mut n_runs = 0;
    {
        let items = &state.chunk.items[..len];
        let mut i = 0;
        while i < items.len() {
            let key = &items[i].key;
            let start = i;
            while i < items.len() && items[i].key == *key {
                i += 1;
            }
            runs[n_runs] = (shared.cache.stripe_of(key), (i - start) as u64);
            n_runs += 1;
        }
    }
    let sent = if len == 1 {
        // A lone sample skips the chunk wrapper (and its box) entirely.
        let item = std::mem::take(&mut state.chunk.items[0]);
        state.chunk.len = 0;
        pool.try_send(
            shard,
            ShardMsg::Observe {
                key: item.key,
                task: item.task,
                usage: item.usage,
                limit: item.limit,
                mem: item.mem,
                tick: item.tick,
                enqueued: state.chunk.enqueued,
            },
        )
    } else {
        let chunk = std::mem::replace(&mut state.chunk, Box::new(ObserveChunk::new()));
        pool.try_send(shard, ShardMsg::ObserveBatch(chunk))
    };
    match sent {
        Ok(()) => {
            if len > 1 {
                shared.batch_coalesced.add(len as u64 - 1);
            }
            for (stripe, n) in &runs[..n_runs] {
                shared.cache.bump_n(*stripe, *n);
            }
            state.deferred.emit_n(writer, b"OK\n", len)?;
        }
        Err((SendFail::Busy, _)) => {
            shared.busy.add(len as u64);
            trace::event("serve.busy", shard as u64, len as u64);
            // Poison the rest of the current frame (if any): later
            // observes in it answer BUSY unconditionally, keeping the
            // frame's applied observes a contiguous prefix.
            if state.batch_left > 0 {
                state.frame_busy = true;
            }
            state.deferred.emit_n(writer, b"BUSY\n", len)?;
        }
        Err((SendFail::Closed, _)) => {
            let resp = shutting_down();
            for _ in 0..len {
                state.respond(writer, &resp)?;
            }
        }
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
        // Busy-poisoning is frame-scoped; a fresh line outside any frame
        // (including the next frame's header) clears it.
        state.frame_busy = false;
        match parse_batch_header(line, &mut state.scratch) {
            // Not a batch header: fall through to the ordinary parse.
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
                state.deferred.emit(writer, &state.out)?;
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
            // Owners ingest their own keys; replicas ingest the mirrored
            // stream. A key owned elsewhere is redirected — after the
            // pending chunk flushes, so responses stay in request order.
            if cached_role(state, shared, &key) == crate::config::KeyRole::Remote {
                flush_chunk(state, writer, pool, shared)?;
                let resp = crate::server::not_mine(shared);
                state.respond(writer, &resp)?;
                return Ok(true);
            }
            // An earlier chunk of this frame was rejected: the rest of
            // the frame's observes reject too (the chunk buffer is empty
            // here — a poisoning flush answered and cleared it).
            if state.frame_busy {
                shared.busy.inc();
                state.deferred.emit(writer, b"BUSY\n")?;
                return Ok(true);
            }
            let shard = match &state.route_memo {
                Some((memo_key, memo_shard)) if *memo_key == key => *memo_shard,
                _ => {
                    let s = pool.route(&key);
                    state.route_memo = Some((key.clone(), s));
                    s
                }
            };
            if state.chunk.len > 0 && (shard != state.chunk_shard || state.chunk.len == OBS_CHUNK) {
                flush_chunk(state, writer, pool, shared)?;
                // That flush may have just poisoned the frame. This line
                // must reject too — appending it to the fresh chunk would
                // defer its reply past the immediate BUSYs of the lines
                // after it, permuting replies within the BATCHR frame.
                if state.frame_busy {
                    shared.busy.inc();
                    state.deferred.emit(writer, b"BUSY\n")?;
                    return Ok(true);
                }
            }
            if state.chunk.len == 0 {
                state.chunk_shard = shard;
                state.chunk.enqueued = Instant::now();
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
            | Request::Handoff),
        ) if in_batch => {
            // Control verbs are not batchable: one per-sub-request parse
            // error, and the rest of the frame proceeds normally.
            // (HANDOFF's multi-line dump would break BATCHR framing.)
            flush_chunk(state, writer, pool, shared)?;
            shared.parse_errors.inc();
            let verb = match req {
                Request::Stats => "STATS",
                Request::Metrics => "METRICS",
                Request::Ring => "RING",
                Request::RingSet { .. } => "RINGSET",
                Request::Handoff => "HANDOFF",
                _ => "SHUTDOWN",
            };
            let resp = parse_err(&format_args!("{verb} is not allowed inside BATCH"));
            state.respond(writer, &resp)?;
            Ok(true)
        }
        Ok(Request::Handoff) => {
            shared.requests.handoff.inc();
            // The pending chunk flushes first so the dump reflects every
            // sample this connection already had acknowledged; pending
            // reads settle first so the dump, which can be the whole
            // ingest history, streams out instead of being held back.
            flush_chunk(state, writer, pool, shared)?;
            settle(state, writer, shared)?;
            if !shared.cfg.handoff_log {
                let resp = Response::Err {
                    code: ErrCode::Internal,
                    detail: "handoff log disabled on this server".to_string(),
                };
                state.respond(writer, &resp)?;
                return Ok(true);
            }
            match crate::server::collect_handoff(pool) {
                Ok(entries) => {
                    // `HANDOFF <n>` header, then n OBSERVE lines in
                    // original arrival order — the dump replays verbatim
                    // through any ingest path.
                    state.out.clear();
                    state.out.extend_from_slice(b"HANDOFF ");
                    state
                        .out
                        .extend_from_slice(entries.len().to_string().as_bytes());
                    state.out.push(b'\n');
                    state.deferred.emit(writer, &state.out)?;
                    for e in entries {
                        let req = Request::Observe {
                            cell: e.key.0,
                            machine: e.key.1,
                            task: e.task,
                            usage: e.usage,
                            limit: e.limit,
                            mem: e.mem,
                            tick: e.tick.0,
                        };
                        state.out.clear();
                        req.encode_into(&mut state.out);
                        state.out.push(b'\n');
                        state.deferred.emit(writer, &state.out)?;
                    }
                }
                Err(resp) => state.respond(writer, &resp)?,
            }
            Ok(true)
        }
        Ok(Request::Predict {
            cell,
            machine,
            vector,
        }) => {
            // Ordering: every coalesced sample must be enqueued before a
            // PREDICT/ADMIT/STATS sees the shard, so a connection always
            // reads its own acknowledged writes.
            flush_chunk(state, writer, pool, shared)?;
            shared.requests.predict.inc();
            let key = (cell, machine);
            // Reads are served by the owner and (for failover) the ring
            // successor; a key some other process owns is redirected.
            if cached_role(state, shared, &key) == crate::config::KeyRole::Remote {
                let resp = crate::server::not_mine(shared);
                state.respond(writer, &resp)?;
                return Ok(true);
            }
            // Both shapes share the cache; a hit must match the query's
            // shape (scalar vs per-lane vector). The generation is read
            // before the enqueue and the result is stored under it at
            // settle, so the stamp can only ever be conservative: a
            // sample racing in after this read forces a later miss, never
            // a stale hit. (That includes this connection's own burst: a
            // second PREDICT of a machine whose first is still pending
            // misses too.)
            let gen = shared.cache.generation(shared.cache.stripe_of(&key));
            if let Some(resp) = shared.cache.lookup(&key, gen, vector) {
                shared.cache.hits.inc();
                state.respond(writer, &resp)?;
                return Ok(true);
            }
            shared.cache.misses.inc();
            begin_read(state, writer, pool, shared, key, Some(gen), |key, reply| {
                ShardMsg::Predict {
                    key,
                    vector,
                    reply,
                    enqueued: Instant::now(),
                }
            })?;
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
            if cached_role(state, shared, &key) == crate::config::KeyRole::Remote {
                let resp = crate::server::not_mine(shared);
                state.respond(writer, &resp)?;
                return Ok(true);
            }
            begin_read(state, writer, pool, shared, key, None, |key, reply| {
                ShardMsg::Admit {
                    key,
                    limit,
                    reply,
                    enqueued: Instant::now(),
                }
            })?;
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

/// Enqueues a read of `key` on its shard without waiting for the reply,
/// which [`settle`] collects later, in request order; `cache_gen` is the
/// generation a successful `PREDICT` is cached under (`None` for `ADMIT`).
/// On a full queue the connection's own pending reads are settled and the
/// enqueue retried once before answering `BUSY`: they may be what fills
/// the queue, and a connection must not be refused because of its own
/// burst.
fn begin_read<W: Write>(
    state: &mut ConnState,
    writer: &mut W,
    pool: &ShardPool,
    shared: &Shared,
    key: MachineKey,
    cache_gen: Option<u64>,
    msg: impl FnOnce(MachineKey, SyncSender<Response>) -> ShardMsg,
) -> std::io::Result<()> {
    let shard = pool.route(&key);
    let store = cache_gen.map(|gen| (key.clone(), gen));
    let (reply, rx) = sync_channel(1);
    let sent = match pool.try_send(shard, msg(key, reply)) {
        Err((SendFail::Busy, msg)) if !state.deferred.reads.is_empty() => {
            settle(state, writer, shared)?;
            pool.try_send(shard, msg)
        }
        sent => sent,
    };
    match sent {
        Ok(()) => {
            shared.read_deferred.inc();
            let at = state.deferred.held.len();
            state.deferred.reads.push(PendingRead { rx, store, at });
            if state.deferred.reads.len() == MAX_PENDING_READS {
                settle(state, writer, shared)?;
            }
            Ok(())
        }
        Err((SendFail::Busy, _)) => {
            shared.busy.inc();
            trace::event("serve.busy", shard as u64, 0);
            state.respond(writer, &Response::Busy)
        }
        Err((SendFail::Closed, _)) => state.respond(writer, &shutting_down()),
    }
}

/// Collects the replies of every pending read in request order and writes
/// them out interleaved with the responses held back behind them;
/// successful `PREDICT`s enter the cache under their pre-enqueue
/// generation. This is the one place a frontend waits for a shard.
fn settle<W: Write>(state: &mut ConnState, writer: &mut W, shared: &Shared) -> std::io::Result<()> {
    let Deferred { reads, held } = &mut state.deferred;
    if reads.is_empty() {
        return Ok(());
    }
    shared.read_settles.inc();
    let _wait = trace::span("serve.settle");
    let out = &mut state.out;
    let mut written = 0;
    // A failed write drops the remaining receivers with the drain (the
    // workers tolerate that), so no pending read outlives this call.
    let result = reads
        .drain(..)
        .try_for_each(|read| {
            let resp = read.rx.recv().unwrap_or_else(|_| shutting_down());
            if let (Response::Pred { peak, mem }, Some((key, gen))) = (&resp, read.store) {
                // Only successful predictions are cached; unknown-machine
                // errors must re-check the shard (an ADMIT may create the
                // machine at any time).
                shared.cache.store(key, gen, *peak, *mem);
            }
            writer.write_all(&held[written..read.at])?;
            written = read.at;
            out.clear();
            resp.encode_into(out);
            out.push(b'\n');
            writer.write_all(out)
        })
        .and_then(|()| writer.write_all(&held[written..]));
    held.clear();
    result
}

/// Ends a read burst: enqueues the pending observe chunk, then settles the
/// pending reads. The reactor calls this whenever it runs out of complete
/// lines, before it writes the output out and waits for more input — so
/// no deferred acknowledgement and no pending read ever outlives the
/// readiness event that created it.
pub(crate) fn end_burst<W: Write>(
    state: &mut ConnState,
    writer: &mut W,
    pool: &ShardPool,
    shared: &Shared,
) -> std::io::Result<()> {
    flush_chunk(state, writer, pool, shared)?;
    settle(state, writer, shared)
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
    use oc_trace::ids::{CellId, JobId, MachineId, TaskId};
    use std::sync::mpsc::sync_channel;

    fn filler(m: u32, tick: u64) -> ShardMsg {
        ShardMsg::Observe {
            key: (CellId::new("t"), MachineId(m)),
            task: TaskId::new(JobId(1), 0),
            usage: 0.2,
            limit: 0.5,
            mem: None,
            tick: Tick(tick),
            enqueued: Instant::now(),
        }
    }

    fn predict(reply: std::sync::mpsc::SyncSender<Response>) -> ShardMsg {
        ShardMsg::Predict {
            key: (CellId::new("t"), MachineId(1)),
            vector: false,
            reply,
            enqueued: Instant::now(),
        }
    }

    fn fill_until_busy(pool: &ShardPool) {
        let mut tick = 0;
        loop {
            match pool.try_send(0, filler(1, tick)) {
                Ok(()) => tick += 1,
                Err((SendFail::Busy, _)) => return,
                Err((SendFail::Closed, _)) => panic!("shard worker died"),
            }
        }
    }

    /// A frame whose first chunk rejects `BUSY` answers `BUSY` for every
    /// later observe of the same frame without enqueueing — applied
    /// observes are a contiguous frame prefix, replies stay in line
    /// order, and the next frame starts clean (PROTOCOL.md §2.1).
    #[test]
    fn busy_mid_frame_poisons_the_rest_of_the_frame_in_order() {
        let cfg = ServeConfig::default().with_shards(1).with_queue_depth(3);
        let metrics = oc_telemetry::MetricsRegistry::new();
        let depth_gauge = metrics.gauge("serve.shard.queue_depth.0");
        let pool = ShardPool::new(&cfg, &metrics).unwrap();
        let shared = Shared::new(&cfg, metrics, 0);

        // Park the worker deterministically, no sleeps: two rendezvous
        // PREDICTs. The worker parks in the first reply.send; receiving
        // that reply lets it take exactly one more message (the second
        // predict) off the queue and park again — for good, because the
        // second reply is never received until the end of the test.
        let (r1, rx1) = sync_channel::<Response>(0);
        let (r2, rx2) = sync_channel::<Response>(0);
        pool.send(0, predict(r1)).unwrap();
        pool.send(0, predict(r2)).unwrap();
        fill_until_busy(&pool);
        rx1.recv().unwrap();
        // The worker frees exactly one slot (taking the second predict);
        // claim it, top the queue back up, and it stays full forever.
        loop {
            match pool.try_send(0, filler(1, 9_999)) {
                Ok(()) => break,
                Err((SendFail::Busy, _)) => std::thread::yield_now(),
                Err((SendFail::Closed, _)) => panic!("shard worker died"),
            }
        }
        fill_until_busy(&pool);

        // A frame of OBS_CHUNK + 4 observes: the chunk-full flush at line
        // 65 rejects BUSY and poisons the frame; lines 65..68 must reject
        // immediately, in line order, without touching the queue.
        let n = OBS_CHUNK + 4;
        let mut state = ConnState::new();
        let mut out: Vec<u8> = Vec::new();
        let header = format!("BATCH {n}");
        assert!(process_line(header.as_bytes(), &mut state, &mut out, &pool, &shared).unwrap());
        for t in 0..n {
            let line = format!("OBSERVE c 7 1:0 0.2 0.5 {t}");
            assert!(process_line(line.as_bytes(), &mut state, &mut out, &pool, &shared).unwrap());
        }
        assert_eq!(
            state.chunk.len, 0,
            "a poisoned frame leaves no deferred chunk"
        );
        let expected: String = format!("BATCHR {n}\n") + &"BUSY\n".repeat(n);
        assert_eq!(String::from_utf8(out.clone()).unwrap(), expected);
        assert_eq!(shared.busy.get() as usize, n);

        // Release the worker and let the queue drain: the next frame
        // starts unpoisoned and its observes are applied and acked.
        let resp = rx2.recv().unwrap();
        assert!(matches!(resp, Response::Err { .. } | Response::Pred { .. }));
        while depth_gauge.get() != 0 {
            std::thread::yield_now();
        }
        out.clear();
        assert!(process_line(b"BATCH 2", &mut state, &mut out, &pool, &shared).unwrap());
        assert!(process_line(
            b"OBSERVE c 7 1:0 0.2 0.5 100",
            &mut state,
            &mut out,
            &pool,
            &shared
        )
        .unwrap());
        assert!(process_line(
            b"OBSERVE c 7 1:0 0.3 0.5 101",
            &mut state,
            &mut out,
            &pool,
            &shared
        )
        .unwrap());
        // End of the read burst: the pending chunk flushes (Feed::More).
        end_burst(&mut state, &mut out, &pool, &shared).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "BATCHR 2\nOK\nOK\n",
            "the poison is frame-scoped: the next frame is clean"
        );
        pool.shutdown();
    }

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
            let keep = process_line(
                line.as_bytes(),
                &mut self.state,
                &mut self.out,
                self.pool,
                self.shared,
            );
            assert!(keep.unwrap(), "{line} closed the connection");
        }

        fn end(&mut self) {
            end_burst(&mut self.state, &mut self.out, self.pool, self.shared).unwrap();
            assert!(self.state.deferred.is_settled());
            assert_eq!(self.state.deferred.held_len(), 0);
        }

        /// The response lines written so far; clears them.
        fn take(&mut self) -> Vec<String> {
            let text = String::from_utf8(std::mem::take(&mut self.out)).unwrap();
            text.lines().map(str::to_string).collect()
        }
    }

    /// While a read waits on its shard, no byte of any later response
    /// reaches the writer; once the shard answers, everything appears in
    /// request order.
    #[test]
    fn nothing_overtakes_a_pending_read() {
        let cfg = ServeConfig::default().with_shards(1);
        let (pool, shared) = harness(&cfg);
        // Park the worker, no sleeps: it blocks in this rendezvous reply
        // and cannot reach anything queued behind it until `parked` is
        // received.
        let (reply, parked) = sync_channel::<Response>(0);
        pool.send(0, predict(reply)).unwrap();

        let mut conn = Driver::new(&pool, &shared);
        conn.line("OBSERVE c 7 1:0 0.2 0.5 0");
        conn.line("PREDICT c 7"); // flushes the chunk, then pends
        conn.line("OBSERVE c 7 1:0 0.3 0.5 1");
        conn.line("NONSENSE"); // flushes the chunk: OK + ERR, both held
        conn.line("ADMIT c 7 0.1"); // second pending read
        conn.line("BATCH 2"); // BATCHR header, held
        conn.line("OBSERVE c 7 1:1 0.1 0.25 2"); // a second task
        conn.line("PREDICT c 7"); // generation moved: third pending read
        conn.line("PREDICT c 7 *"); // fourth: the vector slot is cold
        assert_eq!(
            conn.out, b"OK\n",
            "only what precedes the first pending read may be written"
        );
        assert_eq!(conn.state.deferred.reads.len(), 4);
        assert_eq!(shared.read_deferred.get(), 4);
        assert_eq!(shared.read_settles.get(), 0);

        parked.recv().unwrap();
        conn.end();
        let got = conn.take();
        let shape: Vec<&str> = got
            .iter()
            .map(|l| l.split(' ').next().unwrap_or(""))
            .collect();
        assert_eq!(
            shape,
            ["OK", "PRED", "OK", "ERR", "ADMITTED", "BATCHR", "OK", "PRED", "PRED"],
            "{got:?}"
        );
        assert_ne!(got[1], got[7], "the second PREDICT saw the new task");
        assert_eq!(shared.read_settles.get(), 1);
        pool.shutdown();
    }

    /// The pending list is capped: a burst with more reads than
    /// [`MAX_PENDING_READS`] settles when it reaches the cap, not only at
    /// its end.
    #[test]
    fn a_burst_longer_than_the_cap_settles_early() {
        let cfg = ServeConfig::default().with_shards(2);
        let (pool, shared) = harness(&cfg);
        let mut conn = Driver::new(&pool, &shared);
        for m in 0..MAX_PENDING_READS + 5 {
            conn.line(&format!("ADMIT c {m} 0.1"));
        }
        assert_eq!(shared.read_settles.get(), 1);
        assert_eq!(conn.state.deferred.reads.len(), 5);
        assert_eq!(conn.take().len(), MAX_PENDING_READS);
        conn.end();
        let rest = conn.take();
        assert_eq!(rest.len(), 5);
        assert!(
            rest.iter().all(|l| l.starts_with("ADMITTED yes ")),
            "{rest:?}"
        );
        assert_eq!(shared.read_settles.get(), 2);
        assert_eq!(shared.read_deferred.get() as usize, MAX_PENDING_READS + 5);
        pool.shutdown();
    }

    /// A connection's own reads never earn it a `BUSY`: with room for two
    /// messages on the queue, a burst of 32 reads settles what is pending
    /// and retries whenever the queue is full.
    #[test]
    fn own_reads_never_answer_busy_on_a_tiny_queue() {
        let cfg = ServeConfig::default().with_shards(1).with_queue_depth(2);
        let metrics = oc_telemetry::MetricsRegistry::new();
        let depth_gauge = metrics.gauge("serve.shard.queue_depth.0");
        let pool = ShardPool::new(&cfg, &metrics).unwrap();
        let shared = Shared::new(&cfg, metrics, 0);
        // Park the worker (no sleeps) and wait until it has taken the
        // parking message off the queue, so exactly two reads fit and the
        // third finds the queue full with two of its own pending.
        let (reply, parked) = sync_channel::<Response>(0);
        pool.send(0, predict(reply)).unwrap();
        while depth_gauge.get() != 0 {
            std::thread::yield_now();
        }
        let mut conn = Driver::new(&pool, &shared);
        std::thread::scope(|scope| {
            // Release the worker only once the connection is inside its
            // first settle, i.e. after the full queue was met.
            let settles = &shared.read_settles;
            scope.spawn(move || {
                while settles.get() == 0 {
                    std::thread::yield_now();
                }
                parked.recv().unwrap();
            });
            for m in 0..32 {
                conn.line(&format!("ADMIT c {m} 0.1"));
            }
            conn.end();
        });
        let got = conn.take();
        assert_eq!(got.len(), 32);
        assert!(
            got.iter().all(|l| l.starts_with("ADMITTED yes ")),
            "{got:?}"
        );
        assert_eq!(shared.busy.get(), 0);
        assert_eq!(shared.read_deferred.get(), 32);
        assert!(
            shared.read_settles.get() >= 2,
            "the full queue was never met"
        );
        pool.shutdown();
    }

    /// `PREDICT m` / `OBSERVE m` / `PREDICT m` in one burst: the second
    /// read sees the observe, both answers are bit-identical to an offline
    /// recompute, the stale first result does not poison the cache, and a
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

        // What the shard worker computes, from the same samples.
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
        assert_eq!(conn.take(), [after.encode()], "a hit needs no settle");
        assert_eq!((shared.cache.hits.get(), shared.cache.misses.get()), (1, 2));

        // An observe enqueued while a read is pending: the read's result
        // is cached under the generation read before its enqueue, so the
        // next burst misses and sees the newer sample.
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

    /// Reads check ownership through the connection's version-stamped
    /// snapshot, not the global lock — and a `RINGSET` that moves a key
    /// away still redirects the very next read of an open connection.
    #[test]
    fn ringset_redirects_the_next_read_on_an_open_connection() {
        use crate::config::{KeyRole, OwnershipFactory, OwnershipMap};
        // One node owns every key; under any larger ring this process
        // owns none.
        let factory = OwnershipFactory::new(|nodes, _, _| {
            Some(OwnershipMap::new(move |_| match nodes {
                1 => KeyRole::Owner,
                _ => KeyRole::Remote,
            }))
        });
        let cfg = ServeConfig::default()
            .with_shards(1)
            .with_ownership(factory.build(1, 8, 0).unwrap())
            .with_ownership_factory(factory);
        let (pool, shared) = harness(&cfg);
        let mut conn = Driver::new(&pool, &shared);
        conn.line("OBSERVE c 1 1:0 0.2 0.5 0");
        conn.line("PREDICT c 1");
        conn.line("ADMIT c 1 0.1");
        conn.line("RINGSET 2 8 0 1 -");
        conn.line("PREDICT c 1");
        conn.line("ADMIT c 1 0.1");
        conn.line("PREDICT c 1 *");
        conn.end();
        let got = conn.take();
        let shape: Vec<String> = got
            .iter()
            .map(|l| l.split(' ').take(2).collect::<Vec<_>>().join(" "))
            .collect();
        assert_eq!(
            shape[..4],
            ["OK", "PRED 0.5", "ADMITTED yes", "OK"],
            "{got:?}"
        );
        assert_eq!(shape[4..], ["ERR not-mine"; 3], "{got:?}");
        assert_eq!(shared.not_mine.get(), 3);
        assert_eq!(
            shared.read_deferred.get(),
            2,
            "redirected reads reach no shard"
        );
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
            end_burst(&mut state, &mut out, &pool, &shared).unwrap();
            assert!(state.deferred.is_settled());
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
        /// one line per burst — the synchronous reference, where at most
        /// one read is ever pending and nothing is held back.
        #[test]
        fn deferred_replies_match_the_line_at_a_time_reference(
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
