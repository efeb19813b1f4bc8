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

use crate::config::KeyRole;
use crate::proto::{parse_batch_header, ErrCode, ProtoScratch, Request, Response, MAX_LINE_BYTES};
use crate::server::{dispatch, not_mine, shutting_down, Shared};
use crate::shard::{key_hash, MachineKey, ObserveChunk, ObserveItem, ShardPool, OBS_CHUNK};
use oc_trace::time::Tick;
use std::fmt;
use std::io::Write;
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
            runs: Vec::new(),
            batch_left: 0,
            hash_memo: None,
            own_version: u64::MAX,
            ownership: None,
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
/// cached ownership map (refreshed when a `RINGSET` bumps the ring
/// version).
fn cached_role(state: &mut ConnState, shared: &Shared, hash: u64) -> KeyRole {
    let version = crate::server::ring_version(shared);
    if state.own_version != version {
        let (v, map) = crate::server::ownership_snapshot(shared);
        state.own_version = v;
        state.ownership = map;
    }
    match &state.ownership {
        Some(map) => map.role_of(hash),
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
            // sample this connection already had acknowledged.
            flush_chunk(state, writer, pool, shared)?;
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
                    writer.write_all(&state.out)?;
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
                        writer.write_all(&state.out)?;
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
        let m = pool.shutdown();
        assert_eq!(
            (m.predicts, m.admits),
            (1, 1),
            "redirected reads reach no shard"
        );
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
