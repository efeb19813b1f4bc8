//! The line-delimited wire protocol.
//!
//! Every request and response is one `\n`-terminated line of
//! space-separated ASCII tokens. Grammar (one request per line):
//!
//! ```text
//! OBSERVE <cell> <machine> <job>:<index> <usage> <limit> <tick>
//! OBSERVE <cell> <machine> <job>:<index> <cpu>,<mem> <cpu>,<mem> <tick>
//! PREDICT <cell> <machine> [*]
//! ADMIT   <cell> <machine> <limit>
//! STATS
//! METRICS
//! RING
//! RINGSET <nodes> <vnodes> <seed> <generation> <addr,addr,...|->
//! HANDOFF
//! RESTORE <n>                          n record lines follow (§ State records)
//! SHUTDOWN
//! ```
//!
//! and one response line per request:
//!
//! ```text
//! OK                                  observe applied
//! PRED <peak>                         predicted machine peak (CPU)
//! PRED <peak>,<mem>                   per-resource peaks (vector PREDICT)
//! ADMITTED <yes|no> <projected>       admission verdict + projected peak
//! STATS <key>=<value> ...             service-wide counter snapshot
//! METRICS v=1 <name>=<value> ...      full metrics exposition
//! RING <nodes> <vnodes> <seed> <generation> <epoch> <addrs|->
//!                                     current ring description
//! HANDOFF <n>                         header; n state records follow
//! RESTORED <machines> <samples> <rejected>
//!                                     one RESTORE frame installed
//! ERR <code> <detail...>              typed error (parse, stale, ...)
//! ```
//!
//! Tokens are separated by runs of ASCII whitespace. A float is written
//! as plain decimal text, never an exponent: the shortest digits that
//! parse back to the same bits, `-0` for negative zero — byte for byte
//! what `format!("{v}")` gives, written by the codec's own Ryū writer
//! ([`push_f64`]). So `parse(encode(x))` reproduces the exact bit pattern
//! — the property the served-vs-offline bit-identity test relies on, and
//! the one the sweep and proptest suite in `tests/proto.rs` pin down.
//!
//! # Multi-resource form
//!
//! `OBSERVE` carries one resource by default (CPU). When both the usage
//! and the limit token are comma pairs `cpu,mem`, the sample carries a
//! memory lane too; a pair in only *one* of the two tokens is a parse
//! error (`ERR parse`, both-or-neither rule), so a truncated pair cannot
//! be silently read as a scalar. The arity is unchanged — a pair is still
//! one token — which keeps old parsers' error behavior (they answer
//! `ERR parse` rather than misreading). `PREDICT` with a trailing `*`
//! requests a per-resource prediction, answered as `PRED <cpu>,<mem>`;
//! without it the scalar `PRED <cpu>` form is served, so existing
//! clients never see a pair they did not ask for.
//!
//! # Batched framing
//!
//! `BATCH <n>` frames `n` data-plane sub-requests (`OBSERVE`, `PREDICT`,
//! `ADMIT`) into one round trip: the header line is followed by exactly
//! `n` ordinary request lines, and the server answers with a `BATCHR <n>`
//! header followed by exactly `n` ordinary response lines, in
//! sub-request order. See `docs/PROTOCOL.md` §2.1. Framing helpers live
//! here ([`encode_batch_into`], [`parse_batch_header`],
//! [`parse_batchr_header`]); the connection loop owns the line-by-line
//! streaming.
//!
//! # State records
//!
//! A machine's serving state travels as a *state record*: a header line
//! `VIEW <cell> <machine> <samples> <parts>` followed by `<parts>` lines
//! of lowercase hex, each at most [`VIEW_PART_BYTES`] bytes of the
//! machine's encoded `IncrementalView` (every `f64` as its bits, see
//! `oc_core::ingest`). `<samples>` is the view's ingested-sample count,
//! readable without decoding the parts — the tie-break a supervisor
//! uses to pick the most complete copy of a machine. `HANDOFF` answers
//! one record per machine; `RESTORE <n>` sends records back, `n` lines
//! per frame (at most [`MAX_BATCH`], never splitting a record) and one
//! `RESTORED` answer per frame. See `docs/PROTOCOL.md` §7.5.
//!
//! # Allocation discipline
//!
//! The `parse`/`encode` methods are convenience wrappers that allocate.
//! The data plane uses [`Request::parse_in`] (one forward pass over the
//! line's tokens; cell names interned in a reusable [`ProtoScratch`]),
//! [`Response::parse`] and [`Request::encode_into`]/
//! [`Response::encode_into`] (digits written straight into a reused
//! `Vec<u8>`, never through `core::fmt`). `OBSERVE`, `PREDICT` and
//! `ADMIT` requests and `OK`/`PRED`/`ADMITTED` replies make no heap
//! allocation once the buffers and the scratch are warm
//! (`tests/alloc.rs` counts them).

use crate::ring::RingSpec;
use oc_trace::ids::{CellId, JobId, MachineId, TaskId};
use std::fmt;

mod num;
pub use num::{push_f64, push_u64};

/// Hard cap on the length of one protocol line, in bytes. Connections
/// exceeding it are answered with a parse error and closed.
pub const MAX_LINE_BYTES: usize = 512;

/// Hard cap on the sub-request count of one `BATCH` frame, and on the
/// line count of one `RESTORE` frame.
pub const MAX_BATCH: usize = 1024;

/// State bytes carried by one hex line of a state record: two hex digits
/// each, so a part line stays within [`MAX_LINE_BYTES`].
pub const VIEW_PART_BYTES: usize = 240;

/// Cap on distinct cell names interned per connection scratch; a peer
/// cycling through more than this many names falls back to re-allocating
/// (the cache is cleared), never to unbounded growth.
const CELL_CACHE_CAP: usize = 32;

/// Reusable per-connection parse state: the interned cell table.
/// Feeding every request of a connection through one scratch makes
/// parsing allocation-free in the steady state — repeated cell names are
/// served as reference clones of previously seen [`CellId`]s.
#[derive(Debug, Default)]
pub struct ProtoScratch {
    /// Cell names already seen on this connection.
    cells: Vec<CellId>,
}

impl ProtoScratch {
    /// Creates an empty scratch.
    pub fn new() -> ProtoScratch {
        ProtoScratch::default()
    }

    /// Returns the cached [`CellId`] for `name`, creating (and caching) it
    /// on first sight. Bounded by [`CELL_CACHE_CAP`].
    fn intern_cell(&mut self, name: &str) -> CellId {
        if let Some(c) = self.cells.iter().find(|c| c.name() == name) {
            return c.clone();
        }
        if self.cells.len() >= CELL_CACHE_CAP {
            self.cells.clear();
        }
        let cell = CellId::new(name);
        self.cells.push(cell.clone());
        cell
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// One per-task usage sample (`OBSERVE`).
    Observe {
        /// Owning cell.
        cell: CellId,
        /// Machine within the cell.
        machine: MachineId,
        /// The sampled task.
        task: TaskId,
        /// Observed usage for the tick, in capacity units.
        usage: f64,
        /// The task's current limit, in capacity units.
        limit: f64,
        /// Memory lane as `(usage, limit)`, in machine-memory units, when
        /// the sample was sent in the `cpu,mem` pair form. `None` for
        /// scalar samples (backward-compatible default).
        mem: Option<(f64, f64)>,
        /// The 5-minute tick the sample belongs to.
        tick: u64,
    },
    /// Predict a machine's peak (`PREDICT`).
    Predict {
        /// Owning cell.
        cell: CellId,
        /// Machine within the cell.
        machine: MachineId,
        /// Whether the client asked for a per-resource prediction
        /// (trailing `*` operand): answered as `PRED <cpu>,<mem>`.
        vector: bool,
    },
    /// Would a task of the given limit fit (`ADMIT`)?
    Admit {
        /// Owning cell.
        cell: CellId,
        /// Machine within the cell.
        machine: MachineId,
        /// Limit of the candidate task, in capacity units.
        limit: f64,
    },
    /// Service-wide counter snapshot (`STATS`).
    Stats,
    /// Full metrics exposition (`METRICS`): every registered counter,
    /// gauge, and histogram in the `v=1` text format.
    Metrics,
    /// Current cluster ring description (`RING`): generation, geometry,
    /// and — once the supervisor has pushed them — the member addresses.
    /// Clients use it to auto-adopt a new ring spec after a membership
    /// change (PROTOCOL.md §7.4).
    Ring,
    /// Install a new ring description (`RINGSET`), pushed by the
    /// supervisor after a membership change: the member rebuilds its
    /// ring from the pushed spec and its own index, re-stamps its epoch
    /// with the new generation, and starts answering `RING` with the new
    /// description. Generations below the installed one are rejected with
    /// `ERR stale`.
    RingSet {
        /// The pushed ring (its full 64-bit generation included; only the
        /// low 16 bits fit in the packed `epoch` — see [`pack_epoch`]).
        /// Parsing refuses a spec [`RingSpec::check`] refuses.
        spec: RingSpec,
        /// Member data-plane addresses in ring-index order (may be empty
        /// when unknown, encoded as `-`).
        addrs: Vec<String>,
    },
    /// Dump the member's machine state (`HANDOFF`): the server answers a
    /// `HANDOFF <n>` header followed by `n` state records, one per
    /// machine it holds (see the module docs). Installing them into a
    /// fresh member with [`Request::Restore`] reproduces this member's
    /// predictions bit-identically.
    Handoff,
    /// Install state records (`RESTORE <n>`): the header announces `n`
    /// record lines, `1..=MAX_BATCH`, that follow it; the frame is
    /// answered once, with [`Response::Restored`]. A record installs only
    /// if the member's ring gives its machine a role and the
    /// member holds no state for it yet; otherwise it is counted as
    /// rejected. A malformed record fails the whole frame with
    /// `ERR parse`, and nothing of the frame is installed.
    Restore {
        /// Record lines that follow the header.
        lines: usize,
    },
    /// Ask the server to drain and exit (`SHUTDOWN`).
    Shutdown,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Observe applied (ingested, stale or invalid: see `STATS`).
    Ok,
    /// Predicted machine peak, in capacity units.
    Pred {
        /// The (clamped) peak prediction (CPU lane).
        peak: f64,
        /// Memory-lane peak, present only for vector `PREDICT` requests
        /// (encoded as the `cpu,mem` pair form).
        mem: Option<f64>,
    },
    /// Admission verdict.
    Admitted {
        /// Whether the candidate task fits.
        admit: bool,
        /// Projected peak if admitted (prediction + candidate limit).
        projected: f64,
    },
    /// Counter snapshot.
    Stats(StatsSnapshot),
    /// Metrics exposition: the `v=1 <name>=<value> ...` payload (without
    /// the `METRICS` verb), as produced by
    /// [`oc_telemetry::metrics::encode_exposition`]. Parsing validates the
    /// payload; use [`oc_telemetry::metrics::parse_exposition`] to read
    /// individual values.
    Metrics {
        /// The exposition payload, starting with its `v=1` version token.
        exposition: String,
    },
    /// Current ring description, answering [`Request::Ring`].
    Ring {
        /// The member's ring, with the full 64-bit generation
        /// (authoritative — the packed `epoch` only carries it mod 2^16,
        /// see [`pack_epoch`]). Parsing refuses a spec
        /// [`RingSpec::check`] refuses.
        spec: RingSpec,
        /// The member's current epoch word.
        epoch: u64,
        /// Member data-plane addresses in ring-index order; empty
        /// (encoded `-`) until the supervisor pushes them via `RINGSET`.
        addrs: Vec<String>,
    },
    /// What one `RESTORE` frame installed.
    Restored {
        /// Machines installed.
        machines: u64,
        /// Samples the installed states carry (the sum of their
        /// ingested-sample counts).
        samples: u64,
        /// Records refused: owned elsewhere, or already held.
        rejected: u64,
    },
    /// Typed error.
    Err {
        /// Machine-readable error class.
        code: ErrCode,
        /// Human-readable detail (single line).
        detail: String,
    },
}

/// Machine-readable error classes carried by [`Response::Err`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// The request line failed to parse.
    Parse,
    /// The sample's tick was already flushed (out-of-order beyond a tick).
    Stale,
    /// The sample's tick would synthesize too many empty ticks.
    Gap,
    /// `PREDICT` for a machine the service has never observed.
    UnknownMachine,
    /// The server is shutting down.
    Shutdown,
    /// The connection sat idle past the server's deadline and was closed
    /// (retryable: reconnect and resend).
    Timeout,
    /// The server's connection cap was reached (retryable: reconnect
    /// after a backoff).
    ConnLimit,
    /// The machine key is not owned by this process under its cluster
    /// ring (retryable: re-resolve the owner and resend — see
    /// PROTOCOL.md §7).
    NotMine,
    /// Internal error (shard died, bad state).
    Internal,
}

impl ErrCode {
    /// The wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrCode::Parse => "parse",
            ErrCode::Stale => "stale",
            ErrCode::Gap => "gap",
            ErrCode::UnknownMachine => "unknown-machine",
            ErrCode::Shutdown => "shutdown",
            ErrCode::Timeout => "timeout",
            ErrCode::ConnLimit => "conn-limit",
            ErrCode::NotMine => "not-mine",
            ErrCode::Internal => "internal",
        }
    }

    /// Parses the wire token.
    pub fn parse(token: &str) -> Option<ErrCode> {
        Some(match token {
            "parse" => ErrCode::Parse,
            "stale" => ErrCode::Stale,
            "gap" => ErrCode::Gap,
            "unknown-machine" => ErrCode::UnknownMachine,
            "shutdown" => ErrCode::Shutdown,
            "timeout" => ErrCode::Timeout,
            "conn-limit" => ErrCode::ConnLimit,
            "not-mine" => ErrCode::NotMine,
            "internal" => ErrCode::Internal,
            _ => return None,
        })
    }
}

/// Service-wide counters, encoded as the `STATS` response line.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsSnapshot {
    /// Samples ingested (excludes stale/invalid rejects).
    pub observes: u64,
    /// Predictions served.
    pub predicts: u64,
    /// Admission checks served.
    pub admits: u64,
    /// Reserved, always 0: no server sheds requests (there is no queue
    /// to fill, and `BUSY` is not a response). The field stays on the
    /// wire for readers that still parse it.
    pub busy: u64,
    /// Samples rejected as stale.
    pub stale: u64,
    /// Other typed errors.
    pub errors: u64,
    /// Machines with live state.
    pub machines: u64,
    /// Connections closed for exceeding the idle deadline.
    pub timeouts: u64,
    /// Connections rejected at the max-connections cap.
    pub conn_rejects: u64,
    /// Server identity stamp: process start time packed with the cluster
    /// ring generation (see [`pack_epoch`]). Compared for *inequality*
    /// only — a change means the process restarted (fresh state) or its
    /// ring assignment changed. `0` for a pre-epoch peer.
    pub epoch: u64,
    /// Median shard service latency (an observe's wait from buffered to
    /// applied, see [`crate::metrics`]), microseconds.
    pub p50_us: f64,
    /// 99th-percentile shard service latency, microseconds.
    pub p99_us: f64,
    /// Mean shard service latency, microseconds.
    pub mean_us: f64,
    /// Maximum shard service latency, microseconds.
    pub max_us: f64,
}

/// Typed wire-protocol errors. Malformed input never panics; it produces
/// one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    /// The line was empty or whitespace-only.
    Empty,
    /// The line exceeded [`MAX_LINE_BYTES`].
    LineTooLong {
        /// Observed length in bytes.
        len: usize,
    },
    /// The first token was not a known verb.
    UnknownVerb {
        /// The offending token.
        verb: String,
    },
    /// Wrong number of operands for the verb.
    Arity {
        /// The verb.
        verb: &'static str,
        /// Operands expected.
        expected: usize,
        /// Operands found.
        got: usize,
    },
    /// A numeric field failed to parse.
    BadNumber {
        /// Field name.
        field: &'static str,
        /// The offending token.
        token: String,
    },
    /// A numeric field parsed but was non-finite or negative.
    OutOfDomain {
        /// Field name.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A task id was not of the form `<job>:<index>`.
    BadTaskId {
        /// The offending token.
        token: String,
    },
    /// An `OBSERVE` mixed the scalar and the `cpu,mem` pair form: its
    /// usage and limit tokens must both be scalars or both be pairs.
    LaneMismatch,
    /// A `STATS` field was missing, misnamed, or out of order.
    StatsField {
        /// The key expected at this position.
        expected: &'static str,
        /// The token found instead.
        got: String,
    },
    /// A `BATCH`/`BATCHR`/`RESTORE` frame header counted an out-of-range
    /// number of lines (must be `1..=MAX_BATCH`).
    BatchSize {
        /// The offending count.
        got: u64,
    },
    /// A response line did not match any response form.
    BadResponse {
        /// The offending line (truncated).
        line: String,
    },
    /// A `RING`/`RINGSET` line described a ring [`RingSpec::check`]
    /// refuses: no nodes, no vnodes, or too many points.
    BadRing {
        /// Why the ring was refused.
        what: String,
    },
    /// A state record line was malformed: a bad `VIEW` header, a part
    /// line that is not lowercase hex of the right size, or a record
    /// that does not fit its `RESTORE` frame.
    BadRecord {
        /// What was wrong.
        what: &'static str,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Empty => write!(f, "empty line"),
            ProtoError::LineTooLong { len } => {
                write!(f, "line of {len} bytes exceeds {MAX_LINE_BYTES}")
            }
            ProtoError::UnknownVerb { verb } => write!(f, "unknown verb '{verb}'"),
            ProtoError::Arity {
                verb,
                expected,
                got,
            } => write!(f, "{verb} takes {expected} operands, got {got}"),
            ProtoError::BadNumber { field, token } => {
                write!(f, "field {field}: '{token}' is not a number")
            }
            ProtoError::OutOfDomain { field, value } => {
                // The value in its wire spelling, through the wire's writer.
                let mut text = Vec::new();
                push_f64(&mut text, *value);
                write!(f, "field {field}: ")?;
                f.write_str(std::str::from_utf8(&text).map_err(|_| fmt::Error)?)?;
                f.write_str(" must be finite and >= 0")
            }
            ProtoError::BadTaskId { token } => {
                write!(f, "task id '{token}' is not <job>:<index>")
            }
            ProtoError::LaneMismatch => {
                write!(
                    f,
                    "usage and limit must both be scalar or both cpu,mem pairs"
                )
            }
            ProtoError::StatsField { expected, got } => {
                write!(f, "STATS field: expected '{expected}', got '{got}'")
            }
            ProtoError::BatchSize { got } => {
                write!(f, "batch of {got} sub-requests outside 1..={MAX_BATCH}")
            }
            ProtoError::BadResponse { line } => write!(f, "unparseable response '{line}'"),
            ProtoError::BadRing { what } => write!(f, "bad ring: {what}"),
            ProtoError::BadRecord { what } => write!(f, "bad state record: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Longest text [`push_f64`] writes: `-0.`, 323 zeros and one digit
/// (`-5e-324`).
const F64_MAX_BYTES: usize = 327;

/// Longest `OBSERVE` line beside its cell name: the verb, the separators,
/// a `u32` machine, a `u64:u32` task, a `u64` tick and four floats (both
/// lanes of usage and limit) at their longest.
const OBSERVE_MAX_BYTES: usize = 8 + 8 + 10 + 20 + 10 + 20 + 4 * F64_MAX_BYTES;

/// Encodes a `BATCH` frame: the header line plus one line per
/// sub-request, each `\n`-terminated. The caller is responsible for
/// `reqs.len()` being in `1..=MAX_BATCH` and every sub-request being a
/// data-plane verb (the server answers `ERR parse` per offending
/// sub-request otherwise).
pub fn encode_batch_into(reqs: &[Request], out: &mut Vec<u8>) {
    out.extend_from_slice(b"BATCH ");
    push_u64(out, reqs.len() as u64);
    out.push(b'\n');
    for req in reqs {
        req.encode_into(out);
        out.push(b'\n');
    }
}

/// Appends a `BATCHR <n>` multi-response header line (no newline).
pub fn encode_batchr_header_into(n: usize, out: &mut Vec<u8>) {
    out.extend_from_slice(b"BATCHR ");
    push_u64(out, n as u64);
}

/// The ASCII-whitespace separated tokens of a line, read front to back:
/// the tokens `str::split_ascii_whitespace` yields, found in one pass
/// over the bytes, eight at a time inside a token.
struct Tokens<'a> {
    line: &'a str,
    pos: usize,
}

fn tokens(line: &str) -> Tokens<'_> {
    Tokens { line, pos: 0 }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let bytes = self.line.as_bytes();
        let mut i = self.pos;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        let start = i;
        let end = token_end(bytes, i);
        self.pos = end;
        // Both ends sit next to ASCII bytes, so on char boundaries.
        (start < end).then(|| &self.line[start..end])
    }
}

/// The index of the first ASCII-whitespace byte at or after `i` (or the
/// length). Eight bytes at a time: every ASCII whitespace byte is below
/// 0x21, and `(x - 0x21..) & !x & 0x80..` flags the bytes below 0x21 —
/// exactly at the lowest flag, which is all the scan looks at.
fn token_end(bytes: &[u8], mut i: usize) -> usize {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_ne_bytes([0x80; 8]);
    while let Some(chunk) = bytes.get(i..i + 8) {
        let x = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        let below = x.wrapping_sub(ONES * 0x21) & !x & HIGH;
        if below == 0 {
            i += 8;
            continue;
        }
        let at = i + (below.trailing_zeros() / 8) as usize;
        if bytes[at].is_ascii_whitespace() {
            return at;
        }
        // A control byte that is not whitespace belongs to the token.
        i = at + 1;
    }
    while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// The arity error for `verb`, its operands counted — the only place a
/// line's tokens are counted.
fn arity_error(verb: &'static str, expected: usize, line: &str) -> ProtoError {
    ProtoError::Arity {
        verb,
        expected,
        got: tokens(line).count().saturating_sub(1),
    }
}

/// The next `N` tokens, which must be the last: otherwise the arity
/// error of `verb` over `line`.
fn operands<'a, const N: usize>(
    verb: &'static str,
    line: &str,
    toks: &mut Tokens<'a>,
) -> Result<[&'a str; N], ProtoError> {
    let mut ops = [""; N];
    for op in &mut ops {
        *op = toks.next().ok_or_else(|| arity_error(verb, N, line))?;
    }
    if toks.next().is_some() {
        return Err(arity_error(verb, N, line));
    }
    Ok(ops)
}

/// The remaining tokens joined by single spaces (no allocation when
/// none remain).
fn join_tokens(toks: &mut Tokens<'_>) -> String {
    let mut joined = String::new();
    for tok in toks {
        if !joined.is_empty() {
            joined.push(' ');
        }
        joined.push_str(tok);
    }
    joined
}

/// Decides on a frame header by the first token alone: a line that does
/// not start with `verb` is not read further.
fn parse_frame_header(verb: &'static str, line: &str) -> Result<Option<usize>, ProtoError> {
    let mut toks = tokens(line);
    if toks.next() != Some(verb) {
        return Ok(None);
    }
    let [n] = operands(verb, line, &mut toks)?;
    let n = parse_u64("batch", n)?;
    if n == 0 || n > MAX_BATCH as u64 {
        return Err(ProtoError::BatchSize { got: n });
    }
    Ok(Some(n as usize))
}

/// Recognizes a `BATCH <n>` frame header. `Ok(None)` means the line is
/// not a batch header at all (parse it as an ordinary request);
/// `Ok(Some(n))` announces `n` sub-request lines to follow. Only the
/// first token of a line that is not a header is read.
///
/// # Errors
///
/// A line that *is* a `BATCH` header but malformed — wrong arity, bad
/// count, count outside `1..=MAX_BATCH` — is a typed [`ProtoError`]. The
/// connection cannot be resynchronized after one (the number of
/// follow-up lines is unknown), so servers close on it.
pub fn parse_batch_header(line: &str) -> Result<Option<usize>, ProtoError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(ProtoError::LineTooLong { len: line.len() });
    }
    parse_frame_header("BATCH", line)
}

/// Recognizes a `BATCHR <n>` multi-response header; same contract as
/// [`parse_batch_header`].
///
/// # Errors
///
/// Typed [`ProtoError`] for a malformed `BATCHR` header.
pub fn parse_batchr_header(line: &str) -> Result<Option<usize>, ProtoError> {
    parse_frame_header("BATCHR", line)
}

/// The error for a token that is not a number, built off the hot path.
#[cold]
fn bad_number(field: &'static str, token: &str) -> ProtoError {
    ProtoError::BadNumber {
        field,
        token: token.to_string(),
    }
}

fn in_domain(field: &'static str, value: f64) -> Result<f64, ProtoError> {
    if value.is_finite() && value >= 0.0 {
        Ok(value)
    } else {
        Err(ProtoError::OutOfDomain { field, value })
    }
}

fn parse_f64(field: &'static str, token: &str) -> Result<f64, ProtoError> {
    match token.parse() {
        Ok(v) => in_domain(field, v),
        Err(_) => Err(bad_number(field, token)),
    }
}

/// Parses a float token that may be a `cpu,mem` pair. Returns the CPU
/// value and the optional memory value; each component goes through the
/// same finiteness/sign domain checks as a scalar float. No float
/// spelling holds a comma, so a scalar parses at the first try and only
/// a token that fails it is searched for the pair form.
fn parse_f64_or_pair(field: &'static str, token: &str) -> Result<(f64, Option<f64>), ProtoError> {
    match token.parse() {
        Ok(v) => Ok((in_domain(field, v)?, None)),
        Err(_) => match token.split_once(',') {
            None => Err(bad_number(field, token)),
            Some((cpu, mem)) => Ok((parse_f64(field, cpu)?, Some(parse_f64(field, mem)?))),
        },
    }
}

fn parse_u64(field: &'static str, token: &str) -> Result<u64, ProtoError> {
    token.parse().map_err(|_| bad_number(field, token))
}

fn parse_machine(token: &str) -> Result<MachineId, ProtoError> {
    token
        .parse()
        .map(MachineId)
        .map_err(|_| bad_number("machine", token))
}

fn parse_task(token: &str) -> Result<TaskId, ProtoError> {
    let parsed = token
        .split_once(':')
        .and_then(|(job, index)| Some(TaskId::new(JobId(job.parse().ok()?), index.parse().ok()?)));
    parsed.ok_or_else(|| ProtoError::BadTaskId {
        token: token.to_string(),
    })
}

/// Decodes the `<nodes> <vnodes> <seed> <generation>` tokens of a
/// `RING`/`RINGSET` line into a spec [`RingSpec::check`] accepts.
fn parse_ring_spec(tokens: [&str; 4]) -> Result<RingSpec, ProtoError> {
    // A count beyond `usize` cannot pass the check either.
    let count =
        |field, token| parse_u64(field, token).map(|n| usize::try_from(n).unwrap_or(usize::MAX));
    let spec = RingSpec {
        nodes: count("nodes", tokens[0])?,
        vnodes: count("vnodes", tokens[1])?,
        seed: parse_u64("seed", tokens[2])?,
        generation: parse_u64("generation", tokens[3])?,
    };
    spec.check().map_err(|what| ProtoError::BadRing { what })?;
    Ok(spec)
}

/// Encodes a spec as its `<nodes> <vnodes> <seed> <generation>` tokens.
fn push_ring_spec(out: &mut Vec<u8>, spec: &RingSpec) {
    push_u64(out, spec.nodes as u64);
    out.push(b' ');
    push_u64(out, spec.vnodes as u64);
    out.push(b' ');
    push_u64(out, spec.seed);
    out.push(b' ');
    push_u64(out, spec.generation);
}

/// Decodes a `RING`/`RINGSET` address-list token: comma-separated
/// addresses, or the placeholder `-` for "none known yet". Addresses are
/// carried as opaque strings — resolution happens at the adopting
/// client, which already validates socket addresses.
fn parse_addr_list(token: &str) -> Vec<String> {
    if token == "-" {
        return Vec::new();
    }
    token.split(',').map(str::to_string).collect()
}

/// Encodes an address list as one token (`-` when empty). Addresses must
/// not contain whitespace or commas; socket addresses never do.
fn push_addr_list(out: &mut Vec<u8>, addrs: &[String]) {
    if addrs.is_empty() {
        out.push(b'-');
        return;
    }
    for (i, a) in addrs.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(a.as_bytes());
    }
}

/// The header of one state record: `VIEW <cell> <machine> <samples>
/// <parts>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewHeader {
    /// Owning cell.
    pub cell: CellId,
    /// Machine within the cell.
    pub machine: MachineId,
    /// The view's ingested-sample count.
    pub samples: u64,
    /// Hex part lines that follow the header, `1..MAX_BATCH`.
    pub parts: usize,
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Appends one state record — its `VIEW` header line and the hex lines
/// of `state` (a non-empty encoded view), each `\n`-terminated — to
/// `out`, and returns the number of lines written.
pub fn encode_view_record(
    cell: &CellId,
    machine: MachineId,
    samples: u64,
    state: &[u8],
    out: &mut Vec<u8>,
) -> usize {
    let parts = state.len().div_ceil(VIEW_PART_BYTES);
    out.extend_from_slice(b"VIEW ");
    out.extend_from_slice(cell.name().as_bytes());
    out.push(b' ');
    push_u64(out, u64::from(machine.0));
    out.push(b' ');
    push_u64(out, samples);
    out.push(b' ');
    push_u64(out, parts as u64);
    out.push(b'\n');
    for part in state.chunks(VIEW_PART_BYTES) {
        for &b in part {
            out.push(HEX[usize::from(b >> 4)]);
            out.push(HEX[usize::from(b & 0xf)]);
        }
        out.push(b'\n');
    }
    parts + 1
}

/// Parses a state record's `VIEW` header line.
///
/// # Errors
///
/// [`ProtoError::BadRecord`] for a line that is not a `VIEW` header,
/// typed number errors for its fields, and [`ProtoError::BatchSize`] for
/// a part count that cannot fit one `RESTORE` frame beside its header.
pub fn parse_view_header(line: &str) -> Result<ViewHeader, ProtoError> {
    let mut toks = line.split_ascii_whitespace();
    let (Some("VIEW"), Some(cell), Some(machine), Some(samples), Some(parts), None) = (
        toks.next(),
        toks.next(),
        toks.next(),
        toks.next(),
        toks.next(),
        toks.next(),
    ) else {
        return Err(ProtoError::BadRecord {
            what: "expected 'VIEW <cell> <machine> <samples> <parts>'",
        });
    };
    let parts = parse_u64("parts", parts)?;
    if parts == 0 || parts >= MAX_BATCH as u64 {
        return Err(ProtoError::BatchSize { got: parts });
    }
    Ok(ViewHeader {
        cell: CellId::new(cell),
        machine: parse_machine(machine)?,
        samples: parse_u64("samples", samples)?,
        parts: parts as usize,
    })
}

/// Decodes one hex part line of a state record, appending its bytes to
/// `out`.
///
/// # Errors
///
/// [`ProtoError::BadRecord`] for an odd length, more than
/// [`VIEW_PART_BYTES`] bytes, or a character that is not a lowercase hex
/// digit; `out` may then hold part of the line's bytes.
pub fn decode_view_part(line: &str, out: &mut Vec<u8>) -> Result<(), ProtoError> {
    let digits = line.as_bytes();
    if !digits.len().is_multiple_of(2) || digits.len() > 2 * VIEW_PART_BYTES {
        return Err(ProtoError::BadRecord {
            what: "part line length",
        });
    }
    let nibble = |d: u8| match d {
        b'0'..=b'9' => Ok(d - b'0'),
        b'a'..=b'f' => Ok(d - b'a' + 10),
        _ => Err(ProtoError::BadRecord {
            what: "part line is not lowercase hex",
        }),
    };
    for pair in digits.chunks_exact(2) {
        out.push(nibble(pair[0])? << 4 | nibble(pair[1])?);
    }
    Ok(())
}

fn expect_arity(verb: &'static str, operands: &[&str], expected: usize) -> Result<(), ProtoError> {
    if operands.len() != expected {
        return Err(ProtoError::Arity {
            verb,
            expected,
            got: operands.len(),
        });
    }
    Ok(())
}

impl Request {
    /// Parses one request line (without the trailing newline),
    /// allocating fresh parse state. Convenience wrapper over
    /// [`Request::parse_in`] for tests and one-shot callers.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ProtoError`]; malformed input never panics.
    pub fn parse(line: &str) -> Result<Request, ProtoError> {
        Request::parse_in(line, &mut ProtoScratch::new())
    }

    /// Parses one request line using a reusable [`ProtoScratch`], in one
    /// forward pass over its tokens. In the steady state this performs no
    /// heap allocation: repeated cell names come back as reference clones
    /// from the scratch's intern table. Error paths may allocate (they
    /// copy the offending token into the error).
    ///
    /// # Errors
    ///
    /// Returns a typed [`ProtoError`]; malformed input never panics.
    pub fn parse_in(line: &str, scratch: &mut ProtoScratch) -> Result<Request, ProtoError> {
        if line.len() > MAX_LINE_BYTES {
            return Err(ProtoError::LineTooLong { len: line.len() });
        }
        let toks = &mut tokens(line);
        let verb = toks.next().ok_or(ProtoError::Empty)?;
        Ok(match verb {
            "OBSERVE" => {
                let [cell, machine, task, usage, limit, tick] = operands("OBSERVE", line, toks)?;
                let machine = parse_machine(machine)?;
                let task = parse_task(task)?;
                let (usage, mem_usage) = parse_f64_or_pair("usage", usage)?;
                let (limit, mem_limit) = parse_f64_or_pair("limit", limit)?;
                let tick = parse_u64("tick", tick)?;
                let mem = match (mem_usage, mem_limit) {
                    (Some(u), Some(l)) => Some((u, l)),
                    (None, None) => None,
                    _ => return Err(ProtoError::LaneMismatch),
                };
                Request::Observe {
                    cell: scratch.intern_cell(cell),
                    machine,
                    task,
                    usage,
                    limit,
                    mem,
                    tick,
                }
            }
            "PREDICT" => {
                let (Some(cell), Some(machine)) = (toks.next(), toks.next()) else {
                    return Err(arity_error("PREDICT", 2, line));
                };
                // A trailing `*` (and nothing after it) asks for both lanes.
                let vector = match (toks.next(), toks.next()) {
                    (None, _) => false,
                    (Some("*"), None) => true,
                    _ => return Err(arity_error("PREDICT", 2, line)),
                };
                let machine = parse_machine(machine)?;
                Request::Predict {
                    cell: scratch.intern_cell(cell),
                    machine,
                    vector,
                }
            }
            "ADMIT" => {
                let [cell, machine, limit] = operands("ADMIT", line, toks)?;
                let machine = parse_machine(machine)?;
                let limit = parse_f64("limit", limit)?;
                Request::Admit {
                    cell: scratch.intern_cell(cell),
                    machine,
                    limit,
                }
            }
            "STATS" => {
                operands::<0>("STATS", line, toks)?;
                Request::Stats
            }
            "METRICS" => {
                operands::<0>("METRICS", line, toks)?;
                Request::Metrics
            }
            "RING" => {
                operands::<0>("RING", line, toks)?;
                Request::Ring
            }
            "RINGSET" => {
                let [nodes, vnodes, seed, generation, addrs] = operands("RINGSET", line, toks)?;
                Request::RingSet {
                    spec: parse_ring_spec([nodes, vnodes, seed, generation])?,
                    addrs: parse_addr_list(addrs),
                }
            }
            "HANDOFF" => {
                operands::<0>("HANDOFF", line, toks)?;
                Request::Handoff
            }
            "RESTORE" => {
                let [n] = operands("RESTORE", line, toks)?;
                let n = parse_u64("lines", n)?;
                if n == 0 || n > MAX_BATCH as u64 {
                    return Err(ProtoError::BatchSize { got: n });
                }
                Request::Restore { lines: n as usize }
            }
            "SHUTDOWN" => {
                operands::<0>("SHUTDOWN", line, toks)?;
                Request::Shutdown
            }
            other => {
                return Err(ProtoError::UnknownVerb {
                    verb: other.to_string(),
                })
            }
        })
    }

    /// Appends the request's wire line (no trailing newline) to `out`
    /// without intermediate allocation.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Observe {
                cell,
                machine,
                task,
                usage,
                limit,
                mem,
                tick,
            } => {
                out.reserve(OBSERVE_MAX_BYTES + cell.name().len());
                out.extend_from_slice(b"OBSERVE ");
                out.extend_from_slice(cell.name().as_bytes());
                out.push(b' ');
                push_u64(out, u64::from(machine.0));
                out.push(b' ');
                push_u64(out, task.job.0);
                out.push(b':');
                push_u64(out, u64::from(task.index));
                out.push(b' ');
                push_f64(out, *usage);
                if let Some((mu, _)) = mem {
                    out.push(b',');
                    push_f64(out, *mu);
                }
                out.push(b' ');
                push_f64(out, *limit);
                if let Some((_, ml)) = mem {
                    out.push(b',');
                    push_f64(out, *ml);
                }
                out.push(b' ');
                push_u64(out, *tick);
            }
            Request::Predict {
                cell,
                machine,
                vector,
            } => {
                out.extend_from_slice(b"PREDICT ");
                out.extend_from_slice(cell.name().as_bytes());
                out.push(b' ');
                push_u64(out, u64::from(machine.0));
                if *vector {
                    out.extend_from_slice(b" *");
                }
            }
            Request::Admit {
                cell,
                machine,
                limit,
            } => {
                out.extend_from_slice(b"ADMIT ");
                out.extend_from_slice(cell.name().as_bytes());
                out.push(b' ');
                push_u64(out, u64::from(machine.0));
                out.push(b' ');
                push_f64(out, *limit);
            }
            Request::Stats => out.extend_from_slice(b"STATS"),
            Request::Metrics => out.extend_from_slice(b"METRICS"),
            Request::Ring => out.extend_from_slice(b"RING"),
            Request::RingSet { spec, addrs } => {
                out.extend_from_slice(b"RINGSET ");
                push_ring_spec(out, spec);
                out.push(b' ');
                push_addr_list(out, addrs);
            }
            Request::Handoff => out.extend_from_slice(b"HANDOFF"),
            Request::Restore { lines } => {
                out.extend_from_slice(b"RESTORE ");
                push_u64(out, *lines as u64);
            }
            Request::Shutdown => out.extend_from_slice(b"SHUTDOWN"),
        }
    }

    /// Encodes the request as one line (no trailing newline). Allocating
    /// wrapper over [`Request::encode_into`].
    pub fn encode(&self) -> String {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        String::from_utf8(out).expect("encoded line is ASCII")
    }
}

/// Key/value pairs of the `STATS` line, in encode order.
const STATS_KEYS: [&str; 14] = [
    "observes",
    "predicts",
    "admits",
    "busy",
    "stale",
    "errors",
    "machines",
    "timeouts",
    "conn_rejects",
    "epoch",
    "p50_us",
    "p99_us",
    "mean_us",
    "max_us",
];

/// Packs a process start stamp (unix seconds) and a cluster ring
/// generation into one `epoch` word: start in the high 48 bits, ring
/// generation (mod 2^16) in the low 16. Clients compare epochs for
/// inequality; [`epoch_ring_generation`] recovers the generation for
/// "did the ring change without a restart" checks.
///
/// # Generation wrap
///
/// Only the low 16 bits of the generation survive packing, so
/// generations `g` and `g + 65536` pack to the *same* word when
/// `start_unix_secs` matches (a member re-stamped within the same
/// second). The epoch word is therefore a cheap **change hint**, never
/// an ordering or identity oracle: clients must compare the full 64-bit
/// word (never just [`epoch_ring_generation`]), and any decision that
/// depends on which ring is newer must use the full generation carried
/// by the `RING` response (see PROTOCOL.md §7.4).
pub fn pack_epoch(start_unix_secs: u64, ring_generation: u64) -> u64 {
    (start_unix_secs << 16) | (ring_generation & 0xFFFF)
}

/// The ring generation (mod 2^16) packed into an `epoch` word.
pub fn epoch_ring_generation(epoch: u64) -> u64 {
    epoch & 0xFFFF
}

impl StatsSnapshot {
    /// The `k=v` payload of a `STATS` response line, without the verb.
    pub fn encode_fields(&self) -> String {
        let mut out = Vec::new();
        self.encode_fields_into(&mut out);
        String::from_utf8(out).expect("encoded fields are ASCII")
    }

    /// Appends the `k=v` payload (without the verb) to `out`.
    pub fn encode_fields_into(&self, out: &mut Vec<u8>) {
        let u = [
            self.observes,
            self.predicts,
            self.admits,
            self.busy,
            self.stale,
            self.errors,
            self.machines,
            self.timeouts,
            self.conn_rejects,
            self.epoch,
        ];
        let f = [self.p50_us, self.p99_us, self.mean_us, self.max_us];
        for (i, key) in STATS_KEYS.iter().enumerate() {
            if i > 0 {
                out.push(b' ');
            }
            out.extend_from_slice(key.as_bytes());
            out.push(b'=');
            if i < u.len() {
                push_u64(out, u[i]);
            } else {
                push_f64(out, f[i - u.len()]);
            }
        }
    }

    /// Parses the `k=v` operands of a `STATS` line, in `STATS_KEYS`
    /// order.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Arity`] for a wrong field count,
    /// [`ProtoError::StatsField`] for a missing `=` or a key out of
    /// order, [`ProtoError::BadNumber`]/[`ProtoError::OutOfDomain`] for
    /// an unparseable value — naming the offending field, like the rest
    /// of the codec.
    pub fn parse_fields(operands: &[&str]) -> Result<StatsSnapshot, ProtoError> {
        expect_arity("STATS", operands, STATS_KEYS.len())?;
        let mut s = StatsSnapshot::default();
        for (key, token) in STATS_KEYS.iter().zip(operands) {
            let key_s: &'static str = key;
            let Some((k, v)) = token.split_once('=') else {
                return Err(ProtoError::StatsField {
                    expected: key_s,
                    got: token.to_string(),
                });
            };
            if k != key_s {
                return Err(ProtoError::StatsField {
                    expected: key_s,
                    got: token.to_string(),
                });
            }
            match key_s {
                "observes" => s.observes = parse_u64(key_s, v)?,
                "predicts" => s.predicts = parse_u64(key_s, v)?,
                "admits" => s.admits = parse_u64(key_s, v)?,
                "busy" => s.busy = parse_u64(key_s, v)?,
                "stale" => s.stale = parse_u64(key_s, v)?,
                "errors" => s.errors = parse_u64(key_s, v)?,
                "machines" => s.machines = parse_u64(key_s, v)?,
                "timeouts" => s.timeouts = parse_u64(key_s, v)?,
                "conn_rejects" => s.conn_rejects = parse_u64(key_s, v)?,
                "epoch" => s.epoch = parse_u64(key_s, v)?,
                "p50_us" => s.p50_us = parse_f64(key_s, v)?,
                "p99_us" => s.p99_us = parse_f64(key_s, v)?,
                "mean_us" => s.mean_us = parse_f64(key_s, v)?,
                "max_us" => s.max_us = parse_f64(key_s, v)?,
                _ => unreachable!("key list is fixed"),
            }
        }
        Ok(s)
    }

    /// Total data-plane operations behind this snapshot's latency
    /// figures — the weight used by [`StatsSnapshot::merge`].
    fn latency_weight(&self) -> u64 {
        self.observes + self.predicts + self.admits
    }

    /// Folds another process's snapshot into this one, producing a
    /// fleet-level view: counters are summed exactly; `p50_us`/`p99_us`/
    /// `mean_us` become operation-count-weighted averages (an
    /// approximation — quantiles do not compose; the exact path is the
    /// `METRICS` exposition, whose histograms bin-merge losslessly);
    /// `max_us` is the max of maxes (exact); `epoch` keeps the maximum,
    /// so any member restart or re-ring still changes the merged epoch.
    pub fn merge(&mut self, other: &StatsSnapshot) {
        let (wa, wb) = (self.latency_weight(), other.latency_weight());
        let wt = wa + wb;
        if wt > 0 {
            let blend = |a: f64, b: f64| (a * wa as f64 + b * wb as f64) / wt as f64;
            self.p50_us = blend(self.p50_us, other.p50_us);
            self.p99_us = blend(self.p99_us, other.p99_us);
            self.mean_us = blend(self.mean_us, other.mean_us);
        }
        self.max_us = self.max_us.max(other.max_us);
        self.observes += other.observes;
        self.predicts += other.predicts;
        self.admits += other.admits;
        self.busy += other.busy;
        self.stale += other.stale;
        self.errors += other.errors;
        self.machines += other.machines;
        self.timeouts += other.timeouts;
        self.conn_rejects += other.conn_rejects;
        self.epoch = self.epoch.max(other.epoch);
    }
}

impl Response {
    /// Parses one response line (without the trailing newline).
    ///
    /// # Errors
    ///
    /// Returns a typed [`ProtoError`]; malformed input never panics.
    pub fn parse(line: &str) -> Result<Response, ProtoError> {
        let toks = &mut tokens(line);
        let verb = toks.next().ok_or(ProtoError::Empty)?;
        let bad = || ProtoError::BadResponse {
            line: line.chars().take(80).collect(),
        };
        match verb {
            "OK" if toks.next().is_none() => Ok(Response::Ok),
            "PRED" => {
                let [peak] = operands("PRED", line, toks)?;
                let (peak, mem) = parse_f64_or_pair("peak", peak)?;
                Ok(Response::Pred { peak, mem })
            }
            "ADMITTED" => {
                let [verdict, projected] = operands("ADMITTED", line, toks)?;
                let admit = match verdict {
                    "yes" => true,
                    "no" => false,
                    _ => return Err(bad()),
                };
                Ok(Response::Admitted {
                    admit,
                    projected: parse_f64("projected", projected)?,
                })
            }
            "STATS" => {
                let operands: Vec<&str> = toks.collect();
                StatsSnapshot::parse_fields(&operands).map(Response::Stats)
            }
            "RING" => {
                let [nodes, vnodes, seed, generation, epoch, addrs] = operands("RING", line, toks)?;
                Ok(Response::Ring {
                    spec: parse_ring_spec([nodes, vnodes, seed, generation])?,
                    epoch: parse_u64("epoch", epoch)?,
                    addrs: parse_addr_list(addrs),
                })
            }
            "RESTORED" => {
                let [machines, samples, rejected] = operands("RESTORED", line, toks)?;
                Ok(Response::Restored {
                    machines: parse_u64("machines", machines)?,
                    samples: parse_u64("samples", samples)?,
                    rejected: parse_u64("rejected", rejected)?,
                })
            }
            "METRICS" => {
                let exposition = join_tokens(toks);
                if oc_telemetry::metrics::parse_exposition(&exposition).is_none() {
                    return Err(bad());
                }
                Ok(Response::Metrics { exposition })
            }
            "ERR" => {
                let code = toks.next().and_then(ErrCode::parse).ok_or_else(bad)?;
                Ok(Response::Err {
                    code,
                    detail: join_tokens(toks),
                })
            }
            _ => Err(bad()),
        }
    }

    /// Appends the response's wire line (no trailing newline) to `out`.
    /// Error details are flattened to a single line. The hot-path
    /// variants (`OK`, `PRED`, `ADMITTED`) never allocate; the
    /// snapshot variants go through the formatter.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Ok => out.extend_from_slice(b"OK"),
            Response::Pred { peak, mem } => {
                out.extend_from_slice(b"PRED ");
                push_f64(out, *peak);
                if let Some(m) = mem {
                    out.push(b',');
                    push_f64(out, *m);
                }
            }
            Response::Admitted { admit, projected } => {
                out.extend_from_slice(if *admit {
                    b"ADMITTED yes ".as_slice()
                } else {
                    b"ADMITTED no ".as_slice()
                });
                push_f64(out, *projected);
            }
            Response::Stats(s) => {
                out.extend_from_slice(b"STATS ");
                s.encode_fields_into(out);
            }
            Response::Metrics { exposition } => {
                out.extend_from_slice(b"METRICS ");
                out.extend_from_slice(exposition.as_bytes());
            }
            Response::Ring { spec, epoch, addrs } => {
                out.extend_from_slice(b"RING ");
                push_ring_spec(out, spec);
                out.push(b' ');
                push_u64(out, *epoch);
                out.push(b' ');
                push_addr_list(out, addrs);
            }
            Response::Restored {
                machines,
                samples,
                rejected,
            } => {
                out.extend_from_slice(b"RESTORED ");
                push_u64(out, *machines);
                out.push(b' ');
                push_u64(out, *samples);
                out.push(b' ');
                push_u64(out, *rejected);
            }
            Response::Err { code, detail } => {
                out.extend_from_slice(b"ERR ");
                out.extend_from_slice(code.as_str().as_bytes());
                if !detail.is_empty() {
                    out.push(b' ');
                    for c in detail.chars() {
                        let c = if c == '\n' || c == '\r' { ' ' } else { c };
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                    }
                }
            }
        }
    }

    /// Encodes the response as one line (no trailing newline).
    /// Allocating wrapper over [`Response::encode_into`].
    pub fn encode(&self) -> String {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        String::from_utf8(out).expect("encoded line is valid UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_round_trip() {
        let req = Request::Observe {
            cell: CellId::new("a"),
            machine: MachineId(3),
            task: TaskId::new(JobId(17), 2),
            usage: 0.125,
            limit: 0.5,
            mem: None,
            tick: 42,
        };
        let line = req.encode();
        assert_eq!(line, "OBSERVE a 3 17:2 0.125 0.5 42");
        assert_eq!(Request::parse(&line).unwrap(), req);
    }

    #[test]
    fn vector_observe_round_trip() {
        let req = Request::Observe {
            cell: CellId::new("a"),
            machine: MachineId(3),
            task: TaskId::new(JobId(17), 2),
            usage: 0.125,
            limit: 0.5,
            mem: Some((0.03125, 0.25)),
            tick: 42,
        };
        let line = req.encode();
        assert_eq!(line, "OBSERVE a 3 17:2 0.125,0.03125 0.5,0.25 42");
        assert_eq!(Request::parse(&line).unwrap(), req);
    }

    #[test]
    fn mixed_lane_forms_are_rejected() {
        // Pair usage with scalar limit (and vice versa): both-or-neither.
        assert_eq!(
            Request::parse("OBSERVE a 1 2:0 0.5,0.1 0.5 7"),
            Err(ProtoError::LaneMismatch)
        );
        assert_eq!(
            Request::parse("OBSERVE a 1 2:0 0.5 0.5,0.2 7"),
            Err(ProtoError::LaneMismatch)
        );
        // Each pair component gets the scalar domain checks.
        assert!(matches!(
            Request::parse("OBSERVE a 1 2:0 0.5,NaN 0.5,0.2 7"),
            Err(ProtoError::OutOfDomain { field: "usage", .. })
        ));
        assert!(matches!(
            Request::parse("OBSERVE a 1 2:0 0.5,0.1 0.5,-1 7"),
            Err(ProtoError::OutOfDomain { field: "limit", .. })
        ));
        // A malformed pair (trailing comma) is a bad number, not a scalar.
        assert!(matches!(
            Request::parse("OBSERVE a 1 2:0 0.5, 0.5,0.2 7"),
            Err(ProtoError::BadNumber { field: "usage", .. })
        ));
    }

    #[test]
    fn vector_predict_round_trip() {
        let req = Request::Predict {
            cell: CellId::new("cell-a"),
            machine: MachineId(7),
            vector: true,
        };
        let line = req.encode();
        assert_eq!(line, "PREDICT cell-a 7 *");
        assert_eq!(Request::parse(&line).unwrap(), req);
        // Any trailing operand other than `*` keeps the arity error.
        assert!(matches!(
            Request::parse("PREDICT cell-a 7 x"),
            Err(ProtoError::Arity {
                verb: "PREDICT",
                ..
            })
        ));
    }

    #[test]
    fn vector_pred_round_trip() {
        let r = Response::Pred {
            peak: 0.1 + 0.2,
            mem: Some(0.3 + 0.1),
        };
        let Response::Pred { peak, mem } = Response::parse(&r.encode()).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(peak.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(mem.unwrap().to_bits(), (0.3f64 + 0.1).to_bits());
    }

    #[test]
    fn the_longest_float_texts_fit_the_reserve() {
        for (v, len) in [(-5e-324, F64_MAX_BYTES), (-f64::MAX, 310)] {
            let mut out = Vec::new();
            push_f64(&mut out, v);
            assert_eq!(out.len(), len, "{v:e}");
        }
    }

    #[test]
    fn float_encoding_is_bit_exact() {
        let peak = 0.1 + 0.2; // not representable "nicely"
        let r = Response::Pred { peak, mem: None };
        let Response::Pred { peak: back, .. } = Response::parse(&r.encode()).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(peak.to_bits(), back.to_bits());
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        assert_eq!(Request::parse(""), Err(ProtoError::Empty));
        assert_eq!(Request::parse("   "), Err(ProtoError::Empty));
        assert!(matches!(
            Request::parse("FROBNICATE a 1"),
            Err(ProtoError::UnknownVerb { .. })
        ));
        assert!(matches!(
            Request::parse("OBSERVE a 1 2:0 0.5 0.5"),
            Err(ProtoError::Arity {
                verb: "OBSERVE",
                expected: 6,
                got: 5
            })
        ));
        assert!(matches!(
            Request::parse("OBSERVE a 1 2:0 NaN 0.5 7"),
            Err(ProtoError::OutOfDomain { field: "usage", .. })
        ));
        assert!(matches!(
            Request::parse("OBSERVE a 1 2:0 -0.5 0.5 7"),
            Err(ProtoError::OutOfDomain { field: "usage", .. })
        ));
        assert!(matches!(
            Request::parse("OBSERVE a 1 20 0.5 0.5 7"),
            Err(ProtoError::BadTaskId { .. })
        ));
        assert!(matches!(
            Request::parse("PREDICT a x"),
            Err(ProtoError::BadNumber {
                field: "machine",
                ..
            })
        ));
        let long = format!("PREDICT a {}", "9".repeat(MAX_LINE_BYTES));
        assert!(matches!(
            Request::parse(&long),
            Err(ProtoError::LineTooLong { .. })
        ));
    }

    #[test]
    fn stats_round_trip() {
        let s = StatsSnapshot {
            epoch: (1_700_000_000 << 16) | 3,
            observes: 10,
            predicts: 2,
            admits: 1,
            busy: 3,
            stale: 0,
            errors: 1,
            machines: 4,
            timeouts: 1,
            conn_rejects: 5,
            p50_us: 12.5,
            p99_us: 99.25,
            mean_us: 20.75,
            max_us: 1000.0,
        };
        let r = Response::Stats(s.clone());
        assert_eq!(Response::parse(&r.encode()).unwrap(), Response::Stats(s));
    }

    #[test]
    fn metrics_round_trip() {
        assert_eq!(Request::parse("METRICS").unwrap(), Request::Metrics);
        assert_eq!(Request::Metrics.encode(), "METRICS");
        let r = Response::Metrics {
            exposition: "v=1 serve.busy=3 serve.latency_us.p50=12.5".to_string(),
        };
        assert_eq!(Response::parse(&r.encode()).unwrap(), r);
        // A payload that is not a valid exposition is rejected at parse.
        assert!(Response::parse("METRICS v=2 a=1").is_err());
        assert!(Response::parse("METRICS nonsense").is_err());
    }

    #[test]
    fn ring_request_round_trips() {
        assert_eq!(Request::parse("RING").unwrap(), Request::Ring);
        assert_eq!(Request::Ring.encode(), "RING");
        assert_eq!(Request::parse("HANDOFF").unwrap(), Request::Handoff);
        assert_eq!(
            Request::parse("RESTORE 3").unwrap(),
            Request::Restore { lines: 3 }
        );
        for bad in [
            "RESTORE",
            "RESTORE 0",
            "RESTORE 1025",
            "RESTORE x",
            "RESTORE 1 2",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad}");
        }
        let set = Request::RingSet {
            spec: RingSpec {
                generation: 9,
                ..RingSpec::new(3)
            },
            addrs: vec!["127.0.0.1:4001".into(), "127.0.0.1:4002".into()],
        };
        let line = set.encode();
        assert_eq!(line, "RINGSET 3 64 17 9 127.0.0.1:4001,127.0.0.1:4002");
        assert_eq!(Request::parse(&line).unwrap(), set);
        let empty = Request::RingSet {
            spec: RingSpec {
                nodes: 1,
                vnodes: 4,
                seed: 0,
                generation: 0,
            },
            addrs: vec![],
        };
        assert_eq!(empty.encode(), "RINGSET 1 4 0 0 -");
        assert_eq!(Request::parse(&empty.encode()).unwrap(), empty);
        assert!(Request::parse("RINGSET 3 64 17").is_err());
    }

    #[test]
    fn ring_response_round_trips() {
        let r = Response::Ring {
            spec: RingSpec {
                generation: 70000,
                ..RingSpec::new(3)
            },
            epoch: pack_epoch(1_700_000_000, 70000),
            addrs: vec!["127.0.0.1:4001".into()],
        };
        assert_eq!(Response::parse(&r.encode()).unwrap(), r);
        let bare = Response::Ring {
            spec: RingSpec {
                nodes: 2,
                vnodes: 8,
                seed: 1,
                generation: 0,
            },
            epoch: 0,
            addrs: vec![],
        };
        assert_eq!(Response::parse(&bare.encode()).unwrap(), bare);
    }

    /// A ring that cannot be built — no nodes, no vnodes, or more points
    /// than a process should ever allocate — fails to parse on either
    /// side, so neither a member nor an adopting client builds it.
    #[test]
    fn unbuildable_rings_fail_to_parse() {
        Request::parse("RINGSET 1024 64 17 1 -").expect("a ring at the bound parses");
        for bad in [
            "RINGSET 3 4294967296 17 1 -",
            "RINGSET 1025 64 17 1 -",
            "RINGSET 0 64 17 1 -",
            "RINGSET 3 0 17 1 -",
            "RINGSET 18446744073709551615 2 17 1 -",
        ] {
            assert!(
                matches!(Request::parse(bad), Err(ProtoError::BadRing { .. })),
                "{bad}"
            );
        }
        for bad in ["RING 3 4294967296 17 1 0 -", "RING 0 64 17 1 0 -"] {
            assert!(
                matches!(Response::parse(bad), Err(ProtoError::BadRing { .. })),
                "{bad}"
            );
        }
    }

    #[test]
    fn epoch_generation_wraps_at_16_bits() {
        // The documented wrap: generations 2^16 apart pack identically
        // when the start stamp matches, so the epoch word alone cannot
        // distinguish them — full generations travel in RING responses.
        let start = 1_700_000_000;
        let g = 7;
        assert_eq!(pack_epoch(start, g), pack_epoch(start, g + 65_536));
        assert_eq!(epoch_ring_generation(pack_epoch(start, g + 65_536)), g);
        // A different start stamp still changes the full word even at a
        // wrapped generation — which is why clients must compare the
        // whole 64-bit epoch, never just the unpacked generation.
        assert_ne!(pack_epoch(start, g), pack_epoch(start + 1, g + 65_536));
        assert_eq!(
            epoch_ring_generation(pack_epoch(start, g)),
            epoch_ring_generation(pack_epoch(start + 1, g + 65_536)),
        );
    }

    #[test]
    fn view_records_round_trip_within_the_line_limit() {
        let state: Vec<u8> = (0..=255u8).cycle().take(2 * VIEW_PART_BYTES + 7).collect();
        let mut out = Vec::new();
        let lines = encode_view_record(&CellId::new("c"), MachineId(7), 42, &state, &mut out);
        let text = String::from_utf8(out).unwrap();
        let mut it = text.lines();
        let header = parse_view_header(it.next().unwrap()).unwrap();
        assert_eq!(
            header,
            ViewHeader {
                cell: CellId::new("c"),
                machine: MachineId(7),
                samples: 42,
                parts: 3
            }
        );
        assert_eq!(lines, 1 + header.parts);
        let mut back = Vec::new();
        for part in it {
            assert!(part.len() <= MAX_LINE_BYTES);
            decode_view_part(part, &mut back).unwrap();
        }
        assert_eq!(back, state);
        for bad in [
            "",
            "VIEW c 7 42",
            "VIEW c 7 42 0",
            "VIEW c 7 42 1024",
            "VIEW c x 1 1",
        ] {
            assert!(parse_view_header(bad).is_err(), "{bad:?}");
        }
        for bad in ["abc", "AB", "zz", &"00".repeat(VIEW_PART_BYTES + 1)] {
            assert!(decode_view_part(bad, &mut Vec::new()).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn err_detail_keeps_spaces_and_strips_newlines() {
        let r = Response::Err {
            code: ErrCode::Stale,
            detail: "tick 5 already\nflushed".into(),
        };
        let line = r.encode();
        assert!(!line.contains('\n'));
        let back = Response::parse(&line).unwrap();
        assert_eq!(
            back,
            Response::Err {
                code: ErrCode::Stale,
                detail: "tick 5 already flushed".into()
            }
        );
    }
}
