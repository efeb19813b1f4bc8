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
//! SHUTDOWN
//! ```
//!
//! and one response line per request:
//!
//! ```text
//! OK                                  observe applied
//! BUSY                                reserved (retryable); not sent by this server
//! PRED <peak>                         predicted machine peak (CPU)
//! PRED <peak>,<mem>                   per-resource peaks (vector PREDICT)
//! ADMITTED <yes|no> <projected>       admission verdict + projected peak
//! STATS <key>=<value> ...             service-wide counter snapshot
//! METRICS v=1 <name>=<value> ...      full metrics exposition
//! RING <nodes> <vnodes> <seed> <generation> <epoch> <addrs|->
//!                                     current ring description
//! HANDOFF <n>                         header; n OBSERVE lines follow
//! ERR <code> <detail...>              typed error (parse, stale, ...)
//! ```
//!
//! Floats are encoded with Rust's shortest-round-trip formatting, so
//! `parse(encode(x))` reproduces the exact bit pattern — the property the
//! served-vs-offline bit-identity test relies on, and the property the
//! proptest suite in `tests/proto.rs` pins down.
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
//! # Allocation discipline
//!
//! The `parse`/`encode` methods are convenience wrappers that allocate.
//! The data plane uses [`Request::parse_in`] (tokenizes into a reusable
//! [`ProtoScratch`], interns cell names) and
//! [`Request::encode_into`]/[`Response::encode_into`] (append to a reused
//! `Vec<u8>` with manual integer/float formatters) — zero heap
//! allocations per request once the connection's scratch is warm.

use oc_trace::ids::{CellId, JobId, MachineId, TaskId};
use std::fmt;

/// Hard cap on the length of one protocol line, in bytes. Connections
/// exceeding it are answered with a parse error and closed.
pub const MAX_LINE_BYTES: usize = 512;

/// Hard cap on the sub-request count of one `BATCH` frame.
pub const MAX_BATCH: usize = 1024;

/// Cap on distinct cell names interned per connection scratch; a peer
/// cycling through more than this many names falls back to re-allocating
/// (the cache is cleared), never to unbounded growth.
const CELL_CACHE_CAP: usize = 32;

/// Reusable per-connection parse state: token spans and an interned cell
/// table. Feeding every request of a connection through one scratch makes
/// parsing allocation-free in the steady state — token boundaries go into
/// a recycled span vector and repeated cell names are served as reference
/// clones of previously seen [`CellId`]s.
#[derive(Debug, Default)]
pub struct ProtoScratch {
    /// Byte ranges of the line's whitespace-separated tokens.
    spans: Vec<(u32, u32)>,
    /// Cell names already seen on this connection.
    cells: Vec<CellId>,
}

impl ProtoScratch {
    /// Creates an empty scratch.
    pub fn new() -> ProtoScratch {
        ProtoScratch::default()
    }

    /// Records the token spans of `line` (ASCII-whitespace separated).
    fn tokenize(&mut self, line: &str) {
        self.spans.clear();
        let bytes = line.as_bytes();
        let mut start: Option<usize> = None;
        for (i, &b) in bytes.iter().enumerate() {
            if b.is_ascii_whitespace() {
                if let Some(s) = start.take() {
                    self.spans.push((s as u32, i as u32));
                }
            } else if start.is_none() {
                start = Some(i);
            }
        }
        if let Some(s) = start {
            self.spans.push((s as u32, bytes.len() as u32));
        }
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
    /// ownership map through its configured factory, re-stamps its epoch
    /// with the new generation, and starts answering `RING` with the new
    /// description. Generations below the installed one are rejected with
    /// `ERR stale`.
    RingSet {
        /// Ring member count.
        nodes: u64,
        /// Virtual nodes per member.
        vnodes: u64,
        /// Ring hash seed.
        seed: u64,
        /// Ring generation (full 64-bit word; only the low 16 bits fit in
        /// the packed `epoch` — see [`pack_epoch`]).
        generation: u64,
        /// Member data-plane addresses in ring-index order (may be empty
        /// when unknown, encoded as `-`).
        addrs: Vec<String>,
    },
    /// Dump the member's handoff sample log (`HANDOFF`): the server
    /// answers a `HANDOFF <n>` header followed by `n` ordinary `OBSERVE`
    /// lines in original arrival order — replaying them into a fresh
    /// member reproduces this member's machine state bit-identically.
    /// `ERR internal` if the log is disabled.
    Handoff,
    /// Ask the server to drain and exit (`SHUTDOWN`).
    Shutdown,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Observe applied (ingested, stale or invalid: see `STATS`).
    Ok,
    /// The request was dropped and may be retried. Reserved: this server
    /// has no queue to fill and never sends it; clients still honour it.
    Busy,
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
        /// Ring member count.
        nodes: u64,
        /// Virtual nodes per member.
        vnodes: u64,
        /// Ring hash seed.
        seed: u64,
        /// Full 64-bit ring generation (authoritative — the packed
        /// `epoch` only carries it mod 2^16, see [`pack_epoch`]).
        generation: u64,
        /// The member's current epoch word.
        epoch: u64,
        /// Member data-plane addresses in ring-index order; empty
        /// (encoded `-`) until the supervisor pushes them via `RINGSET`.
        addrs: Vec<String>,
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
    /// Requests rejected with `BUSY`. Reserved: always 0 from this server,
    /// which has no queue to fill (the field stays on the wire).
    pub busy: u64,
    /// Samples rejected as stale.
    pub stale: u64,
    /// Other typed errors.
    pub errors: u64,
    /// Machines with live state.
    pub machines: u64,
    /// Faults injected by the server's own fault-injection plan (0 unless
    /// chaos testing is configured).
    pub faults: u64,
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
    /// A `BATCH`/`BATCHR` frame header counted an out-of-range number of
    /// sub-messages (must be `1..=MAX_BATCH`).
    BatchSize {
        /// The offending count.
        got: u64,
    },
    /// A response line did not match any response form.
    BadResponse {
        /// The offending line (truncated).
        line: String,
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
                write!(f, "field {field}: {value} must be finite and >= 0")
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
        }
    }
}

impl std::error::Error for ProtoError {}

/// `fmt::Write` adapter appending to a byte buffer (never fails).
struct ByteFmt<'a>(&'a mut Vec<u8>);

impl fmt::Write for ByteFmt<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// Appends `format_args!` output to `out` without an intermediate String.
macro_rules! push_fmt {
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = write!(ByteFmt($out), $($arg)*);
    }};
}

/// Appends the decimal digits of `v` (same bytes as `format!("{v}")`)
/// without going through the `fmt` machinery.
pub fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Largest f64 magnitude whose integral values are all exactly
/// representable (2^53): below it, an integral float prints as plain
/// digits and the manual integer formatter is bit-faithful.
const EXACT_INT_BOUND: f64 = 9_007_199_254_740_992.0;

/// Appends `v` exactly as `format!("{v}")` would render it (shortest
/// round trip). Integral values — the common case for ticks, counters,
/// and whole-unit limits — take a manual digit path; everything else
/// falls back to the standard formatter, writing straight into `out`.
pub fn push_f64(out: &mut Vec<u8>, v: f64) {
    if v.is_finite() && v.trunc() == v && v.abs() <= EXACT_INT_BOUND {
        // `Display` prints integral f64s as bare digits ("-0" kept for
        // the negative-zero bit pattern).
        if v.is_sign_negative() {
            out.push(b'-');
        }
        push_u64(out, v.abs() as u64);
    } else {
        push_fmt!(out, "{v}");
    }
}

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

fn parse_frame_header(
    verb: &'static str,
    line: &str,
    scratch: &mut ProtoScratch,
) -> Result<Option<usize>, ProtoError> {
    scratch.tokenize(line);
    let tok = |i: usize| {
        let (s, e) = scratch.spans[i];
        &line[s as usize..e as usize]
    };
    if scratch.spans.is_empty() || tok(0) != verb {
        return Ok(None);
    }
    if scratch.spans.len() != 2 {
        return Err(ProtoError::Arity {
            verb,
            expected: 1,
            got: scratch.spans.len() - 1,
        });
    }
    let n = parse_u64("batch", tok(1))?;
    if n == 0 || n > MAX_BATCH as u64 {
        return Err(ProtoError::BatchSize { got: n });
    }
    Ok(Some(n as usize))
}

/// Recognizes a `BATCH <n>` frame header. `Ok(None)` means the line is
/// not a batch header at all (parse it as an ordinary request);
/// `Ok(Some(n))` announces `n` sub-request lines to follow.
///
/// # Errors
///
/// A line that *is* a `BATCH` header but malformed — wrong arity, bad
/// count, count outside `1..=MAX_BATCH` — is a typed [`ProtoError`]. The
/// connection cannot be resynchronized after one (the number of
/// follow-up lines is unknown), so servers close on it.
pub fn parse_batch_header(
    line: &str,
    scratch: &mut ProtoScratch,
) -> Result<Option<usize>, ProtoError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(ProtoError::LineTooLong { len: line.len() });
    }
    parse_frame_header("BATCH", line, scratch)
}

/// Recognizes a `BATCHR <n>` multi-response header; same contract as
/// [`parse_batch_header`].
///
/// # Errors
///
/// Typed [`ProtoError`] for a malformed `BATCHR` header.
pub fn parse_batchr_header(
    line: &str,
    scratch: &mut ProtoScratch,
) -> Result<Option<usize>, ProtoError> {
    parse_frame_header("BATCHR", line, scratch)
}

fn parse_f64(field: &'static str, token: &str) -> Result<f64, ProtoError> {
    let v: f64 = token.parse().map_err(|_| ProtoError::BadNumber {
        field,
        token: token.to_string(),
    })?;
    if !v.is_finite() || v < 0.0 {
        return Err(ProtoError::OutOfDomain { field, value: v });
    }
    Ok(v)
}

/// Parses a float token that may be a `cpu,mem` pair. Returns the CPU
/// value and the optional memory value; each component goes through the
/// same finiteness/sign domain checks as a scalar float.
fn parse_f64_or_pair(field: &'static str, token: &str) -> Result<(f64, Option<f64>), ProtoError> {
    match token.split_once(',') {
        None => Ok((parse_f64(field, token)?, None)),
        Some((cpu, mem)) => Ok((parse_f64(field, cpu)?, Some(parse_f64(field, mem)?))),
    }
}

fn parse_u64(field: &'static str, token: &str) -> Result<u64, ProtoError> {
    token.parse().map_err(|_| ProtoError::BadNumber {
        field,
        token: token.to_string(),
    })
}

fn parse_machine(token: &str) -> Result<MachineId, ProtoError> {
    token
        .parse()
        .map(MachineId)
        .map_err(|_| ProtoError::BadNumber {
            field: "machine",
            token: token.to_string(),
        })
}

fn parse_task(token: &str) -> Result<TaskId, ProtoError> {
    let bad = || ProtoError::BadTaskId {
        token: token.to_string(),
    };
    let (job, index) = token.split_once(':').ok_or_else(bad)?;
    let job: u64 = job.parse().map_err(|_| bad())?;
    let index: u32 = index.parse().map_err(|_| bad())?;
    Ok(TaskId::new(JobId(job), index))
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

    /// Parses one request line using a reusable [`ProtoScratch`]. In the
    /// steady state this performs no heap allocation: token spans go into
    /// the scratch's recycled vector and repeated cell names come back as
    /// reference clones from its intern table. Error paths may allocate
    /// (they copy the offending token into the error).
    ///
    /// # Errors
    ///
    /// Returns a typed [`ProtoError`]; malformed input never panics.
    pub fn parse_in(line: &str, scratch: &mut ProtoScratch) -> Result<Request, ProtoError> {
        if line.len() > MAX_LINE_BYTES {
            return Err(ProtoError::LineTooLong { len: line.len() });
        }
        scratch.tokenize(line);
        if scratch.spans.is_empty() {
            return Err(ProtoError::Empty);
        }
        let tok = |i: usize| {
            let (s, e) = scratch.spans[i];
            &line[s as usize..e as usize]
        };
        let n_operands = scratch.spans.len() - 1;
        let arity = |verb: &'static str, expected: usize| {
            if n_operands != expected {
                return Err(ProtoError::Arity {
                    verb,
                    expected,
                    got: n_operands,
                });
            }
            Ok(())
        };
        match tok(0) {
            "OBSERVE" => {
                arity("OBSERVE", 6)?;
                let machine = parse_machine(tok(2))?;
                let task = parse_task(tok(3))?;
                let (usage, mem_usage) = parse_f64_or_pair("usage", tok(4))?;
                let (limit, mem_limit) = parse_f64_or_pair("limit", tok(5))?;
                let tick = parse_u64("tick", tok(6))?;
                let mem = match (mem_usage, mem_limit) {
                    (Some(u), Some(l)) => Some((u, l)),
                    (None, None) => None,
                    _ => return Err(ProtoError::LaneMismatch),
                };
                Ok(Request::Observe {
                    cell: scratch.intern_cell(
                        &line[scratch.spans[1].0 as usize..scratch.spans[1].1 as usize],
                    ),
                    machine,
                    task,
                    usage,
                    limit,
                    mem,
                    tick,
                })
            }
            "PREDICT" => {
                let vector = n_operands == 3 && tok(3) == "*";
                if !vector {
                    arity("PREDICT", 2)?;
                }
                let machine = parse_machine(tok(2))?;
                Ok(Request::Predict {
                    cell: scratch.intern_cell(
                        &line[scratch.spans[1].0 as usize..scratch.spans[1].1 as usize],
                    ),
                    machine,
                    vector,
                })
            }
            "ADMIT" => {
                arity("ADMIT", 3)?;
                let machine = parse_machine(tok(2))?;
                let limit = parse_f64("limit", tok(3))?;
                Ok(Request::Admit {
                    cell: scratch.intern_cell(
                        &line[scratch.spans[1].0 as usize..scratch.spans[1].1 as usize],
                    ),
                    machine,
                    limit,
                })
            }
            "STATS" => {
                arity("STATS", 0)?;
                Ok(Request::Stats)
            }
            "METRICS" => {
                arity("METRICS", 0)?;
                Ok(Request::Metrics)
            }
            "RING" => {
                arity("RING", 0)?;
                Ok(Request::Ring)
            }
            "RINGSET" => {
                arity("RINGSET", 5)?;
                Ok(Request::RingSet {
                    nodes: parse_u64("nodes", tok(1))?,
                    vnodes: parse_u64("vnodes", tok(2))?,
                    seed: parse_u64("seed", tok(3))?,
                    generation: parse_u64("generation", tok(4))?,
                    addrs: parse_addr_list(tok(5)),
                })
            }
            "HANDOFF" => {
                arity("HANDOFF", 0)?;
                Ok(Request::Handoff)
            }
            "SHUTDOWN" => {
                arity("SHUTDOWN", 0)?;
                Ok(Request::Shutdown)
            }
            other => Err(ProtoError::UnknownVerb {
                verb: other.to_string(),
            }),
        }
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
            Request::RingSet {
                nodes,
                vnodes,
                seed,
                generation,
                addrs,
            } => {
                out.extend_from_slice(b"RINGSET ");
                push_u64(out, *nodes);
                out.push(b' ');
                push_u64(out, *vnodes);
                out.push(b' ');
                push_u64(out, *seed);
                out.push(b' ');
                push_u64(out, *generation);
                out.push(b' ');
                push_addr_list(out, addrs);
            }
            Request::Handoff => out.extend_from_slice(b"HANDOFF"),
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
const STATS_KEYS: [&str; 15] = [
    "observes",
    "predicts",
    "admits",
    "busy",
    "stale",
    "errors",
    "machines",
    "faults",
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

/// The process start stamp (unix seconds, truncated to 48 bits) packed
/// into an `epoch` word.
pub fn epoch_start_secs(epoch: u64) -> u64 {
    epoch >> 16
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
            self.faults,
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
                "faults" => s.faults = parse_u64(key_s, v)?,
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
        self.faults += other.faults;
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
        let mut tokens = line.split_ascii_whitespace();
        let verb = tokens.next().ok_or(ProtoError::Empty)?;
        let operands: Vec<&str> = tokens.collect();
        let bad = || ProtoError::BadResponse {
            line: line.chars().take(80).collect(),
        };
        match verb {
            "OK" if operands.is_empty() => Ok(Response::Ok),
            "BUSY" if operands.is_empty() => Ok(Response::Busy),
            "PRED" => {
                expect_arity("PRED", &operands, 1)?;
                let (peak, mem) = parse_f64_or_pair("peak", operands[0])?;
                Ok(Response::Pred { peak, mem })
            }
            "ADMITTED" => {
                expect_arity("ADMITTED", &operands, 2)?;
                let admit = match operands[0] {
                    "yes" => true,
                    "no" => false,
                    _ => return Err(bad()),
                };
                Ok(Response::Admitted {
                    admit,
                    projected: parse_f64("projected", operands[1])?,
                })
            }
            "STATS" => StatsSnapshot::parse_fields(&operands).map(Response::Stats),
            "RING" => {
                expect_arity("RING", &operands, 6)?;
                Ok(Response::Ring {
                    nodes: parse_u64("nodes", operands[0])?,
                    vnodes: parse_u64("vnodes", operands[1])?,
                    seed: parse_u64("seed", operands[2])?,
                    generation: parse_u64("generation", operands[3])?,
                    epoch: parse_u64("epoch", operands[4])?,
                    addrs: parse_addr_list(operands[5]),
                })
            }
            "METRICS" => {
                let exposition = operands.join(" ");
                if oc_telemetry::metrics::parse_exposition(&exposition).is_none() {
                    return Err(bad());
                }
                Ok(Response::Metrics { exposition })
            }
            "ERR" => {
                if operands.is_empty() {
                    return Err(bad());
                }
                let code = ErrCode::parse(operands[0]).ok_or_else(bad)?;
                Ok(Response::Err {
                    code,
                    detail: operands[1..].join(" "),
                })
            }
            _ => Err(bad()),
        }
    }

    /// Appends the response's wire line (no trailing newline) to `out`.
    /// Error details are flattened to a single line. The hot-path
    /// variants (`OK`, `BUSY`, `PRED`, `ADMITTED`) never allocate; the
    /// snapshot variants go through the formatter.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Ok => out.extend_from_slice(b"OK"),
            Response::Busy => out.extend_from_slice(b"BUSY"),
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
            Response::Ring {
                nodes,
                vnodes,
                seed,
                generation,
                epoch,
                addrs,
            } => {
                out.extend_from_slice(b"RING ");
                push_u64(out, *nodes);
                out.push(b' ');
                push_u64(out, *vnodes);
                out.push(b' ');
                push_u64(out, *seed);
                out.push(b' ');
                push_u64(out, *generation);
                out.push(b' ');
                push_u64(out, *epoch);
                out.push(b' ');
                push_addr_list(out, addrs);
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
            faults: 2,
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
        let set = Request::RingSet {
            nodes: 3,
            vnodes: 64,
            seed: 17,
            generation: 9,
            addrs: vec!["127.0.0.1:4001".into(), "127.0.0.1:4002".into()],
        };
        let line = set.encode();
        assert_eq!(line, "RINGSET 3 64 17 9 127.0.0.1:4001,127.0.0.1:4002");
        assert_eq!(Request::parse(&line).unwrap(), set);
        let empty = Request::RingSet {
            nodes: 1,
            vnodes: 4,
            seed: 0,
            generation: 0,
            addrs: vec![],
        };
        assert_eq!(empty.encode(), "RINGSET 1 4 0 0 -");
        assert_eq!(Request::parse(&empty.encode()).unwrap(), empty);
        assert!(Request::parse("RINGSET 3 64 17").is_err());
    }

    #[test]
    fn ring_response_round_trips() {
        let r = Response::Ring {
            nodes: 3,
            vnodes: 64,
            seed: 17,
            generation: 70000,
            epoch: pack_epoch(1_700_000_000, 70000),
            addrs: vec!["127.0.0.1:4001".into()],
        };
        assert_eq!(Response::parse(&r.encode()).unwrap(), r);
        let bare = Response::Ring {
            nodes: 2,
            vnodes: 8,
            seed: 1,
            generation: 0,
            epoch: 0,
            addrs: vec![],
        };
        assert_eq!(Response::parse(&bare.encode()).unwrap(), bare);
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
        assert_eq!(epoch_start_secs(pack_epoch(start, g)), start);
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
