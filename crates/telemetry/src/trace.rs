//! Structured tracing: spans and instant events over per-thread buffers.
//!
//! # Model
//!
//! * A **span** ([`span`]) measures a region: it records its start
//!   timestamp on creation and pushes one completed-span record (start,
//!   duration, nesting depth) when the guard drops. Nesting is tracked
//!   per thread, so a drained trace can be re-assembled into a tree.
//! * An **event** ([`event`]) is an instant: one record with a timestamp
//!   and two free-form `u64` payload words.
//!
//! # Cost discipline
//!
//! Tracing is **off by default**. Every instrumentation site first checks
//! [`enabled`] — one relaxed atomic load and a predictable branch — so
//! leaving spans compiled into the simulator hot path is within the
//! overhead budget (DESIGN.md §9). When enabled, a record is a
//! [`TraceEvent`] (its name is the `&'static str` itself) pushed onto the
//! calling thread's own `Vec` behind a lock that only [`drain`] contends
//! for. A thread keeps at most 32 768 records between drains; past that
//! the newest record is dropped and counted in [`dropped`].
//!
//! # Collection
//!
//! [`drain`] takes every thread's records (including threads that have
//! since exited, whose buffers it then forgets) and returns the merged
//! stream sorted by timestamp. [`write_jsonl`] exports it in the JSONL
//! schema documented in [`crate::json`]; [`finish`] ends a traced run by
//! writing that export to a file.

use std::cell::Cell;
use std::io::{self, Write};
use std::mem;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::clock;

/// Master switch. Relaxed is enough: enabling tracing a hair late or
/// early only gains/loses a few records, never tears one.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns tracing on process-wide.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns tracing off process-wide. Already-recorded events stay in the
/// buffers until [`drain`]ed.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether tracing is currently on. Instrumentation sites branch on this
/// before doing any other work.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records a thread keeps between drains; past this the newest record
/// is dropped and counted in [`dropped`]. At 64 bytes a record a full
/// buffer holds 2 MiB, and a buffer only grows that far when its thread
/// records that much between two drains.
const CAPACITY: usize = 32 * 1024;

/// Records dropped at full buffers, over the process's life.
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// One thread's records. Its thread is the only writer and [`drain`] the
/// only other user, so the lock is contended only while a drain runs.
type Buffer = Arc<Mutex<Vec<TraceEvent>>>;

/// Every live thread's buffer, plus the buffers of exited threads whose
/// last records the next [`drain`] has yet to take.
fn registry() -> &'static Mutex<Vec<Buffer>> {
    static REGISTRY: OnceLock<Mutex<Vec<Buffer>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Per-thread tracing context.
struct Ctx {
    thread: u64,
    depth: Cell<u32>,
    records: Buffer,
}

impl Ctx {
    fn new() -> Ctx {
        static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
        let records = Buffer::default();
        registry().lock().unwrap().push(Arc::clone(&records));
        Ctx {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            depth: Cell::new(0),
            records,
        }
    }

    fn push(&self, e: TraceEvent) {
        let mut records = self.records.lock().unwrap();
        if records.len() < CAPACITY {
            records.push(e);
        } else {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

thread_local! {
    static CTX: Ctx = Ctx::new();
}

/// Records an instant event with two payload words. No-op when tracing
/// is disabled. The meaning of `a`/`b` is per event name and documented
/// in `docs/OPERATIONS.md`.
#[inline]
pub fn event(name: &'static str, a: u64, b: u64) {
    if !enabled() {
        return;
    }
    let ts_us = clock::now_us();
    // Ignore `try_with` failure: the thread is tearing down its TLS and
    // the record is better lost than panicking in a destructor.
    let _ = CTX.try_with(|ctx| {
        ctx.push(TraceEvent {
            name,
            kind: EventKind::Event,
            thread: ctx.thread,
            ts_us,
            dur_us: 0,
            depth: ctx.depth.get(),
            a,
            b,
        });
    });
}

/// Opens a span; the region ends (and the record is written) when the
/// returned guard drops. When tracing is disabled the guard is inert.
#[must_use = "a span measures until the guard drops; binding it to _ ends it immediately"]
#[inline]
pub fn span(name: &'static str) -> Span {
    span_ab(name, 0, 0)
}

/// Like [`span`] but attaches two payload words to the span record.
#[must_use = "a span measures until the guard drops; binding it to _ ends it immediately"]
#[inline]
pub fn span_ab(name: &'static str, a: u64, b: u64) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    let start_us = clock::now_us();
    let depth = CTX
        .try_with(|ctx| {
            let d = ctx.depth.get();
            ctx.depth.set(d + 1);
            d
        })
        .unwrap_or(0);
    Span {
        inner: Some(SpanInner {
            name,
            start_us,
            depth,
            a,
            b,
        }),
    }
}

struct SpanInner {
    name: &'static str,
    start_us: u64,
    depth: u32,
    a: u64,
    b: u64,
}

/// RAII guard returned by [`span`]. Dropping it records the completed
/// span with its measured duration.
pub struct Span {
    inner: Option<SpanInner>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur_us = clock::now_us().saturating_sub(inner.start_us);
        let _ = CTX.try_with(|ctx| {
            ctx.depth.set(ctx.depth.get().saturating_sub(1));
            // Record even if tracing was disabled mid-span: the span was
            // opened under tracing, so its completion belongs in the trace.
            ctx.push(TraceEvent {
                name: inner.name,
                kind: EventKind::Span,
                thread: ctx.thread,
                ts_us: inner.start_us,
                dur_us,
                depth: inner.depth,
                a: inner.a,
                b: inner.b,
            });
        });
    }
}

/// Whether a [`TraceEvent`] is a completed span or an instant event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A region with a duration, recorded when its guard dropped.
    Span,
    /// An instant occurrence (`dur_us` is 0).
    Event,
}

impl EventKind {
    /// Stable wire name used in the JSONL export.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Event => "event",
        }
    }
}

/// One trace record, as recorded and as drained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span/event name.
    pub name: &'static str,
    /// Record type.
    pub kind: EventKind,
    /// Dense id of the recording thread (assigned in tracing-first-use
    /// order, not the OS thread id).
    pub thread: u64,
    /// Microseconds since the process epoch; for spans, the start instant.
    pub ts_us: u64,
    /// Span duration in microseconds (0 for instant events).
    pub dur_us: u64,
    /// Span-nesting depth on the recording thread (0 = top level).
    pub depth: u32,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

/// Takes every thread's records and returns the merged stream sorted by
/// `(ts_us, thread)`; one thread's records keep their record order. A
/// buffer whose thread has exited is forgotten once its records are
/// taken. Records made after the drain started may or may not be
/// included; call after the traced workload has quiesced for a complete
/// picture.
pub fn drain() -> Vec<TraceEvent> {
    let mut out = Vec::new();
    registry().lock().unwrap().retain_mut(|records| {
        // Unique once its thread's `Ctx` is gone: nothing can record into
        // it any more, so the records taken below are its last.
        let exited = Arc::get_mut(records).is_some();
        let taken = mem::take(&mut *records.lock().unwrap());
        out.extend(taken);
        !exited
    });
    out.sort_by_key(|e| (e.ts_us, e.thread));
    out
}

/// Records dropped at full buffers across all threads so far.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Writes `events` to `w`, one JSON object per line (see [`crate::json`]
/// for the schema).
pub fn write_jsonl<W: Write>(w: &mut W, events: &[TraceEvent]) -> io::Result<()> {
    let mut line = String::new();
    for e in events {
        line.clear();
        crate::json::encode_event(&mut line, e);
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Ends a traced run: turns tracing off, drains, and writes the records
/// to a JSONL file at `path`. Returns how many records were written and
/// how many were [`dropped`] at full buffers, so a binary can say what
/// its trace is missing.
pub fn finish(path: impl AsRef<Path>) -> io::Result<(usize, u64)> {
    disable();
    let events = drain();
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    write_jsonl(&mut w, &events)?;
    w.flush()?;
    Ok((events.len(), dropped()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests in this module share the process-global tracer; serialize
    /// them and tag each test's events with unique names.
    pub(crate) fn tracer_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _guard = tracer_lock();
        disable();
        event("trace_test.disabled", 1, 2);
        {
            let _s = span("trace_test.disabled_span");
        }
        let events = drain();
        assert!(!events
            .iter()
            .any(|e| e.name.starts_with("trace_test.disabled")));
    }

    #[test]
    fn spans_nest_and_events_inherit_depth() {
        let _guard = tracer_lock();
        enable();
        {
            let _outer = span("trace_test.nest_outer");
            event("trace_test.nest_at1", 7, 0);
            {
                let _inner = span("trace_test.nest_inner");
                event("trace_test.nest_at2", 0, 9);
            }
        }
        disable();
        let events = drain();
        let find = |n: &str| events.iter().find(|e| e.name == n).unwrap();
        let outer = find("trace_test.nest_outer");
        let inner = find("trace_test.nest_inner");
        let at1 = find("trace_test.nest_at1");
        let at2 = find("trace_test.nest_at2");
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(at1.depth, 1, "event inside one span sits at depth 1");
        assert_eq!(at2.depth, 2);
        assert_eq!((at1.a, at1.b), (7, 0));
        // The inner span's interval lies within the outer's.
        assert!(outer.ts_us <= inner.ts_us);
        assert!(inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us);
        assert_eq!(outer.kind, EventKind::Span);
        assert_eq!(at1.kind, EventKind::Event);
    }

    #[test]
    fn drain_is_sorted_and_consumes() {
        let _guard = tracer_lock();
        enable();
        for i in 0..50 {
            event("trace_test.sorted", i, 0);
        }
        disable();
        let events = drain();
        let mine: Vec<_> = events
            .iter()
            .filter(|e| e.name == "trace_test.sorted")
            .collect();
        assert_eq!(mine.len(), 50);
        for w in events.windows(2) {
            assert!(w[0].ts_us <= w[1].ts_us);
        }
        let again = drain();
        assert!(!again.iter().any(|e| e.name == "trace_test.sorted"));
    }

    #[test]
    fn multi_thread_events_carry_distinct_thread_ids() {
        let _guard = tracer_lock();
        enable();
        let handles: Vec<_> = (0..3)
            .map(|i| {
                std::thread::spawn(move || {
                    event("trace_test.mt", i, 0);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        disable();
        let events = drain();
        let threads: std::collections::HashSet<u64> = events
            .iter()
            .filter(|e| e.name == "trace_test.mt")
            .map(|e| e.thread)
            .collect();
        assert_eq!(threads.len(), 3, "each thread drains under its own id");
    }

    /// `n` instant events named `name` with `a` = 0, 1, …, n - 1.
    fn record(name: &'static str, n: u64) {
        (0..n).for_each(|i| event(name, i, 0));
    }

    fn payloads(events: &[TraceEvent], name: &str) -> Vec<u64> {
        events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.a)
            .collect()
    }

    #[test]
    fn one_threads_records_keep_record_order_across_equal_timestamps() {
        let _guard = tracer_lock();
        enable();
        record("trace_test.order", 2_000);
        disable();
        let events = drain();
        assert!(
            events.windows(2).any(|w| w[0].ts_us == w[1].ts_us),
            "2000 records in a tight loop share a microsecond somewhere"
        );
        let order = payloads(&events, "trace_test.order");
        assert_eq!(order, (0..2_000).collect::<Vec<_>>());
    }

    #[test]
    fn a_full_buffer_drops_the_newest_and_records_again_after_a_drain() {
        let _guard = tracer_lock();
        drain();
        let dropped_before = dropped();
        enable();
        record("trace_test.full", CAPACITY as u64 + 1);
        let first = payloads(&drain(), "trace_test.full");
        assert_eq!(first, (0..CAPACITY as u64).collect::<Vec<_>>());
        assert_eq!(dropped() - dropped_before, 1, "the newest record drops");
        event("trace_test.full_again", 7, 0);
        disable();
        assert_eq!(payloads(&drain(), "trace_test.full_again"), [7]);
    }

    #[test]
    fn a_recording_thread_loses_nothing_to_repeated_drains() {
        let _guard = tracer_lock();
        drain();
        let dropped_before = dropped();
        const N: u64 = 200_000;
        enable();
        let producer = std::thread::spawn(|| record("trace_test.race", N));
        let mut seen = Vec::new();
        while !producer.is_finished() {
            seen.extend(payloads(&drain(), "trace_test.race"));
        }
        producer.join().unwrap();
        disable();
        seen.extend(payloads(&drain(), "trace_test.race"));
        assert!(
            seen.windows(2).all(|w| w[0] < w[1]),
            "reordered or repeated"
        );
        assert_eq!(seen.len() as u64 + (dropped() - dropped_before), N);
    }

    #[test]
    fn exited_threads_records_survive_one_drain_that_then_forgets_them() {
        let _guard = tracer_lock();
        drain();
        let before = registry().lock().unwrap().len();
        enable();
        let threads: Vec<_> = (0..50)
            .map(|i| std::thread::spawn(move || event("trace_test.churn", i, 0)))
            .collect();
        threads.into_iter().for_each(|t| t.join().unwrap());
        disable();
        let mut churn = payloads(&drain(), "trace_test.churn");
        churn.sort_unstable();
        assert_eq!(churn, (0..50).collect::<Vec<_>>());
        // `<=`, not `==`: another test's thread that exited after the
        // first drain is forgotten by the second one too.
        let after = registry().lock().unwrap().len();
        assert!(after <= before, "{after} buffers kept, {before} before");
    }

    #[test]
    fn finish_writes_what_fit_and_reports_the_overflow() {
        let _guard = tracer_lock();
        drain();
        let dropped_before = dropped();
        enable();
        std::thread::spawn(|| record("trace_test.finish", CAPACITY as u64 + 5))
            .join()
            .unwrap();
        let path = std::env::temp_dir().join(format!("oc-finish-{}.jsonl", std::process::id()));
        let (written, dropped_total) = finish(&path).unwrap();
        let lines = std::fs::read_to_string(&path).unwrap().lines().count();
        std::fs::remove_file(&path).unwrap();
        assert!(!enabled(), "finish turns tracing off");
        assert_eq!((written, lines), (CAPACITY, CAPACITY));
        assert_eq!(dropped_total - dropped_before, 5);
    }
}
