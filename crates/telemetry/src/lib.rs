//! `oc-telemetry` — workspace-wide observability.
//!
//! The serve/client/sim layers of this workspace all need the same two
//! facilities, and both have to be cheap enough to leave compiled into the
//! per-tick prediction hot path:
//!
//! * [`trace`] — **structured tracing**: lightweight spans and events with
//!   monotonic microsecond timestamps. Each thread appends to its own
//!   bounded buffer, behind a lock only the collector contends for;
//!   [`trace::drain`] takes every buffer and [`trace::write_jsonl`]
//!   exports the merged stream as JSONL. Tracing is off by default: when
//!   disabled, instrumentation costs one relaxed atomic load and a branch.
//! * [`metrics`] — a **unified metrics registry**: named counters, gauges,
//!   and histograms (the one log-bucketed [`oc_stats::Histogram`] shape
//!   plus exact sum and max). Hot-path updates are single relaxed atomic operations
//!   on pre-registered handles; [`metrics::MetricsSnapshot`]s are pure data
//!   that merge across shards/threads and encode into the stable text
//!   exposition format served by `oc-serve`'s `METRICS` verb.
//!
//! The design notes (buffer bound, merge semantics, the overhead budget)
//! live in `DESIGN.md` §9; the operator-facing dictionary of every metric
//! and trace event lives in `docs/OPERATIONS.md`.
//!
//! # Examples
//!
//! ```
//! use oc_telemetry::metrics::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let requests = registry.counter("demo.requests");
//! requests.add(3);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("demo.requests"), Some(3));
//! ```
//!
//! Tracing a computation and exporting it:
//!
//! ```
//! oc_telemetry::trace::enable();
//! {
//!     let _span = oc_telemetry::trace::span("demo.work");
//!     oc_telemetry::trace::event("demo.step", 1, 0);
//! }
//! let events = oc_telemetry::trace::drain();
//! oc_telemetry::trace::disable();
//! assert!(events.iter().any(|e| e.name == "demo.work"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod json;
pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, HistogramHandle, MetricsRegistry, MetricsSnapshot};
pub use trace::{enabled, event, span, Span, TraceEvent};

/// The process-wide metrics registry shared by library instrumentation
/// (client retries, simulator counters). Binaries that want isolation
/// (e.g. one registry per server) create their own [`MetricsRegistry`].
pub fn global_metrics() -> &'static MetricsRegistry {
    static GLOBAL: std::sync::OnceLock<MetricsRegistry> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}
