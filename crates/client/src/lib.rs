//! `oc-client` — a typed, retrying client for the `oc-serve` protocol.
//!
//! `oc-serve` deliberately answers with retryable failures
//! (`ERR timeout` at the idle deadline, `ERR conn-limit` at the
//! connection cap; the protocol also reserves `BUSY` for a server that
//! sheds load) and may close connections a
//! hand-rolled socket loop would misread as fatal. This crate owns the
//! client-side half of that contract:
//!
//! * [`client`] — [`Client`]: one logical connection with transparent
//!   reconnect, bounded exponential backoff with deterministic (seeded)
//!   jitter, typed request helpers, and windowed pipelining for bulk
//!   ingest. Re-sending after an ambiguous failure is safe because server
//!   ingestion is idempotent per `(tick, task)`.
//! * [`loadgen`] — the replay harness: drives a generated cell through
//!   [`Client`]s, captures per-connection failures into the report
//!   instead of aborting, and optionally wraps every connection in the
//!   seeded fault-injection plan from [`oc_serve::fault`] (chaos mode).
//! * [`fanin`] — the high fan-in driver: one event-loop thread (via the
//!   vendored `oc-reactor` poller) multiplexing thousands of
//!   connections at a low per-connection rate, the shape of a real
//!   node-agent fleet. Frames are pre-encoded once and tick fields
//!   patched in place; responses are byte-compared. Reports
//!   per-connection setup time separately from steady-state latency.
//! * [`cluster`] — [`ClusterClient`]: one client over an N-process
//!   `oc-cluster` ring. Routes every call to the key's owner via the
//!   shared consistent-hash ring, mirrors ingest to the replica (so a
//!   SIGKILLed member loses nothing), absorbs `ERR not-mine` redirects,
//!   and fails over when a member dies.
//! * [`fleet`] — the fleet driver: replays a synthetic fleet against
//!   every ring member in parallel, folds the per-member reports with
//!   [`LoadReport::merge`], and proves served-vs-offline prediction
//!   identity after failures.
//!
//! # Examples
//!
//! ```
//! use oc_client::{Client, ClientConfig};
//! use oc_serve::{ServeConfig, Server};
//! use oc_trace::ids::{CellId, JobId, TaskId};
//! use oc_trace::MachineId;
//!
//! let server = Server::start(ServeConfig::default().with_shards(2)).unwrap();
//! let mut client = Client::connect(server.addr(), ClientConfig::default()).unwrap();
//! let cell = CellId::new("demo");
//! for tick in 0..30 {
//!     client
//!         .observe(&cell, MachineId(0), TaskId::new(JobId(1), 0), 0.2, 0.5, tick)
//!         .unwrap();
//! }
//! let peak = client.predict(&cell, MachineId(0)).unwrap();
//! assert!(peak > 0.0);
//! drop(client);
//! let stats = server.shutdown();
//! assert_eq!(stats.observes, 30);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod error;
pub mod fanin;
pub mod fleet;
pub mod loadgen;
mod pipe;

pub use client::{Client, ClientConfig, ClientMetrics, RetryPolicy};
pub use cluster::{ClusterClient, ClusterClientConfig, ClusterMetrics};
pub use error::ClientError;
pub use fanin::FaninConfig;
pub use fleet::FleetConfig;
pub use loadgen::{LoadReport, LoadgenConfig};
