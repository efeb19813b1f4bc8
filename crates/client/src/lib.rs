//! `oc-client` — a typed, retrying client for the `oc-serve` protocol.
//!
//! `oc-serve` deliberately answers with retryable failures
//! (`ERR timeout` at the idle deadline, `ERR conn-limit` at the
//! connection cap) and may close connections a hand-rolled socket loop
//! would misread as fatal. This crate owns the client-side half of that
//! contract:
//!
//! Every frame the crate sends goes through one engine (`engine.rs`): a
//! lane per connection, each with its pipe of open and on-the-wire
//! frames, served when its socket is readable or a due time (a retry
//! nap, a paced release, a reply deadline) comes up. The three callers
//! are thin policies over it:
//!
//! * [`client`] — [`Client`]: the one-lane engine. Transparent
//!   reconnect, bounded exponential backoff with deterministic (seeded)
//!   jitter, typed request helpers, and a sliding pipelining window for
//!   bulk ingest. Re-sending after an ambiguous failure is safe because
//!   server ingestion is idempotent per `(tick, task)`.
//! * [`loadgen`] — the load driver: one thread drives N lanes, from a
//!   few replaying a generated cell to a 10 000-connection node-agent
//!   fan-in, paced or open. Lost frames are retried on fresh
//!   connections; per-connection failures land in the report instead of
//!   aborting, and every connection can wear the seeded fault-injection
//!   plan from [`oc_serve::fault`] (chaos mode).
//! * [`cluster`] — [`ClusterClient`]: one client over an N-process
//!   `oc-cluster` ring, a lane per member. Every sample takes one path:
//!   routed to the key's owner via the shared consistent-hash ring,
//!   framed and pipelined per member, mirrored to the replica once
//!   acknowledged (so a SIGKILLed member loses nothing). It absorbs
//!   `ERR not-mine` redirects and fails over when a member dies, and a
//!   member that naps or sends no reply never stalls the others.
//! * [`fleet`] — the fleet driver: replays a synthetic fleet through one
//!   [`ClusterClient`] and proves served-vs-offline prediction identity
//!   after failures.
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
mod engine;
pub mod error;
pub mod fleet;
pub mod loadgen;
mod pipe;

pub use client::{Client, ClientConfig, ClientMetrics, RetryPolicy};
pub use cluster::{ClusterClient, ClusterClientConfig, ClusterMetrics};
pub use error::ClientError;
pub use fleet::FleetConfig;
pub use loadgen::{LoadReport, LoadgenConfig, Script};
