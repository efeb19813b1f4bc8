//! `oc-serve` — an online peak-prediction service.
//!
//! The rest of the workspace evaluates peak predictors *offline*: a
//! simulator replays a finished trace through a `MachineView` and records
//! what each predictor would have said. This crate turns the same predictor
//! stack into an *online service* of the kind the paper's Borglet/Borgmaster
//! split implies: node agents stream per-task usage samples in, a scheduler
//! asks for per-machine peak predictions and admission checks.
//!
//! Architecture (see `DESIGN.md`, "Online serving"):
//!
//! * [`proto`] — a line-delimited text protocol (`OBSERVE` / `PREDICT` /
//!   `ADMIT` / `STATS` / `METRICS` / `SHUTDOWN`) with a hand-rolled, fully
//!   typed codec; the wire spec is `docs/PROTOCOL.md`.
//! * [`shard`] — machines partitioned across shards, each holding its
//!   machines' [`oc_core::IncrementalView`]s behind one lock. No shard
//!   threads and no queue: the thread that parsed a request applies it,
//!   and an overloaded server gates its senders through TCP.
//! * [`server`] — the TCP front end: a readiness-driven accept loop
//!   feeding the *reactor* (a small fixed pool of event-loop threads
//!   multiplexing every connection over `epoll`/`poll` via the vendored
//!   `oc-reactor` crate). It enforces write/idle deadlines and a
//!   max-connections cap, stays pipelining-friendly (one response line
//!   per request line, in order), and shuts down gracefully: join every
//!   reactor thread, close the shards, return the final snapshot.
//! * [`conn`] — the per-connection protocol machinery the reactor drives:
//!   the [`conn::LineAccumulator`] read state machine, the observe
//!   micro-batcher, and the line dispatch path, all socket-free.
//! * [`ring`] — the seeded consistent-hash ring: a cluster member is a
//!   [`ring::RingSpec`] and its index, and answers `ERR not-mine` for
//!   keys the ring gives it no role for.
//! * [`metrics`] — per-shard counters plus a service-latency histogram
//!   (the log-bucketed [`oc_stats::Histogram`] with exact sum and max),
//!   merged bucket-wise for `STATS` and into the unified registry for
//!   `METRICS`.
//! * [`fault`] — deterministic, seeded fault injection (delayed / partial /
//!   dropped reads and writes) wrapping any connection stream. The server
//!   never wraps its own sockets; `oc-client` wraps its connections with
//!   it to chaos-test the lifecycle paths above.
//!
//! The retrying client and the load generator live in the `oc-client`
//! crate, which depends on this one for the protocol types.
//!
//! Served predictions are bit-identical to the offline simulator's (clamped)
//! predictions on the same sample stream — `tests/serve_smoke.rs` at the
//! workspace root proves it.
//!
//! # Examples
//!
//! ```
//! use oc_serve::{ServeConfig, Server};
//! use std::io::{BufRead, BufReader, Write};
//!
//! let server = Server::start(ServeConfig::default().with_shards(2)).unwrap();
//! let mut conn = std::net::TcpStream::connect(server.addr()).unwrap();
//! conn.write_all(b"OBSERVE cell 0 1:0 0.2 0.5 1\n").unwrap();
//! let mut line = String::new();
//! BufReader::new(conn.try_clone().unwrap())
//!     .read_line(&mut line)
//!     .unwrap();
//! assert_eq!(line.trim_end(), "OK");
//! drop(conn);
//! let stats = server.shutdown();
//! assert_eq!(stats.observes, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod accept;
pub mod config;
pub mod conn;
pub mod error;
pub mod fault;
pub mod metrics;
pub mod proto;
pub(crate) mod reactor;
pub mod ring;
pub mod server;
pub mod shard;

pub use config::ServeConfig;
pub use error::ServeError;
pub use fault::{FaultCounters, FaultKinds, FaultPlan, FaultStream};
pub use proto::{ErrCode, ProtoError, Request, Response, StatsSnapshot};
pub use server::{Server, ShutdownOutcome};
