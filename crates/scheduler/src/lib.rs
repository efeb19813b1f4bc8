//! Cluster scheduler substrate: predictor-gated admission, placement, and
//! the A/B experiment harness.
//!
//! The paper's contribution plugs into the *first* step of scheduling —
//! estimating each machine's free capacity — and leaves the bin-packing
//! step untouched. This crate provides the surrounding scheduler so that
//! the production evaluation (Section 6) can be reproduced:
//!
//! * [`arrival`] — a deterministic cluster-wide submission stream reusing
//!   the trace substrate's workload models.
//! * [`machine`] — live machines with usage processes, proportional
//!   throttling under contention, node-agent views and on-board
//!   predictors.
//! * [`placement`] — first/best/worst-fit and Borg-style randomized-k
//!   placement.
//! * [`cluster`] — the arrival-driven loop gluing the above together.
//! * [`ab`] — the control-vs-experiment harness behind Figures 13 and 14.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ab;
pub mod arrival;
pub mod cluster;
pub mod error;
pub mod machine;
pub mod placement;

pub use ab::{run_ab, AbConfig, AbOutcome, GroupOutcome};
pub use arrival::{ArrivalStream, TaskRequest};
pub use cluster::{run_cluster, ClusterConfig, ClusterOutcome, ClusterStats, GroupStats};
pub use error::SchedulerError;
pub use machine::{RecordedTask, SimMachine};
pub use placement::PlacementPolicy;
