//! Service configuration.

use crate::error::ServeError;
use crate::fault::FaultPlan;
use oc_core::config::SimConfig;
use oc_core::ingest::DEFAULT_MAX_GAP;
use oc_core::predictor::PredictorSpec;
use std::sync::Arc;
use std::time::Duration;

/// Default bound on how long a connection may sit without delivering a
/// complete request before the server closes it.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Default per-write deadline: a peer that stops reading for this long is
/// treated as dead so its connection slot can be reclaimed.
pub const DEFAULT_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Default cap on concurrently served connections.
pub const DEFAULT_MAX_CONNECTIONS: usize = 1024;

/// How a machine key relates to this process under its cluster ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyRole {
    /// This process is the key's primary owner: all verbs accepted.
    Owner,
    /// This process is the key's ring successor: it accepts the mirrored
    /// ingest stream (`OBSERVE`) and serves reads (`PREDICT`/`ADMIT`)
    /// so clients can fail over when the owner dies. Clients should
    /// prefer the owner while it is alive.
    Replica,
    /// Some other process owns the key: every data-plane verb is
    /// answered `ERR not-mine` so a stale client re-resolves the ring.
    Remote,
}

/// Cluster ownership classifier: maps a machine-key hash
/// ([`crate::shard::key_hash`]) to this process's [`KeyRole`] for it.
///
/// A cheap shared closure rather than a concrete ring type so `oc-serve`
/// stays ring-agnostic — `oc-cluster` builds one from its consistent-hash
/// ring; tests can use any partition. `None` in [`ServeConfig`] (the
/// default) means standalone serving: every key is [`KeyRole::Owner`].
#[derive(Clone)]
pub struct OwnershipMap(Arc<dyn Fn(u64) -> KeyRole + Send + Sync>);

impl OwnershipMap {
    /// Wraps a key-hash → role classifier.
    pub fn new(f: impl Fn(u64) -> KeyRole + Send + Sync + 'static) -> OwnershipMap {
        OwnershipMap(Arc::new(f))
    }

    /// The role this process plays for a key hash.
    pub fn role_of(&self, key_hash: u64) -> KeyRole {
        (self.0)(key_hash)
    }
}

impl std::fmt::Debug for OwnershipMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("OwnershipMap(..)")
    }
}

/// Rebuilds this process's [`OwnershipMap`] for a new ring geometry —
/// the hook the online `RINGSET` verb needs so a member can adopt a
/// pushed ring without restarting, while `oc-serve` itself stays
/// ring-agnostic (`oc-cluster` installs a factory that hashes the new
/// spec; the factory closure captures which ring index this process is).
///
/// Called with `(nodes, vnodes, seed)` of the pushed ring. Returns
/// `None` when this process holds no slot under the new geometry (its
/// index is outside `0..nodes`), which makes the member reject the push.
#[derive(Clone)]
pub struct OwnershipFactory(Arc<dyn Fn(usize, usize, u64) -> Option<OwnershipMap> + Send + Sync>);

impl OwnershipFactory {
    /// Wraps a `(nodes, vnodes, seed) -> OwnershipMap` builder.
    pub fn new(
        f: impl Fn(usize, usize, u64) -> Option<OwnershipMap> + Send + Sync + 'static,
    ) -> OwnershipFactory {
        OwnershipFactory(Arc::new(f))
    }

    /// Builds the ownership map for a pushed ring geometry.
    pub fn build(&self, nodes: usize, vnodes: usize, seed: u64) -> Option<OwnershipMap> {
        (self.0)(nodes, vnodes, seed)
    }
}

impl std::fmt::Debug for OwnershipFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("OwnershipFactory(..)")
    }
}

/// Static ring geometry a clustered member reports through the `RING`
/// verb (the generation lives in [`ServeConfig::ring_generation`] and is
/// updated online by `RINGSET`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingInfo {
    /// Ring member count.
    pub nodes: usize,
    /// Virtual nodes per member.
    pub vnodes: usize,
    /// Ring hash seed.
    pub seed: u64,
}

/// Configuration of one [`crate::server::Server`].
///
/// # Examples
///
/// ```
/// use oc_serve::config::ServeConfig;
///
/// let cfg = ServeConfig::default().with_shards(2).with_capacity(1.5);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Number of shards machines are partitioned across: one lock each,
    /// no threads. More shards means less lock contention between
    /// reactor threads.
    pub shards: usize,
    /// Capacity assigned to machines on first observation, in the same
    /// units as usage/limit samples.
    pub machine_capacity: f64,
    /// Node-agent state parameters (warm-up, window sizes, metric).
    pub sim: SimConfig,
    /// The predictor served by `PREDICT`/`ADMIT`.
    pub predictor: PredictorSpec,
    /// Bound on empty ticks synthesized between two samples of a machine.
    pub max_tick_gap: u64,
    /// Close a connection that delivers no complete request for this long.
    /// Bounds the connection slots an idle or stalled peer can pin.
    pub idle_timeout: Duration,
    /// Per-write deadline; a peer that stops reading its responses for
    /// this long is disconnected.
    pub write_timeout: Duration,
    /// Cap on concurrently served connections; excess connects are
    /// answered `ERR conn-limit` and closed (retryable).
    pub max_connections: usize,
    /// Optional seeded fault injection on every accepted connection
    /// (chaos testing). `None` in production.
    pub faults: Option<FaultPlan>,
    /// Reactor thread count; `0` sizes the pool automatically from the
    /// host's available parallelism (clamped to `[1, 4]`). These threads
    /// parse, apply and answer; they are the server's only data-plane
    /// threads.
    pub reactor_threads: usize,
    /// Cluster ownership classifier; `None` (standalone) treats every
    /// key as [`KeyRole::Owner`].
    pub ownership: Option<OwnershipMap>,
    /// Cluster ring generation folded into the server's `epoch` stamp
    /// (see [`crate::proto::pack_epoch`]); bump it when the ring that
    /// produced [`ServeConfig::ownership`] changes. Updated online when
    /// a supervisor pushes `RINGSET`.
    pub ring_generation: u64,
    /// Ring geometry reported by the `RING` verb; `None` (standalone)
    /// makes `RING` answer `ERR internal`.
    pub ring_info: Option<RingInfo>,
    /// Rebuilds [`ServeConfig::ownership`] when a `RINGSET` push changes
    /// the ring geometry. Without a factory, a member with an ownership
    /// map rejects geometry changes (it could not classify keys under
    /// the new ring).
    pub ownership_factory: Option<OwnershipFactory>,
    /// Record every successfully ingested sample in a per-shard handoff
    /// log, dumpable via the `HANDOFF` verb — the state-transfer source
    /// for member replacement. Memory grows with total ingested samples,
    /// so fleet-scale runs (e.g. the million-machine bench) leave it off.
    pub handoff_log: bool,
}

impl Default for ServeConfig {
    /// Ephemeral local port, 4 shards, the paper's simulation predictor
    /// and node-agent parameters.
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: 4,
            machine_capacity: 1.0,
            sim: SimConfig::default(),
            predictor: PredictorSpec::paper_max(),
            max_tick_gap: DEFAULT_MAX_GAP,
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
            write_timeout: DEFAULT_WRITE_TIMEOUT,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            faults: None,
            reactor_threads: 0,
            ownership: None,
            ring_generation: 0,
            ring_info: None,
            ownership_factory: None,
            handoff_log: false,
        }
    }
}

impl ServeConfig {
    /// Sets the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the per-machine capacity.
    pub fn with_capacity(mut self, capacity: f64) -> Self {
        self.machine_capacity = capacity;
        self
    }

    /// Sets the served predictor.
    pub fn with_predictor(mut self, spec: PredictorSpec) -> Self {
        self.predictor = spec;
        self
    }

    /// Sets the node-agent state parameters.
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Sets the idle-connection deadline.
    pub fn with_idle_timeout(mut self, d: Duration) -> Self {
        self.idle_timeout = d;
        self
    }

    /// Sets the per-write deadline.
    pub fn with_write_timeout(mut self, d: Duration) -> Self {
        self.write_timeout = d;
        self
    }

    /// Sets the concurrent-connection cap.
    pub fn with_max_connections(mut self, n: usize) -> Self {
        self.max_connections = n;
        self
    }

    /// Enables seeded fault injection on accepted connections.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sets the reactor thread count (`0` = auto-size from the host).
    pub fn with_reactor_threads(mut self, threads: usize) -> Self {
        self.reactor_threads = threads;
        self
    }

    /// Installs a cluster ownership classifier.
    pub fn with_ownership(mut self, map: OwnershipMap) -> Self {
        self.ownership = Some(map);
        self
    }

    /// Sets the ring generation stamped into the server's `epoch`.
    pub fn with_ring_generation(mut self, generation: u64) -> Self {
        self.ring_generation = generation;
        self
    }

    /// Sets the ring geometry reported by the `RING` verb.
    pub fn with_ring_info(mut self, info: RingInfo) -> Self {
        self.ring_info = Some(info);
        self
    }

    /// Installs the ownership rebuild hook for `RINGSET` pushes.
    pub fn with_ownership_factory(mut self, factory: OwnershipFactory) -> Self {
        self.ownership_factory = Some(factory);
        self
    }

    /// Enables the per-shard handoff sample log (`HANDOFF` verb).
    pub fn with_handoff_log(mut self, enabled: bool) -> Self {
        self.handoff_log = enabled;
        self
    }

    /// The reactor pool size the server will actually run:
    /// `reactor_threads`, or an auto-sized value when it is `0`.
    pub fn effective_reactor_threads(&self) -> usize {
        if self.reactor_threads > 0 {
            self.reactor_threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .clamp(1, 4)
        }
    }

    /// Validates every field.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] for an invalid shard/capacity
    /// setting and propagates [`SimConfig`]/[`PredictorSpec`] validation.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.shards == 0 {
            return Err(ServeError::Config("shards must be >= 1".into()));
        }
        if !self.machine_capacity.is_finite() || self.machine_capacity <= 0.0 {
            return Err(ServeError::Config(format!(
                "machine_capacity {} must be finite and > 0",
                self.machine_capacity
            )));
        }
        if self.idle_timeout.is_zero() {
            return Err(ServeError::Config("idle_timeout must be > 0".into()));
        }
        if self.write_timeout.is_zero() {
            return Err(ServeError::Config("write_timeout must be > 0".into()));
        }
        if self.max_connections == 0 {
            return Err(ServeError::Config("max_connections must be >= 1".into()));
        }
        if let Some(plan) = &self.faults {
            plan.validate()?;
        }
        self.sim.validate()?;
        self.predictor.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        ServeConfig::default().validate().unwrap();
    }

    #[test]
    fn reactor_threads_auto_sizes_when_zero() {
        let auto = ServeConfig::default().effective_reactor_threads();
        assert!((1..=4).contains(&auto));
        assert_eq!(
            ServeConfig::default()
                .with_reactor_threads(7)
                .effective_reactor_threads(),
            7
        );
    }

    #[test]
    fn invalid_settings_are_rejected() {
        assert!(ServeConfig::default().with_shards(0).validate().is_err());
        assert!(ServeConfig::default()
            .with_capacity(f64::NAN)
            .validate()
            .is_err());
        assert!(ServeConfig::default()
            .with_capacity(0.0)
            .validate()
            .is_err());
        assert!(ServeConfig::default()
            .with_predictor(PredictorSpec::NSigma { n: -1.0 })
            .validate()
            .is_err());
        assert!(ServeConfig::default()
            .with_idle_timeout(Duration::ZERO)
            .validate()
            .is_err());
        assert!(ServeConfig::default()
            .with_write_timeout(Duration::ZERO)
            .validate()
            .is_err());
        assert!(ServeConfig::default()
            .with_max_connections(0)
            .validate()
            .is_err());
        assert!(ServeConfig::default()
            .with_faults(FaultPlan::new(1, 2.0))
            .validate()
            .is_err());
        assert!(ServeConfig::default()
            .with_faults(FaultPlan::new(1, 0.05))
            .validate()
            .is_ok());
    }
}
