//! Service configuration.

use crate::error::ServeError;
use crate::ring::RingSpec;
use oc_core::config::SimConfig;
use oc_core::ingest::DEFAULT_MAX_GAP;
use oc_core::predictor::PredictorSpec;
use std::time::Duration;

/// Default bound on how long a connection may sit without delivering a
/// complete request before the server closes it.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Default per-write deadline: a peer that stops reading for this long is
/// treated as dead so its connection slot can be reclaimed.
pub const DEFAULT_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Default cap on concurrently served connections.
pub const DEFAULT_MAX_CONNECTIONS: usize = 1024;

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
    /// Reactor thread count; `0` sizes the pool automatically from the
    /// host's available parallelism (clamped to `[1, 4]`). These threads
    /// parse, apply and answer; they are the server's only data-plane
    /// threads.
    pub reactor_threads: usize,
    /// This process's place in a cluster ring: the shared spec and its
    /// own ring index. `None` (standalone) owns every key and answers
    /// `RING`/`RINGSET` with `ERR internal`. A `RINGSET` push replaces
    /// the spec online; the index is the member's identity and never
    /// changes.
    pub ring: Option<(RingSpec, usize)>,
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
            reactor_threads: 0,
            ring: None,
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

    /// Sets the reactor thread count (`0` = auto-size from the host).
    pub fn with_reactor_threads(mut self, threads: usize) -> Self {
        self.reactor_threads = threads;
        self
    }

    /// Makes this process member `index` of the ring `spec` describes.
    pub fn with_ring(mut self, spec: RingSpec, index: usize) -> Self {
        self.ring = Some((spec, index));
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
    /// setting or ring slot, and propagates [`SimConfig`]/[`PredictorSpec`]
    /// validation.
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
        if let Some((spec, index)) = &self.ring {
            spec.check().map_err(ServeError::Config)?;
            if *index >= spec.nodes {
                return Err(ServeError::Config(format!(
                    "ring index {index} is outside a {}-node ring",
                    spec.nodes
                )));
            }
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
            .with_ring(RingSpec::new(2), 2)
            .validate()
            .is_err());
        assert!(ServeConfig::default()
            .with_ring(RingSpec::new(0), 0)
            .validate()
            .is_err());
    }
}
