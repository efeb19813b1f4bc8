//! Deterministic fault injection for socket streams.
//!
//! [`FaultStream`] wraps any `Read`/`Write` transport and perturbs a
//! seeded fraction of operations with one of three faults:
//!
//! * **delay** — sleep a bounded, seeded duration before the operation;
//! * **partial** — serve at most one byte, forcing the caller to loop
//!   (legal per the `Read`/`Write` contracts, but a liveness trap for
//!   code that assumes full transfers);
//! * **drop** — fail the operation with `ConnectionReset` and leave the
//!   stream permanently broken, as if the peer vanished mid-request.
//!
//! The *schedule* is deterministic: which operation index gets which
//! fault follows only from the seed ([`FaultPlan::stream_seed`] gives
//! every wrapped stream its own derived sequence). What those operations
//! carry still depends on timing — socket reads return whatever bytes
//! have arrived — so runs are reproducible in fault mix and rate, not in
//! byte-for-byte interleaving.
//!
//! The server does not inject faults: it reads and writes the accepted
//! socket as is. The wrapper's one user is the `oc-client` crate, which
//! wraps its own sockets for `loadgen --chaos` and the chaos tests.
//! Injected counts are shared through [`FaultCounters`] and surface in
//! the client's load report.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::error::ServeError;

/// Which faults a [`FaultPlan`] may inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultKinds {
    /// Sleep before the operation.
    pub delays: bool,
    /// Serve at most one byte per operation.
    pub partials: bool,
    /// Kill the stream with `ConnectionReset`.
    pub drops: bool,
}

impl Default for FaultKinds {
    fn default() -> Self {
        FaultKinds {
            delays: true,
            partials: true,
            drops: true,
        }
    }
}

/// A seeded fault-injection schedule.
///
/// # Examples
///
/// ```
/// use oc_serve::fault::FaultPlan;
///
/// let plan = FaultPlan::new(42, 0.05); // ~5% of operations faulted
/// plan.validate().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Root seed; every wrapped stream derives its own sub-seed.
    pub seed: u64,
    /// Probability in `[0, 1]` that one read/write call is faulted.
    pub rate: f64,
    /// Upper bound on one injected delay.
    pub max_delay: Duration,
    /// The fault mix.
    pub kinds: FaultKinds,
}

impl FaultPlan {
    /// A plan injecting all three fault kinds at `rate`, with delays up
    /// to 2 ms.
    pub fn new(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            rate,
            max_delay: Duration::from_millis(2),
            kinds: FaultKinds::default(),
        }
    }

    /// Restricts the fault mix.
    pub fn with_kinds(mut self, kinds: FaultKinds) -> FaultPlan {
        self.kinds = kinds;
        self
    }

    /// Sets the upper bound on one injected delay.
    pub fn with_max_delay(mut self, d: Duration) -> FaultPlan {
        self.max_delay = d;
        self
    }

    /// Validates the plan.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] if `rate` is not a probability or
    /// no fault kind is enabled.
    pub fn validate(&self) -> Result<(), ServeError> {
        if !self.rate.is_finite() || !(0.0..=1.0).contains(&self.rate) {
            return Err(ServeError::Config(format!(
                "fault rate {} must be in [0, 1]",
                self.rate
            )));
        }
        if !(self.kinds.delays || self.kinds.partials || self.kinds.drops) {
            return Err(ServeError::Config(
                "fault plan must enable at least one fault kind".into(),
            ));
        }
        Ok(())
    }

    /// Derives the seed for one wrapped stream: `salt` distinguishes
    /// streams (connection id, read vs. write half, reconnect epoch) so
    /// each gets an independent deterministic schedule.
    pub fn stream_seed(&self, salt: u64) -> u64 {
        // SplitMix64-style mix: cheap, and any bit of salt affects the
        // whole output, so consecutive connection ids do not correlate.
        let mut z = self
            .seed
            .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Shared tallies of injected faults, one per server or client.
#[derive(Debug, Default)]
pub struct FaultCounters {
    delayed: AtomicU64,
    partial: AtomicU64,
    dropped: AtomicU64,
}

impl FaultCounters {
    /// Operations delayed.
    pub fn delayed(&self) -> u64 {
        self.delayed.load(Ordering::Relaxed)
    }

    /// Operations truncated to one byte.
    pub fn partial(&self) -> u64 {
        self.partial.load(Ordering::Relaxed)
    }

    /// Streams killed (each drop breaks its stream exactly once; later
    /// failures on the broken stream are not re-counted).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// All injected faults.
    pub fn total(&self) -> u64 {
        self.delayed() + self.partial() + self.dropped()
    }
}

/// The fault chosen for one operation.
enum Fault {
    Delay(Duration),
    Partial,
    Drop,
}

/// A `Read`/`Write` transport with seeded fault injection.
#[derive(Debug)]
pub struct FaultStream<S> {
    inner: S,
    rng: SmallRng,
    plan: FaultPlan,
    counters: Arc<FaultCounters>,
    broken: bool,
}

impl<S> FaultStream<S> {
    /// Wraps `inner` with the schedule derived from `stream_seed`.
    pub fn new(
        inner: S,
        plan: &FaultPlan,
        stream_seed: u64,
        counters: Arc<FaultCounters>,
    ) -> FaultStream<S> {
        FaultStream {
            inner,
            rng: SmallRng::seed_from_u64(stream_seed),
            plan: plan.clone(),
            counters,
            broken: false,
        }
    }

    fn draw(&mut self) -> Option<Fault> {
        if !self.rng.random_bool(self.plan.rate) {
            return None;
        }
        let kinds = self.plan.kinds;
        let enabled: Vec<u8> = [
            (kinds.delays, 0u8),
            (kinds.partials, 1u8),
            (kinds.drops, 2u8),
        ]
        .iter()
        .filter(|(on, _)| *on)
        .map(|&(_, k)| k)
        .collect();
        let pick = enabled[self.rng.random_range(0..enabled.len())];
        Some(match pick {
            0 => {
                let us = self.plan.max_delay.as_micros() as u64;
                let d = if us == 0 {
                    Duration::ZERO
                } else {
                    Duration::from_micros(self.rng.random_range(0..=us))
                };
                Fault::Delay(d)
            }
            1 => Fault::Partial,
            _ => Fault::Drop,
        })
    }

    fn broken_err() -> std::io::Error {
        std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            "injected connection drop",
        )
    }
}

impl<S: Read> Read for FaultStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.broken {
            return Err(Self::broken_err());
        }
        match self.draw() {
            None => self.inner.read(buf),
            Some(Fault::Delay(d)) => {
                self.counters.delayed.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(d);
                self.inner.read(buf)
            }
            Some(Fault::Partial) => {
                self.counters.partial.fetch_add(1, Ordering::Relaxed);
                let cap = buf.len().min(1);
                self.inner.read(&mut buf[..cap])
            }
            Some(Fault::Drop) => {
                self.counters.dropped.fetch_add(1, Ordering::Relaxed);
                self.broken = true;
                Err(Self::broken_err())
            }
        }
    }
}

impl<S: Write> Write for FaultStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.broken {
            return Err(Self::broken_err());
        }
        match self.draw() {
            None => self.inner.write(buf),
            Some(Fault::Delay(d)) => {
                self.counters.delayed.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(d);
                self.inner.write(buf)
            }
            Some(Fault::Partial) => {
                self.counters.partial.fetch_add(1, Ordering::Relaxed);
                let cap = buf.len().min(1);
                self.inner.write(&buf[..cap])
            }
            Some(Fault::Drop) => {
                self.counters.dropped.fetch_add(1, Ordering::Relaxed);
                self.broken = true;
                Err(Self::broken_err())
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.broken {
            return Err(Self::broken_err());
        }
        // Flush is never faulted: the fault surface is the data path, and
        // a faulted flush would double-count drops for one logical write.
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn counters() -> Arc<FaultCounters> {
        Arc::new(FaultCounters::default())
    }

    #[test]
    fn zero_rate_is_transparent() {
        let plan = FaultPlan::new(1, 0.0);
        let c = counters();
        let mut s = FaultStream::new(Cursor::new(b"hello".to_vec()), &plan, 7, Arc::clone(&c));
        let mut buf = [0u8; 5];
        s.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let plan = FaultPlan::new(99, 0.5).with_max_delay(Duration::ZERO);
        let trace = |seed: u64| -> Vec<bool> {
            let mut s = FaultStream::new(Cursor::new(vec![0u8; 4096]), &plan, seed, counters());
            let mut buf = [0u8; 8];
            (0..64).map(|_| s.read(&mut buf).is_err()).collect()
        };
        assert_eq!(trace(3), trace(3));
        assert_ne!(trace(3), trace(4), "different sub-seeds must diverge");
    }

    #[test]
    fn drop_breaks_the_stream_permanently() {
        let plan = FaultPlan::new(5, 1.0).with_kinds(FaultKinds {
            delays: false,
            partials: false,
            drops: true,
        });
        let c = counters();
        let mut s = FaultStream::new(Cursor::new(vec![1u8; 64]), &plan, 0, Arc::clone(&c));
        let mut buf = [0u8; 8];
        assert!(s.read(&mut buf).is_err());
        assert!(s.read(&mut buf).is_err());
        assert!(s.write(&[1, 2, 3]).is_err());
        // The drop is counted once, not per subsequent failure.
        assert_eq!(c.dropped(), 1);
        assert_eq!(c.total(), 1);
    }

    #[test]
    fn partial_faults_serve_one_byte() {
        let plan = FaultPlan::new(5, 1.0).with_kinds(FaultKinds {
            delays: false,
            partials: true,
            drops: false,
        });
        let c = counters();
        let mut s = FaultStream::new(Cursor::new(b"abcdef".to_vec()), &plan, 1, Arc::clone(&c));
        let mut out = Vec::new();
        s.read_to_end(&mut out).unwrap(); // read_to_end loops over partials
        assert_eq!(out, b"abcdef");
        assert!(c.partial() >= 6, "every read should have been truncated");
    }

    #[test]
    fn writes_survive_partial_faults_via_write_all() {
        let plan = FaultPlan::new(8, 1.0).with_kinds(FaultKinds {
            delays: false,
            partials: true,
            drops: false,
        });
        let c = counters();
        let mut s = FaultStream::new(Cursor::new(Vec::new()), &plan, 2, Arc::clone(&c));
        s.write_all(b"OBSERVE a 0 1:0 0.2 0.5 1\n").unwrap();
        assert_eq!(s.inner.get_ref().as_slice(), b"OBSERVE a 0 1:0 0.2 0.5 1\n");
    }

    #[test]
    fn plan_validation() {
        assert!(FaultPlan::new(0, 0.05).validate().is_ok());
        assert!(FaultPlan::new(0, -0.1).validate().is_err());
        assert!(FaultPlan::new(0, 1.5).validate().is_err());
        assert!(FaultPlan::new(0, f64::NAN).validate().is_err());
        let none = FaultPlan::new(0, 0.1).with_kinds(FaultKinds {
            delays: false,
            partials: false,
            drops: false,
        });
        assert!(none.validate().is_err());
    }

    #[test]
    fn rate_roughly_respected() {
        let plan = FaultPlan::new(11, 0.25).with_kinds(FaultKinds {
            delays: false,
            partials: true,
            drops: false,
        });
        let c = counters();
        let mut s = FaultStream::new(Cursor::new(vec![0u8; 1 << 20]), &plan, 0, Arc::clone(&c));
        let mut buf = [0u8; 16];
        for _ in 0..10_000 {
            let _ = s.read(&mut buf).unwrap();
        }
        let rate = c.partial() as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.03, "observed fault rate {rate}");
    }
}
