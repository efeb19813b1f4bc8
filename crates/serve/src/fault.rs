//! Deterministic fault injection for client connections.
//!
//! A [`FaultPlan`] perturbs a seeded fraction of a connection's reads
//! and writes, both drawing from one [`FaultSchedule`], with one of three
//! faults:
//!
//! * **delay** — hold the connection a bounded, seeded duration before
//!   the operation;
//! * **partial** — move at most one byte, forcing the caller to loop
//!   (legal per the `Read`/`Write` contracts, but a liveness trap for
//!   code that assumes full transfers);
//! * **drop** — fail the operation with `ConnectionReset`, as if the peer
//!   vanished mid-request; the connection is discarded.
//!
//! The *schedule* is deterministic: which operation index gets which
//! fault follows only from the seed ([`FaultPlan::stream_seed`] gives
//! every connection its own derived sequence). What those operations
//! carry still depends on timing — socket reads return whatever bytes
//! have arrived — so runs are reproducible in fault mix and rate, not in
//! byte-for-byte interleaving.
//!
//! The server does not inject faults: it reads and writes the accepted
//! socket as is. The plan's one user is the `oc-client` crate, whose
//! connection (`Link`) draws from one schedule per connection for
//! `loadgen --chaos` and the chaos tests, and counts what it injected.
//! A delay is a due time in the client engine's heap: only the delayed
//! connection waits.

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::error::ServeError;

/// Which faults a [`FaultPlan`] may inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultKinds {
    /// Hold the connection before the operation.
    pub delays: bool,
    /// Serve at most one byte per operation.
    pub partials: bool,
    /// Drop the connection with `ConnectionReset`.
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
    /// Root seed; every connection derives its own sub-seed.
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

    /// Derives the seed for one connection's [`FaultSchedule`]: `salt`
    /// distinguishes connections (client seed, reconnect epoch) so each
    /// gets an independent deterministic schedule.
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

/// What a [`FaultSchedule`] does to one read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Go on, moving at most this many bytes: all of them, or one under
    /// an injected partial.
    Go(usize),
    /// Drop the connection, as if the peer reset it.
    Drop,
    /// Hold the connection for this long; the operation has not
    /// happened, and goes on unfaulted when it is tried next.
    Hold(Duration),
}

/// One connection's seeded fault schedule: its reads and writes, in the
/// order they happen, draw their faults from one sequence.
#[derive(Debug)]
pub struct FaultSchedule {
    rng: SmallRng,
    plan: FaultPlan,
    /// The last draw was a hold: the next one is the held operation.
    held: bool,
}

impl FaultSchedule {
    /// The schedule derived from `stream_seed`
    /// (see [`FaultPlan::stream_seed`]).
    pub fn new(plan: &FaultPlan, stream_seed: u64) -> FaultSchedule {
        FaultSchedule {
            rng: SmallRng::seed_from_u64(stream_seed),
            plan: plan.clone(),
            held: false,
        }
    }

    /// Draws the fault of the next read or write of `len` bytes:
    /// `Go(len)` unless one is injected.
    pub fn draw(&mut self, len: usize) -> Fault {
        if std::mem::take(&mut self.held) || !self.rng.random_bool(self.plan.rate) {
            return Fault::Go(len);
        }
        let kinds = self.plan.kinds;
        let mut enabled = [0u8; 3];
        let mut n = 0;
        for (on, k) in [(kinds.delays, 0), (kinds.partials, 1), (kinds.drops, 2)] {
            if on {
                enabled[n] = k;
                n += 1;
            }
        }
        match enabled[self.rng.random_range(0..n)] {
            0 => {
                self.held = true;
                let us = self.plan.max_delay.as_micros() as u64;
                Fault::Hold(if us == 0 {
                    Duration::ZERO
                } else {
                    Duration::from_micros(self.rng.random_range(0..=us))
                })
            }
            1 => Fault::Go(len.min(1)),
            _ => Fault::Drop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn only(delays: bool, partials: bool, drops: bool) -> FaultKinds {
        FaultKinds {
            delays,
            partials,
            drops,
        }
    }

    /// The faults of `ops` draws of `len` bytes from one schedule.
    fn draws(plan: &FaultPlan, seed: u64, len: usize, ops: usize) -> Vec<Fault> {
        let mut schedule = FaultSchedule::new(plan, seed);
        (0..ops).map(|_| schedule.draw(len)).collect()
    }

    #[test]
    fn zero_rate_is_transparent() {
        let plan = FaultPlan::new(1, 0.0);
        assert!(draws(&plan, 7, 5, 1_000).iter().all(|&f| f == Fault::Go(5)));
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let plan = FaultPlan::new(99, 0.5).with_max_delay(Duration::from_micros(50));
        assert_eq!(draws(&plan, 3, 8, 64), draws(&plan, 3, 8, 64));
        assert_ne!(
            draws(&plan, 3, 8, 64),
            draws(&plan, 4, 8, 64),
            "different sub-seeds must diverge"
        );
    }

    /// A partial moves one byte of any operation; the caller loops for
    /// the rest (the client's `Link` tests check that it does).
    #[test]
    fn a_partial_moves_one_byte() {
        let plan = FaultPlan::new(5, 1.0).with_kinds(only(false, true, false));
        assert!(draws(&plan, 0, 64, 100).iter().all(|&f| f == Fault::Go(1)));
    }

    /// A delay is a hold of at most `max_delay`, never a sleep here,
    /// and the held operation goes on when it is tried next.
    #[test]
    fn a_delay_holds_then_the_operation_goes_on() {
        let max = Duration::from_micros(300);
        let plan = FaultPlan::new(5, 1.0)
            .with_kinds(only(true, false, false))
            .with_max_delay(max);
        let all = draws(&plan, 0, 64, 100);
        let (holds, held): (Vec<_>, Vec<_>) = all.chunks(2).map(|d| (d[0], d[1])).unzip();
        assert!(holds
            .iter()
            .all(|f| matches!(f, Fault::Hold(d) if *d <= max)));
        assert!(holds.windows(2).any(|w| w[0] != w[1]), "seeded, not fixed");
        assert!(held.iter().all(|&f| f == Fault::Go(64)));
    }

    /// A connection's reads and writes take their faults from one
    /// schedule: interleaving write-sized draws with read-sized ones
    /// faults the same operation indices as read-sized draws alone
    /// under the same seed.
    #[test]
    fn one_schedule_faults_reads_and_writes() {
        let plan = FaultPlan::new(17, 0.5).with_kinds(only(false, true, false));
        let faulted = |mixed: bool| -> Vec<bool> {
            let mut schedule = FaultSchedule::new(&plan, 3);
            (0..64)
                .map(|op| {
                    let len = if mixed && op % 2 == 1 { 8 } else { 16 };
                    schedule.draw(len) != Fault::Go(len)
                })
                .collect()
        };
        let trace = faulted(true);
        assert_eq!(trace, faulted(false));
        let writes_faulted = trace.iter().skip(1).step_by(2).filter(|&&f| f).count();
        assert!(writes_faulted > 0, "no write was faulted: {trace:?}");
    }

    #[test]
    fn plan_validation() {
        assert!(FaultPlan::new(0, 0.05).validate().is_ok());
        assert!(FaultPlan::new(0, -0.1).validate().is_err());
        assert!(FaultPlan::new(0, 1.5).validate().is_err());
        assert!(FaultPlan::new(0, f64::NAN).validate().is_err());
        let none = FaultPlan::new(0, 0.1).with_kinds(only(false, false, false));
        assert!(none.validate().is_err());
    }

    #[test]
    fn rate_roughly_respected() {
        let plan = FaultPlan::new(11, 0.25).with_kinds(only(false, true, false));
        let faulted = draws(&plan, 0, 16, 10_000)
            .iter()
            .filter(|&&f| f != Fault::Go(16))
            .count();
        let rate = faulted as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.03, "observed fault rate {rate}");
    }
}
