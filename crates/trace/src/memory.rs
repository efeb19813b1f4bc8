//! Deterministic per-task memory usage, derived from the CPU series.
//!
//! Trace v3 reports memory alongside CPU, and every task spec here already
//! carries a `memory_limit` drawn by the generator. Rather than storing a
//! second full [`crate::UsageSample`] series per task — which would double
//! trace memory and, worse, perturb the generator's RNG stream (breaking
//! the bit-exact goldens every downstream test pins) — the memory series
//! is a *pure function* of `(task spec, tick, CPU usage)`:
//!
//! * a per-task **resident floor** (heaps and caches do not drain when
//!   traffic does),
//! * a **CPU-coupled** component (serving more requests allocates more),
//!   which is what makes the generated CPU/memory series correlated,
//! * slow deterministic **drift** from hashing `(task seed, hour)`, so
//!   memory wanders on a much longer timescale than CPU noise.
//!
//! Zero RNG draws are consumed: the derivation uses the same
//! [`splitmix`]-hash technique as the generator's job-spike windows, so
//! every existing preset gains a correlated memory lane for free and all
//! CPU-lane goldens stay bit-identical.

use crate::gen::usage::splitmix;
use crate::task::TaskSpec;
use crate::time::Tick;

/// Parameters of the derived memory-usage model.
///
/// All components are expressed as fractions of the task's `memory_limit`;
/// the output is capped to the limit just as Borg's machine-level
/// enforcement caps CPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryModel {
    /// Resident floor as a fraction of the memory limit.
    pub floor: f64,
    /// Weight of the CPU utilization fraction (usage / CPU limit) in the
    /// memory utilization — the CPU↔memory correlation knob.
    pub cpu_coupling: f64,
    /// Amplitude of the slow deterministic drift term.
    pub drift: f64,
}

/// Hours per drift window: the hashed drift term re-draws once per hour
/// of trace time (12 five-minute ticks).
const DRIFT_WINDOW_TICKS: u64 = 12;

impl Default for MemoryModel {
    /// The model used by every cell preset: ~35 % resident floor, about
    /// half of the CPU swing reflected into memory, ±8 % slow drift.
    fn default() -> MemoryModel {
        MemoryModel {
            floor: 0.35,
            cpu_coupling: 0.45,
            drift: 0.08,
        }
    }
}

/// Maps a hash to a uniform value in `[0, 1)`, same construction as the
/// generator's job-spike draw.
fn unit_hash(x: u64) -> f64 {
    (splitmix(x) >> 11) as f64 / (1u64 << 53) as f64
}

impl MemoryModel {
    /// Memory usage (in normalized machine-capacity units) of `spec` at
    /// tick `t`, given the task's CPU usage at that tick.
    ///
    /// Deterministic in its arguments — two calls always agree — and
    /// consumes no randomness, so deriving memory lanes cannot perturb
    /// generator streams or goldens. Returns `0.0` for tasks with no
    /// memory limit (e.g. synthetic scheduler placeholders).
    pub fn usage(&self, spec: &TaskSpec, t: Tick, cpu_usage: f64) -> f64 {
        self.usage_raw(
            spec.id.job.0,
            spec.id.index,
            spec.limit,
            spec.memory_limit,
            t,
            cpu_usage,
        )
    }

    /// [`usage`](MemoryModel::usage) without a [`TaskSpec`]: the model only
    /// reads task identity and limits, so callers that track tasks outside
    /// trace form (the live scheduler's machines) can derive the same
    /// series from parts.
    pub fn usage_raw(
        &self,
        job: u64,
        index: u32,
        limit: f64,
        memory_limit: f64,
        t: Tick,
        cpu_usage: f64,
    ) -> f64 {
        if !(memory_limit > 0.0) {
            return 0.0;
        }
        let cpu_util = if limit > 0.0 {
            (cpu_usage / limit).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let seed = splitmix(job ^ 0x4D45_4D5F_5553_4147) ^ u64::from(index);
        let window = t.index() / DRIFT_WINDOW_TICKS;
        let drift = (unit_hash(seed ^ splitmix(window)) - 0.5) * 2.0 * self.drift;
        let util = (self.floor + self.cpu_coupling * cpu_util + drift).clamp(0.0, 1.0);
        util * memory_limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{JobId, TaskId};
    use crate::task::SchedulingClass;

    fn spec(job: u64, index: u32, limit: f64, mem_limit: f64) -> TaskSpec {
        TaskSpec {
            id: TaskId::new(JobId(job), index),
            limit,
            memory_limit: mem_limit,
            start: Tick(0),
            end: Tick(1000),
            class: SchedulingClass::Class2,
            priority: 200,
        }
    }

    #[test]
    fn deterministic_and_capped() {
        let m = MemoryModel::default();
        let s = spec(7, 2, 0.4, 0.1);
        for t in 0..500 {
            let a = m.usage(&s, Tick(t), 0.2);
            let b = m.usage(&s, Tick(t), 0.2);
            assert_eq!(a.to_bits(), b.to_bits());
            assert!((0.0..=0.1 + 1e-12).contains(&a), "mem {a} out of range");
        }
    }

    #[test]
    fn correlated_with_cpu() {
        let m = MemoryModel::default();
        let s = spec(3, 0, 1.0, 0.2);
        let low = m.usage(&s, Tick(10), 0.1);
        let high = m.usage(&s, Tick(10), 0.9);
        assert!(high > low, "memory must rise with CPU: {low} vs {high}");
    }

    #[test]
    fn drift_varies_slowly() {
        let m = MemoryModel::default();
        let s = spec(11, 1, 1.0, 0.2);
        // Within one drift window memory at fixed CPU is constant...
        let a = m.usage(&s, Tick(0), 0.5);
        let b = m.usage(&s, Tick(DRIFT_WINDOW_TICKS - 1), 0.5);
        assert_eq!(a.to_bits(), b.to_bits());
        // ...and across many windows it actually moves.
        let later: Vec<u64> = (0..20)
            .map(|w| m.usage(&s, Tick(w * DRIFT_WINDOW_TICKS), 0.5).to_bits())
            .collect();
        assert!(later.iter().any(|&x| x != later[0]), "drift never moved");
    }

    #[test]
    fn zero_memory_limit_yields_zero() {
        let m = MemoryModel::default();
        let s = spec(1, 0, 0.5, 0.0);
        assert_eq!(m.usage(&s, Tick(3), 0.4), 0.0);
    }
}
