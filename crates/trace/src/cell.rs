//! Cell configurations and per-cell presets.
//!
//! A *cell* is a cluster of machines managed by one scheduler. The paper
//! uses two groups: the public trace's cells `a..h` (Section 5) and five
//! anonymous production cells (Section 3.3 / Table 1). Each preset below
//! encodes the qualitative characteristics the paper reports for that cell
//! (task runtime mix, utilization level, usage variance, size), scaled down
//! by roughly 400× in machine count so that whole experiments run on one
//! workstation — a scale explicitly anticipated by the artifact appendix.

use crate::error::TraceError;
use crate::ids::CellId;
use crate::time::TICKS_PER_DAY;

/// Task runtime model: a two-component lognormal mixture with a hard cap.
///
/// `short_frac` of tasks come from the "short" component; the remainder
/// from the heavy "long" component. This reproduces the Figure 7(a) shape —
/// most tasks finish within hours, a cell-dependent tail runs for days.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeModel {
    /// Fraction of tasks drawn from the short component.
    pub short_frac: f64,
    /// Median runtime of the short component, hours.
    pub short_median_hours: f64,
    /// Log-space sigma of the short component.
    pub short_sigma: f64,
    /// Median runtime of the long component, hours.
    pub long_median_hours: f64,
    /// Log-space sigma of the long component.
    pub long_sigma: f64,
    /// Hard cap on runtime, hours (tasks also end at the trace horizon).
    pub max_hours: f64,
}

/// Task limit model: lognormal, clamped to `[min, max]`, in normalized
/// machine-capacity units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LimitModel {
    /// Log-space mean of the CPU limit.
    pub log_mean: f64,
    /// Log-space sigma of the CPU limit.
    pub log_sigma: f64,
    /// Smallest allowed limit.
    pub min: f64,
    /// Largest allowed limit.
    pub max: f64,
}

/// Per-task usage process parameters.
///
/// Each task's instantaneous usage is
/// `limit · clamp(base + diurnal + OU + spike, floor, 1)` where `base` is a
/// per-task Beta draw, `diurnal` a sinusoid with per-job phase, `OU` an
/// Ornstein-Uhlenbeck noise term and `spike` an occasional excursion toward
/// the limit. Subsample jitter within a tick provides the within-window
/// distribution that trace v3 reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsageModel {
    /// Beta `alpha` for the per-task mean utilization fraction.
    pub util_alpha: f64,
    /// Beta `beta` for the per-task mean utilization fraction.
    pub util_beta: f64,
    /// Scale of the mean utilization: base = lo + draw · (hi − lo). The
    /// draw is made once per *job* — sibling tasks behind one load
    /// balancer run at similar utilization, and because siblings cluster
    /// on machines this is the main source of machine-level heterogeneity
    /// (some machines host hot mixes, most host cool ones).
    pub util_range: (f64, f64),
    /// σ of the per-task jitter around the job's base utilization.
    pub util_task_jitter: f64,
    /// Diurnal amplitude range for serving tasks (uniform per task).
    pub diurnal_amp: (f64, f64),
    /// σ of per-job phase jitter around the cell's diurnal phase, in day
    /// fractions. End-user traffic drives every serving job of a cell
    /// roughly in phase; this jitter is what keeps jobs from being
    /// perfectly synchronized.
    pub diurnal_phase_jitter: f64,
    /// Multiplier on the diurnal amplitude for batch (class 0–1) tasks,
    /// which do not follow end-user traffic.
    pub batch_diurnal_scale: f64,
    /// Per-window probability that a *job-level* spike starts: all sibling
    /// tasks of the job surge together (a load balancer shifting traffic),
    /// which is what produces machine-level co-peaks.
    pub job_spike_prob: f64,
    /// Usage level during a job spike, as a fraction of limit.
    pub job_spike_level: f64,
    /// Length of a job-spike window in ticks.
    pub job_spike_ticks: u64,
    /// OU mean-reversion rate per tick.
    pub ou_theta: f64,
    /// OU stationary std range (uniform per task), as a fraction of limit.
    pub ou_sigma: (f64, f64),
    /// Per-tick probability a spike starts.
    pub spike_prob: f64,
    /// Mean spike duration in ticks (geometric).
    pub spike_mean_ticks: f64,
    /// Usage level during a spike, as a fraction of limit.
    pub spike_level: f64,
    /// Weight of the shared per-job factor in `[0, 1]` (pooling-effect
    /// knob: higher couples tasks of one job more tightly).
    pub job_coupling: f64,
    /// Within-tick subsample jitter std, as a fraction of limit.
    pub subsample_sigma: f64,
    /// Ramp-up ticks over which a fresh task reaches its base usage.
    pub warmup_ticks: u64,
}

/// Full configuration of one simulated cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellConfig {
    /// Cell name.
    pub id: CellId,
    /// Master seed; every machine derives its own stream from this.
    pub seed: u64,
    /// Base phase of the cell's diurnal load, in day fractions. Serving
    /// jobs draw their phase near this value (see
    /// [`UsageModel::diurnal_phase_jitter`]).
    pub diurnal_phase: f64,
    /// Number of machines.
    pub machines: usize,
    /// Per-machine CPU capacity in normalized units.
    pub capacity: f64,
    /// Simulated length in ticks.
    pub duration_ticks: u64,
    /// Per-machine target of `Σ limits / capacity`, drawn uniformly.
    pub target_limit_ratio: (f64, f64),
    /// Base per-tick probability of admitting a replacement task when the
    /// machine is below its target.
    pub refill_prob: f64,
    /// Diurnal amplitude of the admission probability in `[0, 1)`.
    pub arrival_diurnal_amp: f64,
    /// Maximum tasks admitted to one machine in one tick.
    pub max_arrivals_per_tick: u32,
    /// Runtime distribution.
    pub runtime: RuntimeModel,
    /// Limit distribution.
    pub limits: LimitModel,
    /// Usage process parameters.
    pub usage: UsageModel,
    /// Fraction of tasks in latency-sensitive classes 2–3.
    pub serving_fraction: f64,
    /// Tasks per job range (uniform, inclusive).
    pub tasks_per_job: (u32, u32),
}

impl CellConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), TraceError> {
        let fail = |what: &str| {
            Err(TraceError::InvalidConfig {
                what: format!("cell {}: {what}", self.id),
            })
        };
        if self.machines == 0 {
            return fail("machines must be > 0");
        }
        if !(self.capacity > 0.0) {
            return fail("capacity must be > 0");
        }
        if self.duration_ticks == 0 {
            return fail("duration must be > 0 ticks");
        }
        if self.target_limit_ratio.0 > self.target_limit_ratio.1 || self.target_limit_ratio.0 <= 0.0
        {
            return fail("target limit ratio range must be positive and ordered");
        }
        if !(0.0..=1.0).contains(&self.refill_prob) {
            return fail("refill probability must be in [0, 1]");
        }
        if !(0.0..1.0).contains(&self.arrival_diurnal_amp) {
            return fail("arrival diurnal amplitude must be in [0, 1)");
        }
        if self.max_arrivals_per_tick == 0 {
            return fail("max arrivals per tick must be > 0");
        }
        if !(0.0..=1.0).contains(&self.runtime.short_frac) {
            return fail("runtime short fraction must be in [0, 1]");
        }
        if self.limits.min <= 0.0 || self.limits.min > self.limits.max {
            return fail("limit bounds must satisfy 0 < min <= max");
        }
        if self.limits.max > self.capacity {
            return fail("limit max must not exceed machine capacity");
        }
        if !(0.0..=1.0).contains(&self.serving_fraction) {
            return fail("serving fraction must be in [0, 1]");
        }
        if self.tasks_per_job.0 == 0 || self.tasks_per_job.0 > self.tasks_per_job.1 {
            return fail("tasks per job range must be positive and ordered");
        }
        let u = &self.usage;
        if u.util_alpha <= 0.0 || u.util_beta <= 0.0 {
            return fail("utilization Beta parameters must be positive");
        }
        if !(0.0 < u.util_range.0 && u.util_range.0 <= u.util_range.1 && u.util_range.1 < 1.0) {
            return fail("utilization range must satisfy 0 < lo <= hi < 1");
        }
        if u.util_task_jitter < 0.0 {
            return fail("per-task utilization jitter must be non-negative");
        }
        if !(0.0..=1.0).contains(&u.job_coupling) {
            return fail("job coupling must be in [0, 1]");
        }
        if !(0.0..=1.0).contains(&u.spike_prob) {
            return fail("spike probability must be in [0, 1]");
        }
        if u.spike_level <= 0.0 || u.spike_level > 1.0 {
            return fail("spike level must be in (0, 1]");
        }
        if !(0.0..=1.0).contains(&u.job_spike_prob) {
            return fail("job spike probability must be in [0, 1]");
        }
        if u.job_spike_level <= 0.0 || u.job_spike_level > 1.0 {
            return fail("job spike level must be in (0, 1]");
        }
        if u.job_spike_ticks == 0 {
            return fail("job spike window must be > 0 ticks");
        }
        if u.diurnal_phase_jitter < 0.0 {
            return fail("diurnal phase jitter must be non-negative");
        }
        if !(0.0..=1.0).contains(&u.batch_diurnal_scale) {
            return fail("batch diurnal scale must be in [0, 1]");
        }
        Ok(())
    }

    /// The baseline preset every cell preset is derived from.
    fn base(id: &str, seed: u64, machines: usize, duration_ticks: u64) -> CellConfig {
        CellConfig {
            id: CellId::new(id),
            seed,
            diurnal_phase: 0.25,
            machines,
            capacity: 1.0,
            duration_ticks,
            target_limit_ratio: (0.85, 1.10),
            refill_prob: 0.55,
            arrival_diurnal_amp: 0.35,
            max_arrivals_per_tick: 3,
            runtime: RuntimeModel {
                short_frac: 0.80,
                short_median_hours: 2.0,
                short_sigma: 1.0,
                long_median_hours: 30.0,
                long_sigma: 0.8,
                max_hours: 7.0 * 24.0,
            },
            limits: LimitModel {
                log_mean: (0.06f64).ln(),
                log_sigma: 0.7,
                min: 0.01,
                max: 0.35,
            },
            usage: UsageModel {
                util_alpha: 1.8,
                util_beta: 2.9,
                util_range: (0.15, 0.85),
                util_task_jitter: 0.04,
                diurnal_amp: (0.10, 0.35),
                diurnal_phase_jitter: 0.03,
                batch_diurnal_scale: 0.3,
                ou_theta: 0.15,
                ou_sigma: (0.03, 0.10),
                spike_prob: 0.003,
                spike_mean_ticks: 3.0,
                spike_level: 1.0,
                job_spike_prob: 0.01,
                job_spike_level: 0.95,
                job_spike_ticks: 12,
                job_coupling: 0.35,
                subsample_sigma: 0.04,
                warmup_ticks: 6,
            },
            serving_fraction: 0.75,
            tasks_per_job: (2, 16),
        }
    }

    /// Builds the preset for one of the paper's cells.
    ///
    /// Machine counts are scaled down ≈400× from the paper's; each preset
    /// perturbs the baseline along the axes the paper highlights for that
    /// cell.
    pub fn preset(which: CellPreset) -> CellConfig {
        let week = 7 * TICKS_PER_DAY;
        let month = 30 * TICKS_PER_DAY;
        match which {
            // Trace cells (Section 5). Durations default to one week, the
            // granularity of the paper's per-week evaluation.
            CellPreset::A => {
                // The workhorse cell for most figures: large, mixed.
                CellConfig::base("a", 0xA0001, 100, week)
            }
            CellPreset::B => {
                // Lowest per-machine utilization variance (Fig. 11 text):
                // calm usage, weak diurnal swings.
                let mut c = CellConfig::base("b", 0xB0002, 40, week);
                c.usage.ou_sigma = (0.01, 0.03);
                c.usage.diurnal_amp = (0.02, 0.06);
                c.usage.spike_prob = 0.001;
                c
            }
            CellPreset::C => {
                // 98 % of tasks shorter than 24 h (Fig. 7a).
                let mut c = CellConfig::base("c", 0xC0003, 40, week);
                c.runtime.short_frac = 0.92;
                c.runtime.short_median_hours = 1.0;
                c.runtime.long_median_hours = 12.0;
                c.runtime.long_sigma = 0.6;
                c
            }
            CellPreset::D => {
                let mut c = CellConfig::base("d", 0xD0004, 40, week);
                c.runtime.short_frac = 0.85;
                c.usage.util_range = (0.20, 0.82);
                c
            }
            CellPreset::E => {
                let mut c = CellConfig::base("e", 0xE0005, 30, week);
                c.usage.diurnal_amp = (0.10, 0.25);
                c
            }
            CellPreset::F => {
                let mut c = CellConfig::base("f", 0xF0006, 35, week);
                c.target_limit_ratio = (0.90, 1.15);
                c
            }
            CellPreset::G => {
                // Long-running tail: only ~75 % of tasks under 24 h.
                let mut c = CellConfig::base("g", 0x70007, 35, week);
                c.runtime.short_frac = 0.55;
                c.runtime.short_median_hours = 4.0;
                c.runtime.long_median_hours = 48.0;
                c
            }
            CellPreset::H => {
                let mut c = CellConfig::base("h", 0x80008, 30, week);
                c.usage.ou_sigma = (0.05, 0.13);
                c.usage.spike_prob = 0.005;
                c
            }
            // Production cells (Section 3.3, Table 1), one simulated month.
            CellPreset::Prod1 => {
                // Largest cell, low utilization (Fig. 3c), middling QoS.
                let mut c = CellConfig::base("prod1", 0x9101, 100, month);
                c.runtime.short_frac = 0.55;
                c.runtime.long_median_hours = 72.0;
                c.runtime.max_hours = 30.0 * 24.0;
                c.target_limit_ratio = (0.80, 1.05);
                c.usage.util_range = (0.12, 0.78);
                c.usage.diurnal_amp = (0.15, 0.40);
                c.usage.job_spike_prob = 0.03;
                c.usage.job_spike_level = 0.97;
                c
            }
            CellPreset::Prod2 => {
                // High utilization, best QoS: calm usage.
                let mut c = CellConfig::base("prod2", 0x9102, 28, month);
                c.runtime.short_frac = 0.60;
                c.runtime.long_median_hours = 72.0;
                c.runtime.max_hours = 30.0 * 24.0;
                c.target_limit_ratio = (1.00, 1.20);
                c.usage.util_range = (0.38, 0.90);
                c.usage.ou_sigma = (0.02, 0.05);
                c.usage.spike_prob = 0.002;
                c.usage.diurnal_amp = (0.05, 0.15);
                c.usage.job_spike_prob = 0.005;
                c
            }
            CellPreset::Prod3 => {
                let mut c = CellConfig::base("prod3", 0x9103, 26, month);
                c.runtime.short_frac = 0.60;
                c.runtime.long_median_hours = 72.0;
                c.runtime.max_hours = 30.0 * 24.0;
                c.target_limit_ratio = (1.00, 1.20);
                c.usage.util_range = (0.38, 0.90);
                c.usage.ou_sigma = (0.02, 0.06);
                c.usage.spike_prob = 0.002;
                c.usage.diurnal_amp = (0.05, 0.15);
                c.usage.job_spike_prob = 0.005;
                c
            }
            CellPreset::Prod4 => {
                // Many short tasks (81 M/month in the paper), higher
                // utilization than prod1 but noisier.
                let mut c = CellConfig::base("prod4", 0x9104, 28, month);
                c.runtime.short_frac = 0.92;
                c.runtime.short_median_hours = 1.5;
                c.runtime.long_median_hours = 48.0;
                c.target_limit_ratio = (0.95, 1.20);
                c.usage.util_range = (0.28, 0.87);
                c.usage.ou_sigma = (0.05, 0.12);
                c.usage.job_spike_prob = 0.04;
                c
            }
            CellPreset::Prod5 => {
                // Smallest and noisiest: worst violation rate and QoS.
                let mut c = CellConfig::base("prod5", 0x9105, 10, month);
                c.runtime.short_frac = 0.50;
                c.runtime.long_median_hours = 96.0;
                c.runtime.max_hours = 30.0 * 24.0;
                c.usage.util_range = (0.32, 0.90);
                c.usage.ou_sigma = (0.08, 0.16);
                c.usage.spike_prob = 0.008;
                c.usage.job_spike_prob = 0.04;
                c.target_limit_ratio = (1.00, 1.30);
                c
            }
        }
    }

    /// All eight trace-cell presets `a..h`, in order.
    pub fn trace_cells() -> Vec<CellConfig> {
        use CellPreset::*;
        [A, B, C, D, E, F, G, H]
            .into_iter()
            .map(CellConfig::preset)
            .collect()
    }

    /// All five production-cell presets, in order.
    pub fn production_cells() -> Vec<CellConfig> {
        use CellPreset::*;
        [Prod1, Prod2, Prod3, Prod4, Prod5]
            .into_iter()
            .map(CellConfig::preset)
            .collect()
    }

    /// Returns a copy simulating `weeks` weeks instead of the preset length.
    pub fn with_weeks(mut self, weeks: u64) -> CellConfig {
        self.duration_ticks = weeks * 7 * TICKS_PER_DAY;
        self
    }

    /// Returns a copy with a different machine count.
    pub fn with_machines(mut self, machines: usize) -> CellConfig {
        self.machines = machines;
        self
    }

    /// Returns a copy with a different master seed.
    pub fn with_seed(mut self, seed: u64) -> CellConfig {
        self.seed = seed;
        self
    }
}

/// The named cell presets from the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellPreset {
    /// Trace cell `a` — the default evaluation cell.
    A,
    /// Trace cell `b` — lowest usage variance.
    B,
    /// Trace cell `c` — almost entirely short tasks.
    C,
    /// Trace cell `d`.
    D,
    /// Trace cell `e`.
    E,
    /// Trace cell `f`.
    F,
    /// Trace cell `g` — heaviest long-task tail.
    G,
    /// Trace cell `h`.
    H,
    /// Production cell 1 (largest, lowest utilization).
    Prod1,
    /// Production cell 2 (high utilization, calm).
    Prod2,
    /// Production cell 3 (high utilization, calm).
    Prod3,
    /// Production cell 4 (many short tasks).
    Prod4,
    /// Production cell 5 (small, noisy).
    Prod5,
}

impl CellPreset {
    /// Parses a preset name (`"a"`..`"h"`, `"prod1"`..`"prod5"`).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidConfig`] for unknown names.
    pub fn from_name(name: &str) -> Result<CellPreset, TraceError> {
        use CellPreset::*;
        Ok(match name {
            "a" => A,
            "b" => B,
            "c" => C,
            "d" => D,
            "e" => E,
            "f" => F,
            "g" => G,
            "h" => H,
            "prod1" => Prod1,
            "prod2" => Prod2,
            "prod3" => Prod3,
            "prod4" => Prod4,
            "prod5" => Prod5,
            other => {
                return Err(TraceError::InvalidConfig {
                    what: format!("unknown cell preset '{other}'"),
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_validate() {
        for c in CellConfig::trace_cells()
            .into_iter()
            .chain(CellConfig::production_cells())
        {
            c.validate().unwrap_or_else(|e| panic!("{}: {e}", c.id));
        }
    }

    #[test]
    fn preset_names_roundtrip() {
        for name in ["a", "b", "c", "d", "e", "f", "g", "h", "prod1", "prod5"] {
            let p = CellPreset::from_name(name).unwrap();
            assert_eq!(CellConfig::preset(p).id.name(), name);
        }
        assert!(CellPreset::from_name("zzz").is_err());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = CellConfig::preset(CellPreset::A);
        c.machines = 0;
        assert!(c.validate().is_err());

        let mut c = CellConfig::preset(CellPreset::A);
        c.limits.max = 2.0; // Above capacity.
        assert!(c.validate().is_err());

        let mut c = CellConfig::preset(CellPreset::A);
        c.usage.util_range = (0.9, 0.5);
        assert!(c.validate().is_err());

        let mut c = CellConfig::preset(CellPreset::A);
        c.refill_prob = 1.5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn builders_modify_copies() {
        let c = CellConfig::preset(CellPreset::A)
            .with_weeks(4)
            .with_machines(7)
            .with_seed(99);
        assert_eq!(c.duration_ticks, 4 * 7 * TICKS_PER_DAY);
        assert_eq!(c.machines, 7);
        assert_eq!(c.seed, 99);
    }

    #[test]
    fn cell_heterogeneity_is_encoded() {
        let c = CellConfig::preset(CellPreset::C);
        let g = CellConfig::preset(CellPreset::G);
        assert!(c.runtime.short_frac > g.runtime.short_frac);
        let b = CellConfig::preset(CellPreset::B);
        let a = CellConfig::preset(CellPreset::A);
        assert!(b.usage.ou_sigma.1 < a.usage.ou_sigma.1);
    }
}
