//! Per-task stochastic usage processes.
//!
//! Each task's instantaneous usage is built from four components, mirroring
//! what the paper reports about production workloads:
//!
//! * a per-task **base** utilization fraction well below 1 (the
//!   usage-to-limit gap / relative slack),
//! * a **diurnal** sinusoid whose phase is shared across tasks of one job
//!   (the load balancer drives sibling tasks together → intra-job
//!   correlation, the reason the pooling effect is *statistical*, not
//!   total),
//! * an **Ornstein-Uhlenbeck** (discrete AR(1)) noise term,
//! * rare **spikes** toward the limit ("a task that sometimes, e.g. 5 % of
//!   time, reaches its limit, but usually operates at much lower
//!   utilization" — the exact behaviour peak predictors must survive).
//!
//! Within each 5-minute tick the process emits [`SUBSAMPLES_PER_TICK`]
//! jittered instantaneous points, giving every tick a usage *distribution*
//! like trace v3's within-window CPU histogram.

use crate::cell::UsageModel;
use crate::gen::dist;
use crate::time::{Tick, SUBSAMPLES_PER_TICK};
use rand::Rng;

/// Lowest utilization fraction a live task can report (idle overhead).
const UTIL_FLOOR: f64 = 0.01;

/// State of one task's usage process.
#[derive(Debug, Clone)]
pub struct UsageProcess {
    limit: f64,
    base: f64,
    diurnal_amp: f64,
    phase: f64,
    ou_decay: f64,
    ou_innov_std: f64,
    ou_state: f64,
    spike_prob: f64,
    spike_mean_ticks: f64,
    spike_level: f64,
    spike_remaining: u64,
    job_spike_prob: f64,
    job_spike_level: f64,
    job_spike_ticks: u64,
    coupling: f64,
    subsample_sigma: f64,
    warmup_ticks: u64,
    age_ticks: u64,
    job_seed: u64,
    /// The job factor's two sinusoids as `(period in ticks, phase)`, hashed
    /// from `job_seed` once at construction.
    job_waves: [(f64, f64); 2],
}

impl UsageProcess {
    /// Draws a fresh process for a task with the given `limit`, coupling it
    /// to `job_seed`/`job_phase`/`job_base` (shared by sibling tasks of the
    /// same job — see [`draw_job_base`]). Batch tasks (`serving == false`)
    /// carry a damped diurnal component and no job spikes — they do not
    /// follow end-user traffic.
    pub fn sample_new<R: Rng + ?Sized>(
        rng: &mut R,
        model: &UsageModel,
        limit: f64,
        job_seed: u64,
        job_phase: f64,
        serving: bool,
        job_base: f64,
    ) -> UsageProcess {
        let base = (job_base + dist::normal(rng, 0.0, model.util_task_jitter))
            .clamp(0.05, model.util_range.1.max(0.05));
        let amp_scale = if serving {
            1.0
        } else {
            model.batch_diurnal_scale
        };
        let diurnal_amp = amp_scale * dist::uniform(rng, model.diurnal_amp.0, model.diurnal_amp.1);
        let ou_sigma = dist::uniform(rng, model.ou_sigma.0, model.ou_sigma.1);
        let theta = model.ou_theta.clamp(0.01, 1.0);
        let decay = 1.0 - theta;
        // Innovation std giving the requested stationary std for AR(1).
        let innov_std = ou_sigma * (1.0 - decay * decay).sqrt();
        // Small per-task phase jitter on top of the shared job phase keeps
        // siblings correlated but not identical.
        let phase = job_phase + dist::normal(rng, 0.0, 0.02);
        UsageProcess {
            limit,
            base,
            diurnal_amp,
            phase,
            ou_decay: decay,
            ou_innov_std: innov_std,
            ou_state: dist::normal(rng, 0.0, ou_sigma),
            spike_prob: model.spike_prob,
            spike_mean_ticks: model.spike_mean_ticks.max(1.0),
            spike_level: model.spike_level,
            spike_remaining: 0,
            job_spike_prob: if serving { model.job_spike_prob } else { 0.0 },
            job_spike_level: model.job_spike_level,
            job_spike_ticks: model.job_spike_ticks.max(1),
            coupling: model.job_coupling,
            subsample_sigma: model.subsample_sigma,
            warmup_ticks: model.warmup_ticks,
            age_ticks: 0,
            job_seed,
            job_waves: job_waves(job_seed),
        }
    }

    /// The task's CPU limit.
    pub fn limit(&self) -> f64 {
        self.limit
    }

    /// Deterministic slowly-varying shared factor for a job: two
    /// incommensurate sinusoids whose periods and phases [`job_waves`]
    /// hashes from the job seed. Sibling tasks (same `job_seed`) see the
    /// same factor at the same tick, with no shared mutable state.
    fn job_factor(&self, t: Tick) -> f64 {
        let [(p1, phase1), (p2, phase2)] = self.job_waves;
        let x = t.index() as f64;
        0.5 * (std::f64::consts::TAU * (x / p1 + phase1)).sin()
            + 0.5 * (std::f64::consts::TAU * (x / p2 + phase2)).sin()
    }

    /// Whether a job-level spike covers tick `t`. Deterministic in
    /// `(job_seed, t)`: sibling tasks of a job surge in the *same* windows
    /// without any shared mutable state — the mechanism behind machine-
    /// level co-peaks.
    fn job_spike_active(&self, t: Tick) -> bool {
        if self.job_spike_prob <= 0.0 {
            return false;
        }
        let w = t.index() / self.job_spike_ticks;
        let h = splitmix(self.job_seed ^ splitmix(0x10B5_91CE ^ w));
        let uniform = (h >> 11) as f64 / (1u64 << 53) as f64;
        uniform < self.job_spike_prob
    }

    /// Advances the process one tick and writes the within-tick
    /// instantaneous usage (already capped at the limit) into `out`.
    pub fn tick<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        t: Tick,
        out: &mut [f64; SUBSAMPLES_PER_TICK],
    ) {
        // AR(1) update.
        self.ou_state = self.ou_decay * self.ou_state + dist::normal(rng, 0.0, self.ou_innov_std);

        // Spike bookkeeping.
        if self.spike_remaining > 0 {
            self.spike_remaining -= 1;
        } else if rng.random::<f64>() < self.spike_prob {
            // Geometric duration with the configured mean.
            let p = 1.0 / self.spike_mean_ticks;
            let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            self.spike_remaining = 1 + (u.ln() / (1.0 - p).ln()).floor().max(0.0) as u64;
        }

        let diurnal =
            self.diurnal_amp * (std::f64::consts::TAU * (t.day_fraction() + self.phase)).sin();
        let shared = self.coupling * 0.08 * self.job_factor(t);
        let level = if self.spike_remaining > 0 {
            self.spike_level
        } else if self.job_spike_active(t) {
            self.job_spike_level
        } else {
            self.base + diurnal + shared + self.ou_state
        };

        // Fresh tasks ramp up to their level over the warm-up period.
        let ramp = if self.warmup_ticks == 0 {
            1.0
        } else {
            ((self.age_ticks + 1) as f64 / self.warmup_ticks as f64).min(1.0)
        };
        self.age_ticks += 1;

        let util = (level * ramp).clamp(UTIL_FLOOR, 1.0);
        for slot in out.iter_mut() {
            let jitter = dist::normal(rng, 0.0, self.subsample_sigma);
            *slot = ((util + jitter).clamp(0.0, 1.0)) * self.limit;
        }
    }
}

/// The `(period in ticks, phase)` of a job factor's two sinusoids: periods
/// between ~4 h and ~16 h, phases in `[0, 1)`, both hashed from the job seed.
fn job_waves(job_seed: u64) -> [(f64, f64); 2] {
    let h1 = splitmix(job_seed);
    let h2 = splitmix(h1);
    let phase1 = (h1 % 10_000) as f64 / 10_000.0;
    let phase2 = (h2 % 10_000) as f64 / 10_000.0;
    let p1 = 48.0 + (h1 >> 16 & 0x7F) as f64;
    let p2 = 96.0 + (h2 >> 16 & 0x7F) as f64;
    [(p1, phase1), (p2, phase2)]
}

/// Draws a job's shared base-utilization level from the cell's Beta model.
pub fn draw_job_base<R: Rng + ?Sized>(rng: &mut R, model: &UsageModel) -> f64 {
    let draw = dist::beta(rng, model.util_alpha, model.util_beta);
    model.util_range.0 + draw * (model.util_range.1 - model.util_range.0)
}

/// SplitMix64 hash step, used to derive independent per-job constants.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellConfig, CellPreset};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn model() -> UsageModel {
        CellConfig::preset(CellPreset::A).usage
    }

    fn process(seed: u64) -> (UsageProcess, SmallRng) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let p = UsageProcess::sample_new(&mut rng, &model(), 0.2, 7, 0.25, true, 0.5);
        (p, rng)
    }

    #[test]
    fn usage_is_capped_at_limit_and_nonnegative() {
        let (mut p, mut rng) = process(1);
        let mut out = [0.0; SUBSAMPLES_PER_TICK];
        for i in 0..5000 {
            p.tick(&mut rng, Tick(i), &mut out);
            for &v in &out {
                assert!((0.0..=0.2 + 1e-12).contains(&v), "usage {v} out of range");
            }
        }
    }

    #[test]
    fn mean_usage_is_well_below_limit() {
        // The usage-to-limit gap must exist for overcommit to have room.
        let mut total = 0.0;
        let mut n = 0usize;
        for seed in 0..20 {
            let (mut p, mut rng) = process(seed);
            let mut out = [0.0; SUBSAMPLES_PER_TICK];
            for i in 0..2000 {
                p.tick(&mut rng, Tick(i), &mut out);
                total += out.iter().sum::<f64>();
                n += out.len();
            }
        }
        let mean_ratio = total / n as f64 / 0.2;
        assert!(
            (0.15..0.85).contains(&mean_ratio),
            "mean usage/limit ratio {mean_ratio}"
        );
    }

    #[test]
    fn spikes_reach_near_limit() {
        // With spike_prob boosted, the process must occasionally hit the
        // spike level.
        let mut m = model();
        m.spike_prob = 0.2;
        let mut rng = SmallRng::seed_from_u64(3);
        let mut p = UsageProcess::sample_new(&mut rng, &m, 0.5, 1, 0.0, true, 0.5);
        let mut out = [0.0; SUBSAMPLES_PER_TICK];
        let mut peak = 0.0f64;
        for i in 0..500 {
            p.tick(&mut rng, Tick(i), &mut out);
            peak = peak.max(out.iter().copied().fold(0.0, f64::max));
        }
        assert!(peak > 0.4, "peak {peak} never approached the limit");
    }

    #[test]
    fn warmup_ramps_usage() {
        let mut m = model();
        m.warmup_ticks = 10;
        m.ou_sigma = (0.0001, 0.0002);
        m.subsample_sigma = 0.0001;
        m.spike_prob = 0.0;
        let mut rng = SmallRng::seed_from_u64(9);
        let mut p = UsageProcess::sample_new(&mut rng, &m, 1.0, 1, 0.0, true, 0.5);
        let mut out = [0.0; SUBSAMPLES_PER_TICK];
        p.tick(&mut rng, Tick(0), &mut out);
        let first = out[0];
        for i in 1..10 {
            p.tick(&mut rng, Tick(i), &mut out);
        }
        let later = out[0];
        assert!(later > first * 2.0, "no ramp: first {first}, later {later}");
    }

    #[test]
    fn sibling_tasks_are_correlated_strangers_less_so() {
        // Two tasks of the same job (same seed+phase) vs. different jobs.
        let m = UsageModel {
            job_coupling: 1.0,
            ou_sigma: (0.001, 0.002),
            subsample_sigma: 0.001,
            spike_prob: 0.0,
            diurnal_amp: (0.2, 0.2001),
            ..model()
        };
        let run = |job_seed: u64, phase: f64, rng_seed: u64| -> Vec<f64> {
            let mut rng = SmallRng::seed_from_u64(rng_seed);
            let mut p = UsageProcess::sample_new(&mut rng, &m, 1.0, job_seed, phase, true, 0.5);
            let mut out = [0.0; SUBSAMPLES_PER_TICK];
            (0..600)
                .map(|i| {
                    p.tick(&mut rng, Tick(i), &mut out);
                    out.iter().sum::<f64>() / out.len() as f64
                })
                .collect()
        };
        let a = run(7, 0.3, 1);
        let b = run(7, 0.3, 2);
        let c = run(999, 0.8, 3);
        let sib = oc_stats::pearson(&a, &b).unwrap();
        let stranger = oc_stats::pearson(&a, &c).unwrap();
        assert!(
            sib > stranger + 0.2,
            "siblings {sib} vs strangers {stranger}"
        );
    }

    #[test]
    fn splitmix_spreads_bits() {
        let a = splitmix(1);
        let b = splitmix(2);
        assert_ne!(a, b);
        assert_ne!(a, 1);
    }
}
