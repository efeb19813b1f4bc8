//! Shared experiment options, workload scaling and the idioms the
//! figures share.

use oc_core::config::SimConfig;
use oc_core::predictor::PredictorSpec;
use oc_core::runner::{run_cell_streaming, CellRun};
use oc_trace::cell::{CellConfig, CellPreset};
use oc_trace::gen::WorkloadGenerator;
use oc_trace::machine::MachineTrace;
use oc_trace::time::TICKS_PER_DAY;
use std::error::Error;

/// Workload scale of a reproduction run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced machine counts and durations; minutes on a laptop.
    Quick,
    /// The presets' full (already workstation-scaled) configuration.
    Full,
}

/// Options shared by every experiment.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload scale.
    pub scale: Scale,
    /// Worker threads.
    pub threads: usize,
    /// Directory CSV outputs are written to.
    pub results: std::path::PathBuf,
    /// Render terminal CDF plots.
    pub plot: bool,
    /// Workload seed override; `None` keeps each preset's baked-in seed.
    pub seed: Option<u64>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            scale: Scale::Quick,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            results: crate::output::results_dir(),
            plot: false,
            seed: None,
        }
    }
}

impl Opts {
    /// Applies the scale to a cell preset: quick runs shrink machine
    /// counts 4× and cap durations at `quick_days`. A `--seed` override,
    /// when present, then replaces the preset's baked-in seed.
    pub fn scaled(&self, mut cell: CellConfig, quick_days: u64) -> CellConfig {
        if self.scale == Scale::Quick {
            cell.machines = (cell.machines / 4).max(6);
            cell.duration_ticks = cell.duration_ticks.min(quick_days * TICKS_PER_DAY);
        }
        self.seeded(cell)
    }

    /// Applies a `--seed` override, when present, in place of the cell's
    /// baked-in seed. This is the one choke point every experiment's
    /// workload passes through, scaled by [`Opts::scaled`] or by hand.
    pub(crate) fn seeded(&self, cell: CellConfig) -> CellConfig {
        match self.seed {
            Some(seed) => cell.with_seed(seed),
            None => cell,
        }
    }

    /// Generates every machine of `cell` on [`Opts::threads`] threads.
    pub(crate) fn generate(&self, cell: CellConfig) -> Result<Vec<MachineTrace>, Box<dyn Error>> {
        Ok(WorkloadGenerator::new(cell)?.generate_cell_parallel(self.threads)?)
    }

    /// Simulates `cell` under `specs` with the default node agent,
    /// recording every per-tick series.
    pub(crate) fn simulate(
        &self,
        cell: CellConfig,
        specs: &[PredictorSpec],
    ) -> Result<CellRun, Box<dyn Error>> {
        let gen = WorkloadGenerator::new(cell)?;
        let cfg = SimConfig::default().with_series();
        Ok(run_cell_streaming(&gen, &cfg, specs, self.threads)?)
    }

    /// Trace cell `a`, [scaled](Opts::scaled).
    pub(crate) fn cell_a(&self, quick_days: u64) -> CellConfig {
        self.scaled(CellConfig::preset(CellPreset::A), quick_days)
    }

    /// Trace cells `a..h`, each [scaled](Opts::scaled).
    pub(crate) fn trace_cells(&self, quick_days: u64) -> Vec<CellConfig> {
        CellConfig::trace_cells()
            .into_iter()
            .map(|cell| self.scaled(cell, quick_days))
            .collect()
    }
}

/// Runs `f` on each cell, in order, and pairs each result with the
/// cell's name.
pub(crate) fn per_cell<T>(
    cells: Vec<CellConfig>,
    mut f: impl FnMut(CellConfig) -> Result<T, Box<dyn Error>>,
) -> Result<Vec<(String, T)>, Box<dyn Error>> {
    cells
        .into_iter()
        .map(|cell| Ok((cell.id.name().to_string(), f(cell)?)))
        .collect()
}

/// Mean of `v`; 0 when `v` is empty.
pub(crate) fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Share of `v` for which `pred` holds; 0 when `v` is empty.
pub(crate) fn share(v: &[f64], pred: impl Fn(f64) -> bool) -> f64 {
    v.iter().filter(|&&x| pred(x)).count() as f64 / v.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use oc_trace::cell::CellPreset;

    #[test]
    fn quick_scale_shrinks() {
        let opts = Opts {
            scale: Scale::Quick,
            ..Opts::default()
        };
        let cell = opts.scaled(CellConfig::preset(CellPreset::A), 2);
        assert_eq!(cell.machines, 25);
        assert_eq!(cell.duration_ticks, 2 * TICKS_PER_DAY);
    }

    #[test]
    fn full_scale_is_identity() {
        let opts = Opts {
            scale: Scale::Full,
            ..Opts::default()
        };
        let preset = CellConfig::preset(CellPreset::A);
        let cell = opts.scaled(preset.clone(), 2);
        assert_eq!(cell, preset);
    }

    #[test]
    fn seed_override_applies_at_any_scale() {
        for scale in [Scale::Quick, Scale::Full] {
            let opts = Opts {
                scale,
                seed: Some(0xDEAD_BEEF),
                ..Opts::default()
            };
            let cell = opts.scaled(CellConfig::preset(CellPreset::A), 2);
            assert_eq!(cell.seed, 0xDEAD_BEEF);
        }
        let opts = Opts {
            seed: None,
            ..Opts::default()
        };
        let preset = CellConfig::preset(CellPreset::A);
        assert_eq!(opts.scaled(preset.clone(), 99).seed, preset.seed);
    }

    /// The figures that size their cells by hand (3, 12 and 13) still
    /// take `--seed`: every cell they build carries the override, at
    /// either scale, and keeps its preset's seed without one.
    #[test]
    fn hand_sized_figures_take_the_seed_override() {
        let cells = |opts: &Opts| {
            let mut cells = crate::fig3::cells(opts);
            cells.push(crate::fig12::cell(opts));
            cells.push(crate::fig13::config(opts).cell);
            cells
        };
        for scale in [Scale::Quick, Scale::Full] {
            let seeded = Opts {
                scale,
                seed: Some(0xDEAD_BEEF),
                ..Opts::default()
            };
            let unseeded = Opts {
                seed: None,
                ..seeded.clone()
            };
            let (seeded, unseeded) = (cells(&seeded), cells(&unseeded));
            assert_eq!(seeded.len(), 7);
            for (cell, preset) in seeded.iter().zip(&unseeded) {
                assert_eq!(cell.seed, 0xDEAD_BEEF, "{:?} at {scale:?}", cell.id);
                assert_ne!(preset.seed, 0xDEAD_BEEF);
                assert_eq!(cell, &preset.clone().with_seed(0xDEAD_BEEF));
            }
        }
    }
}
