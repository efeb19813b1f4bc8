//! Parallel cell-level simulation.
//!
//! Machines are simulated independently — exactly the property the paper's
//! Beam pipeline exploits — so the runner fans machine indices out to
//! worker threads via an atomic work counter. Each worker writes its result
//! into the pre-allocated slot for its machine index, so the output is
//! ordered by construction and never needs a collect-and-sort pass. On the
//! first error a shared cancel flag stops the remaining workers from
//! claiming new machines. Two modes:
//!
//! * [`run_cell`] — simulate already-materialized [`MachineTrace`]s.
//! * [`run_cell_streaming`] — generate each machine on the fly from a
//!   [`WorkloadGenerator`], simulate it, and drop the trace, keeping only
//!   reports (and optional series). This keeps month-long cells within a
//!   workstation's memory.

use crate::config::SimConfig;
use crate::error::CoreError;
use crate::metrics::{MachineReport, SimResult};
use crate::predictor::{PeakPredictor, PredictorSpec};
use crate::sim::simulate_machine;
use oc_trace::gen::WorkloadGenerator;
use oc_trace::ids::{CellId, MachineId};
use oc_trace::MachineTrace;

/// Aggregated output of one cell simulation.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The simulated cell.
    pub cell: CellId,
    /// Predictor names, in configuration order.
    pub predictors: Vec<String>,
    /// Per-machine results, sorted by machine id.
    pub results: Vec<SimResult>,
}

impl CellRun {
    /// Per-machine reports for predictor `idx`.
    pub fn reports(&self, idx: usize) -> impl Iterator<Item = &MachineReport> {
        self.results.iter().map(move |r| &r.reports[idx])
    }

    /// Per-machine violation rates for predictor `idx` (one per machine).
    pub fn violation_rates(&self, idx: usize) -> Vec<f64> {
        self.reports(idx)
            .map(MachineReport::violation_rate)
            .collect()
    }

    /// Per-machine mean severities for predictor `idx`.
    pub fn mean_severities(&self, idx: usize) -> Vec<f64> {
        self.reports(idx)
            .map(MachineReport::mean_severity)
            .collect()
    }

    /// Per-machine mean savings ratios for predictor `idx`.
    pub fn machine_savings(&self, idx: usize) -> Vec<f64> {
        self.reports(idx).map(MachineReport::mean_savings).collect()
    }

    /// Cell-level savings series: per tick, `(ΣL − ΣP) / ΣL` summed over
    /// machines. Requires `record_series`; returns `None` otherwise.
    pub fn cell_savings_series(&self, idx: usize) -> Option<Vec<f64>> {
        let n = self
            .results
            .first()
            .and_then(|r| r.series.as_ref())
            .map(|s| s.limit.len())?;
        let mut limit = vec![0.0; n];
        let mut pred = vec![0.0; n];
        for r in &self.results {
            let s = r.series.as_ref()?;
            for i in 0..n {
                limit[i] += s.limit[i];
                pred[i] += s.predictions[idx][i];
            }
        }
        Some(
            limit
                .iter()
                .zip(pred.iter())
                .map(|(&l, &p)| if l > 0.0 { (l - p) / l } else { 0.0 })
                .collect(),
        )
    }

    /// Cell-level utilization series: per tick, `Σ usage / Σ capacity`.
    /// Requires `record_series`.
    pub fn cell_utilization_series(&self) -> Option<Vec<f64>> {
        let n = self
            .results
            .first()
            .and_then(|r| r.series.as_ref())
            .map(|s| s.avg_usage.len())?;
        let mut usage = vec![0.0; n];
        let mut capacity = 0.0;
        for r in &self.results {
            let s = r.series.as_ref()?;
            capacity += r.capacity;
            for i in 0..n {
                usage[i] += s.avg_usage[i];
            }
        }
        Some(usage.iter().map(|&u| u / capacity).collect())
    }
}

/// Builds one predictor set from specs.
fn build_predictors(specs: &[PredictorSpec]) -> Result<Vec<Box<dyn PeakPredictor>>, CoreError> {
    specs.iter().map(PredictorSpec::build).collect()
}

/// Simulates materialized machines in parallel.
///
/// # Errors
///
/// Returns the first configuration, build, or per-machine simulation error.
pub fn run_cell(
    cell: CellId,
    machines: &[MachineTrace],
    cfg: &SimConfig,
    specs: &[PredictorSpec],
    threads: usize,
) -> Result<CellRun, CoreError> {
    cfg.validate()?;
    for s in specs {
        s.validate()?;
    }
    let results = parallel_map(machines.len(), threads, |idx| {
        let predictors = build_predictors(specs)?;
        simulate_machine(&machines[idx], cfg, &predictors)
    })?;
    Ok(finish(cell, specs, results))
}

/// Generates and simulates a whole cell without materializing it.
///
/// # Errors
///
/// Returns the first generation or simulation error.
pub fn run_cell_streaming(
    gen: &WorkloadGenerator,
    cfg: &SimConfig,
    specs: &[PredictorSpec],
    threads: usize,
) -> Result<CellRun, CoreError> {
    cfg.validate()?;
    for s in specs {
        s.validate()?;
    }
    let n = gen.config().machines;
    let results = parallel_map(n, threads, |idx| {
        let predictors = build_predictors(specs)?;
        let trace = gen.generate_machine(MachineId(idx as u32))?;
        simulate_machine(&trace, cfg, &predictors)
    })?;
    Ok(finish(gen.config().id.clone(), specs, results))
}

/// Fans indices `0..n` out to `threads` workers.
///
/// Workers claim indices from an atomic counter and write each result
/// directly into its index slot, so results come back in machine order
/// without a sort. A shared cancel flag is raised on the first error; other
/// workers finish their current machine but claim no more, and the first
/// error (by claim order, not completion order — `error` is only written by
/// whichever worker raises the flag) is returned.
fn parallel_map<F>(n: usize, threads: usize, f: F) -> Result<Vec<SimResult>, CoreError>
where
    F: Fn(usize) -> Result<SimResult, CoreError> + Send + Sync,
{
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;

    let threads = threads.max(1).min(n.max(1));
    let next = AtomicUsize::new(0);
    let cancel = AtomicBool::new(false);
    let error: Mutex<Option<CoreError>> = Mutex::new(None);
    let mut slots: Vec<Option<SimResult>> = Vec::new();
    slots.resize_with(n, || None);
    let slots = Mutex::new(slots);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                if cancel.load(Ordering::Relaxed) {
                    return;
                }
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    return;
                }
                match f(idx) {
                    Ok(result) => {
                        slots.lock().expect("slots lock")[idx] = Some(result);
                    }
                    Err(e) => {
                        if !cancel.swap(true, Ordering::Relaxed) {
                            *error.lock().expect("error lock") = Some(e);
                        }
                        return;
                    }
                }
            });
        }
    });

    if let Some(e) = error.into_inner().expect("error lock") {
        return Err(e);
    }
    let results: Vec<SimResult> = slots
        .into_inner()
        .expect("slots lock")
        .into_iter()
        .map(|s| s.expect("no error raised, so every slot was filled"))
        .collect();
    Ok(results)
}

/// Wraps sorted results into a [`CellRun`].
fn finish(cell: CellId, specs: &[PredictorSpec], results: Vec<SimResult>) -> CellRun {
    CellRun {
        cell,
        predictors: specs.iter().map(PredictorSpec::name).collect(),
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oc_trace::cell::{CellConfig, CellPreset};

    fn small_gen() -> WorkloadGenerator {
        let mut cell = CellConfig::preset(CellPreset::A);
        cell.machines = 4;
        cell.duration_ticks = 144; // Half a day.
        WorkloadGenerator::new(cell).unwrap()
    }

    #[test]
    fn streaming_run_produces_sorted_results() {
        let gen = small_gen();
        let run = run_cell_streaming(
            &gen,
            &SimConfig::default(),
            &PredictorSpec::comparison_set(),
            3,
        )
        .unwrap();
        assert_eq!(run.results.len(), 4);
        for (i, r) in run.results.iter().enumerate() {
            assert_eq!(r.machine, MachineId(i as u32));
            assert_eq!(r.reports.len(), 4);
        }
        assert_eq!(run.predictors.len(), 4);
    }

    #[test]
    fn materialized_equals_streaming() {
        let gen = small_gen();
        let machines = gen.generate_cell().unwrap();
        let specs = [PredictorSpec::paper_max()];
        let cfg = SimConfig::default();
        let a = run_cell(gen.config().id.clone(), &machines, &cfg, &specs, 2).unwrap();
        let b = run_cell_streaming(&gen, &cfg, &specs, 2).unwrap();
        for (x, y) in a.results.iter().zip(b.results.iter()) {
            assert_eq!(x.machine, y.machine);
            assert_eq!(x.reports[0].violations, y.reports[0].violations);
            assert_eq!(x.reports[0].mean_savings(), y.reports[0].mean_savings());
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let gen = small_gen();
        let specs = PredictorSpec::comparison_set();
        let cfg = SimConfig::default();
        let one = run_cell_streaming(&gen, &cfg, &specs, 1).unwrap();
        let many = run_cell_streaming(&gen, &cfg, &specs, 8).unwrap();
        assert_eq!(one.results.len(), many.results.len());
        for (x, y) in one.results.iter().zip(&many.results) {
            assert_eq!(x.machine, y.machine);
            for (a, b) in x.reports.iter().zip(&y.reports) {
                assert_eq!(
                    (a.ticks, a.violations),
                    (b.ticks, b.violations),
                    "{}",
                    a.predictor
                );
                let bits = |r: &MachineReport| {
                    [r.severity, r.savings, r.prediction, r.oracle, r.limit].map(|w| {
                        let moments = [w.mean(), w.population_variance(), w.min(), w.max()];
                        (w.count(), moments.map(f64::to_bits))
                    })
                };
                assert_eq!(bits(a), bits(b), "{}", a.predictor);
            }
        }
    }

    #[test]
    fn cell_series_aggregation() {
        let gen = small_gen();
        let run = run_cell_streaming(
            &gen,
            &SimConfig::default().with_series(),
            &[PredictorSpec::borg_default()],
            2,
        )
        .unwrap();
        let savings = run.cell_savings_series(0).unwrap();
        assert_eq!(savings.len(), 144);
        // borg-default(0.9) saves exactly 10 % at every tick.
        for s in &savings {
            assert!((s - 0.1).abs() < 1e-9, "savings {s}");
        }
        let util = run.cell_utilization_series().unwrap();
        assert_eq!(util.len(), 144);
        assert!(util.iter().all(|&u| (0.0..=1.0).contains(&u)));
    }

    #[test]
    fn first_error_cancels_remaining_work() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Plenty of machines, few threads: once the first machine fails,
        // the cancel flag must stop workers from claiming the long tail.
        let n = 10_000;
        let calls = AtomicUsize::new(0);
        let err = parallel_map(n, 2, |idx| {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(CoreError::InvalidConfig {
                what: format!("machine {idx} failed"),
            })
        })
        .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }));
        let made = calls.load(Ordering::Relaxed);
        assert!(made < n, "cancel flag ignored: all {made} machines ran");
    }

    #[test]
    fn failing_predictor_build_propagates_from_workers() {
        // An always-failing per-machine closure modeling a predictor whose
        // construction fails inside the worker threads.
        let err = parallel_map(4, 4, |_| {
            PredictorSpec::RcLike { percentile: 250.0 }
                .build()
                .map(|_| unreachable!("percentile 250 must not build"))
        })
        .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }));
    }

    #[test]
    fn series_absent_without_flag() {
        let gen = small_gen();
        let run = run_cell_streaming(
            &gen,
            &SimConfig::default(),
            &[PredictorSpec::borg_default()],
            2,
        )
        .unwrap();
        assert!(run.cell_savings_series(0).is_none());
        assert!(run.cell_utilization_series().is_none());
    }
}
