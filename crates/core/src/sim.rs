//! The fortune-teller: replaying one machine against its oracle.
//!
//! This mirrors the paper's simulator core (Figure 5): for each instant
//! `τ`, the predictor sees only the history `U[t], t ≤ τ` through its
//! [`MachineView`], while the oracle sees the future `U[t], t ≥ τ`. The two
//! are compared tick by tick and accumulated into [`MachineReport`]s.

use crate::admission;
use crate::config::SimConfig;
use crate::error::CoreError;
use crate::metrics::{
    LaneReports, MachineReport, MachineSeries, MachineSeriesVec, SimResult, SimResultVec,
};
use crate::oracle::{machine_oracle, memory_oracle};
use crate::predictor::PeakPredictor;
use crate::view::MachineView;
use oc_stats::resource::{Res2, CPU, MEM, RESOURCE_NAMES};
use oc_telemetry::{trace, Counter};
use oc_trace::memory::MemoryModel;
use oc_trace::time::Tick;
use oc_trace::{MachineTrace, TaskTrace};
use std::sync::{Arc, OnceLock};

/// When tracing is enabled, one `sim.tick` span is recorded every this
/// many ticks. Sampling (rather than a span per tick) bounds trace volume
/// on month-long replays while still catching slow-tick outliers at a
/// useful rate.
const TICK_SPAN_SAMPLE: usize = 64;

/// Cached handles for the simulator's hot-path counters. Resolved once;
/// the per-replay updates are bulk adds, so a traced replay costs the
/// same per tick as an untraced one.
struct SimCounters {
    ticks: Arc<Counter>,
    predictor_evals: Arc<Counter>,
}

fn sim_counters() -> &'static SimCounters {
    static COUNTERS: OnceLock<SimCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let m = oc_telemetry::global_metrics();
        SimCounters {
            ticks: m.counter("sim.ticks"),
            predictor_evals: m.counter("sim.predictor_evals"),
        }
    })
}

/// How a predictor set is evaluated each tick, so that every distinct
/// predictor runs once.
///
/// `folds[j]` is `Some` for a max composite (see
/// [`PeakPredictor::components`]) each of whose components shares its
/// name with a plain member of the set: it lists those members, in
/// component order, and the composite's value is their values folded by
/// `fold(0.0, max)` — the fold its own `predict` runs, over the same
/// values in the same order, so the same bits. A composite with any
/// component outside the set keeps `None` and is evaluated itself.
struct EvalPlan {
    folds: Vec<Option<Vec<usize>>>,
}

impl EvalPlan {
    fn new(predictors: &[Box<dyn PeakPredictor>]) -> EvalPlan {
        let plain: Vec<Option<String>> = predictors
            .iter()
            .map(|p| p.components().is_empty().then(|| p.name()))
            .collect();
        let member = |c: &dyn PeakPredictor| {
            let name = c.name();
            plain.iter().position(|m| m.as_ref() == Some(&name))
        };
        let folds = predictors
            .iter()
            .map(|p| match p.components() {
                [] => None,
                parts => parts.iter().map(|c| member(c.as_ref())).collect(),
            })
            .collect();
        EvalPlan { folds }
    }

    /// Fills `out[j]` with predictor `j`'s value for the current view:
    /// `predict` for every predictor the plan does not fold, then each
    /// folded composite from those values with `max`, starting at `zero`.
    fn eval<T: Copy>(
        &self,
        predictors: &[Box<dyn PeakPredictor>],
        out: &mut [T],
        predict: impl Fn(&dyn PeakPredictor) -> T,
        zero: T,
        max: impl Fn(T, T) -> T,
    ) {
        for ((p, fold), v) in predictors.iter().zip(&self.folds).zip(out.iter_mut()) {
            if fold.is_none() {
                *v = predict(p.as_ref());
            }
        }
        for (j, fold) in self.folds.iter().enumerate() {
            if let Some(parts) = fold {
                out[j] = parts.iter().map(|&k| out[k]).fold(zero, &max);
            }
        }
    }
}

/// Simulates one machine against a set of predictors.
///
/// For every tick of the machine's horizon the view is fed the tick's
/// observations, each predictor produces its estimate, and prediction,
/// oracle, and Σ limits are recorded. Each distinct predictor is
/// evaluated once per tick: a max composite whose components are also
/// members of the set is folded from their values (bit-identical to its
/// own `predict`; see [`PeakPredictor::components`]).
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for an invalid `cfg` or
/// [`CoreError::Trace`] if the machine trace fails validation.
///
/// # Examples
///
/// ```
/// use oc_core::config::SimConfig;
/// use oc_core::predictor::PredictorSpec;
/// use oc_core::sim::simulate_machine;
/// use oc_trace::cell::{CellConfig, CellPreset};
/// use oc_trace::gen::WorkloadGenerator;
/// use oc_trace::ids::MachineId;
///
/// let mut cell = CellConfig::preset(CellPreset::A);
/// cell.duration_ticks = 96;
/// let gen = WorkloadGenerator::new(cell).unwrap();
/// let trace = gen.generate_machine(MachineId(0)).unwrap();
/// let predictors = vec![PredictorSpec::borg_default().build().unwrap()];
/// let result = simulate_machine(&trace, &SimConfig::default(), &predictors).unwrap();
/// assert_eq!(result.reports.len(), 1);
/// assert_eq!(result.reports[0].ticks, 96);
/// ```
pub fn simulate_machine(
    trace: &MachineTrace,
    cfg: &SimConfig,
    predictors: &[Box<dyn PeakPredictor>],
) -> Result<SimResult, CoreError> {
    cfg.validate()?;
    trace.validate()?;
    let oracle = machine_oracle(trace, cfg.metric, cfg.oracle_horizon_ticks);
    let mut reports: Vec<MachineReport> = predictors
        .iter()
        .map(|p| MachineReport::new(trace.machine, p.name()))
        .collect();
    let n_ticks = trace.horizon.len() as usize;
    let mut series = cfg.record_series.then(|| MachineSeries {
        limit: Vec::with_capacity(n_ticks),
        oracle: oracle.clone(),
        true_peak: trace.true_peak.clone(),
        avg_usage: trace.avg_usage.clone(),
        predictions: vec![Vec::with_capacity(n_ticks); predictors.len()],
    });

    let plan = EvalPlan::new(predictors);
    let mut values = vec![0.0; predictors.len()];
    drive_ticks(trace, cfg, predictors, |i, t, live, view| {
        view.observe(
            t,
            live.iter().map(|&idx| {
                let task = &trace.tasks[idx];
                (task.spec.id, task.spec.limit, usage_at(task, t, cfg))
            }),
        );
        let po = oracle[i];
        let limit = view.total_limit();
        plan.eval(predictors, &mut values, |p| p.predict(view), 0.0, f64::max);
        for (j, &p) in values.iter().enumerate() {
            reports[j].record(p, po, limit);
            if let Some(series) = series.as_mut() {
                series.predictions[j].push(p);
            }
        }
        if let Some(series) = series.as_mut() {
            series.limit.push(limit);
        }
    });
    count_replay(trace, predictors.len());

    Ok(SimResult {
        machine: trace.machine,
        capacity: trace.capacity,
        reports,
        series,
    })
}

/// Vector counterpart of [`simulate_machine`]: replays one machine with
/// per-lane (CPU + memory) observations, predictions, and oracles.
///
/// The CPU lane reproduces the scalar replay bit for bit — the same
/// tick driver, the same per-tick view body (see
/// [`MachineView::observe_vec`]), the same predictor formulas (via
/// [`PeakPredictor::predict_lane`] lane 0), the same accounting — so
/// `result.reports[j].lane(CPU)` matches `simulate_machine`'s
/// `reports[j]` exactly. The memory lane derives each task's usage from
/// `mem_model` (a pure function of the CPU series, no RNG) and is judged
/// against [`memory_oracle`]. Per-lane violation totals are exported as
/// `sim.violations.cpu` / `sim.violations.mem` counters when telemetry is
/// enabled.
///
/// The reported capacity is [`admission::capacity`] of the trace's CPU
/// capacity, the one the admission gates check.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for an invalid `cfg` or
/// [`CoreError::Trace`] if the machine trace fails validation.
pub fn simulate_machine_vec(
    trace: &MachineTrace,
    cfg: &SimConfig,
    predictors: &[Box<dyn PeakPredictor>],
    mem_model: &MemoryModel,
) -> Result<SimResultVec, CoreError> {
    cfg.validate()?;
    trace.validate()?;
    let oracle_cpu = machine_oracle(trace, cfg.metric, cfg.oracle_horizon_ticks);
    let oracle_mem = memory_oracle(trace, mem_model, cfg.metric, cfg.oracle_horizon_ticks);
    let mut reports: Vec<LaneReports> = predictors
        .iter()
        .map(|p| LaneReports::new(trace.machine, p.name()))
        .collect();
    let n_ticks = trace.horizon.len() as usize;
    let mut series = cfg.record_series.then(|| MachineSeriesVec {
        limit: Vec::with_capacity(n_ticks),
        oracle: oracle_cpu
            .iter()
            .zip(&oracle_mem)
            .map(|(&c, &m)| Res2::from_lanes([c, m]))
            .collect(),
        predictions: vec![Vec::with_capacity(n_ticks); predictors.len()],
        avg_usage: trace.avg_usage.clone(),
        mem_usage: Vec::with_capacity(n_ticks),
    });

    let plan = EvalPlan::new(predictors);
    let mut values = vec![Res2::ZERO; predictors.len()];
    drive_ticks(trace, cfg, predictors, |i, t, live, view| {
        let mut mem_total = 0.0;
        view.observe_vec(
            t,
            live.iter().map(|&idx| {
                let task = &trace.tasks[idx];
                let usage = usage_at(task, t, cfg);
                let mem = mem_model.usage(&task.spec, t, usage);
                mem_total += mem;
                (
                    task.spec.id,
                    Res2::from_lanes([task.spec.limit, task.spec.memory_limit]),
                    Res2::from_lanes([usage, mem]),
                )
            }),
        );

        let po = Res2::from_lanes([oracle_cpu[i], oracle_mem[i]]);
        let limit = view.total_limit_vec();
        plan.eval(
            predictors,
            &mut values,
            |p| p.predict_vec(view),
            Res2::ZERO,
            Res2::max,
        );
        for (j, &p) in values.iter().enumerate() {
            reports[j].record(p, po, limit);
            if let Some(series) = series.as_mut() {
                series.predictions[j].push(p);
            }
        }
        if let Some(series) = series.as_mut() {
            series.limit.push(limit);
            series.mem_usage.push(mem_total);
        }
    });
    count_replay(trace, predictors.len());

    if oc_telemetry::enabled() {
        let m = oc_telemetry::global_metrics();
        for lane in [CPU, MEM] {
            let total: u64 = reports.iter().map(|r| r.lane(lane).violations).sum();
            m.counter(&format!("sim.violations.{}", RESOURCE_NAMES[lane]))
                .add(total);
        }
    }

    Ok(SimResultVec {
        machine: trace.machine,
        capacity: admission::capacity(trace.capacity),
        reports,
        series,
    })
}

/// Replays one machine tick by tick: admits and retires tasks and hands
/// `on_tick` the tick's index, the tick, the live tasks (indices into
/// `trace.tasks`, in admission order) and a [`MachineView`] for the
/// machine, to observe them into and predict from. The view's windows
/// keep the deepest [`PeakPredictor::window_depth`] of `predictors`. Both replays run
/// through it, so the scalar replay and the vector one's CPU lane see the
/// same task set and the same sampled `sim.tick` spans; each feeds the
/// view through its own lane entry point. Callers validate `cfg` and
/// `trace` before the oracle pass, so the driver does not re-validate.
fn drive_ticks<F>(
    trace: &MachineTrace,
    cfg: &SimConfig,
    predictors: &[Box<dyn PeakPredictor>],
    mut on_tick: F,
) where
    F: FnMut(usize, Tick, &[usize], &mut MachineView),
{
    let w = cfg.max_num_samples;
    let depth = predictors.iter().map(|p| p.window_depth(w)).max();
    let mut view = MachineView::with_depth(trace.capacity, cfg, depth.unwrap_or(0));
    // Pre-index tasks by start tick so each tick touches only live tasks.
    // Machines host dozens of tasks at a time but thousands over a month.
    let mut live: Vec<usize> = Vec::new();
    let mut next_task = 0usize;
    // Checked once per replay: the hot loop must not pay for telemetry
    // that is switched off (the PR1 per-tick budget).
    let traced = oc_telemetry::enabled();

    for (i, t) in trace.horizon.iter().enumerate() {
        // Admit tasks starting at `t` (tasks are sorted by start tick).
        while next_task < trace.tasks.len() && trace.tasks[next_task].spec.start <= t {
            if trace.tasks[next_task].spec.alive_at(t) {
                live.push(next_task);
            }
            next_task += 1;
        }
        live.retain(|&idx| trace.tasks[idx].spec.alive_at(t));

        // Sampled per-tick timing: one span every `TICK_SPAN_SAMPLE`
        // ticks covering the view update and predictor evaluations
        // (`a` = tick, `b` = live tasks).
        let _tick_span = (traced && i % TICK_SPAN_SAMPLE == 0)
            .then(|| trace::span_ab("sim.tick", t.0, live.len() as u64));

        on_tick(i, t, &live, &mut view);
    }
}

/// A live task's usage at `t` by the configured metric; 0 for a tick it
/// has no sample for. [`drive_ticks`] hands over only tasks alive at `t`,
/// so the sample is read by its index without checking the lifetime
/// again.
fn usage_at(task: &TaskTrace, t: Tick, cfg: &SimConfig) -> f64 {
    let idx = (t.index() - task.spec.start.index()) as usize;
    task.samples.get(idx).map_or(0.0, |s| cfg.metric.of(s))
}

/// Bulk-adds one replay to the simulator's counters: O(1) regardless of
/// horizon length, and only when observability is switched on at all.
fn count_replay(trace: &MachineTrace, predictors: usize) {
    if oc_telemetry::enabled() {
        let c = sim_counters();
        c.ticks.add(trace.horizon.len());
        c.predictor_evals
            .add(trace.horizon.len() * predictors as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::PredictorSpec;
    use oc_trace::cell::{CellConfig, CellPreset};
    use oc_trace::gen::WorkloadGenerator;
    use oc_trace::ids::MachineId;

    fn trace() -> MachineTrace {
        let mut cell = CellConfig::preset(CellPreset::A);
        cell.duration_ticks = 288; // 1 day.
        WorkloadGenerator::new(cell)
            .unwrap()
            .generate_machine(MachineId(0))
            .unwrap()
    }

    fn build(specs: &[PredictorSpec]) -> Vec<Box<dyn PeakPredictor>> {
        specs.iter().map(|s| s.build().unwrap()).collect()
    }

    #[test]
    fn limit_sum_is_safe_and_saves_nothing() {
        let t = trace();
        let result = simulate_machine(
            &t,
            &SimConfig::default(),
            &build(&[PredictorSpec::LimitSum]),
        )
        .unwrap();
        let r = &result.reports[0];
        assert_eq!(r.violations, 0, "limit-sum must never violate the oracle");
        assert!(r.mean_savings().abs() < 1e-12);
    }

    #[test]
    fn oracle_dominates_predictions_constraints() {
        // For every tick: oracle <= Σ limits (usage is capped per task).
        let t = trace();
        let cfg = SimConfig::default().with_series();
        let result = simulate_machine(&t, &cfg, &build(&[PredictorSpec::LimitSum])).unwrap();
        let s = result.series.unwrap();
        for i in 0..s.limit.len() {
            assert!(
                s.oracle[i] <= s.limit[i] + 1e-9,
                "tick {i}: oracle {} above limits {}",
                s.oracle[i],
                s.limit[i]
            );
        }
    }

    #[test]
    fn comparison_set_orders_as_expected() {
        // The max predictor violates at most as often as its weakest
        // component... not guaranteed per-tick, but its prediction always
        // dominates each component's, so violations are a subset.
        let t = trace();
        let specs = [
            PredictorSpec::NSigma { n: 5.0 },
            PredictorSpec::RcLike { percentile: 99.0 },
            PredictorSpec::paper_max(),
        ];
        let result = simulate_machine(&t, &SimConfig::default(), &build(&specs)).unwrap();
        let [n_sigma, rc, max] = &result.reports[..] else {
            panic!("3 reports")
        };
        assert!(max.violations <= n_sigma.violations);
        assert!(max.violations <= rc.violations);
        assert!(max.mean_savings() <= n_sigma.mean_savings() + 1e-12);
        assert!(max.mean_savings() <= rc.mean_savings() + 1e-12);
    }

    #[test]
    fn series_lengths_match() {
        let t = trace();
        let cfg = SimConfig::default().with_series();
        let result = simulate_machine(&t, &cfg, &build(&PredictorSpec::comparison_set())).unwrap();
        let s = result.series.unwrap();
        let n = t.horizon.len() as usize;
        assert_eq!(s.limit.len(), n);
        assert_eq!(s.oracle.len(), n);
        assert_eq!(s.predictions.len(), 4);
        for p in &s.predictions {
            assert_eq!(p.len(), n);
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let t = trace();
        let mut cfg = SimConfig::default();
        cfg.oracle_horizon_ticks = 0;
        assert!(simulate_machine(&t, &cfg, &build(&[PredictorSpec::LimitSum])).is_err());
    }

    #[test]
    fn telemetry_counters_and_sampled_spans_record_when_enabled() {
        let t = trace();
        let specs = build(&[PredictorSpec::LimitSum, PredictorSpec::NSigma { n: 5.0 }]);
        let m = oc_telemetry::global_metrics();
        let ticks_before = m.counter("sim.ticks").get();
        let evals_before = m.counter("sim.predictor_evals").get();
        oc_telemetry::trace::enable();
        let result = simulate_machine(&t, &SimConfig::default(), &specs);
        oc_telemetry::trace::disable();
        result.unwrap();
        // >= rather than ==: other tests in this process may replay
        // concurrently while tracing is enabled.
        assert!(m.counter("sim.ticks").get() >= ticks_before + 288);
        assert!(m.counter("sim.predictor_evals").get() >= evals_before + 2 * 288);
        let events = oc_telemetry::trace::drain();
        let tick_spans: Vec<_> = events.iter().filter(|e| e.name == "sim.tick").collect();
        // 288 ticks sampled every 64: ticks 0, 64, 128, 192, 256.
        assert!(tick_spans.len() >= 5, "{} sampled spans", tick_spans.len());
        assert!(tick_spans.iter().all(|e| e.b > 0), "live tasks recorded");
    }

    #[test]
    fn vector_cpu_lane_matches_scalar_sim_bitwise() {
        // The CPU lane of the vector replay must reproduce the scalar
        // replay's accounting exactly: same violation counts, bitwise
        // identical savings/severity means.
        let t = trace();
        let specs = PredictorSpec::comparison_set();
        let scalar = simulate_machine(&t, &SimConfig::default(), &build(&specs)).unwrap();
        let vector = simulate_machine_vec(
            &t,
            &SimConfig::default(),
            &build(&specs),
            &oc_trace::MemoryModel::default(),
        )
        .unwrap();
        for (s, v) in scalar.reports.iter().zip(vector.reports.iter()) {
            let v = v.lane(CPU);
            assert_eq!(s.predictor, v.predictor);
            assert_eq!(s.ticks, v.ticks);
            assert_eq!(s.violations, v.violations);
            assert_eq!(s.mean_savings().to_bits(), v.mean_savings().to_bits());
            assert_eq!(s.mean_severity().to_bits(), v.mean_severity().to_bits());
            assert_eq!(s.prediction.mean().to_bits(), v.prediction.mean().to_bits());
        }
    }

    #[test]
    fn shared_evaluation_matches_each_predictor_alone() {
        // `Debug` prints every f64 in shortest round-trip form (and every
        // private Welford moment), so equal strings mean equal bits.
        let bits = |x: &dyn std::fmt::Debug| format!("{x:?}");
        let t = trace();
        let cfg = SimConfig::default().with_series();
        let mem = oc_trace::MemoryModel::default();
        let PredictorSpec::Max(paper_parts) = PredictorSpec::paper_max() else {
            unreachable!()
        };
        let fall_back = [paper_parts, vec![PredictorSpec::production_max()]].concat();
        let sets = [
            PredictorSpec::comparison_set(),
            vec![PredictorSpec::paper_max()],
            fall_back,
        ];
        for specs in sets {
            let names: Vec<String> = specs.iter().map(PredictorSpec::name).collect();
            let shared = simulate_machine(&t, &cfg, &build(&specs)).unwrap();
            let shared_vec = simulate_machine_vec(&t, &cfg, &build(&specs), &mem).unwrap();
            let (s, sv) = (shared.series.unwrap(), shared_vec.series.unwrap());
            for (j, spec) in specs.iter().enumerate() {
                let one = std::slice::from_ref(spec);
                let alone = simulate_machine(&t, &cfg, &build(one)).unwrap();
                let alone_vec = simulate_machine_vec(&t, &cfg, &build(one), &mem).unwrap();
                let (a, av) = (alone.series.unwrap(), alone_vec.series.unwrap());
                let at = format!("{} in {names:?}", spec.name());
                assert_eq!(bits(&shared.reports[j]), bits(&alone.reports[0]), "{at}");
                assert_eq!(bits(&s.predictions[j]), bits(&a.predictions[0]), "{at}");
                assert_eq!(
                    bits(&(&s.limit, &s.oracle, &s.true_peak, &s.avg_usage)),
                    bits(&(&a.limit, &a.oracle, &a.true_peak, &a.avg_usage)),
                    "{at}"
                );
                assert_eq!(
                    bits(&shared_vec.reports[j]),
                    bits(&alone_vec.reports[0]),
                    "{at} (vec)"
                );
                assert_eq!(
                    bits(&sv.predictions[j]),
                    bits(&av.predictions[0]),
                    "{at} (vec)"
                );
                assert_eq!(
                    bits(&(&sv.limit, &sv.oracle, &sv.avg_usage, &sv.mem_usage)),
                    bits(&(&av.limit, &av.oracle, &av.avg_usage, &av.mem_usage)),
                    "{at} (vec)"
                );
            }
        }
        // The plans behind those sets: comparison_set folds its max from
        // members 2 and 1; a max alone, or one with a component outside
        // the set, is evaluated itself.
        let folds = |specs: &[PredictorSpec]| EvalPlan::new(&build(specs)).folds;
        assert_eq!(
            folds(&PredictorSpec::comparison_set()),
            [None, None, None, Some(vec![2, 1])]
        );
        assert_eq!(folds(&[PredictorSpec::paper_max()]), [None]);
        assert_eq!(
            folds(&[
                PredictorSpec::NSigma { n: 5.0 },
                PredictorSpec::RcLike { percentile: 99.0 },
                PredictorSpec::production_max(),
            ]),
            [None, None, None]
        );
    }

    #[test]
    fn memory_lane_is_consistent() {
        let t = trace();
        let cfg = SimConfig::default().with_series();
        let result = simulate_machine_vec(
            &t,
            &cfg,
            &build(&[PredictorSpec::LimitSum, PredictorSpec::paper_max()]),
            &oc_trace::MemoryModel::default(),
        )
        .unwrap();
        // Limit-sum never violates in any lane.
        assert_eq!(result.reports[0].lane(MEM).violations, 0);
        assert_eq!(result.reports[0].lane(CPU).violations, 0);
        let s = result.series.as_ref().unwrap();
        // The memory oracle stays below the memory limit sum.
        for (po, l) in s.oracle.iter().zip(&s.limit) {
            assert!(po.lane(MEM) <= l.lane(MEM) + 1e-9);
        }
        // The machine actually uses memory.
        assert!(s.mem_usage.iter().any(|&m| m > 0.0));
        assert_eq!(result.capacity.lane(MEM), 1.0);
    }
}
