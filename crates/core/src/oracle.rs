//! The clairvoyant peak oracle (Section 3 of the paper).
//!
//! The oracle at time `τ` is the future peak usage of the tasks *scheduled
//! at `τ`*: `PO(J_s, τ) = max_{τ ≤ t < τ+H} Σ_{i ∈ J_s} Uᵢ(t)`, with
//! completed tasks contributing zero. Tasks that arrive after `τ` are not
//! in `J_s` and therefore not seen — this is what makes the oracle the
//! boundary of *safe* admission: it bounds what the already-admitted
//! workload can do, and consequently never exceeds the sum of limits
//! (which is why borg-default's violation severity is structurally capped
//! at `1 − φ`, as Section 5.4 observes).
//!
//! Computation per machine is O(samples + ticks · log ticks): tasks'
//! usage series are added into a [`MaxTree`]'s leaves as the scan passes
//! their start tick, one bottom-up rebuild per tick refreshes the maxima
//! above the leaves that tick's admissions touched, and each `τ` issues one
//! range-max query over `[τ, τ+H)`. A task alive at `τ` contributes over
//! its whole remaining lifetime; a task that started after `τ` has not been
//! added yet when `τ` is queried — queries are issued *before* admitting
//! tasks of later ticks.

use crate::segtree::MaxTree;
use oc_trace::memory::MemoryModel;
use oc_trace::sample::{UsageMetric, UsageSample};
use oc_trace::time::Tick;
use oc_trace::{MachineTrace, TaskTrace};

/// Sliding-window future maximum of a fixed series.
///
/// `out[i] = max(series[i..min(i + horizon, n)])`, computed in O(n) with a
/// monotonic deque. This is the oracle over a series that does not change
/// with `τ` — e.g. a single task's own usage, or a machine's ground-truth
/// peak when arrival effects are deliberately included.
///
/// # Examples
///
/// ```
/// use oc_core::oracle::future_peak;
///
/// let po = future_peak(&[1.0, 5.0, 2.0, 4.0], 2);
/// assert_eq!(po, vec![5.0, 5.0, 4.0, 4.0]);
/// ```
pub fn future_peak(series: &[f64], horizon: u64) -> Vec<f64> {
    let n = series.len();
    let h = (horizon.max(1) as usize).min(n.max(1));
    let mut out = vec![0.0; n];
    let mut deque: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for i in (0..n).rev() {
        while let Some(&back) = deque.back() {
            if series[back] <= series[i] {
                deque.pop_back();
            } else {
                break;
            }
        }
        deque.push_back(i);
        while let Some(&front) = deque.front() {
            if front >= i + h {
                deque.pop_front();
            } else {
                break;
            }
        }
        out[i] = series[*deque.front().expect("deque holds at least i")];
    }
    out
}

/// Per-tick peak-oracle series for a machine, restricted to the tasks
/// scheduled at each tick (the paper's `PO(J_s, τ)`).
///
/// `metric` selects which field of the 5-minute usage summary represents a
/// task's usage — the paper uses the 90th percentile as its conservative
/// machine-peak estimate (Section 5.1.2). Usage is per-task capped at the
/// limit by the trace itself.
pub fn machine_oracle(trace: &MachineTrace, metric: UsageMetric, horizon_ticks: u64) -> Vec<f64> {
    scheduled_oracle(trace, horizon_ticks, |_, _, s| metric.of(s))
}

/// Per-tick memory-lane peak-oracle series for a machine, the analogue of
/// [`machine_oracle`] over the derived memory series.
///
/// Each task's memory usage at a tick is [`MemoryModel::usage`] of its CPU
/// usage (by `metric`) at that tick — the same value the vector replay
/// feeds the view — so oracle and prediction compare like for like.
pub fn memory_oracle(
    trace: &MachineTrace,
    model: &MemoryModel,
    metric: UsageMetric,
    horizon_ticks: u64,
) -> Vec<f64> {
    scheduled_oracle(trace, horizon_ticks, |task, t, s| {
        model.usage(&task.spec, t, metric.of(s))
    })
}

/// The scheduled-tasks oracle over the per-sample value `value(task, tick,
/// sample)`: the one scan behind [`machine_oracle`] and [`memory_oracle`].
///
/// The tasks a tick admits add their samples to the tree's leaves, in
/// task order, and one [`MaxTree::rebuild`] over the leaves they touched
/// runs before that tick's query. Every leaf sums the same values in the
/// same order as a point add per sample would, and every inner node is
/// the exact max of its children, so each oracle value keeps its bits.
fn scheduled_oracle<F>(trace: &MachineTrace, horizon_ticks: u64, mut value: F) -> Vec<f64>
where
    F: FnMut(&TaskTrace, Tick, &UsageSample) -> f64,
{
    let start = trace.horizon.start.index();
    let n = trace.horizon.len() as usize;
    let h = horizon_ticks.max(1) as usize;
    let mut tree = MaxTree::new(n);
    let mut out = vec![0.0; n];
    // Tasks are sorted by start tick.
    let mut next_task = 0usize;
    for i in 0..n {
        // Admit tasks starting at tick `start + i` *before* querying `τ = i`:
        // they are part of J_s at their start tick.
        let mut touched = i..i;
        while next_task < trace.tasks.len()
            && trace.tasks[next_task].spec.start.index() - start <= i as u64
        {
            let task = &trace.tasks[next_task];
            let t0 = (task.spec.start.index() - start) as usize;
            let end = (t0 + task.samples.len()).min(n);
            for (idx, s) in (t0..end).zip(&task.samples) {
                tree.add_leaf(idx, value(task, Tick(start + idx as u64), s));
            }
            touched = touched.start.min(t0)..touched.end.max(end);
            next_task += 1;
        }
        tree.rebuild(touched.start, touched.end);
        out[i] = tree.range_max(i, i + h);
    }
    out
}

/// Per-task future peak series (used by Figure 1's task-level aggregate).
///
/// For each tick of the task's lifetime, the maximum of the task's usage
/// (by `metric`) from that tick to the earlier of the task's end or the
/// horizon.
pub fn task_future_peak(task: &TaskTrace, metric: UsageMetric, horizon_ticks: u64) -> Vec<f64> {
    let series: Vec<f64> = task.samples.iter().map(|s| metric.of(s)).collect();
    future_peak(&series, horizon_ticks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oc_trace::cell::{CellConfig, CellPreset};
    use oc_trace::gen::WorkloadGenerator;
    use oc_trace::ids::MachineId;
    use oc_trace::time::Tick;

    #[test]
    fn empty_series() {
        assert!(future_peak(&[], 5).is_empty());
    }

    #[test]
    fn full_horizon_is_suffix_max() {
        let s = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let po = future_peak(&s, s.len() as u64 + 100);
        assert_eq!(po, vec![9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 6.0, 6.0]);
    }

    #[test]
    fn horizon_one_is_identity() {
        let s = [3.0, 1.0, 4.0];
        assert_eq!(future_peak(&s, 1), s.to_vec());
        assert_eq!(future_peak(&s, 0), s.to_vec());
    }

    #[test]
    fn sliding_max_matches_naive() {
        let s: Vec<f64> = (0..200)
            .map(|i| ((i * 2654435761u64) % 1000) as f64 / 1000.0)
            .collect();
        for horizon in [1u64, 2, 7, 50, 200, 500] {
            let fast = future_peak(&s, horizon);
            for i in 0..s.len() {
                let end = (i + horizon as usize).min(s.len());
                let naive = s[i..end].iter().copied().fold(f64::NEG_INFINITY, f64::max);
                assert_eq!(fast[i], naive, "i={i} horizon={horizon}");
            }
        }
    }

    fn trace() -> MachineTrace {
        let mut cell = CellConfig::preset(CellPreset::A);
        cell.duration_ticks = 288;
        WorkloadGenerator::new(cell)
            .unwrap()
            .generate_machine(MachineId(0))
            .unwrap()
    }

    /// Naive scheduled-tasks oracle for cross-checking, over the CPU
    /// metric or, given a memory model, the memory lane derived from it.
    fn naive_oracle(
        trace: &MachineTrace,
        metric: UsageMetric,
        mem: Option<&MemoryModel>,
        horizon: u64,
    ) -> Vec<f64> {
        let n = trace.horizon.len() as usize;
        let mut out = vec![0.0; n];
        for tau in 0..n {
            let alive: Vec<_> = trace
                .tasks
                .iter()
                .filter(|t| t.spec.alive_at(Tick(tau as u64)))
                .collect();
            let end = (tau + horizon as usize).min(n);
            let mut best = 0.0f64;
            for t in tau..end {
                let total: f64 = alive
                    .iter()
                    .map(|task| {
                        let tick = Tick(t as u64);
                        let cpu = task.sample_at(tick).map(|s| metric.of(s));
                        match (cpu, mem) {
                            (Some(u), Some(model)) => model.usage(&task.spec, tick, u),
                            (u, _) => u.unwrap_or(0.0),
                        }
                    })
                    .sum();
                best = best.max(total);
            }
            out[tau] = best;
        }
        out
    }

    #[test]
    fn scheduled_oracle_matches_naive() {
        let tr = trace();
        let model = MemoryModel::default();
        for horizon in [6u64, 48, 288] {
            let lanes = [
                (
                    "cpu",
                    machine_oracle(&tr, UsageMetric::P90, horizon),
                    naive_oracle(&tr, UsageMetric::P90, None, horizon),
                ),
                (
                    "mem",
                    memory_oracle(&tr, &model, UsageMetric::P90, horizon),
                    naive_oracle(&tr, UsageMetric::P90, Some(&model), horizon),
                ),
            ];
            for (lane, fast, naive) in lanes {
                assert!(fast.iter().any(|&v| v > 0.0), "{lane}: empty oracle");
                for i in 0..fast.len() {
                    assert!(
                        (fast[i] - naive[i]).abs() < 1e-9,
                        "{lane} tau={i} horizon={horizon}: fast {} vs naive {}",
                        fast[i],
                        naive[i]
                    );
                }
            }
        }
    }

    #[test]
    fn oracle_never_exceeds_limit_sum() {
        // PO(J_s, τ) <= Σ_{i in J_s} L_i: per-task usage is capped at the
        // limit and only scheduled tasks count.
        let tr = trace();
        let po = machine_oracle(&tr, UsageMetric::Max, 288);
        for tau in 0..po.len() {
            let limit = tr.total_limit_at(Tick(tau as u64));
            assert!(
                po[tau] <= limit + 1e-9,
                "tau={tau}: oracle {} above Σ limits {limit}",
                po[tau]
            );
        }
    }

    #[test]
    fn longer_horizon_never_smaller() {
        let tr = trace();
        let short = machine_oracle(&tr, UsageMetric::P90, 12);
        let long = machine_oracle(&tr, UsageMetric::P90, 288);
        for (a, b) in short.iter().zip(long.iter()) {
            assert!(b + 1e-12 >= *a);
        }
    }

    #[test]
    fn oracle_sees_present_usage() {
        // PO(τ) >= current total usage at τ.
        let tr = trace();
        let po = machine_oracle(&tr, UsageMetric::P90, 24);
        for tau in (0..po.len()).step_by(13) {
            let now = tr.total_usage_at(Tick(tau as u64), UsageMetric::P90);
            assert!(
                po[tau] + 1e-9 >= now,
                "tau={tau}: oracle {} below current usage {now}",
                po[tau]
            );
        }
    }

    #[test]
    fn task_future_peak_is_suffix_max_of_metric() {
        let tr = trace();
        let task = &tr.tasks[0];
        let fp = task_future_peak(task, UsageMetric::Max, u64::MAX);
        let series: Vec<f64> = task.samples.iter().map(|s| s.max).collect();
        let mut suffix = f64::NEG_INFINITY;
        let mut expected = vec![0.0; series.len()];
        for i in (0..series.len()).rev() {
            suffix = suffix.max(series[i]);
            expected[i] = suffix;
        }
        assert_eq!(fp, expected);
    }
}
