//! [`MachineView::observe`] leaves the same state whatever order a tick
//! lists its tasks in: ascending, reversed, shuffled, with a task listed
//! twice, or empty. After every tick the view is checked against a
//! brute-force model that keeps every task's samples: the task set,
//! ages, limit sums, each window's reads and the warm-usage sum, in the
//! order the tick listed its tasks.

use oc_core::config::SimConfig;
use oc_core::view::MachineView;
use oc_stats::percentile_of_sorted;
use oc_trace::ids::{JobId, TaskId};
use oc_trace::time::Tick;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Tasks a tick picks from: 4 jobs × 3 instances.
const TASKS: u64 = 12;

/// Window size and warm-up of the views under test: short enough that
/// windows wrap and tasks warm up within a case.
const W: usize = 10;
const MIN: usize = 3;

fn task(k: u64) -> TaskId {
    TaskId::new(JobId(k / 3), (k % 3) as u32)
}

/// A small xorshift stream for the per-tick draws.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The observations of one tick, `(task, limit, usage)`: the tasks of
/// `mask` listed in ascending order (`order` 0), reversed (1), shuffled
/// (2), ascending with one of them listed again at the end (3), or none
/// at all (4). Usage is drawn from a few tied values and a random one;
/// a task's limit changes now and then.
fn tick_obs(mask: u64, order: u64, seed: u64) -> Vec<(TaskId, f64, f64)> {
    let mut state = seed | 1;
    let mut obs: Vec<(TaskId, f64, f64)> = (0..TASKS)
        .filter(|k| mask >> k & 1 == 1)
        .map(|k| {
            let r = next(&mut state);
            let usage = match r % 5 {
                0 => 0.0,
                1 => 0.25,
                2 => 0.5,
                _ => (r >> 11) as f64 / (1u64 << 53) as f64,
            };
            let limit = 0.1 + 0.05 * k as f64 + if r.is_multiple_of(11) { 0.01 } else { 0.0 };
            (task(k), limit, usage)
        })
        .collect();
    match order {
        0 => {}
        1 => obs.reverse(),
        2 => {
            for i in (1..obs.len()).rev() {
                let j = (next(&mut state) % (i as u64 + 1)) as usize;
                obs.swap(i, j);
            }
        }
        3 => {
            if !obs.is_empty() {
                let (id, limit, _) = obs[(next(&mut state) % obs.len() as u64) as usize];
                obs.push((id, limit, 0.75));
            }
        }
        _ => obs.clear(),
    }
    obs
}

/// What a view must hold for one task: its limit, age and every sample
/// since it last arrived.
#[derive(Default)]
struct ModelTask {
    limit: f64,
    age: usize,
    samples: Vec<f64>,
}

/// Feeds one tick to the model and returns its warm-usage sum, added up
/// in the tick's order.
fn model_tick(model: &mut BTreeMap<TaskId, ModelTask>, obs: &[(TaskId, f64, f64)]) -> f64 {
    let mut warm = 0.0;
    for &(id, limit, usage) in obs {
        let t = model.entry(id).or_default();
        t.limit = limit;
        t.age += 1;
        t.samples.push(usage);
        if t.age >= MIN {
            warm += usage;
        }
    }
    model.retain(|id, _| obs.iter().any(|(seen, _, _)| seen == id));
    warm
}

/// Compares the view with the model after tick `i`. Until a first task
/// arrives (`seen_any`), a view holds the `+0.0` sums it was built with;
/// from then on its sums are the sums over its tasks in `TaskId` order.
fn check_view(
    view: &MachineView,
    model: &BTreeMap<TaskId, ModelTask>,
    warm: f64,
    seen_any: bool,
    i: usize,
) -> Result<(), String> {
    let ids: Vec<TaskId> = view.tasks().map(|(id, _)| *id).collect();
    let want: Vec<TaskId> = model.keys().copied().collect();
    prop_assert_eq!(ids, want, "task set after tick {}", i);
    let (total, cold): (f64, f64) = if seen_any {
        let cold = model.values().filter(|t| t.age < MIN).map(|t| t.limit);
        (model.values().map(|t| t.limit).sum(), cold.sum())
    } else {
        (0.0, 0.0)
    };
    prop_assert_eq!(
        view.total_limit().to_bits(),
        total.to_bits(),
        "total limit after tick {}",
        i
    );
    prop_assert_eq!(
        view.cold_limit_sum().to_bits(),
        cold.to_bits(),
        "cold limit sum after tick {}",
        i
    );
    for ((id, t), m) in view.tasks().zip(model.values()) {
        let w = t.window();
        let mut last: Vec<f64> = m.samples[m.samples.len().saturating_sub(W)..].to_vec();
        last.sort_by(f64::total_cmp);
        prop_assert_eq!(t.age(), m.age, "age of {} after tick {}", id, i);
        prop_assert_eq!(
            w.len(),
            last.len(),
            "window length of {} after tick {}",
            id,
            i
        );
        prop_assert_eq!(
            w.max().map(f64::to_bits),
            last.last().map(|x| x.to_bits()),
            "max of {} after tick {}",
            id,
            i
        );
        prop_assert_eq!(
            w.percentile(99.0).unwrap().to_bits(),
            percentile_of_sorted(&last, 99.0).unwrap().to_bits(),
            "p99 of {} after tick {}",
            id,
            i
        );
    }
    prop_assert_eq!(
        view.warm_aggregate().last().map(f64::to_bits),
        Some(warm.to_bits()),
        "warm-usage sum after tick {}",
        i
    );
    Ok(())
}

proptest! {
    /// Views of depth 3 (the paper's p99 over the window) and of the full
    /// window, fed ticks in any order, match the model after every tick.
    #[test]
    fn observe_state_is_independent_of_tick_order(
        ticks in proptest::collection::vec((0u64..1 << TASKS, 0u64..5, 0u64..1 << 40), 1..60),
    ) {
        let mut cfg = SimConfig::default();
        cfg.min_num_samples = MIN;
        cfg.max_num_samples = W;
        let mut views = [MachineView::with_depth(1.0, &cfg, 3), MachineView::new(1.0, &cfg)];
        let mut model = BTreeMap::new();
        let mut seen_any = false;
        for (i, &(mask, order, seed)) in ticks.iter().enumerate() {
            let obs = tick_obs(mask, order, seed);
            let warm = model_tick(&mut model, &obs);
            seen_any |= !obs.is_empty();
            for view in &mut views {
                view.observe(Tick(i as u64), obs.iter().copied());
                check_view(view, &model, warm, seen_any, i)?;
            }
        }
    }
}
