//! Property-based tests for the trace substrate: generator invariants and
//! CSV round-tripping.

use overcommit_repro::trace::cell::{CellConfig, CellPreset};
use overcommit_repro::trace::csv::{read_machines, write_machines};
use overcommit_repro::trace::gen::WorkloadGenerator;
use overcommit_repro::trace::ids::MachineId;
use overcommit_repro::trace::sample::{UsageMetric, UsageSample};
use overcommit_repro::trace::time::{Tick, SUBSAMPLES_PER_TICK};
use proptest::prelude::*;

/// One tick's subsample window, from a drawn vector of that length.
fn window(points: &[f64]) -> [f64; SUBSAMPLES_PER_TICK] {
    points.try_into().expect("one window's worth of points")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every machine the generator emits validates, has per-task usage
    /// capped at the limit, and consistent sample summaries — across
    /// random seeds and durations.
    #[test]
    fn generated_machines_are_well_formed(
        seed in 0u64..1_000_000,
        ticks in 24u64..240,
        machine in 0u32..4,
    ) {
        let mut cell = CellConfig::preset(CellPreset::A);
        cell.seed = seed;
        cell.duration_ticks = ticks;
        cell.machines = 4;
        let gen = WorkloadGenerator::new(cell).unwrap();
        let m = gen.generate_machine(MachineId(machine)).unwrap();
        m.validate().unwrap();
        prop_assert!(m.task_count() > 0);
        for task in &m.tasks {
            for s in &task.samples {
                prop_assert!(s.is_consistent(), "inconsistent sample in {}", task.spec.id);
                prop_assert!(
                    s.max <= task.spec.limit + 1e-9,
                    "task {} usage {} above limit {}",
                    task.spec.id,
                    s.max,
                    task.spec.limit
                );
            }
        }
        // Ground truth: within-tick peak at least the per-tick average and
        // at most the sum of per-task maxima.
        for t in (0..ticks).map(Tick) {
            let i = t.index() as usize;
            let max_sum = m.total_usage_at(t, UsageMetric::Max);
            prop_assert!(m.true_peak[i] <= max_sum + 1e-9);
            prop_assert!(m.true_peak[i] + 1e-9 >= m.avg_usage[i]);
        }
    }

    /// CSV round-trips preserve generated machines exactly.
    #[test]
    fn csv_roundtrip_is_lossless(seed in 0u64..100_000, ticks in 12u64..60) {
        let mut cell = CellConfig::preset(CellPreset::C);
        cell.seed = seed;
        cell.duration_ticks = ticks;
        cell.machines = 2;
        let gen = WorkloadGenerator::new(cell).unwrap();
        let machines = gen.generate_cell().unwrap();
        let mut buf = Vec::new();
        write_machines(&mut buf, &machines).unwrap();
        let back = read_machines(buf.as_slice()).unwrap();
        prop_assert_eq!(machines.len(), back.len());
        for (a, b) in machines.iter().zip(back.iter()) {
            prop_assert_eq!(a.machine, b.machine);
            prop_assert_eq!(&a.true_peak, &b.true_peak);
            prop_assert_eq!(&a.avg_usage, &b.avg_usage);
            prop_assert_eq!(a.tasks.len(), b.tasks.len());
            for (x, y) in a.tasks.iter().zip(b.tasks.iter()) {
                prop_assert_eq!(&x.spec, &y.spec);
                prop_assert_eq!(&x.samples, &y.samples);
            }
        }
    }

    /// Usage summaries computed from arbitrary finite subsample windows
    /// are internally consistent.
    #[test]
    fn summaries_are_consistent(points in proptest::collection::vec(0.0f64..100.0, SUBSAMPLES_PER_TICK)) {
        let s = UsageSample::from_subsamples(&window(&points)).unwrap();
        prop_assert!(s.is_consistent());
        let max = points.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(s.max, max);
    }

    /// Percentile interpolation is monotone in the percentile and hits
    /// the stored anchors.
    #[test]
    fn interpolation_monotone(points in proptest::collection::vec(0.0f64..10.0, SUBSAMPLES_PER_TICK)) {
        let s = UsageSample::from_subsamples(&window(&points)).unwrap();
        let mut last = f64::NEG_INFINITY;
        for p in [50.0, 55.0, 60.0, 70.0, 80.0, 90.0, 95.0, 99.0, 100.0] {
            let v = UsageMetric::interpolate(&s, p);
            prop_assert!(v + 1e-12 >= last, "not monotone at p{p}");
            last = v;
        }
        prop_assert!((UsageMetric::interpolate(&s, 90.0) - s.p90).abs() < 1e-12);
        prop_assert!((UsageMetric::interpolate(&s, 100.0) - s.max).abs() < 1e-12);
    }
}

/// Every preset generates a valid, non-trivial workload (smoke over the
/// full preset matrix at short duration).
#[test]
fn all_presets_generate() {
    for preset in CellConfig::trace_cells()
        .into_iter()
        .chain(CellConfig::production_cells())
    {
        let mut cell = preset;
        cell.machines = 2;
        cell.duration_ticks = 48;
        let gen = WorkloadGenerator::new(cell).unwrap();
        let machines = gen.generate_cell().unwrap();
        assert_eq!(machines.len(), 2);
        for m in &machines {
            assert!(m.task_count() > 0, "{}: no tasks", gen.config().id);
        }
    }
}
