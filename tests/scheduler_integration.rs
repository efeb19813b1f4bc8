//! Integration tests for the live cluster and the A/B harness.

use overcommit_repro::core::config::SimConfig;
use overcommit_repro::core::metrics::MachineReport;
use overcommit_repro::core::predictor::PredictorSpec;
use overcommit_repro::core::sim::simulate_machine;
use overcommit_repro::scheduler::ab::{run_ab, AbConfig};
use overcommit_repro::scheduler::{
    run_cluster, ClusterConfig, ClusterOutcome, GroupStats, PlacementPolicy,
};
use overcommit_repro::stats::Welford;
use overcommit_repro::trace::cell::{CellConfig, CellPreset};
use overcommit_repro::trace::time::Tick;

fn cluster_cfg(machines: usize, ticks: u64) -> ClusterConfig {
    let mut cell = CellConfig::preset(CellPreset::A);
    cell.machines = machines;
    ClusterConfig {
        cell,
        jobs_per_tick: 0.8,
        duration_ticks: ticks,
        sim: SimConfig::default(),
        placement: PlacementPolicy::WorstFit,
        arrival_seed: 21,
    }
}

/// Runs `cfg` with `spec` on every machine.
fn run_uniform(cfg: &ClusterConfig, spec: PredictorSpec) -> ClusterOutcome {
    run_cluster(cfg, |_| spec.clone()).unwrap()
}

/// The cluster-wide per-tick aggregates.
fn all_machines(out: &ClusterOutcome) -> GroupStats {
    out.group_stats(&(0..out.traces.len()).collect::<Vec<_>>())
}

/// Physical throttling: realized machine usage never exceeds capacity,
/// whatever the overcommit policy admits.
#[test]
fn throttling_enforces_capacity() {
    // An aggressive policy that badly overcommits.
    let out = run_uniform(
        &cluster_cfg(3, 400),
        PredictorSpec::BorgDefault { phi: 0.2 },
    );
    for m in &out.traces {
        for &peak in &m.true_peak {
            assert!(
                peak <= m.capacity + 1e-9,
                "machine {} realized peak {peak} above capacity",
                m.machine
            );
        }
    }
    // Demand, in contrast, must have exceeded capacity somewhere for the
    // assertion above to be exercised.
    assert!(out
        .demand_peak
        .iter()
        .flatten()
        .any(|&d| d > out.traces[0].capacity));
}

/// The admission rule `P(J_s) + Σ pending + L ≤ M` holds at every
/// admission: with the no-overcommit policy this means Σ limits never
/// exceeds capacity.
#[test]
fn no_overcommit_never_exceeds_capacity() {
    let out = run_uniform(&cluster_cfg(3, 400), PredictorSpec::LimitSum);
    for m in &out.traces {
        for t in (0..400).map(Tick) {
            assert!(
                m.total_limit_at(t) <= m.capacity + 1e-9,
                "machine {} allocated past capacity at {t}",
                m.machine
            );
        }
    }
}

/// Overcommit admits at least as many tasks as no-overcommit under the
/// same offered stream, and savings translate to higher allocations.
#[test]
fn overcommit_admits_more() {
    let base = run_uniform(&cluster_cfg(4, 500), PredictorSpec::LimitSum);
    let over = run_uniform(&cluster_cfg(4, 500), PredictorSpec::borg_default());
    assert!(base.stats.rejected > 0, "stream must saturate the baseline");
    assert!(over.stats.admitted >= base.stats.admitted);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(mean(&all_machines(&over).alloc_ratio) >= mean(&all_machines(&base).alloc_ratio));
}

/// Placement policies all place onto feasible machines and are
/// deterministic given the seed.
#[test]
fn placement_policies_run_and_are_deterministic() {
    for placement in [
        PlacementPolicy::FirstFit,
        PlacementPolicy::BestFit,
        PlacementPolicy::WorstFit,
        PlacementPolicy::RandomK(3),
    ] {
        let mut cfg = cluster_cfg(3, 200);
        cfg.placement = placement;
        let a = run_uniform(&cfg, PredictorSpec::borg_default());
        let b = run_uniform(&cfg, PredictorSpec::borg_default());
        assert_eq!(a.stats.admitted, b.stats.admitted, "{placement:?}");
        assert_eq!(
            all_machines(&a).usage_ratio,
            all_machines(&b).usage_ratio,
            "{placement:?}"
        );
    }
}

/// Mixed assignment really deploys different policies: with limit-sum on
/// even machines and deep overcommit on odd ones, only odd machines can
/// be allocated past capacity.
#[test]
fn mixed_assignment_respects_parity() {
    let out = run_cluster(&cluster_cfg(4, 300), |i| {
        if i % 2 == 0 {
            PredictorSpec::LimitSum
        } else {
            PredictorSpec::BorgDefault { phi: 0.5 }
        }
    })
    .unwrap();
    let mut odd_overcommitted = false;
    for (i, m) in out.traces.iter().enumerate() {
        let max_alloc = (0..300)
            .map(|t| m.total_limit_at(Tick(t)))
            .fold(0.0f64, f64::max);
        if i % 2 == 0 {
            assert!(
                max_alloc <= m.capacity + 1e-9,
                "control machine {i} overcommitted"
            );
        } else if max_alloc > m.capacity {
            odd_overcommitted = true;
        }
    }
    assert!(
        odd_overcommitted,
        "overcommit machines never exceeded capacity"
    );
}

/// The bits of a Welford accumulator's moments.
fn moment_bits(w: &Welford) -> [u64; 5] {
    [
        w.count(),
        w.mean().to_bits(),
        w.population_variance().to_bits(),
        w.min().to_bits(),
        w.max().to_bits(),
    ]
}

/// The A/B harness scores the predictions each machine served. An
/// offline replay of every machine's realized trace under its own policy
/// is the reference: it must give the scored report bit for bit, every
/// counter and every Welford moment. The online machine retires tasks in
/// order, so its view sums a machine's tasks in the order the replay
/// does.
#[test]
fn ab_reports_equal_an_offline_replay() {
    let mut cell = CellConfig::preset(CellPreset::A);
    cell.machines = 4;
    let mut cfg = AbConfig::paper_default(cell, 0.5);
    cfg.cluster.duration_ticks = 250;
    let out = run_ab(&cfg).unwrap();

    // The same cluster again, for the realized traces the reports scored.
    let cluster = run_cluster(&cfg.cluster, |i| cfg.policy(i).clone()).unwrap();
    assert_eq!(cluster.traces.len(), 4);
    for (idx, trace) in cluster.traces.iter().enumerate() {
        let group = if idx % 2 == 0 {
            &out.control
        } else {
            &out.experiment
        };
        let scored = &group.reports.results[idx / 2];
        assert_eq!(scored.machine, trace.machine);
        let replayed =
            simulate_machine(trace, &cfg.cluster.sim, &[cfg.policy(idx).build().unwrap()]).unwrap();
        let [a]: &[MachineReport; 1] = scored.reports.as_slice().try_into().unwrap();
        let [b]: &[MachineReport; 1] = replayed.reports.as_slice().try_into().unwrap();
        assert_eq!(
            (a.machine, &a.predictor, a.ticks, a.violations),
            (b.machine, &b.predictor, b.ticks, b.violations),
            "machine {idx}"
        );
        assert_eq!(a.ticks, 250);
        for (name, x, y) in [
            ("severity", &a.severity, &b.severity),
            ("savings", &a.savings, &b.savings),
            ("prediction", &a.prediction, &b.prediction),
            ("oracle", &a.oracle, &b.oracle),
            ("limit", &a.limit, &b.limit),
        ] {
            assert_eq!(moment_bits(x), moment_bits(y), "machine {idx} {name}");
        }
        // `Debug` prints shortest round-trip floats, so this also compares
        // each accumulator's second moment sum exactly.
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "machine {idx}");
    }
}

/// The full A/B harness is deterministic and its groups partition the
/// cluster.
#[test]
fn ab_outcome_shape() {
    let mut cell = CellConfig::preset(CellPreset::A);
    cell.machines = 6;
    let mut cfg = AbConfig::paper_default(cell, 0.4);
    cfg.cluster.duration_ticks = 200;
    let out = run_ab(&cfg).unwrap();
    assert_eq!(out.control.reports.results.len(), 3);
    assert_eq!(out.experiment.reports.results.len(), 3);
    assert_eq!(out.control.stats.alloc_ratio.len(), 200);
    assert!(out.admission_rate > 0.0);
}

/// FNV-1a over a stream of 64-bit words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// A reduced-scale A/B run is pinned bit for bit: both groups' scored
/// reports (every Welford moment, through `Debug`'s shortest round-trip
/// floats), their per-tick stats series and the admission rate. Any edit
/// to the machine tick, placement or scoring that moves one bit moves the
/// digest.
#[test]
fn ab_outcome_bits_are_pinned() {
    let mut cell = CellConfig::preset(CellPreset::A);
    cell.machines = 6;
    let mut cfg = AbConfig::paper_default(cell, 0.5);
    cfg.cluster.duration_ticks = 300;
    cfg.experiment = PredictorSpec::seasonal_max();
    let out = run_ab(&cfg).unwrap();
    let mut words = vec![out.admission_rate.to_bits()];
    for g in [&out.control, &out.experiment] {
        for r in &g.reports.results {
            for report in &r.reports {
                words.extend(format!("{report:?}").bytes().map(u64::from));
            }
        }
        for series in [&g.stats.alloc_ratio, &g.stats.usage_ratio, &g.stats.savings] {
            words.extend(series.iter().map(|v| v.to_bits()));
        }
    }
    assert_eq!(
        fnv1a(words),
        0x501d_5318_8d86_f865,
        "A/B outcome bits moved"
    );
}
