//! Integration tests for the live cluster and the A/B harness.

use overcommit_repro::core::config::SimConfig;
use overcommit_repro::core::predictor::PredictorSpec;
use overcommit_repro::scheduler::ab::{run_ab, AbConfig};
use overcommit_repro::scheduler::{
    run_cluster, run_cluster_assigned, ClusterConfig, PlacementPolicy,
};
use overcommit_repro::trace::cell::{CellConfig, CellPreset};
use overcommit_repro::trace::time::Tick;

fn cluster_cfg(predictor: PredictorSpec, machines: usize, ticks: u64) -> ClusterConfig {
    let mut cell = CellConfig::preset(CellPreset::A);
    cell.machines = machines;
    ClusterConfig {
        cell,
        jobs_per_tick: 0.8,
        duration_ticks: ticks,
        sim: SimConfig::default(),
        predictor,
        placement: PlacementPolicy::WorstFit,
        arrival_seed: 21,
    }
}

/// Physical throttling: realized machine usage never exceeds capacity,
/// whatever the overcommit policy admits.
#[test]
fn throttling_enforces_capacity() {
    // An aggressive policy that badly overcommits.
    let out = run_cluster(&cluster_cfg(
        PredictorSpec::BorgDefault { phi: 0.2 },
        3,
        400,
    ))
    .unwrap();
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
    let out = run_cluster(&cluster_cfg(PredictorSpec::LimitSum, 3, 400)).unwrap();
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
    let base = run_cluster(&cluster_cfg(PredictorSpec::LimitSum, 4, 500)).unwrap();
    let over = run_cluster(&cluster_cfg(PredictorSpec::borg_default(), 4, 500)).unwrap();
    assert!(base.stats.rejected > 0, "stream must saturate the baseline");
    assert!(over.stats.admitted >= base.stats.admitted);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(mean(&over.stats.alloc_ratio) >= mean(&base.stats.alloc_ratio));
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
        let mut cfg = cluster_cfg(PredictorSpec::borg_default(), 3, 200);
        cfg.placement = placement;
        let a = run_cluster(&cfg).unwrap();
        let b = run_cluster(&cfg).unwrap();
        assert_eq!(a.stats.admitted, b.stats.admitted, "{placement:?}");
        assert_eq!(a.stats.usage_ratio, b.stats.usage_ratio, "{placement:?}");
    }
}

/// Mixed assignment really deploys different policies: with limit-sum on
/// even machines and deep overcommit on odd ones, only odd machines can
/// be allocated past capacity.
#[test]
fn mixed_assignment_respects_parity() {
    let cfg = cluster_cfg(PredictorSpec::LimitSum, 4, 300);
    let out = run_cluster_assigned(&cfg, |i| {
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

/// The A/B harness: replaying each machine's trace under its own policy
/// gives the predictions the machine computed online, bit for bit. The
/// online machine retires tasks in order, so its view sums a machine's
/// tasks in the order the replay does.
#[test]
fn ab_replay_matches_online_predictions() {
    let mut cell = CellConfig::preset(CellPreset::A);
    cell.machines = 4;
    let mut cfg = AbConfig::paper_default(cell, 0.5);
    cfg.duration_ticks = 250;
    cfg.replay_threads = 2;

    // Run the underlying mixed cluster manually to capture online data.
    let cluster_cfg = ClusterConfig {
        cell: cfg.cell.clone(),
        jobs_per_tick: cfg.jobs_per_tick,
        duration_ticks: cfg.duration_ticks,
        sim: cfg.sim.clone(),
        predictor: cfg.control.clone(),
        placement: cfg.placement,
        arrival_seed: cfg.arrival_seed,
    };
    let online = run_cluster_assigned(&cluster_cfg, |i| {
        if i % 2 == 0 {
            cfg.control.clone()
        } else {
            cfg.experiment.clone()
        }
    })
    .unwrap();

    // Replay every machine under its group's policy (parity, as above).
    assert_eq!(online.traces.len(), 4);
    for (idx, trace) in online.traces.iter().enumerate() {
        let spec = if idx % 2 == 0 {
            &cfg.control
        } else {
            &cfg.experiment
        };
        let replayed = overcommit_repro::core::sim::simulate_machine(
            trace,
            &cfg.sim.clone().with_series(),
            &[spec.build().unwrap()],
        )
        .unwrap();
        let series = replayed.series.unwrap();
        for (t, (a, b)) in online.machine_prediction[idx]
            .iter()
            .zip(series.predictions[0].iter())
            .enumerate()
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "machine {idx} tick {t}: online {a} vs replay {b}"
            );
        }
    }
}

/// The full A/B harness is deterministic and its groups partition the
/// cluster.
#[test]
fn ab_outcome_shape() {
    let mut cell = CellConfig::preset(CellPreset::A);
    cell.machines = 6;
    let mut cfg = AbConfig::paper_default(cell, 0.4);
    cfg.duration_ticks = 200;
    cfg.replay_threads = 2;
    let out = run_ab(&cfg).unwrap();
    assert_eq!(out.control.replay.results.len(), 3);
    assert_eq!(out.experiment.replay.results.len(), 3);
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

/// A reduced-scale A/B run is pinned bit for bit: both groups' replay
/// reports (every Welford moment, through `Debug`'s shortest round-trip
/// floats), their per-tick stats series and the admission rate. Any edit
/// to the machine tick, placement or replay that moves one bit moves the
/// digest.
#[test]
fn ab_outcome_bits_are_pinned() {
    let mut cell = CellConfig::preset(CellPreset::A);
    cell.machines = 6;
    let mut cfg = AbConfig::paper_default(cell, 0.5);
    cfg.duration_ticks = 300;
    cfg.replay_threads = 2;
    cfg.experiment = PredictorSpec::seasonal_max();
    let out = run_ab(&cfg).unwrap();
    let mut words = vec![out.admission_rate.to_bits()];
    for g in [&out.control, &out.experiment] {
        for r in &g.replay.results {
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
