//! Smoke test: the online service and the offline simulator agree
//! bit-for-bit.
//!
//! The same generated machine is (a) run through `simulate_machine` with
//! series recording and (b) streamed tick by tick through the typed
//! `oc-client` as `OBSERVE` calls followed by one `PREDICT` per tick.
//! Because the wire protocol uses shortest-round-trip float formatting,
//! the shard's `IncrementalView` replays the exact sample stream the
//! simulator's `MachineView` saw, and every served prediction must match
//! the offline one to the last bit.
//!
//! The chaos variant re-runs the identity with seeded fault injection on
//! the client's sockets — delays, partial reads/writes, dropped
//! connections. The client's retries are safe because ingestion is
//! idempotent per `(tick, task)`: a re-sent sample for a still-pending
//! tick updates in place bit-identically. So even with ~8% of socket
//! operations faulted, *every* served prediction must still equal the
//! offline reference exactly.
//!
//! The shard clamps its answers with `clamp_prediction` (served numbers
//! must be actionable), while the recorded series keeps raw predictor
//! output — so the offline reference is `raw.clamp(0.0, Σ limits)` with
//! the recorded per-tick limit sum.
//!
//! Ticks with zero live tasks are skipped: the simulator observes them as
//! explicit empty ticks, while the service synthesizes them by gap-filling
//! only once a *later* sample arrives — a `PREDICT` issued at the empty
//! tick itself therefore sees the pre-gap state. State re-converges at the
//! next sample, which the test confirms by comparing every non-empty tick.

use overcommit_repro::client::{Client, ClientConfig};
use overcommit_repro::core::config::SimConfig;
use overcommit_repro::core::predictor::PredictorSpec;
use overcommit_repro::core::sim::simulate_machine;
use overcommit_repro::scheduler::arrival::TaskRequest;
use overcommit_repro::scheduler::machine::SimMachine;
use overcommit_repro::serve::fault::FaultPlan;
use overcommit_repro::serve::proto::{Request, Response};
use overcommit_repro::serve::{ServeConfig, Server};
use overcommit_repro::trace::cell::{CellConfig, CellPreset};
use overcommit_repro::trace::ids::{CellId, JobId, TaskId};
use overcommit_repro::trace::task::SchedulingClass;
use overcommit_repro::trace::time::Tick;
use overcommit_repro::trace::{MachineId, WorkloadGenerator};
use std::time::Duration;

/// Replays machines 0..4 of a small preset-A cell through a server and
/// asserts bit-identity of every served prediction against the offline
/// simulator. `client_cfg` lets the chaos variant inject faults.
fn assert_online_matches_offline(client_cfg: &ClientConfig) -> u64 {
    let mut cell = CellConfig::preset(CellPreset::A);
    cell.machines = 4;
    cell.duration_ticks = 96; // 8 hours of 5-minute ticks
    let generator = WorkloadGenerator::new(cell).unwrap();

    let sim_cfg = SimConfig::default().with_series();
    let spec = PredictorSpec::paper_max();
    let mut faults_total = 0u64;

    for m in 0..4u32 {
        let trace = generator.generate_machine(MachineId(m)).unwrap();

        // Offline reference: raw per-tick predictions + limit sums.
        let predictors = vec![spec.build().unwrap()];
        let result = simulate_machine(&trace, &sim_cfg, &predictors).unwrap();
        let series = result.series.as_ref().expect("series recording enabled");

        // Online replay: same machine, same predictor, same sim config,
        // same per-machine capacity.
        let server = Server::start(
            ServeConfig::default()
                .with_shards(3) // deliberately co-prime with nothing
                .with_capacity(trace.capacity)
                .with_predictor(spec.clone())
                .with_sim(sim_cfg.clone()),
        )
        .unwrap();

        let mut client = Client::connect(server.addr(), client_cfg.clone()).unwrap();
        let cell_id = CellId::new("smoke");

        let mut compared = 0usize;
        let mut predicts_sent = 0u64;
        for (i, t) in trace.horizon.iter().enumerate() {
            // Stream the tick's samples in trace task order — the order
            // `drive_ticks` feeds the simulator's view. Sequential typed
            // calls keep each sample acknowledged before the next is
            // sent, so a chaos retry always re-sends a still-pending
            // tick (idempotent, bit-identical).
            let mut sent = 0usize;
            for task in trace.tasks_at(t) {
                let usage = task
                    .sample_at(t)
                    .map(|s| sim_cfg.metric.of(s))
                    .unwrap_or(0.0);
                client
                    .observe(
                        &cell_id,
                        trace.machine,
                        task.spec.id,
                        usage,
                        task.spec.limit,
                        t.0,
                    )
                    .unwrap_or_else(|e| panic!("machine {m} tick {i}: {e}"));
                sent += 1;
            }
            if sent == 0 {
                continue; // empty tick — see the module docs
            }
            let served = client
                .predict(&cell_id, trace.machine)
                .unwrap_or_else(|e| panic!("machine {m} tick {i}: {e}"));
            predicts_sent += 1;

            let offline = series.predictions[0][i].clamp(0.0, series.limit[i]);
            assert_eq!(
                served.to_bits(),
                offline.to_bits(),
                "machine {m} tick {i}: served {served} != offline {offline}"
            );
            compared += 1;
        }

        assert!(
            compared * 2 >= trace.horizon.len() as usize,
            "machine {m}: only {compared} of {} ticks had samples — too sparse to be a \
             meaningful identity check",
            trace.horizon.len()
        );

        faults_total += client.faults_injected();
        let retried = client.metrics().retries > 0;
        drop(client);
        let stats = server.shutdown();
        assert_eq!(stats.errors, 0);
        if !retried {
            // Without retries there are no duplicate sends, so the exact
            // request counts must survive the trip.
            assert_eq!(stats.predicts, predicts_sent);
            assert_eq!(stats.stale, 0);
        } else {
            // Retries may duplicate requests (idempotently); counts only
            // grow.
            assert!(stats.predicts >= predicts_sent);
        }
    }
    faults_total
}

/// Replays machines 0..4 through *pipelined* windows twice — unframed
/// and with `BATCH` framing — and asserts every served prediction is
/// bit-identical to the offline simulator and across the two replays.
///
/// This is the batched-ingest counterpart of
/// [`assert_online_matches_offline`]: the request script is identical
/// (tick-ordered samples, one `PREDICT` per non-empty tick), only the
/// transport framing differs, so any divergence pins the blame on the
/// `BATCH` data plane (frontend coalescing, the prediction cache, or the
/// zero-copy codec) rather than the workload.
fn assert_batched_matches_offline(client_cfg: &ClientConfig) -> u64 {
    let mut cell = CellConfig::preset(CellPreset::A);
    cell.machines = 4;
    cell.duration_ticks = 96;
    let generator = WorkloadGenerator::new(cell).unwrap();

    let sim_cfg = SimConfig::default().with_series();
    let spec = PredictorSpec::paper_max();
    let mut faults_total = 0u64;

    for m in 0..4u32 {
        let trace = generator.generate_machine(MachineId(m)).unwrap();

        let predictors = vec![spec.build().unwrap()];
        let result = simulate_machine(&trace, &sim_cfg, &predictors).unwrap();
        let series = result.series.as_ref().expect("series recording enabled");

        // One shared request script; `expect` maps each PREDICT's request
        // index to the offline reference bits for that tick.
        let cell_id = CellId::new("smoke");
        let mut reqs: Vec<Request> = Vec::new();
        let mut expect: Vec<(usize, u64)> = Vec::new();
        for (i, t) in trace.horizon.iter().enumerate() {
            let mut sent = 0usize;
            for task in trace.tasks_at(t) {
                let usage = task
                    .sample_at(t)
                    .map(|s| sim_cfg.metric.of(s))
                    .unwrap_or(0.0);
                reqs.push(Request::Observe {
                    cell: cell_id.clone(),
                    machine: trace.machine,
                    task: task.spec.id,
                    usage,
                    limit: task.spec.limit,
                    mem: None,
                    tick: t.0,
                });
                sent += 1;
            }
            if sent == 0 {
                continue; // empty tick — see the module docs
            }
            let offline = series.predictions[0][i].clamp(0.0, series.limit[i]);
            expect.push((reqs.len(), offline.to_bits()));
            reqs.push(Request::Predict {
                cell: cell_id.clone(),
                machine: trace.machine,
                vector: false,
            });
        }

        let mut replay = |batch: usize| -> Vec<u64> {
            let server = Server::start(
                ServeConfig::default()
                    .with_shards(3)
                    .with_capacity(trace.capacity)
                    .with_predictor(spec.clone())
                    .with_sim(sim_cfg.clone()),
            )
            .unwrap();
            let mut client = Client::connect(
                server.addr(),
                client_cfg
                    .clone()
                    .with_pipeline_window(64)
                    .with_batch(batch),
            )
            .unwrap();
            let mut got: Vec<Option<u64>> = vec![None; reqs.len()];
            client
                .pipeline_with(&reqs, |idx, resp, _| {
                    if let Response::Pred { peak, .. } = resp {
                        got[idx] = Some(peak.to_bits());
                    }
                })
                .unwrap_or_else(|e| panic!("machine {m} batch {batch}: {e}"));
            faults_total += client.faults_injected();
            drop(client);
            let stats = server.shutdown();
            assert_eq!(stats.errors, 0, "machine {m} batch {batch}");
            expect
                .iter()
                .map(|&(idx, _)| got[idx].expect("every PREDICT resolves"))
                .collect()
        };

        let unbatched = replay(1);
        let batched = replay(32);
        assert!(!expect.is_empty(), "machine {m}: no ticks had samples");
        for (k, &(_, offline_bits)) in expect.iter().enumerate() {
            assert_eq!(
                batched[k],
                offline_bits,
                "machine {m} predict {k}: batched {} != offline {}",
                f64::from_bits(batched[k]),
                f64::from_bits(offline_bits),
            );
            assert_eq!(
                unbatched[k], batched[k],
                "machine {m} predict {k}: unbatched and batched replays disagree"
            );
        }
    }
    faults_total
}

#[test]
fn served_predictions_match_offline_simulation_bit_for_bit() {
    let faults = assert_online_matches_offline(&ClientConfig::default());
    assert_eq!(faults, 0);
}

#[test]
fn served_predictions_survive_chaos_bit_for_bit() {
    let plan = FaultPlan::new(20210426, 0.08).with_max_delay(Duration::from_micros(200));
    let cfg = ClientConfig::default().with_seed(11).with_faults(plan);
    let faults = assert_online_matches_offline(&cfg);
    assert!(faults > 0, "chaos plan never fired");
}

#[test]
fn batched_ingest_matches_offline_bit_for_bit() {
    let faults = assert_batched_matches_offline(&ClientConfig::default());
    assert_eq!(faults, 0);
}

/// Batched ingest under chaos: *state* bit-identity.
///
/// With pipelining plus fault injection, a lost response makes the
/// client re-send a `PREDICT` the server may have already answered — and
/// by then later samples from the same window have been ingested, so
/// intermediate prediction bits are legitimately different from the
/// per-tick offline reference (true for unframed pipelining too; the
/// sequential chaos test above sidesteps it by acking each request
/// before the next). The invariant that must survive framing is the PR
/// 2/3 one: once every acknowledged sample has landed, the served state
/// is bit-identical to the offline `MachineView` replay. So this test
/// streams every sample through chaos-faulted `BATCH` frames, then asks
/// a clean client for one final `PREDICT` and requires it to match the
/// offline final-tick prediction to the last bit.
#[test]
fn batched_ingest_survives_chaos_bit_for_bit() {
    let mut cell = CellConfig::preset(CellPreset::A);
    cell.machines = 4;
    cell.duration_ticks = 96;
    let generator = WorkloadGenerator::new(cell).unwrap();

    let sim_cfg = SimConfig::default().with_series();
    let spec = PredictorSpec::paper_max();
    let mut faults_total = 0u64;

    for m in 0..4u32 {
        let trace = generator.generate_machine(MachineId(m)).unwrap();

        let predictors = vec![spec.build().unwrap()];
        let result = simulate_machine(&trace, &sim_cfg, &predictors).unwrap();
        let series = result.series.as_ref().expect("series recording enabled");

        let cell_id = CellId::new("smoke");
        let mut reqs: Vec<Request> = Vec::new();
        let mut last_offline: Option<u64> = None;
        for (i, t) in trace.horizon.iter().enumerate() {
            let mut sent = 0usize;
            for task in trace.tasks_at(t) {
                let usage = task
                    .sample_at(t)
                    .map(|s| sim_cfg.metric.of(s))
                    .unwrap_or(0.0);
                reqs.push(Request::Observe {
                    cell: cell_id.clone(),
                    machine: trace.machine,
                    task: task.spec.id,
                    usage,
                    limit: task.spec.limit,
                    mem: None,
                    tick: t.0,
                });
                sent += 1;
            }
            if sent > 0 {
                let offline = series.predictions[0][i].clamp(0.0, series.limit[i]);
                last_offline = Some(offline.to_bits());
            }
        }
        let expected = last_offline.expect("machine has at least one sample");

        let server = Server::start(
            ServeConfig::default()
                .with_shards(3)
                .with_capacity(trace.capacity)
                .with_predictor(spec.clone())
                .with_sim(sim_cfg.clone()),
        )
        .unwrap();

        let plan = FaultPlan::new(20210426 + u64::from(m), 0.08)
            .with_max_delay(Duration::from_micros(200));
        let mut chaos_client = Client::connect(
            server.addr(),
            ClientConfig::default()
                .with_seed(11)
                .with_faults(plan)
                .with_pipeline_window(64)
                .with_batch(32),
        )
        .unwrap();
        let mut acked = 0u64;
        chaos_client
            .pipeline_with(&reqs, |_, resp, _| {
                if matches!(resp, Response::Ok) {
                    acked += 1;
                }
            })
            .unwrap_or_else(|e| panic!("machine {m}: {e}"));
        assert_eq!(acked, reqs.len() as u64, "machine {m}: unresolved samples");
        faults_total += chaos_client.faults_injected();
        drop(chaos_client);

        let mut clean = Client::connect(server.addr(), ClientConfig::default()).unwrap();
        let served = clean
            .predict(&cell_id, trace.machine)
            .unwrap_or_else(|e| panic!("machine {m}: {e}"));
        assert_eq!(
            served.to_bits(),
            expected,
            "machine {m}: final served state {served} != offline {}",
            f64::from_bits(expected),
        );
        drop(clean);

        let stats = server.shutdown();
        assert_eq!(stats.errors, 0, "machine {m}");
        assert!(
            stats.observes + stats.stale >= acked,
            "machine {m}: lost acked samples: {stats:?}"
        );
    }
    assert!(faults_total > 0, "chaos plan never fired");
}

/// The served `ADMIT` gates every lane the machine has. The powercap
/// demo's memory hogs (CPU 0.05, memory 0.45) go to a limit-sum server,
/// and each admission is followed by a two-lane `OBSERVE` of every
/// admitted hog. `ADMIT` carries no candidate memory, so the server stops
/// where `SimMachine::fits(limit, 0.0)` stops (the demo's cpu-only gate):
/// at 3, when the memory lane predicts 1.35, not at 4 as a CPU-only check
/// would. A machine observed through scalar samples only predicts 0 on
/// its memory lane and admits all four.
#[test]
fn served_admit_stops_at_a_full_memory_lane_like_the_simulated_gate() {
    let spec = PredictorSpec::LimitSum;
    let server = Server::start(ServeConfig::default().with_predictor(spec.clone())).unwrap();
    let mut client = Client::connect(server.addr(), ClientConfig::default()).unwrap();
    let cell = CellId::new("hogs");
    let usage = CellConfig::preset(CellPreset::A).usage;
    let sim_cfg = SimConfig::default();
    let mut simulated =
        SimMachine::new(MachineId(0), 1.0, usage, &sim_cfg, spec.build().unwrap(), 7);
    let (mut two_lane, mut cpu_only, mut in_sim) = (0u64, 0u64, 0u64);
    let (m0, hog) = (MachineId(0), |j: u64| TaskId::new(JobId(j), 0));
    for job in 0..4u64 {
        if client.admit(&cell, m0, 0.05).unwrap().0 {
            two_lane += 1;
            for j in 0..two_lane {
                let t = two_lane;
                let sample = client.observe_vec(&cell, m0, hog(j), 0.03, 0.05, 0.3, 0.45, t);
                sample.unwrap();
            }
        }
        if client.admit(&cell, MachineId(1), 0.05).unwrap().0 {
            cpu_only += 1;
            for j in 0..cpu_only {
                client
                    .observe(&cell, MachineId(1), hog(j), 0.03, 0.05, cpu_only)
                    .unwrap();
            }
        }
        let req = TaskRequest {
            id: hog(job),
            limit: 0.05,
            memory_limit: 0.45,
            runtime_ticks: 1000,
            class: SchedulingClass::Class2,
            priority: 200,
            job_seed: job,
            job_phase: 0.3,
            job_util_base: 0.6,
        };
        if simulated.fits(req.limit, 0.0) {
            simulated.admit(&req, Tick(0));
            in_sim += 1;
        }
    }
    assert_eq!((two_lane, in_sim, cpu_only), (3, 3, 4));
    let (_, mem) = client.predict_vec(&cell, m0).unwrap();
    assert!((mem - 1.35).abs() < 1e-12, "memory lane predicts {mem}");
    let (admit, projected) = client.admit(&cell, m0, 0.05).unwrap();
    assert!(!admit && (projected - 0.2).abs() < 1e-12, "{projected}");
    drop(client);
    assert_eq!(server.shutdown().errors, 0);
}

/// Back-to-back `ADMIT`s count each other, as `SimMachine`'s gate does:
/// four 0.3 candidates sent to an empty limit-sum machine with no
/// `OBSERVE` between them answer yes, yes, yes, no, where
/// `SimMachine::fits(0.3, 0.0)` plus `admit` stops. Observing the tick
/// that holds the three tasks replaces their reservations with the
/// prediction: a fourth 0.3 still answers no, and a 0.1 fits.
#[test]
fn back_to_back_admits_count_each_other_like_the_simulated_gate() {
    let spec = PredictorSpec::LimitSum;
    let server = Server::start(ServeConfig::default().with_predictor(spec.clone())).unwrap();
    let mut client = Client::connect(server.addr(), ClientConfig::default()).unwrap();
    let (cell, m) = (CellId::new("burst"), MachineId(0));
    let usage = CellConfig::preset(CellPreset::A).usage;
    let mut simulated = SimMachine::new(
        m,
        1.0,
        usage,
        &SimConfig::default(),
        spec.build().unwrap(),
        7,
    );
    let (mut served, mut in_sim) = (Vec::new(), Vec::new());
    for job in 0..4u64 {
        served.push(client.admit(&cell, m, 0.3).unwrap().0);
        let fits = simulated.fits(0.3, 0.0);
        if fits {
            let req = TaskRequest {
                id: TaskId::new(JobId(job), 0),
                limit: 0.3,
                memory_limit: 0.0,
                runtime_ticks: 1000,
                class: SchedulingClass::Class2,
                priority: 200,
                job_seed: job,
                job_phase: 0.3,
                job_util_base: 0.6,
            };
            simulated.admit(&req, Tick(0));
        }
        in_sim.push(fits);
    }
    assert_eq!(served, [true, true, true, false]);
    assert_eq!(served, in_sim);
    for j in 0..3 {
        client
            .observe(&cell, m, TaskId::new(JobId(j), 0), 0.1, 0.3, 0)
            .unwrap();
    }
    let (admit, projected) = client.admit(&cell, m, 0.3).unwrap();
    assert!(!admit && (projected - 1.2).abs() < 1e-12, "{projected}");
    let (admit, projected) = client.admit(&cell, m, 0.1).unwrap();
    assert!(admit && (projected - 1.0).abs() < 1e-12, "{projected}");
    drop(client);
    assert_eq!(server.shutdown().errors, 0);
}
