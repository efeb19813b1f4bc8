//! Inputs generated from `--seed`, and the offline recompute the served
//! workloads are checked against. The program under test sees only what
//! is generated here.

use oc_core::ingest::IncrementalView;
use oc_core::predictor::{clamp_prediction, clamp_prediction_lane, PeakPredictor};
use oc_serve::config::ServeConfig;
use oc_serve::proto::Request;
use oc_stats::resource::{Res2, CPU, MEM};
use oc_trace::cell::{CellConfig, CellPreset};
use oc_trace::gen::WorkloadGenerator;
use oc_trace::ids::{CellId, MachineId, TaskId};
use oc_trace::memory::MemoryModel;
use oc_trace::time::Tick;
use oc_trace::MachineTrace;

/// Shards of the in-process server: fixed, never read from the host.
const SERVE_SHARDS: usize = 2;
/// Reactor threads of the in-process server: fixed likewise.
const REACTOR_THREADS: usize = 1;
/// Sample machines whose served predictions are recomputed offline.
pub const SAMPLE_MACHINES: usize = 8;

/// The server configuration of the two single-node workloads and of the
/// probes that need a server.
pub fn serve_config() -> ServeConfig {
    ServeConfig::default()
        .with_shards(SERVE_SHARDS)
        .with_reactor_threads(REACTOR_THREADS)
}

/// Cell A with its seed perturbed by `seed`, cut to `machines` × `ticks`.
pub fn cell_config(seed: u64, machines: usize, ticks: u64) -> CellConfig {
    let mut cell = CellConfig::preset(CellPreset::A).with_machines(machines);
    cell.seed ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    cell.duration_ticks = ticks;
    cell
}

/// Materialises the cell, one machine after the other on this thread.
pub fn generate_cell(
    seed: u64,
    machines: usize,
    ticks: u64,
) -> Result<(CellId, Vec<MachineTrace>), String> {
    let gen = WorkloadGenerator::new(cell_config(seed, machines, ticks))
        .map_err(|e| format!("cell config: {e}"))?;
    let traces = gen.generate_cell().map_err(|e| format!("generate: {e}"))?;
    Ok((gen.config().id.clone(), traces))
}

/// Generates the cell one machine at a time and keeps only the wire
/// samples, so the traces never sit in memory all at once.
pub fn generate_samples(
    seed: u64,
    machines: usize,
    ticks: u64,
) -> Result<(CellId, Vec<MachineSamples>), String> {
    let gen = WorkloadGenerator::new(cell_config(seed, machines, ticks))
        .map_err(|e| format!("cell config: {e}"))?;
    let samples = (0..machines)
        .map(|m| {
            gen.generate_machine(MachineId(m as u32))
                .map(|t| MachineSamples::from_trace(&t))
                .map_err(|e| format!("generate: {e}"))
        })
        .collect::<Result<_, _>>()?;
    Ok((gen.config().id.clone(), samples))
}

/// One per-task sample as it goes on the wire.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The sampled task.
    pub task: TaskId,
    /// CPU usage under the default usage metric.
    pub usage: f64,
    /// CPU limit.
    pub limit: f64,
    /// Memory `(usage, limit)` from the trace's memory model.
    pub mem: (f64, f64),
}

/// A machine's samples in the order `simulate_machine` feeds its view:
/// tick-major, trace task order within a tick.
#[derive(Debug, Clone)]
pub struct MachineSamples {
    /// Machine id.
    pub machine: MachineId,
    /// All samples, tick-major.
    pub samples: Vec<Sample>,
    /// `samples[starts[t]..starts[t + 1]]` are the samples of tick `t`.
    pub starts: Vec<usize>,
}

impl MachineSamples {
    /// Flattens one trace.
    pub fn from_trace(trace: &MachineTrace) -> MachineSamples {
        let metric = oc_core::SimConfig::default().metric;
        let mem_model = MemoryModel::default();
        let mut samples = Vec::new();
        let mut starts = Vec::with_capacity(trace.horizon.len() as usize + 1);
        for t in trace.horizon.iter() {
            starts.push(samples.len());
            for task in trace.tasks_at(t) {
                let usage = task.sample_at(t).map(|s| metric.of(s)).unwrap_or(0.0);
                samples.push(Sample {
                    task: task.spec.id,
                    usage,
                    limit: task.spec.limit,
                    mem: (
                        mem_model.usage(&task.spec, t, usage),
                        task.spec.memory_limit,
                    ),
                });
            }
        }
        starts.push(samples.len());
        MachineSamples {
            machine: trace.machine,
            samples,
            starts,
        }
    }

    /// The samples of tick `t`.
    pub fn at(&self, t: u64) -> &[Sample] {
        &self.samples[self.starts[t as usize]..self.starts[t as usize + 1]]
    }
}

/// Builds the `OBSERVE` request for `sample`; `vector` selects the
/// two-lane `cpu,mem` form.
pub fn observe_request(
    cell: &CellId,
    machine: MachineId,
    sample: &Sample,
    tick: u64,
    vector: bool,
) -> Request {
    Request::Observe {
        cell: cell.clone(),
        machine,
        task: sample.task,
        usage: sample.usage,
        limit: sample.limit,
        mem: vector.then_some(sample.mem),
        tick,
    }
}

/// Every sample of the fleet as an `OBSERVE` request, tick by tick across
/// the machines (the order a cell's node agents report in).
pub fn tick_major_observes<'a>(
    cell: &'a CellId,
    machines: &'a [MachineSamples],
    ticks: u64,
    vector: bool,
) -> impl Iterator<Item = Request> + 'a {
    (0..ticks).flat_map(move |t| {
        machines.iter().flat_map(move |m| {
            m.at(t)
                .iter()
                .map(move |s| observe_request(cell, m.machine, s, t, vector))
        })
    })
}

/// The offline twin of one served machine: the same view, fed the same
/// samples in the same order, read the way the shard worker reads it.
pub struct OfflineMachine {
    view: IncrementalView,
}

impl OfflineMachine {
    /// An empty view shaped like the server's.
    pub fn new(cfg: &ServeConfig) -> OfflineMachine {
        OfflineMachine {
            view: IncrementalView::new(cfg.machine_capacity, &cfg.sim)
                .with_max_gap(cfg.max_tick_gap),
        }
    }

    /// Ingests one sample the way the shard does.
    pub fn ingest(&mut self, sample: &Sample, tick: u64, vector: bool) -> Result<(), String> {
        let r = if vector {
            self.view.ingest_vec(
                Tick(tick),
                sample.task,
                Res2::from_lanes([sample.limit, sample.mem.1]),
                Res2::from_lanes([sample.usage, sample.mem.0]),
            )
        } else {
            self.view
                .ingest(Tick(tick), sample.task, sample.limit, sample.usage)
        };
        r.map_err(|e| format!("offline ingest: {e}"))
    }

    /// What a scalar `PREDICT` must answer now.
    pub fn predict(&mut self, predictor: &dyn PeakPredictor) -> f64 {
        self.view.flush();
        clamp_prediction(predictor.predict(self.view.view()), self.view.view())
    }

    /// What a vector `PREDICT ... *` must answer now: `(cpu, mem)`.
    pub fn predict_vec(&mut self, predictor: &dyn PeakPredictor) -> (f64, f64) {
        self.view.flush();
        let v = self.view.view();
        (
            clamp_prediction_lane(predictor.predict_lane(v, CPU), v, CPU),
            clamp_prediction_lane(predictor.predict_lane(v, MEM), v, MEM),
        )
    }
}

/// The `SAMPLE_MACHINES` machine indices checked offline, drawn from the
/// seed without repeats.
pub fn sample_machines(seed: u64, machines: usize) -> Vec<usize> {
    let mut rng = crate::util::SplitMix(seed ^ 0x5A4D_504C);
    let mut all: Vec<usize> = (0..machines).collect();
    let n = SAMPLE_MACHINES.min(machines);
    for i in 0..n {
        let j = i + rng.below((machines - i) as u64) as usize;
        all.swap(i, j);
    }
    all.truncate(n);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = generate_samples(42, 2, 48).unwrap().1;
        let b = generate_samples(42, 2, 48).unwrap().1;
        let c = generate_samples(7, 2, 48).unwrap().1;
        let flat = |t: &[MachineSamples]| -> Vec<u64> {
            t.iter()
                .flat_map(|m| &m.samples)
                .map(|s| s.usage.to_bits())
                .collect()
        };
        assert_eq!(flat(&a), flat(&b));
        assert_ne!(flat(&a), flat(&c));
    }

    #[test]
    fn machine_samples_index_by_tick() {
        let m = &generate_samples(42, 1, 24).unwrap().1[0];
        assert_eq!(m.starts.len(), 25);
        let total: usize = (0..24).map(|t| m.at(t).len()).sum();
        assert_eq!(total, m.samples.len());
        assert!(!m.samples.is_empty());
    }

    #[test]
    fn sample_machines_are_distinct_and_seeded() {
        let a = sample_machines(1, 100);
        assert_eq!(a.len(), SAMPLE_MACHINES);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), SAMPLE_MACHINES);
        assert_eq!(a, sample_machines(1, 100));
        assert_ne!(a, sample_machines(2, 100));
        assert_eq!(sample_machines(1, 3).len(), 3);
    }
}
