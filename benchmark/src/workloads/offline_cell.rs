//! `offline-cell`: no sockets. The cell is materialised in set-up, then
//! every round is one `run_cell` over it with the four-policy comparison
//! set. An op is one machine-tick; the latency is one call.

use crate::gates::{self, PredictorBits};
use crate::harness::{Latency, Round, Scale, Session, SessionEnd};
use crate::inputs;
use crate::spans::Tracer;
use oc_core::{run_cell, CellRun, PredictorSpec, SimConfig};
use oc_trace::ids::CellId;
use oc_trace::MachineTrace;
use std::collections::BTreeMap;
use std::time::Instant;

/// Worker threads of `run_cell`: fixed, never read from the host. One,
/// not the two the issue asked for: for tens of minutes at a time this
/// host gives its two vCPUs the speed of one and a quarter (see README,
/// host noise), which moved a two-thread median by 25-30 % between A/A
/// passes; `core.runner.parallel_efficiency` keeps the scaling in view.
const THREADS: usize = 1;
/// Unmeasured calls per set-up; the first ones run slower.
const WARM_CALLS: usize = 2;

/// Reference results for the seeds that have them (42 and the held-out
/// 7), at full scale: `seed predictor violation-rate-bits savings-bits`.
const REFERENCE: &str = include_str!("../../reference/offline_cell.txt");

/// `(machines, ticks)` of the cell.
fn size(scale: Scale) -> (usize, u64) {
    match scale {
        Scale::Full => (100, 576),
        Scale::Smoke => (12, 288),
    }
}

/// Cell-level result per predictor as bit patterns: the mean over
/// machines, in machine order, of violation rate and of mean savings.
fn result_bits(run: &CellRun) -> Vec<PredictorBits> {
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    run.predictors
        .iter()
        .enumerate()
        .map(|(idx, name)| PredictorBits {
            name: name.clone(),
            violation_rate: mean(run.violation_rates(idx)).to_bits(),
            savings: mean(run.machine_savings(idx)).to_bits(),
        })
        .collect()
}

/// The stored reference of `seed`, if there is one.
fn stored_reference(seed: u64) -> Option<Vec<PredictorBits>> {
    let parse = |hex: &str| u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok();
    let rows: Vec<PredictorBits> = REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_ascii_whitespace().collect();
            if f.len() != 4 || f[0].parse() != Ok(seed) {
                return None;
            }
            Some(PredictorBits {
                name: f[1].to_string(),
                violation_rate: parse(f[2])?,
                savings: parse(f[3])?,
            })
        })
        .collect();
    (!rows.is_empty()).then_some(rows)
}

/// One session of the workload.
pub struct OfflineCell {
    cell: CellId,
    traces: Vec<MachineTrace>,
    specs: Vec<PredictorSpec>,
    cfg: SimConfig,
    /// Result of the first warm-up call; every later call must repeat it.
    first: Vec<PredictorBits>,
    seed: u64,
    scale: Scale,
}

impl OfflineCell {
    fn call(&self, threads: usize, tr: &mut Tracer) -> Result<Vec<PredictorBits>, String> {
        tr.span("bench.core.run_cell", |_| {
            run_cell(
                self.cell.clone(),
                &self.traces,
                &self.cfg,
                &self.specs,
                threads,
            )
        })
        .map(|run| result_bits(&run))
        .map_err(|e| format!("run_cell: {e}"))
    }

    /// Prints this seed's result in the reference file's format.
    pub fn print_reference(seed: u64) -> Result<(), String> {
        let mut tr = Tracer::new(false);
        let s = OfflineCell::set_up(seed, Scale::Full, &mut tr)?;
        for p in &s.first {
            println!(
                "{seed} {} {:#018x} {:#018x}",
                p.name, p.violation_rate, p.savings
            );
        }
        Ok(())
    }
}

impl Session for OfflineCell {
    const LATENCY_LIMIT_US: f64 = 2_000_000.0;

    fn set_up(seed: u64, scale: Scale, tr: &mut Tracer) -> Result<Self, String> {
        let (machines, ticks) = size(scale);
        let (cell, traces) = tr.span("bench.setup.generate", |_| {
            inputs::generate_cell(seed, machines, ticks)
        })?;
        let mut s = OfflineCell {
            cell,
            traces,
            specs: PredictorSpec::comparison_set(),
            cfg: SimConfig::default(),
            first: Vec::new(),
            seed,
            scale,
        };
        for i in 0..WARM_CALLS {
            let bits = tr.span("bench.setup.warm", |tr| s.call(THREADS, tr))?;
            if i == 0 {
                s.first = bits;
            }
        }
        Ok(s)
    }

    fn round(&mut self, lat: &mut Latency, tr: &mut Tracer) -> Result<Round, String> {
        let start = Instant::now();
        let bits = self.call(THREADS, tr)?;
        let wall_s = start.elapsed().as_secs_f64();
        let attempted = self.traces.iter().map(|t| t.horizon.len()).sum();
        let ok = if bits == self.first { attempted } else { 0 };
        lat.push_n(wall_s * 1e6, ok);
        Ok(Round {
            attempted,
            ok,
            wall_s,
        })
    }

    fn scrape(&mut self) -> Result<BTreeMap<String, f64>, String> {
        let global = oc_telemetry::global_metrics().snapshot();
        Ok(["sim.ticks", "sim.predictor_evals"]
            .into_iter()
            .map(|n| (n.to_string(), global.counter(n).unwrap_or(0) as f64))
            .collect())
    }

    fn finish(self, tr: &mut Tracer) -> Result<SessionEnd, String> {
        // Seeds with a stored reference are held against it; every seed
        // is held against a two-thread call, which must not differ.
        let mut end = SessionEnd::default();
        if self.scale == Scale::Full {
            if let Some(expected) = stored_reference(self.seed) {
                end.gate_failures
                    .extend(gates::cell_bits(&self.first, &expected).err());
            }
        }
        let parallel = self.call(2, tr)?;
        end.gate_failures
            .extend(gates::cell_bits(&self.first, &parallel).err());
        Ok(end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_reference_has_both_seeds_and_four_predictors() {
        for seed in [42, 7] {
            let rows = stored_reference(seed).expect("reference rows");
            assert_eq!(rows.len(), PredictorSpec::comparison_set().len());
        }
        assert!(stored_reference(1).is_none());
    }
}
