//! `predict-admit`: the read path beside writes. Unframed lines with 64
//! in flight: half vector `PREDICT`, three tenths `ADMIT`, a fifth
//! two-lane `OBSERVE`, kind and machine drawn independently from the
//! seed. The same server as `ingest-stream`, used the other way round.
//!
//! Every fleet machine runs one task (the longest-lived task of a
//! generated cell-A machine, its series repeated), so one `OBSERVE` line
//! is one complete tick. A read flushes the machine's pending tick
//! server-side and makes later samples of that tick stale, so a tick must
//! not straddle a read; and with one line per tick the predict cache is
//! invalidated often enough for hits and misses both to matter.

use super::{scrape_served, served_identity, start_server};
use crate::gates;
use crate::harness::{Latency, Round, Scale, Session, SessionEnd};
use crate::inputs::{self, MachineSamples, OfflineMachine, Sample};
use crate::spans::Tracer;
use crate::util::SplitMix;
use oc_client::{Client, ClientConfig};
use oc_serve::proto::{Request, Response};
use oc_serve::Server;
use oc_trace::ids::{CellId, MachineId};
use std::collections::BTreeMap;
use std::time::Instant;

/// Requests in flight before the oldest reply is awaited.
const WINDOW: usize = 64;
/// Ticks streamed into every machine before the first read.
const WARM_TICKS: u64 = 288;
/// Share of requests that are `PREDICT <cell> <machine> *`.
const PREDICT_SHARE: f64 = 0.5;
/// Share that are `ADMIT`; the rest are `OBSERVE`.
const ADMIT_SHARE: f64 = 0.3;
/// Candidate limit every `ADMIT` asks about.
const ADMIT_LIMIT: f64 = 0.05;

/// `(machines, ticks generated, requests per round)`.
fn size(scale: Scale) -> (usize, u64, usize) {
    match scale {
        Scale::Full => (100, 288, 8_000),
        Scale::Smoke => (16, 144, 2_000),
    }
}

/// What answer a request must get.
#[derive(Clone, Copy)]
enum Kind {
    Predict,
    Admit,
    Observe,
}

/// One fleet machine: a single task whose series repeats.
struct FleetMachine {
    machine: MachineId,
    series: Vec<Sample>,
    /// Ticks written so far; also the next tick.
    written: u64,
}

impl FleetMachine {
    /// The longest-lived task of a generated machine.
    fn from_samples(m: &MachineSamples) -> Result<FleetMachine, String> {
        let mut by_task: BTreeMap<_, Vec<Sample>> = BTreeMap::new();
        for s in &m.samples {
            by_task.entry(s.task).or_default().push(*s);
        }
        let series = by_task
            .into_values()
            .max_by_key(Vec::len)
            .ok_or_else(|| format!("machine {} generated no task", m.machine))?;
        Ok(FleetMachine {
            machine: m.machine,
            series,
            written: 0,
        })
    }

    /// The sample of the next tick, which it also advances to.
    fn next(&mut self) -> (Sample, u64) {
        let tick = self.written;
        self.written += 1;
        (self.series[tick as usize % self.series.len()], tick)
    }
}

/// One session of the workload.
pub struct PredictAdmit {
    server: Server,
    client: Client,
    cell: CellId,
    fleet: Vec<FleetMachine>,
    rng: SplitMix,
    round_size: usize,
    /// Offline twins of the sample machines, fed at generation time.
    offline: Vec<(usize, OfflineMachine)>,
    acknowledged: u64,
}

impl PredictAdmit {
    /// The next `OBSERVE` of machine `m`, mirrored into its offline twin
    /// if it has one.
    fn observe(&mut self, m: usize) -> Result<Request, String> {
        let (sample, tick) = self.fleet[m].next();
        if let Some((_, off)) = self.offline.iter_mut().find(|(idx, _)| *idx == m) {
            off.ingest(&sample, tick, true)?;
        }
        Ok(inputs::observe_request(
            &self.cell,
            self.fleet[m].machine,
            &sample,
            tick,
            true,
        ))
    }

    /// Draws one round of requests (untimed).
    fn draw_round(&mut self) -> Result<(Vec<Request>, Vec<Kind>), String> {
        let mut reqs = Vec::with_capacity(self.round_size);
        let mut kinds = Vec::with_capacity(self.round_size);
        for _ in 0..self.round_size {
            let u = self.rng.next_f64();
            let m = self.rng.below(self.fleet.len() as u64) as usize;
            let (cell, machine) = (self.cell.clone(), self.fleet[m].machine);
            if u < PREDICT_SHARE {
                reqs.push(Request::Predict {
                    cell,
                    machine,
                    vector: true,
                });
                kinds.push(Kind::Predict);
            } else if u < PREDICT_SHARE + ADMIT_SHARE {
                reqs.push(Request::Admit {
                    cell,
                    machine,
                    limit: ADMIT_LIMIT,
                });
                kinds.push(Kind::Admit);
            } else {
                reqs.push(self.observe(m)?);
                kinds.push(Kind::Observe);
            }
        }
        Ok((reqs, kinds))
    }

    fn mixed_round(&mut self, lat: &mut Latency, tr: &mut Tracer) -> Result<Round, String> {
        let (reqs, kinds) = self.draw_round()?;
        let mut ok = 0u64;
        let mut observes = 0u64;
        let client = &mut self.client;
        let start = Instant::now();
        tr.span("bench.client.pipeline", |_| {
            client.pipeline_with(&reqs, |i, resp, us| {
                let right = match (kinds[i], resp) {
                    (Kind::Predict, Response::Pred { mem: Some(_), .. }) => true,
                    (Kind::Admit, Response::Admitted { .. }) => true,
                    (Kind::Observe, Response::Ok) => {
                        observes += 1;
                        true
                    }
                    _ => false,
                };
                if right {
                    ok += 1;
                    lat.push(us);
                }
            })
        })
        .map_err(|e| format!("pipeline: {e}"))?;
        let wall_s = start.elapsed().as_secs_f64();
        self.acknowledged += observes;
        Ok(Round {
            attempted: reqs.len() as u64,
            ok,
            wall_s,
        })
    }

    /// State load: the first day of every machine in the two-lane form,
    /// framed (loading is not what this workload measures).
    fn load(&mut self, seed: u64) -> Result<(), String> {
        let mut warm = Vec::new();
        for _ in 0..WARM_TICKS {
            for m in 0..self.fleet.len() {
                warm.push(self.observe(m)?);
            }
        }
        let cfg = ClientConfig::default()
            .with_seed(seed ^ 1)
            .with_batch(64)
            .with_pipeline_window(512);
        let mut loader =
            Client::connect(self.server.addr(), cfg).map_err(|e| format!("connect: {e}"))?;
        let mut ok = 0u64;
        loader
            .pipeline_with(&warm, |_, resp, _| {
                ok += u64::from(matches!(resp, Response::Ok));
            })
            .map_err(|e| format!("load: {e}"))?;
        if ok != warm.len() as u64 {
            return Err(format!("load: {ok} of {} lines acknowledged", warm.len()));
        }
        self.acknowledged += ok;
        Ok(())
    }
}

impl Session for PredictAdmit {
    const LATENCY_LIMIT_US: f64 = 25_000.0;

    fn set_up(seed: u64, scale: Scale, tr: &mut Tracer) -> Result<Self, String> {
        let (n_machines, ticks, round_size) = size(scale);
        let (cell, fleet) = tr.span("bench.setup.generate", |_| {
            let (cell, machines) = inputs::generate_samples(seed, n_machines, ticks)?;
            let fleet = machines
                .iter()
                .map(FleetMachine::from_samples)
                .collect::<Result<Vec<_>, _>>()?;
            Ok::<_, String>((cell, fleet))
        })?;
        let (server, client) = tr.span("bench.setup.start", |_| {
            let server = start_server()?;
            let cfg = ClientConfig::default()
                .with_seed(seed)
                .with_batch(1)
                .with_pipeline_window(WINDOW);
            let client =
                Client::connect(server.addr(), cfg).map_err(|e| format!("connect: {e}"))?;
            Ok::<_, String>((server, client))
        })?;
        let cfg = inputs::serve_config();
        let offline = inputs::sample_machines(seed, fleet.len())
            .into_iter()
            .map(|idx| (idx, OfflineMachine::new(&cfg)))
            .collect();
        let mut s = PredictAdmit {
            server,
            client,
            cell,
            fleet,
            rng: SplitMix(seed ^ 0x5052_4544),
            round_size,
            offline,
            acknowledged: 0,
        };
        tr.span("bench.setup.load", |_| s.load(seed))?;
        let mut discard = Latency::new(Self::LATENCY_LIMIT_US);
        tr.span("bench.setup.warm", |tr| s.mixed_round(&mut discard, tr))?;
        Ok(s)
    }

    fn round(&mut self, lat: &mut Latency, tr: &mut Tracer) -> Result<Round, String> {
        self.mixed_round(lat, tr)
    }

    fn scrape(&mut self) -> Result<BTreeMap<String, f64>, String> {
        scrape_served(&mut self.client)
    }

    fn finish(mut self, _tr: &mut Tracer) -> Result<SessionEnd, String> {
        let mut end = SessionEnd::default();
        let scraped = scrape_served(&mut self.client)?;
        let count = |name: &str| scraped.get(name).copied().unwrap_or(0.0);
        let (hit, miss) = (
            count("serve.predict.cache_hit"),
            count("serve.predict.cache_miss"),
        );
        end.gate_failures
            .extend(gates::cache_hit_share(hit / (hit + miss).max(1.0)).err());

        let stats = self.client.stats().map_err(|e| format!("stats: {e}"))?;
        end.gate_failures
            .extend(gates::ledger(&stats, self.acknowledged).err());

        let predictor = inputs::serve_config()
            .predictor
            .build()
            .map_err(|e| format!("predictor: {e}"))?;
        for (idx, offline) in &mut self.offline {
            let (cpu, mem) = offline.predict_vec(predictor.as_ref());
            let machine = self.fleet[*idx].machine;
            end.gate_failures.extend(
                served_identity(&mut self.client, &self.cell, machine, cpu, Some(mem)).err(),
            );
        }
        drop(self.client);
        self.server.shutdown();
        Ok(end)
    }
}
