//! `ingest-stream`: the write path. One client streams a cell's scalar
//! `OBSERVE` lines, tick by tick, in `BATCH` frames of 64 with 512 lines
//! in flight; each round replays the whole generated horizon, shifted
//! past the previous round's last tick.

use super::{scrape_served, served_identity, start_server};
use crate::gates;
use crate::harness::{Latency, Round, Scale, Session, SessionEnd};
use crate::inputs::{self, OfflineMachine, Sample};
use crate::spans::Tracer;
use oc_client::{Client, ClientConfig};
use oc_serve::proto::{Request, Response};
use oc_serve::Server;
use oc_trace::ids::{CellId, MachineId};
use std::collections::BTreeMap;
use std::time::Instant;

/// Lines per `BATCH` frame.
const BATCH: usize = 64;
/// Lines in flight before the oldest reply is awaited.
const WINDOW: usize = 512;

/// `(machines, ticks, lines per pass)`: the generated horizon is cut to a
/// fixed line count, so the work of a round does not depend on how many
/// tasks a seed happens to generate.
fn size(scale: Scale) -> (usize, u64, usize) {
    match scale {
        Scale::Full => (1_000, 12, 100_000),
        Scale::Smoke => (16, 96, 15_000),
    }
}

/// One session of the workload.
pub struct IngestStream {
    server: Server,
    client: Client,
    cell: CellId,
    machines: usize,
    /// One pass over the horizon, tick-major across the fleet.
    reqs: Vec<Request>,
    ticks: u64,
    passes: u64,
    acknowledged: u64,
    seed: u64,
}

impl IngestStream {
    /// Streams the horizon once and shifts it for the next pass.
    fn pass(&mut self, lat: &mut Latency, tr: &mut Tracer) -> Result<Round, String> {
        let mut ok = 0u64;
        let start = Instant::now();
        let client = &mut self.client;
        let reqs = &self.reqs;
        tr.span("bench.client.pipeline", |_| {
            client.pipeline_with(reqs, |_, resp, us| {
                if matches!(resp, Response::Ok) {
                    ok += 1;
                    lat.push(us);
                }
            })
        })
        .map_err(|e| format!("pipeline: {e}"))?;
        let wall_s = start.elapsed().as_secs_f64();
        for r in &mut self.reqs {
            if let Request::Observe { tick, .. } = r {
                *tick += self.ticks;
            }
        }
        self.passes += 1;
        self.acknowledged += ok;
        Ok(Round {
            attempted: self.reqs.len() as u64,
            ok,
            wall_s,
        })
    }
}

impl Session for IngestStream {
    const LATENCY_LIMIT_US: f64 = 10_000.0;

    fn set_up(seed: u64, scale: Scale, tr: &mut Tracer) -> Result<Self, String> {
        let (n_machines, ticks, lines) = size(scale);
        let (cell, reqs) = tr.span("bench.setup.generate", |_| {
            let (cell, machines) = inputs::generate_samples(seed, n_machines, ticks)?;
            let reqs: Vec<Request> = inputs::tick_major_observes(&cell, &machines, ticks, false)
                .take(lines)
                .collect();
            Ok::<_, String>((cell, reqs))
        })?;
        // The next pass starts on the tick after the last one sent, so
        // the stream has no gap and the tasks live on across passes.
        let ticks = match reqs.last() {
            Some(Request::Observe { tick, .. }) => tick + 1,
            _ => return Err("generate: the cell has no samples".to_string()),
        };
        let (server, client) = tr.span("bench.setup.start", |_| {
            let server = start_server()?;
            let cfg = ClientConfig::default()
                .with_seed(seed)
                .with_batch(BATCH)
                .with_pipeline_window(WINDOW);
            let client =
                Client::connect(server.addr(), cfg).map_err(|e| format!("connect: {e}"))?;
            Ok::<_, String>((server, client))
        })?;
        let mut s = IngestStream {
            server,
            client,
            cell,
            machines: n_machines,
            reqs,
            ticks,
            passes: 0,
            acknowledged: 0,
            seed,
        };
        // The first pass creates every machine view and fills the task
        // windows; measured passes then all do the same work.
        let mut discard = Latency::new(Self::LATENCY_LIMIT_US);
        tr.span("bench.setup.warm", |tr| s.pass(&mut discard, tr))?;
        Ok(s)
    }

    fn round(&mut self, lat: &mut Latency, tr: &mut Tracer) -> Result<Round, String> {
        self.pass(lat, tr)
    }

    fn scrape(&mut self) -> Result<BTreeMap<String, f64>, String> {
        scrape_served(&mut self.client)
    }

    fn finish(mut self, _tr: &mut Tracer) -> Result<SessionEnd, String> {
        let mut end = SessionEnd::default();
        let stats = self.client.stats().map_err(|e| format!("stats: {e}"))?;
        end.gate_failures
            .extend(gates::ledger(&stats, self.acknowledged).err());

        let cfg = inputs::serve_config();
        let predictor = cfg
            .predictor
            .build()
            .map_err(|e| format!("predictor: {e}"))?;
        // `reqs` now holds the pass after the last one sent; every pass
        // sent the same lines `ticks` earlier each.
        for idx in inputs::sample_machines(self.seed, self.machines) {
            let machine = MachineId(idx as u32);
            let mut offline = OfflineMachine::new(&cfg);
            for pass in (1..=self.passes).rev() {
                for r in &self.reqs {
                    if let Request::Observe {
                        machine: m,
                        task,
                        usage,
                        limit,
                        tick,
                        ..
                    } = r
                    {
                        if *m == machine {
                            let sample = Sample {
                                task: *task,
                                usage: *usage,
                                limit: *limit,
                                mem: (0.0, 0.0),
                            };
                            offline.ingest(&sample, tick - pass * self.ticks, false)?;
                        }
                    }
                }
            }
            let want = offline.predict(predictor.as_ref());
            end.gate_failures
                .extend(served_identity(&mut self.client, &self.cell, machine, want, None).err());
        }
        drop(self.client);
        self.server.shutdown();
        Ok(end)
    }
}
