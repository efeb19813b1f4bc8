//! Layer probes: single-threaded loops of a fixed count, each long
//! enough to time (tens of milliseconds), reported as the median of a few
//! repeats. Every probe drives one layer through its public functions
//! only, so its ceiling explains a share of an end-to-end number.

use crate::inputs::{self, MachineSamples};
use crate::procfs;
use crate::util::{median, SplitMix};
use oc_client::fleet::{self, FleetConfig};
use oc_client::{Client, ClientConfig, ClusterClient, ClusterClientConfig};
use oc_cluster::{Cluster, ClusterConfig, RingSpec};
use oc_core::oracle::machine_oracle;
use oc_core::sim::simulate_machine;
use oc_core::{run_cell, IncrementalView, MachineView, PeakPredictor, PredictorSpec, SimConfig};
use oc_reactor::{Events, Interest, Poller, Waker};
use oc_serve::conn::LineAccumulator;
use oc_serve::proto::{encode_batch_into, ProtoScratch, Request, Response};
use oc_serve::shard::{key_hash, ObserveChunk, ObserveItem, ShardMsg, ShardPool, OBS_CHUNK};
use oc_serve::Server;
use oc_stats::resource::Res2;
use oc_stats::{MovingWindow, OrderStatWindow, PeakWindow};
use oc_telemetry::MetricsRegistry;
use oc_trace::gen::WorkloadGenerator;
use oc_trace::ids::{CellId, JobId, MachineId, TaskId};
use oc_trace::time::Tick;
use oc_trace::MachineTrace;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::mpsc::sync_channel;
use std::time::Instant;

/// Repeats of the standalone `layers` command.
pub const LAYERS_REPEATS: usize = 9;
/// Repeats inside a `--trace 1` run, which also has a workload to run.
pub const TRACED_REPEATS: usize = 5;

/// Machines and ticks of the small cell the probes share.
const PROBE_MACHINES: usize = 16;
const PROBE_TICKS: u64 = 576;

type Out = BTreeMap<&'static str, f64>;

/// Median over `repeats` of the time one call of `body` takes, divided by
/// `units`, in nanoseconds.
fn ns_per<T>(repeats: usize, units: u64, mut body: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let start = Instant::now();
            black_box(body());
            start.elapsed().as_secs_f64() * 1e9 / units as f64
        })
        .collect();
    median(&samples)
}

/// What the probes share: a small generated cell in both forms.
struct Shared {
    cell: CellId,
    traces: Vec<MachineTrace>,
    machines: Vec<MachineSamples>,
    samples: u64,
    cfg: SimConfig,
}

impl Shared {
    fn new() -> Result<Shared, String> {
        let (cell, traces) = inputs::generate_cell(42, PROBE_MACHINES, PROBE_TICKS)?;
        let machines: Vec<MachineSamples> = traces.iter().map(MachineSamples::from_trace).collect();
        let samples = machines.iter().map(|m| m.samples.len() as u64).sum();
        Ok(Shared {
            cell,
            traces,
            machines,
            samples,
            cfg: SimConfig::default(),
        })
    }

    /// Every sample as an `OBSERVE` request, tick-major across machines.
    fn observe_requests(&self, vector: bool) -> Vec<Request> {
        inputs::tick_major_observes(&self.cell, &self.machines, PROBE_TICKS, vector).collect()
    }

    /// A view of machine 0 after the whole horizon, in vector mode.
    fn warm_view(&self) -> MachineView {
        let mut view = MachineView::new(1.0, &self.cfg);
        let m = &self.machines[0];
        for t in 0..PROBE_TICKS {
            view.observe_vec(
                Tick(t),
                m.at(t).iter().map(|s| {
                    (
                        s.task,
                        Res2::from_lanes([s.limit, s.mem.1]),
                        Res2::from_lanes([s.usage, s.mem.0]),
                    )
                }),
            );
        }
        view
    }
}

fn stats_probes(r: usize, out: &mut Out) -> Result<(), String> {
    let cap = SimConfig::default().max_num_samples;
    let mut rng = SplitMix(1);
    const N: u64 = 400_000;

    let mut w = OrderStatWindow::new(cap).map_err(|e| e.to_string())?;
    (0..cap).for_each(|_| w.push(rng.next_f64()));
    out.insert(
        "stats.order_stat.push_ns",
        ns_per(r, N, || {
            let mut acc = 0.0;
            for _ in 0..N {
                w.push(rng.next_f64());
                acc += w.percentile(99.0).unwrap_or(0.0);
            }
            acc
        }),
    );

    let mut w = MovingWindow::new(cap).map_err(|e| e.to_string())?;
    (0..cap).for_each(|_| w.push(rng.next_f64()));
    out.insert(
        "stats.moving.push_ns",
        ns_per(r, 16 * N, || {
            let mut acc = 0.0;
            for _ in 0..16 * N {
                w.push(rng.next_f64());
                acc += w.population_std();
            }
            acc
        }),
    );

    let mut w = PeakWindow::new(cap).map_err(|e| e.to_string())?;
    (0..cap).for_each(|_| w.push(rng.next_f64()));
    out.insert(
        "stats.peak.push_ns",
        ns_per(r, 8 * N, || {
            let mut acc = 0.0;
            for _ in 0..8 * N {
                w.push(rng.next_f64());
                acc += w.max().unwrap_or(0.0);
            }
            acc
        }),
    );
    Ok(())
}

fn trace_and_core_probes(sh: &Shared, r: usize, out: &mut Out) -> Result<(), String> {
    let gen = WorkloadGenerator::new(inputs::cell_config(42, PROBE_MACHINES, PROBE_TICKS))
        .map_err(|e| e.to_string())?;
    out.insert(
        "trace.gen_ns_per_sample",
        ns_per(r, sh.samples, || {
            (0..PROBE_MACHINES)
                .map(|m| {
                    gen.generate_machine(MachineId(m as u32))
                        .map(|t| t.tasks.len())
                })
                .collect::<Result<Vec<_>, _>>()
        }),
    );

    const PASSES: u64 = 4;
    out.insert(
        "core.view.observe_ns_per_sample",
        ns_per(r, PASSES * sh.samples, || {
            for _ in 0..PASSES {
                for m in &sh.machines {
                    let mut view = MachineView::new(1.0, &sh.cfg);
                    for t in 0..PROBE_TICKS {
                        view.observe(Tick(t), m.at(t).iter().map(|s| (s.task, s.limit, s.usage)));
                    }
                    black_box(view.total_limit());
                }
            }
        }),
    );
    out.insert(
        "core.view.observe_vec_ns_per_sample",
        ns_per(r, PASSES * sh.samples, || {
            for _ in 0..PASSES {
                for m in &sh.machines {
                    let mut view = MachineView::new(1.0, &sh.cfg);
                    for t in 0..PROBE_TICKS {
                        view.observe_vec(
                            Tick(t),
                            m.at(t).iter().map(|s| {
                                (
                                    s.task,
                                    Res2::from_lanes([s.limit, s.mem.1]),
                                    Res2::from_lanes([s.usage, s.mem.0]),
                                )
                            }),
                        );
                    }
                    black_box(view.total_limit());
                }
            }
        }),
    );
    out.insert(
        "core.ingest.ns_per_sample",
        ns_per(r, PASSES * sh.samples, || {
            for _ in 0..PASSES {
                for m in &sh.machines {
                    let mut view = IncrementalView::new(1.0, &sh.cfg);
                    for t in 0..PROBE_TICKS {
                        for s in m.at(t) {
                            let _ = view.ingest(Tick(t), s.task, s.limit, s.usage);
                        }
                    }
                    black_box(view.flush());
                }
            }
        }),
    );

    let view = sh.warm_view();
    let build = |spec: PredictorSpec| spec.build().map_err(|e| e.to_string());
    const READS: u64 = 300_000;
    let scalar = |p: &dyn PeakPredictor, reads: u64| {
        ns_per(r, reads, || {
            let mut acc = 0.0;
            for _ in 0..reads {
                acc += black_box(p).predict(black_box(&view));
            }
            acc
        })
    };
    out.insert(
        "core.predict.borg_default_ns",
        scalar(build(PredictorSpec::borg_default())?.as_ref(), 50 * READS),
    );
    out.insert(
        "core.predict.rc_like_ns",
        scalar(
            build(PredictorSpec::RcLike { percentile: 99.0 })?.as_ref(),
            READS,
        ),
    );
    out.insert(
        "core.predict.n_sigma_ns",
        scalar(
            build(PredictorSpec::NSigma { n: 5.0 })?.as_ref(),
            25 * READS,
        ),
    );
    let max = build(PredictorSpec::paper_max())?;
    out.insert("core.predict.max_ns", scalar(max.as_ref(), READS));
    out.insert(
        "core.predict.vec_ns",
        ns_per(r, READS, || {
            let mut acc = 0.0;
            for _ in 0..READS {
                acc += black_box(&max).predict_vec(black_box(&view)).worst();
            }
            acc
        }),
    );

    let ticks = PROBE_MACHINES as u64 * PROBE_TICKS;
    const ORACLE_PASSES: u64 = 20;
    out.insert(
        "core.oracle.ns_per_tick",
        ns_per(r, ORACLE_PASSES * ticks, || {
            for _ in 0..ORACLE_PASSES {
                for t in &sh.traces {
                    black_box(machine_oracle(
                        t,
                        sh.cfg.metric,
                        sh.cfg.oracle_horizon_ticks,
                    ));
                }
            }
        }),
    );
    let predictors: Vec<Box<dyn PeakPredictor>> = PredictorSpec::comparison_set()
        .iter()
        .map(|s| s.build().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    const SIM_PASSES: u64 = 3;
    out.insert(
        "core.sim.ns_per_machine_tick",
        ns_per(r, SIM_PASSES * ticks, || {
            for _ in 0..SIM_PASSES {
                for t in &sh.traces {
                    let _ = black_box(simulate_machine(t, &sh.cfg, &predictors));
                }
            }
        }),
    );
    let specs = PredictorSpec::comparison_set();
    let cell_ns = |threads: usize| {
        ns_per(r, 1, || {
            for _ in 0..SIM_PASSES {
                let _ = black_box(run_cell(
                    sh.cell.clone(),
                    &sh.traces,
                    &sh.cfg,
                    &specs,
                    threads,
                ));
            }
        })
    };
    out.insert(
        "core.runner.parallel_efficiency",
        cell_ns(1) / (2.0 * cell_ns(2)),
    );
    Ok(())
}

fn codec_probes(sh: &Shared, r: usize, out: &mut Out) -> Result<(), String> {
    let as_lines = |reqs: &[Request]| -> Vec<String> { reqs.iter().map(Request::encode).collect() };
    let parse = |lines: &[String], passes: u64| {
        let mut scratch = ProtoScratch::new();
        ns_per(r, passes * lines.len() as u64, || {
            let mut ok = 0u64;
            for _ in 0..passes {
                for l in lines {
                    ok += u64::from(Request::parse_in(l, &mut scratch).is_ok());
                }
            }
            ok
        })
    };
    let scalar = sh.observe_requests(false);
    let scalar_lines = as_lines(&scalar);
    out.insert("serve.proto.parse_observe_ns", parse(&scalar_lines, 4));
    out.insert(
        "serve.proto.parse_observe_vec_ns",
        parse(&as_lines(&sh.observe_requests(true)), 3),
    );
    let reads: Vec<Request> = (0..50_000u32)
        .map(|i| match i % 2 {
            0 => Request::Predict {
                cell: sh.cell.clone(),
                machine: MachineId(i % 64),
                vector: true,
            },
            _ => Request::Admit {
                cell: sh.cell.clone(),
                machine: MachineId(i % 64),
                limit: 0.05,
            },
        })
        .collect();
    out.insert("serve.proto.parse_read_ns", parse(&as_lines(&reads), 24));

    let responses = [
        Response::Ok,
        Response::Pred {
            peak: 0.731_234_567_891,
            mem: Some(0.412_345_678_912),
        },
        Response::Admitted {
            admit: true,
            projected: 0.781_234_567_891,
        },
        Response::Ok,
    ];
    const ENCODES: u64 = 2_000_000;
    let mut buf = Vec::with_capacity(64);
    out.insert(
        "serve.proto.encode_response_ns",
        ns_per(r, ENCODES, || {
            let mut bytes = 0usize;
            for i in 0..ENCODES as usize {
                buf.clear();
                responses[i % responses.len()].encode_into(&mut buf);
                bytes += buf.len();
            }
            bytes
        }),
    );
    let reply_lines: Vec<String> = responses.iter().map(Response::encode).collect();
    out.insert(
        "client.parse_response_ns",
        ns_per(r, ENCODES, || {
            let mut ok = 0u64;
            for i in 0..ENCODES as usize {
                ok += u64::from(Response::parse(&reply_lines[i % reply_lines.len()]).is_ok());
            }
            ok
        }),
    );

    // The byte stream a connection delivers, cut where the transport
    // happens to cut it: 64 KiB reads, never on a line boundary by design.
    let mut stream = Vec::new();
    for l in &scalar_lines {
        stream.extend_from_slice(l.as_bytes());
        stream.push(b'\n');
    }
    const FEED_PASSES: u64 = 8;
    out.insert(
        "serve.conn.feed_ns_per_line",
        ns_per(r, FEED_PASSES * scalar_lines.len() as u64, || {
            let mut lines = 0u64;
            for pass in 0..FEED_PASSES {
                let mut acc = LineAccumulator::new();
                let mut rest = &stream[..];
                let mut k = pass as usize;
                while !rest.is_empty() {
                    k += 1;
                    let cut = (65_536 - (k * 7_919) % 1_000).min(rest.len());
                    let (chunk, tail) = rest.split_at(cut);
                    rest = tail;
                    let _ = acc.feed(chunk, |line| {
                        lines += 1;
                        black_box(line.len());
                        Ok(true)
                    });
                }
            }
            lines
        }),
    );

    const BATCHES: u64 = 2;
    let mut frame = Vec::with_capacity(8_192);
    out.insert(
        "client.encode_ns_per_line",
        ns_per(r, BATCHES * scalar.len() as u64, || {
            let mut bytes = 0usize;
            for _ in 0..BATCHES {
                for batch in scalar.chunks(64) {
                    frame.clear();
                    encode_batch_into(batch, &mut frame);
                    bytes += frame.len();
                }
            }
            bytes
        }),
    );
    Ok(())
}

/// Passes over the shared cell one shard-apply repeat pushes through.
const APPLY_PASSES: u64 = 4;

/// `passes` passes over the shared cell as shard-routed chunks,
/// tick-major, each pass shifted past the previous one.
fn shard_chunks(sh: &Shared, pool: &ShardPool, passes: u64) -> Vec<(usize, Box<ObserveChunk>)> {
    let mut open: Vec<Box<ObserveChunk>> = (0..pool.shards())
        .map(|_| Box::new(ObserveChunk::new()))
        .collect();
    let mut done = Vec::new();
    for t in 0..passes * PROBE_TICKS {
        for m in &sh.machines {
            let key = (sh.cell.clone(), m.machine);
            let shard = pool.route(&key);
            for s in m.at(t % PROBE_TICKS) {
                let chunk = &mut open[shard];
                chunk.items[chunk.len] = ObserveItem {
                    key: key.clone(),
                    task: s.task,
                    usage: s.usage,
                    limit: s.limit,
                    mem: None,
                    tick: Tick(t),
                };
                chunk.len += 1;
                if chunk.len == OBS_CHUNK {
                    let full = std::mem::replace(chunk, Box::new(ObserveChunk::new()));
                    done.push((shard, full));
                }
            }
        }
    }
    for (shard, chunk) in open.into_iter().enumerate() {
        if chunk.len > 0 {
            done.push((shard, chunk));
        }
    }
    done
}

fn shard_probes(sh: &Shared, r: usize, out: &mut Out) -> Result<(), String> {
    let cfg = inputs::serve_config();
    let drain = |pool: &ShardPool| {
        for shard in 0..pool.shards() {
            let (reply, rx) = sync_channel(1);
            let _ = pool.send(shard, ShardMsg::Snapshot { reply });
            let _ = rx.recv();
        }
    };
    let mut samples = Vec::new();
    for _ in 0..r {
        let registry = MetricsRegistry::new();
        let pool = ShardPool::new(&cfg, &registry).map_err(|e| e.to_string())?;
        let chunks = shard_chunks(sh, &pool, APPLY_PASSES);
        let start = Instant::now();
        for (shard, chunk) in chunks {
            let _ = pool.send(shard, ShardMsg::ObserveBatch(chunk));
        }
        drain(&pool);
        samples.push(start.elapsed().as_secs_f64() * 1e9 / (APPLY_PASSES * sh.samples) as f64);
        pool.shutdown();
    }
    out.insert("serve.shard.apply_ns_per_sample", median(&samples));

    // One PREDICT in flight through the queue and back: the hop every
    // cache miss and every ADMIT pays.
    let registry = MetricsRegistry::new();
    let pool = ShardPool::new(&cfg, &registry).map_err(|e| e.to_string())?;
    let key = (sh.cell.clone(), sh.machines[0].machine);
    let shard = pool.route(&key);
    for (s, chunk) in shard_chunks(sh, &pool, 1) {
        let _ = pool.send(s, ShardMsg::ObserveBatch(chunk));
    }
    drain(&pool);
    const HOPS: u64 = 2_000;
    let rtt = ns_per(r, HOPS, || {
        let mut acc = 0.0;
        for _ in 0..HOPS {
            let (reply, rx) = sync_channel(1);
            let _ = pool.send(
                shard,
                ShardMsg::Predict {
                    key: key.clone(),
                    vector: false,
                    reply,
                    enqueued: Instant::now(),
                },
            );
            if let Ok(Response::Pred { peak, .. }) = rx.recv() {
                acc += peak;
            }
        }
        acc
    });
    out.insert("serve.shard.reply_rtt_us", rtt / 1e3);
    pool.shutdown();
    Ok(())
}

/// Echo server on `oc_reactor` alone: what the event loop and a loopback
/// socket cost with no protocol and no shards behind them.
fn reactor_probes(r: usize, out: &mut Out) -> Result<(), String> {
    const CONN: usize = 1;
    const WAKE: usize = 0;
    let io = |e: std::io::Error| format!("reactor probe: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let poller = Poller::new().map_err(io)?;
    let waker = Waker::new(&poller, WAKE).map_err(io)?;
    let result = std::thread::scope(|scope| -> Result<(f64, f64), String> {
        let server = scope.spawn(|| -> std::io::Result<()> {
            let (mut conn, _) = listener.accept()?;
            conn.set_nodelay(true)?;
            conn.set_nonblocking(true)?;
            poller.register(conn.as_raw_fd(), CONN, Interest::READABLE)?;
            let mut events = Events::with_capacity(8);
            let mut buf = vec![0u8; 65_536];
            loop {
                poller.wait(&mut events, None)?;
                for ev in events.iter() {
                    if ev.token() == WAKE {
                        return Ok(());
                    }
                    loop {
                        match conn.read(&mut buf) {
                            Ok(0) => return Ok(()),
                            Ok(n) => {
                                // Replies are at most one window; the
                                // loopback send buffer always has room.
                                let mut sent = 0;
                                while sent < n {
                                    match conn.write(&buf[sent..n]) {
                                        Ok(k) => sent += k,
                                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                            std::thread::yield_now()
                                        }
                                        Err(e) => return Err(e),
                                    }
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                            Err(e) => return Err(e),
                        }
                    }
                }
            }
        });
        let measured = (|| {
            let stream = TcpStream::connect(addr).map_err(io)?;
            stream.set_nodelay(true).map_err(io)?;
            let mut writer = stream.try_clone().map_err(io)?;
            let mut reader = BufReader::new(stream);
            let line = b"OBSERVE a 17 1234:5 0.25 0.5 100\n";
            let mut reply = String::new();

            const PINGS: u64 = 2_000;
            let mut failed = false;
            let rtt = ns_per(r, PINGS, || {
                for _ in 0..PINGS {
                    reply.clear();
                    failed |= writer.write_all(line).is_err()
                        || reader.read_line(&mut reply).unwrap_or(0) == 0;
                }
            });

            const WINDOW: usize = 512;
            const WINDOWS: u64 = 1_000;
            let window: Vec<u8> = line.repeat(WINDOW);
            let mut back = vec![0u8; window.len()];
            let per_line = ns_per(r, WINDOWS * WINDOW as u64, || {
                for _ in 0..WINDOWS {
                    failed |=
                        writer.write_all(&window).is_err() || reader.read_exact(&mut back).is_err();
                }
            });
            if failed {
                return Err("reactor probe: echo connection failed".to_string());
            }
            Ok((rtt / 1e3, 1e9 / per_line))
        })();
        let _ = waker.wake();
        match server.join() {
            Ok(Ok(())) => measured,
            Ok(Err(e)) => Err(io(e)),
            Err(_) => Err("reactor probe: echo thread panicked".to_string()),
        }
    })?;
    out.insert("reactor.echo_rtt_us", result.0);
    out.insert("reactor.echo_lines_per_s", result.1);
    Ok(())
}

/// Synchronous `Client::predict` against an in-process server, answered
/// from the predict cache and past it. One request in flight times the
/// host's idle wake-ups as much as the program: informational.
fn client_rtt_probes(r: usize, out: &mut Out) -> Result<(), String> {
    let server = Server::start(inputs::serve_config()).map_err(|e| e.to_string())?;
    let mut client =
        Client::connect(server.addr(), ClientConfig::default()).map_err(|e| e.to_string())?;
    let cell = CellId::new("probe");
    let machine = MachineId(0);
    let task = TaskId::new(JobId(1), 0);
    let mut tick = 0u64;
    let mut observe = |client: &mut Client| {
        tick += 1;
        client
            .observe(&cell, machine, task, 0.2, 0.5, tick)
            .map_err(|e| e.to_string())
    };
    for _ in 0..48 {
        observe(&mut client)?;
    }
    const READS: u64 = 1_000;
    let mut failed = false;
    let hit = ns_per(r, READS, || {
        for _ in 0..READS {
            failed |= client.predict(&cell, machine).is_err();
        }
    });
    let mut miss = Vec::new();
    for _ in 0..r {
        let mut spent = 0.0;
        for _ in 0..READS {
            observe(&mut client)?;
            let start = Instant::now();
            failed |= client.predict(&cell, machine).is_err();
            spent += start.elapsed().as_secs_f64();
        }
        miss.push(spent * 1e6 / READS as f64);
    }
    drop(client);
    server.shutdown();
    if failed {
        return Err("client rtt probe: a PREDICT failed".to_string());
    }
    out.insert("client.request_rtt_hit_us", hit / 1e3);
    out.insert("client.request_rtt_miss_us", median(&miss));
    Ok(())
}

/// A three-member ring started, filled, killed and repaired once per
/// repeat: supervisor timings and member memory.
fn cluster_probes(r: usize, out: &mut Out) -> Result<(), String> {
    let ring = RingSpec::new(3).build();
    let alive = [true; 3];
    let cell = CellId::new("probe");
    let hashes: Vec<u64> = (0..4_096u32)
        .map(|m| key_hash(&(cell.clone(), MachineId(m))))
        .collect();
    const ROUTE_PASSES: u64 = 256;
    out.insert(
        "cluster.ring.route_ns",
        ns_per(r, ROUTE_PASSES * hashes.len() as u64, || {
            let mut acc = 0usize;
            for _ in 0..ROUTE_PASSES {
                for &h in &hashes {
                    let (owner, replica) = ring.routes(black_box(h), &alive);
                    acc += owner.unwrap_or(0) + replica.unwrap_or(0);
                }
            }
            acc
        }),
    );

    const MACHINES: u64 = 500;
    const TICKS: u64 = 100;
    let io = |e: std::io::Error| format!("cluster probe: {e}");
    let (mut start_s, mut replace_s, mut replay_rate) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rss_mb, mut bytes_per_sample) = (Vec::new(), Vec::new());
    for _ in 0..r.min(3) {
        let started = Instant::now();
        let mut cluster = Cluster::start(&ClusterConfig {
            nodes: 3,
            shards: 1,
            handoff_log: true,
            ..ClusterConfig::default()
        })
        .map_err(io)?;
        start_s.push(started.elapsed().as_secs_f64());

        let rss_empty = procfs::children_hwm_kb();
        let mut ccfg = ClusterClientConfig::default();
        ccfg.client = ccfg.client.with_batch(64);
        ccfg.pipeline_frames = 8;
        let mut cc = ClusterClient::connect(cluster.spec(), &cluster.addrs(), ccfg)
            .map_err(|e| e.to_string())?;
        let fleet_cfg = FleetConfig {
            cell: "probe".to_string(),
            machines: MACHINES,
            ticks: TICKS,
            fetch_stats: false,
            ..FleetConfig::default()
        };
        let report = fleet::run_routed(&mut cc, &fleet_cfg).map_err(|e| e.to_string())?;
        drop(cc);
        let rss_full = procfs::children_hwm_kb();
        // Every acknowledged sample is held twice: owner and replica.
        bytes_per_sample
            .push((rss_full.saturating_sub(rss_empty) * 1024) as f64 / (2 * report.ok) as f64);
        rss_mb.push(
            procfs::children()
                .into_iter()
                .map(procfs::vm_hwm_kb)
                .max()
                .unwrap_or(0) as f64
                / 1024.0,
        );

        cluster.kill(0).map_err(io)?;
        let started = Instant::now();
        let replay = cluster.replace(0).map_err(io)?;
        let took = started.elapsed().as_secs_f64();
        replace_s.push(took);
        replay_rate.push(replay.replayed as f64 / took);
        drop(cluster);
    }
    out.insert("cluster.supervisor.start_s", median(&start_s));
    out.insert("cluster.supervisor.replace_s", median(&replace_s));
    out.insert(
        "cluster.supervisor.replayed_lines_per_s",
        median(&replay_rate),
    );
    out.insert("cluster.member.rss_mb", median(&rss_mb));
    out.insert("cluster.member.bytes_per_sample", median(&bytes_per_sample));
    Ok(())
}

fn telemetry_probes(r: usize, out: &mut Out) {
    // Fewer spans per repeat than a thread's ring holds, drained between
    // repeats, so the enabled figure is the cost of recording, not of
    // dropping.
    const SPANS: u64 = 20_000;
    let spans = || {
        for _ in 0..SPANS {
            drop(black_box(oc_telemetry::trace::span("bench.probe")));
        }
    };
    let was_on = oc_telemetry::trace::enabled();
    oc_telemetry::trace::disable();
    out.insert(
        "telemetry.span_disabled_ns",
        ns_per(r, 1_000 * SPANS, || (0..1_000).for_each(|_| spans())),
    );
    oc_telemetry::trace::enable();
    const CYCLES: usize = 25;
    let samples: Vec<f64> = (0..r)
        .map(|_| {
            let mut ns = 0.0;
            for _ in 0..CYCLES {
                ns += ns_per(1, SPANS, spans);
                oc_telemetry::trace::drain();
            }
            ns / CYCLES as f64
        })
        .collect();
    out.insert("telemetry.span_ns", median(&samples));
    if !was_on {
        oc_telemetry::trace::disable();
    }
    oc_telemetry::trace::drain();
}

/// Runs every probe with `repeats` repeats each.
pub fn run(repeats: usize) -> Result<Out, String> {
    let mut out = Out::new();
    let shared = Shared::new()?;
    stats_probes(repeats, &mut out)?;
    trace_and_core_probes(&shared, repeats, &mut out)?;
    codec_probes(&shared, repeats, &mut out)?;
    shard_probes(&shared, repeats, &mut out)?;
    reactor_probes(repeats, &mut out)?;
    client_rtt_probes(repeats, &mut out)?;
    cluster_probes(repeats, &mut out)?;
    telemetry_probes(repeats, &mut out);
    Ok(out)
}
