//! `loadgen` binary: drive `oc-serve`, or a ring of them, with generated
//! load.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--machines N] [--ticks N] [--connections N]
//!         [--qps N] [--rate-per-conn R] [--seed U64] [--no-predicts]
//!         [--batch N] [--chaos RATE] [--chaos-seed U64] [--trace-out FILE]
//! loadgen --cluster H:P,H:P,... [--machines N] [--ticks N] [--batch N]
//!         [--trace-out FILE]
//! ```
//!
//! **One address.** Every run against one server is one call of the load
//! driver, `oc_client::loadgen::run`: one thread drives all of the run's
//! connections as lanes of the client's send engine. Without `--addr` the
//! binary first starts an in-process server (`ServeConfig::default()`)
//! and uses its address; from there the run is the same. By default each
//! of `--connections` connections replays a share of a generated cell's
//! machines (`--machines`, `--ticks`, `--seed`, `--no-predicts`), paced
//! at `--qps` lines/s in total or unpaced. With `--rate-per-conn R` the
//! run is a node-agent fan-in instead: connection `i` streams synthetic
//! machine `i` at `R` lines/s, in `--batch` frames (64 when unset;
//! `--batch 1` sends one-line frames, no `BATCH` header).
//!
//! `--chaos RATE` injects seeded faults (delays, partial reads/writes,
//! dropped connections) into that fraction of client socket operations;
//! the run must still finish with every acknowledged sample accounted for
//! on the server. `--chaos-seed` seeds that plan and is refused without
//! `--chaos`.
//!
//! **A ring.** `--cluster H:P,H:P,...` drives an external member ring
//! (started e.g. by `oc-clusterd`, which shares the default ring
//! seed/vnodes) through one routed, mirroring `ClusterClient`: a fleet of
//! `--machines` synthetic machines, `--ticks` samples each, in `--batch`
//! frames (64 when unset). The single-address flags do not apply there
//! and are refused.
//!
//! **Verdict.** A run prints one summary line on stderr and exits
//! nonzero when an acknowledged sample is unaccounted for (`lost > 0`),
//! when a connection failed, or — with `--cluster` — when the ring's
//! merged `STATS` machine count is not the fleet's mirrored size
//! (machines × min(2, members)).
//!
//! With `--trace-out FILE`, structured tracing is enabled for the run and
//! the drained client-side spans/events (`loadgen.conn` spans,
//! `client.retry.*` / `client.reconnect` events) are written to FILE as
//! JSONL on exit — see `docs/OPERATIONS.md` for the event dictionary.

use oc_client::fleet::{self, FleetConfig};
use oc_client::loadgen::{run, LoadgenConfig, Script};
use oc_client::{ClientError, ClusterClient, ClusterClientConfig, LoadReport};
use oc_cluster::RingSpec;
use oc_serve::fault::FaultPlan;
use oc_serve::{ServeConfig, Server};
use std::net::SocketAddr;
use std::process::ExitCode;

/// Flags that shape a single-address run and mean nothing to `--cluster`.
const SINGLE_ADDRESS_FLAGS: [&str; 8] = [
    "--addr",
    "--connections",
    "--qps",
    "--rate-per-conn",
    "--seed",
    "--no-predicts",
    "--chaos",
    "--chaos-seed",
];

struct Args {
    addr: Option<SocketAddr>,
    /// External cluster member addresses (`--cluster`), ring order.
    cluster: Option<Vec<SocketAddr>>,
    cfg: LoadgenConfig,
    rate_per_conn: Option<u64>,
    /// `--batch` as given; the fan-in and ring drives default to 64.
    batch: Option<usize>,
    trace_out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--addr HOST:PORT] [--machines N] [--ticks N] \
         [--connections N] [--qps N] [--rate-per-conn R] [--seed U64] \
         [--no-predicts] [--batch N] [--chaos RATE] [--chaos-seed U64] \
         [--trace-out FILE]\n       \
         loadgen --cluster H:P,H:P,... [--machines N] [--ticks N] [--batch N] \
         [--trace-out FILE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut out = Args {
        addr: None,
        cluster: None,
        cfg: LoadgenConfig::default(),
        rate_per_conn: None,
        batch: None,
        trace_out: None,
    };
    let mut chaos_rate = None;
    let mut chaos_seed = None;
    let mut single_address_flag = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if let Some(flag) = SINGLE_ADDRESS_FLAGS.iter().find(|f| **f == arg) {
            single_address_flag = Some(*flag);
        }
        let mut val = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => out.addr = Some(val("--addr").parse().unwrap_or_else(|_| usage())),
            "--cluster" => {
                let list: Result<Vec<SocketAddr>, _> =
                    val("--cluster").split(',').map(str::parse).collect();
                out.cluster = Some(list.unwrap_or_else(|_| usage()));
            }
            "--machines" => {
                out.cfg.machines = val("--machines").parse().unwrap_or_else(|_| usage())
            }
            "--ticks" => out.cfg.ticks = val("--ticks").parse().unwrap_or_else(|_| usage()),
            "--connections" => {
                out.cfg.connections = val("--connections").parse().unwrap_or_else(|_| usage())
            }
            "--qps" => out.cfg.target_qps = val("--qps").parse().unwrap_or_else(|_| usage()),
            "--rate-per-conn" => {
                out.rate_per_conn = Some(val("--rate-per-conn").parse().unwrap_or_else(|_| usage()))
            }
            "--seed" => out.cfg.seed = Some(val("--seed").parse().unwrap_or_else(|_| usage())),
            "--no-predicts" => out.cfg.predicts = false,
            "--batch" => out.batch = Some(val("--batch").parse().unwrap_or_else(|_| usage())),
            "--chaos" => chaos_rate = Some(val("--chaos").parse().unwrap_or_else(|_| usage())),
            "--chaos-seed" => {
                chaos_seed = Some(val("--chaos-seed").parse().unwrap_or_else(|_| usage()))
            }
            "--trace-out" => out.trace_out = Some(val("--trace-out")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    if let (Some(_), Some(flag)) = (&out.cluster, single_address_flag) {
        eprintln!("{flag} does not apply to --cluster");
        usage();
    }
    if let Some(rate) = chaos_rate {
        out.cfg.chaos = Some(FaultPlan::new(chaos_seed.unwrap_or(42), rate));
    } else if chaos_seed.is_some() {
        eprintln!("--chaos-seed needs --chaos");
        usage();
    }
    if let Some(batch) = out.batch {
        out.cfg.batch = batch;
    }
    out
}

/// One run against `addr`: the cell replay, or the fan-in script paced
/// at `--rate-per-conn` on every connection.
fn single(addr: SocketAddr, args: &Args) -> Result<(&'static str, LoadReport), ClientError> {
    match args.rate_per_conn {
        None => Ok(("replay", run(addr, &args.cfg)?)),
        Some(rate) => {
            let cfg = LoadgenConfig {
                script: Script::Fanin,
                target_qps: rate.saturating_mul(args.cfg.connections as u64),
                batch: args.batch.unwrap_or(64),
                ..args.cfg.clone()
            };
            Ok(("fanin", run(addr, &cfg)?))
        }
    }
}

/// One fleet drive against an external member ring sharing the default
/// ring seed/vnodes (what `oc-clusterd` starts).
fn cluster(addrs: &[SocketAddr], args: &Args) -> Result<LoadReport, ClientError> {
    let mut ccfg = ClusterClientConfig {
        pipeline_frames: 32,
        ..ClusterClientConfig::default()
    };
    ccfg.client = ccfg.client.with_batch(args.batch.unwrap_or(64));
    let mut cc = ClusterClient::connect(RingSpec::new(addrs.len()), addrs, ccfg)?;
    let cfg = FleetConfig {
        cell: "fleet".to_string(),
        machines: args.cfg.machines as u64,
        first_tick: 0,
        ticks: args.cfg.ticks,
        fetch_stats: true,
    };
    fleet::run_routed(&mut cc, &cfg)
}

fn summary(label: &str, report: &LoadReport) {
    eprintln!(
        "loadgen[{label}]: {} reqs in {:.2}s = {:.0} qps, p50 {:.0}us p99 {:.0}us, \
         errors {}, retries {}, faults {}, lost {}, failed conns {}, machines {}",
        report.sent,
        report.wall_secs,
        report.achieved_qps,
        report.p50_us(),
        report.p99_us(),
        report.errors,
        report.retries,
        report.faults,
        report.lost,
        report.failed_connections,
        report.server.machines,
    );
    for why in &report.conn_failures {
        eprintln!("loadgen[{label}]:   failed: {why}");
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.trace_out.is_some() {
        oc_telemetry::trace::enable();
    }
    let result = match (&args.cluster, args.addr) {
        (Some(members), _) => cluster(members, &args).map(|r| ("cluster", r)),
        (None, Some(addr)) => single(addr, &args),
        (None, None) => match Server::start(ServeConfig::default()) {
            Ok(server) => {
                let result = single(server.addr(), &args);
                server.shutdown();
                result
            }
            Err(e) => Err(ClientError::Config(e.to_string())),
        },
    };
    let (label, report) = match result {
        Ok(done) => done,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };
    summary(label, &report);
    let mut ok = true;
    if let Some(path) = &args.trace_out {
        match oc_telemetry::trace::finish(path) {
            Ok((n, dropped)) => {
                eprintln!("loadgen: wrote {n} trace events to {path}");
                if dropped > 0 {
                    eprintln!("loadgen: {dropped} trace events dropped at full per-thread buffers");
                }
            }
            Err(e) => {
                eprintln!("loadgen: writing {path}: {e}");
                ok = false;
            }
        }
    }
    if report.lost > 0 {
        eprintln!(
            "loadgen: FAIL — {} acknowledged samples unaccounted for",
            report.lost
        );
        ok = false;
    }
    if report.failed_connections > 0 {
        eprintln!(
            "loadgen: FAIL — {} connections failed",
            report.failed_connections
        );
        ok = false;
    }
    if let Some(members) = &args.cluster {
        let expected = args.cfg.machines as u64 * members.len().min(2) as u64;
        if report.server.machines != expected {
            eprintln!(
                "loadgen: FAIL — the ring holds {} machines, the mirrored fleet is {expected}",
                report.server.machines
            );
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
