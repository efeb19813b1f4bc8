//! `oc-serve` binary: run the peak-prediction service in the foreground.
//!
//! ```text
//! oc-serve [--addr HOST:PORT] [--shards N] [--capacity F]
//!          [--reactor-threads N] [--max-connections N] [--trace-out FILE]
//! ```
//!
//! The server runs until a client sends `SHUTDOWN`; it then closes every
//! shard and prints the final `STATS` snapshot to stdout. With
//! `--trace-out`, structured tracing is enabled for the whole run and the
//! drained spans/events are written to FILE as JSONL on exit (see
//! `docs/OPERATIONS.md` for the event dictionary).

use oc_serve::{ServeConfig, Server};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: oc-serve [--addr HOST:PORT] [--shards N] [--capacity F] \
         [--reactor-threads N] [--max-connections N] [--trace-out FILE]"
    );
    std::process::exit(2);
}

struct Args {
    cfg: ServeConfig,
    trace_out: Option<String>,
}

fn parse_args() -> Args {
    let mut cfg = ServeConfig::default().with_addr("127.0.0.1:7421");
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => cfg.addr = val("--addr"),
            "--shards" => {
                cfg.shards = val("--shards").parse().unwrap_or_else(|_| usage());
            }
            "--capacity" => {
                cfg.machine_capacity = val("--capacity").parse().unwrap_or_else(|_| usage());
            }
            "--reactor-threads" => {
                cfg.reactor_threads = val("--reactor-threads").parse().unwrap_or_else(|_| usage());
            }
            "--max-connections" => {
                cfg.max_connections = val("--max-connections").parse().unwrap_or_else(|_| usage());
            }
            "--trace-out" => trace_out = Some(val("--trace-out")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    Args { cfg, trace_out }
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.trace_out.is_some() {
        oc_telemetry::trace::enable();
    }
    let server = match Server::start(args.cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("oc-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("oc-serve: listening on {}", server.addr());
    server.wait();
    eprintln!("oc-serve: shutdown requested, draining");
    let stats = server.shutdown();
    println!("{}", stats.encode_fields());
    if let Some(path) = args.trace_out {
        match oc_telemetry::trace::finish(&path) {
            Ok((n, dropped)) => {
                eprintln!("oc-serve: wrote {n} trace events to {path}");
                if dropped > 0 {
                    eprintln!(
                        "oc-serve: {dropped} trace events dropped at full per-thread buffers"
                    );
                }
            }
            Err(e) => {
                eprintln!("oc-serve: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
