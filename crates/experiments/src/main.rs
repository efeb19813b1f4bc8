//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--full] [--plot] [--threads N] [--results DIR] [--seed U64]
//!       [--trace-out FILE] <experiment>...
//! repro all
//! ```
//!
//! Every id is resolved against the registry before any experiment runs:
//! one unknown id is a usage error, and nothing runs.
//!
//! With `--trace-out FILE`, structured tracing is enabled for the run:
//! the simulator core records sampled `sim.tick` spans and the drained
//! events are written to FILE as JSONL on exit (see `docs/OPERATIONS.md`).

use oc_experiments::common::{Opts, Scale};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut opts = Opts::default();
    let mut experiments: Vec<String> = Vec::new();
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace-out" => match args.next() {
                Some(path) => trace_out = Some(path),
                None => return usage("--trace-out needs a file path"),
            },
            "--full" => opts.scale = Scale::Full,
            "--plot" => opts.plot = true,
            "--quick" => opts.scale = Scale::Quick,
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.threads = n,
                None => return usage("--threads needs a positive integer"),
            },
            "--results" => match args.next() {
                Some(dir) => opts.results = dir.into(),
                None => return usage("--results needs a directory"),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) => opts.seed = Some(s),
                None => return usage("--seed needs a u64"),
            },
            "--help" | "-h" => return usage(""),
            other if other.starts_with('-') => return usage(&format!("unknown flag '{other}'")),
            other => experiments.push(other.to_string()),
        }
    }
    if experiments.is_empty() {
        return usage("no experiment given");
    }
    let plan = match oc_experiments::resolve(&experiments) {
        Ok(plan) => plan,
        Err(e) => return usage(&e),
    };
    if trace_out.is_some() {
        oc_telemetry::trace::enable();
    }
    println!(
        "scale: {:?}, threads: {}, results dir: {}{}",
        opts.scale,
        opts.threads,
        opts.results.display(),
        match opts.seed {
            Some(s) => format!(", seed: {s}"),
            None => String::new(),
        }
    );
    for exp in plan {
        if let Err(e) = oc_experiments::run(exp, &opts) {
            eprintln!("error running {}: {e}", exp.id);
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = trace_out {
        match oc_telemetry::trace::finish(&path) {
            Ok((n, dropped)) => {
                eprintln!("repro: wrote {n} trace events to {path}");
                if dropped > 0 {
                    eprintln!("repro: {dropped} trace events dropped at full per-thread buffers");
                }
            }
            Err(e) => {
                eprintln!("repro: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: repro [--full] [--plot] [--threads N] [--results DIR] [--seed U64] \
         [--trace-out FILE] <experiment>...\n\
         experiments: {}\n\
         --full runs the presets' full scale; the default is a quick pass\n\
         --seed overrides every cell preset's workload seed (sensitivity runs)",
        oc_experiments::known_ids()
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
