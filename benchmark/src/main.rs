//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! oc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
//! oc-benchmark --smoke            every workload, shrunk, all gates on
//! oc-benchmark layers             the layer probes alone
//! oc-benchmark --list             every name with unit, direction, bound
//! oc-benchmark reference <seed>   offline-cell reference rows for a seed
//! ```

mod gates;
mod harness;
mod inputs;
mod names;
mod probes;
mod procfs;
mod report;
mod spans;
mod util;
mod workloads;

use harness::{RunOpts, Scale, Session};
use spans::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::ingest_stream::IngestStream;
use workloads::offline_cell::OfflineCell;
use workloads::predict_admit::PredictAdmit;
use workloads::ring_replace::RingReplace;

struct Args {
    workload: Option<String>,
    opts: RunOpts,
    out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        opts: RunOpts {
            seed: 42,
            seconds: 12.0,
            trace: false,
            scale: Scale::Full,
        },
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.opts.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                parsed.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => {
                parsed.opts.scale = Scale::Smoke;
                parsed.opts.seconds = 1.0;
            }
            "--out" => parsed.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Writes the traced run's spans, the drained product events, per-name
/// self times and the per-layer values as JSONL under `dir`.
fn write_trace(
    dir: &Path,
    workload: &str,
    seed: u64,
    tr: &Tracer,
    layers: &[(&'static str, f64)],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let (product, not_written) = tr.product();
    let mut counters: BTreeMap<String, f64> = layers
        .iter()
        .map(|(name, value)| (name.to_string(), *value))
        .collect();
    counters.insert(
        "trace.product_events_not_written".to_string(),
        not_written as f64,
    );
    let path = dir.join(format!("trace-{workload}-{seed}.jsonl"));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    spans::write_jsonl(&mut file, tr.spans(), product, &counters)?;
    std::io::Write::flush(&mut file)?;
    Ok(path)
}

/// Runs one workload and prints its result. `Ok(true)` = all gates passed.
fn run_workload<S: Session>(name: &str, args: &Args) -> Result<bool, String> {
    let mut tr = Tracer::new(args.opts.trace);
    let report = harness::run::<S>(&args.opts, &mut tr)?;
    let e2e = harness::end_to_end(&report);
    for failure in &report.gate_failures {
        eprintln!("GATE FAILED [{name}] {failure}");
    }
    let correct = report.gate_failures.is_empty();
    println!(
        "workload={name} seed={} ops_attempted={} ops_failed={} rounds={} rounds_used={} sessions={} \
         latency_samples={} client.latency_p99_us={:.1} rss_peak_mb={:.1} host.yardstick_ms={:.3} \
         host.steal_share={:.4} disturbed={}",
        args.opts.seed,
        e2e.attempted,
        e2e.failed,
        report.rounds.len(),
        e2e.rounds_used,
        report.sessions,
        e2e.latency_samples,
        e2e.latency_p99_us,
        e2e.rss_peak_mb,
        report.yardstick_ms,
        e2e.steal_share,
        u8::from(e2e.disturbed || report.yardstick_outliers > 0),
    );
    let metrics = if args.opts.trace {
        let probes = probes::run(probes::TRACED_REPEATS)?;
        let layers = report::per_layer(name, &report, &e2e, &probes);
        match write_trace(&args.out_dir, name, args.opts.seed, &tr, &layers) {
            Ok(path) => println!("trace written to {}", path.display()),
            Err(e) => return Err(format!("writing the trace: {e}")),
        }
        layers
    } else {
        e2e.metrics.clone()
    };
    report::print_table(&metrics);
    println!(
        "{}",
        report::result_json(correct, e2e.attempted, e2e.failed, &metrics)
    );
    Ok(correct)
}

fn dispatch(name: &str, args: &Args) -> Result<bool, String> {
    match name {
        "ingest-stream" => run_workload::<IngestStream>(name, args),
        "predict-admit" => run_workload::<PredictAdmit>(name, args),
        "ring-replace" => run_workload::<RingReplace>(name, args),
        "offline-cell" => run_workload::<OfflineCell>(name, args),
        other => Err(format!(
            "unknown workload {other}; known: {}",
            names::WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--list") => {
            names::print_list();
            Ok(true)
        }
        Some("layers") => {
            let probes = probes::run(probes::LAYERS_REPEATS)?;
            let rows: Vec<(&'static str, f64)> = probes.into_iter().collect();
            report::print_table(&rows);
            Ok(true)
        }
        Some("reference") => {
            let seed = args
                .get(1)
                .and_then(|s| s.parse().ok())
                .ok_or("reference needs a seed")?;
            OfflineCell::print_reference(seed).map(|()| true)
        }
        _ => {
            let parsed = parse_args(&args)?;
            match (&parsed.workload, parsed.opts.scale) {
                (Some(name), _) => dispatch(name, &parsed),
                (None, Scale::Smoke) => {
                    let mut all = true;
                    for w in names::WORKLOADS {
                        all &= dispatch(w.name, &parsed)?;
                    }
                    Ok(all)
                }
                (None, Scale::Full) => {
                    Err("--workload is required (or --smoke, layers, --list)".to_string())
                }
            }
        }
    }
}

fn main() -> ExitCode {
    // A process started by `Cluster::start` as a ring member never returns
    // from this call.
    oc_cluster::run_child_if_node();
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("oc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
