//! Every workload and metric name the benchmark prints, with unit,
//! direction and (end-to-end only) regression bound. `--list` prints
//! these tables; `check_names.sh` holds them against `BENCHMARK.json`
//! and `README.md`.

/// A workload and why it exists.
pub struct WorkloadInfo {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line on what it stresses and what it bypasses.
    pub why: &'static str,
}

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// before it counts as a regression (see `CALIBRATION.md`).
    pub bound: f64,
}

/// A metric of a single layer; informational, no bound.
pub struct PerLayer {
    /// Metric name, prefixed by the crate or layer it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

/// The four workloads.
pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "ingest-stream",
        why: "framed scalar OBSERVE write path: proto, conn, shard queue and client framing do the work; predictors and predict cache none",
    },
    WorkloadInfo {
        name: "predict-admit",
        why: "unframed PREDICT/ADMIT reads beside two-lane writes: predictors, predict cache and the reactor-to-shard reply hop; BATCH framing unused",
    },
    WorkloadInfo {
        name: "ring-replace",
        why: "3-member cluster ingest through kill, failover and same-slot replace: routing, mirroring, tail replay, HANDOFF replay, adoption, member memory",
    },
    WorkloadInfo {
        name: "offline-cell",
        why: "run_cell over a materialised cell with no sockets: stats and core only, so a wire or queue change must show no movement here",
    },
];

/// The five end-to-end metrics, reported for every workload. (The issue's
/// sixth, `rss_peak_mb`, failed A/A on `ingest-stream` and moved to the
/// per-layer list by the issue's own rule; see README.)
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "slo_share",
        unit: "share",
        better: "higher",
        bound: 0.05,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics, printed by `layers` and by every `--trace 1` run.
pub const PER_LAYER: &[PerLayer] = &[
    // Single-threaded probes, one per layer boundary.
    layer("stats.order_stat.push_ns", "ns", "lower"),
    layer("stats.moving.push_ns", "ns", "lower"),
    layer("stats.peak.push_ns", "ns", "lower"),
    layer("trace.gen_ns_per_sample", "ns", "lower"),
    layer("core.view.observe_ns_per_sample", "ns", "lower"),
    layer("core.view.observe_vec_ns_per_sample", "ns", "lower"),
    layer("core.ingest.ns_per_sample", "ns", "lower"),
    layer("core.predict.borg_default_ns", "ns", "lower"),
    layer("core.predict.rc_like_ns", "ns", "lower"),
    layer("core.predict.n_sigma_ns", "ns", "lower"),
    layer("core.predict.max_ns", "ns", "lower"),
    layer("core.predict.vec_ns", "ns", "lower"),
    layer("core.oracle.ns_per_tick", "ns", "lower"),
    layer("core.sim.ns_per_machine_tick", "ns", "lower"),
    layer("core.runner.parallel_efficiency", "share", "higher"),
    layer("serve.proto.parse_observe_ns", "ns", "lower"),
    layer("serve.proto.parse_observe_vec_ns", "ns", "lower"),
    layer("serve.proto.parse_read_ns", "ns", "lower"),
    layer("serve.proto.encode_response_ns", "ns", "lower"),
    layer("serve.conn.feed_ns_per_line", "ns", "lower"),
    layer("serve.shard.apply_ns_per_sample", "ns", "lower"),
    layer("serve.shard.reply_rtt_us", "us", "lower"),
    layer("reactor.echo_rtt_us", "us", "lower"),
    layer("reactor.echo_lines_per_s", "1/s", "higher"),
    layer("client.encode_ns_per_line", "ns", "lower"),
    layer("client.parse_response_ns", "ns", "lower"),
    layer("client.request_rtt_hit_us", "us", "lower"),
    layer("client.request_rtt_miss_us", "us", "lower"),
    layer("cluster.ring.route_ns", "ns", "lower"),
    layer("cluster.supervisor.start_s", "s", "lower"),
    layer("cluster.supervisor.replace_s", "s", "lower"),
    layer("cluster.supervisor.replayed_lines_per_s", "1/s", "higher"),
    layer("cluster.member.rss_mb", "MB", "lower"),
    layer("cluster.member.bytes_per_sample", "B", "lower"),
    layer("telemetry.span_ns", "ns", "lower"),
    layer("telemetry.span_disabled_ns", "ns", "lower"),
    // Per-thread CPU of the traced rounds, grouped by thread name.
    layer("client.cpu_us_per_op", "us", "lower"),
    layer("serve.reactor.cpu_us_per_op", "us", "lower"),
    layer("serve.shard.cpu_us_per_op", "us", "lower"),
    layer("client.busy_share", "share", "lower"),
    layer("serve.reactor.busy_share", "share", "lower"),
    layer("serve.shard.busy_share", "share", "lower"),
    // Counters scraped at the round boundaries of the traced run.
    layer("telemetry.trace_overhead_share", "share", "lower"),
    layer("serve.coalesce.samples_per_chunk", "count", "higher"),
    layer("serve.predict.cache_hit_share", "share", "higher"),
    layer("serve.reactor.requests_per_wakeup", "count", "higher"),
    layer("serve.reactor.writes_blocked", "count", "lower"),
    layer("serve.shard.latency_mean_us", "us", "lower"),
    layer("serve.busy_share", "share", "lower"),
    layer("client.retry_share", "share", "lower"),
    layer("client.reconnects", "count", "lower"),
    layer("cluster.pipeline.lines_per_frame", "count", "higher"),
    layer("cluster.pipeline.replayed_tails", "count", "lower"),
    layer("cluster.redirects", "count", "lower"),
    layer("cluster.adoptions", "count", "lower"),
    layer("cluster.failovers", "count", "lower"),
    layer("cluster.mirror_drops", "count", "lower"),
    layer("sim.predictor_evals_per_tick", "count", "lower"),
    layer("client.latency_p99_us", "us", "lower"),
    layer("client.latency_max_us", "us", "lower"),
    layer("client.latency_samples", "count", "higher"),
    layer("budget.ingest-stream.explained_share", "share", "higher"),
    layer("rss_peak_mb", "MB", "lower"),
    layer("host.yardstick_ms", "ms", "lower"),
    layer("host.steal_share", "share", "lower"),
    layer("run.ops_attempted", "count", "higher"),
    layer("run.ops_failed", "count", "lower"),
    layer("run.rounds", "count", "higher"),
];

/// Prints the three tables, one name per line, in the format
/// `check_names.sh` compares against `BENCHMARK.json`.
pub fn print_list() {
    for w in WORKLOADS {
        println!("workload {} | {}", w.name, w.why);
    }
    for m in END_TO_END {
        println!("end_to_end {} {} {} {}", m.name, m.unit, m.better, m.bound);
    }
    for m in PER_LAYER {
        println!("per_layer {} {} {}", m.name, m.unit, m.better);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_wellformed_and_within_the_caps() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for n in &names {
            assert!(n.len() <= 64, "{n} is too long");
            assert!(n.starts_with(|c: char| c.is_ascii_alphanumeric()), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }
}
