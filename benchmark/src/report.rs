//! Turns a run into what it prints: named metrics with units, the
//! per-layer figures of a traced run, and the driver's JSON result line.

use crate::harness::{EndToEndValues, RunReport};
use crate::names::{END_TO_END, PER_LAYER};
use crate::procfs::ThreadGroup;
use std::collections::BTreeMap;

/// The per-line costs whose sum `budget.ingest-stream.explained_share`
/// holds against the measured CPU per op.
const INGEST_BUDGET: [&str; 6] = [
    "client.encode_ns_per_line",
    "serve.conn.feed_ns_per_line",
    "serve.proto.parse_observe_ns",
    "serve.shard.apply_ns_per_sample",
    "serve.proto.encode_response_ns",
    "client.parse_response_ns",
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric of a traced run, in `names::PER_LAYER` order:
/// probe results, thread CPU split, and ratios of scraped counters. A
/// layer the workload does not touch reads 0.
pub fn per_layer(
    workload: &str,
    report: &RunReport,
    e2e: &EndToEndValues,
    probes: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, f64)> {
    let mut v: BTreeMap<&'static str, f64> = probes.clone();
    if let Some(t) = &report.traced {
        let ops = t.ops as f64;
        let c = |name: &str| t.counters.get(name).copied().unwrap_or(0.0);
        let thread = |g: ThreadGroup| t.threads.get(&g).copied().unwrap_or((0.0, 0.0));
        let (client, reactor, shard) = (
            thread(ThreadGroup::Client),
            thread(ThreadGroup::Reactor),
            thread(ThreadGroup::Shard),
        );
        v.insert("client.cpu_us_per_op", ratio(client.0 * 1e6, ops));
        v.insert("serve.reactor.cpu_us_per_op", ratio(reactor.0 * 1e6, ops));
        v.insert("serve.shard.cpu_us_per_op", ratio(shard.0 * 1e6, ops));
        v.insert("client.busy_share", ratio(client.0, t.wall_s));
        v.insert("serve.reactor.busy_share", ratio(reactor.1, t.wall_s));
        v.insert("serve.shard.busy_share", ratio(shard.1, t.wall_s));
        v.insert("telemetry.trace_overhead_share", t.overhead_share);

        let observes = c("serve.requests.observe");
        let requests = observes + c("serve.requests.predict") + c("serve.requests.admit");
        v.insert(
            "serve.coalesce.samples_per_chunk",
            ratio(observes, observes - c("serve.batch.coalesced")),
        );
        let (hit, miss) = (c("serve.predict.cache_hit"), c("serve.predict.cache_miss"));
        v.insert("serve.predict.cache_hit_share", ratio(hit, hit + miss));
        v.insert(
            "serve.reactor.requests_per_wakeup",
            ratio(requests, c("serve.reactor.wakeups")),
        );
        v.insert(
            "serve.reactor.writes_blocked",
            c("serve.reactor.writes_blocked"),
        );
        v.insert("serve.shard.latency_mean_us", c("gauge.stats.mean_us"));
        v.insert("serve.busy_share", ratio(c("stats.busy"), requests));
        v.insert("client.retry_share", ratio(c("client.retries"), ops));
        v.insert("client.reconnects", c("client.reconnects"));
        v.insert(
            "cluster.pipeline.lines_per_frame",
            ratio(ops, c("cluster.pipeline.frames")),
        );
        for name in [
            "cluster.pipeline.replayed_tails",
            "cluster.redirects",
            "cluster.adoptions",
            "cluster.failovers",
            "cluster.mirror_drops",
        ] {
            v.insert(name, c(name));
        }
        v.insert(
            "sim.predictor_evals_per_tick",
            ratio(c("sim.predictor_evals"), c("sim.ticks")),
        );
    }
    let e = |name: &str| {
        e2e.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, x)| *x)
    };
    v.insert("client.latency_p99_us", e2e.latency_p99_us);
    v.insert("client.latency_max_us", e2e.latency_max_us);
    v.insert("client.latency_samples", e2e.latency_samples as f64);
    let explained: f64 = INGEST_BUDGET
        .iter()
        .map(|n| v.get(n).copied().unwrap_or(0.0))
        .sum();
    v.insert(
        "budget.ingest-stream.explained_share",
        match workload {
            "ingest-stream" => ratio(explained / 1e3, e("cpu_us_per_op")),
            _ => 0.0,
        },
    );
    v.insert("rss_peak_mb", e2e.rss_peak_mb);
    v.insert("host.yardstick_ms", report.yardstick_ms);
    v.insert("host.steal_share", e2e.steal_share);
    v.insert("run.ops_attempted", e2e.attempted as f64);
    v.insert("run.ops_failed", e2e.failed as f64);
    v.insert("run.rounds", report.rounds.len() as f64);
    PER_LAYER
        .iter()
        .map(|m| (m.name, v.get(m.name).copied().unwrap_or(0.0)))
        .collect()
}

/// A JSON number: finite floats with all their digits, anything else 0.
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Prints `name value unit` lines for people.
pub fn print_table(metrics: &[(&'static str, f64)]) {
    for (name, value) in metrics {
        println!("{name:<44} {value:>16.4} {}", unit_of(name));
    }
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                number(*value),
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(true, 10, 0, &[("setup_s", 1.25), ("slo_share", 1.0)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"slo_share\": {\"value\": 1.0, \"unit\": \"share\"}}}"
        );
        assert!(result_json(false, 0, 0, &[]).contains("\"attempted\": 1"));
        assert_eq!(number(f64::NAN), "0.0");
    }
}
