//! Workspace observability end-to-end: the `METRICS` verb must reconcile
//! with what the load generator measured, and a traced run's spans must
//! survive a JSONL round trip.
//!
//! These are the acceptance checks for the telemetry layer: counters are
//! only trustworthy if two independent observers — the client-side
//! [`LoadReport`](overcommit_repro::client::LoadReport) and the
//! server-side metrics exposition — agree about the same replay.

use overcommit_repro::client::loadgen::{self, LoadgenConfig};
use overcommit_repro::client::{Client, ClientConfig};
use overcommit_repro::serve::{ServeConfig, Server};
use overcommit_repro::telemetry::trace;

/// Runs a small replay and cross-checks the server's `METRICS` exposition
/// against both the `LoadReport` and the `STATS` snapshot it embeds.
#[test]
fn server_metrics_reconcile_with_load_report() {
    let server = Server::start(ServeConfig::default().with_shards(2)).unwrap();
    let cfg = LoadgenConfig {
        machines: 4,
        ticks: 16,
        connections: 2,
        predicts: true,
        ..LoadgenConfig::default()
    };
    let report = loadgen::run(server.addr(), &cfg).unwrap();
    assert_eq!(report.failed_connections, 0, "{:?}", report.conn_failures);
    assert_eq!(report.lost, 0);

    let mut client = Client::connect(server.addr(), ClientConfig::default()).unwrap();
    let m = client.server_metrics().unwrap();

    // The ingestion counters must agree with the STATS snapshot the
    // report embeds (no traffic ran in between).
    assert_eq!(m["serve.observes"], report.server.observes as f64);
    assert_eq!(m["serve.predicts"], report.server.predicts as f64);
    assert_eq!(m["serve.stale"], report.server.stale as f64);
    assert_eq!(m["serve.errors"], report.server.errors as f64);
    assert_eq!(m["serve.machines"], report.server.machines as f64);

    // Every acknowledged OBSERVE is a promise: it must be visible in the
    // server's ingestion counters (retries may only add).
    let accounted = m["serve.observes"] + m["serve.stale"] + m["serve.errors"];
    assert!(
        accounted >= report.acked_observes as f64,
        "acked {} > accounted {accounted}",
        report.acked_observes
    );

    // The per-verb request counters count protocol dispatches, so they
    // can only exceed the per-sample accounting (duplicates re-apply).
    assert!(m["serve.requests.observe"] >= report.acked_observes as f64);
    assert!(m["serve.requests.predict"] >= report.server.predicts as f64);

    // Shard latency sampling covers exactly the OBSERVE outcomes: first
    // sample buffered → chunk applied. Reads are computed on the spot and
    // carry no stamp. (This replay holds no invalid sample, so the third
    // outcome, an ingest error, adds nothing here.)
    assert_eq!(
        m["serve.latency_us.count"],
        m["serve.observes"] + m["serve.stale"]
    );

    // Every PREDICT dispatch is either a frontend cache hit or a miss.
    assert_eq!(
        m["serve.predict.cache_hit"] + m["serve.predict.cache_miss"],
        m["serve.requests.predict"]
    );

    // The server has no queue to fill, so it turns nothing away.
    assert_eq!(m["serve.busy"], 0.0);

    // No BATCH frames on the wire — but frontend coalescing is
    // independent of framing: any pipelined run of same-shard OBSERVEs
    // micro-batches, so `serve.batch.coalesced` may still count.
    assert_eq!(m["serve.batch.requests"], 0.0);

    // One contention counter per shard; two connections on this host's
    // reactor threads may or may not have met on a lock.
    assert!(m.contains_key("serve.shard.contended.0"));
    assert!(m.contains_key("serve.shard.contended.1"));

    drop(client);
    server.shutdown();
}

/// Same reconciliation for a `BATCH`-framed replay, plus the framing
/// counters themselves: every framed sub-request is counted, frontend
/// coalescing fires, and the latency identity still balances with the
/// prediction cache in play.
#[test]
fn batched_replay_metrics_reconcile() {
    let server = Server::start(ServeConfig::default().with_shards(2)).unwrap();
    let cfg = LoadgenConfig {
        machines: 4,
        ticks: 16,
        connections: 2,
        predicts: true,
        batch: 32,
        ..LoadgenConfig::default()
    };
    let report = loadgen::run(server.addr(), &cfg).unwrap();
    assert_eq!(report.failed_connections, 0, "{:?}", report.conn_failures);
    assert_eq!(report.lost, 0);

    let mut client = Client::connect(server.addr(), ClientConfig::default()).unwrap();
    let m = client.server_metrics().unwrap();

    assert_eq!(m["serve.observes"], report.server.observes as f64);
    assert_eq!(m["serve.predicts"], report.server.predicts as f64);

    // Nearly the whole replay travels inside BATCH frames (the trailing
    // partial window of each connection may go unframed), and frames of
    // consecutive same-shard samples must coalesce at least once.
    assert!(
        m["serve.batch.requests"] >= report.sent as f64 * 0.5,
        "only {} of {} requests were framed",
        m["serve.batch.requests"],
        report.sent
    );
    assert!(
        m["serve.batch.coalesced"] > 0.0,
        "frontend coalescing never fired"
    );

    assert_eq!(
        m["serve.predict.cache_hit"] + m["serve.predict.cache_miss"],
        m["serve.requests.predict"]
    );
    assert_eq!(
        m["serve.latency_us.count"],
        m["serve.observes"] + m["serve.stale"]
    );

    drop(client);
    server.shutdown();
}

/// A traced replay must produce spans that survive JSONL encoding and
/// parsing, including the per-connection `loadgen.conn` spans and the
/// server-side `serve.request` spans (the server runs in-process here).
#[test]
fn traced_replay_round_trips_through_jsonl() {
    let server = Server::start(ServeConfig::default().with_shards(2)).unwrap();
    trace::enable();
    let cfg = LoadgenConfig {
        machines: 2,
        ticks: 8,
        connections: 2,
        predicts: false,
        ..LoadgenConfig::default()
    };
    let report = loadgen::run(server.addr(), &cfg).unwrap();
    trace::disable();
    server.shutdown();
    assert_eq!(report.failed_connections, 0, "{:?}", report.conn_failures);

    let events = trace::drain();
    let mut buf = Vec::new();
    trace::write_jsonl(&mut buf, &events).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let parsed = overcommit_repro::telemetry::json::parse_jsonl(&text).unwrap();
    assert_eq!(parsed.len(), events.len());
    for (p, e) in parsed.iter().zip(&events) {
        assert!(p.matches(e), "{p:?} != {e:?}");
    }

    // One loadgen.conn span per connection (>=: parallel tests in this
    // binary may also record while tracing is enabled).
    let conn_spans = parsed.iter().filter(|p| p.name == "loadgen.conn").count();
    assert!(conn_spans >= 2, "{conn_spans} loadgen.conn spans");
    // The in-process server traced its request handling too.
    let req_spans = parsed.iter().filter(|p| p.name == "serve.request").count();
    assert!(req_spans > 0, "no serve.request spans recorded");
}
