//! The `loadgen` binary end to end: its two modes against in-process
//! servers, and the exit codes that carry its verdict.

use oc_client::{Client, ClientConfig};
use oc_cluster::RingSpec;
use oc_serve::{ServeConfig, Server};
use std::net::{SocketAddr, TcpListener};
use std::process::{Command, Output};

/// Runs `loadgen` with `args`; returns its exit code and stderr.
fn loadgen(args: &[&str]) -> (Option<i32>, String) {
    let Output { status, stderr, .. } = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(args)
        .output()
        .expect("loadgen runs");
    (status.code(), String::from_utf8_lossy(&stderr).into_owned())
}

fn server() -> Server {
    Server::start(ServeConfig::default().with_shards(2)).expect("server starts")
}

/// The `BATCH` frames `addr` has served (`serve.batch.requests`).
fn batch_requests(addr: SocketAddr) -> f64 {
    let mut client = Client::connect(addr, ClientConfig::default()).expect("client connects");
    client.server_metrics().expect("METRICS")["serve.batch.requests"]
}

#[test]
fn chaos_replay_exits_zero_with_nothing_lost() {
    let server = server();
    let addr = server.addr().to_string();
    let (code, err) = loadgen(&[
        "--addr",
        &addr,
        "--machines",
        "4",
        "--ticks",
        "16",
        "--connections",
        "2",
        "--chaos",
        "0.05",
        "--chaos-seed",
        "7",
    ]);
    server.shutdown();
    assert_eq!(code, Some(0), "{err}");
    assert!(err.contains("loadgen[replay]:"), "{err}");
    assert!(err.contains(", lost 0,"), "{err}");
    assert!(err.contains("failed conns 0"), "{err}");
}

#[test]
fn fanin_over_fifty_connections_exits_zero() {
    let server = server();
    let addr = server.addr().to_string();
    let (code, err) = loadgen(&[
        "--addr",
        &addr,
        "--connections",
        "50",
        "--rate-per-conn",
        "2000",
        "--ticks",
        "16",
        "--batch",
        "16",
    ]);
    let stats = server.shutdown();
    assert_eq!(code, Some(0), "{err}");
    assert!(err.contains("loadgen[fanin]: 6400 reqs"), "{err}");
    assert_eq!(stats.machines, 50);
}

#[test]
fn fanin_batch_one_sends_one_line_frames() {
    let server = server();
    let addr = server.addr();
    let (code, err) = loadgen(&[
        "--addr",
        &addr.to_string(),
        "--rate-per-conn",
        "1000",
        "--connections",
        "2",
        "--ticks",
        "8",
        "--batch",
        "1",
    ]);
    let batches = batch_requests(addr);
    server.shutdown();
    assert_eq!(code, Some(0), "{err}");
    assert!(err.contains("loadgen[fanin]: 16 reqs"), "{err}");
    assert_eq!(batches, 0.0, "--batch 1 must not frame lines in BATCH");
}

#[test]
fn cluster_batch_one_sends_no_batch_frames() {
    let spec = RingSpec::new(3);
    let members: Vec<Server> = (0..3)
        .map(|i| {
            let cfg = ServeConfig::default().with_shards(1).with_ring(spec, i);
            Server::start(cfg).expect("member starts")
        })
        .collect();
    let addrs: Vec<String> = members.iter().map(|s| s.addr().to_string()).collect();
    let (code, err) = loadgen(&[
        "--cluster",
        &addrs.join(","),
        "--machines",
        "30",
        "--ticks",
        "3",
        "--batch",
        "1",
    ]);
    let batches: Vec<f64> = members.iter().map(|m| batch_requests(m.addr())).collect();
    for member in members {
        member.shutdown();
    }
    assert_eq!(code, Some(0), "{err}");
    assert!(err.contains("machines 60"), "owner + replica: {err}");
    assert_eq!(batches, [0.0; 3], "--batch 1 must not frame lines in BATCH");
}

#[test]
fn chaos_seed_without_chaos_is_refused() {
    let (code, err) = loadgen(&["--chaos-seed", "7"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("--chaos-seed needs --chaos"), "{err}");
    assert!(err.contains("usage: loadgen"), "{err}");
}

#[test]
fn cluster_mode_drives_a_mirrored_fleet_over_three_members() {
    let spec = RingSpec::new(3);
    let members: Vec<Server> = (0..3)
        .map(|i| {
            let cfg = ServeConfig::default().with_shards(1).with_ring(spec, i);
            Server::start(cfg).expect("member starts")
        })
        .collect();
    let addrs: Vec<String> = members.iter().map(|s| s.addr().to_string()).collect();
    let (code, err) = loadgen(&[
        "--cluster",
        &addrs.join(","),
        "--machines",
        "300",
        "--ticks",
        "6",
    ]);
    assert_eq!(code, Some(0), "{err}");
    assert!(err.contains("loadgen[cluster]: 1800 reqs"), "{err}");
    assert!(err.contains("machines 600"), "owner + replica: {err}");

    // The ring still holds the 300-machine fleet, so a 100-machine drive
    // finds 600 machines where it expects 200: the count is a verdict.
    let (code, err) = loadgen(&["--cluster", &addrs.join(","), "--machines", "100"]);
    for member in members {
        member.shutdown();
    }
    assert_eq!(code, Some(1), "{err}");
    assert!(
        err.contains("lost 0, failed conns 0, machines 600"),
        "{err}"
    );
}

#[test]
fn failed_connections_exit_nonzero() {
    let port: SocketAddr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr")
    };
    let (code, err) = loadgen(&[
        "--addr",
        &port.to_string(),
        "--machines",
        "1",
        "--ticks",
        "4",
        "--connections",
        "1",
    ]);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("failed conns 1"), "{err}");
}

#[test]
fn cluster_mode_refuses_single_address_flags() {
    let (code, err) = loadgen(&[
        "--cluster",
        "127.0.0.1:1,127.0.0.1:2,127.0.0.1:3",
        "--chaos",
        "0.1",
    ]);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("--chaos does not apply to --cluster"), "{err}");
    assert!(err.contains("usage: loadgen"), "{err}");
}
