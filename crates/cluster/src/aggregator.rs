//! The aggregation endpoint: one TCP address that answers `STATS` and
//! `METRICS` for the whole cluster by fanning out to every live member
//! and merging (`control::merged_stats` / `control::merged_metrics`, the
//! fan-out the supervisor uses too).
//!
//! `SHUTDOWN` forwards to every member (each drains through its normal
//! snapshot path) and then stops the aggregator itself — so one verb
//! retires the whole service, mirroring the single-process contract.
//! Data-plane verbs are rejected: machines belong to members, and a
//! proxy hop would defeat the ring.

use crate::control;
use oc_serve::proto::{ErrCode, Request, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the accept loop re-checks its stop flag. Control-plane
/// only; data never flows through the aggregator.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// A running aggregation endpoint.
#[derive(Debug)]
pub struct Aggregator {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

/// Shared member list: `(addr, alive)` by ring index. The supervisor (or
/// a test) flips `alive` when members die or retire.
pub type Members = Arc<Mutex<Vec<(SocketAddr, bool)>>>;

/// Builds the shared member list the aggregator fans out to.
pub fn members(addrs: &[SocketAddr]) -> Members {
    Arc::new(Mutex::new(addrs.iter().map(|a| (*a, true)).collect()))
}

impl Aggregator {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts answering.
    ///
    /// # Errors
    ///
    /// Bind/listen failures.
    pub fn start(addr: &str, members: Members) -> std::io::Result<Aggregator> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let loop_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("oc-cluster-agg".to_string())
            .spawn(move || accept_loop(listener, loop_stop, members))?;
        Ok(Aggregator {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a client's `SHUTDOWN` has been served.
    pub fn shutdown_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Stops the accept loop and joins it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Aggregator {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: TcpListener, stop: Arc<AtomicBool>, members: Members) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // One connection at a time: aggregation traffic is rare
                // and each exchange is bounded by control deadlines.
                let _ = serve_conn(stream, &stop, &members);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn serve_conn(stream: TcpStream, stop: &AtomicBool, members: &Members) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(control::CONTROL_TIMEOUT))?;
    stream.set_write_timeout(Some(control::CONTROL_TIMEOUT))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        // A final fragment with no `\n` is a request the peer never
        // finished: PROTOCOL.md §1's truncation rule discards it.
        if reader.read_line(&mut line)? == 0 || !line.ends_with('\n') {
            return Ok(());
        }
        let resp = answer(line.trim_end(), stop, members);
        writer.write_all(resp.encode().as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
    }
}

fn answer(line: &str, stop: &AtomicBool, members: &Members) -> Response {
    let live: Vec<SocketAddr> = members
        .lock()
        .expect("members lock")
        .iter()
        .filter(|(_, alive)| *alive)
        .map(|(a, _)| *a)
        .collect();
    let fan_out_failed = |e: std::io::Error| Response::Err {
        code: ErrCode::Internal,
        detail: format!("cluster fan-out: {e}"),
    };
    match Request::parse(line) {
        Ok(Request::Stats) => {
            control::merged_stats(&live).map_or_else(fan_out_failed, Response::Stats)
        }
        Ok(Request::Metrics) => control::merged_metrics(&live)
            .map_or_else(fan_out_failed, |exposition| Response::Metrics {
                exposition,
            }),
        Ok(Request::Shutdown) => {
            for addr in &live {
                let _ = control::shutdown(*addr);
            }
            stop.store(true, Ordering::SeqCst);
            Response::Ok
        }
        Ok(_) => Response::Err {
            code: ErrCode::NotMine,
            detail: "aggregator serves STATS/METRICS/SHUTDOWN; send data to the owning member"
                .to_string(),
        },
        Err(e) => Response::Err {
            code: ErrCode::Parse,
            detail: e.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oc_client::{Client, ClientConfig};
    use oc_serve::config::ServeConfig;
    use oc_serve::proto::StatsSnapshot;
    use oc_serve::server::Server;
    use oc_trace::ids::{CellId, JobId, MachineId, TaskId};
    use std::io::Read;
    use std::net::Shutdown;
    use std::sync::mpsc;

    /// Two in-process members; member `i` holds `i + 1` machines of five
    /// ticks each, so their counters differ.
    fn two_members() -> Vec<Server> {
        let cell = CellId::new("agg");
        (0..2u32)
            .map(|i| {
                let server = Server::start(ServeConfig::default().with_shards(1)).expect("starts");
                let mut client =
                    Client::connect(server.addr(), ClientConfig::default()).expect("connect");
                for m in 0..=i {
                    for t in 0..5 {
                        let task = TaskId::new(JobId(1), 0);
                        client
                            .observe(&cell, MachineId(m), task, 0.25, 0.5, t)
                            .expect("observe");
                    }
                }
                server
            })
            .collect()
    }

    /// `STATS` and `METRICS` answer for the live members, merged; a
    /// member flagged dead drops out of the merged `STATS`; a data verb
    /// is refused with `not-mine`; `SHUTDOWN` reaches every live member.
    #[test]
    fn answers_for_the_live_members_and_forwards_shutdown() {
        let servers = two_members();
        let addrs: Vec<SocketAddr> = servers.iter().map(Server::addr).collect();
        let list = members(&addrs);
        let agg = Aggregator::start("127.0.0.1:0", Arc::clone(&list)).expect("aggregator");
        let snapshots: Vec<StatsSnapshot> = addrs
            .iter()
            .map(|&a| control::stats(a).expect("member stats"))
            .collect();
        // The fold starts from an empty snapshot, as the fan-out does: a
        // latency blend against zero weight need not return the bits.
        let fold = |snapshots: &[StatsSnapshot]| {
            let mut merged = StatsSnapshot::default();
            snapshots.iter().for_each(|s| merged.merge(s));
            merged
        };
        let merged = control::stats(agg.addr()).expect("merged stats");
        assert_eq!(merged, fold(&snapshots));
        assert_eq!(merged.observes, 15);
        let exposition = control::metrics_exposition(agg.addr()).expect("merged metrics");
        let metrics = oc_telemetry::metrics::parse_exposition(&exposition).expect("parses");
        assert_eq!(metrics["serve.observes"], merged.observes as f64);

        list.lock().expect("members lock")[1].1 = false;
        let live = control::stats(agg.addr()).expect("stats over the live member");
        assert_eq!(live, fold(&snapshots[..1]));

        let predict = Request::Predict {
            cell: CellId::new("agg"),
            machine: MachineId(0),
            vector: false,
        };
        match control::request(agg.addr(), &predict).expect("exchange") {
            Response::Err {
                code: ErrCode::NotMine,
                ..
            } => {}
            other => panic!("a data verb got {other:?}"),
        }

        list.lock().expect("members lock")[1].1 = true;
        control::shutdown(agg.addr()).expect("shutdown");
        assert!(agg.shutdown_requested());
        let (done, reached) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            for server in &servers {
                server.wait();
            }
            let _ = done.send(servers);
        });
        let servers = reached
            .recv_timeout(control::CONTROL_TIMEOUT)
            .expect("SHUTDOWN reached every member");
        waiter.join().expect("waiter thread");
        for server in servers {
            server.shutdown();
        }
    }

    /// A `SHUTDOWN` cut off before its newline is discarded, not
    /// dispatched (PROTOCOL.md §1's truncation rule): nothing is
    /// answered, and the aggregator keeps serving.
    #[test]
    fn a_truncated_final_line_is_not_dispatched() {
        let agg = Aggregator::start("127.0.0.1:0", members(&[])).expect("aggregator");
        let mut conn = TcpStream::connect(agg.addr()).expect("connect");
        conn.write_all(b"SHUTDOWN").expect("write");
        conn.shutdown(Shutdown::Write).expect("half-close");
        let mut answer = String::new();
        conn.read_to_string(&mut answer).expect("read to close");
        assert_eq!(answer, "");
        assert!(!agg.shutdown_requested());
        control::stats(agg.addr()).expect("still serving");
    }
}
