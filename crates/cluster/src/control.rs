//! Blocking control-plane client: one request/response exchange with a
//! member process over a fresh connection.
//!
//! The data plane belongs to `oc-client` (pipelining, batching, retry);
//! this module only carries the rare supervisor traffic — `STATS`,
//! `METRICS`, `SHUTDOWN`, and the occasional probe — where a connection
//! per request is simpler than a pool and the cost is irrelevant.

use crate::ring::RingSpec;
use oc_serve::proto::{
    parse_batchr_header, push_u64, ProtoScratch, Request, Response, StatsSnapshot,
};
use oc_serve::shard::key_hash;
use oc_trace::ids::{CellId, MachineId};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Deadline for one control exchange (connect, write, read).
pub const CONTROL_TIMEOUT: Duration = Duration::from_secs(10);

fn proto_err(what: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Performs one request/response exchange with the process at `addr`.
///
/// # Errors
///
/// I/O errors for connect/read/write failures (including deadline
/// expiry) and `InvalidData` for an unparseable response line.
pub fn request(addr: SocketAddr, req: &Request) -> io::Result<Response> {
    let stream = TcpStream::connect_timeout(&addr, CONTROL_TIMEOUT)?;
    stream.set_read_timeout(Some(CONTROL_TIMEOUT))?;
    stream.set_write_timeout(Some(CONTROL_TIMEOUT))?;
    let mut writer = stream.try_clone()?;
    writer.write_all(req.encode().as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "peer closed before answering",
        ));
    }
    Response::parse(line.trim_end()).map_err(proto_err)
}

/// Fetches a member's `STATS` snapshot.
///
/// # Errors
///
/// Propagates [`request`] failures; `InvalidData` if the peer answered
/// with anything but `STATS`.
pub fn stats(addr: SocketAddr) -> io::Result<StatsSnapshot> {
    match request(addr, &Request::Stats)? {
        Response::Stats(s) => Ok(s),
        other => Err(proto_err(format_args!("expected STATS, got {other:?}"))),
    }
}

/// Fetches a member's `METRICS` exposition line.
///
/// # Errors
///
/// Propagates [`request`] failures; `InvalidData` for a non-`METRICS`
/// answer.
pub fn metrics_exposition(addr: SocketAddr) -> io::Result<String> {
    match request(addr, &Request::Metrics)? {
        Response::Metrics { exposition } => Ok(exposition),
        other => Err(proto_err(format_args!("expected METRICS, got {other:?}"))),
    }
}

/// Asks a member to drain and exit (the drain-then-snapshot shutdown
/// path — the handoff primitive).
///
/// # Errors
///
/// Propagates [`request`] failures; `InvalidData` for a non-`OK` answer.
pub fn shutdown(addr: SocketAddr) -> io::Result<()> {
    match request(addr, &Request::Shutdown)? {
        Response::Ok => Ok(()),
        other => Err(proto_err(format_args!("expected OK, got {other:?}"))),
    }
}

/// A member's answer to `RING`: the ring description it currently
/// serves, with the full 64-bit generation (the packed `epoch` only
/// carries the low 16 bits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingDesc {
    /// Ring member count.
    pub nodes: u64,
    /// Virtual nodes per member.
    pub vnodes: u64,
    /// Placement seed.
    pub seed: u64,
    /// Full ring generation.
    pub generation: u64,
    /// The member's packed epoch at answer time.
    pub epoch: u64,
    /// Member data-plane addresses by ring index (empty until the
    /// supervisor pushed them).
    pub addrs: Vec<String>,
}

impl RingDesc {
    /// The [`RingSpec`] this description names.
    pub fn spec(&self) -> RingSpec {
        RingSpec {
            nodes: self.nodes as usize,
            vnodes: self.vnodes as usize,
            seed: self.seed,
            generation: self.generation,
        }
    }
}

/// Fetches a member's current ring description (`RING`).
///
/// # Errors
///
/// Propagates [`request`] failures; `InvalidData` for a non-`RING`
/// answer (including the `ERR internal` a standalone server gives).
pub fn ring(addr: SocketAddr) -> io::Result<RingDesc> {
    match request(addr, &Request::Ring)? {
        Response::Ring {
            nodes,
            vnodes,
            seed,
            generation,
            epoch,
            addrs,
        } => Ok(RingDesc {
            nodes,
            vnodes,
            seed,
            generation,
            epoch,
            addrs,
        }),
        other => Err(proto_err(format_args!("expected RING, got {other:?}"))),
    }
}

/// Pushes a ring description to a member (`RINGSET`): the member
/// rebuilds its ownership for the new geometry, re-stamps its epoch
/// with `spec.generation`, and starts answering `RING` with it.
///
/// # Errors
///
/// Propagates [`request`] failures; `InvalidData` for a non-`OK` answer
/// (e.g. `ERR stale` for a generation behind the installed one).
pub fn ring_set(addr: SocketAddr, spec: &RingSpec, addrs: &[String]) -> io::Result<()> {
    let req = Request::RingSet {
        nodes: spec.nodes as u64,
        vnodes: spec.vnodes as u64,
        seed: spec.seed,
        generation: spec.generation,
        addrs: addrs.to_vec(),
    };
    match request(addr, &req)? {
        Response::Ok => Ok(()),
        other => Err(proto_err(format_args!("expected OK, got {other:?}"))),
    }
}

/// One replayable sample from a `HANDOFF` dump: the verbatim wire line
/// (replayed as-is, so float formatting round-trips bit-identically)
/// plus its parsed machine identity for per-machine grouping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandoffLine {
    /// The raw `OBSERVE` line, without its terminator.
    pub line: String,
    /// Owning cell name.
    pub cell: String,
    /// Machine id within the cell.
    pub machine: u32,
}

impl HandoffLine {
    /// The routing hash of this sample's machine.
    pub fn key_hash(&self) -> u64 {
        machine_hash(&self.cell, self.machine)
    }
}

/// The routing hash of machine `machine` in cell `cell` — the same
/// [`key_hash`] the ring and the servers use.
pub fn machine_hash(cell: &str, machine: u32) -> u64 {
    key_hash(&(CellId::new(cell), MachineId(machine)))
}

fn parse_handoff_line(raw: &str) -> io::Result<HandoffLine> {
    let mut toks = raw.split_ascii_whitespace();
    match (
        toks.next(),
        toks.next(),
        toks.next().and_then(|m| m.parse::<u32>().ok()),
    ) {
        (Some("OBSERVE"), Some(cell), Some(machine)) => Ok(HandoffLine {
            line: raw.to_string(),
            cell: cell.to_string(),
            machine,
        }),
        _ => Err(proto_err(format_args!(
            "handoff dump line is not an OBSERVE: {raw:?}"
        ))),
    }
}

/// Fetches a member's handoff sample log (`HANDOFF`): the `HANDOFF <n>`
/// header followed by `n` `OBSERVE` lines in original arrival order.
///
/// # Errors
///
/// I/O errors (including a dump truncated mid-stream) and `InvalidData`
/// for a malformed header or a non-`OBSERVE` dump line — including the
/// `ERR internal` a member with the log disabled answers.
pub fn handoff(addr: SocketAddr) -> io::Result<Vec<HandoffLine>> {
    let stream = TcpStream::connect_timeout(&addr, CONTROL_TIMEOUT)?;
    stream.set_read_timeout(Some(CONTROL_TIMEOUT))?;
    stream.set_write_timeout(Some(CONTROL_TIMEOUT))?;
    let mut writer = stream.try_clone()?;
    writer.write_all(b"HANDOFF\n")?;
    writer.flush()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "peer closed before answering",
        ));
    }
    let header = line.trim_end();
    let Some(n) = header
        .strip_prefix("HANDOFF ")
        .and_then(|s| s.parse::<usize>().ok())
    else {
        return Err(proto_err(format_args!(
            "expected 'HANDOFF <n>', got {header:?}"
        )));
    };
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("handoff dump truncated at line {i}/{n}"),
            ));
        }
        out.push(parse_handoff_line(line.trim_end())?);
    }
    Ok(out)
}

/// Replays raw `OBSERVE` request `lines` into the member at `addr`, in
/// order — the state-rebuild primitive. Each window goes out as **one
/// `BATCH` frame** with one frame in flight, and the member applies a
/// frame's lines in line order before it answers them, so a machine's
/// samples can never overtake each other. `ERR` answers (e.g. `not-mine`
/// for keys outside the target's slots) count as rejected, not failures.
/// Returns `(acknowledged, rejected)`, every line counted once.
///
/// # Errors
///
/// I/O errors and `InvalidData` for an unparseable, miscounted or
/// non-request response.
pub fn drive_lines(addr: SocketAddr, lines: &[String]) -> io::Result<(u64, u64)> {
    /// Lines per frame: bounds both peers' buffered bytes so neither
    /// side can deadlock on a full TCP window (and is within the
    /// protocol's `MAX_BATCH`).
    const WINDOW: usize = 512;
    if lines.is_empty() {
        return Ok((0, 0));
    }
    let stream = TcpStream::connect_timeout(&addr, CONTROL_TIMEOUT)?;
    stream.set_read_timeout(Some(CONTROL_TIMEOUT))?;
    stream.set_write_timeout(Some(CONTROL_TIMEOUT))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut read_line = move |resp: &mut String| -> io::Result<()> {
        resp.clear();
        if reader.read_line(resp)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed mid-replay",
            ));
        }
        Ok(())
    };
    let mut acknowledged = 0u64;
    let mut rejected = 0u64;
    let mut frame = Vec::new();
    let mut resp = String::new();
    let mut scratch = ProtoScratch::new();
    for window in lines.chunks(WINDOW) {
        frame.clear();
        frame.extend_from_slice(b"BATCH ");
        push_u64(&mut frame, window.len() as u64);
        frame.push(b'\n');
        for line in window {
            frame.extend_from_slice(line.as_bytes());
            frame.push(b'\n');
        }
        writer.write_all(&frame)?;
        writer.flush()?;
        read_line(&mut resp)?;
        match parse_batchr_header(resp.trim_end(), &mut scratch) {
            Ok(Some(n)) if n == window.len() => {}
            _ => {
                return Err(proto_err(format_args!(
                    "replay frame of {} lines answered {:?}",
                    window.len(),
                    resp.trim_end()
                )));
            }
        }
        for _ in window {
            read_line(&mut resp)?;
            match Response::parse(resp.trim_end()).map_err(proto_err)? {
                Response::Ok => acknowledged += 1,
                Response::Err { .. } => rejected += 1,
                // Including `BUSY`: members of this tree never send it.
                other => {
                    return Err(proto_err(format_args!("replay answered {other:?}")));
                }
            }
        }
    }
    Ok((acknowledged, rejected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smoke::{observe_line, usage};
    use oc_core::ingest::IncrementalView;
    use oc_core::predictor::clamp_prediction;
    use oc_serve::config::ServeConfig;
    use oc_serve::server::Server;
    use oc_trace::ids::{JobId, TaskId};
    use oc_trace::Tick;

    const MACHINES: u64 = 400;
    const TICKS: u64 = 25;

    /// Machine-major, tick-minor — the order `Cluster::replace` drives.
    fn lines_of(cell: &str) -> Vec<String> {
        (0..MACHINES)
            .flat_map(|m| (0..TICKS).map(move |t| observe_line(cell, m, t)))
            .collect()
    }

    /// Two replays contending for one single-shard member must still
    /// apply every machine's samples in order: no line may go stale
    /// behind a later tick of its own machine, every line of both
    /// streams is ingested, and the end state is the offline one.
    #[test]
    fn rival_replays_keep_machine_order() {
        let cfg = ServeConfig::default()
            .with_addr("127.0.0.1:0")
            .with_shards(1);
        let server = Server::start(cfg.clone()).expect("server starts");
        let addr = server.addr();
        let lines = lines_of("fleet");
        let rival = lines_of("rival");
        std::thread::scope(|scope| {
            let other = scope.spawn(|| drive_lines(addr, &rival));
            let report = drive_lines(addr, &lines).expect("replay");
            assert_eq!(report, (lines.len() as u64, 0));
            let report = other.join().expect("rival thread").expect("rival replay");
            assert_eq!(report, (rival.len() as u64, 0));
        });

        let predictor = cfg.predictor.build().expect("predictor");
        let task = TaskId::new(JobId(1), 0);
        for m in 0..MACHINES {
            let mut view =
                IncrementalView::new(cfg.machine_capacity, &cfg.sim).with_max_gap(cfg.max_tick_gap);
            for t in 0..TICKS {
                let _ = view.ingest(Tick(t), task, 0.5, usage(m, t));
            }
            view.flush();
            let expected = clamp_prediction(predictor.predict(view.view()), view.view());
            let req = Request::Predict {
                cell: CellId::new("fleet"),
                machine: MachineId(m as u32),
                vector: false,
            };
            match request(addr, &req).expect("predict") {
                Response::Pred { peak, .. } => assert_eq!(
                    peak.to_bits(),
                    expected.to_bits(),
                    "machine {m} diverged from the offline view"
                ),
                other => panic!("machine {m}: PREDICT answered {other:?}"),
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.busy, 0);
        assert_eq!(stats.stale, 0, "samples overtook their own machine");
        assert_eq!(stats.observes, (lines.len() + rival.len()) as u64);
    }
}
