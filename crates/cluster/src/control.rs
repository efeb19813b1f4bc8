//! Blocking control-plane client: one request/response exchange with a
//! member process over a fresh connection.
//!
//! The data plane belongs to `oc-client` (pipelining, batching, retry);
//! this module only carries the rare supervisor traffic — `STATS`,
//! `METRICS`, `SHUTDOWN`, state transfer (`HANDOFF`/`RESTORE`), and the
//! occasional probe — where a connection per request is simpler than a
//! pool and the cost is irrelevant.

use crate::RingSpec;
use oc_serve::proto::{parse_view_header, push_u64, Request, Response, StatsSnapshot, MAX_BATCH};
use oc_serve::shard::key_hash;
use oc_telemetry::metrics::merge_expositions;
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
    let (mut writer, mut reader) = connect(addr)?;
    writer.write_all(req.encode().as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()?;
    let mut line = String::new();
    read_wire_line(&mut reader, &mut line)?;
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

/// Cluster-wide `STATS`: the snapshots of the members at `addrs` folded
/// through [`StatsSnapshot::merge`].
///
/// # Errors
///
/// The first member that fails [`stats`]: a partial aggregate would
/// silently under-report.
pub(crate) fn merged_stats(addrs: &[SocketAddr]) -> io::Result<StatsSnapshot> {
    let mut merged = StatsSnapshot::default();
    for &addr in addrs {
        merged.merge(&stats(addr)?);
    }
    Ok(merged)
}

/// Cluster-wide `METRICS`: the expositions of the members at `addrs`
/// merged through [`merge_expositions`].
///
/// # Errors
///
/// The first member that fails [`metrics_exposition`], and
/// `InvalidData` for an exposition that does not parse.
pub(crate) fn merged_metrics(addrs: &[SocketAddr]) -> io::Result<String> {
    let lines = addrs
        .iter()
        .map(|&addr| metrics_exposition(addr))
        .collect::<io::Result<Vec<String>>>()?;
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    merge_expositions(&refs).ok_or_else(|| proto_err("member exposition failed to parse"))
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

/// Fetches a member's current ring (`RING`): the spec it serves, with
/// the full 64-bit generation (the packed `epoch` only carries the low
/// 16 bits), and the member addresses by ring index (empty until the
/// supervisor pushed them).
///
/// # Errors
///
/// Propagates [`request`] failures; `InvalidData` for a non-`RING`
/// answer (including the `ERR internal` a standalone server gives).
pub fn ring(addr: SocketAddr) -> io::Result<(RingSpec, Vec<String>)> {
    match request(addr, &Request::Ring)? {
        Response::Ring { spec, addrs, .. } => Ok((spec, addrs)),
        other => Err(proto_err(format_args!("expected RING, got {other:?}"))),
    }
}

/// Pushes a ring description to a member (`RINGSET`): the member
/// rebuilds its ring from `spec` and its own index, re-stamps its epoch
/// with `spec.generation`, and starts answering `RING` with it.
///
/// # Errors
///
/// Propagates [`request`] failures; `InvalidData` for a non-`OK` answer
/// (e.g. `ERR stale` for a generation behind the installed one).
pub fn ring_set(addr: SocketAddr, spec: &RingSpec, addrs: &[String]) -> io::Result<()> {
    let addrs = addrs.to_vec();
    match request(addr, &Request::RingSet { spec: *spec, addrs })? {
        Response::Ok => Ok(()),
        other => Err(proto_err(format_args!("expected OK, got {other:?}"))),
    }
}

/// One machine's state record from a `HANDOFF` dump, kept as the wire
/// text it arrived in: a supervisor chooses records by their header and
/// forwards them to `RESTORE` without decoding the state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewRecord {
    /// Owning cell name.
    pub cell: String,
    /// Machine id within the cell.
    pub machine: u32,
    /// Samples the state carries: the view's ingested-sample count.
    pub samples: u64,
    /// Wire lines: the `VIEW` header and its parts.
    pub lines: usize,
    /// The record's wire text, every line `\n`-terminated.
    pub text: String,
}

impl ViewRecord {
    /// The routing hash of this record's machine.
    pub fn key_hash(&self) -> u64 {
        machine_hash(&self.cell, self.machine)
    }
}

/// The routing hash of machine `machine` in cell `cell` — the same
/// [`key_hash`] the ring and the servers use.
pub fn machine_hash(cell: &str, machine: u32) -> u64 {
    key_hash(&(CellId::new(cell), MachineId(machine)))
}

/// Reads one `\n`-terminated line into `line` (cleared first).
fn read_wire_line(reader: &mut impl BufRead, line: &mut String) -> io::Result<()> {
    line.clear();
    if reader.read_line(line)? == 0 || !line.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "peer closed mid-answer",
        ));
    }
    Ok(())
}

/// A blocking control connection to `addr` with the control deadlines.
fn connect(addr: SocketAddr) -> io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect_timeout(&addr, CONTROL_TIMEOUT)?;
    stream.set_read_timeout(Some(CONTROL_TIMEOUT))?;
    stream.set_write_timeout(Some(CONTROL_TIMEOUT))?;
    Ok((stream.try_clone()?, BufReader::new(stream)))
}

/// Fetches a member's machine state (`HANDOFF`): the `HANDOFF <n>`
/// header followed by `n` state records, one per machine the member
/// holds.
///
/// # Errors
///
/// I/O errors (including a dump truncated mid-record) and `InvalidData`
/// for a malformed header or record header.
pub fn handoff(addr: SocketAddr) -> io::Result<Vec<ViewRecord>> {
    let (mut writer, mut reader) = connect(addr)?;
    writer.write_all(b"HANDOFF\n")?;
    writer.flush()?;
    let mut line = String::new();
    read_wire_line(&mut reader, &mut line)?;
    let header = line.trim_end();
    let Some(n) = header
        .strip_prefix("HANDOFF ")
        .and_then(|s| s.parse::<u64>().ok())
    else {
        return Err(proto_err(format_args!(
            "expected 'HANDOFF <n>', got {header:?}"
        )));
    };
    // The peer's count bounds the loop, never an allocation.
    let mut out = Vec::new();
    for _ in 0..n {
        read_wire_line(&mut reader, &mut line)?;
        let view = parse_view_header(line.trim_end()).map_err(proto_err)?;
        let mut text = line.clone();
        for _ in 0..view.parts {
            read_wire_line(&mut reader, &mut line)?;
            text.push_str(&line);
        }
        out.push(ViewRecord {
            cell: view.cell.name().to_string(),
            machine: view.machine.0,
            samples: view.samples,
            lines: 1 + view.parts,
            text,
        });
    }
    Ok(out)
}

/// What `RESTORE` installed, summed over its frames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Restored {
    /// Machines installed.
    pub machines: u64,
    /// Samples the installed states carry.
    pub samples: u64,
    /// Records the member refused: owned elsewhere, or already held.
    pub rejected: u64,
}

/// Installs state `records` into the member at `addr` (`RESTORE`),
/// packed into frames of at most [`MAX_BATCH`] lines that never split a
/// record. Every frame is written before the answers are read: each
/// answer is one short line, so neither side can stall the other.
///
/// # Errors
///
/// I/O errors, and `InvalidData` for a frame the member answered with
/// anything but `RESTORED` (e.g. `ERR parse` for a malformed record).
pub fn restore<'a>(
    addr: SocketAddr,
    records: impl IntoIterator<Item = &'a ViewRecord>,
) -> io::Result<Restored> {
    let mut wire = Vec::new();
    let mut frame = Vec::new();
    let (mut frame_lines, mut frames) = (0usize, 0usize);
    let mut seal = |frame: &mut Vec<u8>, lines: usize| {
        wire.extend_from_slice(b"RESTORE ");
        push_u64(&mut wire, lines as u64);
        wire.push(b'\n');
        wire.append(frame);
    };
    for record in records {
        if frame_lines + record.lines > MAX_BATCH {
            seal(&mut frame, frame_lines);
            (frame_lines, frames) = (0, frames + 1);
        }
        frame.extend_from_slice(record.text.as_bytes());
        frame_lines += record.lines;
    }
    if frame_lines > 0 {
        seal(&mut frame, frame_lines);
        frames += 1;
    }
    let mut total = Restored::default();
    if frames == 0 {
        return Ok(total);
    }
    let (mut writer, mut reader) = connect(addr)?;
    writer.write_all(&wire)?;
    writer.flush()?;
    let mut line = String::new();
    for _ in 0..frames {
        read_wire_line(&mut reader, &mut line)?;
        match Response::parse(line.trim_end()).map_err(proto_err)? {
            Response::Restored {
                machines,
                samples,
                rejected,
            } => {
                total.machines += machines;
                total.samples += samples;
                total.rejected += rejected;
            }
            other => return Err(proto_err(format_args!("RESTORE answered {other:?}"))),
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oc_client::fleet::{fleet_usage, offline_peak};
    use oc_client::{Client, ClientConfig};
    use oc_serve::config::ServeConfig;
    use oc_serve::server::Server;
    use oc_trace::ids::{JobId, TaskId};

    const MACHINES: u64 = 400;
    const TICKS: u64 = 25;

    /// The fleet's `OBSERVE`s in `cell`, machine-major, tick-minor.
    fn observes(cell: &str) -> Vec<Request> {
        let cell = CellId::new(cell);
        let mut reqs = Vec::new();
        for m in 0..MACHINES {
            for t in 0..TICKS {
                reqs.push(Request::Observe {
                    cell: cell.clone(),
                    machine: MachineId(m as u32),
                    task: TaskId::new(JobId(1), 0),
                    usage: fleet_usage(m, t),
                    limit: 0.5,
                    mem: None,
                    tick: t,
                });
            }
        }
        reqs
    }

    /// Pipelines `reqs` into `addr` through one client, in `BATCH`
    /// frames of 64 lines; returns how many were answered `OK`.
    fn ingest(addr: SocketAddr, reqs: &[Request]) -> u64 {
        let cfg = ClientConfig::default().with_batch(64);
        let mut client = Client::connect(addr, cfg).expect("connect");
        let mut oks = 0;
        client
            .pipeline_with(reqs, |_, resp, _| oks += u64::from(*resp == Response::Ok))
            .expect("pipeline");
        oks
    }

    /// A standalone single-shard member: one lock for every machine.
    fn single_shard() -> Server {
        Server::start(ServeConfig::default().with_shards(1)).expect("server starts")
    }

    /// Every machine of both cells is served with the bits of an
    /// offline recompute of its stream.
    fn assert_offline(addr: SocketAddr) {
        let predictor = ServeConfig::default().predictor.build().expect("predictor");
        let mut client = Client::connect(addr, ClientConfig::default()).expect("connect");
        for m in 0..MACHINES {
            let expected = offline_peak(predictor.as_ref(), m, TICKS);
            for cell in ["fleet", "rival"] {
                let got = client
                    .predict(&CellId::new(cell), MachineId(m as u32))
                    .expect("predict");
                assert_eq!(
                    got.to_bits(),
                    expected.to_bits(),
                    "{cell}/{m} diverged from the offline view"
                );
            }
        }
    }

    /// Two client pipelines contending for one single-shard member must
    /// still apply every machine's samples in order: no line may go
    /// stale behind a later tick of its own machine, every line of both
    /// streams is ingested, and the end state is the offline one.
    #[test]
    fn rival_client_pipelines_keep_machine_order() {
        let server = single_shard();
        let addr = server.addr();
        let (fleet, rival) = (observes("fleet"), observes("rival"));
        std::thread::scope(|scope| {
            let other = scope.spawn(|| ingest(addr, &rival));
            assert_eq!(ingest(addr, &fleet), fleet.len() as u64);
            assert_eq!(other.join().expect("rival thread"), rival.len() as u64);
        });
        assert_offline(addr);
        let stats = server.shutdown();
        assert_eq!(stats.stale, 0, "samples overtook their own machine");
        assert_eq!(stats.observes, (fleet.len() + rival.len()) as u64);
    }

    /// Two rival restores into one single-shard member: every record of
    /// both installs, every machine is then served with its offline bits,
    /// nothing counts as ingested, stale or failed — and restoring the
    /// same records again installs nothing.
    #[test]
    fn rival_restores_install_every_machine_bit_identically() {
        let source = single_shard();
        ingest(source.addr(), &observes("fleet"));
        ingest(source.addr(), &observes("rival"));
        let records = handoff(source.addr()).expect("dump");
        assert_eq!(records.len() as u64, 2 * MACHINES);
        assert!(records.iter().all(|r| r.samples == TICKS));
        let (fleet, rival): (Vec<&ViewRecord>, Vec<&ViewRecord>) =
            records.iter().partition(|r| r.cell == "fleet");

        let target = single_shard();
        let addr = target.addr();
        let all = Restored {
            machines: MACHINES,
            samples: MACHINES * TICKS,
            rejected: 0,
        };
        std::thread::scope(|scope| {
            let other = scope.spawn(|| restore(addr, rival.iter().copied()));
            assert_eq!(restore(addr, fleet.iter().copied()).expect("restore"), all);
            assert_eq!(other.join().expect("rival thread").expect("restore"), all);
        });
        assert_offline(addr);
        let again = restore(addr, &records).expect("second restore");
        assert_eq!((again.machines, again.rejected), (0, 2 * MACHINES));
        let stats = target.shutdown();
        assert_eq!((stats.observes, stats.stale, stats.errors), (0, 0, 0));
        assert_eq!(stats.machines, 2 * MACHINES);
    }

    /// A malformed record fails its whole frame with `ERR parse` and
    /// installs nothing; the connection keeps serving.
    #[test]
    fn a_malformed_record_fails_its_frame() {
        let source = single_shard();
        ingest(source.addr(), &observes("fleet")[..3 * TICKS as usize]);
        let mut records = handoff(source.addr()).expect("dump");
        assert_eq!(records.len(), 3);
        // The record's last byte is the top byte of its sample counter:
        // an `f` digit there puts the count beyond any real history.
        let bad = &mut records[2];
        let at = bad.text.len() - 2;
        bad.text.replace_range(at..at + 1, "f");
        let target = single_shard();
        let err = restore(target.addr(), &records).expect_err("malformed frame");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let stats = stats(target.addr()).expect("stats");
        assert_eq!(stats.machines, 0, "a failed frame installs nothing");
        target.shutdown();
    }
}
