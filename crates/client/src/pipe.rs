//! Per-lane frame bookkeeping for the send engine (`engine.rs`).
//!
//! A [`MemberPipe`] tracks one lane's lines: an `open` frame still being
//! filled, and a FIFO of [`SentFrame`]s already on the wire whose
//! replies have not been drained. The module is a **pure state
//! machine** — no I/O — so its ordering and no-loss invariants are
//! property-tested exhaustively (the `props` module below) without
//! sockets or servers.
//!
//! A frame ends in one of two ways: a reply for every line, in order,
//! or a failed transport with none of its replies trusted. In the second
//! case the server applied some prefix of the byte stream it was sent
//! and nothing after it, so replaying the whole unacknowledged tail in
//! send order can only repeat applied samples (stale no-ops), never skip
//! one. What keeps that replay order-safe when a redirect moves a line
//! to another member is one rule:
//!
//! * **No-span** — a machine's routed samples never sit in more than one
//!   on-the-wire frame at once ([`MemberPipe::wire_conflicts`] holds the
//!   cut back until the frame drains). Whatever happens to one frame,
//!   every *later* line of an affected machine is still client-side
//!   (open frame), where it can be displaced behind the replayed tail.
//!
//! A [`EntryKind::Pinned`] line — every line of a plain
//! [`Client`](crate::Client) and of the load driver, and a cluster
//! probe — can never be moved by a redirect, so it is exempt: it never
//! enters the ledger and never waits on it.
//!
//! Boundary sealing ([`MemberPipe::seal_cut`]) is the performance side
//! of the same coin: frames prefer to break *between* machines, so the
//! no-span rule almost never has to stall the pipe. Pinned runs are cut
//! at exactly the frame size, and a control verb always goes alone.
//!
//! A line is an `L`: a [`Request`] of its own by default, or whatever
//! stands for one to the lane's caller (a plain client's lines are
//! indices into the slice it was given, so nothing is copied).

use oc_serve::proto::Request;
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Instant;

/// How one queued line travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EntryKind {
    /// Routed by key to the live owner; re-routed (and replayed) on
    /// failure. `tried` counts consecutive `not-mine` hops so a full
    /// redirect round can be detected.
    Send { tried: u32 },
    /// Pinned to the member whose pipe holds it (a replica mirror);
    /// dropped, never re-routed, when that member dies.
    Mirror,
    /// Pinned to its lane and answered to its caller whatever the reply
    /// says.
    Pinned,
}

/// One queued line on a pipe.
#[derive(Debug, Clone)]
pub(crate) struct Entry<L = Request> {
    /// Routing hash of the sample's `(cell, machine)` key — the
    /// per-machine ordering identity (unused for a pinned line).
    pub hash: u64,
    pub req: L,
    pub kind: EntryKind,
}

impl<L> Entry<L> {
    /// A line pinned to its lane.
    pub fn pinned(req: L) -> Entry<L> {
        Entry {
            hash: 0,
            req,
            kind: EntryKind::Pinned,
        }
    }

    /// Whether the no-span rule covers this line.
    fn spans(&self) -> bool {
        self.kind != EntryKind::Pinned
    }
}

/// True for the data-plane verbs the protocol allows inside `BATCH`.
pub(crate) fn is_batchable(req: &Request) -> bool {
    matches!(
        req,
        Request::Observe { .. } | Request::Predict { .. } | Request::Admit { .. }
    )
}

/// One frame on the wire, awaiting its replies.
#[derive(Debug)]
pub(crate) struct SentFrame<L = Request> {
    pub entries: Vec<Entry<L>>,
    /// Write instant, for per-frame ack latency.
    pub sent_at: Instant,
}

/// One lane's pipelined state.
#[derive(Debug)]
pub(crate) struct MemberPipe<L = Request> {
    /// Accumulating frame, not yet written.
    open: Vec<Entry<L>>,
    /// Frames written, oldest first, replies undrained.
    inflight: VecDeque<SentFrame<L>>,
    /// Lines across `inflight`.
    wired_lines: usize,
    /// Unacked routed-line count per machine hash across `inflight` —
    /// the no-span rule's ledger.
    wired: HashMap<u64, u32>,
    /// Emptied frame vectors, reused for the next frames.
    spare: Vec<Vec<Entry<L>>>,
}

impl<L> Default for MemberPipe<L> {
    fn default() -> Self {
        MemberPipe {
            open: Vec::new(),
            inflight: VecDeque::new(),
            wired_lines: 0,
            wired: HashMap::new(),
            spare: Vec::new(),
        }
    }
}

impl<L> MemberPipe<L> {
    /// Queues one line onto the open frame.
    pub fn push(&mut self, e: Entry<L>) {
        self.open.push(e);
    }

    pub fn open_len(&self) -> usize {
        self.open.len()
    }

    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Lines on the wire.
    pub fn inflight_lines(&self) -> usize {
        self.wired_lines
    }

    /// Line count of the oldest inflight frame, if any.
    pub fn oldest_len(&self) -> Option<usize> {
        self.inflight.front().map(|f| f.entries.len())
    }

    /// Write instant of the oldest inflight frame, if any.
    pub fn oldest_sent_at(&self) -> Option<Instant> {
        self.inflight.front().map(|f| f.sent_at)
    }

    pub fn is_empty(&self) -> bool {
        self.open.is_empty() && self.inflight.is_empty()
    }

    /// How many open lines the next frame should carry: `1` for a
    /// control verb (it never rides a `BATCH`), otherwise the leading run
    /// of data-plane lines up to `max`. A full routed run prefers the
    /// last machine boundary at or below `max`, so one machine's run is
    /// kept whole whenever it fits. A run longer than `max` is cut
    /// mid-machine; the no-span rule then stalls the remainder until the
    /// frame drains, preserving order at the cost of pipelining that one
    /// machine. `batchable` says whether a line is a data-plane verb.
    pub fn seal_cut(&self, max: usize, batchable: impl Fn(&L) -> bool) -> usize {
        let max = max.max(1);
        let run = self
            .open
            .iter()
            .take(max)
            .take_while(|e| batchable(&e.req))
            .count();
        if run == 0 {
            return self.open.len().min(1);
        }
        if run < max || self.open.len() == max {
            return run;
        }
        let same = |a: &Entry<L>, b: &Entry<L>| a.spans() && b.spans() && a.hash == b.hash;
        let mut cut = max;
        while cut > 1 && same(&self.open[cut - 1], &self.open[cut]) {
            cut -= 1;
        }
        if cut == 1 && same(&self.open[0], &self.open[1]) {
            // One machine overflows the whole frame: no boundary exists.
            return max;
        }
        cut
    }

    /// Whether writing `open[..cut]` now would put some machine on the
    /// wire in two frames at once (the caller must drain first).
    pub fn wire_conflicts(&self, cut: usize) -> bool {
        !self.wired.is_empty()
            && self.open[..cut]
                .iter()
                .any(|e| e.spans() && self.wired.contains_key(&e.hash))
    }

    /// Removes the first `cut` open lines for writing, into a recycled
    /// vector when one is spare: every frame takes one and every resolved
    /// frame gives one back, so the spares never outnumber the frames
    /// once on the wire together.
    pub fn take_open(&mut self, cut: usize) -> Vec<Entry<L>> {
        let mut frame = self.spare.pop().unwrap_or_default();
        if cut == self.open.len() {
            std::mem::swap(&mut frame, &mut self.open);
        } else {
            frame.extend(self.open.drain(..cut));
        }
        frame
    }

    /// Keeps a resolved frame's vector for a later frame.
    pub fn recycle(&mut self, mut entries: Vec<Entry<L>>) {
        entries.clear();
        self.spare.push(entries);
    }

    /// Records a written frame as inflight.
    pub fn sent(&mut self, entries: Vec<Entry<L>>, sent_at: Instant) {
        for e in entries.iter().filter(|e| e.spans()) {
            *self.wired.entry(e.hash).or_insert(0) += 1;
        }
        self.wired_lines += entries.len();
        self.inflight.push_back(SentFrame { entries, sent_at });
    }

    /// Pops the oldest inflight frame (its replies are about to be
    /// processed), releasing its machines from the no-span ledger.
    pub fn complete_oldest(&mut self) -> Option<SentFrame<L>> {
        let frame = self.inflight.pop_front()?;
        self.wired_lines -= frame.entries.len();
        for e in frame.entries.iter().filter(|e| e.spans()) {
            if let Some(n) = self.wired.get_mut(&e.hash) {
                *n -= 1;
                if *n == 0 {
                    self.wired.remove(&e.hash);
                }
            }
        }
        Some(frame)
    }

    /// Tears the pipe down after a transport failure: every unacked line
    /// — inflight frames in send order, then the open frame — in
    /// original order. The pipe comes back empty.
    pub fn fail(&mut self) -> Vec<Entry<L>> {
        let mut out = Vec::with_capacity(self.wired_lines + self.open.len());
        for f in self.inflight.drain(..) {
            out.extend(f.entries);
        }
        self.wired.clear();
        self.wired_lines = 0;
        out.append(&mut self.open);
        out
    }

    /// Puts displaced lines back at the head of the open frame, ahead of
    /// anything queued since, in their order.
    pub fn reopen(&mut self, mut lines: Vec<Entry<L>>) {
        lines.append(&mut self.open);
        self.open = lines;
    }

    /// Extracts every open line whose machine is in `hashes`, preserving
    /// the relative order of both the extracted and the remaining lines.
    /// Used after a redirect so a re-routed machine's later lines follow
    /// its replayed ones.
    pub fn extract_open_matching(&mut self, hashes: &HashSet<u64>) -> Vec<Entry<L>> {
        if hashes.is_empty() {
            return Vec::new();
        }
        let mut kept = Vec::with_capacity(self.open.len());
        let mut out = Vec::new();
        for e in self.open.drain(..) {
            if e.spans() && hashes.contains(&e.hash) {
                out.push(e);
            } else {
                kept.push(e);
            }
        }
        self.open = kept;
        out
    }
}

/// Model-based property tests: arbitrary interleavings of observes,
/// redirects, and member deaths must never reorder a machine's samples
/// and never lose a sample the server acknowledged.
///
/// The harness replays the engine's bookkeeping discipline (the
/// cluster's route → seal → drain cycle) against a **model server**
/// that applies each line only if its tick is the machine's next
/// expected one — replays of already-applied
/// ticks are stale no-ops (exactly the real server's monotone-tick
/// ingest), and a tick *beyond* the expected one is a gap: proof that a
/// sample was lost or leapfrogged. If every generated interleaving
/// settles with every pushed tick applied and no gap ever seen, the
/// pipe's displacement paths preserve both invariants.
#[cfg(test)]
mod props {
    use super::*;
    use oc_trace::ids::{CellId, JobId, MachineId, TaskId};
    use proptest::prelude::*;

    const MACHINES: u32 = 5;
    const MAX_FRAME: usize = 4;

    /// One step of an interleaving, decoded from a generated tuple.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// A new observe for machine `m` (ticks are per-machine serial).
        Push(u32),
        /// Seal and write the open frame if the no-span rule allows.
        Seal,
        /// Drain the oldest frame: every line acked.
        DrainOk,
        /// The member died with frames on the wire, after the server
        /// had already applied the first `k` wired lines (the
        /// acks-lost ambiguity a replay must absorb as stale).
        Lost(usize),
        /// Drain the oldest frame: machine `m` answered `not-mine`,
        /// every other line acked.
        Redirect(u32),
    }

    fn decode(sel: u32, m: u32, k: usize) -> Op {
        match sel {
            0..=4 => Op::Push(m),
            5 | 6 => Op::Seal,
            7 | 8 => Op::DrainOk,
            9 => Op::Lost(k),
            _ => Op::Redirect(m),
        }
    }

    /// A routed sample of machine `m` at `tick`, keyed by `m`.
    pub(super) fn obs(m: u32, tick: u64) -> Entry {
        Entry {
            hash: u64::from(m),
            req: Request::Observe {
                cell: CellId::new("p"),
                machine: MachineId(m),
                task: TaskId::new(JobId(1), 0),
                usage: 0.2,
                limit: 0.5,
                mem: None,
                tick,
            },
            kind: EntryKind::Send { tried: 0 },
        }
    }

    fn key(e: &Entry) -> (u32, u64) {
        match &e.req {
            Request::Observe { machine, tick, .. } => (machine.0, *tick),
            _ => unreachable!("harness only queues observes"),
        }
    }

    /// The model server: monotone per-machine tick ingest.
    struct Model {
        applied: Vec<u64>,
    }

    impl Model {
        fn apply(&mut self, e: &Entry) -> Result<(), String> {
            let (m, t) = key(e);
            let next = &mut self.applied[m as usize];
            if t > *next {
                return Err(format!(
                    "gap: machine {m} applied tick {t} but expected {next} — \
                     a sample was lost or reordered"
                ));
            }
            if t == *next {
                *next += 1;
            }
            // t < next: a replayed line the server already applied — stale.
            Ok(())
        }
    }

    /// The engine routes displaced lines back into the pipe before every
    /// seal or drain; replaying that here keeps waiting empty at
    /// displacement time, so displaced tails land in original order.
    fn route(pipe: &mut MemberPipe, waiting: &mut Vec<Entry>) {
        for e in waiting.drain(..) {
            pipe.push(e);
        }
    }

    fn seal(pipe: &mut MemberPipe) {
        if pipe.open_len() == 0 {
            return;
        }
        let cut = pipe.seal_cut(MAX_FRAME, is_batchable);
        if pipe.wire_conflicts(cut) {
            // The engine drains before writing; the harness just defers.
            return;
        }
        let frame = pipe.take_open(cut);
        pipe.sent(frame, Instant::now());
    }

    /// No machine may occupy two on-the-wire frames at once.
    fn check_no_span(pipe: &MemberPipe) -> Result<(), String> {
        for m in 0..MACHINES {
            let frames = pipe
                .inflight
                .iter()
                .filter(|f| f.entries.iter().any(|e| e.hash == u64::from(m)))
                .count();
            if frames > 1 {
                return Err(format!("machine {m} spans {frames} wired frames"));
            }
        }
        Ok(())
    }

    fn run_interleaving(ops: &[(u32, u32, usize)]) -> Result<(), String> {
        let mut pipe = MemberPipe::default();
        let mut waiting: Vec<Entry> = Vec::new();
        let mut next_tick = vec![0u64; MACHINES as usize];
        let mut model = Model {
            applied: vec![0; MACHINES as usize],
        };

        for &(sel, m, k) in ops {
            route(&mut pipe, &mut waiting);
            match decode(sel, m, k) {
                Op::Push(m) => {
                    let t = next_tick[m as usize];
                    next_tick[m as usize] += 1;
                    pipe.push(obs(m, t));
                }
                Op::Seal => seal(&mut pipe),
                Op::DrainOk => {
                    if let Some(f) = pipe.complete_oldest() {
                        for e in &f.entries {
                            model.apply(e)?;
                        }
                    }
                }
                Op::Lost(k) => {
                    // The server applied a prefix of the wired byte
                    // stream before the connection died; none of the
                    // acks came back, so the client replays everything.
                    let open_count = pipe.open_len();
                    let all = pipe.fail();
                    let wired_count = all.len() - open_count;
                    for e in &all[..k.min(wired_count)] {
                        model.apply(e)?;
                    }
                    waiting.extend(all);
                }
                Op::Redirect(m) => {
                    if let Some(f) = pipe.complete_oldest() {
                        let mut bounced = false;
                        for e in f.entries {
                            if key(&e).0 == m {
                                bounced = true;
                                waiting.push(e);
                            } else {
                                model.apply(&e)?;
                            }
                        }
                        if bounced {
                            // Later open lines of the redirected machine
                            // must follow its replayed ones.
                            let hashes: HashSet<u64> = [u64::from(m)].into();
                            waiting.extend(pipe.extract_open_matching(&hashes));
                        }
                    }
                }
            }
            check_no_span(&pipe)?;
        }

        // Settle: route, seal, and drain cleanly until nothing is left.
        let mut guard = 0u32;
        while !(pipe.is_empty() && waiting.is_empty()) {
            route(&mut pipe, &mut waiting);
            if pipe.inflight_len() > 0 {
                let f = pipe.complete_oldest().expect("inflight frame");
                for e in &f.entries {
                    model.apply(e)?;
                }
            } else {
                seal(&mut pipe);
            }
            check_no_span(&pipe)?;
            guard += 1;
            if guard > 100_000 {
                return Err("settle did not converge".to_string());
            }
        }

        for m in 0..MACHINES as usize {
            if model.applied[m] != next_tick[m] {
                return Err(format!(
                    "machine {m}: pushed {} ticks but only {} applied — samples lost",
                    next_tick[m], model.applied[m]
                ));
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn interleavings_never_reorder_or_lose_samples(
            ops in proptest::collection::vec((0u32..11, 0u32..MACHINES, 0usize..24), 1..120),
        ) {
            let outcome = run_interleaving(&ops);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::props::obs;
    use super::*;

    #[test]
    fn seal_prefers_machine_boundaries() {
        let mut p = MemberPipe::default();
        for t in 0..3 {
            p.push(obs(1, t));
        }
        for t in 0..3 {
            p.push(obs(2, t));
        }
        // max 4 would cut machine 2's run at its second line; the cut
        // retreats to the boundary at 3.
        assert_eq!(p.seal_cut(4, is_batchable), 3);
        // Everything fits: take it all.
        assert_eq!(p.seal_cut(6, is_batchable), 6);
        assert_eq!(p.seal_cut(16, is_batchable), 6);
    }

    #[test]
    fn seal_cuts_mid_machine_only_when_one_run_overflows() {
        let mut p = MemberPipe::default();
        for t in 0..5 {
            p.push(obs(7, t));
        }
        assert_eq!(
            p.seal_cut(3, is_batchable),
            3,
            "an overflowing run is cut at max"
        );
    }

    #[test]
    fn no_span_ledger_tracks_wire_occupancy() {
        let mut p = MemberPipe::default();
        p.push(obs(1, 0));
        let f = p.take_open(1);
        p.sent(f, Instant::now());
        p.push(obs(1, 1));
        p.push(obs(2, 0));
        assert!(p.wire_conflicts(2), "machine 1 is already on the wire");
        p.complete_oldest().expect("one frame inflight");
        assert!(!p.wire_conflicts(2), "drained frames release the ledger");
    }

    #[test]
    fn fail_returns_everything_in_send_order() {
        let mut p = MemberPipe::default();
        p.push(obs(1, 0));
        p.push(obs(2, 0));
        let f = p.take_open(2);
        p.sent(f, Instant::now());
        p.push(obs(1, 1));
        let all = p.fail();
        let ticks: Vec<(u64, u64)> = all
            .iter()
            .map(|e| match &e.req {
                Request::Observe { machine, tick, .. } => (u64::from(machine.0), *tick),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ticks, vec![(1, 0), (2, 0), (1, 1)]);
        assert!(p.is_empty());
    }
}
