//! Per-lane line bookkeeping for the send engine (`engine.rs`).
//!
//! A [`MemberPipe`] keeps one lane's lines in one queue, in send order:
//! the lines on the wire first, the open lines (not written yet) behind
//! them. A frame on the wire is a count of lines at the front of that
//! queue plus its write instant, and its replies are not drained yet.
//! The module is a **pure state machine** — no I/O — so its ordering and
//! no-loss invariants are property-tested exhaustively (the `props`
//! module below) without sockets or servers.
//!
//! A frame ends in one of two ways: a reply for every line, in order,
//! or a failed transport with none of its replies trusted. In the second
//! case the server applied some prefix of the byte stream it was sent
//! and nothing after it, so replaying the whole unacknowledged tail in
//! send order can only repeat applied samples (stale no-ops), never skip
//! one. That tail already sits at the front of the queue, in order, so a
//! loss only moves the wire mark back to zero ([`MemberPipe::rewind`]).
//! What keeps the replay order-safe when a redirect moves a line to
//! another member is one rule:
//!
//! * **No-span** — a machine's routed samples never sit in more than one
//!   on-the-wire frame at once ([`MemberPipe::wire_conflicts`] holds the
//!   cut back until the frame drains). Whatever happens to one frame,
//!   every *later* line of an affected machine is still client-side
//!   (open), where it can be displaced behind the replayed tail.
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
use std::collections::{HashMap, VecDeque};
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

/// One lane's pipelined state.
#[derive(Debug)]
pub(crate) struct MemberPipe<L = Request> {
    /// Every unresolved line in send order: `lines[..wired]` are on the
    /// wire, the rest open.
    lines: VecDeque<Entry<L>>,
    /// Lines on the wire, at the front of `lines`.
    wired: usize,
    /// The frames on the wire, oldest first: line count and write
    /// instant (for per-frame ack latency).
    frames: VecDeque<(usize, Instant)>,
    /// Unacked routed-line count per machine hash across the wire — the
    /// no-span rule's ledger.
    ledger: HashMap<u64, u32>,
}

impl<L> Default for MemberPipe<L> {
    fn default() -> Self {
        MemberPipe {
            lines: VecDeque::new(),
            wired: 0,
            frames: VecDeque::new(),
            ledger: HashMap::new(),
        }
    }
}

impl<L> MemberPipe<L> {
    /// Queues one open line behind the rest.
    pub fn push(&mut self, e: Entry<L>) {
        self.lines.push_back(e);
    }

    pub fn open_len(&self) -> usize {
        self.lines.len() - self.wired
    }

    pub fn inflight_len(&self) -> usize {
        self.frames.len()
    }

    /// Lines on the wire.
    pub fn inflight_lines(&self) -> usize {
        self.wired
    }

    /// Line count of the oldest inflight frame, if any.
    pub fn oldest_len(&self) -> Option<usize> {
        self.frames.front().map(|&(n, _)| n)
    }

    /// Write instant of the oldest inflight frame, if any.
    pub fn oldest_sent_at(&self) -> Option<Instant> {
        self.frames.front().map(|&(_, at)| at)
    }

    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// The first `cut` open lines: the next frame, in order.
    pub fn unsent(&self, cut: usize) -> impl Iterator<Item = &Entry<L>> {
        self.lines.range(self.wired..self.wired + cut)
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
        let open = self.open_len();
        let run = self
            .unsent(open.min(max))
            .take_while(|e| batchable(&e.req))
            .count();
        if run == 0 {
            return open.min(1);
        }
        if run < max || open == max {
            return run;
        }
        let at = |k: usize| &self.lines[self.wired + k];
        let same = |a: &Entry<L>, b: &Entry<L>| a.spans() && b.spans() && a.hash == b.hash;
        let mut cut = max;
        while cut > 1 && same(at(cut - 1), at(cut)) {
            cut -= 1;
        }
        if cut == 1 && same(at(0), at(1)) {
            // One machine overflows the whole frame: no boundary exists.
            return max;
        }
        cut
    }

    /// Whether writing the first `cut` open lines now would put some
    /// machine on the wire in two frames at once (the caller must drain
    /// first).
    pub fn wire_conflicts(&self, cut: usize) -> bool {
        !self.ledger.is_empty()
            && self
                .unsent(cut)
                .any(|e| e.spans() && self.ledger.contains_key(&e.hash))
    }

    /// Records the first `cut` open lines as one frame written at
    /// `sent_at`.
    pub fn sent(&mut self, cut: usize, sent_at: Instant) {
        let frame = self.lines.range(self.wired..self.wired + cut);
        for e in frame.filter(|e| e.spans()) {
            *self.ledger.entry(e.hash).or_insert(0) += 1;
        }
        self.wired += cut;
        self.frames.push_back((cut, sent_at));
    }

    /// Moves the oldest inflight frame's lines into `out` (its replies
    /// are about to be processed), releasing its machines from the
    /// no-span ledger; returns its write instant.
    pub fn complete_oldest(&mut self, out: &mut Vec<Entry<L>>) -> Option<Instant> {
        let (n, sent_at) = self.frames.pop_front()?;
        self.wired -= n;
        for e in self.lines.drain(..n) {
            if e.spans() {
                if let Some(k) = self.ledger.get_mut(&e.hash) {
                    *k -= 1;
                    if *k == 0 {
                        self.ledger.remove(&e.hash);
                    }
                }
            }
            out.push(e);
        }
        Some(sent_at)
    }

    /// Forgets the wire after a transport failure: every unacked line is
    /// open again, in place, so the next frames send it first, in its
    /// original order. Returns how many frames were on the wire.
    pub fn rewind(&mut self) -> usize {
        let frames = self.frames.len();
        self.frames.clear();
        self.ledger.clear();
        self.wired = 0;
        frames
    }

    /// Removes every open line `pick` selects, keeping the relative
    /// order of both the removed lines (returned) and the rest. Used to
    /// re-route a rewound lane's sends, and after a redirect so that a
    /// re-routed machine's later lines follow its replayed ones.
    pub fn extract(&mut self, mut pick: impl FnMut(&Entry<L>) -> bool) -> Vec<Entry<L>> {
        let mut out = Vec::new();
        for e in self.lines.split_off(self.wired) {
            if pick(&e) {
                out.push(e);
            } else {
                self.lines.push_back(e);
            }
        }
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

    pub(super) fn key(e: &Entry) -> (u32, u64) {
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
    /// displacement time, so displaced lines land in original order.
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
        pipe.sent(cut, Instant::now());
    }

    /// No machine may occupy two on-the-wire frames at once.
    fn check_no_span(pipe: &MemberPipe) -> Result<(), String> {
        for m in 0..MACHINES {
            let mut from = 0;
            let mut frames = 0;
            for &(n, _) in &pipe.frames {
                frames += usize::from(pipe.lines.range(from..from + n).any(|e| key(e).0 == m));
                from += n;
            }
            if frames > 1 {
                return Err(format!("machine {m} spans {frames} wired frames"));
            }
        }
        Ok(())
    }

    fn run_interleaving(ops: &[(u32, u32, usize)]) -> Result<(), String> {
        let mut pipe = MemberPipe::default();
        let mut waiting: Vec<Entry> = Vec::new();
        let mut frame: Vec<Entry> = Vec::new();
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
                    if pipe.complete_oldest(&mut frame).is_some() {
                        for e in frame.drain(..) {
                            model.apply(&e)?;
                        }
                    }
                }
                Op::Lost(k) => {
                    // The server applied a prefix of the wired byte
                    // stream before the connection died; none of the
                    // acks came back, so the client replays everything:
                    // the pipe rewinds in place and, as the cluster's
                    // router does, its sends go back through routing.
                    let wired = pipe.inflight_lines();
                    for e in pipe.lines.range(..k.min(wired)) {
                        model.apply(e)?;
                    }
                    pipe.rewind();
                    waiting.extend(pipe.extract(|e| matches!(e.kind, EntryKind::Send { .. })));
                }
                Op::Redirect(m) => {
                    if pipe.complete_oldest(&mut frame).is_some() {
                        let mut bounced = false;
                        for e in frame.drain(..) {
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
                            waiting.extend(pipe.extract(|e| e.hash == u64::from(m)));
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
            if pipe.complete_oldest(&mut frame).is_some() {
                for e in frame.drain(..) {
                    model.apply(&e)?;
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
    use super::props::{key, obs};
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
        p.sent(1, Instant::now());
        p.push(obs(1, 1));
        p.push(obs(2, 0));
        assert!(p.wire_conflicts(2), "machine 1 is already on the wire");
        p.complete_oldest(&mut Vec::new())
            .expect("one frame inflight");
        assert!(!p.wire_conflicts(2), "drained frames release the ledger");
    }

    /// A loss moves nothing: every unresolved line — both wired frames,
    /// then the open line — stays where it was, in send order, and the
    /// next frame written carries the oldest of them first.
    #[test]
    fn a_loss_keeps_every_line_in_place_and_sends_it_first() {
        let mut p = MemberPipe::default();
        p.push(obs(1, 0));
        p.push(obs(2, 0));
        p.sent(2, Instant::now());
        p.push(obs(3, 0));
        p.sent(1, Instant::now());
        p.push(obs(1, 1));
        assert_eq!(p.rewind(), 2, "two frames were on the wire");
        assert_eq!((p.inflight_len(), p.inflight_lines()), (0, 0));
        assert!(!p.wire_conflicts(p.open_len()), "the ledger is clear");
        let open: Vec<(u32, u64)> = p.unsent(p.open_len()).map(key).collect();
        assert_eq!(open, [(1, 0), (2, 0), (3, 0), (1, 1)]);
        // The next write: a whole frame of the replayed lines, oldest first.
        let cut = p.seal_cut(16, is_batchable);
        assert_eq!(cut, 4);
        p.sent(cut, Instant::now());
        let mut frame = Vec::new();
        p.complete_oldest(&mut frame).expect("the replayed frame");
        let sent: Vec<(u32, u64)> = frame.iter().map(key).collect();
        assert_eq!(sent, open);
        assert!(p.is_empty());
    }
}
