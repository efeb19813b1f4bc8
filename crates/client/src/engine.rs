//! The send engine: every frame `oc-client` writes goes out through a
//! lane here, and every reply comes back through one.
//!
//! A *lane* is one connection ([`Link`]) plus its [`MemberPipe`]. A plain
//! [`Client`](crate::Client) is a one-lane engine; the load driver and a
//! [`ClusterClient`](crate::ClusterClient) hold a lane per connection or
//! ring member. What the lines mean — where they come from, what a reply
//! resolves, where a displaced line goes — is the caller's [`Policy`].
//!
//! One [`Engine::step`] is one round: every woken lane writes the frames
//! its [`Shape`] and the no-span rule allow and is flushed once; then,
//! unless the caller's goal is met, the engine waits. All due times — a
//! lane's retry nap, the next paced frame release, a lane's reply
//! deadline and write-stall deadline — sit in one min-heap, and the only
//! wait is one poller wait bounded by the next of them. A lane is read
//! only when its socket is
//! readable: one read into its reply buffer, after which every frame
//! whose replies are all there resolves and a partial frame stays
//! buffered for the next readiness. Writes never block either: what a
//! socket does not take stays in the lane's out buffer, the lane waits
//! for the socket to be writable, and a lane whose socket takes nothing
//! for `write_timeout` is lost. So a lane that naps, has sent no reply,
//! stops partway through a frame or stops reading holds up no other, and
//! a frame's reply deadline runs from its write. The poller is created on
//! first use, so a client that has only connected holds no descriptor
//! for it.
//!
//! A lost transport costs a lane one strike and a nap; a resolved frame
//! clears its strikes. What the lane had on the wire stays at the front
//! of its pipe and goes out first once the nap ends. `max_attempts`
//! strikes in a row, or an error no retry mends (a refused re-dial of a
//! ring member among them), fail the lane, and the caller decides what
//! that means. A fault plan's delay (`oc_serve::fault`) holds a lane the
//! same way, as a nap with no strike and nothing rewound: its link keeps
//! what it had not written, and the lane is read and written again when
//! the hold ends.
//!
//! A lane's lines are `L`s, which the policy maps to the requests they
//! stand for ([`Policy::request`]).

use crate::client::{ClientConfig, FrameIo, Link};
use crate::error::ClientError;
use crate::pipe::{is_batchable, Entry, MemberPipe};
use oc_reactor::{Events, Interest, Poller, RawFd};
use oc_serve::proto::{Request, Response};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Upper bound on one poller wait while no due time is pending.
const MAX_WAIT: Duration = Duration::from_millis(100);

/// How much one lane may have on the wire.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shape {
    /// Lines per frame, at most.
    pub batch: usize,
    /// Lines on the wire, at most.
    pub lines: usize,
    /// Frames on the wire, at most.
    pub frames: usize,
}

/// What a caller layers over the engine: where lines come from, what a
/// reply means, and what a lost or failed lane means.
pub(crate) trait Policy<L = Request> {
    /// The request `line` stands for.
    fn request<'a>(&'a self, line: &'a L) -> &'a Request;

    /// Offers lane `lane` room for `want` more open lines.
    fn refill(&mut self, _lane: usize, _pipe: &mut MemberPipe<L>, _want: usize) {}

    /// A frame of `lines` lines went onto lane `lane`'s wire.
    fn wrote(&mut self, _lane: usize, _lines: usize) {}

    /// Lane `lane`'s oldest frame, written at `sent_at`, came back:
    /// `replies[k]` answers `frame[k]`. The policy may drain the lines;
    /// the vector carries a later frame.
    fn resolved(
        &mut self,
        eng: &mut Engine<L>,
        lane: usize,
        frame: &mut Vec<Entry<L>>,
        sent_at: Instant,
        replies: &[Response],
    );

    /// Lane `lane` lost its transport with `frames` frames on the wire
    /// and naps `nap`. Its pipe is rewound: everything it had not
    /// resolved is open again, in order, and is sent first after the nap
    /// unless the policy moves it.
    fn lost(&mut self, _eng: &mut Engine<L>, _lane: usize, _frames: usize, _nap: Duration) {}

    /// Lane `lane` failed for `err`, its pipe rewound as in
    /// [`Policy::lost`]. An `Err` ends the caller's drive with it.
    fn failed(
        &mut self,
        eng: &mut Engine<L>,
        lane: usize,
        frames: usize,
        err: ClientError,
    ) -> Result<(), ClientError>;

    /// Whether the caller's goal is met after a round in mode `flush`.
    fn done(&self, eng: &Engine<L>, flush: bool) -> bool;
}

/// One connection and its pipe.
#[derive(Debug)]
pub(crate) struct Lane<L = Request> {
    pub link: Link,
    pub pipe: MemberPipe<L>,
    /// Losses since a frame last resolved.
    pub strikes: u32,
    /// When the first of them happened.
    since: Option<Instant>,
    /// Backing off after a loss: nothing is sent until its wake-up.
    pub napping: bool,
    /// Out of service: never written or read again.
    pub retired: bool,
    /// A reply deadline of this lane is in the heap (at most one is).
    deadline: bool,
    /// A write-stall deadline of this lane is in the heap (at most one is).
    stall: bool,
    /// Frames the pacing schedule has released to the lane.
    owed: u64,
    /// The descriptor the poller watches, and whether for writability too.
    watched: Option<(RawFd, bool)>,
    /// On the ready list.
    queued: bool,
}

/// What a due time is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Due {
    /// A lane's nap ends.
    Wake,
    /// A lane's oldest frame may have waited out the reply deadline.
    Deadline,
    /// A lane's socket may have taken no bytes for the write timeout.
    Stall,
    /// The pacing schedule releases a frame to a lane.
    Release,
}

/// The lanes and everything that decides when each is served.
pub(crate) struct Engine<L = Request> {
    pub lanes: Vec<Lane<L>>,
    shape: Shape,
    max_attempts: u32,
    reply_timeout: Duration,
    write_timeout: Duration,
    /// Created on first use.
    poll: Option<(Poller, Events)>,
    due: BinaryHeap<Reverse<(Instant, usize, Due)>>,
    /// Lanes to offer a write in the next round.
    ready: Vec<usize>,
    /// Lanes the last poller wait reported, and whether readable and
    /// writable.
    woken: Vec<(usize, bool, bool)>,
    /// One frame's lines, handed to [`Policy::resolved`].
    frame: Vec<Entry<L>>,
    /// One frame's replies.
    replies: Vec<Response>,
    /// Paced: one frame is released every `stagger`, round-robin.
    stagger: Option<Duration>,
    /// The last round's mode.
    flushing: bool,
}

impl<L: std::fmt::Debug> std::fmt::Debug for Engine<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("lanes", &self.lanes)
            .finish_non_exhaustive()
    }
}

impl<L> Engine<L> {
    /// An engine with no lanes; `cfg` gives the retry budget, the reply
    /// deadline and the write timeout.
    pub fn new(shape: Shape, cfg: &ClientConfig) -> Engine<L> {
        Engine {
            lanes: Vec::new(),
            shape,
            max_attempts: cfg.retry.max_attempts,
            reply_timeout: cfg.response_timeout,
            write_timeout: cfg.write_timeout,
            poll: None,
            due: BinaryHeap::new(),
            ready: Vec::new(),
            woken: Vec::new(),
            frame: Vec::new(),
            replies: Vec::new(),
            stagger: None,
            flushing: false,
        }
    }

    /// Adds a lane over `link` and returns its index.
    pub fn add(&mut self, link: Link) -> usize {
        self.lanes.push(Lane {
            link,
            pipe: MemberPipe::default(),
            strikes: 0,
            since: None,
            napping: false,
            retired: false,
            deadline: false,
            stall: false,
            owed: u64::MAX,
            watched: None,
            queued: false,
        });
        let i = self.lanes.len() - 1;
        self.wake(i);
        i
    }

    /// Paces the lanes: from now on the `k`-th frame is released to lane
    /// `k mod N`, one every `stagger`, so arrivals are smooth rather than
    /// phase-locked bursts.
    pub fn pace(&mut self, stagger: Duration) {
        self.stagger = Some(stagger);
        for lane in &mut self.lanes {
            lane.owed = 0;
        }
        self.due.push(Reverse((Instant::now(), 0, Due::Release)));
    }

    /// Queues `e` on lane `i`'s open frame.
    pub fn push(&mut self, i: usize, e: Entry<L>) {
        self.lanes[i].pipe.push(e);
        self.wake(i);
    }

    /// Offers lane `i` a write in the next round.
    pub fn wake(&mut self, i: usize) {
        let lane = &mut self.lanes[i];
        if !lane.queued {
            lane.queued = true;
            self.ready.push(i);
        }
    }

    /// When lane `i`'s current run of failures began.
    pub fn failing_since(&self, i: usize) -> Instant {
        self.lanes[i].since.unwrap_or_else(Instant::now)
    }

    /// Takes lane `i` out of service: its socket closes and its pipe is
    /// forgotten, so no deadline or reply can touch it again.
    pub fn retire(&mut self, i: usize) {
        self.unwatch(i);
        let lane = &mut self.lanes[i];
        lane.link.close();
        lane.pipe = MemberPipe::default();
        lane.retired = true;
    }

    /// Connects a one-lane engine's lane now: for a plain client, whose
    /// connection exists before anything is sent. A retryable failure is
    /// a strike and a nap, as for a lost frame; the strikes are cleared
    /// once connected.
    ///
    /// # Errors
    ///
    /// What `p` makes of a lane that cannot connect; a `p` whose
    /// [`Policy::failed`] returns `Ok` gets `Ok` with the lane unconnected.
    pub fn dial<P: Policy<L>>(&mut self, p: &mut P) -> Result<(), ClientError> {
        loop {
            let link = &mut self.lanes[0].link;
            match link.connect() {
                Ok(()) => break,
                Err(e) if !link.retryable(&e) => return self.fail(0, ClientError::Io(e), p),
                Err(e) => {
                    let what = format!("could not connect to {}: {e}", link.addr());
                    self.lose(0, what, p)?;
                    if !self.lanes[0].napping {
                        return Ok(());
                    }
                }
            }
            while self.lanes[0].napping {
                self.wait(p)?;
            }
        }
        let lane = &mut self.lanes[0];
        (lane.strikes, lane.since) = (0, None);
        Ok(())
    }

    /// One round: every woken lane writes what it may and is flushed
    /// once (`flush`: any open line; otherwise full frames only); then,
    /// unless `p`'s goal is met, one wait. Returns whether it is met.
    ///
    /// # Errors
    ///
    /// What `p` makes of a failed lane, and a failing poller.
    pub fn step<P: Policy<L>>(&mut self, p: &mut P, flush: bool) -> Result<bool, ClientError> {
        if flush && !self.flushing {
            // Lanes held back for a full frame may now send what they have.
            for i in 0..self.lanes.len() {
                if self.lanes[i].pipe.open_len() > 0 {
                    self.wake(i);
                }
            }
        }
        self.flushing = flush;
        while let Some(i) = self.ready.pop() {
            self.lanes[i].queued = false;
            self.write(i, p, flush)?;
        }
        if p.done(self, flush) {
            return Ok(true);
        }
        self.wait(p)?;
        Ok(false)
    }

    /// Writes the frames lane `i` may send now, then flushes them as one
    /// burst.
    pub fn write<P: Policy<L>>(
        &mut self,
        i: usize,
        p: &mut P,
        flush: bool,
    ) -> Result<(), ClientError> {
        let Shape {
            batch,
            lines,
            frames,
        } = self.shape;
        let mut lane = &mut self.lanes[i];
        // A lane starts a burst once at most half its line window is on
        // the wire and then fills it: the window slides in half-window
        // steps, so each flush carries many frames. A busy lane that is
        // watched has nothing to flush either, unless it is stalled: a
        // hold unwatches.
        let busy = lane.pipe.inflight_lines() > lines / 2;
        let waiting = busy && lane.watched.is_some() && lane.link.stalled_since().is_none();
        if lane.retired || lane.napping || waiting {
            return Ok(());
        }
        while !busy && lane.owed > 0 && lane.pipe.inflight_len() < frames {
            let room = lines - lane.pipe.inflight_lines();
            let open = lane.pipe.open_len();
            if room > 0 && open < batch {
                p.refill(i, &mut lane.pipe, batch - open);
            }
            let open = lane.pipe.open_len();
            if open == 0 || (!flush && open < batch) {
                break;
            }
            let cut = lane.pipe.seal_cut(batch, |l| is_batchable(p.request(l)));
            if cut > room || lane.pipe.wire_conflicts(cut) {
                break;
            }
            let sent_at = Instant::now();
            let io = lane
                .link
                .write_frame(cut, lane.pipe.unsent(cut).map(|e| p.request(&e.req)));
            if !lane.deadline {
                lane.deadline = true;
                let at = sent_at + self.reply_timeout;
                self.due.push(Reverse((at, i, Due::Deadline)));
            }
            lane.pipe.sent(cut, sent_at);
            lane.owed -= 1;
            p.wrote(i, cut);
            if !self.on_io(i, io, p)? {
                return Ok(());
            }
            lane = &mut self.lanes[i];
        }
        // Also what a hold or a full socket left unwritten, when no frame
        // was cut.
        let io = lane.link.flush_frames();
        if !self.on_io(i, io, p)? {
            return Ok(());
        }
        let lane = &mut self.lanes[i];
        if let Some(since) = lane.link.stalled_since().filter(|_| !lane.stall) {
            lane.stall = true;
            let at = since + self.write_timeout;
            self.due.push(Reverse((at, i, Due::Stall)));
        }
        // A lane woken from a hold reads a reply that came during it; a
        // stalled one waits to be writable as well.
        match self.watch(i) {
            Ok(()) => Ok(()),
            Err(e) => self.fail(i, ClientError::Io(e), p),
        }
    }

    /// Reads lane `i` once and resolves every frame whose replies have
    /// all arrived; a partial frame waits in the reply buffer.
    pub fn read<P: Policy<L>>(&mut self, i: usize, p: &mut P) -> Result<(), ClientError> {
        if self.lanes[i].pipe.oldest_len().is_none() {
            // Readable with nothing asked: an idle close or EOF. The
            // next frame goes out on a fresh connection, and a dead
            // member's refusal is found there, with that frame.
            self.unwatch(i);
            self.lanes[i].link.close();
            return Ok(());
        }
        let io = self.lanes[i].link.fill();
        if !self.on_io(i, io, p)? {
            return Ok(());
        }
        loop {
            let lane = &mut self.lanes[i];
            let Some(n) = lane.pipe.oldest_len() else {
                return Ok(());
            };
            self.replies.clear();
            let Some(io) = lane.link.take_frame(n, &mut self.replies).transpose() else {
                return Ok(());
            };
            if !self.on_io(i, io, p)? {
                return Ok(());
            }
            let lane = &mut self.lanes[i];
            let mut frame = std::mem::take(&mut self.frame);
            let sent_at = lane
                .pipe
                .complete_oldest(&mut frame)
                .expect("the drained frame was inflight");
            (lane.strikes, lane.since) = (0, None);
            self.wake(i);
            let replies = std::mem::take(&mut self.replies);
            p.resolved(self, i, &mut frame, sent_at, &replies);
            self.replies = replies;
            frame.clear();
            self.frame = frame;
        }
    }

    /// Waits in the poller for the next thing that can move a lane — a
    /// readable socket or a due time — and acts on it.
    fn wait<P: Policy<L>>(&mut self, p: &mut P) -> Result<(), ClientError> {
        let timeout = self.due.peek().map_or(MAX_WAIT, |&Reverse((at, ..))| {
            at.saturating_duration_since(Instant::now())
        });
        let mut woken = std::mem::take(&mut self.woken);
        woken.clear();
        let (poller, events) = self.poller()?;
        poller.wait(events, Some(timeout))?;
        woken.extend((events.iter()).map(|ev| (ev.token(), ev.is_readable(), ev.is_writable())));
        for &(i, readable, writable) in &woken {
            if self.lanes[i].watched.is_none() {
                continue;
            }
            if writable {
                self.wake(i);
            }
            if readable {
                self.read(i, p)?;
            }
        }
        self.woken = woken;
        self.fire(Instant::now(), p)
    }

    /// Acts on every due time at or before `now`.
    pub fn fire<P: Policy<L>>(&mut self, now: Instant, p: &mut P) -> Result<(), ClientError> {
        while let Some(&Reverse((at, i, due))) = self.due.peek() {
            if at > now {
                break;
            }
            self.due.pop();
            match due {
                Due::Wake => {
                    self.lanes[i].napping = false;
                    self.wake(i);
                }
                Due::Deadline | Due::Stall => {
                    let lane = &mut self.lanes[i];
                    let (armed, since, timeout, what) = match due {
                        Due::Deadline => (
                            &mut lane.deadline,
                            lane.pipe.oldest_sent_at(),
                            self.reply_timeout,
                            "no reply within the response timeout",
                        ),
                        _ => (
                            &mut lane.stall,
                            lane.link.stalled_since(),
                            self.write_timeout,
                            "no write progress within the write timeout",
                        ),
                    };
                    *armed = false;
                    let Some(since) = since.filter(|_| !lane.retired) else {
                        continue;
                    };
                    if since + timeout > now {
                        // What this was set for ended (the frame resolved,
                        // the write went on): watch what is current now.
                        *armed = true;
                        self.due.push(Reverse((since + timeout, i, due)));
                        continue;
                    }
                    self.unwatch(i);
                    let io = self.lanes[i].link.drop_conn();
                    self.on_io(i, io.map(|()| FrameIo::Lost(what.into())), p)?;
                }
                Due::Release => {
                    let stagger = self
                        .stagger
                        .expect("releases are scheduled only when paced");
                    self.lanes[i].owed += 1;
                    self.wake(i);
                    let next = (i + 1) % self.lanes.len();
                    self.due.push(Reverse((at + stagger, next, Due::Release)));
                }
            }
        }
        Ok(())
    }

    /// Acts on what lane `i`'s link reported of one step: a hold naps the
    /// lane, a loss or an error loses or fails it. Returns whether the
    /// lane may go on.
    fn on_io<P: Policy<L>>(
        &mut self,
        i: usize,
        io: Result<FrameIo, ClientError>,
        p: &mut P,
    ) -> Result<bool, ClientError> {
        match io {
            Ok(FrameIo::Done) => return Ok(true),
            Ok(FrameIo::Held(d)) => self.nap(i, d),
            Ok(FrameIo::Lost(what)) => self.lose(i, what, p)?,
            Err(e) => self.fail(i, e, p)?,
        }
        Ok(false)
    }

    /// Lane `i`'s transport lost what it had on the wire: one strike and
    /// a nap — or, at `max_attempts` strikes without a resolved frame, a
    /// failed lane.
    fn lose<P: Policy<L>>(&mut self, i: usize, what: String, p: &mut P) -> Result<(), ClientError> {
        let lane = &mut self.lanes[i];
        let wired = lane.pipe.inflight_lines() as u64;
        lane.link.note_io(wired);
        lane.strikes += 1;
        if lane.strikes >= self.max_attempts {
            let attempts = lane.strikes;
            return self.fail(
                i,
                ClientError::Exhausted {
                    attempts,
                    last: what,
                },
                p,
            );
        }
        lane.link.note_retries(wired);
        lane.since.get_or_insert_with(Instant::now);
        let nap = lane.link.nap(lane.strikes - 1);
        let frames = lane.pipe.rewind();
        self.nap(i, nap);
        p.lost(self, i, frames, nap);
        Ok(())
    }

    /// Lane `i` sends and reads nothing for `d`: a nap after a loss, or a
    /// fault plan's hold. A later nap replaces an earlier one.
    fn nap(&mut self, i: usize, d: Duration) {
        if std::mem::replace(&mut self.lanes[i].napping, true) {
            self.due
                .retain(|&Reverse((_, j, due))| (j, due) != (i, Due::Wake));
        }
        self.unwatch(i);
        self.due.push(Reverse((Instant::now() + d, i, Due::Wake)));
    }

    /// Lane `i` failed for `err`; its caller decides what that means.
    fn fail<P: Policy<L>>(
        &mut self,
        i: usize,
        err: ClientError,
        p: &mut P,
    ) -> Result<(), ClientError> {
        self.unwatch(i);
        let lane = &mut self.lanes[i];
        lane.since.get_or_insert_with(Instant::now);
        let frames = lane.pipe.rewind();
        let verdict = p.failed(self, i, frames, err);
        let lane = &mut self.lanes[i];
        (lane.strikes, lane.since, lane.napping) = (0, None, false);
        verdict
    }

    /// The poller and its event buffer, created on first use.
    fn poller(&mut self) -> std::io::Result<&mut (Poller, Events)> {
        if self.poll.is_none() {
            self.poll = Some((Poller::new()?, Events::with_capacity(1024)));
        }
        Ok(self.poll.as_mut().expect("created above"))
    }

    /// Has the poller watch lane `i`'s current socket: for readability,
    /// and for writability too while its link is stalled.
    fn watch(&mut self, i: usize) -> std::io::Result<()> {
        let link = &self.lanes[i].link;
        let want = (link.raw_fd()).map(|fd| (fd, link.stalled_since().is_some()));
        let had = self.lanes[i].watched;
        if want == had {
            return Ok(());
        }
        let Some((fd, writable)) = want else {
            self.unwatch(i);
            return Ok(());
        };
        let interest = match writable {
            true => Interest::READABLE | Interest::WRITABLE,
            false => Interest::READABLE,
        };
        if had.is_some_and(|(old, _)| old == fd) {
            self.poller()?.0.reregister(fd, i, interest)?;
        } else {
            self.unwatch(i);
            self.poller()?.0.register(fd, i, interest)?;
        }
        self.lanes[i].watched = want;
        Ok(())
    }

    /// Stops polling lane `i`'s socket, just before or after its link
    /// closes it (no connect in between can reuse the number).
    fn unwatch(&mut self, i: usize) {
        if let Some((fd, _)) = self.lanes[i].watched.take() {
            if let Some((poller, _)) = &self.poll {
                let _ = poller.deregister(fd);
            }
        }
    }
}
