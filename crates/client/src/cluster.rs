//! [`ClusterClient`] — one client over an N-process ring.
//!
//! A `ClusterClient` holds one [`Client`] per member and routes every
//! data-plane call by the key's [`oc_serve::shard::key_hash`] through a
//! shared [`HashRing`]. A sample has one way in:
//! [`ClusterClient::observe`] queues it on the pipe of the key's live
//! owner (`MemberPipe`, the per-member engine in `pipe.rs`), where
//! same-member runs are framed as `BATCH`es and up to
//! [`ClusterClientConfig::pipeline_frames`] frames ride each member's
//! wire at once; [`ClusterClient::flush`] and every read settle the
//! pipes. With mirroring on, each acknowledged sample is then queued on
//! the pipe of the key's replica — the ring successor, exactly the node
//! that takes over if the owner dies. Because both copies see the same
//! ordered per-machine stream, the replica's state is bit-identical and
//! so are its predictions; a SIGKILLed owner therefore loses nothing an
//! acknowledged sample ever carried.
//!
//! Failure handling:
//!
//! * `ERR not-mine` (a member enforcing its [`HashRing::role`])
//!   bumps `cluster.redirects` and the line re-routes to the replica,
//!   then to any other live member.
//! * A terminal transport error marks the member dead: its
//!   unacknowledged tail replays in order to the takeover targets
//!   (`cluster.pipeline.replayed_tails`), and mirrors pinned to it are
//!   dropped ([`ClusterMetrics::mirror_drops`]). A lost connection is
//!   re-dialled at once and a *refused* reconnect is terminal on the
//!   spot — nothing listens on the port, the process is gone — so a
//!   SIGKILL costs one connect, not a backoff ladder; every other failure
//!   (reset or EOF from a member that still listens, timeouts,
//!   `ERR timeout`/`conn-limit`) keeps the [`RetryPolicy`] budget. A
//!   wrong verdict degrades replication, never acknowledged data, and
//!   heals through the `RING` probe like any replacement.
//!
//! [`RetryPolicy`]: crate::client::RetryPolicy
//!
//! One degradation is deliberate: members classify keys against the
//! *all-alive* ring (a process cannot observe peer deaths), so after a
//! failure the new replica of a failed-over key would answer
//! `not-mine` to mirrors. Mirrors are therefore only sent to targets
//! that were owner or replica under the full ring — redundancy for the
//! failed-over range is restored by replacing the member and adopting a
//! generation-bumped [`RingSpec`], not by re-replication in place. See
//! `docs/OPERATIONS.md` §5.6.
//!
//! Adoption is automatic: after a member death, after an all-members
//! `not-mine` exhaustion, or when a member's `STATS` epoch word changes,
//! the client probes a live member with `RING` and adopts the described
//! membership when its *full 64-bit* generation is strictly newer and
//! the address list is complete (`cluster.adoptions`). The packed epoch
//! is only the change hint — generations 2^16 apart alias in it, so the
//! epoch is compared as a whole word and never decides which ring is
//! newer (PROTOCOL.md §7.3–7.4).

use crate::client::{Client, ClientConfig, FrameIo};
use crate::error::ClientError;
use crate::pipe::{Entry, EntryKind, MemberPipe};
use oc_cluster::{HashRing, RingSpec};
use oc_serve::proto::{ErrCode, Request, Response, StatsSnapshot};
use oc_serve::shard::key_hash;
use oc_telemetry::metrics::HistogramSnapshot;
use oc_telemetry::{trace, Counter, Gauge};
use oc_trace::ids::{CellId, MachineId, TaskId};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Shape of a [`ClusterClient`].
#[derive(Debug, Clone)]
pub struct ClusterClientConfig {
    /// Per-member connection config; the seed is salted by member index
    /// so backoff jitter never locksteps across the fleet.
    pub client: ClientConfig,
    /// Mirror every acknowledged `OBSERVE` to the key's replica. Costs
    /// one extra line per sample; buys SIGKILL survival.
    pub mirror: bool,
    /// Frames kept in flight per member before blocking on acks
    /// ([`ClusterClient::observe`]). Each frame carries up to
    /// `client.batch` lines.
    pub pipeline_frames: usize,
}

impl Default for ClusterClientConfig {
    /// Mirroring on — the cluster's reason to exist.
    fn default() -> ClusterClientConfig {
        ClusterClientConfig {
            client: ClientConfig::default(),
            mirror: true,
            pipeline_frames: 16,
        }
    }
}

/// What a [`ClusterClient`] did across its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterMetrics {
    /// `ERR not-mine` responses that forced a re-route.
    pub redirects: u64,
    /// Mirrors dropped instead of delivered: still queued on the pipe of
    /// a member that died, or refused by their target with `not-mine`.
    /// The owner holds the data; redundancy is degraded, not lost.
    pub mirror_drops: u64,
    /// Members marked dead after a terminal transport error.
    pub failovers: u64,
    /// Newer ring descriptions adopted from a member's `RING` answer
    /// (a replacement or resize the client discovered on its own).
    pub adoptions: u64,
    /// Frames written to members.
    pub frames: u64,
    /// Frames that coalesced more than one line — a same-member run
    /// batched into a single round trip.
    pub coalesced_runs: u64,
    /// Member failures (or transport drops) that displaced a non-empty
    /// unacknowledged tail for in-order replay.
    pub replayed_tails: u64,
    /// Times the client put the calling thread to sleep: a member whose
    /// transport failed, but which still accepts connections, waiting
    /// out one rung of its retry ladder.
    pub backoff_sleeps: u64,
    /// Microseconds slept across [`ClusterMetrics::backoff_sleeps`].
    pub backoff_slept_us: u64,
}

/// Handles into the process-wide registry mirroring [`ClusterMetrics`];
/// names documented in `docs/OPERATIONS.md`.
#[derive(Debug)]
struct GlobalCounters {
    redirects: Arc<Counter>,
    adoptions: Arc<Counter>,
    pipeline_frames: Arc<Counter>,
    pipeline_coalesced: Arc<Counter>,
    pipeline_replayed: Arc<Counter>,
    pipeline_inflight: Arc<Gauge>,
    backoff_sleeps: Arc<Counter>,
    backoff_slept_us: Arc<Counter>,
}

impl GlobalCounters {
    fn new() -> GlobalCounters {
        let m = oc_telemetry::global_metrics();
        GlobalCounters {
            redirects: m.counter("cluster.redirects"),
            adoptions: m.counter("cluster.adoptions"),
            pipeline_frames: m.counter("cluster.pipeline.frames"),
            pipeline_coalesced: m.counter("cluster.pipeline.coalesced_runs"),
            pipeline_replayed: m.counter("cluster.pipeline.replayed_tails"),
            pipeline_inflight: m.gauge("cluster.pipeline.inflight_frames"),
            backoff_sleeps: m.counter("cluster.backoff.sleeps"),
            backoff_slept_us: m.counter("cluster.backoff.slept_us"),
        }
    }
}

/// One logical client over a multi-process ring.
#[derive(Debug)]
pub struct ClusterClient {
    ring: HashRing,
    addrs: Vec<SocketAddr>,
    alive: Vec<bool>,
    clients: Vec<Option<Client>>,
    /// Each member's epoch word from its last `STATS` answer (`0` =
    /// never seen). Compared as the *full word* — the low 16 bits alone
    /// alias generations 2^16 apart.
    last_epoch: Vec<u64>,
    /// Re-entrancy guard: a probe triggered while another probe's
    /// adoption is settling must not recurse.
    probing: bool,
    /// Per-member ingest state (`pipes[i]` ↔ `addrs[i]`).
    pipes: Vec<MemberPipe>,
    /// Lines not yet on any pipe: fresh ingest is routed through here,
    /// and replayed tails / redirected lines come back through it.
    waiting: VecDeque<Entry>,
    /// Consecutive transport failures per member (the pipe-level
    /// analogue of [`Client`]'s per-request retries); reset by any
    /// successful frame drain.
    pipe_strikes: Vec<Strikes>,
    /// Ack latencies, microseconds: each frame's latency booked to every
    /// line it resolved. Drained by the fleet driver.
    frame_lats: HistogramSnapshot,
    /// Lines resolved `OK` / with a server error (owner sends only;
    /// mirrors are not counted).
    pipelined_ok: u64,
    pipelined_err: u64,
    /// Jitter source for member backoff ([`Client`]'s is private and
    /// per-connection; the pipes back off per *member*).
    rng: SmallRng,
    cfg: ClusterClientConfig,
    metrics: ClusterMetrics,
    global: GlobalCounters,
}

impl ClusterClient {
    /// Builds a client over the ring `spec` describes, with one address
    /// per member. Connections are opened lazily, on first use.
    ///
    /// # Errors
    ///
    /// [`ClientError::Config`] when `addrs` does not match `spec.nodes`
    /// or the per-member config is invalid.
    pub fn connect(
        spec: RingSpec,
        addrs: &[SocketAddr],
        cfg: ClusterClientConfig,
    ) -> Result<ClusterClient, ClientError> {
        if addrs.len() != spec.nodes {
            return Err(ClientError::Config(format!(
                "{} addresses for a {}-node ring",
                addrs.len(),
                spec.nodes
            )));
        }
        cfg.client.validate()?;
        if cfg.pipeline_frames == 0 {
            return Err(ClientError::Config(
                "pipeline_frames must be at least 1".to_string(),
            ));
        }
        let rng = SmallRng::seed_from_u64(cfg.client.seed ^ 0x9E37_79B9_7F4A_7C15);
        Ok(ClusterClient {
            ring: spec.build(),
            addrs: addrs.to_vec(),
            alive: vec![true; spec.nodes],
            clients: (0..spec.nodes).map(|_| None).collect(),
            last_epoch: vec![0; spec.nodes],
            probing: false,
            pipes: (0..spec.nodes).map(|_| MemberPipe::default()).collect(),
            waiting: VecDeque::new(),
            pipe_strikes: vec![Strikes::default(); spec.nodes],
            frame_lats: HistogramSnapshot::default(),
            pipelined_ok: 0,
            pipelined_err: 0,
            rng,
            cfg,
            metrics: ClusterMetrics::default(),
            global: GlobalCounters::new(),
        })
    }

    /// The liveness mask this client has inferred, by ring index.
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// What this client did so far.
    pub fn metrics(&self) -> ClusterMetrics {
        self.metrics
    }

    /// Switches to a new membership (e.g. after a retired member was
    /// replaced under a bumped generation). Frames on the pipes are
    /// settled under the *old* ring first (lines not yet routed onto a
    /// pipe survive the swap and re-route under the new ring); all
    /// members start presumed alive.
    ///
    /// # Errors
    ///
    /// Propagates [`ClusterClient::connect`]-style validation.
    pub fn adopt(&mut self, spec: RingSpec, addrs: &[SocketAddr]) -> Result<(), ClientError> {
        self.settle_pipes()?;
        if addrs.len() != spec.nodes {
            return Err(ClientError::Config(format!(
                "{} addresses for a {}-node ring",
                addrs.len(),
                spec.nodes
            )));
        }
        self.ring = spec.build();
        self.addrs = addrs.to_vec();
        self.alive = vec![true; spec.nodes];
        self.clients = (0..spec.nodes).map(|_| None).collect();
        self.last_epoch = vec![0; spec.nodes];
        self.pipes = (0..spec.nodes).map(|_| MemberPipe::default()).collect();
        self.pipe_strikes = vec![Strikes::default(); spec.nodes];
        // Unsent lines re-route from scratch: their redirect counts
        // referred to the old ring's candidate order.
        for e in &mut self.waiting {
            if let EntryKind::Send { tried } = &mut e.kind {
                *tried = 0;
            }
        }
        Ok(())
    }

    /// The lazily-opened client for member `index`.
    fn client(&mut self, index: usize) -> Result<&mut Client, ClientError> {
        if self.clients[index].is_none() {
            let cfg = self
                .cfg
                .client
                .clone()
                .with_seed(self.cfg.client.seed.wrapping_add(index as u64 + 1));
            self.clients[index] = Some(Client::connect_member(self.addrs[index], cfg)?);
        }
        Ok(self.clients[index].as_mut().expect("just connected"))
    }

    /// Marks `index` dead after a terminal failure: drops its
    /// connection and displaces its pipe — sends replay through the
    /// waiting queue to the keys' new owners, mirrors pinned to it drop.
    /// `failing_since` is when the member's transport first failed (for
    /// a read, when the read began); the `cluster.failover` trace event
    /// carries the time from there to this verdict.
    fn mark_dead(&mut self, index: usize, failing_since: Instant) {
        if !self.alive[index] {
            return;
        }
        trace::event(
            "cluster.failover",
            index as u64,
            failing_since.elapsed().as_micros() as u64,
        );
        self.displace_pipe(index);
        self.alive[index] = false;
        self.clients[index] = None;
        self.metrics.failovers += 1;
        // The supervisor may already have replaced the member under a
        // bumped generation: ask a survivor before giving up on the slot.
        self.probe_ring();
    }

    /// Asks a live member for the current `RING` description and adopts
    /// it when its full 64-bit generation is strictly newer than the
    /// local ring's **and** the address list is complete. Returns
    /// whether a new membership was adopted. Probe transport errors are
    /// swallowed — the next data-plane call rediscovers them.
    fn probe_ring(&mut self) -> bool {
        if self.probing {
            return false;
        }
        self.probing = true;
        let adopted = self.probe_ring_inner();
        self.probing = false;
        if adopted {
            self.metrics.adoptions += 1;
            self.global.adoptions.inc();
        }
        adopted
    }

    fn probe_ring_inner(&mut self) -> bool {
        for index in 0..self.alive.len() {
            if !self.alive[index] {
                continue;
            }
            // Replies still in flight would interleave with the probe's
            // answer on this connection; drain them first (open frames
            // are not on the wire and can wait).
            let mut broken = false;
            while self.alive[index] && self.pipes[index].inflight_len() > 0 {
                if !matches!(self.drain_oldest(index), Ok(Drain::Done)) {
                    broken = true;
                    break;
                }
            }
            if broken || !self.alive[index] {
                continue;
            }
            let resp = match self.client(index).and_then(|c| c.request(&Request::Ring)) {
                Ok(r) => r,
                Err(_) => continue,
            };
            let Response::Ring { spec, addrs, .. } = resp else {
                // Standalone servers answer ERR; nothing to adopt.
                continue;
            };
            if spec.generation <= self.ring.spec().generation {
                // The cluster is on our ring (or this member lags);
                // adopting would only repeat the current state.
                return false;
            }
            if addrs.len() != spec.nodes {
                // A newer ring whose membership is not fully known yet;
                // maybe another member has the complete description.
                continue;
            }
            let parsed: Option<Vec<SocketAddr>> = addrs.iter().map(|a| a.parse().ok()).collect();
            let Some(parsed) = parsed else { continue };
            return self.adopt(spec, &parsed).is_ok();
        }
        false
    }

    /// Candidate members for a key, preference-ordered: live owner,
    /// live replica, then every other live member.
    fn candidates(&self, hash: u64) -> Vec<usize> {
        let (owner, replica) = self.ring.routes(hash, &self.alive);
        let mut order = Vec::with_capacity(self.alive.len());
        order.extend(owner);
        order.extend(replica.filter(|r| Some(*r) != owner));
        for (i, &alive) in self.alive.iter().enumerate() {
            if alive && !order.contains(&i) {
                order.push(i);
            }
        }
        order
    }

    /// Sends one read to the key's owner, falling over on `not-mine`
    /// redirects and member deaths. The caller has flushed: a read
    /// shares its connection with the pipes, and their replies must not
    /// interleave with its answer.
    fn send_routed(&mut self, hash: u64, req: &Request) -> Result<Response, ClientError> {
        loop {
            let order = self.candidates(hash);
            if order.is_empty() {
                return Err(ClientError::Exhausted {
                    attempts: 0,
                    last: "no live ring member".to_string(),
                });
            }
            let mut redirected = false;
            for index in order {
                let started = Instant::now();
                let outcome = self.client(index).and_then(|c| c.request(req));
                match outcome {
                    Ok(Response::Err {
                        code: ErrCode::NotMine,
                        ..
                    }) => {
                        self.metrics.redirects += 1;
                        self.global.redirects.inc();
                        redirected = true;
                    }
                    Ok(resp) => return Ok(resp),
                    Err(ClientError::Io(_)) | Err(ClientError::Exhausted { .. }) => {
                        self.mark_dead(index, started);
                        // Membership changed; recompute the order.
                        redirected = false;
                        break;
                    }
                    Err(other) => return Err(other),
                }
            }
            if redirected {
                // Every live member redirected: the ring disagrees with
                // the members' rings (stale spec). If the
                // members serve a newer generation, adopt it and retry;
                // a second full redirect round cannot adopt again (the
                // generation is no longer newer) and exhausts below.
                if self.probe_ring() {
                    continue;
                }
                return Err(ClientError::Exhausted {
                    attempts: 0,
                    last: "every live member answered not-mine; re-resolve the ring".to_string(),
                });
            }
        }
    }

    /// Queues a usage sample and returns. The sample is routed to the
    /// key's live owner, framed together with its same-member neighbours
    /// (`BATCH`), and acknowledged asynchronously — up to
    /// [`ClusterClientConfig::pipeline_frames`] frames ride the wire per
    /// member, so member round trips overlap instead of serializing.
    /// With mirroring on, the sample is queued onto the replica's pipe
    /// when its owner acknowledges it, so a queued mirror is always an
    /// acknowledged-but-unreplicated sample. A member death replays the
    /// unacknowledged tail in order through the failover and adoption
    /// ladder (`cluster.pipeline.replayed_tails`). Per-machine sample
    /// order is preserved under every failure mode — see PROTOCOL.md
    /// §7.6.
    ///
    /// Call [`ClusterClient::flush`] (any read does it too) before
    /// relying on the samples being applied.
    ///
    /// # Errors
    ///
    /// Routing exhaustion and non-transport protocol errors. Per-line
    /// server errors resolve into the pipeline tallies rather than
    /// failing the call.
    pub fn observe(
        &mut self,
        cell: &CellId,
        machine: MachineId,
        task: TaskId,
        usage: f64,
        limit: f64,
        tick: u64,
    ) -> Result<(), ClientError> {
        let hash = key_hash(&(cell.clone(), machine));
        let req = Request::Observe {
            cell: cell.clone(),
            machine,
            task,
            usage,
            limit,
            mem: None,
            tick,
        };
        self.waiting.push_back(Entry {
            hash,
            req,
            kind: EntryKind::Send { tried: 0 },
        });
        self.pump(false)
    }

    /// Settles every queued sample: each line is routed, written, and
    /// acknowledged (or displaced, replayed, and then acknowledged),
    /// mirrors included, before this returns.
    ///
    /// # Errors
    ///
    /// Routing exhaustion and non-transport protocol errors.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.pump(true)
    }

    /// Drains the ack latencies.
    pub(crate) fn take_frame_latencies(&mut self) -> HistogramSnapshot {
        std::mem::take(&mut self.frame_lats)
    }

    /// Drains the `(ok, err)` line tallies. Owner sends only — mirror
    /// acks are not counted.
    pub(crate) fn take_pipeline_tallies(&mut self) -> (u64, u64) {
        let t = (self.pipelined_ok, self.pipelined_err);
        self.pipelined_ok = 0;
        self.pipelined_err = 0;
        t
    }

    /// The engine: routes waiting lines onto member pipes, writes due
    /// frames, and drains replies until the backlog fits the per-member
    /// window (`flush`: until everything is acknowledged).
    ///
    /// A round never naps for lack of progress, because a round that
    /// drains no frame and loses no transport leaves every pipe within
    /// its target and nothing waiting: it is the last one. Every other
    /// round moves lines toward a final state, so the loop ends:
    ///
    /// * an `OK` or a server error resolves its line, and a refused
    ///   mirror drops;
    /// * a transport failure costs its member one strike, and
    ///   `max_attempts` strikes — or one refused reconnect — end in
    ///   `mark_dead`, after which the member takes no lines;
    /// * a `not-mine` moves its line to the next candidate, and a full
    ///   redirect round ends in a `RING` probe that adopts a strictly
    ///   newer generation or in [`ClientError::Exhausted`].
    ///
    /// The only sleeps are a failing member's strikes
    /// (`cluster.backoff.sleeps`).
    fn pump(&mut self, flush: bool) -> Result<(), ClientError> {
        loop {
            self.route_waiting()?;
            if self.settle_step(flush)? && self.waiting.is_empty() {
                return Ok(());
            }
        }
    }

    /// Routes every waiting line onto its member pipe: the key's live
    /// owner, or the `tried`-th candidate for a line bounced by
    /// redirects. A full redirect round probes the ring (an adoption
    /// resets the count); a second full round exhausts, like a read's
    /// (`send_routed`).
    fn route_waiting(&mut self) -> Result<(), ClientError> {
        while let Some(e) = self.waiting.pop_front() {
            match e.kind {
                EntryKind::Mirror => {
                    // Mirrors never route by key; one here means its
                    // pinned member died mid-displacement. The owner
                    // holds the data — degrade, don't re-route.
                    self.metrics.mirror_drops += 1;
                }
                EntryKind::Send { tried } => {
                    // The first hop — all but redirected lines — is the
                    // live owner; no candidate list is built for it.
                    let target = match tried {
                        0 => self.ring.owner(e.hash, &self.alive),
                        _ => self.candidates(e.hash).get(tried as usize).copied(),
                    };
                    if let Some(target) = target {
                        self.pipes[target].push(e);
                        continue;
                    }
                    if !self.alive.contains(&true) {
                        self.waiting.push_front(e);
                        return Err(ClientError::Exhausted {
                            attempts: 0,
                            last: "no live ring member".to_string(),
                        });
                    }
                    self.waiting.push_front(Entry {
                        kind: EntryKind::Send { tried: 0 },
                        ..e
                    });
                    if self.probe_ring() {
                        // Adopted: the entry re-routes (tried reset by
                        // `adopt`) under the new ring.
                        continue;
                    }
                    return Err(ClientError::Exhausted {
                        attempts: 0,
                        last: "every live member answered not-mine; re-resolve the ring"
                            .to_string(),
                    });
                }
            }
        }
        Ok(())
    }

    /// One pass over every live pipe: seals and writes frames that are
    /// due (`flush` writes any non-empty open frame, otherwise only
    /// full ones), keeps at most `pipeline_frames` frames on each wire,
    /// and in flush mode drains every outstanding reply. Displaced
    /// lines land in the waiting queue for the caller's next round.
    /// Returns whether every pipe now fits its target: empty under
    /// `flush`, within batch and window otherwise.
    fn settle_step(&mut self, flush: bool) -> Result<bool, ClientError> {
        let batch = self.cfg.client.batch.max(1);
        let window = self.cfg.pipeline_frames;
        for index in 0..self.pipes.len() {
            if !self.alive[index] {
                continue;
            }
            loop {
                let open = self.pipes[index].open_len();
                if open == 0 || (!flush && open < batch) {
                    break;
                }
                let cut = self.pipes[index].seal_cut(batch);
                if self.pipes[index].wire_conflicts(cut) {
                    // Some machine in the cut is still on the wire:
                    // drain until it is released (the no-span rule).
                    match self.drain_oldest(index)? {
                        Drain::Done => continue,
                        Drain::Lost => break,
                    }
                }
                let entries = self.pipes[index].take_open(cut);
                let wrote = self.client(index).and_then(|c| {
                    c.write_frame(entries.len(), entries.iter().map(|e| &e.req))?
                        .then(|| c.flush_frames())
                });
                if let Some(broken) = Broken::of(wrote)? {
                    self.pipe_transport_failure(index, entries, broken);
                    break;
                }
                let coalesced = entries.len() > 1;
                self.pipes[index].sent(entries, Instant::now());
                self.metrics.frames += 1;
                self.global.pipeline_frames.inc();
                self.global.pipeline_inflight.inc();
                if coalesced {
                    self.metrics.coalesced_runs += 1;
                    self.global.pipeline_coalesced.inc();
                }
                let mut lost = false;
                while !lost && self.alive[index] && self.pipes[index].inflight_len() > window {
                    lost = matches!(self.drain_oldest(index)?, Drain::Lost);
                }
                if lost || !self.alive[index] {
                    break;
                }
            }
            while flush && self.alive[index] && self.pipes[index].inflight_len() > 0 {
                self.drain_oldest(index)?;
            }
        }
        Ok(self.pipes.iter().enumerate().all(|(i, p)| {
            if !self.alive[i] || flush {
                p.is_empty()
            } else {
                p.open_len() < batch && p.inflight_len() <= window
            }
        }))
    }

    /// Settles every pipe — writes all open frames and drains every
    /// inflight reply — *without* routing the waiting queue, so it is
    /// safe inside [`ClusterClient::adopt`]: lines the pipes never sent
    /// stay waiting and re-route under the ring that emerges. Acks queue
    /// mirrors onto pipes a pass may already have visited, so settling
    /// can take several passes; it ends for the reasons `pump` does.
    fn settle_pipes(&mut self) -> Result<(), ClientError> {
        while !self.settle_step(true)? {}
        Ok(())
    }

    /// Drains member `index`'s oldest inflight frame and resolves each
    /// reply: `OK`/server errors acknowledge the line (queueing its
    /// mirror onto the replica's pipe), and `not-mine` re-routes the
    /// line — and its still-open successors — through the waiting queue.
    fn drain_oldest(&mut self, index: usize) -> Result<Drain, ClientError> {
        let Some(n) = self.pipes[index].oldest_len() else {
            return Ok(Drain::Done);
        };
        let mut replies = Vec::with_capacity(n);
        let read = self
            .client(index)
            .and_then(|c| c.read_frame_replies(n, &mut replies));
        if let Some(broken) = Broken::of(read)? {
            self.pipe_transport_failure(index, Vec::new(), broken);
            return Ok(Drain::Lost);
        }
        let frame = self.pipes[index]
            .complete_oldest()
            .expect("frame was inflight");
        self.global.pipeline_inflight.dec();
        self.pipe_strikes[index] = Strikes::default();
        let lat_us = frame.sent_at.elapsed().as_secs_f64() * 1e6;
        let mut resolved = 0u64;
        let mut redirected: HashMap<u64, u32> = HashMap::new();
        for (entry, resp) in frame.entries.into_iter().zip(replies) {
            match resp {
                Response::Err {
                    code: ErrCode::NotMine,
                    ..
                } => match entry.kind {
                    EntryKind::Send { tried } => {
                        self.metrics.redirects += 1;
                        self.global.redirects.inc();
                        redirected.insert(entry.hash, tried + 1);
                        self.waiting.push_back(Entry {
                            kind: EntryKind::Send { tried: tried + 1 },
                            ..entry
                        });
                    }
                    EntryKind::Mirror => {
                        // The replica's all-alive view disagrees; the
                        // owner holds the data — degrade, don't re-route.
                        self.metrics.mirror_drops += 1;
                    }
                },
                Response::Err { .. } => {
                    resolved += 1;
                    if matches!(entry.kind, EntryKind::Send { .. }) {
                        self.pipelined_err += 1;
                    }
                }
                _ => {
                    resolved += 1;
                    if matches!(entry.kind, EntryKind::Send { .. }) {
                        self.pipelined_ok += 1;
                        if self.cfg.mirror {
                            if let Some(target) = self.ring.mirror_target(entry.hash, &self.alive) {
                                self.pipes[target].push(Entry {
                                    kind: EntryKind::Mirror,
                                    ..entry
                                });
                            }
                        }
                    }
                }
            }
        }
        if !redirected.is_empty() {
            let hashes: HashSet<u64> = redirected.keys().copied().collect();
            let moved = self.pipes[index].extract_open_matching(&hashes);
            for e in moved {
                match e.kind {
                    EntryKind::Send { tried } => {
                        let tried = redirected.get(&e.hash).copied().unwrap_or(tried);
                        self.waiting.push_back(Entry {
                            kind: EntryKind::Send { tried },
                            ..e
                        });
                    }
                    // A machine's mirrors live on a different pipe than
                    // its sends (owner ≠ mirror target) — unreachable,
                    // but re-pinning is the safe fallback.
                    EntryKind::Mirror => self.pipes[index].push(e),
                }
            }
        }
        self.frame_lats.record_n(lat_us, resolved);
        Ok(Drain::Done)
    }

    /// Member `index`'s transport failed under a frame (write or drain).
    /// Its whole unacknowledged tail — inflight frames in send order,
    /// the frame that was about to be written, then the open frame — is
    /// displaced in order: sends replay through the waiting queue,
    /// mirrors stay pinned. Consecutive failures are bounded by the
    /// retry budget (the pipe-level analogue of [`Client`]'s
    /// per-request retries); exhausting it — or a refused reconnect, at
    /// once — marks the member dead, which drops its pinned mirrors.
    fn pipe_transport_failure(&mut self, index: usize, about_to_send: Vec<Entry>, broken: Broken) {
        let strikes = &mut self.pipe_strikes[index];
        strikes.count = strikes.count.saturating_add(1);
        let count = strikes.count;
        let since = *strikes.since.get_or_insert_with(Instant::now);
        let frames = self.pipes[index].inflight_len();
        if frames > 0 {
            self.global.pipeline_inflight.add(-(frames as i64));
        }
        let open = self.pipes[index].take_all_open();
        let mut tail = self.pipes[index].fail();
        tail.extend(about_to_send);
        tail.extend(open);
        if !tail.is_empty() {
            self.metrics.replayed_tails += 1;
            self.global.pipeline_replayed.inc();
        }
        let mut mirrors = Vec::new();
        for e in tail {
            match e.kind {
                EntryKind::Send { .. } => self.waiting.push_back(e),
                EntryKind::Mirror => mirrors.push(e),
            }
        }
        if matches!(broken, Broken::Refused) || count >= self.cfg.client.retry.max_attempts {
            self.metrics.mirror_drops += mirrors.len() as u64;
            self.mark_dead(index, since);
        } else {
            // The member gets another chance on a fresh connection;
            // replays of already-applied lines are stale no-ops.
            for e in mirrors {
                self.pipes[index].push(e);
            }
            self.backoff(count);
        }
    }

    /// Displaces member `index`'s remaining lines as part of its death: sends replay through the waiting queue, mirrors
    /// targeted at it drop (the owner still holds the data).
    fn displace_pipe(&mut self, index: usize) {
        let frames = self.pipes[index].inflight_len();
        if frames > 0 {
            self.global.pipeline_inflight.add(-(frames as i64));
        }
        let tail = self.pipes[index].fail();
        if tail.is_empty() {
            return;
        }
        self.metrics.replayed_tails += 1;
        self.global.pipeline_replayed.inc();
        for e in tail {
            match e.kind {
                EntryKind::Send { .. } => self.waiting.push_back(e),
                EntryKind::Mirror => self.metrics.mirror_drops += 1,
            }
        }
    }

    /// Sleeps, and counts, the retry policy's nap for `attempt` —
    /// [`Client`]'s schedule, but per member: the pipeline backs off a
    /// whole pipe, not one request.
    fn backoff(&mut self, attempt: u32) {
        let nap = self.cfg.client.retry.nap(attempt, &mut self.rng);
        let nap_us = nap.as_micros() as u64;
        self.metrics.backoff_sleeps += 1;
        self.metrics.backoff_slept_us += nap_us;
        self.global.backoff_sleeps.inc();
        self.global.backoff_slept_us.add(nap_us);
        std::thread::sleep(nap);
    }

    /// Fetches the predicted peak for one machine from its owner. Queued
    /// samples — mirrors included — are flushed first, so the answer
    /// reflects every sample observed before it and a failover between
    /// this call and that ingest cannot lose acknowledged state.
    ///
    /// # Errors
    ///
    /// Propagates routing exhaustion; a non-`PRED` response becomes
    /// [`ClientError::Server`].
    pub fn predict(&mut self, cell: &CellId, machine: MachineId) -> Result<f64, ClientError> {
        self.flush()?;
        let hash = key_hash(&(cell.clone(), machine));
        let req = Request::Predict {
            cell: cell.clone(),
            machine,
            vector: false,
        };
        match self.send_routed(hash, &req)? {
            Response::Pred { peak, .. } => Ok(peak),
            other => Err(ClientError::unexpected("PRED", &other)),
        }
    }

    /// Runs an admission check against the machine's owner, after a
    /// [`ClusterClient::flush`].
    ///
    /// # Errors
    ///
    /// Propagates routing exhaustion; a non-`ADMITTED` response becomes
    /// [`ClientError::Server`].
    pub fn admit(
        &mut self,
        cell: &CellId,
        machine: MachineId,
        limit: f64,
    ) -> Result<(bool, f64), ClientError> {
        self.flush()?;
        let hash = key_hash(&(cell.clone(), machine));
        let req = Request::Admit {
            cell: cell.clone(),
            machine,
            limit,
        };
        match self.send_routed(hash, &req)? {
            Response::Admitted { admit, projected } => Ok((admit, projected)),
            other => Err(ClientError::unexpected("ADMITTED", &other)),
        }
    }

    /// Cluster-wide `STATS`: every live member's snapshot, taken after a
    /// [`ClusterClient::flush`], folded through [`StatsSnapshot::merge`].
    ///
    /// # Errors
    ///
    /// Propagates per-member request failures (a member that dies here
    /// is marked dead and skipped).
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        self.flush()?;
        let mut merged = StatsSnapshot::default();
        let mut ring_changed = false;
        for index in 0..self.alive.len() {
            if !self.alive[index] {
                continue;
            }
            let started = Instant::now();
            match self.client(index).and_then(|c| c.stats()) {
                Ok(s) => {
                    // Full-word comparison only: the low 16 bits alias
                    // generations 2^16 apart (see `pack_epoch`), and the
                    // word orders nothing — it is a change *hint* whose
                    // follow-up is an authoritative `RING` probe.
                    let seen = self.last_epoch[index];
                    if s.epoch != 0 && seen != 0 && s.epoch != seen {
                        ring_changed = true;
                    }
                    self.last_epoch[index] = s.epoch;
                    merged.merge(&s);
                }
                Err(ClientError::Io(_)) | Err(ClientError::Exhausted { .. }) => {
                    self.mark_dead(index, started);
                }
                Err(other) => return Err(other),
            }
        }
        if ring_changed {
            self.probe_ring();
        }
        Ok(merged)
    }
}

/// One member's run of consecutive pipelined transport failures.
#[derive(Debug, Clone, Copy, Default)]
struct Strikes {
    count: u32,
    /// When the first of them happened.
    since: Option<Instant>,
}

/// How a member's transport failed under a frame.
#[derive(Clone, Copy)]
enum Broken {
    /// Reset, EOF, deadline, `ERR timeout`/`conn-limit`, or a connect
    /// that failed some other way: one strike on the retry ladder.
    Strike,
    /// The reconnect was refused: the member is dead, no ladder.
    Refused,
}

impl Broken {
    /// Sorts a frame I/O result: `Ok(None)` — the step completed.
    fn of(io: Result<FrameIo, ClientError>) -> Result<Option<Broken>, ClientError> {
        match io {
            Ok(FrameIo::Done) => Ok(None),
            Err(e) if e.is_refused() => Ok(Some(Broken::Refused)),
            Ok(FrameIo::Lost(_)) | Err(ClientError::Io(_)) | Err(ClientError::Exhausted { .. }) => {
                Ok(Some(Broken::Strike))
            }
            Err(other) => Err(other),
        }
    }
}

/// Outcome of draining one member's oldest inflight frame.
enum Drain {
    /// Every reply was read and resolved: acknowledged, errored, or
    /// redirected. (No inflight frame at all also counts.)
    Done,
    /// The member's transport failed; its unacknowledged tail was
    /// displaced.
    Lost,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::tests::{members_on, ring_servers};
    use crate::fleet::{fleet_task, fleet_usage, offline_peak, FLEET_LIMIT};
    use oc_serve::config::ServeConfig;
    use oc_serve::ring::KeyRole;
    use oc_trace::ids::JobId;

    fn fleet_of(n: u32) -> (CellId, Vec<MachineId>) {
        (CellId::new("cc"), (0..n).map(MachineId).collect())
    }

    #[test]
    fn routes_and_mirrors_across_members() {
        let (spec, servers, addrs) = ring_servers(3);
        let mut cc =
            ClusterClient::connect(spec, &addrs, ClusterClientConfig::default()).expect("connect");
        let (cell, machines) = fleet_of(40);
        let task = TaskId::new(JobId(1), 0);
        for &m in &machines {
            for t in 0..5 {
                cc.observe(&cell, m, task, 0.2 + 0.01 * f64::from(m.0), 0.5, t)
                    .expect("observe");
            }
        }
        cc.flush().expect("flush");
        let stats = cc.stats().expect("stats");
        // Owner + replica each ingested every sample.
        assert_eq!(stats.observes, 40 * 5 * 2);
        assert_eq!(stats.machines, 80, "each machine lives on two members");
        assert_eq!(cc.metrics().redirects, 0, "routed sends never redirect");
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn predictions_survive_member_shutdown() {
        let (spec, servers, addrs) = ring_servers(3);
        let mut cc =
            ClusterClient::connect(spec, &addrs, ClusterClientConfig::default()).expect("connect");
        let (cell, machines) = fleet_of(30);
        let task = TaskId::new(JobId(2), 0);
        for t in 0..8 {
            for &m in &machines {
                let usage = 0.05 + 0.4 * f64::from((m.0 * 13 + t * 7) % 89) / 89.0;
                cc.observe(&cell, m, task, usage, 0.5, u64::from(t))
                    .expect("observe");
            }
        }
        let before: Vec<f64> = machines
            .iter()
            .map(|&m| cc.predict(&cell, m).expect("predict"))
            .collect();

        // Stop member 0 abruptly; the client discovers the death on its
        // next send and fails over to the replicas.
        let mut servers = servers;
        servers.remove(0).shutdown();
        for (i, &m) in machines.iter().enumerate() {
            let after = cc.predict(&cell, m).expect("predict after death");
            assert_eq!(
                after.to_bits(),
                before[i].to_bits(),
                "machine {} diverged after failover",
                m.0
            );
        }
        assert!(!cc.alive()[0], "member 0 marked dead");
        assert!(cc.metrics().failovers >= 1);
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn remote_member_redirects_to_owner() {
        let (spec, _servers, addrs) = ring_servers(3);
        let ring = spec.build();
        let (cell, _) = fleet_of(1);
        let task = TaskId::new(JobId(3), 0);
        // Find a machine member 0 holds no role for.
        let m = (0..200)
            .map(MachineId)
            .find(|m| ring.role(0, key_hash(&(cell.clone(), *m))) == KeyRole::Remote)
            .expect("some machine avoids member 0");
        // A direct client pointed at the remote member sees the redirect
        // error the ClusterClient would absorb.
        let mut direct = Client::connect(addrs[0], ClientConfig::default()).expect("connect");
        let resp = direct
            .request(&Request::Observe {
                cell: cell.clone(),
                machine: m,
                task,
                usage: 0.3,
                limit: 0.5,
                mem: None,
                tick: 0,
            })
            .expect("request");
        assert!(
            matches!(
                resp,
                Response::Err {
                    code: ErrCode::NotMine,
                    ..
                }
            ),
            "expected not-mine, got {resp:?}"
        );
        // The routed path lands it on the owner without surfacing an
        // error, and redirect-free.
        let mut cc =
            ClusterClient::connect(spec, &addrs, ClusterClientConfig::default()).expect("connect");
        cc.observe(&cell, m, task, 0.3, 0.5, 1).expect("routed");
        cc.flush().expect("flush");
        assert_eq!(cc.metrics().redirects, 0);
    }

    /// A redirect is progress: a drained frame whose lines all came back
    /// `not-mine` has already re-routed them, so the engine goes on at
    /// once instead of napping. The members place keys by one ring seed
    /// and the client by another; the driven machine's owner on the
    /// client's ring holds no role for it on the members' ring, so each
    /// tick bounces once — and the next tick is already on the wire
    /// behind it at the default one-line frames.
    #[test]
    fn redirect_is_progress_not_a_stall() {
        let client_spec = RingSpec::new(3);
        let member_spec = RingSpec {
            seed: client_spec.seed ^ 0x5EED,
            ..client_spec
        };
        let (servers, addrs) = members_on(member_spec, |cfg| cfg);
        let (ours, theirs) = (client_spec.build(), member_spec.build());
        let (cell, _) = fleet_of(1);
        let all = [true; 3];
        let machine = (0..1_000)
            .map(MachineId)
            .find(|m| {
                let h = key_hash(&(cell.clone(), *m));
                let owner = ours.owner(h, &all).expect("a live owner");
                theirs.role(owner, h) == KeyRole::Remote
            })
            .expect("some machine's client-side owner is remote on the members' ring");
        let cfg = ClusterClientConfig {
            mirror: false,
            ..ClusterClientConfig::default()
        };
        let mut cc = ClusterClient::connect(client_spec, &addrs, cfg).expect("connect");
        let task = TaskId::new(JobId(11), 0);
        for t in 0..20 {
            cc.observe(&cell, machine, task, 0.3, 0.5, t)
                .expect("observe");
        }
        cc.flush().expect("flush");
        assert_eq!(cc.stats().expect("stats").observes, 20);
        let m = cc.metrics();
        assert!(m.redirects >= 1, "nothing was redirected: {m:?}");
        assert_eq!(m.backoff_sleeps, 0, "a redirect round napped: {m:?}");
        for s in servers {
            s.shutdown();
        }
    }

    /// Mirrors still queued on the pipes of members that die count as
    /// drops, and nothing else is lost. Member 2 acknowledges its
    /// machines' samples, which pins each mirror to pipe 0 or 1; both of
    /// those members then stop before the mirrors are written. A send
    /// routed to dead member 0 finds both deaths, fails over to the
    /// survivor — its replica — and is acknowledged there, and the
    /// survivor serves offline bits for every machine it holds.
    #[test]
    fn cascading_deaths_drop_pinned_mirrors() {
        let (spec, mut servers, addrs) = ring_servers(3);
        let ring = spec.build();
        let mut ccfg = ClusterClientConfig::default();
        ccfg.client = ccfg.client.with_batch(64);
        let mut cc = ClusterClient::connect(spec, &addrs, ccfg).expect("connect");
        let cell = CellId::new("fleet");
        let mut owned2 = Vec::new();
        let mut trip = None;
        for m in (0..600).map(MachineId) {
            match ring.holders(key_hash(&(cell.clone(), m))) {
                (Some(2), _) if owned2.len() < 40 => owned2.push(m),
                (Some(0), Some(2)) if trip.is_none() => trip = Some(m),
                _ => {}
            }
        }
        let trip = trip.expect("some machine routes (0, 2)");
        let observe = |cc: &mut ClusterClient, m: MachineId| {
            let usage = fleet_usage(u64::from(m.0), 0);
            cc.observe(&cell, m, fleet_task(), usage, FLEET_LIMIT, 0)
                .expect("observe");
        };
        for &m in &owned2 {
            observe(&mut cc, m);
        }
        // One pass: pipes 0 and 1 are visited before member 2's frame is
        // written and acknowledged, so its acks leave the mirrors queued.
        assert!(!cc.settle_step(true).expect("settle"));
        let pinned = (cc.pipes[0].open_len(), cc.pipes[1].open_len());
        assert!(pinned.0 > 0 && pinned.1 > 0, "{pinned:?}");
        assert_eq!(pinned.0 + pinned.1, owned2.len());
        servers.remove(1).shutdown();
        servers.remove(0).shutdown();
        observe(&mut cc, trip);
        cc.flush()
            .expect("the trip sample fails over to the survivor");
        let m = cc.metrics();
        assert_eq!(m.mirror_drops, (pinned.0 + pinned.1) as u64);
        assert_eq!(m.failovers, 2);
        assert!(!cc.alive()[0] && !cc.alive()[1]);
        let stats = cc.stats().expect("stats");
        assert_eq!(stats.observes, owned2.len() as u64 + 1, "{stats:?}");
        let predictor = ServeConfig::default().predictor.build().expect("predictor");
        for &m in owned2.iter().chain([&trip]) {
            let served = cc.predict(&cell, m).expect("predict");
            let offline = offline_peak(predictor.as_ref(), u64::from(m.0), 1);
            assert_eq!(served.to_bits(), offline.to_bits(), "machine {}", m.0);
        }
        servers.remove(0).shutdown();
    }

    /// An epoch-word change in `STATS` (the change hint) makes the
    /// client probe `RING` and adopt the newer generation on its own —
    /// no operator `adopt` call.
    #[test]
    fn epoch_change_triggers_ring_adoption() {
        let (spec, servers, addrs) = ring_servers(3);
        let mut cc =
            ClusterClient::connect(spec, &addrs, ClusterClientConfig::default()).expect("connect");
        cc.stats().expect("stats records per-member epochs");
        assert_eq!(cc.metrics().adoptions, 0);
        // Supervisor-style push: generation 1 with the full address list;
        // every member re-stamps its epoch word.
        let addr_strings: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
        for &addr in &addrs {
            let mut direct = Client::connect(addr, ClientConfig::default()).expect("connect");
            let resp = direct
                .request(&Request::RingSet {
                    spec: RingSpec {
                        generation: 1,
                        ..spec
                    },
                    addrs: addr_strings.clone(),
                })
                .expect("ringset");
            assert!(matches!(resp, Response::Ok), "RINGSET answered {resp:?}");
        }
        cc.stats().expect("stats sees the epoch change");
        assert_eq!(cc.metrics().adoptions, 1, "one auto-adoption");
        assert!(cc.alive().iter().all(|a| *a));
        // The data plane still routes under the adopted ring.
        let (cell, _) = fleet_of(1);
        let task = TaskId::new(JobId(9), 0);
        cc.observe(&cell, MachineId(0), task, 0.3, 0.5, 1)
            .expect("observe after adoption");
        cc.flush().expect("flush after adoption");
        for s in servers {
            s.shutdown();
        }
    }

    #[test]
    fn membership_mismatch_is_a_config_error() {
        let spec = RingSpec::new(3);
        let addrs: Vec<SocketAddr> = vec!["127.0.0.1:1".parse().expect("addr")];
        let err = ClusterClient::connect(spec, &addrs, ClusterClientConfig::default());
        assert!(matches!(err, Err(ClientError::Config(_))));
    }
}
