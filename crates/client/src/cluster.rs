//! [`ClusterClient`] — one client over an N-process ring.
//!
//! A `ClusterClient` is the send engine (`engine.rs`) with one lane per
//! member plus a routing policy: every data-plane line is routed by the
//! key's [`oc_serve::shard::key_hash`] through a shared [`HashRing`].
//! [`ClusterClient::observe`] queues a sample on the lane of the key's
//! live owner, where same-member runs are framed as `BATCH`es and up to
//! [`ClusterClientConfig::pipeline_frames`] frames ride each member's
//! wire at once; [`ClusterClient::flush`] and every read settle the
//! lanes. With mirroring on, each acknowledged sample is then queued on
//! the lane of the key's replica — the ring successor, exactly the node
//! that takes over if the owner dies — so the replica's state and
//! predictions are bit-identical and a SIGKILLed owner loses nothing an
//! acknowledged sample carried. A read (`predict`, `admit`) is one more
//! routed line; `STATS` and the `RING` probe are lines pinned to one
//! member.
//!
//! Failure handling:
//!
//! * `ERR not-mine` (a member enforcing its [`HashRing::role`]) bumps
//!   `cluster.redirects` and re-routes the line to the replica, then to
//!   any other live member.
//! * A lost transport costs its member a strike: its unacknowledged tail
//!   replays in order (`cluster.pipeline.replayed_tails`) and the member
//!   naps the [`RetryPolicy`] backoff (`cluster.backoff.sleeps`) while
//!   the other members keep being served; a member that sends no reply
//!   is timed out by its reply deadline. `max_attempts` strikes in a row
//!   — or one refused re-dial, at once: nothing listens on the port —
//!   mark it dead, and mirrors pinned to it drop
//!   ([`ClusterMetrics::mirror_drops`]). A wrong verdict degrades
//!   replication, never acknowledged data.
//! * A reply line that does not parse or is out of step is no verdict:
//!   the member's connection closes, its lines stay queued, and the call
//!   returns the error.
//!
//! [`RetryPolicy`]: crate::client::RetryPolicy
//!
//! Members classify keys against the *all-alive* ring, so after a
//! failure mirrors only go to targets that were owner or replica under
//! the full ring; redundancy for a failed-over range comes back by
//! replacing the member under a generation-bumped [`RingSpec`]
//! (`docs/OPERATIONS.md` §5.6). After a member death, a round of
//! `not-mine` from every member, or a change of a member's `STATS` epoch
//! word (a change hint only — compared as a whole word, never used to
//! order rings), the client probes `RING` and adopts a strictly newer
//! full 64-bit generation with a complete address list
//! (`cluster.adoptions`, PROTOCOL.md §7.3–7.4). Probes and adoptions run
//! between engine rounds, and a `STATS` sweep that adopts starts again on
//! the adopted ring.

use crate::client::{ClientConfig, Link};
use crate::engine::{Engine, Policy, Shape};
use crate::error::ClientError;
use crate::pipe::{Entry, EntryKind, SentFrame};
use oc_cluster::{HashRing, RingSpec};
use oc_serve::proto::{ErrCode, Request, Response, StatsSnapshot};
use oc_serve::shard::key_hash;
use oc_telemetry::metrics::HistogramSnapshot;
use oc_telemetry::{trace, Counter, Gauge};
use oc_trace::ids::{CellId, MachineId, TaskId};
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

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
    /// Naps a member took after its transport failed while it still
    /// accepts connections: one rung of its retry ladder, during which
    /// the other members keep being served.
    pub backoff_sleeps: u64,
    /// Microseconds napped across [`ClusterMetrics::backoff_sleeps`].
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
    /// One lane per member, in ring-index order.
    engine: Engine,
    router: Router,
}

/// The routing policy the engine runs for a [`ClusterClient`].
#[derive(Debug)]
struct Router {
    ring: HashRing,
    alive: Vec<bool>,
    /// Each member's epoch word from its last `STATS` answer (`0` =
    /// never seen). Compared as the *full word* — the low 16 bits alone
    /// alias generations 2^16 apart.
    last_epoch: Vec<u64>,
    /// Lines not yet on any lane: fresh ingest is routed through here,
    /// and replayed tails / redirected lines come back through it.
    waiting: VecDeque<Entry>,
    /// Answers to reads and pinned `STATS` lines, with the answering lane.
    answers: Vec<(usize, Response)>,
    /// The answer to the last `RING` probe.
    ring_answer: Option<Response>,
    /// A member died since the last `RING` probe.
    probe_due: bool,
    /// Ack latencies, microseconds: each frame's latency booked to every
    /// line it resolved. Drained by the fleet driver.
    frame_lats: HistogramSnapshot,
    /// Lines resolved `OK` / with a server error (owner sends only;
    /// mirrors are not counted).
    pipelined_ok: u64,
    pipelined_err: u64,
    cfg: ClusterClientConfig,
    metrics: ClusterMetrics,
    global: GlobalCounters,
}

/// One engine lane per member address, each dialled on first use.
fn member_engine(addrs: &[SocketAddr], cfg: &ClusterClientConfig) -> Engine {
    let shape = Shape {
        batch: cfg.client.batch,
        lines: usize::MAX,
        frames: cfg.pipeline_frames,
    };
    let mut engine = Engine::new(shape, &cfg.client);
    for (index, &addr) in addrs.iter().enumerate() {
        let seed = cfg.client.seed.wrapping_add(index as u64 + 1);
        engine.add(Link::new(addr, cfg.client.clone().with_seed(seed), true));
    }
    engine
}

fn check_membership(spec: &RingSpec, addrs: &[SocketAddr]) -> Result<(), ClientError> {
    if addrs.len() != spec.nodes {
        return Err(ClientError::Config(format!(
            "{} addresses for a {}-node ring",
            addrs.len(),
            spec.nodes
        )));
    }
    Ok(())
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
        check_membership(&spec, addrs)?;
        cfg.client.validate()?;
        if cfg.pipeline_frames == 0 {
            return Err(ClientError::Config(
                "pipeline_frames must be at least 1".to_string(),
            ));
        }
        Ok(ClusterClient {
            engine: member_engine(addrs, &cfg),
            router: Router {
                ring: spec.build(),
                alive: vec![true; spec.nodes],
                last_epoch: vec![0; spec.nodes],
                waiting: VecDeque::new(),
                answers: Vec::new(),
                ring_answer: None,
                probe_due: false,
                frame_lats: HistogramSnapshot::default(),
                pipelined_ok: 0,
                pipelined_err: 0,
                cfg,
                metrics: ClusterMetrics::default(),
                global: GlobalCounters::new(),
            },
        })
    }

    /// The liveness mask this client has inferred, by ring index.
    pub fn alive(&self) -> &[bool] {
        &self.router.alive
    }

    /// What this client did so far.
    pub fn metrics(&self) -> ClusterMetrics {
        self.router.metrics
    }

    /// Switches to a new membership (e.g. after a retired member was
    /// replaced under a bumped generation). Frames on the lanes are
    /// settled under the *old* ring first (lines not yet routed onto a
    /// lane survive the swap and re-route under the new ring); all
    /// members start presumed alive.
    ///
    /// # Errors
    ///
    /// Propagates [`ClusterClient::connect`]-style validation.
    pub fn adopt(&mut self, spec: RingSpec, addrs: &[SocketAddr]) -> Result<(), ClientError> {
        self.settle()?;
        check_membership(&spec, addrs)?;
        let r = &mut self.router;
        r.ring = spec.build();
        r.alive = vec![true; spec.nodes];
        r.last_epoch = vec![0; spec.nodes];
        r.probe_due = false;
        // Unsent lines re-route from scratch: their redirect counts
        // referred to the old ring's candidate order.
        for e in &mut r.waiting {
            if let EntryKind::Send { tried } = &mut e.kind {
                *tried = 0;
            }
        }
        self.engine = member_engine(addrs, &r.cfg);
        Ok(())
    }

    /// Rounds until every lane is empty, *without* routing the waiting
    /// queue or probing, so it is safe inside [`ClusterClient::adopt`]
    /// and a probe: lines no lane holds stay waiting and re-route under
    /// the ring that emerges.
    fn settle(&mut self) -> Result<(), ClientError> {
        while !self.engine.step(&mut self.router, true)? {}
        Ok(())
    }

    /// The drive behind every call: routes waiting lines onto member
    /// lanes and runs engine rounds until every lane fits its target
    /// (`flush`: until everything is acknowledged), probing the ring
    /// between rounds after a member death.
    ///
    /// It ends because every round moves lines toward a final state:
    ///
    /// * an `OK` or a server error resolves its line, and a refused
    ///   mirror drops;
    /// * a transport failure costs its member one strike, and
    ///   `max_attempts` strikes — or one refused reconnect — mark it
    ///   dead, after which the member takes no lines;
    /// * a `not-mine` moves its line to the next candidate, and a full
    ///   redirect round ends in a `RING` probe that adopts a strictly
    ///   newer generation or in [`ClientError::Exhausted`].
    fn pump(&mut self, flush: bool) -> Result<(), ClientError> {
        loop {
            if self.router.probe_due {
                self.probe_ring()?;
            }
            self.route_waiting()?;
            if self.engine.step(&mut self.router, flush)?
                && self.router.waiting.is_empty()
                && !self.router.probe_due
            {
                return Ok(());
            }
        }
    }

    /// Asks a live member for the current `RING` description and adopts
    /// it when its full 64-bit generation is strictly newer than the
    /// local ring's **and** the address list is complete. Returns
    /// whether a new membership was adopted. The probe is a `RING` line
    /// pinned to the member; one that fails it is skipped — its lane's
    /// verdict stands.
    fn probe_ring(&mut self) -> Result<bool, ClientError> {
        self.router.probe_due = false;
        for index in 0..self.router.alive.len() {
            if !self.router.alive[index] {
                continue;
            }
            self.router.ring_answer = None;
            self.engine.push(index, Entry::pinned(Request::Ring));
            self.settle()?;
            let Some(Response::Ring { spec, addrs, .. }) = self.router.ring_answer.take() else {
                // Dead by now, or a standalone server's ERR.
                continue;
            };
            if spec.generation <= self.router.ring.spec().generation {
                // The cluster is on our ring (or this member lags);
                // adopting would only repeat the current state.
                return Ok(false);
            }
            if addrs.len() != spec.nodes {
                // A newer ring whose membership is not fully known yet;
                // maybe another member has the complete description.
                continue;
            }
            let parsed: Option<Vec<SocketAddr>> = addrs.iter().map(|a| a.parse().ok()).collect();
            let Some(parsed) = parsed else { continue };
            if self.adopt(spec, &parsed).is_err() {
                return Ok(false);
            }
            self.router.metrics.adoptions += 1;
            self.router.global.adoptions.inc();
            return Ok(true);
        }
        Ok(false)
    }

    /// Routes every waiting line onto its member lane: the key's live
    /// owner, or the `tried`-th candidate for a line bounced by
    /// redirects. A full redirect round probes the ring (an adoption
    /// resets the count); a second full round exhausts. An exhausted
    /// sample stays waiting for a later call; an exhausted read is
    /// answered by the error.
    fn route_waiting(&mut self) -> Result<(), ClientError> {
        while let Some(e) = self.router.waiting.pop_front() {
            let EntryKind::Send { tried } = e.kind else {
                // Mirrors never route by key; one here means its
                // pinned member died mid-displacement. The owner
                // holds the data — degrade, don't re-route.
                self.router.metrics.mirror_drops += 1;
                continue;
            };
            // The first hop — all but redirected lines — is the live
            // owner; no candidate list is built for it.
            let r = &self.router;
            let target = match tried {
                0 => r.ring.owner(e.hash, &r.alive),
                _ => r.candidates(e.hash).get(tried as usize).copied(),
            };
            if let Some(target) = target {
                self.engine.push(target, e);
                continue;
            }
            let anyone = self.router.alive.contains(&true);
            let requeue = Entry {
                kind: EntryKind::Send { tried: 0 },
                ..e
            };
            if anyone && self.probe_ring()? {
                // Adopted: the line re-routes from scratch under the
                // new ring.
                self.router.waiting.push_front(requeue);
                continue;
            }
            if matches!(requeue.req, Request::Observe { .. }) {
                self.router.waiting.push_front(requeue);
            }
            let last = if anyone {
                "every live member answered not-mine; re-resolve the ring"
            } else {
                "no live ring member"
            };
            return Err(ClientError::Exhausted {
                attempts: 0,
                last: last.to_string(),
            });
        }
        Ok(())
    }

    /// Queues a usage sample and returns. The sample is routed to the
    /// key's live owner, framed together with its same-member neighbours
    /// (`BATCH`), and acknowledged asynchronously — up to
    /// [`ClusterClientConfig::pipeline_frames`] frames ride the wire per
    /// member, so member round trips overlap instead of serializing.
    /// With mirroring on, the sample is queued onto the replica's lane
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
        self.router.waiting.push_back(Entry {
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
        std::mem::take(&mut self.router.frame_lats)
    }

    /// Drains the `(ok, err)` line tallies. Owner sends only — mirror
    /// acks are not counted.
    pub(crate) fn take_pipeline_tallies(&mut self) -> (u64, u64) {
        let r = &mut self.router;
        let t = (r.pipelined_ok, r.pipelined_err);
        r.pipelined_ok = 0;
        r.pipelined_err = 0;
        t
    }

    /// Sends one read to the key's owner as a routed line, after a
    /// [`ClusterClient::flush`], so the answer reflects every sample
    /// observed before it and a failover between this call and that
    /// ingest cannot lose acknowledged state. It falls over on
    /// `not-mine` redirects and member deaths like a sample.
    fn read(
        &mut self,
        cell: &CellId,
        machine: MachineId,
        req: Request,
    ) -> Result<Response, ClientError> {
        self.flush()?;
        self.router.answers.clear();
        self.router.waiting.push_back(Entry {
            hash: key_hash(&(cell.clone(), machine)),
            req,
            kind: EntryKind::Send { tried: 0 },
        });
        self.pump(true)?;
        let (_, answer) = self
            .router
            .answers
            .pop()
            .expect("a settled read has its answer");
        Ok(answer)
    }

    /// Fetches the predicted peak for one machine from its owner. Queued
    /// samples — mirrors included — are flushed first.
    ///
    /// # Errors
    ///
    /// Propagates routing exhaustion; a non-`PRED` response becomes
    /// [`ClientError::Server`].
    pub fn predict(&mut self, cell: &CellId, machine: MachineId) -> Result<f64, ClientError> {
        let req = Request::Predict {
            cell: cell.clone(),
            machine,
            vector: false,
        };
        match self.read(cell, machine, req)? {
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
        let req = Request::Admit {
            cell: cell.clone(),
            machine,
            limit,
        };
        match self.read(cell, machine, req)? {
            Response::Admitted { admit, projected } => Ok((admit, projected)),
            other => Err(ClientError::unexpected("ADMITTED", &other)),
        }
    }

    /// Cluster-wide `STATS`: every live member's snapshot, taken after a
    /// [`ClusterClient::flush`], folded through [`StatsSnapshot::merge`].
    /// A member whose epoch word changed makes the client probe the
    /// ring, and a sweep that ends in an adoption starts again on the
    /// adopted ring.
    ///
    /// # Errors
    ///
    /// Propagates routing and protocol failures (a member that dies here
    /// is marked dead and skipped).
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        self.flush()?;
        loop {
            let adoptions = self.router.metrics.adoptions;
            self.router.answers.clear();
            for index in 0..self.router.alive.len() {
                if self.router.alive[index] {
                    self.engine.push(index, Entry::pinned(Request::Stats));
                }
            }
            self.pump(true)?;
            if self.router.metrics.adoptions != adoptions {
                continue;
            }
            let mut merged = StatsSnapshot::default();
            let mut ring_changed = false;
            for (index, resp) in std::mem::take(&mut self.router.answers) {
                let s = match resp {
                    Response::Stats(s) => s,
                    other => return Err(ClientError::unexpected("STATS", &other)),
                };
                // Full-word comparison only: the low 16 bits alias
                // generations 2^16 apart (see `pack_epoch`), and the
                // word orders nothing — it is a change *hint* whose
                // follow-up is an authoritative `RING` probe.
                let seen = self.router.last_epoch[index];
                if s.epoch != 0 && seen != 0 && s.epoch != seen {
                    ring_changed = true;
                }
                self.router.last_epoch[index] = s.epoch;
                merged.merge(&s);
            }
            if ring_changed && self.probe_ring()? {
                continue;
            }
            return Ok(merged);
        }
    }
}

impl Router {
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

    /// Sends of `tail` go back to the waiting queue to be routed again;
    /// mirrors go to `keep`. Counts a replayed tail if there was one.
    fn displace(&mut self, tail: Vec<Entry>, frames: usize, mut keep: impl FnMut(Entry)) {
        if frames > 0 {
            self.global.pipeline_inflight.add(-(frames as i64));
        }
        if tail.is_empty() {
            return;
        }
        self.metrics.replayed_tails += 1;
        self.global.pipeline_replayed.inc();
        for e in tail {
            match e.kind {
                EntryKind::Send { .. } => self.waiting.push_back(e),
                _ => keep(e),
            }
        }
    }
}

impl Policy for Router {
    fn request<'a>(&'a self, req: &'a Request) -> &'a Request {
        req
    }

    fn wrote(&mut self, _lane: usize, lines: usize) {
        self.metrics.frames += 1;
        self.global.pipeline_frames.inc();
        self.global.pipeline_inflight.inc();
        if lines > 1 {
            self.metrics.coalesced_runs += 1;
            self.global.pipeline_coalesced.inc();
        }
    }

    /// `OK`/server errors acknowledge a line (queueing a sample's mirror
    /// onto the replica's lane), a read's or probe's answer is kept for
    /// its caller, and `not-mine` re-routes a send — with its machine's
    /// still-open successors — through the waiting queue.
    fn resolved(
        &mut self,
        eng: &mut Engine,
        lane: usize,
        frame: &mut SentFrame,
        replies: &[Response],
    ) {
        self.global.pipeline_inflight.dec();
        let lat_us = frame.sent_at.elapsed().as_secs_f64() * 1e6;
        let mut resolved = 0u64;
        let mut redirected: HashMap<u64, u32> = HashMap::new();
        for (entry, resp) in frame.entries.drain(..).zip(replies) {
            let not_mine = matches!(
                resp,
                Response::Err {
                    code: ErrCode::NotMine,
                    ..
                }
            );
            match entry.kind {
                EntryKind::Pinned if entry.req == Request::Ring => {
                    self.ring_answer = Some(resp.clone());
                }
                EntryKind::Pinned => self.answers.push((lane, resp.clone())),
                // The replica's all-alive view disagrees; the owner
                // holds the data — degrade, don't re-route.
                EntryKind::Mirror if not_mine => self.metrics.mirror_drops += 1,
                EntryKind::Mirror => resolved += 1,
                EntryKind::Send { tried } if not_mine => {
                    self.metrics.redirects += 1;
                    self.global.redirects.inc();
                    redirected.insert(entry.hash, tried + 1);
                    self.waiting.push_back(Entry {
                        kind: EntryKind::Send { tried: tried + 1 },
                        ..entry
                    });
                }
                EntryKind::Send { .. } if !matches!(entry.req, Request::Observe { .. }) => {
                    self.answers.push((lane, resp.clone()));
                }
                EntryKind::Send { .. } => {
                    resolved += 1;
                    if matches!(resp, Response::Err { .. }) {
                        self.pipelined_err += 1;
                        continue;
                    }
                    self.pipelined_ok += 1;
                    if self.cfg.mirror {
                        if let Some(target) = self.ring.mirror_target(entry.hash, &self.alive) {
                            let mirror = Entry {
                                kind: EntryKind::Mirror,
                                ..entry
                            };
                            eng.push(target, mirror);
                        }
                    }
                }
            }
        }
        if !redirected.is_empty() {
            let hashes: HashSet<u64> = redirected.keys().copied().collect();
            let moved = eng.lanes[lane].pipe.extract_open_matching(&hashes);
            for e in moved {
                match e.kind {
                    EntryKind::Send { tried } => {
                        let tried = redirected.get(&e.hash).copied().unwrap_or(tried);
                        self.waiting.push_back(Entry {
                            kind: EntryKind::Send { tried },
                            ..e
                        });
                    }
                    // A machine's mirrors live on a different lane than
                    // its sends (owner ≠ mirror target) — unreachable,
                    // but re-pinning is the safe fallback.
                    _ => eng.push(lane, e),
                }
            }
        }
        self.frame_lats.record_n(lat_us, resolved);
    }

    /// The member gets another chance on a fresh connection after its
    /// nap; replays of already-applied lines are stale no-ops. Its sends
    /// replay through the waiting queue, its mirrors and probes stay.
    fn lost(
        &mut self,
        eng: &mut Engine,
        lane: usize,
        tail: Vec<Entry>,
        frames: usize,
        nap: Duration,
    ) {
        let nap_us = nap.as_micros() as u64;
        self.metrics.backoff_sleeps += 1;
        self.metrics.backoff_slept_us += nap_us;
        self.global.backoff_sleeps.inc();
        self.global.backoff_slept_us.add(nap_us);
        let mut kept = Vec::new();
        self.displace(tail, frames, |e| kept.push(e));
        eng.lanes[lane].pipe.reopen(kept);
    }

    /// A transport failure the ladder does not absorb marks the member
    /// dead: its sends replay to the keys' new owners, mirrors pinned to
    /// it drop, and the ring is probed before the next round (the
    /// supervisor may already have replaced it under a bumped
    /// generation). Any other error — a reply line out of step, say — is
    /// no verdict on the member: its connection closes, its lines go
    /// back as after a loss, and the error ends the call.
    fn failed(
        &mut self,
        eng: &mut Engine,
        lane: usize,
        tail: Vec<Entry>,
        frames: usize,
        err: ClientError,
    ) -> Result<(), ClientError> {
        if !matches!(err, ClientError::Io(_) | ClientError::Exhausted { .. }) {
            let mut kept = Vec::new();
            self.displace(tail, frames, |e| kept.push(e));
            eng.lanes[lane].pipe.reopen(kept);
            eng.lanes[lane].link.close();
            return Err(err);
        }
        trace::event(
            "cluster.failover",
            lane as u64,
            eng.failing_since(lane).elapsed().as_micros() as u64,
        );
        let mut dropped = 0u64;
        self.displace(tail, frames, |e| {
            if e.kind == EntryKind::Mirror {
                dropped += 1;
            }
        });
        self.metrics.mirror_drops += dropped;
        self.alive[lane] = false;
        eng.retire(lane);
        self.metrics.failovers += 1;
        self.probe_due = true;
        Ok(())
    }

    /// Every live lane is empty (`flush`), or has less than a frame open.
    fn done(&self, eng: &Engine, flush: bool) -> bool {
        let batch = self.cfg.client.batch;
        eng.lanes.iter().zip(&self.alive).all(|(lane, &alive)| {
            !alive || lane.pipe.is_empty() || (!flush && lane.pipe.open_len() < batch)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, RetryPolicy};
    use crate::fleet::tests::{members_on, ring_servers};
    use crate::fleet::{fleet_task, fleet_usage, offline_peak, FLEET_LIMIT};
    use oc_serve::config::ServeConfig;
    use oc_serve::ring::KeyRole;
    use oc_serve::server::Server;
    use oc_trace::ids::JobId;
    use std::io::{BufRead, Read, Write};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;

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
        // One round: member 2's frame is written and acknowledged, and
        // its acks leave the mirrors queued on lanes 0 and 1, unwritten.
        assert!(!cc.engine.step(&mut cc.router, true).expect("round"));
        let lanes = &cc.engine.lanes;
        let pinned = (lanes[0].pipe.open_len(), lanes[1].pipe.open_len());
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

    /// A smaller ring adopted mid-call. With member 0 gone and member 1
    /// serving a 2-node generation-1 ring, the death a `STATS` sweep or
    /// a drive finds makes the client adopt that ring, and the call goes
    /// on over the adopted membership instead of indexing the old one.
    #[test]
    fn adopting_a_smaller_ring_mid_drive_restarts_on_it() {
        for sweep in [true, false] {
            let (spec, mut servers, addrs) = ring_servers(3);
            let mut cc = ClusterClient::connect(spec, &addrs, ClusterClientConfig::default())
                .expect("connect");
            servers.remove(0).shutdown();
            let push = Request::RingSet {
                spec: RingSpec {
                    nodes: 2,
                    generation: 1,
                    ..spec
                },
                addrs: vec![addrs[1].to_string(), addrs[2].to_string()],
            };
            let resp = Client::connect(addrs[1], ClientConfig::default())
                .and_then(|mut c| c.request(&push))
                .expect("ringset");
            assert!(matches!(resp, Response::Ok), "RINGSET answered {resp:?}");
            if sweep {
                cc.stats().expect("stats over the adopted ring");
            } else {
                let (cell, _) = fleet_of(1);
                let ring = spec.build();
                let m = (0..200)
                    .map(MachineId)
                    .find(|m| ring.owner(key_hash(&(cell.clone(), *m)), &[true; 3]) == Some(0))
                    .expect("some machine member 0 owns");
                cc.observe(&cell, m, TaskId::new(JobId(4), 0), 0.3, 0.5, 0)
                    .expect("observe");
                cc.flush().expect("flush over the adopted ring");
            }
            assert_eq!(cc.metrics().adoptions, 1, "sweep: {sweep}");
            for s in servers {
                s.shutdown();
            }
        }
    }

    /// A member that is stopped but not killed — it accepts and reads
    /// but never answers, as a SIGSTOPped process looks to a client —
    /// does not stall the live members: their lines are applied while
    /// its frame waits out the reply deadline, and its own lines end on
    /// their replicas once its strikes mark it dead.
    #[test]
    fn a_stopped_member_does_not_stall_the_live_ones() {
        stalled_member_leaves_the_live_ones_alone(false);
    }

    /// The same for a member that stops partway through a frame: it
    /// answers the `BATCHR` header and one `OK`, then nothing, so its
    /// lane turns readable with a frame that never completes.
    #[test]
    fn a_member_stalled_mid_frame_does_not_stall_the_live_ones() {
        stalled_member_leaves_the_live_ones_alone(true);
    }

    /// Member 0 is a stub that reads everything it is sent and, with
    /// `half`, answers each connection's first frame with its header and
    /// one `OK`. Its machines get one frame and a few open lines; the live
    /// members' machines get several frames each, more than their lanes
    /// may have on the wire, so the live lanes need reads while the
    /// stub's frame waits.
    fn stalled_member_leaves_the_live_ones_alone(half: bool) {
        fn applied(addrs: &[SocketAddr]) -> u64 {
            let stats = |a: SocketAddr| Client::connect(a, ClientConfig::default())?.stats();
            addrs
                .iter()
                .map(|&a| stats(a).expect("member STATS").observes)
                .sum()
        }
        let spec = RingSpec::new(3);
        let stub = TcpListener::bind("127.0.0.1:0").expect("bind");
        let (live, addrs) = behind_stub(spec, &stub);
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = {
            let stop = Arc::clone(&stop);
            // A thread per connection, each joined when the client has
            // closed its end.
            std::thread::spawn(move || {
                std::thread::scope(|conns| {
                    for conn in stub.incoming() {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        let mut conn = std::io::BufReader::new(conn.expect("accept"));
                        conns.spawn(move || {
                            let mut head = String::new();
                            if half && conn.read_line(&mut head).is_ok() {
                                if let Some(k) = head.trim_end().strip_prefix("BATCH ") {
                                    let reply = format!("BATCHR {k}\nOK\n");
                                    let _ = conn.get_mut().write_all(reply.as_bytes());
                                }
                            }
                            let _ = std::io::copy(&mut conn, &mut std::io::sink());
                        });
                    }
                })
            })
        };
        let client = ClientConfig {
            response_timeout: Duration::from_secs(1),
            ..ClientConfig::default()
        };
        let cfg = ClusterClientConfig {
            client: client.with_batch(16).with_retry(RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            }),
            mirror: false,
            pipeline_frames: 2,
        };
        let mut cc = ClusterClient::connect(spec, &addrs, cfg).expect("connect");
        let ring = spec.build();
        let (cell, machines) = fleet_of(400);
        let (stalled, lively): (Vec<MachineId>, Vec<MachineId>) = machines
            .iter()
            .partition(|&&m| ring.owner(key_hash(&(cell.clone(), m)), &[true; 3]) == Some(0));
        let (stalled, lively) = (&stalled[..20], &lively[..48]);
        let to_live = 48 * 8;
        let task = TaskId::new(JobId(5), 0);
        let live_addrs = addrs[1..].to_vec();
        let started = Instant::now();
        let watcher = std::thread::spawn(move || {
            while applied(&live_addrs) < to_live && started.elapsed() < Duration::from_secs(5) {
                std::thread::sleep(Duration::from_millis(5));
            }
            started.elapsed()
        });
        for &m in stalled {
            cc.observe(&cell, m, task, 0.3, 0.5, 0).expect("observe");
        }
        for t in 0..8 {
            for &m in lively {
                cc.observe(&cell, m, task, 0.3, 0.5, t).expect("observe");
            }
        }
        cc.flush().expect("flush");
        let took = watcher.join().expect("watcher");
        assert!(
            took < Duration::from_millis(300),
            "the live members waited {took:?}"
        );
        assert!(!cc.alive()[0], "the stopped member's strikes mark it dead");
        assert_eq!(
            applied(&addrs[1..]),
            to_live + 20,
            "its lines end on their replicas"
        );
        // One more connection wakes the stub's accept loop to stop.
        stop.store(true, Ordering::Relaxed);
        let _ = Client::connect(addrs[0], ClientConfig::default());
        stopped.join().expect("stub");
        for s in live {
            s.shutdown();
        }
    }

    /// In-process members at ring slots 1 and 2 of `spec`, with `stub`
    /// at slot 0: the members and the ring's addresses.
    fn behind_stub(spec: RingSpec, stub: &TcpListener) -> (Vec<Server>, Vec<SocketAddr>) {
        let live: Vec<Server> = (1..3)
            .map(|i| {
                let cfg = ServeConfig::default().with_addr("127.0.0.1:0");
                Server::start(cfg.with_shards(1).with_ring(spec, i)).expect("member starts")
            })
            .collect();
        let mut addrs = vec![stub.local_addr().expect("stub addr")];
        addrs.extend(live.iter().map(|s| s.addr()));
        (live, addrs)
    }

    /// A reply line that is not a response fails the call but is no
    /// verdict on the member: it stays alive and nothing fails over.
    #[test]
    fn a_bad_reply_line_is_no_death_verdict() {
        let spec = RingSpec::new(3);
        let stub = TcpListener::bind("127.0.0.1:0").expect("bind");
        let (live, addrs) = behind_stub(spec, &stub);
        let garbler = std::thread::spawn(move || {
            let (mut conn, _) = stub.accept().expect("accept");
            let _ = conn.read(&mut [0u8; 512]);
            conn.write_all(b"garbage\n").expect("reply");
        });
        let cfg = ClusterClientConfig {
            mirror: false,
            ..ClusterClientConfig::default()
        };
        let mut cc = ClusterClient::connect(spec, &addrs, cfg).expect("connect");
        let (ring, (cell, _)) = (spec.build(), fleet_of(1));
        let m = (0..200)
            .map(MachineId)
            .find(|m| ring.owner(key_hash(&(cell.clone(), *m)), &[true; 3]) == Some(0))
            .expect("some machine the stub owns");
        cc.observe(&cell, m, TaskId::new(JobId(6), 0), 0.3, 0.5, 0)
            .expect("observe");
        let err = cc.flush().unwrap_err();
        assert!(matches!(err, ClientError::Proto(_)), "{err:?}");
        assert!(cc.alive()[0], "a bad line marked the member dead");
        assert_eq!(cc.metrics().failovers, 0);
        garbler.join().expect("stub");
        for s in live {
            s.shutdown();
        }
    }
}
