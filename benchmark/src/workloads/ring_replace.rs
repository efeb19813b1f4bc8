//! `ring-replace`: the cluster path. Three single-shard member processes
//! with the handoff log on, one mirroring `ClusterClient`, and a fixed
//! script: rounds of routed ingest, SIGKILL of member 0 between two
//! rounds, one round on the two survivors, `Cluster::replace(0)` with
//! ingest quiesced, more rounds from the same client, which still holds
//! generation 0 and must adopt the pushed ring by itself. The whole
//! script is one measured "round", so its throughput has the recovery
//! time inside it.

use crate::gates;
use crate::harness::{Latency, Round, Scale, Session, SessionEnd};
use crate::procfs;
use crate::spans::Tracer;
use oc_client::fleet::{self, FleetConfig};
use oc_client::{ClusterClient, ClusterClientConfig, LoadReport};
use oc_cluster::{Cluster, ClusterConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// Member processes; each runs one shard.
const MEMBERS: usize = 3;
/// Lines per `BATCH` frame on the pipelined routed path.
const BATCH: usize = 64;
/// Frames in flight per member.
const PIPELINE_FRAMES: usize = 8;
/// Fleet cell name.
const CELL: &str = "bench";

/// Sizes of one script.
struct Size {
    machines: u64,
    /// Ticks every machine advances per round.
    ticks: u64,
    /// Unmeasured rounds that create the machine views.
    warm: u64,
    /// Rounds before the kill.
    before: u64,
    /// Rounds after the replace.
    after: u64,
}

fn size(scale: Scale) -> Size {
    match scale {
        Scale::Full => Size {
            machines: 1_000,
            ticks: 10,
            warm: 1,
            before: 3,
            after: 3,
        },
        Scale::Smoke => Size {
            machines: 300,
            ticks: 20,
            warm: 1,
            before: 2,
            after: 2,
        },
    }
}

/// One session of the workload.
pub struct RingReplace {
    cluster: Cluster,
    cc: ClusterClient,
    size: Size,
    next_tick: u64,
    done: bool,
    /// Largest sum of member peak resident sets seen, kilobytes.
    members_hwm_kb: u64,
}

impl RingReplace {
    /// One routed pass: every machine advances `size.ticks` ticks.
    fn routed(&mut self, tr: &mut Tracer) -> Result<LoadReport, String> {
        let cfg = FleetConfig {
            cell: CELL.to_string(),
            machines: self.size.machines,
            first_tick: self.next_tick,
            ticks: self.size.ticks,
            fetch_stats: false,
            ..FleetConfig::default()
        };
        self.next_tick += self.size.ticks;
        let cc = &mut self.cc;
        tr.span("bench.cluster.round", |_| fleet::run_routed(cc, &cfg))
            .map_err(|e| format!("routed round: {e}"))
    }

    /// Peak resident sets of the members alive now, summed. Read before
    /// every kill or shutdown; the killed member and its replacement do
    /// not coexist, so the largest reading is the cluster's footprint.
    fn note_members_hwm(&mut self) {
        self.members_hwm_kb = self.members_hwm_kb.max(procfs::children_hwm_kb());
    }
}

impl Session for RingReplace {
    const LATENCY_LIMIT_US: f64 = 100_000.0;
    /// One script of about half a second per session: short enough that a
    /// good share of the scripts run without the host stealing vCPU time.
    const SESSION_S: f64 = 0.75;

    fn set_up(seed: u64, scale: Scale, tr: &mut Tracer) -> Result<Self, String> {
        let cluster = tr.span("bench.setup.start", |_| {
            Cluster::start(&ClusterConfig {
                nodes: MEMBERS,
                shards: 1,
                handoff_log: true,
                ..ClusterConfig::default()
            })
            .map_err(|e| format!("cluster start: {e}"))
        })?;
        let mut ccfg = ClusterClientConfig::default();
        ccfg.client = ccfg.client.with_seed(seed).with_batch(BATCH);
        ccfg.pipeline_frames = PIPELINE_FRAMES;
        ccfg.mirror = true;
        let cc = ClusterClient::connect(cluster.spec(), &cluster.addrs(), ccfg)
            .map_err(|e| format!("cluster connect: {e}"))?;
        let mut s = RingReplace {
            cluster,
            cc,
            size: size(scale),
            next_tick: 0,
            done: false,
            members_hwm_kb: 0,
        };
        for _ in 0..s.size.warm {
            tr.span("bench.setup.warm", |tr| s.routed(tr))?;
        }
        // The client's periodic STATS poll: records every member's epoch
        // word, the change hint it later notices the new ring by.
        s.cc.stats().map_err(|e| format!("stats: {e}"))?;
        Ok(s)
    }

    fn round(&mut self, lat: &mut Latency, tr: &mut Tracer) -> Result<Round, String> {
        let mut reports = Vec::new();
        let start = Instant::now();
        for _ in 0..self.size.before {
            reports.push(self.routed(tr)?);
        }
        self.note_members_hwm();
        tr.span("bench.cluster.kill", |_| self.cluster.kill(0))
            .map_err(|e| format!("kill: {e}"))?;
        // On two members: the first sends find the death and fail over.
        reports.push(self.routed(tr)?);
        tr.span("bench.cluster.replace", |_| self.cluster.replace(0))
            .map_err(|e| format!("replace: {e}"))?;
        // The next poll sees the survivors' epoch words change, probes
        // RING and adopts generation 1 without an operator call.
        self.cc.stats().map_err(|e| format!("stats: {e}"))?;
        for _ in 0..self.size.after {
            reports.push(self.routed(tr)?);
        }
        let wall_s = start.elapsed().as_secs_f64();
        self.done = true;

        let mut round = Round {
            attempted: 0,
            ok: 0,
            wall_s,
        };
        for r in &reports {
            round.attempted += r.sent;
            round.ok += r.ok;
            lat.merge_report(&r.latency);
        }
        Ok(round)
    }

    fn script_done(&self) -> bool {
        self.done
    }

    fn scrape(&mut self) -> Result<BTreeMap<String, f64>, String> {
        let exposition = self
            .cluster
            .merged_metrics()
            .map_err(|e| format!("merged METRICS: {e}"))?;
        let mut out = oc_telemetry::metrics::parse_exposition(&exposition)
            .ok_or("merged METRICS: bad exposition")?;
        let stats = self
            .cluster
            .merged_stats()
            .map_err(|e| format!("merged STATS: {e}"))?;
        out.insert("stats.busy".to_string(), stats.busy as f64);
        out.insert("gauge.stats.mean_us".to_string(), stats.mean_us);
        let m = self.cc.metrics();
        for (name, v) in [
            ("cluster.redirects", m.redirects),
            ("cluster.adoptions", m.adoptions),
            ("cluster.failovers", m.failovers),
            ("cluster.mirror_drops", m.mirror_drops),
            ("cluster.pipeline.frames", m.frames),
            ("cluster.pipeline.replayed_tails", m.replayed_tails),
        ] {
            out.insert(name.to_string(), v as f64);
        }
        let global = oc_telemetry::global_metrics().snapshot();
        for name in ["client.retries", "client.reconnects"] {
            out.insert(name.to_string(), global.counter(name).unwrap_or(0) as f64);
        }
        Ok(out)
    }

    fn finish(mut self, tr: &mut Tracer) -> Result<SessionEnd, String> {
        self.note_members_hwm();
        let mismatches = tr
            .span("bench.cluster.verify", |_| {
                fleet::verify(
                    self.cluster.spec(),
                    &self.cluster.addrs(),
                    &self.cluster.alive(),
                    CELL,
                    self.size.machines,
                    self.next_tick,
                )
            })
            .map_err(|e| format!("verify: {e}"))?;
        let held = self
            .cluster
            .merged_stats()
            .map_err(|e| format!("merged STATS: {e}"))?
            .machines;
        let mut end = SessionEnd {
            members_hwm_kb: self.members_hwm_kb,
            ..SessionEnd::default()
        };
        end.gate_failures.extend(
            gates::ring(
                mismatches,
                self.cc.metrics().adoptions,
                held,
                self.size.machines,
            )
            .err(),
        );
        // Members are killed and reaped by the supervisor's Drop.
        drop(self.cc);
        drop(self.cluster);
        Ok(end)
    }
}
