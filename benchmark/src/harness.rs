//! The run shape shared by all four workloads.
//!
//! A run is a few *sessions*. A session is one cold set-up (generate
//! inputs, start the server or the members, connect, load state, a fixed
//! count of warm-up ops), then measured rounds of a fixed op count, then
//! the correctness gates, then tear-down. Repeating the set-up gives
//! `setup_s` several samples per run, and a fresh server per session
//! keeps one lucky or unlucky memory layout from colouring a whole run.
//! The first sessions of a run are a warm-up whose numbers are dropped.
//!
//! Rounds are short (a fraction of a second) and each is read against the
//! host's steal counter: a round during which the hypervisor took vCPU
//! time away is *disturbed* and is left out of every timed metric, as long
//! as enough undisturbed rounds remain. Timed metrics are medians (or
//! totals) over the undisturbed rounds of all sessions, and every interval
//! is timed on the steal-free clock (see [`steal_free`]).
//!
//! Everything is generated and driven by the one thread that calls
//! [`run`]; the load is a closed loop (the next window is sent when the
//! previous one has been answered) or a batch job.

use crate::procfs::{self, ThreadGroup};
use crate::spans::Tracer;
use crate::util::{median, LogHist};
use oc_telemetry::metrics::HistogramSnapshot;
use std::collections::BTreeMap;
use std::time::Instant;

/// Warm-up sessions run until the process has been under load this long:
/// on this host the first ~3 s of load after an idle gap run several
/// times faster than the steady state (see README, host noise).
const WARM_S: f64 = 4.0;
/// Rounds of a traced session (one traced and one untraced session run).
const TRACED_ROUNDS: usize = 12;
/// Two yardstick readings further apart than this flag the session.
const YARDSTICK_OUTLIER: f64 = 0.10;
/// Steal above this share of a round's wall time disturbs the round.
const DISTURBED_STEAL: f64 = 0.01;
/// A run uses at least this many rounds: when fewer are undisturbed, the
/// least disturbed of the others are added and the run says so.
const MIN_ROUNDS_USED: usize = 5;

/// How large the inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the bounds were calibrated with.
    Full,
    /// Every workload shrunk to about a second (`--smoke`).
    Smoke,
}

/// What one measured round did.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Ops sent.
    pub attempted: u64,
    /// Ops completed with the right kind of answer.
    pub ok: u64,
    /// Wall time of the round, seconds.
    pub wall_s: f64,
}

/// Client-observed completion latencies of measured ops.
#[derive(Debug)]
pub struct Latency {
    limit_us: f64,
    hist: LogHist,
    /// `ring-replace` only sees latencies as the histogram inside the
    /// product's `LoadReport`; those are merged here instead.
    reports: Option<HistogramSnapshot>,
}

impl Latency {
    /// An empty collection; ops at or below `limit_us` meet the objective.
    pub fn new(limit_us: f64) -> Latency {
        Latency {
            limit_us,
            hist: LogHist::new(limit_us),
            reports: None,
        }
    }

    /// Records one correctly completed op.
    #[inline]
    pub fn push(&mut self, us: f64) {
        self.hist.push_n(us, 1);
    }

    /// Records `n` correctly completed ops that share one latency reading
    /// (the call that carried them all).
    pub fn push_n(&mut self, us: f64, n: u64) {
        self.hist.push_n(us, n);
    }

    /// Merges the latency histogram of one `LoadReport`.
    pub fn merge_report(&mut self, snap: &HistogramSnapshot) {
        match &mut self.reports {
            Some(all) => all.merge(snap),
            None => self.reports = Some(snap.clone()),
        }
    }

    /// What one round's latencies come to.
    fn summary(&self) -> LatencySummary {
        match &self.reports {
            Some(r) => {
                let within: u64 = r
                    .hist
                    .bins()
                    .filter(|(_, hi, _)| *hi <= self.limit_us)
                    .map(|(_, _, n)| n)
                    .sum();
                LatencySummary {
                    samples: r.count(),
                    p50_us: r.quantile(50.0),
                    p99_us: r.quantile(99.0),
                    max_us: r.max_or_zero(),
                    within_limit: within + r.hist.underflow(),
                }
            }
            None => LatencySummary {
                samples: self.hist.count(),
                p50_us: self.hist.quantile(0.5),
                p99_us: self.hist.quantile(0.99),
                max_us: self.hist.max(),
                within_limit: self.hist.within_limit(),
            },
        }
    }
}

/// The latencies of one round, reduced to what the metrics need.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Ops with a latency reading (a frame's or a call's latency is
    /// booked to every op it carried).
    pub samples: u64,
    /// Median, microseconds.
    pub p50_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// Maximum, microseconds.
    pub max_us: f64,
    /// Readings at or below the workload's latency limit.
    pub within_limit: u64,
}

/// What a session reports when it ends.
#[derive(Debug, Default)]
pub struct SessionEnd {
    /// Failed correctness gates (empty = all passed).
    pub gate_failures: Vec<String>,
    /// Sum of the members' peak resident sets, kilobytes (`0` without
    /// member processes).
    pub members_hwm_kb: u64,
}

/// One workload session; see the module docs for the life cycle.
pub trait Session: Sized {
    /// Ops slower than this miss the service-level objective. A constant
    /// about ten times the calibration p50, so the share moves only when
    /// ops fail or the tail collapses.
    const LATENCY_LIMIT_US: f64;

    /// Measured seconds of one session; `--seconds` is split into
    /// sessions of about this length.
    const SESSION_S: f64 = 4.0;

    /// Cold set-up, warm-up ops included.
    fn set_up(seed: u64, scale: Scale, tr: &mut Tracer) -> Result<Self, String>;

    /// One measured round of a fixed op count.
    fn round(&mut self, lat: &mut Latency, tr: &mut Tracer) -> Result<Round, String>;

    /// True once a scripted workload has nothing left to run.
    fn script_done(&self) -> bool {
        false
    }

    /// Monotonic raw counters of the layers (server `METRICS`, client and
    /// cluster counters); the harness reports differences over the
    /// measured rounds.
    fn scrape(&mut self) -> Result<BTreeMap<String, f64>, String>;

    /// Correctness gates and tear-down, outside the timed region.
    fn finish(self, tr: &mut Tracer) -> Result<SessionEnd, String>;
}

/// Options of one run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: how long the run measures.
    pub seconds: f64,
    /// `--trace 1`: the traced run that yields the per-layer counters.
    pub trace: bool,
    /// `--smoke`.
    pub scale: Scale,
}

/// One measured round with what the host and the process tree did in it.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// What the workload reported.
    pub round: Round,
    /// CPU seconds charged to the process tree.
    pub cpu_s: f64,
    /// Steal seconds of the host's vCPUs in the round.
    pub steal_s: f64,
    /// The round's latencies.
    pub latency: LatencySummary,
}

impl Measured {
    /// A round is disturbed when the hypervisor took more than 1 % of
    /// its wall time away from the vCPUs. The counter ticks in 10 ms, so
    /// for a round under a second that is any steal at all.
    pub fn disturbed(&self) -> bool {
        self.steal_s > DISTURBED_STEAL * self.round.wall_s
    }

    /// Wall seconds on the steal-free clock: a closed loop stands still
    /// whenever either vCPU is taken away.
    fn steal_free_wall_s(&self) -> f64 {
        steal_free(self.round.wall_s, self.steal_s)
    }

    /// CPU seconds without the stolen time charged to the running
    /// threads: measured on this host, about half of the steal is (the
    /// other half falls into waits nobody is charged for).
    fn steal_free_cpu_s(&self) -> f64 {
        steal_free(self.cpu_s, self.steal_s / 2.0)
    }
}

/// `seconds` minus the `stolen` part of them, but never less than half: a
/// correction that large is a guess, and the run is flagged anyway. For
/// an undisturbed round this changes nothing; it makes the disturbed
/// rounds a run has to fall back on an estimate instead of garbage.
fn steal_free(seconds: f64, stolen: f64) -> f64 {
    (seconds - stolen).max(seconds / 2.0)
}

/// Everything one run measured.
#[derive(Debug)]
pub struct RunReport {
    /// Measured sessions (the dropped warm-up sessions not counted).
    pub sessions: u32,
    /// Set-up time of each session, warm-up sessions included, on the
    /// steal-free clock (wall time minus steal).
    pub setup_s: Vec<f64>,
    /// Every measured round.
    pub rounds: Vec<Measured>,
    /// Failed gates of all sessions.
    pub gate_failures: Vec<String>,
    /// Largest sum of member peak resident sets over the sessions, kB.
    pub members_hwm_kb: u64,
    /// Sessions whose two yardstick readings differed by more than 10 %.
    pub yardstick_outliers: u32,
    /// Mean yardstick reading, milliseconds.
    pub yardstick_ms: f64,
    /// Traced run only: counters and thread CPU of the traced session.
    pub traced: Option<Traced>,
}

/// Per-layer measurements of the traced session.
#[derive(Debug)]
pub struct Traced {
    /// Raw counter differences over the traced rounds.
    pub counters: BTreeMap<String, f64>,
    /// `(total CPU s, busiest thread CPU s)` per thread group.
    pub threads: BTreeMap<ThreadGroup, (f64, f64)>,
    /// Ops completed in the traced rounds.
    pub ops: u64,
    /// Wall seconds of the traced rounds.
    pub wall_s: f64,
    /// Traced session's CPU per op ÷ untraced session's, minus one.
    pub overhead_share: f64,
}

/// A fixed single-threaded computation timed around the measured rounds:
/// a diagnostic for a disturbed host, never used to normalise anything.
pub fn yardstick_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    for _ in 0..8_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += ((x >> 11) as f64).sqrt();
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

struct SessionRun {
    setup_s: f64,
    rounds: Vec<Measured>,
    threads: BTreeMap<ThreadGroup, (f64, f64)>,
    counters: BTreeMap<String, f64>,
    yard: (f64, f64),
    end: SessionEnd,
}

impl SessionRun {
    fn cpu_per_op(&self) -> f64 {
        let cpu: f64 = self.rounds.iter().map(|m| m.cpu_s).sum();
        cpu / self.rounds.iter().map(|m| m.round.ok).sum::<u64>().max(1) as f64
    }
}

/// Runs one session: set-up, rounds until `budget_s` of them are measured
/// (at most `max_rounds`), gates, tear-down.
fn session<S: Session>(
    opts: &RunOpts,
    index: u64,
    budget_s: f64,
    max_rounds: usize,
    tr: &mut Tracer,
) -> Result<SessionRun, String> {
    let (started, steal_before) = (Instant::now(), procfs::host_steal_s());
    let mut s = tr.span("bench.setup", |tr| S::set_up(opts.seed, opts.scale, tr))?;
    let setup_s = steal_free(
        started.elapsed().as_secs_f64(),
        procfs::host_steal_s() - steal_before,
    );
    tr.drain_product(false);

    let before = s.scrape()?;
    let yard_before = yardstick_ms();
    let mut out = SessionRun {
        setup_s,
        rounds: Vec::new(),
        threads: BTreeMap::new(),
        counters: BTreeMap::new(),
        yard: (yard_before, yard_before),
        end: SessionEnd::default(),
    };
    let mut measured_s = 0.0;
    while out.rounds.len() < max_rounds && !s.script_done() {
        // A round that would overshoot the budget by more than half its
        // own length is not started.
        let mean = measured_s / out.rounds.len().max(1) as f64;
        if !out.rounds.is_empty() && measured_s + mean / 2.0 > budget_s {
            break;
        }
        tr.set_round(index * 1000 + out.rounds.len() as u64 + 1);
        let mut round_lat = Latency::new(S::LATENCY_LIMIT_US);
        let threads_before = tr.enabled().then(procfs::thread_cpu);
        let (cpu_before, steal_before) = (procfs::tree_cpu_s(), procfs::host_steal_s());
        let round = tr.span("bench.round", |tr| s.round(&mut round_lat, tr))?;
        let measured = Measured {
            round,
            cpu_s: procfs::tree_cpu_s() - cpu_before,
            steal_s: procfs::host_steal_s() - steal_before,
            latency: round_lat.summary(),
        };
        if let Some(b) = threads_before {
            let a = procfs::thread_cpu();
            for g in [
                ThreadGroup::Client,
                ThreadGroup::Reactor,
                ThreadGroup::Shard,
            ] {
                let (total, busiest) = procfs::thread_cpu_delta(&b, &a, g);
                let e = out.threads.entry(g).or_insert((0.0, 0.0));
                e.0 += total;
                e.1 += busiest;
            }
        }
        tr.set_round(0);
        tr.drain_product(true);
        measured_s += round.wall_s;
        out.rounds.push(measured);
    }
    out.yard.1 = yardstick_ms();
    let after = s.scrape()?;
    for (name, value) in after {
        // `gauge.*` are point-in-time readings; the rest are monotonic.
        let base = match name.starts_with("gauge.") {
            true => 0.0,
            false => before.get(&name).copied().unwrap_or(0.0),
        };
        out.counters.insert(name, value - base);
    }
    out.end = tr.span("bench.verify", |tr| s.finish(tr))?;
    Ok(out)
}

/// Runs workload `S` as `opts` says.
pub fn run<S: Session>(opts: &RunOpts, tr: &mut Tracer) -> Result<RunReport, String> {
    let run_start = Instant::now();
    let mut report = RunReport {
        sessions: 0,
        setup_s: Vec::new(),
        rounds: Vec::new(),
        gate_failures: Vec::new(),
        members_hwm_kb: 0,
        yardstick_outliers: 0,
        yardstick_ms: 0.0,
        traced: None,
    };
    let mut yards = Vec::new();
    let mut fold = |report: &mut RunReport, s: &SessionRun| {
        report.sessions += 1;
        report.setup_s.push(s.setup_s);
        report.rounds.extend(s.rounds.iter().copied());
        report
            .gate_failures
            .extend(s.end.gate_failures.iter().cloned());
        report.members_hwm_kb = report.members_hwm_kb.max(s.end.members_hwm_kb);
        let (a, b) = s.yard;
        if (a - b).abs() / a.min(b) > YARDSTICK_OUTLIER {
            report.yardstick_outliers += 1;
        }
        yards.extend([a, b]);
    };

    if opts.trace {
        // One session with product tracing on, one with it off; the
        // per-layer figures come from the first, their cost from both.
        let rounds = TRACED_ROUNDS;
        oc_telemetry::trace::enable();
        let on = session::<S>(opts, 1, f64::INFINITY, rounds, tr);
        oc_telemetry::trace::disable();
        let on = on?;
        let off = session::<S>(opts, 2, f64::INFINITY, rounds, &mut Tracer::new(false))?;
        fold(&mut report, &on);
        fold(&mut report, &off);
        report.traced = Some(Traced {
            overhead_share: on.cpu_per_op() / off.cpu_per_op().max(1e-12) - 1.0,
            ops: on.rounds.iter().map(|m| m.round.ok).sum(),
            wall_s: on.rounds.iter().map(|m| m.round.wall_s).sum(),
            counters: on.counters,
            threads: on.threads,
        });
    } else {
        let sessions = ((opts.seconds / S::SESSION_S).round() as u64).max(1);
        let budget_s = opts.seconds / sessions as f64;
        // Warm-up sessions: same shape, numbers dropped, gates kept; only
        // their set-ups, as cold as any, count as `setup_s` samples.
        while opts.scale == Scale::Full && run_start.elapsed().as_secs_f64() < WARM_S {
            let warm = session::<S>(opts, 0, budget_s, usize::MAX, tr)?;
            report.gate_failures.extend(warm.end.gate_failures);
            report.setup_s.push(warm.setup_s);
        }
        for index in 1..=sessions {
            let s = session::<S>(opts, index, budget_s, usize::MAX, tr)?;
            fold(&mut report, &s);
        }
    }
    report.yardstick_ms = yards.iter().sum::<f64>() / yards.len().max(1) as f64;
    Ok(report)
}

/// The end-to-end metrics of a run plus the informational figures
/// every run prints.
#[derive(Debug, Clone)]
pub struct EndToEndValues {
    /// `(name, value)` in `names::END_TO_END` order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Ops sent in measured rounds, disturbed ones included.
    pub attempted: u64,
    /// Ops that failed, were refused or answered wrongly; all measured
    /// ops if a correctness gate failed.
    pub failed: u64,
    /// Rounds the timed metrics are computed over.
    pub rounds_used: usize,
    /// True when too few rounds were undisturbed and disturbed ones had
    /// to be used.
    pub disturbed: bool,
    /// Steal seconds ÷ CPU seconds charged, over all measured rounds.
    pub steal_share: f64,
    /// `VmHWM` of the benchmark process plus the largest sum of the
    /// members' `VmHWM` over the sessions, megabytes.
    pub rss_peak_mb: f64,
    /// Ops with a latency reading behind `latency_p50_us`.
    pub latency_samples: u64,
    /// Informational tail.
    pub latency_p99_us: f64,
    /// Informational tail.
    pub latency_max_us: f64,
}

/// The rounds the timed metrics are computed over: the undisturbed ones,
/// topped up with the least disturbed others to [`MIN_ROUNDS_USED`].
fn rounds_used(rounds: &[Measured]) -> Vec<Measured> {
    let mut by_steal = rounds.to_vec();
    by_steal.sort_by(|a, b| (a.steal_s / a.round.wall_s).total_cmp(&(b.steal_s / b.round.wall_s)));
    let clean = by_steal.iter().filter(|m| !m.disturbed()).count();
    by_steal.truncate(clean.max(MIN_ROUNDS_USED.min(rounds.len())));
    by_steal
}

/// Folds a run into its end-to-end metrics.
pub fn end_to_end(report: &RunReport) -> EndToEndValues {
    let total = |f: fn(&Measured) -> f64, rounds: &[Measured]| rounds.iter().map(f).sum::<f64>();
    let each = |f: fn(&Measured) -> f64, rounds: &[Measured]| -> Vec<f64> {
        rounds.iter().map(f).collect()
    };
    let used = rounds_used(&report.rounds);
    let attempted = total(|m| m.round.attempted as f64, &used);
    let ok = total(|m| m.round.ok as f64, &used);
    let samples = total(|m| m.latency.samples as f64, &used);
    let within = total(|m| m.latency.within_limit as f64, &used);
    let own_hwm_kb = procfs::vm_hwm_kb(std::process::id());

    let all_attempted: u64 = report.rounds.iter().map(|m| m.round.attempted).sum();
    let all_ok: u64 = report.rounds.iter().map(|m| m.round.ok).sum();
    EndToEndValues {
        metrics: vec![
            ("setup_s", median(&report.setup_s)),
            (
                "throughput_ops_s",
                median(&each(|m| m.round.ok as f64 / m.steal_free_wall_s(), &used)),
            ),
            // In a closed loop latency stretches with the round.
            (
                "latency_p50_us",
                median(&each(
                    |m| m.latency.p50_us * m.steal_free_wall_s() / m.round.wall_s,
                    &used,
                )),
            ),
            (
                "cpu_us_per_op",
                total(Measured::steal_free_cpu_s, &used) * 1e6 / ok.max(1.0),
            ),
            // Share of latency readings within the limit times share of
            // ops that completed correctly: a failed op has no reading
            // and is a miss. (`ring-replace` has more readings than ops,
            // its report covers mirror lines too.)
            (
                "slo_share",
                within / samples.max(1.0) * ok / attempted.max(1.0),
            ),
        ],
        rss_peak_mb: (own_hwm_kb + report.members_hwm_kb) as f64 / 1024.0,
        attempted: all_attempted,
        failed: match report.gate_failures.is_empty() {
            true => all_attempted - all_ok,
            false => all_attempted,
        },
        rounds_used: used.len(),
        disturbed: used.iter().any(Measured::disturbed),
        steal_share: total(|m| m.steal_s, &report.rounds)
            / total(|m| m.cpu_s, &report.rounds).max(1e-9),
        latency_samples: samples as u64,
        latency_p99_us: median(&each(|m| m.latency.p99_us, &used)),
        latency_max_us: each(|m| m.latency.max_us, &used)
            .into_iter()
            .fold(0.0, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::ingest_stream::IngestStream;
    use crate::workloads::offline_cell::OfflineCell;
    use crate::workloads::predict_admit::PredictAdmit;

    fn smoke<S: Session>() -> (RunReport, EndToEndValues) {
        let opts = RunOpts {
            seed: 42,
            seconds: 0.2,
            trace: false,
            scale: Scale::Smoke,
        };
        let report = run::<S>(&opts, &mut Tracer::new(false)).expect("smoke run");
        let e2e = end_to_end(&report);
        (report, e2e)
    }

    fn measured(wall_s: f64, steal_s: f64) -> Measured {
        Measured {
            round: Round {
                attempted: 10,
                ok: 10,
                wall_s,
            },
            cpu_s: wall_s,
            steal_s,
            latency: LatencySummary::default(),
        }
    }

    #[test]
    fn the_steal_free_clock_subtracts_steal_but_at_most_half() {
        assert_eq!(steal_free(2.0, 0.0), 2.0);
        assert_eq!(steal_free(2.0, 0.5), 1.5);
        assert_eq!(steal_free(2.0, 1.5), 1.0);
        let m = measured(1.0, 0.2);
        assert!((m.steal_free_wall_s() - 0.8).abs() < 1e-12);
        assert!((m.steal_free_cpu_s() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn a_round_is_disturbed_above_one_percent_steal() {
        assert!(!measured(0.2, 0.0).disturbed());
        assert!(measured(0.2, 0.01).disturbed());
        assert!(!measured(2.0, 0.01).disturbed());
        assert!(measured(2.0, 0.03).disturbed());
    }

    #[test]
    fn undisturbed_rounds_are_used_and_topped_up_to_the_minimum() {
        // Plenty of clean rounds: exactly those.
        let mut rounds: Vec<Measured> = (0..8).map(|_| measured(0.2, 0.0)).collect();
        rounds.extend((0..4).map(|_| measured(0.2, 0.05)));
        let used = rounds_used(&rounds);
        assert_eq!(used.len(), 8);
        assert!(used.iter().all(|m| !m.disturbed()));

        // Two clean rounds: topped up with the three least disturbed.
        let rounds = vec![
            measured(0.2, 0.0),
            measured(0.2, 0.08),
            measured(0.2, 0.02),
            measured(0.2, 0.0),
            measured(0.2, 0.04),
            measured(0.2, 0.01),
            measured(0.2, 0.06),
        ];
        let mut steal: Vec<f64> = rounds_used(&rounds).iter().map(|m| m.steal_s).collect();
        steal.sort_by(f64::total_cmp);
        assert_eq!(steal, [0.0, 0.0, 0.01, 0.02, 0.04]);

        // Fewer rounds than the minimum: all of them.
        assert_eq!(rounds_used(&rounds[..3]).len(), 3);
        assert!(rounds_used(&[]).is_empty());
    }

    /// Every workload that can run inside the test binary (`ring-replace`
    /// re-executes the current executable as a member, so it cannot)
    /// passes its gates at smoke scale and reports sane metrics.
    #[test]
    fn smoke_sessions_pass_their_gates() {
        for (name, (report, e2e)) in [
            ("ingest-stream", smoke::<IngestStream>()),
            ("predict-admit", smoke::<PredictAdmit>()),
            ("offline-cell", smoke::<OfflineCell>()),
        ] {
            assert!(
                report.gate_failures.is_empty(),
                "{name}: {:?}",
                report.gate_failures
            );
            assert!(e2e.attempted > 0 && e2e.failed == 0, "{name}");
            assert_eq!(e2e.metrics.len(), crate::names::END_TO_END.len());
            for ((got, value), want) in e2e.metrics.iter().zip(crate::names::END_TO_END) {
                assert_eq!(*got, want.name);
                assert!(value.is_finite() && *value > 0.0, "{name} {got} = {value}");
            }
        }
    }
}
