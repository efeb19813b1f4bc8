#!/usr/bin/env bash
# Validates the checked-in BENCH_*.json result files: every file must be
# well-formed JSON with the common envelope (bench, command), and
# BENCH_serve.json must additionally uphold the loadgen invariants the
# benchmark is meant to demonstrate — zero lost acknowledged samples in
# every phase, reject_rate a true rate in [0, 1], the BATCH-framed
# phase matching the sustained phase within run-to-run noise (framing
# must not cost throughput or worsen server-side p99) when both were
# measured in the same run, a mandatory reactor-10k phase proving the
# event-loop frontend
# holds >= 10000 concurrent connections at >= 1M qps without losing an
# acknowledged sample, and mandatory cluster phases proving multi-process
# serving: cluster-chaos (>= 3 processes, one SIGKILLed mid-run, served
# vs offline prediction identity as the lost figure), cluster-replace
# (a member SIGKILLed and replaced into its ring slot, a stale-spec
# client auto-adopting the pushed generation, mirror coverage restored
# to 100%), and cluster-1m (>= 1,000,000 simulated machines spread
# across the ring). BENCH_hot_path.json must uphold the hot-path
# envelope: the vectorized two-lane engine within 1.3x of the scalar
# engine, and the engine at least 3x faster than the naive replica —
# ratios taken within the same recorded run, so host speed cancels out.
set -euo pipefail
cd "$(dirname "$0")/.."

shopt -s nullglob
files=(BENCH_*.json)
if [ "${#files[@]}" -eq 0 ]; then
  echo "check_bench_json: no BENCH_*.json files found" >&2
  exit 1
fi

python3 - "${files[@]}" <<'PYEOF'
import json
import sys

failures = []


def fail(path, msg):
    failures.append(f"{path}: {msg}")


def check_serve(path, doc):
    phases = doc.get("phases")
    if not isinstance(phases, list) or not phases:
        fail(path, "'phases' must be a non-empty list")
        return
    by_label = {}
    numeric_keys = (
        "sent", "ok", "busy", "errors", "retries", "lost",
        "failed_connections", "connections", "wall_secs", "achieved_qps",
        "reject_rate", "retry_ratio",
        "client_p50_us", "client_p99_us",
        "setup_p50_us", "setup_p99_us", "setup_max_us",
        "server_p50_us", "server_p99_us", "server_observes",
    )
    for phase in phases:
        label = phase.get("label")
        if not isinstance(label, str) or not label:
            fail(path, f"phase without a label: {phase!r:.80}")
            continue
        by_label[label] = phase
        for key in numeric_keys:
            if not isinstance(phase.get(key), (int, float)):
                fail(path, f"phase '{label}': missing numeric '{key}'")
        lost = phase.get("lost")
        if isinstance(lost, (int, float)) and lost != 0:
            fail(path, f"phase '{label}': lost={lost} acknowledged samples")
        rate = phase.get("reject_rate")
        if isinstance(rate, (int, float)) and not 0.0 <= rate <= 1.0:
            fail(path, f"phase '{label}': reject_rate={rate} outside [0, 1]")
        failed = phase.get("failed_connections")
        if isinstance(failed, (int, float)) and failed != 0:
            fail(path, f"phase '{label}': {failed} failed connections")
    sustained = by_label.get("sustained")
    batched = by_label.get("serve_batched")
    if sustained and batched:
        # BATCH framing must not *cost* performance. It used to be
        # required to win by 1.5x qps at a no-worse p99, but since the
        # fleet-scale ingest optimizations applying the samples, not
        # per-line framing, is the single-core ceiling: both phases
        # saturate the same ~400k lines/s, and framing's win shows up
        # as fewer syscalls per line (and in the reactor phase's
        # fan-in throughput), not as a higher unpaced ceiling. Both
        # serve phases finish in under a second, so back-to-back runs
        # on a shared host swing +/-20% in qps and p99; the 0.7x qps
        # floor and 1.5x p99 allowance cover that measured noise while
        # still tripping on a real framing regression (re-parsing or
        # allocating per line costs >= 2x).
        base = sustained.get("achieved_qps") or 0
        got = batched.get("achieved_qps") or 0
        if base and got < 0.7 * base:
            fail(path, f"serve_batched achieved {got:.0f} qps < 0.7x "
                       f"sustained ({base:.0f} qps)")
        base_p99 = sustained.get("server_p99_us") or 0
        got_p99 = batched.get("server_p99_us") or 0
        if base_p99 and got_p99 > 1.5 * base_p99:
            fail(path, f"serve_batched server_p99_us {got_p99:.1f} > 1.5x "
                       f"sustained ({base_p99:.1f})")
    chaos = by_label.get("batched-chaos")
    if chaos is not None and not chaos.get("faults"):
        fail(path, "batched-chaos phase injected no faults")

    # The reactor-10k phase is the point of the event-loop frontend; a
    # BENCH_serve.json without it (e.g. regenerated with a stale binary
    # or a truncated run) must not pass.
    reactor = by_label.get("reactor-10k")
    if reactor is None:
        fail(path, "mandatory 'reactor-10k' phase missing")
    else:
        conns = reactor.get("connections") or 0
        if conns < 10_000:
            fail(path, f"reactor-10k held only {conns} connections "
                       f"(need >= 10000)")
        qps = reactor.get("achieved_qps") or 0
        if qps < 1_000_000:
            fail(path, f"reactor-10k achieved {qps:.0f} qps "
                       f"(need >= 1000000)")
        # Server-side p99 gate: an absolute 10ms ceiling on how long an
        # observe waits between being buffered and being applied. The
        # recorded run predates the lock-per-shard data plane: chunks
        # then crossed a queue to shard worker threads and aged behind a
        # full 10k-connection sweep (~46ms) unless the reactor yielded
        # mid-sweep (~3ms healthy on one core). Since then a chunk is
        # applied by the thread that buffered it before that thread
        # reads its next connection, so a reading anywhere near the
        # ceiling means samples are being held across events again.
        got_p99 = reactor.get("server_p99_us") or 0
        if got_p99 > 10_000:
            fail(path, f"reactor-10k server_p99_us {got_p99:.1f} > "
                       f"10000 (buffered observes are aging unapplied)")

    # The cluster phases prove multi-process serving end to end. Their
    # lost==0 / failed_connections==0 invariants ride the generic
    # per-phase checks above; here we pin the cluster-specific shape:
    # chaos must actually have killed a member of a real ring, and the
    # scale phase must actually have spread a million machines.
    chaos = by_label.get("cluster-chaos")
    if chaos is None:
        fail(path, "mandatory 'cluster-chaos' phase missing")
    else:
        procs = chaos.get("processes") or 0
        if procs < 3:
            fail(path, f"cluster-chaos ran {procs} processes (need >= 3)")
        killed = chaos.get("killed") or 0
        if killed < 1:
            fail(path, "cluster-chaos killed no member mid-run")
    replace = by_label.get("cluster-replace")
    if replace is None:
        fail(path, "mandatory 'cluster-replace' phase missing")
    else:
        # lost==0 / failed_connections==0 ride the generic checks; the
        # replacement-specific shape is: a real ring, a real kill, a
        # real same-slot replacement, the client adopting the pushed
        # generation without operator help, and redundancy restored
        # (every machine resident on exactly owner + replica).
        procs = replace.get("processes") or 0
        if procs < 3:
            fail(path, f"cluster-replace ran {procs} processes (need >= 3)")
        if (replace.get("killed") or 0) < 1:
            fail(path, "cluster-replace killed no member mid-run")
        if (replace.get("replaced") or 0) < 1:
            fail(path, "cluster-replace replaced no member")
        if (replace.get("adoptions") or 0) < 1:
            fail(path, "cluster-replace: client never auto-adopted the "
                       "pushed ring generation")
        coverage = replace.get("mirror_coverage_pct")
        if coverage != 100:
            fail(path, f"cluster-replace mirror_coverage_pct={coverage} "
                       f"(replacement must restore full redundancy)")
    one_m = by_label.get("cluster-1m")
    if one_m is None:
        fail(path, "mandatory 'cluster-1m' phase missing")
    else:
        procs = one_m.get("processes") or 0
        if procs < 3:
            fail(path, f"cluster-1m ran {procs} processes (need >= 3)")
        machines = one_m.get("server_machines") or 0
        if machines < 1_000_000:
            fail(path, f"cluster-1m tracked {machines} machines "
                       f"(need >= 1000000)")
        # Pipelined routed-ingest gate: the ring data plane must hold
        # >= 3x the recorded PR 9 sync-path baseline (194,914 qps). A
        # regression below this line means cluster ingest has fallen
        # back to per-line round-trips.
        qps = one_m.get("achieved_qps") or 0
        if qps < 584_742:
            fail(path, f"cluster-1m achieved {qps:.0f} qps (need >= "
                       f"584742 = 3x the 194914 sync-path baseline)")
        # Merged-histogram sanity: the aggregator once combined
        # count/sum wrong, reporting a mean 18x above p99.
        mean = one_m.get("server_mean_us")
        p99 = one_m.get("server_p99_us")
        if (isinstance(mean, (int, float)) and isinstance(p99, (int, float))
                and mean > p99):
            fail(path, f"cluster-1m server_mean_us {mean:.1f} > "
                       f"server_p99_us {p99:.1f} (merged mean must lie "
                       f"below merged p99)")


def check_hot_path(path, doc):
    results = doc.get("results")
    if not isinstance(results, dict):
        fail(path, "'results' must be an object")
        return
    medians = {}
    for variant in ("engine", "engine_vector", "engine_telemetry", "naive"):
        entry = results.get(variant)
        median = entry.get("median_ns_per_iter") if isinstance(entry, dict) else None
        if not isinstance(median, (int, float)) or median <= 0:
            fail(path, f"variant '{variant}': missing positive "
                       f"'median_ns_per_iter'")
            return
        medians[variant] = median
    # The vectorized engine runs both resource lanes; its envelope is
    # 1.3x the scalar engine measured in the same run (the memory lane
    # is a peak-only window, so two lanes must not cost two engines).
    ratio = medians["engine_vector"] / medians["engine"]
    if ratio > 1.3:
        fail(path, f"engine_vector is {ratio:.2f}x engine "
                   f"(envelope: <= 1.3x)")
    # The PR 1 acceptance figure: the incremental engine beats the
    # pre-rewrite replica by at least 3x.
    speedup = medians["naive"] / medians["engine"]
    if speedup < 3.0:
        fail(path, f"engine is only {speedup:.2f}x faster than naive "
                   f"(acceptance: >= 3x)")


for path in sys.argv[1:]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        fail(path, f"not valid JSON: {exc}")
        continue
    if not isinstance(doc, dict):
        fail(path, "top level must be a JSON object")
        continue
    for key in ("bench", "command"):
        if not isinstance(doc.get(key), str) or not doc.get(key):
            fail(path, f"missing or empty string field '{key}'")
    if "phases" in doc:
        check_serve(path, doc)
    if doc.get("bench") == "hot_path":
        check_hot_path(path, doc)

if failures:
    for line in failures:
        print(f"check_bench_json: {line}", file=sys.stderr)
    sys.exit(1)
print(f"check_bench_json: {len(sys.argv) - 1} file(s) OK")
PYEOF
