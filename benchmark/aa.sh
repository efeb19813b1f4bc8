#!/usr/bin/env bash
# A/A calibration: two interleaved sets (A1 B1 A2 B2 ...) of N full passes
# of the same build, pass i of both sets with seed 100+i. Prints, per
# workload and end-to-end metric, both medians, how much worse B's median
# is than A's, each set's range and quartile spread (Q3-Q1 over the
# median, from statistics.quantiles(n=4)), and PASS/FAIL: the medians must
# agree within half the metric's bound and each spread (setup_s aside)
# must stay within the bound. The table is checked in as CALIBRATION.md;
# every run's full output stays under benchmark/out/aa/.
#
#   bash benchmark/aa.sh [N]        N >= 5, default 10
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
n="${1:-10}"
if [ "$n" -lt 5 ]; then
  echo "aa.sh: N must be at least 5" >&2
  exit 2
fi
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$here/../BENCHMARK.json")"
raw="$here/out/aa"
rm -rf "$raw"
mkdir -p "$raw"
workloads="$(bash "$here/run.sh" --list | awk '$1 == "workload" {print $2}')"   # also builds
for i in $(seq 1 "$n"); do
  for set in A B; do
    for w in $workloads; do
      echo "aa.sh: pass $i/$n set $set $w" >&2
      bash "$here/run.sh" --workload "$w" --seed $((100 + i)) --seconds "$seconds" --trace 0 \
        > "$raw/$set-$i-$w.txt"
    done
  done
done
python3 - "$raw" "$here/../BENCHMARK.json" "$n" <<'PY'
import glob, json, os, statistics, sys

spec = json.load(open(sys.argv[2]))
runs, steal = {}, []
for path in sorted(glob.glob(os.path.join(sys.argv[1], "*.txt"))):
    aset, _, workload = os.path.basename(path)[:-4].split("-", 2)
    lines = open(path).read().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"aa.sh: {path} was not a correct run")
    for name, m in result["metrics"].items():
        runs.setdefault((workload, name), {"A": [], "B": []})[aset].append(m["value"])
    fields = dict(kv.split("=", 1) for kv in lines[0].split() if "=" in kv)
    steal.append(float(fields["host.steal_share"]))

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

print(f"A/A of one build: two interleaved sets of {sys.argv[3]} passes, "
      f"{spec['run_seconds']} s measured per run; host.steal_share over the "
      f"{len(steal)} runs: median {statistics.median(steal):.3f}, "
      f"{sum(s > 0.1 for s in steal)} runs above 0.1, max {max(steal):.2f}\n")
print("| workload | metric | median A | median B | B worse by | range A | range B "
      "| spread A | spread B | bound | verdict |")
print("|---|---|---|---|---|---|---|---|---|---|---|")
failed = 0
for w in spec["workloads"]:
    for m in spec["end_to_end"]:
        a, b = (runs[(w["name"], m["name"])][s] for s in "AB")
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        ok = abs(worse) <= m["bound"] / 2 and (m["name"] == "setup_s" or max(sa, sb) <= m["bound"])
        failed += not ok
        rng = lambda v: f"{min(v):.5g}..{max(v):.5g}"
        print(f"| {w['name']} | {m['name']} | {ma:.6g} | {mb:.6g} | {worse:+.2%} | {rng(a)} | {rng(b)} "
              f"| {sa:.2%} | {sb:.2%} | {m['bound']} | {'PASS' if ok else 'FAIL'} |")
print(f"\n{failed} of {len(spec['workloads']) * len(spec['end_to_end'])} pairs failed")
sys.exit(1 if failed else 0)
PY
