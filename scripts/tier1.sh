#!/usr/bin/env bash
# Tier-1 verification: build, test, lint. CI and pre-merge both run this.
set -euo pipefail
cd "$(dirname "$0")/.."

# Fail fast if any crates/* package is not a workspace member: a crate that
# silently drops out of the workspace (e.g. a members glob edit, or a
# missing path dependency) would otherwise skip build/test/clippy entirely
# and rot unnoticed.
metadata="$(cargo metadata --no-deps --format-version 1)"
missing=0
for manifest in crates/*/Cargo.toml; do
  name="$(sed -n 's/^name[[:space:]]*=[[:space:]]*"\(.*\)"/\1/p' "$manifest" | head -n 1)"
  if [ -z "$name" ]; then
    echo "tier1: cannot read package name from $manifest" >&2
    missing=1
    continue
  fi
  if ! printf '%s' "$metadata" | grep -q "\"name\"[[:space:]]*:[[:space:]]*\"$name\""; then
    echo "tier1: crate '$name' ($manifest) is NOT a workspace member" >&2
    missing=1
  fi
done
if [ "$missing" -ne 0 ]; then
  echo "tier1: workspace membership check failed" >&2
  exit 1
fi

# The server has one connection frontend (the reactor). Keep the deleted
# thread-per-connection fork from drifting back in through a doc or a flag.
grep -rnE -e 'Frontend::Threaded|serve_lines|--frontend' crates tests docs README.md DESIGN.md \
  && { echo "tier1: the threaded frontend (or its --frontend knob) is referenced again" >&2; exit 1; }
# There is one latency histogram and it has no shape parameters. Keep the
# per-caller ranges, the second accumulator and its helper from coming back.
grep -rnE -e 'LATENCY_HI_US|LATENCY_BINS|LATENCY_HIST_HI_US|SETUP_HIST_HI_US|REPORT_HIST_BINS|HistAcc|report_histogram' \
    -e 'Histogram::new\([^)]' crates tests docs README.md DESIGN.md \
  && { echo "tier1: a histogram shape parameter (or the second accumulator) is back" >&2; exit 1; }

# The data plane has no shard queue: the thread that parsed a line applies
# it under the shard's lock. Keep the queue's knob, its worker threads and
# the deferred-read machinery from coming back through a doc or a flag.
grep -rnE -e 'queue_depth|--queue-depth|frame_busy|MAX_PENDING_READS|shard_worker' crates tests docs README.md DESIGN.md \
  && { echo "tier1: the shard queue (or its queue_depth knob) is referenced again" >&2; exit 1; }

# Docs are part of the contract: every markdown link to a local file must
# point at something that exists (catches renamed/moved docs going stale),
# and rustdoc must be warning-free.
broken=0
for doc in README.md DESIGN.md EXPERIMENTS.md PAPER.md ROADMAP.md docs/*.md; do
  [ -f "$doc" ] || continue
  dir="$(dirname "$doc")"
  # Inline markdown links: capture the (...) target, keep only local paths.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"
    [ -n "$path" ] || continue
    if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
      echo "tier1: $doc links to missing file '$target'" >&2
      broken=1
    fi
  done < <(grep -o '](\([^)]*\))' "$doc" | sed 's/^](\(.*\))$/\1/')
done
if [ "$broken" -ne 0 ]; then
  echo "tier1: markdown link check failed" >&2
  exit 1
fi

cargo fmt --check
cargo build --release --workspace
cargo build --release --workspace --examples
cargo test -q --workspace

# Regression tests pinned by name, so a filter or a module rename cannot
# silently drop them: run with the full path as filter, require "1 passed".
pin_test() { # <package> <test path> <what it guards>
  local out
  out="$(cargo test -q -p "$1" "$2" -- --include-ignored)" \
    || { echo "tier1: $3 regression test failed" >&2; exit 1; }
  printf '%s' "$out" | grep -q "1 passed" \
    || { echo "tier1: $3 regression test did not run" >&2; exit 1; }
}
# The supervisor must never leak member processes when startup fails
# partway (a leaked child holds its port and survives the test run).
pin_test oc-cluster supervisor::tests::start_failure_leaves_no_live_children \
  "supervisor leak"
# Two rival replays into one single-shard member must keep every
# machine's samples in order and end in the offline state.
pin_test oc-cluster control::tests::rival_replays_keep_machine_order \
  "replay ordering"
# A refused reconnect to a ring member is a death verdict: failover in one
# connect, with no backoff ladder slept on the way.
pin_test oc-client fleet::tests::refused_reconnect_is_a_death_verdict \
  "failover verdict"
# An idle close found where a BATCHR header is due is a reconnect and a
# re-send of the frame, not a protocol error (one frame reader for the
# single-node client and the cluster pipes).
pin_test oc-client client::tests::batched_pipeline_resumes_after_an_idle_close \
  "idle close at a frame header"

# A latency tail of seconds keeps its own percentiles: the old 20 ms
# linear range answered p50 == p99 == max once half the mass overflowed.
pin_test oc-serve metrics::tests::heavy_tail_keeps_its_percentiles \
  "heavy-tail percentiles"

cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Multi-process cluster smoke test: boot a 3-member ring as real child
# processes, route through the consistent-hash ring, kill a member, and
# verify failover — the one behavior cargo test cannot cover, because
# test binaries cannot re-exec themselves as cluster nodes.
./target/release/oc-clusterd --smoke

# The powercap experiment is an acceptance artifact of the
# multi-resource refactor: a quick-scale run must emit its [claim]
# lines (cap frontier + worst-lane gating demo) and write the frontier
# CSV. Results go to a scratch dir so tier-1 never dirties results/.
powercap_dir="$(mktemp -d)"
trap 'rm -rf "$powercap_dir"' EXIT
powercap_out="$(./target/release/repro --results "$powercap_dir" powercap)" \
  || { echo "tier1: powercap experiment failed" >&2; exit 1; }
claims="$(printf '%s\n' "$powercap_out" | grep -c '\[claim\]' || true)"
if [ "$claims" -lt 4 ]; then
  echo "tier1: powercap emitted $claims [claim] lines (need >= 4)" >&2
  exit 1
fi
if [ ! -s "$powercap_dir/powercap_frontier.csv" ]; then
  echo "tier1: powercap wrote no frontier CSV" >&2
  exit 1
fi

# Benchmarks must at least keep compiling (running them is tier-2), and
# the checked-in BENCH_*.json result files must stay structurally sound.
cargo bench --workspace --no-run
scripts/check_bench_json.sh

# The repo benchmark (benchmark/, BENCHMARK.json) is a package of its own
# that calls the crates' public functions. Build it offline and run every
# workload at smoke size with all correctness gates on (STATS ledger,
# served-vs-offline identity, cache-hit band, fleet::verify, offline-cell
# reference bits), so a product change that breaks a probe's use of the
# API or trips a gate fails here instead of at benchmark time; then check
# the names it prints against BENCHMARK.json and its README.
bash benchmark/run.sh --smoke
bash benchmark/check_names.sh
