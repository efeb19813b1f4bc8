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

# Member state moves as view-state records (HANDOFF dump, RESTORE install),
# never as a per-sample log replayed through OBSERVE. Keep the log, its knob
# and its text replay from coming back through a doc or a flag.
grep -rnE -e 'HandoffEntry|with_handoff_log|--handoff-log|collect_handoff|parse_handoff_line' \
    crates tests docs README.md DESIGN.md \
  && { echo "tier1: the per-sample handoff log (or its --handoff-log knob) is referenced again" >&2; exit 1; }

# A sample reaches a ring member one way (ClusterClient::observe onto the
# member pipes), and BUSY is not a response. Keep the sync mirror queue,
# the per-member fleet drive, the client's BUSY retry ladder and the
# report fields that counted it from coming back through a doc or a name.
grep -rnE -e 'Response::Busy|busy_retries|client\.retries\.busy|DrainBusy|pipelined_busy' \
    -e 'queue_mirror|flush_mirrors|MIRROR_FLUSH_AT|replica_replays|observe_pipelined' \
    -e 'flush_pipeline|reject_rate|retry_ratio|drive_member' \
    crates tests docs README.md DESIGN.md examples \
  && { echo "tier1: a deleted ingest path (or the BUSY retry ladder) is referenced again" >&2; exit 1; }
grep -rnw -e 'BUSY' crates/client crates/cluster \
  && { echo "tier1: the client or cluster crate handles BUSY again" >&2; exit 1; }

# oc-client has one load driver (loadgen::run) and one wire path: frames
# go out through Link::write_frame and come back through Link::fill and
# Link::take_frame. Keep the deleted fan-in driver, its
# template encoder and tick patcher from coming back, and keep sockets
# inside client.rs.
grep -rnE -e 'FaninConfig|fanin::|build_template|patch_decimal|FrameLayout|MAX_INFLIGHT' \
    crates tests docs README.md DESIGN.md examples \
  && { echo "tier1: the deleted fan-in driver (or its template encoder) is referenced again" >&2; exit 1; }
grep -rn 'TcpStream' crates/client/src --exclude=client.rs \
  && { echo "tier1: oc-client opens or holds a socket outside client.rs" >&2; exit 1; }

# oc-client has one send engine (engine.rs): the single-node Client, the
# ClusterClient and the load driver are policies over its lanes. Keep the
# fixed-window loop, the per-member settle loop, the blocking routed read
# and the whole-client strike types from coming back, and keep sleeps out
# of the client altogether (a nap is a due time, never a sleep).
grep -rnE -e 'run_window|plan_frames|WindowOutcome|requeue_front|settle_step|settle_pipes' \
    -e 'send_routed|pipe_strikes|\bStrikes\b|\bBroken\b' \
    crates tests docs README.md DESIGN.md examples \
  && { echo "tier1: a deleted client send loop (or its strike types) is referenced again" >&2; exit 1; }
for f in crates/client/src/*.rs crates/client/src/bin/*.rs; do
  sed '/#\[cfg(test)\]/,$d' "$f" | grep -n 'thread::sleep' \
    && { echo "tier1: $f sleeps in the client" >&2; exit 1; }
done
# Every engine waits for replies one way: in its poller, with one read
# per readiness into the lane's reply buffer and a frame's reply deadline
# as a due time. Keep the one-lane blocking read, the socket read
# timeout, the buffered-reply probe and the line reader out of the
# client's non-test code.
for f in crates/client/src/*.rs crates/client/src/bin/*.rs; do
  sed '/#\[cfg(test)\]/,$d' "$f" \
    | grep -nE 'read_frame_replies|has_buffered_replies|set_read_timeout|fn polled|BufReader|read_line' \
    && { echo "tier1: $f reads replies outside the poller-driven path" >&2; exit 1; }
done

# A ring member is a RingSpec and its index (ServeConfig::ring), and a
# RINGSET push rebuilds the ring for that index through one install path.
# Keep the ownership closure, its factory, the split ring description and
# the generation knob from coming back through a doc or a name.
grep -rnE -e 'OwnershipMap|OwnershipFactory|RingInfo|RingDesc|ownership_factory' \
    -e 'with_ring_info|with_ring_generation|ownership_for' \
    crates tests docs README.md DESIGN.md examples \
  && { echo "tier1: the ownership closure (or its factory / RingInfo / RingDesc) is referenced again" >&2; exit 1; }

# Wire numbers are written by the codec's own writers (proto/num.rs):
# decimal u64s and shortest round-trip f64s, straight into the buffer.
# Keep the core::fmt fallback, its adapter, and any `{}` formatting of a
# float out of the codec's non-test code (comment lines aside).
for f in crates/serve/src/proto.rs crates/serve/src/proto/*.rs; do
  sed '/#\[cfg(test)\]/,$d' "$f" | grep -v '^[[:space:]]*//' \
    | grep -nE -e 'push_fmt|ByteFmt|fmt::Write|"[^"]*\{(:[^}]*)?\}' \
        -e '"[^"]*\{(v|value|usage|limit|peak|projected|mem|mu|ml|p50_us|p99_us|mean_us|max_us)(:[^}]*)?\}' \
    && { echo "tier1: $f formats wire numbers through core::fmt again" >&2; exit 1; }
done

# One ruler: the repo benchmark (benchmark/, BENCHMARK.json) is the only
# bench, and loadgen drives one address or one external ring. Keep the
# criterion suites, their vendored stand-in, the hand-recorded BENCH_*.json
# files and their checker, loadgen's in-process recording phases and its
# server child, and the per-member history knob from coming back through
# a doc, a flag or a name (DESIGN.md keeps its dated history).
grep -rnE -e '\boc[-_]bench\b|criterion|check_bench_json|BENCH_serve|BENCH_hot_path' \
    -e 'serve-child|history_samples|history-samples' \
    -e 'reactor_10k|cluster_chaos|cluster_replace|cluster_1m' \
    crates tests examples docs README.md .claude/skills/verify/SKILL.md \
  && { echo "tier1: the legacy bench stack (or loadgen's recording phases) is referenced again" >&2; exit 1; }

# A ring member is driven one way: through oc-client (ClusterClient,
# Client). Keep the cluster crate's hand-rolled router and frame loop and
# the smoke scenario built on them from coming back through a doc or a
# flag.
grep -rnE -e 'drive_lines|drive_pass|oc_cluster::smoke|clusterd --smoke' \
    crates tests examples docs README.md .claude/skills/verify/SKILL.md \
  && { echo "tier1: the cluster smoke scenario (or its hand-rolled ingest) is referenced again" >&2; exit 1; }

# Each resource-lane twin has one body: the scalar observe, ingest, replay
# and predict paths are the CPU lane of the two-lane code. Keep the
# helpers that had no caller outside their own tests, and the trace-origin
# knob of the incremental view, from coming back through a doc or a name.
grep -rnE -e 'worst_violation_tick|oracle_series|with_origin|violations_by_lane|worst_violation_rate' \
    crates tests examples docs README.md .claude/skills/verify/SKILL.md \
  && { echo "tier1: a deleted lane-twin helper (or the with_origin knob) is referenced again" >&2; exit 1; }

# Faults are injected in one place, the client's Link: the server reads and
# writes the accepted socket as is. Keep the server's fault knob, its fault
# transport and connection-id seeding, the STATS/METRICS fault counters, and
# the dead stats and client helpers deleted with them from coming back
# through a doc or a name; inside oc-serve only the wrapper itself (and its
# re-export) may name the fault types.
grep -rnE -e 'serve\.faults|Transport::Faulted|next_conn_id|ConnSettings|\bfaults=' \
    -e 'P2Quantile|oc_stats::Summary|request_shutdown' \
    crates tests examples docs README.md .claude/skills/verify/SKILL.md \
  && { echo "tier1: the server-side fault path (or a deleted stats/client helper) is referenced again" >&2; exit 1; }
grep -rnE 'FaultPlan|FaultStream|FaultCounters|with_faults' crates/serve/src \
    --exclude=fault.rs --exclude=lib.rs \
  && { echo "tier1: oc-serve names the fault wrapper outside fault.rs and lib.rs" >&2; exit 1; }

# A trace record is pushed, name and all, onto its thread's own buffer,
# and the --trace-out binaries share one export (trace::finish). Keep the
# lock-free ring, its raw record, the name interning and the per-binary
# export copies, and the dead stats and reactor helpers deleted with
# them, from coming back through a doc or a name.
grep -rnE -e 'oc_telemetry::ring|RawEvent|RegisteredRing|name_table|fn write_trace' \
    -e 'sample_std|sorted_samples|is_read_closed' \
    crates tests examples docs README.md DESIGN.md \
  && { echo "tier1: the trace ring (or its name interning, or a deleted helper) is referenced again" >&2; exit 1; }

# An experiment computes and returns a Report; only the experiment driver (lib.rs,
# main.rs) and output.rs print or write files. Keep the figure modules free
# of I/O, and the deleted per-module plot call, sweep module and id
# constants from coming back through a doc or a name.
for f in crates/experiments/src/*.rs; do
  case "${f##*/}" in lib.rs|main.rs|output.rs) continue ;; esac
  sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE 'print!|println!|\.print\(\)|write_csv|write_cdf_csv|std::fs' \
    && { echo "tier1: $f prints or writes files outside the experiment driver" >&2; exit 1; }
done
grep -rnE -e 'maybe_plot|SweepPoint|run_sweep|ALL_EXPERIMENTS|AB_EXPERIMENT' \
    crates tests examples docs README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md \
  && { echo "tier1: a deleted experiment path (per-module plot, sweep.rs, id constants) is referenced again" >&2; exit 1; }

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
  # A here-string, not a pipe: under pipefail, `grep -q` exiting at the
  # first match can kill a still-writing printf with SIGPIPE and fail a
  # test that passed.
  grep -q "1 passed" <<<"$out" \
    || { echo "tier1: $3 regression test did not run" >&2; exit 1; }
}
# The supervisor must never leak member processes when startup fails
# partway (a leaked child holds its port and survives the test run).
pin_test oc-cluster supervisor::tests::start_failure_leaves_no_live_children \
  "supervisor leak"
# Two rival client pipelines into one single-shard member must keep every
# machine's samples in order and end in the offline state.
pin_test oc-cluster control::tests::rival_client_pipelines_keep_machine_order \
  "replay ordering"
# Two rival restores into one single-shard member install every machine,
# which then serves offline bits, with nothing counted stale or failed.
pin_test oc-cluster control::tests::rival_restores_install_every_machine_bit_identically \
  "restore identity"
# A view cut anywhere (pending tick included) and shipped as bytes predicts
# and evolves bit-identically to the original, under all six predictors.
pin_test oc-core ingest::tests::restored_view_predicts_and_evolves_like_the_original \
  "view state round trip"
# A full OrderStatWindow's one-shift push leaves the sorted index, bit for
# bit, a total_cmp sort of the retained samples after every push.
pin_test overcommit-repro order_stat_sorted_index_matches_sort_after_every_push \
  "order-stat one-shift push"
# A reduced-scale A/B run keeps its bits: both groups' replay reports,
# stats series and the admission rate, folded into one pinned digest.
pin_test overcommit-repro ab_outcome_bits_are_pinned \
  "A/B outcome bits"
# A seeded cell's generated bits, every summary field and both per-tick
# machine series, folded into one pinned digest.
pin_test oc-trace gen::tests::cell_digest_is_pinned \
  "generated cell bits"
# The stack summary of a window (sorting network) equals, field for field
# and to the bit, a comparison sort of a heap copy.
pin_test oc-trace sample::tests::stack_summary_matches_comparison_sort \
  "window summary bits"
# fig3, fig12 and fig13 size their cells by hand; every cell they build
# still carries a --seed override.
pin_test oc-experiments common::tests::hand_sized_figures_take_the_seed_override \
  "figure seed override"
# The oracle's batched leaf adds plus one rebuild leave the max tree node
# for node where a point add per sample would.
pin_test oc-core segtree::tests::batched_leaf_adds_match_point_adds_node_for_node \
  "batched oracle admission"
# Folding a max composite from set members' values gives every report
# field and series the bits of evaluating each predictor alone.
pin_test oc-core sim::tests::shared_evaluation_matches_each_predictor_alone \
  "shared predictor evaluation"
# Cluster::resize grows 3 -> 4 and shrinks back with both holders of every
# machine serving offline bits (real member processes; own test main).
pin_test oc-cluster resize::grow_and_shrink_keep_both_holders_offline_exact \
  "ring resize"
# SIGKILL, failover and replace on real member processes, driven through
# ClusterClient: a remote member redirects, live owners serve the
# all-alive owner's bits right after the kill, and the replaced member
# ingested nothing, stamps generation 1 and serves offline bits.
pin_test oc-cluster replace::after_a_failover_pass_installs_complete_records \
  "failover and replace"
# The aggregator discards a final line cut off before its newline: a
# truncated SHUTDOWN must not retire the cluster.
pin_test oc-cluster aggregator::tests::a_truncated_final_line_is_not_dispatched \
  "aggregator truncation rule"
# A refused reconnect to a ring member is a death verdict: failover in one
# connect, with no backoff ladder slept on the way.
pin_test oc-client fleet::tests::refused_reconnect_is_a_death_verdict \
  "failover verdict"
# A drained frame of not-mine redirects is progress: the engine re-sends
# at once instead of sleeping a retry nap.
pin_test oc-client cluster::tests::redirect_is_progress_not_a_stall \
  "redirect progress"
# An idle close found where a BATCHR header is due is a reconnect and a
# re-send of the frame, not a protocol error (one frame reader for the
# single-node client and the cluster pipes).
pin_test oc-client client::tests::batched_pipeline_resumes_after_an_idle_close \
  "idle close at a frame header"

# A connected Client holds one socket descriptor (its reader and writer
# share one TcpStream), so 10 000 load-driver connections fit a
# 20 000-descriptor RLIMIT_NOFILE.
pin_test oc-client each_client_holds_one_socket_fd \
  "one descriptor per client"
# The fan-in shape under 5 % chaos with drops loses nothing and fails no
# connection: lost frames are re-sent on fresh connections.
pin_test oc-client loadgen::tests::fanin_survives_chaos_with_reconnects \
  "fan-in under chaos"
# A lane that failed with frames on the wire is settled once: the
# response-timeout sweep neither loses those frames again nor fails it
# a second time.
pin_test oc-client loadgen::tests::a_failed_lane_is_not_lost_again_by_the_timeout_sweep \
  "one settle per failed lane"
# Adopting a smaller ring inside a STATS sweep or a drive goes on over the
# adopted ring instead of indexing the old one.
pin_test oc-client cluster::tests::adopting_a_smaller_ring_mid_drive_restarts_on_it \
  "shrinking adoption"
# A member that is stopped but not killed does not stall the live ones.
pin_test oc-client cluster::tests::a_stopped_member_does_not_stall_the_live_ones \
  "stopped member"
# A member that answers a frame's header and one reply and then stalls
# does not stall the live ones: a partial frame stays buffered and the
# lane goes back to the poller.
pin_test oc-client cluster::tests::a_member_stalled_mid_frame_does_not_stall_the_live_ones \
  "member stalled mid-frame"
# A frame's reply deadline runs from its write: replies trickled one
# line at a time lose the frame at the deadline.
pin_test oc-client client::tests::a_trickled_frame_is_lost_at_its_deadline \
  "reply deadline from the write"
# A poller wait never ends before its timeout, so a due time is due when
# the wait that waited for it returns.
pin_test oc-reactor tests::a_wait_never_ends_before_its_timeout \
  "poller timeout rounding"
# A reply line that is not a response fails the call; the member is not
# marked dead for it.
pin_test oc-client cluster::tests::a_bad_reply_line_is_no_death_verdict \
  "bad reply is no verdict"

# A RINGSET whose ring is too big to build is a parse error, not an
# allocation that aborts the member; it keeps its ring and keeps serving.
pin_test oc-serve conn::tests::oversized_ringset_is_refused_and_the_member_keeps_serving \
  "oversized RINGSET"
# A ring with no vnodes is refused before any member is spawned.
pin_test oc-cluster supervisor::tests::zero_vnodes_is_refused_before_any_spawn \
  "zero-vnode ring"

# Every float the codec writes is the text of format!("{v}") and parses
# back to its bits, over a million values aimed at the traffic and the
# writer's edges.
pin_test oc-serve push_f64_matches_display_across_the_sweep \
  "float writer sweep"
# The one-pass request, header and reply parsers agree with a
# split_ascii_whitespace + str::parse reference, value or error variant.
pin_test oc-serve one_pass_parsers_agree_with_the_reference \
  "parse oracle"
# Encoding and parsing the hot requests and replies allocates nothing
# once the buffers and the scratch are warm.
pin_test oc-serve the_hot_codec_paths_allocate_nothing_when_warm \
  "codec allocations"
# A BATCH header is decided by a line's first token, with the same
# answers (and closes) as a whole-line check.
pin_test oc-serve conn::tests::batch_headers_are_detected_by_their_first_token \
  "batch header detection"

# The loadgen binary's two modes and its verdict: a chaos replay, a
# fan-in and a ring drive exit 0, failed connections exit nonzero,
# --cluster refuses the flags it would ignore, --batch 1 sends one-line
# frames in the fan-in and ring drives, and --chaos-seed needs --chaos.
for t in chaos_replay_exits_zero_with_nothing_lost fanin_over_fifty_connections_exits_zero \
    cluster_mode_drives_a_mirrored_fleet_over_three_members failed_connections_exit_nonzero \
    cluster_mode_refuses_single_address_flags fanin_batch_one_sends_one_line_frames \
    cluster_batch_one_sends_no_batch_frames chaos_seed_without_chaos_is_refused; do
  pin_test oc-client "$t" "loadgen binary ($t)"
done

# A peer that writes its pipeline one byte per write gets every response,
# in order, with every line applied once (partial reads at socket level).
pin_test oc-serve server::tests::byte_at_a_time_writer_gets_every_response_in_order \
  "byte-at-a-time writer"

# A latency tail of seconds keeps its own percentiles: the old 20 ms
# linear range answered p50 == p99 == max once half the mass overflowed.
pin_test oc-serve metrics::tests::heavy_tail_keeps_its_percentiles \
  "heavy-tail percentiles"

# One thread's trace records come back in record order (equal timestamps
# included); a full buffer drops the newest, counts it and records again
# after a drain; a thread recording through repeated drains loses
# nothing uncounted; exited threads' records survive one drain, which
# then forgets their buffers; and trace::finish writes what fit and
# reports the overflow.
for t in one_threads_records_keep_record_order_across_equal_timestamps \
    a_full_buffer_drops_the_newest_and_records_again_after_a_drain \
    a_recording_thread_loses_nothing_to_repeated_drains \
    exited_threads_records_survive_one_drain_that_then_forgets_them \
    finish_writes_what_fit_and_reports_the_overflow; do
  pin_test oc-telemetry "trace::tests::$t" "trace buffer ($t)"
done
# Replaying every A/B machine under its own policy gives its online
# predictions to a 1e-12 relative bound (summation order aside).
pin_test overcommit-repro ab_replay_matches_online_predictions \
  "A/B replay vs online predictions"

cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

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

# repro's output is pinned byte for byte on a cheap quick-scale subset:
# scripts/repro_quick.sha256 holds the sha256 of its stdout (less the
# header line, which names the results dir) and of every CSV it writes
# (output does not depend on --threads). A change to any number, table,
# claim or CSV must re-record the digests and say why in CHANGES.md.
repro_dir="$(mktemp -d)"
trap 'rm -rf "$powercap_dir" "$repro_dir"' EXIT
./target/release/repro --threads 2 --results "$repro_dir" \
    fig1 table1 fig6 fig7b fig8 fig10 fig12 powercap | tail -n +2 >"$repro_dir/stdout.txt" \
  || { echo "tier1: the pinned repro subset failed" >&2; exit 1; }
digests="$PWD/scripts/repro_quick.sha256"
diff <(cd "$repro_dir" && ls | LC_ALL=C sort) <(awk '{print $2}' "$digests" | LC_ALL=C sort) \
  || { echo "tier1: repro wrote other files than $digests lists" >&2; exit 1; }
(cd "$repro_dir" && sha256sum --quiet -c "$digests") \
  || { echo "tier1: repro output differs from $digests" >&2; exit 1; }

# The repo benchmark (benchmark/, BENCHMARK.json) is a package of its own
# that calls the crates' public functions. Build it offline and run every
# workload at smoke size with all correctness gates on (STATS ledger,
# served-vs-offline identity, cache-hit band, fleet::verify, offline-cell
# reference bits), so a product change that breaks a probe's use of the
# API or trips a gate fails here instead of at benchmark time; then check
# the names it prints against BENCHMARK.json and its README.
bash benchmark/run.sh --smoke
bash benchmark/check_names.sh
# A crate dependency edge that reaches the benchmark's lock would make
# run.sh rewrite benchmark/Cargo.lock; the benchmark must build as
# committed.
git diff --exit-code -- benchmark/ \
  || { echo "tier1: building the benchmark changed files under benchmark/" >&2; exit 1; }
