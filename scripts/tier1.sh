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

# Retired names stay retired: each row of scripts/tier1_guards.tsv (its
# header gives the format) fails tier-1 when its ERE matches in its
# scope, when a scope path is missing or when grep errors, so that no
# guard passes by checking nothing.
guard_failed=0
grep_row() { # grep's status sorted: 0 is a hit, 1 nothing, >1 broken
  local s=0
  grep "$@" || s=$?
  case "$s" in 0) hit=1 ;; 1) ;; *) bad=1 ;; esac
}
while IFS=$'\t' read -r mode scope re label; do
  case "$mode" in '' | '#'*) continue ;; esac
  paths=() exempt=() hit=0 bad=0
  for p in $scope; do
    case "$p" in
      '!'*) exempt+=("${p#!}") ;;
      *) [ -e "$p" ] || { echo "tier1: no such path: $p" >&2; bad=1; }; paths+=("$p") ;;
    esac
  done
  [ "${#paths[@]}" -gt 0 ] || bad=1
  case "$mode" in
    file) grep_row -rnHE "${exempt[@]/#/--exclude=}" -e "$re" -- "${paths[@]}" ;;
    code | code-nc)
      strip=''
      [ "$mode" = code-nc ] && strip='s|^[[:space:]]*//.*||'
      for f in "${paths[@]}"; do
        for x in "${exempt[@]}"; do [ "${f##*/}" = "$x" ] && continue 2; done
        text="$(sed -e '/#\[cfg(test)\]/,$d' -e "$strip" "$f")" || { bad=1; continue; }
        grep_row -nHE --label="$f" -e "$re" <<<"$text"
      done ;;
    *) bad=1 ;;
  esac
  [ "$hit" -eq 0 ] || { echo "tier1: $label" >&2; guard_failed=1; }
  [ "$bad" -eq 0 ] || { echo "tier1: guard could not run ($mode, $scope): $label" >&2; guard_failed=1; }
done <scripts/tier1_guards.tsv
[ "$guard_failed" -eq 0 ] || exit 1

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

# Regression tests pinned by name, so a filter or a rename cannot silently
# drop them: run each by its whole path (--exact), require "1 passed".
pin_test() { # <package> <test path>
  local out
  out="$(cargo test -q -p "$1" "$2" -- --include-ignored --exact)" \
    || { echo "tier1: pinned test $1 $2 failed" >&2; exit 1; }
  # A here-string, not a pipe: under pipefail, `grep -q` exiting at the
  # first match can kill a still-writing printf with SIGPIPE and fail a
  # test that passed.
  grep -q "1 passed" <<<"$out" \
    || { echo "tier1: pinned test $1 $2 did not run" >&2; exit 1; }
}
# One row of scripts/tier1_pins.tsv per pinned test, read on fd 3 so that
# no test can read the table from stdin.
while IFS=$'\t' read -r pkg test <&3; do
  case "$pkg" in '' | '#'*) continue ;; esac
  pin_test "$pkg" "$test"
done 3<scripts/tier1_pins.tsv

cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# repro's output is pinned byte for byte on a cheap quick-scale subset:
# scripts/repro_quick.sha256 holds the sha256 of its stdout (less the
# header line, which names the results dir) and of every CSV it writes
# (output does not depend on --threads), powercap's [claim] lines and
# frontier CSV and fig13's A/B tables, claims and CSVs among them. A
# change to any number, table, claim or CSV must re-record the digests
# and say why in CHANGES.md.
repro_dir="$(mktemp -d)"
trap 'rm -rf "$repro_dir"' EXIT
./target/release/repro --threads 2 --results "$repro_dir" \
    fig1 table1 fig6 fig7b fig8 fig10 fig12 powercap fig13 | tail -n +2 >"$repro_dir/stdout.txt" \
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
