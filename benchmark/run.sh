#!/usr/bin/env bash
# The benchmark's entry point: builds the package from source (a no-op
# after the first call) and runs it. BENCHMARK.json names this script.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh --smoke | layers | --list | reference <seed>
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$target/release/oc-benchmark" "$@" --out "$here/out"
