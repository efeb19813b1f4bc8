#!/usr/bin/env bash
# Fails if the names the benchmark prints (`--list`) differ from those in
# BENCHMARK.json or are missing from README.md, or break the naming rules
# (start with a letter or digit, at most 64 of [A-Za-z0-9_.-], used once)
# or the caps (8 workloads, 16 end-to-end, 128 per-layer metrics).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
listed="$(bash "$here/run.sh" --list)"
LISTED="$listed" python3 - "$here/../BENCHMARK.json" "$here/README.md" <<'PY'
import json, os, re, sys

spec = json.load(open(sys.argv[1]))
readme = open(sys.argv[2]).read()
errors = []

listed = {"workload": [], "end_to_end": [], "per_layer": []}
for line in os.environ["LISTED"].splitlines():
    kind, rest = line.split(" ", 1)
    if kind == "workload":
        name, why = rest.split(" | ", 1)
        listed[kind].append({"name": name, "why": why})
    elif kind == "end_to_end":
        name, unit, better, bound = rest.split()
        listed[kind].append({"name": name, "unit": unit, "better": better, "bound": float(bound)})
    else:
        name, unit, better = rest.split()
        listed[kind].append({"name": name, "unit": unit, "better": better})

for kind, key in (("workload", "workloads"), ("end_to_end", "end_to_end"), ("per_layer", "per_layer")):
    if listed[kind] != spec[key]:
        ours = {json.dumps(x, sort_keys=True) for x in listed[kind]}
        theirs = {json.dumps(x, sort_keys=True) for x in spec[key]}
        for x in sorted(ours - theirs):
            errors.append(f"{key}: printed by --list, not in BENCHMARK.json: {x}")
        for x in sorted(theirs - ours):
            errors.append(f"{key}: in BENCHMARK.json, not printed by --list: {x}")
        if ours == theirs:
            errors.append(f"{key}: same entries, different order")

names = [x["name"] for kind in listed.values() for x in kind]
for name in names:
    if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name):
        errors.append(f"bad name: {name}")
    if f"`{name}`" not in readme:
        errors.append(f"README.md does not define `{name}`")
for name in {n for n in names if names.count(n) > 1}:
    errors.append(f"name used twice: {name}")
for kind, cap in (("workload", 8), ("end_to_end", 16), ("per_layer", 128)):
    if len(listed[kind]) > cap:
        errors.append(f"{len(listed[kind])} {kind} names, cap is {cap}")
for m in listed["end_to_end"]:
    if m["bound"] > 0.25:
        errors.append(f"bound of {m['name']} above 0.25")

for e in errors:
    print("check_names:", e, file=sys.stderr)
if errors:
    sys.exit(1)
print(f"check_names: {len(listed['workload'])} workloads, {len(listed['end_to_end'])} end-to-end "
      f"and {len(listed['per_layer'])} per-layer metrics agree with BENCHMARK.json and README.md")
PY
