#!/usr/bin/env bash
# Smoke pass: every workload, untraced and traced, at 1/50 of the frozen op
# counts (under 15 s once built). Checks that BENCHMARK.json is what the
# metric tables generate, and that each run's last line is the JSON object
# the driver expects, with exactly the metric names and units of
# BENCHMARK.json. It checks the plumbing, not the numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}

bench describe | diff -u BENCHMARK.json - || {
    echo "BENCHMARK.json differs from 'describe': regenerate it" >&2
    exit 1
}

for workload in blob-ingest small-put-churn fault-recovery archive-readback; do
    for trace in 0 1; do
        bench run --workload "$workload" --seed 42 --seconds 20 --trace "$trace" --ops-div 50 |
            tail -n 1 |
            python3 -c '
import json, math, sys
trace, workload = sys.argv[1], sys.argv[2]
spec = json.load(open("BENCHMARK.json"))
want = {m["name"]: m["unit"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
got = json.loads(sys.stdin.read())
assert sorted(got) == ["attempted", "correct", "failed", "metrics"], sorted(got)
assert got["correct"] is True, "output checks failed"
assert isinstance(got["attempted"], int) and got["attempted"] >= 1
assert got["failed"] == 0, got["failed"]
units = {name: m["unit"] for name, m in got["metrics"].items()}
assert units == want, set(units) ^ set(want)
for name, m in got["metrics"].items():
    assert sorted(m) == ["unit", "value"], (name, m)
    assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
print(f"ok {workload} trace={trace}: {len(units)} metrics")
' "$trace" "$workload"
    done
done
