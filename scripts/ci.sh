#!/usr/bin/env bash
# Full CI gate: formatting, clippy (warnings are errors), tests, the
# determinism lint, and an explorer smoke sweep that model-checks the
# protocol invariants. Run locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

# "Byte-identical behaviour" is a cmp against a committed file: every
# explorer digest written below has a twin under results/digests/, and
# Figure 5 one under results/. A change that means to move one (a protocol
# PR) regenerates the twin in the same commit (digests: the same flags plus
# `--digest-out results/digests/<name>.txt`; figures: results/README.md).
same_as_committed() { # fresh file, committed twin under results/
    cmp "$1" "results/$2" || {
        echo "    $1 differs from results/$2: behaviour moved" >&2
        exit 1
    }
    echo "    $1 is byte-identical to results/$2"
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
# Includes check's committed_bench_records_the_pinned_set, which fails when
# the committed BENCH_analysis.json was not regenerated for the current
# pinned mutant set, and pahoehoe's delta_cuts_hot_pair_payload_threefold,
# the >= 3x gate on the delta codec's hot-pair payload.
cargo test --workspace -q

echo "==> determinism lint"
cargo run -p check --bin lint

echo "==> semantic analyzer (workspace must be clean)"
cargo run -p check --release --bin analyze

echo "==> mutation smoke (pinned 13 mutants, kill-rate gate >= 11/13)"
# Surviving mutants print their diff; the binary exits 1 below the gate.
# The record goes under target/: CI never rewrites a committed BENCH file.
cargo run -p check --release --bin mutate -- --smoke --bench-out target/BENCH_analysis.json
python3 -m json.tool target/BENCH_analysis.json > /dev/null

echo "==> invariant explorer (smoke sweep, sequential, + scale spot check)"
cargo run -p check --release --bin explore -- --smoke --scale --digest-out target/digest-seq.txt

echo "==> invariant explorer (smoke sweep, parallel harness)"
cargo run -p check --release --bin explore -- --smoke --scale --workers 2 --digest-out target/digest-par.txt
cmp target/digest-seq.txt target/digest-par.txt
echo "    parallel sweep digest (incl. scale line) is byte-identical to sequential"
same_as_committed target/digest-seq.txt digests/smoke-scale.txt

echo "==> invariant explorer (smoke sweep, delta codec, sequential vs parallel)"
# Two workload rounds under delta coding: every second-round put overwrites
# a key through the XOR-delta stripe path, checked by every invariant.
cargo run -p check --release --bin explore -- --smoke --delta --digest-out target/digest-delta-seq.txt
cargo run -p check --release --bin explore -- --smoke --delta --workers 2 --digest-out target/digest-delta-par.txt
cmp target/digest-delta-seq.txt target/digest-delta-par.txt
echo "    delta-mode parallel sweep digest is byte-identical to sequential"
same_as_committed target/digest-delta-seq.txt digests/smoke-delta.txt

echo "==> invariant explorer (smoke sweep, batched rounds, sequential vs parallel)"
# Every fault spec and preset with an FS's round traffic sent, lost and
# answered one multi-entry message per destination at a time.
cargo run -p check --release --bin explore -- --smoke --batch --digest-out target/digest-batch-seq.txt
cargo run -p check --release --bin explore -- --smoke --batch --workers 2 --digest-out target/digest-batch-par.txt
cmp target/digest-batch-seq.txt target/digest-batch-par.txt
echo "    batched-rounds parallel sweep digest is byte-identical to sequential"
same_as_committed target/digest-batch-seq.txt digests/smoke-batch.txt

echo "==> invariant explorer (smoke sweep + repair scenario families, sequential vs parallel)"
# Four churn families (node churn, rack outage, flash-crowd reads during
# rebuild, throttled repair storm) on a repair-enabled rack-aware cluster,
# checked by the redundancy-floor invariant; the digest lines fold the
# EV_REPAIR_* counters.
cargo run -p check --release --bin explore -- --smoke --repair --digest-out target/digest-repair-seq.txt
cargo run -p check --release --bin explore -- --smoke --repair --workers 2 --digest-out target/digest-repair-par.txt
cmp target/digest-repair-seq.txt target/digest-repair-par.txt
echo "    repair-mode parallel sweep digest is byte-identical to sequential"
same_as_committed target/digest-repair-seq.txt digests/smoke-repair.txt

echo "==> invariant explorer (full 144-scenario sweep; smoke sweep with scale, delta and repair together)"
# The paper-faithful sweep every default-mode digest claim is about, and the
# one run that has every feature's lines in it (the mutation baseline).
cargo run -p check --release --bin explore -- --workers 2 --digest-out target/digest-full.txt
same_as_committed target/digest-full.txt digests/full.txt
cargo run -p check --release --bin explore -- --smoke --scale --delta --repair --workers 2 --digest-out target/digest-smoke-scale-delta-repair.txt
same_as_committed target/digest-smoke-scale-delta-repair.txt digests/smoke-scale-delta-repair.txt

echo "==> paper figure 5 (failure-free; regenerated and compared with results/fig5.txt)"
# The reproduction's own record, checked the way digests are. The other
# four figure sets take ~160 s together and are not run here.
cargo run -p experiments --release --bin fig5 > target/fig5.txt
same_as_committed target/fig5.txt fig5.txt

echo "==> bench scale (smoke, gates equal events per update-* pair, compaction in every compacting cell, and the pinned (events, compacted_entries) of all five cells)"
cargo run -p bench --release --bin scale -- --smoke
python3 -m json.tool target/BENCH_scale.smoke.json > /dev/null

echo "==> benchmark self-checks (BENCHMARK.json vs describe, all four workloads traced and untraced)"
benchmark/check.sh

echo "==> bench schema versions"
for f in BENCH_*.json target/BENCH_*.json; do
    grep -q '"schema_version": 1' "$f" || { echo "    $f schema drift"; exit 1; }
done
echo "    every committed and freshly written BENCH record carries schema_version 1"

if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    echo "==> committed records untouched"
    git diff --exit-code -- 'BENCH_*.json' results/
fi

echo "CI green."
