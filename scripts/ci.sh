#!/usr/bin/env bash
# Full CI gate: formatting, clippy (warnings are errors), tests, the
# determinism lint, and an explorer smoke sweep that model-checks the
# protocol invariants. Run locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

# "Byte-identical behaviour" is a cmp against a committed file: every
# explorer digest written below has a twin under results/digests/, and every
# paper figure's table one under results/. A change that means to move one
# (a protocol PR) regenerates the twin in the same commit (digests: the same
# flags plus `--digest-out results/digests/<name>.txt`, no `--workers`;
# figures: results/README.md).
same_as_committed() { # fresh file, committed twin under results/
    cmp "$1" "results/$2" || {
        echo "    $1 differs from results/$2: behaviour moved" >&2
        exit 1
    }
    echo "    $1 is byte-identical to results/$2"
}

# One explorer mode. The committed digests were written by one worker
# (the default); this runs the mode with two and `cmp`s, so one comparison
# checks both that behaviour did not move and that it does not depend on
# how scenarios were scheduled.
explore_mode() { # digest name, then the mode's explore flags
    local name=$1
    shift
    echo "==> invariant explorer ($name: explore $* --workers 2)"
    cargo run -p check --release --bin explore -- "$@" --workers 2 --digest-out "target/digest-$name.txt"
    same_as_committed "target/digest-$name.txt" "digests/$name.txt"
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
# Includes check's committed_bench_records_the_pinned_set, which fails when
# the committed BENCH_analysis.json was not regenerated for the current
# pinned mutant set.
cargo test --workspace -q

echo "==> determinism lint"
cargo run -p check --bin lint

echo "==> semantic analyzer (workspace must be clean)"
cargo run -p check --release --bin analyze

echo "==> mutation smoke (pinned 12 mutants, kill-rate gate >= 10/12)"
# Surviving mutants print their diff; the binary exits 1 below the gate.
# The record goes under target/: CI never rewrites a committed BENCH file.
cargo run -p check --release --bin mutate -- --smoke --bench-out target/BENCH_analysis.json
python3 -m json.tool target/BENCH_analysis.json > /dev/null

echo "==> invariant explorer (batched smoke sweep, one worker)"
cargo run -p check --release --bin explore -- --smoke --batch --digest-out target/digest-one-worker.txt
# Every fault spec and preset with an FS's round traffic sent, lost and
# answered one multi-entry message per destination at a time.
explore_mode smoke-batch --smoke --batch
# The one explicit pair: one worker against two, fresh from the same build.
cmp target/digest-one-worker.txt target/digest-smoke-batch.txt
echo "    two-worker sweep digest is byte-identical to one-worker"

# Two workload rounds: every second-round put overwrites a key that already
# holds a version, checked by every invariant.
explore_mode smoke-overwrite --smoke --overwrite
# The paper-faithful 144-scenario sweep every default-mode digest claim is
# about.
explore_mode full
# The scale-tier spot check alone: one Zipf streamed workload under
# ProtocolMode::scale(); its line pins the compacted-version count.
explore_mode scale --seeds 0 --scale
# Four churn families (node churn, rack outage, flash-crowd reads during
# rebuild, throttled repair storm) on a repair-enabled rack-aware cluster,
# checked by the redundancy-floor invariant; the digest lines fold the
# EV_REPAIR_* counters.
explore_mode repair --seeds 0 --repair

echo "==> paper figures (regenerated and compared with results/*.txt and *.csv)"
# The reproduction's own record, checked the way digests are: Figure 5 is
# failure-free and takes 5 s; the other four take ~160 s together on two
# cores. A PR that moves the default protocol mode regenerates the
# committed files in the same commit (results/README.md). The CSVs are what
# the paper-claims test (crates/experiments/tests/paper_claims.rs) reads.
mkdir -p target/figures
for figure in fig5 fig6_7 fig8 fig9 ablations; do
    (cd target/figures && cargo run -p experiments --release --bin "$figure" -- --csv > "$figure.txt")
    same_as_committed "target/figures/$figure.txt" "$figure.txt"
done
for csv in target/figures/*.csv; do
    same_as_committed "$csv" "$(basename "$csv")"
done

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
