#!/usr/bin/env bash
# Full CI gate, run locally before pushing: formatting, clippy and rustdoc
# (warnings are errors), the workspace tests (the erasure crate's again in
# release), the static checker (`analyze`), the mutation smoke (`mutate`),
# five invariant-explorer legs whose digests are compared with
# results/digests/, the paper figures and CSVs compared with results/,
# `pahoehoe-sim` on a benchmark shape, the scale tier's smoke cells compared
# with results/scale/, the stand-alone benchmark package's self-checks and
# unit tests, and a check that no committed record changed.
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
explored_digests=()
explore_mode() { # digest name, then the mode's explore flags
    local name=$1
    shift
    echo "==> invariant explorer ($name: explore $* --workers 2)"
    cargo run -p check --release --bin explore -- "$@" --workers 2 --digest-out "target/digest-$name.txt"
    same_as_committed "target/digest-$name.txt" "digests/$name.txt"
    explored_digests+=("$name")
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings: no broken or private intra-doc links)"
# The vendored dependencies are documented by their own authors, not here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline \
    --exclude proptest --exclude rand --exclude bytes

echo "==> cargo test"
# Includes check's committed_bench_records_the_pinned_set, which fails when
# the committed BENCH_analysis.json was not regenerated for the current
# pinned mutant set.
cargo test --workspace -q

echo "==> cargo test -p erasure --release"
# The workspace run above is a debug build; the codec's unsafe AVX2 kernel
# must also pass its tests under the optimizer.
cargo test -p erasure --release -q

echo "==> static checker (7 token + 5 semantic rules; workspace must be clean)"
cargo run -p check --release --bin analyze

echo "==> mutation smoke (pinned 12 mutants, kill-rate gate >= 10/12)"
# Surviving mutants print their diff; the binary exits 1 below the gate.
# The record goes under target/: CI never rewrites a committed BENCH file.
cargo run -p check --release --bin mutate -- --smoke --bench-out target/BENCH_analysis.json
python3 -m json.tool target/BENCH_analysis.json > /dev/null

# Every fault spec and preset with an FS's round traffic sent, lost and
# answered one multi-entry message per destination at a time. The smoke
# sweep's scenarios are a subset of this one and a digest line depends only
# on its scenario, so no smoke batched leg runs.
explore_mode full-batch --batch

# Two workload rounds: every second-round put overwrites a key that already
# holds a version, checked by every invariant.
explore_mode smoke-overwrite --smoke --overwrite
# The paper-faithful 144-scenario sweep every default-mode digest claim is
# about.
explore_mode full
# The scale cell alone: one Zipf streamed workload under
# ProtocolMode::scale(); like every digest line, its line pins the
# compacted-version count.
explore_mode scale --seeds 0 --scale
# The four repair families alone (node churn, rack outage, flash-crowd
# reads during rebuild, throttled repair storm) on a repair-enabled
# rack-aware cluster, checked by the redundancy-floor invariant; the digest
# lines fold the EV_REPAIR_* counters.
explore_mode repair --seeds 0 --repair
# A committed digest no leg regenerates would go stale unnoticed.
for committed in results/digests/*.txt; do
    name=$(basename "$committed" .txt)
    [[ " ${explored_digests[*]} " == *" $name "* ]] || {
        echo "    $committed has no explore leg that regenerates and compares it" >&2
        exit 1
    }
done
echo "    every digest under results/digests/ was regenerated and compared"

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

echo "==> pahoehoe-sim on the benchmark's small-put-churn shape (200 puts x 256 B)"
# The scenario runner takes the benchmark's cluster shapes, so per-kind
# bytes per put of a benchmark workload need no benchmark patch.
cargo run --release --bin pahoehoe-sim -- --layout 4,2,4 --policy 4,16,4,1 --batch \
    --puts 200 --value-bytes 256 | tee target/pahoehoe-sim-small-put-churn.txt
grep -q "outcome:        PredicateSatisfied" target/pahoehoe-sim-small-put-churn.txt
# A put announces its metadata on two data-center answers only: 28
# StoreMetadata per put on this 4-DC shape (8 KLSs twice, the 12 FSs of the
# earlier DCs once), 56 when every answer was announced.
grep -qE "^StoreMetadataReq +5600 " target/pahoehoe-sim-small-put-churn.txt

echo "==> scale tier (smoke: three pahoehoe-sim cells compared with results/scale/)"
# Also checks that every cell compacted and converged.
scripts/scale.sh --smoke
# A committed cell output no smoke cell regenerates would go stale unnoticed.
for committed in results/scale/*.txt; do
    [[ -f target/scale/smoke/$(basename "$committed") ]] || {
        echo "    $committed has no scale cell that regenerates and compares it" >&2
        exit 1
    }
done
echo "    every file under results/scale/ was regenerated and compared"

echo "==> benchmark self-checks (BENCHMARK.json vs describe, all four workloads traced and untraced)"
benchmark/check.sh

echo "==> benchmark unit tests"
# The stand-alone package has its own workspace, so `cargo test --workspace`
# above does not reach its tests.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> bench schema versions"
for f in BENCH_*.json target/BENCH_analysis.json; do
    grep -q '"schema_version": 1' "$f" || { echo "    $f schema drift"; exit 1; }
done
echo "    every committed and freshly written BENCH record carries schema_version 1"

if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    echo "==> committed records untouched"
    git diff --exit-code -- 'BENCH_*.json' results/
fi

echo "CI green."
