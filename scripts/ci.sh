#!/usr/bin/env bash
# Full CI gate, run locally before pushing: formatting, clippy and rustdoc
# (warnings are errors), the workspace tests (the erasure and simnet crates'
# and the pahoehoe key table, chain and store tests again in release), the static
# checker (`analyze`), the mutation smoke (`mutate`,
# each mutant's class compared with BENCH_analysis.json), every
# invariant-explorer suite with its digest compared with
# results/digests/, the paper figures and CSVs compared with results/,
# `pahoehoe-sim` on a benchmark shape compared with results/sim/, the scale
# tier's smoke cells compared with results/scale/, the stand-alone benchmark
# package's self-checks and unit tests, and a check that no committed record
# changed.
set -euo pipefail
cd "$(dirname "$0")/.."

# "Byte-identical behaviour" is a cmp against a committed file: every
# explorer digest written below has a twin under results/digests/, and every
# paper figure's table one under results/. A change that means to move one
# (a protocol PR) regenerates the twin in the same commit (digests:
# `explore --digest-dir results/digests`, no `--workers`; figures:
# results/README.md).
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
# The workspace run above is a debug build; the unsafe bodies in
# erasure::gf::simd — the GFNI affine product kernel (AVX2 + GFNI) and the
# checksum's AVX2 build of its wide body — must also pass their tests under
# the optimizer. They run only where the CPU has those features, so the log
# says which bodies this run exercised.
for feature in avx2 gfni; do
    if grep -qw "$feature" /proc/cpuinfo 2>/dev/null; then
        echo "host has $feature: yes"
    else
        echo "host has $feature: no"
    fi
done
cargo test -p erasure --release -q

echo "==> cargo test -p simnet --release"
# The event queue sits in every workload's hot loop: its oracle proptest
# (pops against a sorted-map model) and the engine's tests run under the
# optimizer too.
cargo test -p simnet --release -q

echo "==> cargo test -p pahoehoe --release (key table, chains, version store)"
# The hash-addressed key table's masks, tags and wrap-around probes run
# under the optimizer in every benchmark; its oracle proptest and the
# chain and store tests run there too.
cargo test -p pahoehoe --release -q --lib -- table:: chain:: fs::

echo "==> static checker (7 token + 5 semantic rules; workspace must be clean)"
cargo run -p check --release --bin analyze

echo "==> mutation smoke (pinned 12 mutants, kill-rate gate >= 10/12)"
# Surviving mutants print their diff; the binary exits 1 below the gate.
# The record goes under target/: CI never rewrites a committed BENCH file.
cargo run -p check --release --bin mutate -- --smoke --bench-out target/BENCH_analysis.json
python3 -m json.tool target/BENCH_analysis.json > /dev/null
# Each pinned mutant must die the way the committed record says (digest,
# invariant or crash), timings aside: a change that moves one regenerates
# the record with `mutate --smoke --bench-out BENCH_analysis.json`.
mutant_classes() { # BENCH_analysis.json -> one "id outcome" line per mutant
    python3 -c 'import json, sys
for o in json.load(open(sys.argv[1]))["outcomes"]:
    print(o["id"], o["outcome"])' "$1"
}
diff <(mutant_classes BENCH_analysis.json) <(mutant_classes target/BENCH_analysis.json) || {
    echo "    a pinned mutant changed class: regenerate BENCH_analysis.json" >&2
    exit 1
}
echo "    every pinned mutant is in its committed class"

echo "==> invariant explorer (every suite, --workers 2)"
# The suites are `check::explorer::suites()`, and a unit test there pins
# their names one-to-one to results/digests/*.txt. The committed digests
# were written by one worker (the default); this runs every suite with two
# and `cmp`s, so one comparison checks both that behaviour did not move and
# that it does not depend on how scenarios were scheduled.
rm -rf target/digests
cargo run -p check --release --bin explore -- --workers 2 --digest-dir target/digests
for committed in results/digests/*.txt; do
    same_as_committed "target/digests/$(basename "$committed")" "digests/$(basename "$committed")"
done

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
# Stdout is a pure function of the flags (host numbers go to stderr), so the
# whole run is pinned, not just the two lines above.
same_as_committed target/pahoehoe-sim-small-put-churn.txt sim/small-put-churn.txt

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
