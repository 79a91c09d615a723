#!/usr/bin/env bash
# Parent-vs-working-tree benchmark in alternating pairs (choosing-metrics §8).
#
#   scripts/bench_pairs.sh <parent-ref> [--pairs 10] [--workload W] [--seed S | --seeds "S1 S2 ..."]
#
# Unpacks the parent's committed files (`git archive`, as the driver runs
# them) under target/bench_pairs/, gives each side its own CARGO_TARGET_DIR,
# and runs the BENCHMARK.json command on both, untraced, --pairs times per
# workload, alternating which side goes first. Prints, per workload and
# end-to-end metric: both medians, both quartile pairs, the pairs each side
# won (ties count for neither), whether the medians differ by more than the
# parent's own interquartile distance, and the metric's verdict against its
# BENCHMARK.json `bound` (choosing-metrics §6.5): `regression` when the
# change's median is worse than the parent's by more than the bound,
# `unresolved` when the parent's own quartile spread is wider than the bound
# and not every change run beats every parent run, else `within bound`. With
# --seeds it runs the pairs once per seed, prints one such table per workload
# and seed, and then one row per workload and metric counting the seeds on
# which the change's median was better, worse or the same, so that a claim
# can be checked on a seed not used while writing it (choosing-metrics §6.3).
# Every run's JSON line is kept in target/bench_pairs/runs.jsonl, and
# scripts/bench_pairs_report.py prints the tables from it. After the last
# table the script exits 1 when any workload and metric reads `regression` or
# the change has more failed ops or checks than the parent, else 0. Reads
# BENCHMARK.json; edits nothing under benchmark/.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n '2,5p' "$0" >&2
    exit 2
}

[ $# -ge 1 ] || usage
parent_ref=$1
shift
pairs=10 only_workload="" seeds=42
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
    --pairs) pairs=$2 ;;
    --workload) only_workload=$2 ;;
    --seed | --seeds) seeds=$2 ;;
    *) usage ;;
    esac
    shift 2
done
read -ra seeds <<<"$seeds"
[ ${#seeds[@]} -ge 1 ] || usage

root=$PWD
out=$root/target/bench_pairs
sha=$(git rev-parse --verify "$parent_ref^{commit}")
parent_dir=$out/parent-${sha:0:12}
mkdir -p "$out"
if [ ! -d "$parent_dir" ]; then
    mkdir -p "$parent_dir"
    git archive "$sha" | tar -x -C "$parent_dir"
fi

# The benchmark command and the workload names come from the working tree's
# BENCHMARK.json (a change that claims a gain may not edit it, so the
# parent's is the same).
mapfile -t command < <(python3 -c '
import json
print(*json.load(open("BENCHMARK.json"))["command"], sep="\n")')
if [ -n "$only_workload" ]; then
    workloads=("$only_workload")
else
    mapfile -t workloads < <(python3 -c '
import json
print(*[w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]], sep="\n")')
fi

# One run of one side: the last line of the command's output is the JSON
# object the driver reads.
run_side() { # side dir workload pair seed
    local line
    line=$(cd "$2" && CARGO_TARGET_DIR=$out/target-$1 \
        "${command[@]}" --workload "$3" --seed "$5" | tail -n 1)
    printf '{"side": "%s", "workload": "%s", "pair": %d, "seed": %d, "result": %s}\n' \
        "$1" "$3" "$4" "$5" "$line" >>"$runs"
}

runs=$out/runs.jsonl
: >"$runs"
echo "building parent ${sha:0:12} and the working tree ..." >&2
(cd "$parent_dir" && CARGO_TARGET_DIR=$out/target-parent \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
CARGO_TARGET_DIR=$out/target-change \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

for seed in "${seeds[@]}"; do
    for workload in "${workloads[@]}"; do
        for pair in $(seq 1 "$pairs"); do
            if [ $((pair % 2)) -eq 1 ]; then
                run_side parent "$parent_dir" "$workload" "$pair" "$seed"
                run_side change "$root" "$workload" "$pair" "$seed"
            else
                run_side change "$root" "$workload" "$pair" "$seed"
                run_side parent "$parent_dir" "$workload" "$pair" "$seed"
            fi
            echo "  seed $seed, $workload: pair $pair/$pairs done" >&2
        done
    done
done

python3 scripts/bench_pairs_report.py "$runs"
