#!/usr/bin/env bash
# The scale tier: streamed-workload cells up to a 100-node, million-key
# Zipf corner, each one `pahoehoe-sim` process stopped by
# `Cluster::run_to_convergence`. A process per cell makes its VmHWM that
# cell's own peak RSS.
#
#   scripts/scale.sh           # the full five-cell grid (~5 min; big-zipf
#                              # alone peaks at ~1.6 GB: run it alone)
#   scripts/scale.sh --smoke   # three small cells, each stdout compared
#                              # with results/scale/<cell>.txt
#
# Each cell's stdout goes to target/scale/<mode>/<cell>.txt and its
# host line (wall seconds, events per wall-second, peak and steady RSS)
# to <cell>.host beside it. Every cell overwrites keys, so every cell
# compacts. The script exits 1 when a check fails:
#   - a cell compacted nothing, or did not converge;
#   - full grid: steady RSS grows 3x or more from update-small to
#     update-large (4x the puts over the same keys), mid-hot's steady RSS
#     is not under half of mid-uniform's, or big-zipf peaks at 2 GB
#     (2 x 10^9 B) or more;
#   - smoke: a cell's stdout differs from its committed twin. A change
#     that means to move behaviour regenerates results/scale/ in the same
#     commit (results/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

case "${1-}" in
    --smoke) mode=smoke ;;
    "") mode=full ;;
    *)
        echo "usage: scripts/scale.sh [--smoke]" >&2
        exit 2
        ;;
esac

# The update-heavy quadrant: 4 KiB Zipf-1.1 puts over 1 000 keys on the
# paper's cluster, at two put counts. The mid cells: 256 B puts on four
# data centers of two KLSs and four FSs, one fragment of 16 per FS.
update=(--keys 1000 --value-bytes 4096)
mid=(--layout 4,2,4 --policy 4,16,4,1 --value-bytes 256)
if [[ $mode == smoke ]]; then
    small=2000 large=8000 mid_keys=50000 mid_puts=20000
else
    small=20000 large=80000 mid_keys=100000 mid_puts=100000
fi
cells=(
    "update-small ${update[*]} --puts $small --batch"
    "update-large ${update[*]} --puts $large --batch"
    "mid-uniform ${mid[*]} --keys $mid_keys --puts $mid_puts --dist uniform --batch"
)
if [[ $mode == full ]]; then
    cells+=(
        "mid-hot ${mid[*]} --keys 100000 --puts 100000 --dist hot:100:900 --batch"
        "big-zipf --layout 5,2,18 --policy 4,20,5,1 --keys 1000000 --puts 1000000 --value-bytes 64 --batch"
    )
fi

cargo build --release -q --bin pahoehoe-sim
out=target/scale/$mode
rm -rf "$out"
mkdir -p "$out"

failures=0
fail() {
    echo "scale: $*" >&2
    failures=$((failures + 1))
}
# A line of a cell's stdout, and a key of its host line.
field() { sed -n "s/^$2: *//p" "$out/$1.txt"; }
host() { tr ' ' '\n' < "$out/$1.host" | sed -n "s/^$2=//p"; }

for cell in "${cells[@]}"; do
    read -r name args <<< "$cell"
    # shellcheck disable=SC2086 # the cell's flags split on spaces
    target/release/pahoehoe-sim $args > "$out/$name.txt" 2> "$out/$name.host"
    printf '  %-17s %9s events %7s compacted  %7.1f s  %9.0f events/s  peak %5d MB  steady %5d MB\n' \
        "$name" "$(field "$name" events)" "$(field "$name" "compacted entries")" \
        "$(host "$name" wall_s)" "$(host "$name" events_per_wall_s)" \
        $(($(host "$name" peak_rss_bytes) >> 20)) $(($(host "$name" steady_rss_bytes) >> 20)) >&2
    [[ $(field "$name" outcome) == PredicateSatisfied ]] || fail "$name did not converge"
    [[ $(field "$name" "compacted entries") != 0 ]] || fail "$name compacted nothing"
    if [[ $mode == smoke ]] && ! cmp -s "$out/$name.txt" "results/scale/$name.txt"; then
        fail "$out/$name.txt differs from results/scale/$name.txt: behaviour moved"
    fi
done

if [[ $mode == full ]]; then
    steady() { host "$1" steady_rss_bytes; }
    # Without compaction the state grows with the puts (3.96x at 4x the
    # puts when the grid last ran an uncompacted pair); with it, with the
    # live versions.
    growth=$(awk "BEGIN { print $(steady update-large) / $(steady update-small) }")
    echo "update-heavy steady RSS growth (4x puts): ${growth}x" >&2
    awk "BEGIN { exit !($growth < 3) }" ||
        fail "update-heavy steady RSS grew ${growth}x for 4x the puts (bound: under 3x)"
    hot=$(steady mid-hot) uniform=$(steady mid-uniform)
    ((2 * hot < uniform)) ||
        fail "mid-hot steady RSS $hot B is not under half of mid-uniform's $uniform B"
    big=$(host big-zipf peak_rss_bytes)
    ((big < 2000000000)) ||
        fail "big-zipf peak RSS $big B is not under 2 GB (2 x 10^9 B)"
fi

if ((failures > 0)); then
    exit 1
fi
echo "scale ($mode): every check passed; outputs under $out" >&2
