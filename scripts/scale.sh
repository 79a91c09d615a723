#!/usr/bin/env bash
# The scale tier: streamed-workload cells up to a 100-node, million-key
# Zipf corner, each one `pahoehoe-sim` process stopped by
# `Cluster::run_to_convergence`. A process per cell makes its VmHWM that
# cell's own peak RSS.
#
#   scripts/scale.sh           # the full seven-cell grid (~5 min; big-zipf
#                              # alone peaks at ~1.7 GB: run it alone)
#   scripts/scale.sh --smoke   # five small cells, each stdout compared
#                              # with results/scale/<cell>.txt
#
# Each cell's stdout goes to target/scale/<mode>/<cell>.txt and its
# host line (wall seconds, events per wall-second, peak and steady RSS)
# to <cell>.host beside it. The script exits 1 when a check fails:
#   - an update-* pair reports different events with compaction on and off
#     (compaction is local bookkeeping);
#   - a compacting cell compacted nothing, or a cell did not converge;
#   - full grid: compacted steady-RSS growth from update-small to
#     update-large is not below the uncompacted growth, mid-hot's steady
#     RSS is not under half of mid-uniform's, or big-zipf peaks at 2 GB
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
    "update-small-on ${update[*]} --puts $small --compact --batch"
    "update-small-off ${update[*]} --puts $small --batch"
    "update-large-on ${update[*]} --puts $large --compact --batch"
    "update-large-off ${update[*]} --puts $large --batch"
    "mid-uniform ${mid[*]} --keys $mid_keys --puts $mid_puts --dist uniform --compact --batch"
)
if [[ $mode == full ]]; then
    cells+=(
        "mid-hot ${mid[*]} --keys 100000 --puts 100000 --dist hot:100:900 --compact --batch"
        "big-zipf --layout 5,2,18 --policy 4,20,5,1 --keys 1000000 --puts 1000000 --value-bytes 64 --compact --batch"
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
    if [[ $args == *--compact* && $(field "$name" "compacted entries") == 0 ]]; then
        fail "$name: compaction is on but nothing compacted"
    fi
    if [[ $mode == smoke ]] && ! cmp -s "$out/$name.txt" "results/scale/$name.txt"; then
        fail "$out/$name.txt differs from results/scale/$name.txt: behaviour moved"
    fi
done

for pair in update-small update-large; do
    on=$(field "$pair-on" events) off=$(field "$pair-off" events)
    [[ $on == "$off" ]] || fail "$pair: $on events with compaction on, $off with it off"
done

if [[ $mode == full ]]; then
    steady() { host "$1" steady_rss_bytes; }
    growth_on=$(awk "BEGIN { print $(steady update-large-on) / $(steady update-small-on) }")
    growth_off=$(awk "BEGIN { print $(steady update-large-off) / $(steady update-small-off) }")
    echo "update-heavy steady RSS growth (4x puts): ${growth_on}x compacted vs ${growth_off}x full" >&2
    awk "BEGIN { exit !($growth_on < $growth_off) }" ||
        fail "compaction no longer bends the update-heavy steady-RSS curve"
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
