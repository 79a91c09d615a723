#!/usr/bin/env bash
# Non-test source lines of the workspace.
#
# Usage: scripts/loc.sh   (from anywhere; reads the tree it sits in)
#
# For each source directory (`crates/*/src`, then the root `src`) and in
# total, prints the lines of its `.rs` files that sit above each file's
# inline test module, and how many of those are non-blank. An inline test
# module starts at a `#[cfg(test)]` (or `#[cfg(all(test, ...))]`) line
# followed by `mod NAME {`, or by `#[path = ...]` and then `mod NAME;`.
# A `#[cfg(test)] mod NAME;` declaration of an out-of-line module and a
# `#[cfg(test)]` on a single item do not end a file's count. Files under a `tests` directory are test
# code and are skipped. Nothing gates on the numbers; they size a change.
set -euo pipefail

cd "$(dirname "$0")/.."

# Prints "<lines> <non-blank>" for the given files.
count() {
    awk '
        # A file that ended right after a lone `#[cfg(test)]` keeps it.
        function flush() { if (armed) { lines += held; nonblank += held_nb } armed = 0; path = 0 }
        FNR == 1 { flush(); done = 0 }
        done { next }
        {
            line = $0
            sub(/^[ \t]+/, "", line)
            if (armed) {
                if (path && line ~ /^mod [A-Za-z_][A-Za-z0-9_]*[ \t]*;/) { done = 1; armed = 0; next }
                if (!path && line ~ /^mod [A-Za-z_][A-Za-z0-9_]*[ \t]*\{/) { done = 1; armed = 0; next }
                if (!path && line ~ /^#\[path[ \t]*=/) {
                    path = 1
                    held += 1; if (line != "") held_nb += 1
                    next
                }
                # Not a test module: the held lines count after all.
                lines += held; nonblank += held_nb
                armed = 0; path = 0
            }
            if (line ~ /^#\[cfg\((test|all\(test,.*\))\)\][ \t]*$/) {
                armed = 1; held = 1; held_nb = 1
                next
            }
            lines += 1
            if (line != "") nonblank += 1
        }
        END { flush(); printf "%d %d\n", lines, nonblank }
    ' "$@"
}

printf '%-24s %8s %10s\n' directory lines non-blank
total=0
total_nb=0
for dir in crates/*/src src; do
    mapfile -t files < <(find "$dir" -name '*.rs' -not -path '*/tests/*' | sort)
    [ "${#files[@]}" -gt 0 ] || continue
    read -r n nb < <(count "${files[@]}")
    printf '%-24s %8d %10d\n' "$dir" "$n" "$nb"
    total=$((total + n))
    total_nb=$((total_nb + nb))
done
printf '%-24s %8d %10d\n' total "$total" "$total_nb"
