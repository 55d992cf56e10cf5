#!/bin/sh
# Non-test lines of code: the non-blank lines of every tracked `.rs` file
# under `crates/*/src` and `src/`, each counted up to its first
# `#[cfg(test)]` line. Test suites (`tests/`, `crates/*/tests`), `vendor/`
# and `perfbench/` are not counted. Prints one count per crate (the root
# package as `root`) and the total.
#
# Usage: scripts/nontest-loc.sh [git-rev]   (default: the working tree)
set -eu
cd "$(git rev-parse --show-toplevel)"
rev=${1:-}
if [ -n "$rev" ]; then
    files=$(git ls-tree -r --name-only "$rev" -- crates src)
    show() { git show "$rev:$1"; }
else
    files=$(git ls-files -- crates src)
    show() { cat "$1"; }
fi
for f in $files; do
    case $f in
    crates/*/src/*.rs) crate=${f#crates/}; crate=${crate%%/*} ;;
    src/*.rs) crate=root ;;
    *) continue ;;
    esac
    n=$(show "$f" | awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } NF { n++ } END { print n + 0 }')
    echo "$crate $n"
done | awk '
    { sum[$1] += $2; total += $2 }
    END {
        for (c in sum) printf "%-10s %6d\n", c, sum[c] | "sort"
        close("sort")
        printf "%-10s %6d\n", "total", total
    }'
