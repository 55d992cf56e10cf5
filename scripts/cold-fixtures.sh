#!/bin/sh
# Cold-fixture check: trains every fixture bundle from scratch at a
# reference revision and in the working tree, and compares the two bundle
# sets byte for byte. A change that keeps training bits must leave every
# cold-trained bundle identical.
#
# Checks out `rev` (default HEAD) with `git worktree add --detach` in a
# temporary directory, builds the tests on both sides, then runs
# `cargo test -q --workspace` in that checkout and in the working tree,
# each with USB_FIXTURE_DIR pointed at its own empty directory, and
# `cmp`s the bundles. Prints the wall time of each test run (the build
# is not timed). Exits non-zero when a test run fails or a bundle
# differs or exists on one side only. The checkout and both fixture
# directories are removed on exit; they live under $TMPDIR (default
# /tmp). Not run in CI, whose fixture cache is keyed on the sources.
#
# Usage: scripts/cold-fixtures.sh [git-rev]
set -eu
cd "$(git rev-parse --show-toplevel)"
tree=$(pwd)
rev=${1:-HEAD}
tmp=$(mktemp -d "${TMPDIR:-/tmp}/cold-fixtures.XXXXXX")
tmp=$(cd "$tmp" && pwd)
cleanup() {
    git worktree remove --force "$tmp/ref" 2>/dev/null || true
    rm -rf "$tmp"
    git worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM
git worktree add -q --detach "$tmp/ref" "$rev"
status=0

# cold NAME DIR LABEL: a cold `cargo test -q --workspace` in DIR, its
# bundles in $tmp/NAME-fixtures. Prints the wall time; a failure sets
# `status`.
cold() {
    mkdir "$tmp/$1-fixtures"
    (cd "$2" && cargo test -q --workspace --no-run) >"$tmp/$1.log" 2>&1 || {
        echo "$3: build failed:" >&2
        tail -n 20 "$tmp/$1.log" >&2
        exit 1
    }
    start=$(date +%s)
    if ! (cd "$2" && USB_FIXTURE_DIR="$tmp/$1-fixtures" cargo test -q --workspace) \
        >>"$tmp/$1.log" 2>&1; then
        echo "$3: cargo test failed:" >&2
        tail -n 30 "$tmp/$1.log" >&2
        status=1
    fi
    echo "$3: cold cargo test -q --workspace: $(($(date +%s) - start)) s"
}

cold ref "$tmp/ref" "$rev"
cold tree "$tree" "working tree"

same=0
for f in $( (ls "$tmp/ref-fixtures"; ls "$tmp/tree-fixtures") | sort -u); do
    a="$tmp/ref-fixtures/$f"
    b="$tmp/tree-fixtures/$f"
    if [ ! -f "$a" ] || [ ! -f "$b" ]; then
        echo "MISSING $f (present at only one side)"
        status=1
    elif cmp -s "$a" "$b"; then
        same=$((same + 1))
    else
        echo "DIFFERS $f"
        status=1
    fi
done
echo "$same bundle(s) identical"
exit "$status"
