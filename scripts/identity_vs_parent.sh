#!/usr/bin/env sh
# Byte-identity check against another commit, usually the parent of a
# change that must not alter any experiment output.
#
# Usage: scripts/identity_vs_parent.sh <git-ref>
#
# Exports <git-ref> with `git archive` into a temporary directory (no
# worktree metadata is left behind), builds it and this tree offline in
# release mode, then runs every exp_* binary of this tree on both builds
# in reduced mode (CROSSROADS_SWEEP_FAST=1, BENCH_sweep.json discarded).
# Each binary runs at CROSSROADS_THREADS 1, 4 and 7, at
# CROSSROADS_SHARD_WORKERS 1, 2, 4 and 7, with each model knob flipped
# alone (CROSSROADS_PLATOON=1, CROSSROADS_MIXED=1,
# CROSSROADS_SAFETY_FILTER=1, CROSSROADS_AIM_ANALYTIC=0), and with
# platoons and mixed traffic together (CROSSROADS_PLATOON=1 and
# CROSSROADS_MIXED=1: followers, humans and the filter interact only
# there), and each pair of stdouts is compared with `cmp`. It also
# copies this tree's trace_digest program into the exported tree, so
# both builds print flight-recorder digests of the same 24 traced
# corridors, and compares those two stdouts. Exits non-zero if any run
# fails or any pair differs; prints the first lines of each difference.
set -eu

if [ "$#" -ne 1 ]; then
    echo "usage: $0 <git-ref>" >&2
    exit 2
fi
ref=$1
cd "$(dirname "$0")/.."
if ! git rev-parse --verify --quiet "$ref^{commit}" >/dev/null; then
    echo "FAIL: $ref does not name a commit" >&2
    exit 2
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base" "$work/out"
git archive "$ref" | tar -x -C "$work/base"
cp crates/bench/src/bin/trace_digest.rs "$work/base/crates/bench/src/bin/"

echo "==> building this tree (offline, release)"
cargo build --release --offline --workspace --bins -q
echo "==> building $ref (offline, release)"
(cd "$work/base" && cargo build --release --offline --workspace --bins -q)

bins=$(ls crates/bench/src/bin | sed -n 's/^\(exp_.*\)\.rs$/\1/p')
settings="CROSSROADS_THREADS=1 CROSSROADS_THREADS=4 CROSSROADS_THREADS=7
CROSSROADS_SHARD_WORKERS=1 CROSSROADS_SHARD_WORKERS=2
CROSSROADS_SHARD_WORKERS=4 CROSSROADS_SHARD_WORKERS=7
CROSSROADS_PLATOON=1 CROSSROADS_MIXED=1 CROSSROADS_SAFETY_FILTER=1
CROSSROADS_AIM_ANALYTIC=0 CROSSROADS_PLATOON=1+CROSSROADS_MIXED=1"

# run BINARY SETTING OUT: one reduced run of BINARY with only SETTING
# (one assignment, or several joined by '+') among the pool, shard and
# model knobs set, stdout to OUT.
run() {
    # shellcheck disable=SC2046 # split SETTING into its assignments
    env -u CROSSROADS_THREADS -u CROSSROADS_SHARD_WORKERS \
        -u CROSSROADS_PLATOON -u CROSSROADS_MIXED \
        -u CROSSROADS_SAFETY_FILTER -u CROSSROADS_AIM_ANALYTIC \
        CROSSROADS_SWEEP_FAST=1 CROSSROADS_BENCH_OUT=/dev/null \
        $(echo "$2" | tr + ' ') "$1" >"$3" 2>/dev/null
}

compared=0
failed=0
for bin in $bins; do
    if [ ! -x "$work/base/target/release/$bin" ]; then
        echo "FAIL: $ref has no $bin" >&2
        failed=$((failed + 1))
        continue
    fi
    for setting in $settings; do
        compared=$((compared + 1))
        if ! run "target/release/$bin" "$setting" "$work/out/new"; then
            echo "FAIL: $bin ($setting) exited non-zero on this tree" >&2
            failed=$((failed + 1))
            continue
        fi
        if ! run "$work/base/target/release/$bin" "$setting" "$work/out/base"; then
            echo "FAIL: $bin ($setting) exited non-zero on $ref" >&2
            failed=$((failed + 1))
            continue
        fi
        if cmp -s "$work/out/base" "$work/out/new"; then
            echo "ok   $bin ($setting)"
        else
            echo "DIFF $bin ($setting)" >&2
            diff "$work/out/base" "$work/out/new" | head -20 >&2 || true
            failed=$((failed + 1))
        fi
    done
done

# The digest program reads no knobs, so one run of each build suffices.
digests=0
if ! target/release/trace_digest >"$work/out/new" 2>/dev/null; then
    echo "FAIL: trace_digest exited non-zero on this tree" >&2
    failed=$((failed + 1))
elif ! "$work/base/target/release/trace_digest" >"$work/out/base" 2>/dev/null; then
    echo "FAIL: trace_digest exited non-zero on $ref" >&2
    failed=$((failed + 1))
elif cmp -s "$work/out/base" "$work/out/new"; then
    digests=$(wc -l <"$work/out/new" | tr -d ' ')
    echo "ok   trace_digest ($digests traced corridors)"
else
    echo "DIFF trace_digest" >&2
    diff "$work/out/base" "$work/out/new" | head -20 >&2 || true
    failed=$((failed + 1))
fi

if [ "$failed" -ne 0 ]; then
    echo "FAIL: $failed comparisons against $ref differ or failed" >&2
    exit 1
fi
echo "identical: all $compared comparisons and $digests trace digests against $ref"
