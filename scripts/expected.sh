#!/usr/bin/env sh
# Checks what every experiment binary prints against the committed files
# under expected/, or rewrites those files.
#
# Usage: scripts/expected.sh [--bless]
#
# expected/default/<bin> is the stdout of each exp_* binary with AIM on
# its analytic kernel, expected/aim_marched/<bin> its stdout under
# CROSSROADS_AIM_ANALYTIC=0 (AIM on the stepped march), and
# expected/trace_digest the stdout of trace_digest. The pool and engine
# knobs (CROSSROADS_THREADS, CROSSROADS_SHARD_WORKERS) come from the
# caller's environment: no stdout may depend on them, so ci.sh runs this
# script at several settings against the same files.
#
# Without --bless, a run that fails or prints anything else is reported
# with the binary and the setting, and the script exits non-zero, as it
# does, before building, when expected/default or expected/aim_marched
# holds a file that no exp_* binary writes. With --bless, it rewrites the
# files from this tree's binaries; commit the change with the reason the
# outputs moved.
set -eu

bless=0
case "${1-}" in
--bless) bless=1 ;;
"") ;;
*)
    echo "usage: $0 [--bless]" >&2
    exit 2
    ;;
esac
cd "$(dirname "$0")/.."

if [ "$bless" -eq 0 ]; then
    stale=0
    for file in expected/default/* expected/aim_marched/*; do
        bin=$(basename "$file")
        case $bin in
        exp_*) [ -f "crates/bench/src/bin/$bin.rs" ] && continue ;;
        esac
        echo "FAIL: $file has no matching exp_* binary in crates/bench/src/bin" >&2
        stale=1
    done
    [ "$stale" -eq 0 ] || exit 1
fi

cargo build --release --offline -q -p crossroads-bench --bins
setting=$(env | grep '^CROSSROADS_' | grep -v '^CROSSROADS_AIM_ANALYTIC=' |
    sort | tr '\n' ' ' | sed 's/ $//')
setting=${setting:-no pool or engine knob set}
out=$(mktemp)
trap 'rm -f "$out"' EXIT
if [ "$bless" -eq 1 ]; then
    rm -rf expected
    mkdir -p expected/default expected/aim_marched
fi

runs=0
failed=0
# check NAME FILE COMMAND...: runs COMMAND and compares its stdout with
# FILE, or writes it to FILE under --bless.
check() {
    name=$1
    file=$2
    shift 2
    runs=$((runs + 1))
    if ! "$@" >"$out" 2>/dev/null; then
        echo "FAIL: $name exited non-zero ($setting)" >&2
        failed=$((failed + 1))
    elif [ "$bless" -eq 1 ]; then
        cp "$out" "$file"
    elif ! cmp -s "$file" "$out"; then
        echo "DIFF: $name ($setting) differs from $file" >&2
        diff "$file" "$out" | head -20 >&2 || true
        failed=$((failed + 1))
    fi
}

for bin in $(ls crates/bench/src/bin | sed -n 's/^\(exp_.*\)\.rs$/\1/p'); do
    check "$bin" "expected/default/$bin" \
        env -u CROSSROADS_AIM_ANALYTIC "target/release/$bin"
    check "$bin under CROSSROADS_AIM_ANALYTIC=0" "expected/aim_marched/$bin" \
        env CROSSROADS_AIM_ANALYTIC=0 "target/release/$bin"
done
check trace_digest expected/trace_digest target/release/trace_digest

if [ "$failed" -ne 0 ]; then
    echo "FAIL: $failed of $runs runs failed or differ from expected/ ($setting)" >&2
    exit 1
fi
if [ "$bless" -eq 1 ]; then
    echo "blessed: $runs outputs written to expected/ ($setting)"
else
    echo "identical: $runs outputs match expected/ ($setting)"
fi
