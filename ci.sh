#!/usr/bin/env sh
# Hermetic CI gate: the workspace must build and test fully offline with
# zero registry dependencies. Run from the repo root.
set -eu

cd "$(dirname "$0")"

echo "==> manifest audit: no registry dependencies allowed"
if grep -rn "^rand\|^proptest\|^criterion\|^serde" crates/*/Cargo.toml Cargo.toml; then
    echo "FAIL: registry dependency found in a manifest" >&2
    exit 1
fi
# Any dependency line must be a path dependency on a sibling crate.
if grep -rn '^[a-z0-9_-]* *= *"' crates/*/Cargo.toml | grep -v '^\([^:]*\):[0-9]*:\(name\|version\|edition\|description\|license\|rust-version\|harness\|test\|bench\|path\|doctest\) *='; then
    echo "FAIL: version-only dependency found (use path = ...)" >&2
    exit 1
fi

echo "==> configuration purity: no library crate reads the process environment"
# The experiment knobs are read once, by crossroads_bench at the binary
# edge; crossroads-check keeps its CROSSROADS_CHECK_CASES soak knob.
if grep -rn 'env::var' crates/*/src | grep -v '^crates/\(bench\|check\)/'; then
    echo "FAIL: a library crate reads the process environment" >&2
    exit 1
fi

echo "==> offline release build (library, binary and example targets)"
# --examples is load-bearing: a bare `cargo build` skips example targets,
# which let the five examples/ programs rot silently across refactors.
cargo build --release --offline --workspace --examples

echo "==> offline test suite"
cargo test -q --offline --workspace

echo "==> hermetic library tests (every model knob set)"
# Library constructors ignore the environment, so golden and property
# tests that build their own configs must pass unchanged with every
# experiment knob flipped away from its default.
knobs="CROSSROADS_MIXED=1 CROSSROADS_PLATOON=1 CROSSROADS_SAFETY_FILTER=1"
knobs="$knobs CROSSROADS_AIM_ANALYTIC=0 CROSSROADS_SHARD_WORKERS=2"
env $knobs cargo test -q --offline -p crossroads --test end_to_end --test sim_properties
env $knobs cargo test -q --offline -p crossroads-core --test mixed_traffic

echo "==> offline release build of the benchmark harness (perfbench)"
# perfbench is its own workspace, so the builds above never compile it;
# a library API change that breaks it would otherwise go unnoticed.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> parallel sweep determinism smoke (1 thread vs default)"
# Reduced sweep, timings discarded: stdout must be byte-identical no
# matter how many worker threads run the points.
seq_out=$(mktemp)
par_out=$(mktemp)
trap 'rm -f "$seq_out" "$par_out"' EXIT
# same_stdout MESSAGE: fails with MESSAGE and the diff unless the two
# captured stdouts ($seq_out, $par_out) are byte-identical.
same_stdout() {
    if ! cmp -s "$seq_out" "$par_out"; then
        echo "FAIL: $1" >&2
        diff "$seq_out" "$par_out" >&2 || true
        exit 1
    fi
}
CROSSROADS_SWEEP_FAST=1 CROSSROADS_BENCH_OUT=/dev/null CROSSROADS_THREADS=1 \
    ./target/release/exp_flow_sweep >"$seq_out" 2>/dev/null
CROSSROADS_SWEEP_FAST=1 CROSSROADS_BENCH_OUT=/dev/null \
    ./target/release/exp_flow_sweep >"$par_out" 2>/dev/null
same_stdout "parallel sweep output diverges from the sequential run"

echo "==> fault-injection smoke (reduced grid, 1 thread vs default)"
# Same determinism contract under injected faults: the reduced fault
# sweep (burst x outage grid, all policies) must be byte-identical at
# any pool width, and every point hard-asserts the zero-safety-violation
# invariant internally.
CROSSROADS_SWEEP_FAST=1 CROSSROADS_BENCH_OUT=/dev/null CROSSROADS_THREADS=1 \
    ./target/release/exp_fault_sweep >"$seq_out" 2>/dev/null
CROSSROADS_SWEEP_FAST=1 CROSSROADS_BENCH_OUT=/dev/null \
    ./target/release/exp_fault_sweep >"$par_out" 2>/dev/null
same_stdout "fault sweep output diverges from the sequential run"

echo "==> corridor grid smoke (reduced grid, 1 thread vs default vs 7)"
# The E13 corridor sweep (chained intersections) must route every
# vehicle with clean audits and print byte-identical tables at any
# worker-pool width — each point is a pure function of its config.
CROSSROADS_SWEEP_FAST=1 CROSSROADS_BENCH_OUT=/dev/null CROSSROADS_THREADS=1 \
    ./target/release/exp_grid_sweep >"$seq_out" 2>/dev/null
CROSSROADS_SWEEP_FAST=1 CROSSROADS_BENCH_OUT=/dev/null \
    ./target/release/exp_grid_sweep >"$par_out" 2>/dev/null
same_stdout "grid sweep output diverges from the sequential run"
CROSSROADS_SWEEP_FAST=1 CROSSROADS_BENCH_OUT=/dev/null CROSSROADS_THREADS=7 \
    ./target/release/exp_grid_sweep >"$par_out" 2>/dev/null
same_stdout "grid sweep output diverges on a 7-thread pool"

echo "==> windowed-parallel corridor smoke (1 vs 2 vs 4 vs 7 shard workers)"
# The conservative time-windowed parallel corridor engine must be
# unobservable: routing every corridor of the reduced grid through K
# per-shard event queues on 2, 4 or 7 workers (1 = the serial engine)
# must leave the sweep's stdout byte-identical. Each run is bounded by
# `timeout` (it takes well under a second), so a deadlocked barrier
# fails CI instead of hanging it.
for w in 1 2 4 7; do
    if ! CROSSROADS_SWEEP_FAST=1 CROSSROADS_BENCH_OUT=/dev/null CROSSROADS_SHARD_WORKERS=$w \
        timeout 120 ./target/release/exp_grid_sweep >"$par_out" 2>/dev/null; then
        echo "FAIL: grid sweep on $w shard workers failed or timed out" >&2
        exit 1
    fi
    same_stdout "grid sweep output diverges on $w shard workers"
done

echo "==> flight-recorder trace smoke (replay identity + divergence diff)"
# The trace diff tool must find zero divergences when replaying the same
# points through 1- and 4-thread pools, and must name the first diverging
# record of a deliberately fault-perturbed pair. Its stdout is itself
# deterministic, so two invocations must agree byte for byte.
CROSSROADS_SWEEP_FAST=1 ./target/release/exp_trace_diff >"$seq_out" 2>/dev/null
if ! grep -q "0 divergences" "$seq_out"; then
    echo "FAIL: trace replay reported divergences on identical pairs" >&2
    cat "$seq_out" >&2
    exit 1
fi
if ! grep -q "first divergence at record #" "$seq_out"; then
    echo "FAIL: trace diff failed to localize the perturbed pair" >&2
    cat "$seq_out" >&2
    exit 1
fi
CROSSROADS_SWEEP_FAST=1 ./target/release/exp_trace_diff >"$par_out" 2>/dev/null
same_stdout "exp_trace_diff stdout is nondeterministic"

echo "==> NaN regression gate (metrics stats + JSON export)"
# Percentiles/Summary must never panic on non-finite samples, and the
# JSON writers must emit null (valid JSON) for non-finite values — both
# verified by the metrics crate's regression tests, including a parse of
# the poisoned output with the in-repo reader.
cargo test -q --offline -p crossroads-metrics

echo "==> no-deadlock liveness under faults (pinned regression seeds)"
# Replays the committed fault_liveness.check-regressions corner cases
# before novel cases: no seeded loss/burst/outage pattern may strand a
# vehicle or dirty the safety audit.
cargo test -q --offline -p crossroads-core --test fault_liveness

echo "==> DES engine + contact kernel vs seed-baseline agreement gate"
# Quick mode: benches/des.rs replays randomized schedule/pop
# interleavings on the rewritten queue and the seed's BinaryHeap
# baseline (embedded in the bench), both from an empty queue and from a
# start-schedule prologue that the seed queue schedules up front, and
# the sweep audit against the exhaustive pairwise reference,
# hard-asserting identical transcripts and verdicts. It also gates the
# contact kernel: the sweep audit's skipping march, which clears pairs
# on parallel lanes without marching, must report the plain march's
# contacts at the same instants on full-scale multi-phase traffic over
# all movement pairs at margins 0 and e_long. Timing loops are skipped.
CROSSROADS_SWEEP_FAST=1 cargo bench --offline --bench des -p crossroads-bench

echo "==> AIM analytic-vs-marched kernel agreement gate"
# Quick mode: benches/trajectory.rs hard-asserts that the closed-form
# analytic footprint kernel returns the stepped march's verdict and a
# superset of its tile intervals for every movement and entry mode on
# both testbed geometries, and that its band-table cache is invisible:
# over a spread of cruise speeds on every movement, a reused (warm)
# policy returns the footprints of a fresh (cold) one bit for bit.
# Timing loops are skipped.
CROSSROADS_SWEEP_FAST=1 CROSSROADS_BENCH_OUT=/dev/null \
    cargo bench --offline --bench trajectory -p crossroads-bench

echo "==> marched-oracle differential suite (bounded cases)"
# The randomized contract behind the gate above: verdict equality,
# superset coverage and bounded conservatism against the marched oracle,
# plus the fine-step kinematics oracle for the SpeedProfile closed
# forms. Replays persisted counterexamples, then a bounded fresh batch.
CROSSROADS_CHECK_CASES=16 \
    cargo test -q --offline -p crossroads-core --test analytic_oracle

echo "==> platoon-admission smoke (PAIM sweep at 1/4/7 threads + disabled identity)"
# The platooned sweep (both admission modes, rush-hour wave, IM-crash
# scenario) hard-asserts completion, clean safety audits and a net
# message saving internally; its stdout must stay byte-identical at any
# worker-pool width. Platooning must also be unobservable by default:
# an existing experiment run with CROSSROADS_PLATOON=0 pinned must match
# the flag-unset run byte for byte, which checks the knob reader at the
# binary edge (crossroads_bench::knobs).
CROSSROADS_SWEEP_FAST=1 CROSSROADS_BENCH_OUT=/dev/null CROSSROADS_THREADS=1 \
    ./target/release/exp_platoon_sweep >"$seq_out" 2>/dev/null
for t in 4 7; do
    CROSSROADS_SWEEP_FAST=1 CROSSROADS_BENCH_OUT=/dev/null CROSSROADS_THREADS=$t \
        ./target/release/exp_platoon_sweep >"$par_out" 2>/dev/null
    same_stdout "platoon sweep output diverges on a $t-thread pool"
done
CROSSROADS_SWEEP_FAST=1 CROSSROADS_BENCH_OUT=/dev/null \
    ./target/release/exp_flow_sweep >"$seq_out" 2>/dev/null
CROSSROADS_SWEEP_FAST=1 CROSSROADS_BENCH_OUT=/dev/null CROSSROADS_PLATOON=0 \
    ./target/release/exp_flow_sweep >"$par_out" 2>/dev/null
same_stdout "flow sweep output depends on the unset platoon flag"

echo "==> mixed-traffic smoke (filtered sweep at 1/4/7 threads + disabled identity)"
# The mixed sweep (compliance mixes x execution error, all policies,
# runtime safety filter armed) hard-asserts completion, clean safety
# audits and a nonzero intervention count internally; its stdout must
# stay byte-identical at any worker-pool width. Mixed traffic must also
# be unobservable by default: an existing experiment run with
# CROSSROADS_MIXED=0 pinned must match the flag-unset run byte for byte
# through the same knob reader.
CROSSROADS_SWEEP_FAST=1 CROSSROADS_BENCH_OUT=/dev/null CROSSROADS_THREADS=1 \
    ./target/release/exp_mixed_sweep >"$seq_out" 2>/dev/null
for t in 4 7; do
    CROSSROADS_SWEEP_FAST=1 CROSSROADS_BENCH_OUT=/dev/null CROSSROADS_THREADS=$t \
        ./target/release/exp_mixed_sweep >"$par_out" 2>/dev/null
    same_stdout "mixed sweep output diverges on a $t-thread pool"
done
CROSSROADS_SWEEP_FAST=1 CROSSROADS_BENCH_OUT=/dev/null \
    ./target/release/exp_flow_sweep >"$seq_out" 2>/dev/null
CROSSROADS_SWEEP_FAST=1 CROSSROADS_BENCH_OUT=/dev/null CROSSROADS_MIXED=0 \
    ./target/release/exp_flow_sweep >"$par_out" 2>/dev/null
same_stdout "flow sweep output depends on the unset mixed-traffic flag"

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> rustfmt check"
    cargo fmt --check
else
    echo "==> rustfmt not installed; skipping format check"
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> clippy lint check"
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "==> clippy not installed; skipping lint check"
fi

echo "==> rustdoc check (broken or private intra-doc links fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "CI OK"
