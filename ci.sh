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

echo "==> configuration purity: no library crate reads the process environment or holds global state"
# The experiment knobs are read once, by crossroads_bench at the binary
# edge; crossroads-check keeps its CROSSROADS_CHECK_CASES soak knob.
if grep -rn 'env::var' crates/*/src | grep -v '^crates/\(bench\|check\)/'; then
    echo "FAIL: a library crate reads the process environment" >&2
    exit 1
fi
# Nor does any crate but crossroads-check (whose test runner installs
# one panic hook and mutes it, per thread, while a property runs) hold
# process-global state: run statistics travel in each run's outcome,
# not in a static or a thread-local.
if grep -rnE 'thread_local!|static +[A-Z_0-9]+ *: *([a-z_]+::)*(Atomic[A-Za-z0-9]*|Cell|RefCell|Mutex|RwLock|Once|OnceLock|OnceCell|LazyLock)\b|static +mut ' \
    crates/*/src src | grep -v '^crates/check/'; then
    echo "FAIL: a library crate declares process-global state" >&2
    exit 1
fi

echo "==> offline release build (library, binary and example targets)"
# --examples is load-bearing: a bare `cargo build` skips example targets,
# which let the examples/ programs rot silently across refactors.
# With a target flag cargo builds only the targets named, so --bins too.
cargo build --release --offline --workspace --bins --examples

echo "==> offline test suite"
cargo test -q --offline --workspace

echo "==> hermetic library tests (engine and AIM-kernel knobs set)"
# Library constructors ignore the environment, so golden and property
# tests that build their own configs must pass unchanged with every
# experiment knob flipped away from its default.
knobs="CROSSROADS_AIM_ANALYTIC=0 CROSSROADS_SHARD_WORKERS=2"
env $knobs cargo test -q --offline -p crossroads --test end_to_end --test sim_properties
env $knobs cargo test -q --offline -p crossroads-core --test mixed_traffic

echo "==> offline release build of the benchmark harness (perfbench)"
# perfbench is its own workspace, so the builds above never compile it;
# a library API change that breaks it would otherwise go unnoticed.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> experiment outputs against expected/ (default, threads 1/4/7, shard workers 1/2/4/7)"
# Every exp_* binary, on AIM's analytic kernel and on the stepped march,
# and trace_digest must print exactly the committed files under
# expected/ (scripts/expected.sh --bless rewrites them; a file there that
# no exp_* binary writes fails the check), and print them
# at any sweep-pool width and on either corridor engine: the
# windowed-parallel engine at 2, 4 or 7 shard workers, 1 = serial. The
# full grid reaches K = 8, so 7 shard workers on the default pool
# oversubscribe a small host: a round must not wait for a helper the OS
# has not scheduled. `timeout` bounds those runs, so a deadlocked barrier
# fails CI instead of hanging it. Every sweep point hard-asserts
# completion and a clean safety audit. The binaries write nothing but
# stdout, so `git status` must read the same after these runs as before.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    tree_before=$(git status --porcelain)
else
    tree_before=skip
fi
scripts/expected.sh
for t in 1 4 7; do
    CROSSROADS_THREADS=$t scripts/expected.sh
done
for w in 1 2 4 7; do
    if ! CROSSROADS_SHARD_WORKERS=$w timeout 600 scripts/expected.sh; then
        echo "FAIL: expected/ check on $w shard workers failed or timed out" >&2
        exit 1
    fi
done

echo "==> the experiment runs left the working tree as they found it"
if [ "$tree_before" = skip ]; then
    echo "not a git checkout; working-tree check skipped"
else
    changed=$(printf '%s\n' "$tree_before" "$(git status --porcelain)" | sort | uniq -u)
    if [ -n "$changed" ]; then
        echo "FAIL: the expected/ runs changed the working tree (git status --porcelain):" >&2
        echo "$changed" >&2
        exit 1
    fi
fi

echo "==> flight-recorder trace diff (replay identity + divergence localization)"
# exp_trace_diff's committed stdout must report zero divergences when
# replaying the same points through 1- and 4-thread pools, and must name
# the first diverging record of a deliberately fault-perturbed pair.
if ! grep -q "0 divergences" expected/default/exp_trace_diff; then
    echo "FAIL: trace replay reported divergences on identical pairs" >&2
    exit 1
fi
if ! grep -q "first divergence at record #" expected/default/exp_trace_diff; then
    echo "FAIL: trace diff failed to localize the perturbed pair" >&2
    exit 1
fi

echo "==> NaN regression gate (metrics stats + JSON export)"
# Percentiles/Summary must never panic on non-finite samples, and the
# JSON writers must emit null (valid JSON) for non-finite values — both
# verified by the metrics crate's regression tests, including a parse of
# the poisoned output with the crate's test-only JSON reader.
cargo test -q --offline -p crossroads-metrics

echo "==> no-deadlock liveness under faults (pinned regression seeds)"
# Replays the committed fault_liveness.check-regressions corner cases
# before novel cases: no seeded loss/burst/outage pattern may strand a
# vehicle or dirty the safety audit.
cargo test -q --offline -p crossroads-core --test fault_liveness

echo "==> DES engine + contact kernel vs seed-baseline agreement gate"
# benches/des.rs replays randomized schedule/pop interleavings on the
# rewritten queue and the seed's BinaryHeap baseline (embedded in the
# bench), both from an empty queue and from a start-schedule prologue
# that the seed queue schedules up front, and the sweep audit against
# the exhaustive pairwise reference, hard-asserting identical transcripts
# and verdicts. It also gates the contact kernel: the sweep audit's
# skipping march, which clears pairs on parallel lanes without marching,
# must report the plain march's contacts at the same instants on
# full-scale multi-phase traffic over all movement pairs at margins 0
# and e_long. Under `cargo test` the timing loops are skipped.
cargo test --release --offline -p crossroads-bench --bench des

echo "==> AIM analytic-vs-marched kernel agreement gate"
# benches/trajectory.rs hard-asserts that the closed-form analytic
# footprint kernel returns the stepped march's verdict and a superset of
# its tile intervals for every movement and entry mode on both testbed
# geometries, and that its band-table cache is invisible: over a spread
# of cruise speeds on every movement, a reused (warm) policy returns the
# footprints of a fresh (cold) one bit for bit. Under `cargo test` the
# timing loops are skipped.
cargo test --release --offline -p crossroads-bench --bench trajectory

echo "==> marched-oracle differential suite (bounded cases)"
# The randomized contract behind the gate above: verdict equality,
# superset coverage and bounded conservatism against the marched oracle,
# plus the fine-step kinematics oracle for the SpeedProfile closed
# forms. Replays persisted counterexamples, then a bounded fresh batch.
CROSSROADS_CHECK_CASES=16 \
    cargo test -q --offline -p crossroads-core --test analytic_oracle

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
