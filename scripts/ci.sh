#!/usr/bin/env bash
# Local CI: everything a PR must pass, in the order it usually fails.
#
#   ./scripts/ci.sh            # full gate
#   SKIP_SLOW=1 ./scripts/ci.sh  # skip the release build (debug test run only)
set -euo pipefail

cd "$(dirname "$0")/.."

run() {
    echo
    echo "==> $*"
    "$@"
}

if [[ -z "${SKIP_SLOW:-}" ]]; then
    run cargo build --release
fi
run cargo test -q
# Test-order independence: tests that share process-global state must hold
# the guard their siblings take, whatever the scheduling. Run the whole
# workspace serially and at a high thread count; either run failing fails CI.
run cargo test -q --workspace -- --test-threads=1
run cargo test -q --workspace -- --test-threads=8
# ... and in shuffled order, for three fixed seeds so a failure replays.
# libtest's `--shuffle-seed` is unstable; RUSTC_BOOTSTRAP lets the stable
# toolchain's test harness accept it. Build once, then run each seed.
run env RUSTC_BOOTSTRAP=1 cargo test -q --workspace --no-run
for seed in 1 2 3; do
    run env RUSTC_BOOTSTRAP=1 cargo test -q --workspace -- -Z unstable-options --shuffle-seed "$seed"
done
# Bytecode-VM equivalence: both differential suites named explicitly so a
# test-filter or package-list change can never silently drop them. Each
# holds the VM (quickened opcodes, inline caches, unboxed registers, fused
# range loops) to the tree-walker oracle.
run cargo test -q -p minipy --test vm_differential
run cargo test -q -p omp4rs-apps --test vm_differential
# Task-dependence runtime: depgraph ordering (chain/diamond/WAR-WAW),
# child-scoped taskwait, observable priority, taskgroup cancellation and
# deadlines, the dep-release fault site, and the seeded chaos accounting
# invariant (deferred == released) — named explicitly for the same reason.
run cargo test -q -p omp4rs --test task_dependences
# Shard-geometry matrix: the pool lifecycle invariants (panic poisons the
# region not the pool, cancellation, pool-off bypass, hot-team reuse) must
# hold under every shard count, and the single-shard legacy-shape test only
# runs in a SHARDS=1 process (shard count freezes at first dispatch, so each
# geometry needs its own process).
for shards in 1 2 4 8; do
    run env OMP4RS_POOL_SHARDS="$shards" cargo test -q -p omp4rs --test pool_lifecycle
done
run cargo fmt --check
run cargo clippy --workspace --all-targets -- -D warnings
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
# Documentation drift: every env var read and counter published must be
# documented (docs/ENVIRONMENT.md, docs/OBSERVABILITY.md).
run ./scripts/check_docs.sh

if [[ -z "${SKIP_SLOW:-}" ]]; then
    # Profiled smoke run: the walkthrough example must produce valid traces
    # (it validates them itself and panics otherwise).
    run cargo run --release --example profiling
    # Profiler overhead contract: a disabled profiler records zero events,
    # an enabled one produces a Chrome trace that passes the validator, the
    # lossy overflow policies report their drops (stats + trace footer), and
    # the block policy loses nothing.
    run cargo run --release -p omp4rs-bench --bin overhead -- --check
    # Construct-overhead contract: every syncbench cell (parallel, barrier,
    # reduction, single, task x backends x wait policies) completes and
    # reports a finite overhead, and fork/join *scales* — the 8-thread
    # parallel cost floor must stay within --scale-limit multiples of the
    # 1-thread cost (catches serialized dispatch / lost early-leave).
    run cargo run --release -p omp4rs-bench --bin syncbench -- --check --trials 2
    # Resilience contract: a short seeded chaos soak (injected worker panic
    # + injected stall + minimpi rank failures, simultaneously) must finish
    # with zero hangs, zero cascading panics, and exact degradation counts.
    run cargo run --release -p omp4rs-bench --bin soak -- --check
    # Task-dependence figure smoke: all three DAG apps in all four modes at a
    # small scale; the bin itself brackets the omp4rs.task.dep.* counters, so
    # a stranded successor (deferred != released) shows up in its output.
    run cargo run --release -p omp4rs-bench --bin figure_tasks -- --scale 0.05
fi

echo
echo "CI green."
