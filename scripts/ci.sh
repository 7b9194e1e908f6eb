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
# ... and again with spinning waiters: they interleave differently from the
# default passive parking, and the immediate-successor bypass changes which
# threads park.
run env OMP_WAIT_POLICY=active cargo test -q -p omp4rs --test task_dependences
# Fault injection and cancellation under spinning waiters too: its
# cancel-taskgroup test holds a second team thread in user code while the
# first cancels, and an active waiter interleaves differently.
run env OMP_WAIT_POLICY=active cargo test -q -p omp4rs --test fault_injection
# Task allocation budget: a counting global allocator pins one heap block
# per task (at most 2 per dependent task, 1 per plain one, plus the queues'
# logarithmic growth; none for a one-thread team's included tasks) — named
# explicitly for the same reason; it is its own
# test binary because it installs its own global allocator.
run cargo test -q -p omp4rs --test task_alloc
# Interpreted-object allocation budget: the same kind of counting allocator
# pins the wordcount loop with every key present (at most 1.3 allocations
# per word through `line.split()`, fewer than 0.01 per word already split:
# one block per string, method calls borrowing their arguments).
run cargo test -q -p minipy --test object_alloc
# Worker-pool lifecycle: a panic poisons the region not the pool,
# cancellation, nested regions bypass the pool, hot-team reuse, and
# concurrent masters (full teams, per-team poisoning, exact admission
# charge) — named explicitly for the same reason.
run cargo test -q -p omp4rs --test pool_lifecycle
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
    # reduction, single, task, task-depend x backends x wait policies)
    # completes and reports a finite overhead, and fork/join *scales* — the
    # 8-thread parallel cost floor must stay within --scale-limit multiples
    # of the 1-thread cost (catches serialized dispatch / lost early-leave).
    run cargo run --release -p omp4rs-bench --bin syncbench -- --check --trials 2
    # Resilience contract: a short seeded chaos soak (injected worker panic
    # + injected stall + minimpi rank failures, simultaneously) must finish
    # with zero hangs, zero cascading panics, and exact degradation counts.
    # One client per CPU, and never fewer than 4, so wide hosts soak wide.
    nproc_now=$(nproc)
    run cargo run --release -p omp4rs-bench --bin soak -- --check \
        --clients "$((nproc_now > 4 ? nproc_now : 4))"
    # Task-dependence figure smoke: all three DAG apps in all four modes at a
    # small scale. Its timed runs are one-thread (every task included); one
    # untimed two-thread run per app and mode builds the dependence graph,
    # and the bin exits non-zero if it defers a task it never releases.
    run cargo run --release -p omp4rs-bench --bin figure_tasks -- --scale 0.05
fi

echo
echo "CI green."
