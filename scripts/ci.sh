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

# Run a command that must exit with status $1.
run_expecting() {
    local want=$1 got=0
    shift
    echo
    echo "==> $* (must exit $want)"
    "$@" || got=$?
    if [[ $got -ne $want ]]; then
        echo "expected exit status $want, got $got" >&2
        exit 1
    fi
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
# pins the wordcount loop with every key present (at most 0.3 allocations
# per word through `line.split()` for words of up to 22 bytes, which live
# inline, and 1.3 for longer ones, one heap block each; fewer than 0.01 per
# word already split: method calls borrow their arguments).
run cargo test -q -p minipy --test object_alloc
# Interpreted-object lock budget: with stats armed, the same loop takes
# exactly two object locks per word (the dict's read and write; a list only
# the loop holds is iterated owned, with no lock per step), in both tiers,
# and its warm VM loop runs seven ops with one inline-cache hit per word —
# its own test binary because stats are process-global.
run cargo test -q -p minipy --test object_locks
# Worker-pool lifecycle: a panic poisons the region not the pool,
# cancellation, nested regions bypass the pool, hot-team reuse, and
# concurrent masters (full teams, per-team poisoning, exact admission
# charge) — named explicitly for the same reason.
run cargo test -q -p omp4rs --test pool_lifecycle
# Region deadlines and admission control: a stalled barrier becomes a typed
# RegionTimeout (the runtime's one stall bound) and the pool serves the next
# region, a saturated pool sheds to serial, deadlines leave healthy regions
# and user panics alone — named explicitly for the same reason; this suite
# is the only home of the deadline and admission contract.
run cargo test -q -p omp4rs --test resilience
# Trace pipeline: exact drop-newest counts on tiny rings (live and exited
# threads), the drop counter in stats and trace footer, and the flusher
# lifecycle around finalize — named explicitly for the same reason.
run cargo test -q -p omp4rs-apps --test trace_pipeline
run cargo fmt --check
run cargo clippy --workspace --all-targets -- -D warnings
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
# Documentation drift: every env var read and counter published must be
# documented (docs/ENVIRONMENT.md, docs/OBSERVABILITY.md), and no current
# document may name a knob the code no longer reads.
run ./scripts/check_docs.sh

if [[ -z "${SKIP_SLOW:-}" ]]; then
    # Profiled smoke run: the walkthrough example must produce valid traces
    # (it validates them itself and panics otherwise).
    run cargo run --release --example profiling
    # Profiler overhead contract: a disabled profiler records zero events,
    # an enabled one produces a Chrome trace that passes the validator, and
    # a tiny ring with the flusher paused reports its drop-newest drops in
    # both the stats and the trace footer.
    run cargo run --release -p omp4rs-bench --bin overhead -- --check
    # Construct-overhead contract: every syncbench cell (parallel, barrier,
    # reduction, single, task, task-depend x backends x wait policies)
    # completes and reports a finite overhead, and fork/join *scales* — the
    # 8-thread parallel cost floor must stay within --scale-limit multiples
    # of the 1-thread cost (catches serialized dispatch / lost early-leave).
    run cargo run --release -p omp4rs-bench --bin syncbench -- --check --trials 2
    # Resilience contract: a short seeded chaos soak (injected worker panic
    # + injected stall under a region deadline + a silenced minimpi rank in
    # a timed allreduce, simultaneously) must finish with zero hangs, zero
    # cascading panics, exact degradation counts, and a typed MpiError on
    # every rank of the dead-rank collective.
    # One client per CPU, and never fewer than 4, so wide hosts soak wide.
    nproc_now=$(nproc)
    run cargo run --release -p omp4rs-bench --bin soak -- --check \
        --clients "$((nproc_now > 4 ? nproc_now : 4))"
    # Task-dependence figure smoke: all three DAG apps in all four modes at a
    # small scale. Its timed runs are one-thread (every task included); one
    # untimed two-thread run per app and mode builds the dependence graph,
    # and the bin exits non-zero if it defers a task it never releases.
    run cargo run --release -p omp4rs-bench --bin figure_tasks -- --scale 0.05
    # Artifact CLI smoke: `main` runs one figure cell (the sizes `figures`
    # measures with) at the team size it is given, and a mode that cannot
    # run the test exits 1 with the reason: PyOMP has no task `if` clause,
    # so it cannot run qsort, as in the paper.
    run cargo run --release -p omp4rs-bench --bin main -- 1 pi 2 0.05
    run cargo run --release -p omp4rs-bench --bin main -- 3 sparselu 2 0.05
    run_expecting 1 cargo run --release -p omp4rs-bench --bin main -- -1 qsort 2
    # Both VM differential suites again in release: the fused loop's raw
    # int arithmetic must bail on overflow where a debug build would trap
    # and a release build would wrap.
    run cargo test -q --release -p minipy --test vm_differential
    run cargo test -q --release -p omp4rs-apps --test vm_differential
    # The inline object-path handlers are `inline(always)` only in release
    # builds: hold their semantics and their counts there too.
    run cargo test -q --release -p minipy --test python_semantics
    run cargo test -q --release -p minipy --test object_locks
fi

echo
echo "CI green."
