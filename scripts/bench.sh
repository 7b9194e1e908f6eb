#!/usr/bin/env bash
# Machine-readable benchmark baselines:
#
#  1. BENCH_pi.json  — the paper's pi benchmark across execution modes (and
#     the minipy bytecode-VM tri-state for interpreted modes), plus a
#     thread sweep (1..32) for the two headline modes.
#  2. BENCH_sync.json — EPCC-syncbench-style construct overheads
#     (parallel/barrier/reduction/single/task x backends x wait policies)
#     across the same thread sweep.
#  3. BENCH_tasks.json — the task-dependence suite (wavefront, sparselu,
#     pagerank: depend-ordered DAGs) across the four OMP4Py modes, plus a
#     thread sweep for CompiledDT. PyOMP is absent by construction: it has
#     no task depend clause (see omp4rs_apps::pyomp).
#
#   ./scripts/bench.sh                 # defaults: 4 threads, 5 repeats
#   THREADS=8 REPEAT=9 ./scripts/bench.sh
#
# The files are tracked (see .gitignore): committing them alongside a perf
# PR records the before/after baseline the numbers in EXPERIMENTS.md quote.
#
# Comparing modes: every pi row carries "effective_scale"
# (= scale * per-mode problem multiplier). Only rows with equal
# effective_scale ran the same problem; the mode-vs-mode section below adds
# a Compiled row pinned to Pure/Hybrid's effective scale for exactly that
# comparison.
set -euo pipefail

cd "$(dirname "$0")/.."

THREADS=${THREADS:-4}
REPEAT=${REPEAT:-5}
SCALE=${SCALE:-1.0}
OUT=${OUT:-BENCH_pi.json}
SYNC_OUT=${SYNC_OUT:-BENCH_sync.json}
SWEEP_THREADS=${SWEEP_THREADS:-1,2,4,8,16,32}
SWEEP_REPEAT=${SWEEP_REPEAT:-3}
SYNC_TRIALS=${SYNC_TRIALS:-7}
TASKS_OUT=${TASKS_OUT:-BENCH_tasks.json}
TASKS_SCALE=${TASKS_SCALE:-1.0}
TASKS_REPEAT=${TASKS_REPEAT:-3}

cargo build --release -p omp4rs-bench --bin main --bin syncbench
BIN=target/release/main
SYNCBIN=target/release/syncbench

# ---------------------------------------------------------------- pi: modes
# mode-id:minipy-vm rows. Compiled never enters the interpreter, so the VM
# setting is irrelevant there; one row records it as "on" for reference.
ROWS=(
    "0:off" "0:on"   # Pure: tree-walker vs bytecode VM
    "1:off" "1:on"   # Hybrid: same contrast, atomic runtime
    "2:on"           # Compiled: native closures (VM-independent)
)

# Equal-effective-scale Compiled row: Pure/Hybrid run at effective scale
# SCALE*0.02 while Compiled's default multiplier is 0.3, i.e. a 15x larger
# problem. Pin Compiled to the interpreted modes' problem size so the
# Compiled-vs-Hybrid comparison in EXPERIMENTS.md is apples to apples.
EQ_SCALE=$(python3 -c "print(f'{$SCALE * 0.02 / 0.3:.6f}')")

runs=""
emit_pi() { # mode vm threads scale repeat
    local line
    echo "==> mode=$1 OMP4RS_MINIPY_VM=$2 threads=$3 scale=$4 repeat=$5" >&2
    line=$(OMP4RS_MINIPY_VM="$2" "$BIN" "$1" pi "$3" "$4" --json --repeat "$5")
    echo "    $line" >&2
    runs+="${runs:+,
  }$line"
}

for row in "${ROWS[@]}"; do
    emit_pi "${row%%:*}" "${row##*:}" "$THREADS" "$SCALE" "$REPEAT"
done
emit_pi 2 on "$THREADS" "$EQ_SCALE" "$REPEAT"   # Compiled, equal problem

# ---------------------------------------------------------------- pi: sweep
# Thread sweep for the headline interpreted mode (Hybrid) and Compiled,
# each at its own default problem size (rows are self-describing via
# effective_scale; within a mode all sweep rows share one problem).
sweep=""
IFS=',' read -ra SWEEP <<< "$SWEEP_THREADS"
for t in "${SWEEP[@]}"; do
    for mode in 1 2; do
        echo "==> sweep mode=$mode threads=$t repeat=$SWEEP_REPEAT" >&2
        line=$(OMP4RS_MINIPY_VM=on "$BIN" "$mode" pi "$t" "$SCALE" --json --repeat "$SWEEP_REPEAT")
        echo "    $line" >&2
        sweep+="${sweep:+,
  }$line"
    done
done

cat > "$OUT" <<EOF
{
 "benchmark": "pi",
 "threads": $THREADS,
 "repeat": $REPEAT,
 "scale": $SCALE,
 "runs": [
  $runs
 ],
 "sweep": [
  $sweep
 ]
}
EOF
python3 -c "import json,sys; json.load(open('$OUT'))" 2>/dev/null \
    || { echo "$OUT is not valid JSON" >&2; exit 1; }
echo "wrote $OUT"

# ---------------------------------------------------------------- syncbench
# Construct overheads: syncbench iterates both backends and both wait
# policies internally and emits the complete JSON document.
echo "==> syncbench threads=$SWEEP_THREADS trials=$SYNC_TRIALS" >&2
"$SYNCBIN" --threads "$SWEEP_THREADS" --trials "$SYNC_TRIALS" --json > "$SYNC_OUT"
python3 -c "import json,sys; json.load(open('$SYNC_OUT'))" 2>/dev/null \
    || { echo "$SYNC_OUT is not valid JSON" >&2; exit 1; }
echo "wrote $SYNC_OUT"

# ------------------------------------------------------------------- tasks
# Task-dependence suite: the three depend-ordered DAG apps in every OMP4Py
# mode at the shared thread count, then a CompiledDT thread sweep. Rows are
# the same self-describing JSON objects as the pi section (effective_scale
# records the per-mode problem multiplier).
task_runs=""
for app in wavefront sparselu pagerank; do
    for mode in 0 1 2 3; do
        echo "==> tasks app=$app mode=$mode threads=$THREADS scale=$TASKS_SCALE" >&2
        line=$("$BIN" "$mode" "$app" "$THREADS" "$TASKS_SCALE" --json --repeat "$TASKS_REPEAT")
        echo "    $line" >&2
        task_runs+="${task_runs:+,
  }$line"
    done
done

task_sweep=""
for t in "${SWEEP[@]}"; do
    for app in wavefront sparselu pagerank; do
        echo "==> tasks sweep app=$app mode=3 threads=$t" >&2
        line=$("$BIN" 3 "$app" "$t" "$TASKS_SCALE" --json --repeat "$TASKS_REPEAT")
        echo "    $line" >&2
        task_sweep+="${task_sweep:+,
  }$line"
    done
done

cat > "$TASKS_OUT" <<EOF
{
 "benchmark": "tasks",
 "apps": ["wavefront", "sparselu", "pagerank"],
 "threads": $THREADS,
 "repeat": $TASKS_REPEAT,
 "scale": $TASKS_SCALE,
 "pyomp": "cannot run: no task depend clause or taskgroup support",
 "runs": [
  $task_runs
 ],
 "sweep": [
  $task_sweep
 ]
}
EOF
python3 -c "import json,sys; json.load(open('$TASKS_OUT'))" 2>/dev/null \
    || { echo "$TASKS_OUT is not valid JSON" >&2; exit 1; }
echo "wrote $TASKS_OUT"
