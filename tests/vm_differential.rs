//! End-to-end differential harness for the bytecode VM: pyfront-transformed
//! programs (`@omp` decorator, directive strings, runtime intrinsics) run
//! under every `OMP4RS_MINIPY_VM` setting x interpreted execution mode, and
//! the observable behavior — return values, stdout, raised errors,
//! cancellation semantics — must be identical to the tree-walker's.
//!
//! The minipy-level harness (`crates/minipy/tests/vm_differential.rs`)
//! covers the language; this one covers the `__omp` intrinsic opcodes
//! (`CallIntrinsic` chunk claims, barriers, reduction merges) and the
//! `Icvs::minipy_vm` -> `bytecode::set_mode` mirror in `install`.

use std::sync::Mutex;

use minipy::{Interp, Value};
use omp4rs::{Icvs, MinipyVm};
use omp4rs_apps::modes::close;
use omp4rs_pyfront::{ExecMode, Runner};

const EXEC_MODES: [ExecMode; 2] = [ExecMode::Pure, ExecMode::Hybrid];

/// The cells the sweeps cover: the tree-walking reference, then the VM.
const CELLS: [MinipyVm; 2] = [MinipyVm::Off, MinipyVm::On];

/// Serialize ICV flips (`minipy_vm`, `cancellation`) across this binary's
/// concurrently running tests.
fn icv_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run one program under one (exec mode, vm setting): call `entry(args)`
/// and return (outcome, stdout). The caller holds the ICV lock.
fn run_case(
    exec: ExecMode,
    vm: MinipyVm,
    src: &str,
    entry: &str,
    args: Vec<Value>,
) -> (Result<Value, String>, String) {
    Icvs::update(|i| i.minipy_vm = vm);
    // `install` (via Runner) mirrors the ICV into `minipy::bytecode`.
    let runner = Runner::with_interp(Interp::new().capture_output(), exec);
    runner.run(src).expect("program loads");
    let result = runner
        .call_global(entry, args)
        .map_err(|e| format!("{e}@{:?}", e.line));
    let out = runner.interp().output().unwrap_or_default();
    (result, out)
}

/// Assert a deterministic program behaves identically across all VM
/// settings, in both interpreted modes.
fn differential(src: &str, entry: &str, args: &[Value]) {
    let _guard = icv_lock();
    let before = Icvs::current();
    for exec in EXEC_MODES {
        // `Value` has no `PartialEq`; a debug rendering is canonical for
        // the ints/floats/lists this corpus returns.
        let canon = |(r, out): (Result<Value, String>, String)| (r.map(|v| format!("{v:?}")), out);
        let [oracle, vm] = CELLS;
        let reference = canon(run_case(exec, oracle, src, entry, args.to_vec()));
        let got = canon(run_case(exec, vm, src, entry, args.to_vec()));
        assert_eq!(
            got, reference,
            "{exec:?}/{vm:?} diverges from the tree-walker for {entry}"
        );
    }
    Icvs::reset(before);
}

// ---------------------------------------------------------------------------
// Deterministic corpus: exact equality across settings.
// ---------------------------------------------------------------------------

#[test]
fn integer_reduction_with_critical_is_mode_invariant() {
    // Integer `+` reduction and a critical-guarded counter: exact results,
    // exercising for_chunk/for_next, reduction merge, and critical enter.
    let src = r#"
from omp4py import *

@omp
def count(n):
    total = 0
    hits = 0
    with omp("parallel num_threads(4)"):
        with omp("for reduction(+:total)"):
            for i in range(n):
                total += i
        with omp("critical"):
            hits += 1
    return [total, hits]
"#;
    differential(src, "count", &[Value::Int(1_000)]);
}

#[test]
fn schedules_and_nowait_are_mode_invariant() {
    let src = r#"
from omp4py import *

@omp
def sweep(n):
    a = 0
    b = 0
    c = 0
    with omp("parallel num_threads(3)"):
        with omp("for schedule(static, 7) reduction(+:a)"):
            for i in range(n):
                a += i * i
        with omp("for schedule(dynamic, 5) reduction(+:b) nowait"):
            for i in range(n):
                b += i
        with omp("for schedule(guided) reduction(+:c)"):
            for i in range(n):
                c += 1
    return [a, b, c]
"#;
    differential(src, "sweep", &[Value::Int(500)]);
}

#[test]
fn single_output_is_mode_invariant() {
    // Only the single-winner prints: stdout is deterministic.
    let src = r#"
from omp4py import *

@omp
def announce(n):
    with omp("parallel num_threads(2)"):
        with omp("single"):
            print("once", n)
        omp("barrier")
    return n
"#;
    differential(src, "announce", &[Value::Int(3)]);
}

#[test]
fn error_raised_inside_a_region_is_mode_invariant() {
    // Every thread raises the same error on its first iteration; the
    // first-error slot makes the propagated message deterministic.
    let src = r#"
from omp4py import *

@omp
def explode(n):
    total = 0
    with omp("parallel for reduction(+:total) num_threads(2)"):
        for i in range(n):
            if i >= 0:
                raise ValueError("region boom")
            total += i
    return total
"#;
    differential(src, "explode", &[Value::Int(100)]);
}

#[test]
fn arity_error_through_the_decorated_function_is_mode_invariant() {
    let src = r#"
from omp4py import *

@omp
def takes_two(a, b):
    with omp("parallel num_threads(2)"):
        pass
    return a + b
"#;
    differential(src, "takes_two", &[Value::Int(1)]);
}

// ---------------------------------------------------------------------------
// Temporary-view corpus: a fused `range` loop reads each closure cell once
// per run and keeps the value until the run ends. These pin down that every
// new run (a new call, a new chunk, the loop after a barrier) sees the
// cell's current value.
// ---------------------------------------------------------------------------

#[test]
fn rebinding_between_calls_reaches_the_fused_loop() {
    // The outer function rebinds `w` (int, then float) between two calls of
    // each inner function: a nested `def` and an outlined parallel region
    // that re-runs per `rep`. Both fused loops read `w` from a cell.
    let src = r#"
from omp4py import *

@omp
def rebind(n):
    w = 2
    def inner():
        t = 0
        for i in range(n):
            t += i * w
        return t
    out = []
    for rep in range(3):
        s = 0
        with omp("parallel for reduction(+:s) num_threads(2)"):
            for i in range(n):
                s += i * w
        out.append(s)
        out.append(inner())
        w = w * 3 + 0.5
    return out
"#;
    differential(src, "rebind", &[Value::Int(1_000)]);
}

#[test]
fn single_write_is_seen_by_the_next_fused_loop() {
    // A `single` rewrites the shared `w` between two runs of the same `for`;
    // its implicit barrier is the flush that every thread's next fused run
    // must observe. The write goes through `bump` so the region only reads
    // `w`, as a free variable: a region that assigned it would read it
    // through `LoadCell`, which is not fusible.
    let src = r#"
from omp4py import *

@omp
def staged(n):
    w = 1
    s = 0
    def bump():
        nonlocal w
        w = w * 2 + 1
    with omp("parallel num_threads(2)"):
        for rep in range(3):
            with omp("for reduction(+:s)"):
                for i in range(n):
                    s += i * w
            with omp("single"):
                bump()
    return [s, w]
"#;
    differential(src, "staged", &[Value::Int(1_000)]);
}

#[test]
fn dynamic_schedule_pi_is_bit_identical() {
    // π over 64 dynamic chunks, one fused run each. Each term is truncated
    // to a multiple of `q` = 2^-20, and n and `w` are powers of two, so
    // every partial sum is exact: the result is independent of which
    // thread claims which chunk, and the VM must match the oracle bit for
    // bit.
    let src = r#"
from omp4py import *

@omp
def pi(n):
    w = 1.0 / n
    q = 1.0 / 1048576
    pi_value = 0.0
    with omp("parallel for schedule(dynamic, 64) reduction(+:pi_value) num_threads(2)"):
        for i in range(n):
            x = (i + 0.5) * w
            t = 4.0 / (1.0 + x * x)
            pi_value += t - t % q
    return pi_value * w
"#;
    differential(src, "pi", &[Value::Int(4_096)]);
    let _guard = icv_lock();
    let before = Icvs::current();
    let (result, _) = run_case(
        ExecMode::Hybrid,
        MinipyVm::On,
        src,
        "pi",
        vec![Value::Int(4_096)],
    );
    let value = result.expect("pi runs").as_float().expect("a float");
    assert!(close(value, std::f64::consts::PI, 1e-5), "pi={value}");
    Icvs::reset(before);
}

// ---------------------------------------------------------------------------
// Tolerance / invariant corpus: float reductions and cancellation are not
// bit-deterministic, so the settings are held to the same contracts.
// ---------------------------------------------------------------------------

#[test]
fn pi_converges_identically_under_every_setting() {
    let src = r#"
from omp4py import *

@omp
def pi(n):
    w = 1.0 / n
    pi_value = 0.0
    with omp("parallel for reduction(+:pi_value) num_threads(4)"):
        for i in range(n):
            local = (i + 0.5) * w
            pi_value += 4.0 / (1.0 + local * local)
    return pi_value * w
"#;
    let _guard = icv_lock();
    let before = Icvs::current();
    for exec in EXEC_MODES {
        for vm in CELLS {
            let (result, out) = run_case(exec, vm, src, "pi", vec![Value::Int(50_000)]);
            let value = result.expect("pi runs").as_float().expect("a float");
            assert!(
                close(value, std::f64::consts::PI, 1e-6),
                "{exec:?}/{vm:?}: pi={value}"
            );
            assert!(out.is_empty(), "{exec:?}/{vm:?}: unexpected stdout {out:?}");
        }
    }
    Icvs::reset(before);
}

#[test]
fn cancellation_contract_holds_under_every_setting() {
    // `cancel(for)` stops chunk claims promptly whether iterations run on
    // the tree-walker or the VM. The exact count is scheduling-dependent, so
    // each setting is held to the same bounds instead of exact equality.
    let src = r#"
from omp4py import *

@omp
def count_until_cancel(n):
    executed = 0
    with omp("parallel num_threads(2)"):
        with omp("for schedule(dynamic, 1) reduction(+:executed)"):
            for i in range(n):
                executed += 1
                if executed >= 10:
                    omp("cancel(for)")
                omp("cancellation point(for)")
    return executed
"#;
    let _guard = icv_lock();
    let before = Icvs::current();
    Icvs::update(|i| i.cancellation = true);
    for exec in EXEC_MODES {
        for vm in CELLS {
            let (result, _) = run_case(
                exec,
                vm,
                src,
                "count_until_cancel",
                vec![Value::Int(100_000)],
            );
            let executed = result
                .expect("cancelled loop returns")
                .as_int()
                .expect("int");
            assert!(
                (10..1_000).contains(&executed),
                "{exec:?}/{vm:?}: cancel did not bound the loop \
                 (executed={executed})"
            );
        }
    }
    Icvs::reset(before);
}

#[test]
fn vm_settings_actually_change_the_execution_tier() {
    // Guard against vacuous passes: `off` must execute zero VM frames and
    // `on` must execute many, through the full pyfront pipeline.
    let src = r#"
from omp4py import *

@omp
def work(n):
    total = 0
    with omp("parallel for reduction(+:total) num_threads(2)"):
        for i in range(n):
            total += i
    return total
"#;
    let _guard = icv_lock();
    let before = Icvs::current();
    let frames_under = |vm: MinipyVm| {
        Icvs::update(|i| i.minipy_vm = vm);
        let runner = Runner::new(ExecMode::Pure);
        runner.run(src).expect("program loads");
        minipy::stats::reset();
        minipy::stats::set_enabled(true);
        let total = runner
            .call_global("work", vec![Value::Int(10_000)])
            .expect("work runs")
            .as_int()
            .expect("int");
        assert_eq!(total, 10_000 * 9_999 / 2);
        let frames = minipy::stats::snapshot().vm_frames;
        minipy::stats::set_enabled(false);
        frames
    };
    assert_eq!(frames_under(MinipyVm::Off), 0, "off must tree-walk");
    assert!(frames_under(MinipyVm::On) > 0, "on must use the VM");
    Icvs::reset(before);
}

#[test]
fn default_settings_quicken_the_pyfront_pipeline() {
    // Same vacuity guard for quickening, through the full pyfront pipeline
    // at the default ICVs: the VM must specialize instructions.
    let src = r#"
from omp4py import *

@omp
def work(n):
    total = 0
    with omp("parallel for reduction(+:total) num_threads(2)"):
        for i in range(n):
            total += i
    return total
"#;
    let _guard = icv_lock();
    let before = Icvs::current();
    Icvs::update(|i| i.minipy_vm = MinipyVm::default());
    let runner = Runner::new(ExecMode::Pure);
    runner.run(src).expect("program loads");
    minipy::stats::reset();
    let total = runner
        .call_global("work", vec![Value::Int(10_000)])
        .expect("work runs")
        .as_int()
        .expect("int");
    assert_eq!(total, 10_000 * 9_999 / 2);
    assert!(
        minipy::stats::snapshot().quicken_rewrites > 0,
        "the default VM must specialize instructions"
    );
    Icvs::reset(before);
}
