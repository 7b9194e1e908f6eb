//! Diagnostic probe: confirm the bytecode VM actually executes the
//! pyfront-transformed π body (frames > 0), surface fallback reasons, and
//! hold the quickening/inline-cache counter invariants.

use omp4rs::{Icvs, MinipyVm};
use omp4rs_apps::{pi, Mode};

/// Serialize tests that flip the process-global ICVs / interpreter modes.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn pure_pi_runs_on_the_vm() {
    let _guard = lock();
    // `install` mirrors the ICV into `minipy::bytecode`, so the mode must be
    // set where the bridge reads it, not directly on the interpreter crate.
    let before = Icvs::current();
    Icvs::update(|i| i.minipy_vm = MinipyVm::On);
    minipy::stats::reset();
    minipy::stats::set_enabled(true);
    let out = pi::run(Mode::Pure, 2, &pi::Params { n: 20_000 }).expect("pi runs");
    let stats = minipy::stats::snapshot();
    minipy::stats::set_enabled(false);
    Icvs::reset(before);
    println!(
        "check={:.9} compiles={} fallbacks={} frames={} ops={}",
        out.check, stats.vm_compiles, stats.vm_fallbacks, stats.vm_frames, stats.vm_ops
    );
    println!(
        "fallback reasons: {:?}",
        minipy::bytecode::fallback_reasons()
    );
    assert!(stats.vm_frames > 0, "VM executed no frames");
}

#[test]
fn quicken_counters_hold_their_invariants_on_pure_pi() {
    let _guard = lock();
    let before = Icvs::current();
    Icvs::update(|i| i.minipy_vm = MinipyVm::On);
    minipy::stats::reset();
    minipy::stats::set_enabled(true);
    let out = pi::run(Mode::Pure, 2, &pi::Params { n: 20_000 }).expect("pi runs");
    let stats = minipy::stats::snapshot();
    minipy::stats::set_enabled(false);
    Icvs::reset(before);
    println!(
        "check={:.9} rewrites={} deopts={} ic_hits={} ic_misses={} obj_locks={}",
        out.check,
        stats.quicken_rewrites,
        stats.quicken_deopts,
        stats.ic_hits,
        stats.ic_misses,
        stats.obj_lock_acquisitions
    );
    assert!((out.check - std::f64::consts::PI).abs() < 1e-6);
    assert!(
        stats.quicken_rewrites > 0,
        "the numeric π body never specialized an instruction"
    );
    // Each slot rewrites at most once and deopts at most once, both behind
    // a CAS — the deopt count can never pass the rewrite count.
    assert!(
        stats.quicken_deopts <= stats.quicken_rewrites,
        "deopts ({}) exceed rewrites ({})",
        stats.quicken_deopts,
        stats.quicken_rewrites
    );
    // PR 3 drove Pure-mode π's per-object lock traffic down to a constant
    // handful (the shared accumulator); quickening must not reopen
    // that regression by boxing through locked containers.
    assert!(
        stats.obj_lock_acquisitions <= 4,
        "Pure π took {} obj-lock acquisitions (floor is 4)",
        stats.obj_lock_acquisitions
    );
}

#[test]
fn ic_totals_match_dispatch_counts_on_a_known_program() {
    let _guard = lock();
    // Counted against the program below, per call of `f`: one `LoadFree`
    // execution (the `range` cell fill, then hits) and `n` `CallMethod`
    // executions (`xs.append`), and nothing else consults a dispatch IC.
    let prev = minipy::bytecode::set_mode(minipy::bytecode::VmMode::On);
    minipy::stats::reset();
    minipy::stats::set_enabled(true);
    let interp = minipy::Interp::new().capture_output();
    interp
        .run("def f(xs, n):\n    for i in range(n):\n        xs.append(i)\n    return xs\nf([], 10)\n")
        .expect("program runs");
    let stats = minipy::stats::snapshot();
    minipy::stats::set_enabled(false);
    minipy::bytecode::set_mode(prev);
    let dispatches = 1 + 10; // LoadFree(range) + 10 x CallMethod(append)
    assert_eq!(
        stats.ic_hits + stats.ic_misses,
        dispatches,
        "IC events (hits {} + misses {}) must equal dispatch executions",
        stats.ic_hits,
        stats.ic_misses
    );
    // First execution of each site misses and fills; the rest hit.
    assert_eq!(stats.ic_misses, 2, "one fill per IC site");
    assert_eq!(stats.ic_hits, dispatches - 2);
}
