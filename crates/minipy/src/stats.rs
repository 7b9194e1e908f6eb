//! Interpreter-level contention counters for the observability layer.
//!
//! The OMP4Py paper attributes Pure/Hybrid-mode scaling losses to
//! serialization *inside* the interpreter: GIL hand-offs (when the GIL is
//! enabled) and per-object lock traffic on shared containers (in the
//! free-threaded build). The core runtime's profiler (`omp4rs::ompt`) cannot
//! see into this crate, so the interpreter publishes scalar counters here and
//! the pyfront bridge copies them into the profiler's counter registry before
//! reporting.
//!
//! Collection follows the same inert-unless-armed idiom as the core layer:
//! every probe is a single relaxed [`enabled`] load when off, and a relaxed
//! `fetch_add` when on — the counters themselves never introduce contention.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

static GIL_ACQUISITIONS: AtomicU64 = AtomicU64::new(0);
static GIL_HOLD_NS: AtomicU64 = AtomicU64::new(0);
static OBJ_LOCK_ACQUISITIONS: AtomicU64 = AtomicU64::new(0);
static OBJ_LOCK_CONTENDED: AtomicU64 = AtomicU64::new(0);
static VM_COMPILES: AtomicU64 = AtomicU64::new(0);
static VM_COMPILE_NS: AtomicU64 = AtomicU64::new(0);
static VM_FALLBACKS: AtomicU64 = AtomicU64::new(0);
static VM_FRAMES: AtomicU64 = AtomicU64::new(0);
static VM_OPS: AtomicU64 = AtomicU64::new(0);
static QUICKEN_REWRITES: AtomicU64 = AtomicU64::new(0);
static QUICKEN_DEOPTS: AtomicU64 = AtomicU64::new(0);
static IC_HITS: AtomicU64 = AtomicU64::new(0);
static IC_MISSES: AtomicU64 = AtomicU64::new(0);

/// Whether interpreter counters are being collected.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn counter collection on or off (the pyfront bridge arms this whenever
/// the core profiler is enabled).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Zero all counters.
pub fn reset() {
    GIL_ACQUISITIONS.store(0, Ordering::Relaxed);
    GIL_HOLD_NS.store(0, Ordering::Relaxed);
    OBJ_LOCK_ACQUISITIONS.store(0, Ordering::Relaxed);
    OBJ_LOCK_CONTENDED.store(0, Ordering::Relaxed);
    VM_COMPILES.store(0, Ordering::Relaxed);
    VM_COMPILE_NS.store(0, Ordering::Relaxed);
    VM_FALLBACKS.store(0, Ordering::Relaxed);
    VM_FRAMES.store(0, Ordering::Relaxed);
    VM_OPS.store(0, Ordering::Relaxed);
    QUICKEN_REWRITES.store(0, Ordering::Relaxed);
    QUICKEN_DEOPTS.store(0, Ordering::Relaxed);
    IC_HITS.store(0, Ordering::Relaxed);
    IC_MISSES.store(0, Ordering::Relaxed);
}

/// A snapshot of the interpreter contention counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterpStats {
    /// Outermost GIL lock acquisitions (zero in free-threaded mode — the
    /// paper's point: no global serialization remains to count).
    pub gil_acquisitions: u64,
    /// Total nanoseconds the GIL was held.
    pub gil_hold_ns: u64,
    /// Per-object container-lock acquisitions (list/dict reads and writes).
    pub obj_lock_acquisitions: u64,
    /// How many of those found the lock already held by another thread.
    pub obj_lock_contended: u64,
    /// Function definitions compiled by the bytecode VM.
    pub vm_compiles: u64,
    /// Cumulative bytecode-compilation nanoseconds.
    pub vm_compile_ns: u64,
    /// Definitions the bytecode compiler declined (per-reason breakdown in
    /// [`crate::bytecode::fallback_reasons`]).
    pub vm_fallbacks: u64,
    /// Bytecode frames entered (VM calls).
    pub vm_frames: u64,
    /// Bytecode instructions dispatched.
    pub vm_ops: u64,
    /// Generic instructions rewritten in place to a type-specialized
    /// variant by quickening (at most one per instruction slot).
    pub quicken_rewrites: u64,
    /// Specialized instructions deoptimized back to the generic form on a
    /// guard failure (at most one per instruction slot, so always
    /// `<= quicken_rewrites`).
    pub quicken_deopts: u64,
    /// Inline-cache hits across every cached dispatch site (intrinsic call
    /// sites, method call sites, free-name loads).
    pub ic_hits: u64,
    /// Inline-cache misses (first resolution or invalidated entry).
    pub ic_misses: u64,
}

/// Read the current counter values.
pub fn snapshot() -> InterpStats {
    InterpStats {
        gil_acquisitions: GIL_ACQUISITIONS.load(Ordering::Relaxed),
        gil_hold_ns: GIL_HOLD_NS.load(Ordering::Relaxed),
        obj_lock_acquisitions: OBJ_LOCK_ACQUISITIONS.load(Ordering::Relaxed),
        obj_lock_contended: OBJ_LOCK_CONTENDED.load(Ordering::Relaxed),
        vm_compiles: VM_COMPILES.load(Ordering::Relaxed),
        vm_compile_ns: VM_COMPILE_NS.load(Ordering::Relaxed),
        vm_fallbacks: VM_FALLBACKS.load(Ordering::Relaxed),
        vm_frames: VM_FRAMES.load(Ordering::Relaxed),
        vm_ops: VM_OPS.load(Ordering::Relaxed),
        quicken_rewrites: QUICKEN_REWRITES.load(Ordering::Relaxed),
        quicken_deopts: QUICKEN_DEOPTS.load(Ordering::Relaxed),
        ic_hits: IC_HITS.load(Ordering::Relaxed),
        ic_misses: IC_MISSES.load(Ordering::Relaxed),
    }
}

pub(crate) fn count_gil_acquisition() {
    GIL_ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn add_gil_hold_ns(ns: u64) {
    GIL_HOLD_NS.fetch_add(ns, Ordering::Relaxed);
}

pub(crate) fn count_obj_lock(contended: bool) {
    OBJ_LOCK_ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
    if contended {
        OBJ_LOCK_CONTENDED.fetch_add(1, Ordering::Relaxed);
    }
}

// Compile-time events are one-shot per definition (not per-iteration probes),
// so they are counted unconditionally — the armed/unarmed gate exists to keep
// hot-path probes cheap, which these are not.

pub(crate) fn count_vm_compile(ns: u64) {
    VM_COMPILES.fetch_add(1, Ordering::Relaxed);
    VM_COMPILE_NS.fetch_add(ns, Ordering::Relaxed);
}

pub(crate) fn count_vm_fallback() {
    VM_FALLBACKS.fetch_add(1, Ordering::Relaxed);
}

/// One VM frame finished after dispatching `ops` instructions (gated on
/// [`enabled`] by the caller: this is a per-call hot-path probe).
pub(crate) fn add_vm_frame(ops: u64) {
    VM_FRAMES.fetch_add(1, Ordering::Relaxed);
    VM_OPS.fetch_add(ops, Ordering::Relaxed);
}

// Quickening transitions are once-per-instruction-slot events (a CAS on the
// specialization byte guards each), so like compiles they are counted
// unconditionally.

pub(crate) fn count_quicken_rewrite() {
    QUICKEN_REWRITES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn count_quicken_deopt() {
    QUICKEN_DEOPTS.fetch_add(1, Ordering::Relaxed);
}

/// One inline-cache probe (gated on [`enabled`] by the caller: cached
/// dispatch sites are per-iteration hot paths).
pub(crate) fn count_ic(hit: bool) {
    if hit {
        IC_HITS.fetch_add(1, Ordering::Relaxed);
    } else {
        IC_MISSES.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        // Serialized against other stats tests by cargo's per-test threads
        // being the only writers when disabled elsewhere; keep assertions
        // relative to a snapshot so parallel interpreter tests cannot break
        // them.
        let before = snapshot();
        count_obj_lock(false);
        count_obj_lock(true);
        count_gil_acquisition();
        add_gil_hold_ns(25);
        let after = snapshot();
        assert!(after.obj_lock_acquisitions >= before.obj_lock_acquisitions + 2);
        assert!(after.obj_lock_contended > before.obj_lock_contended);
        assert!(after.gil_acquisitions > before.gil_acquisitions);
        assert!(after.gil_hold_ns >= before.gil_hold_ns + 25);
    }

    #[test]
    fn enabled_toggles() {
        let was = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(was);
    }
}
