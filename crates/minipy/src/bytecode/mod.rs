//! A bytecode compiler and register VM for minipy hot paths.
//!
//! The OMP4Py paper's Pure/Hybrid modes pay for every loop iteration with
//! tree-walking overhead: per-statement dispatch over boxed AST nodes, a
//! hash-map + `RwLock` environment probe per name, and a per-object lock per
//! container touch. This module is the compiled execution tier that removes
//! that overhead *without* leaving the interpreter's semantics: the existing
//! lexer/parser/AST are shared, and a compiler ([`compile`]) lowers function
//! bodies to compact register bytecode ([`opcode`]) executed by a dispatch
//! loop ([`vm`]) over a flat register file ([`frame`]).
//!
//! What makes the generated OMP4Py-style parallel bodies fast here:
//!
//! * locals are fixed register slots resolved at compile time — no
//!   environment frame exists at all for a VM call;
//! * constants are interned and preloaded into registers at entry;
//! * chunk bounds and loop strides live in registers, so the per-iteration
//!   `obj_lock` traffic the profiler attributed to `value.rs` disappears for
//!   straight-line numeric code; and
//! * pyfront runtime intrinsics (`__omp.for_next`, `for_chunk`, `barrier`,
//!   reduction merges) compile to a dedicated [`opcode::Op::CallIntrinsic`]
//!   whose resolved callable is cached per frame — one indirect call into
//!   the `omp4rs` bridge instead of an environment walk plus module-dict
//!   lookup per chunk.
//!
//! # Mode selection (`OMP4RS_MINIPY_VM`)
//!
//! The VM is a two-state debug switch, mirrored in
//! `omp4rs::icv::Icvs::minipy_vm` and documented in `docs/ENVIRONMENT.md`:
//!
//! * [`VmMode::On`] — the default: functions whose bodies use only
//!   VM-supported constructs are compiled lazily on first call; everything
//!   else falls back to the tree-walker per function.
//! * [`VmMode::Off`] — every call tree-walks. The tree-walker is the
//!   semantic oracle the differential suites hold the VM to.
//!
//! Fallback always preserves semantics, GIL toggling, and the
//! `minipy.gil.*` / `minipy.obj_lock.*` counters — a function the VM cannot
//! compile behaves exactly as before. Compile results (including negative
//! ones) are cached per function definition, so the decision is paid once.
//!
//! # Quickening
//!
//! The VM has one dispatch tier, and it is adaptive: generic instructions
//! rewrite themselves in place to type-specialized variants on first
//! execution (guard-and-deopt back to generic on mismatch), dispatch sites
//! are inline caches with hit/miss counters, straight-line `range` loop
//! bodies run fused, and provably-local `int`/`float` registers are kept
//! unboxed in a per-frame tag plane. See [`vm`] for the state machine and
//! escape rules.
//!
//! # Observability
//!
//! The VM publishes `minipy.vm.*` counters through [`crate::stats`] (the
//! pyfront bridge copies them into the `omp4rs::ompt` registry): compiled
//! functions, cumulative compile nanoseconds, VM frames entered, dispatched
//! ops, and per-reason fallback counts (`minipy.vm.fallback.<reason>`).

pub mod compile;
pub mod frame;
pub mod opcode;
pub mod vm;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use crate::ast::FuncDef;
use crate::stats;

pub use compile::FallbackReason;
pub use opcode::{CompiledCode, Op};

/// The `OMP4RS_MINIPY_VM` switch: whether the bytecode VM runs at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum VmMode {
    /// Tree-walk everything (the oracle, for debugging).
    Off,
    /// Compile VM-supported functions lazily on first call; per-function
    /// fallback to the tree-walker otherwise. The default.
    #[default]
    On,
}

impl VmMode {
    /// Parse the `OMP4RS_MINIPY_VM` spellings (`auto` is a spelling of
    /// `on`). `None` for unrecognized text (the caller keeps the default).
    pub fn parse(text: &str) -> Option<VmMode> {
        match text.trim().to_ascii_lowercase().as_str() {
            "off" | "false" | "0" | "no" => Some(VmMode::Off),
            "on" | "auto" | "true" | "1" | "yes" => Some(VmMode::On),
            _ => None,
        }
    }
}

/// 0 = uninitialized (read the environment on first use), 1 = off, 2 = on.
static MODE: AtomicU8 = AtomicU8::new(0);

fn mode_to_u8(m: VmMode) -> u8 {
    match m {
        VmMode::Off => 1,
        VmMode::On => 2,
    }
}

/// The current VM mode (initialized from `OMP4RS_MINIPY_VM` on first read).
pub fn mode() -> VmMode {
    match MODE.load(Ordering::Relaxed) {
        0 => {
            let m = std::env::var("OMP4RS_MINIPY_VM")
                .ok()
                .as_deref()
                .and_then(VmMode::parse)
                .unwrap_or_default();
            // Racing first reads agree (same env), so a plain store is fine.
            MODE.store(mode_to_u8(m), Ordering::Relaxed);
            m
        }
        1 => VmMode::Off,
        _ => VmMode::On,
    }
}

/// Set the VM mode, returning the previous one. Used by the pyfront bridge
/// (to mirror the `Icvs` value) and by tests that compare the VM with the
/// tree-walker.
pub fn set_mode(m: VmMode) -> VmMode {
    let prev = mode();
    MODE.store(mode_to_u8(m), Ordering::SeqCst);
    prev
}

/// Whether calls should consult the compiler at all.
#[inline]
pub fn enabled() -> bool {
    mode() != VmMode::Off
}

// ---- per-definition code cache -----------------------------------------

/// Cached compile outcome for one function definition.
type CacheEntry = (Weak<FuncDef>, Result<Arc<CompiledCode>, FallbackReason>);

fn cache() -> &'static Mutex<HashMap<usize, CacheEntry>> {
    static CACHE: OnceLock<Mutex<HashMap<usize, CacheEntry>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Look up (or compile and cache) the bytecode for a function definition.
///
/// Returns `None` when the function is not VM-eligible — the caller must
/// tree-walk it. The cache is keyed by definition identity (the shared
/// `Arc<FuncDef>` produced by the parser), so the many `FuncValue`s created
/// by re-executing a `def` statement — e.g. the per-call closures pyfront
/// generates for parallel regions — share one compilation. A `Weak` guard
/// detects address reuse after the original definition is dropped.
pub fn lookup_or_compile(def: &Arc<FuncDef>) -> Option<Arc<CompiledCode>> {
    let key = Arc::as_ptr(def) as usize;
    let mut map = cache().lock().expect("bytecode cache poisoned");
    if let Some((weak, outcome)) = map.get(&key) {
        if weak.upgrade().is_some_and(|live| Arc::ptr_eq(&live, def)) {
            return outcome.as_ref().ok().cloned();
        }
    }
    // Miss (or a stale entry from a dropped definition at a reused address):
    // compile under the lock so concurrent first calls — every thread of a
    // parallel region calls the region body at once — compile exactly once.
    let start = std::time::Instant::now();
    let outcome = compile::compile_function(def);
    let elapsed = start.elapsed().as_nanos() as u64;
    match &outcome {
        Ok(_) => stats::count_vm_compile(elapsed),
        Err(reason) => record_fallback(*reason),
    }
    if map.len() >= 1024 {
        map.retain(|_, (weak, _)| weak.strong_count() > 0);
    }
    let result = outcome.as_ref().ok().cloned();
    map.insert(key, (Arc::downgrade(def), outcome));
    result
}

/// Eagerly compile a definition and (recursively) every function defined
/// inside it. The nested definitions of an `@omp` function are its
/// generated parallel bodies — the hot paths — so a caller that wants
/// compile cost measured apart from execution (a benchmark's set-up phase)
/// warms them here instead of at first call.
pub fn precompile_def(def: &Arc<FuncDef>) {
    let _ = lookup_or_compile(def);
    precompile_nested(&def.body);
}

fn precompile_nested(body: &[crate::ast::Stmt]) {
    use crate::ast::StmtKind;
    for stmt in body {
        match &stmt.kind {
            StmtKind::FuncDef(inner) => precompile_def(inner),
            StmtKind::If { body, orelse, .. } => {
                precompile_nested(body);
                precompile_nested(orelse);
            }
            StmtKind::While { body, .. } | StmtKind::For { body, .. } => precompile_nested(body),
            StmtKind::With { body, .. } => precompile_nested(body),
            StmtKind::Try {
                body,
                handlers,
                orelse,
                finalbody,
            } => {
                precompile_nested(body);
                for h in handlers {
                    precompile_nested(&h.body);
                }
                precompile_nested(orelse);
                precompile_nested(finalbody);
            }
            _ => {}
        }
    }
}

// ---- fallback-reason accounting ----------------------------------------

fn fallback_map() -> &'static Mutex<HashMap<&'static str, u64>> {
    static REASONS: OnceLock<Mutex<HashMap<&'static str, u64>>> = OnceLock::new();
    REASONS.get_or_init(|| Mutex::new(HashMap::new()))
}

fn record_fallback(reason: FallbackReason) {
    stats::count_vm_fallback();
    *fallback_map()
        .lock()
        .expect("fallback map poisoned")
        .entry(reason.as_str())
        .or_insert(0) += 1;
}

/// Per-reason fallback counts (sorted by reason for deterministic output).
/// Published by the pyfront bridge as `minipy.vm.fallback.<reason>`.
pub fn fallback_reasons() -> Vec<(&'static str, u64)> {
    let map = fallback_map().lock().expect("fallback map poisoned");
    let mut out: Vec<(&'static str, u64)> = map.iter().map(|(k, v)| (*k, *v)).collect();
    out.sort_by_key(|(k, _)| *k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_spellings() {
        assert_eq!(VmMode::parse("off"), Some(VmMode::Off));
        assert_eq!(VmMode::parse(" ON "), Some(VmMode::On));
        assert_eq!(VmMode::parse("auto"), Some(VmMode::On));
        assert_eq!(VmMode::parse("0"), Some(VmMode::Off));
        assert_eq!(VmMode::parse("1"), Some(VmMode::On));
        assert_eq!(VmMode::parse("bogus"), None);
        assert_eq!(VmMode::default(), VmMode::On);
    }

    #[test]
    fn mode_round_trips() {
        // Flipping to `Off` would race the parallel tests that run code
        // through the VM, so round-trip through the default.
        let prev = set_mode(VmMode::On);
        assert_eq!(mode(), VmMode::On);
        assert_eq!(set_mode(prev), VmMode::On);
    }

    #[test]
    fn cache_is_keyed_by_definition_identity() {
        let module = crate::parse("def f(a, b):\n    return a + b\n").unwrap();
        let def = match &module.body[0].kind {
            crate::ast::StmtKind::FuncDef(d) => Arc::clone(d),
            _ => unreachable!(),
        };
        let first = lookup_or_compile(&def).expect("simple function compiles");
        let second = lookup_or_compile(&def).expect("cache hit");
        assert!(Arc::ptr_eq(&first, &second), "one compilation is shared");
    }

    #[test]
    fn unsupported_functions_record_a_reason() {
        let module = crate::parse("def f():\n    import math\n    return 0\n").unwrap();
        let def = match &module.body[0].kind {
            crate::ast::StmtKind::FuncDef(d) => Arc::clone(d),
            _ => unreachable!(),
        };
        assert!(lookup_or_compile(&def).is_none());
        let reasons = fallback_reasons();
        assert!(
            reasons.iter().any(|(r, n)| *r == "import" && *n > 0),
            "import fallback recorded: {reasons:?}"
        );
    }
}
