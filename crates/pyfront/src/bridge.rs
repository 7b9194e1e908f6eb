//! The `__omp` runtime module and the `omp4py` user-facing module.
//!
//! [`install`] wires a [`minipy::Interp`] to the `omp4rs` runtime:
//!
//! * binds `__omp` (the low-level intrinsics the transformer targets —
//!   `parallel_run`, `for_bounds`/`for_init`/`for_next`, `task_submit`, …);
//! * registers the importable `omp4py` module exporting the `omp`
//!   decorator/directive function and the OpenMP runtime API
//!   (`omp_get_num_threads`, `omp_set_nested`, …).
//!
//! The chosen [`ExecMode`] decides the synchronization backend of every team
//! the bridge creates: **Pure** → mutex internals, **Hybrid** → atomics,
//! exactly the paper's `runtime` vs `cruntime` split.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use minipy::builtins::ModuleObj;
use minipy::error::{ErrKind, PyErr};
use minipy::value::FuncValue;
use minipy::{Args, Interp, NativeFunc, Opaque, Value};
use omp4rs::context;
use omp4rs::depgraph::Dep;
use omp4rs::directive::{CancelConstruct, Directive, DirectiveKind, ScheduleKind};
use omp4rs::exec::ParallelConfig;
use omp4rs::locks::OmpLock;
use omp4rs::reduction::{declare_reduction, declared_reduction, DeclaredReduction};
use omp4rs::schedule::{ForBounds, LoopDims, ResolvedSchedule};
use omp4rs::sync::Backend;
use omp4rs::worksharing::WsInstance;
use parking_lot::Mutex;

use crate::threadprivate;
use crate::transform::transform_function;

/// Execution mode of interpreted code (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Interpreted user code + mutex runtime internals (paper *Pure*).
    Pure,
    /// Interpreted user code + atomic runtime internals (paper *Hybrid*).
    #[default]
    Hybrid,
}

impl ExecMode {
    /// The synchronization backend this mode uses.
    pub fn backend(self) -> Backend {
        match self {
            ExecMode::Pure => Backend::Mutex,
            ExecMode::Hybrid => Backend::Atomic,
        }
    }

    /// Paper name of the mode.
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Pure => "Pure",
            ExecMode::Hybrid => "Hybrid",
        }
    }
}

/// Panic payload used to carry interpreter errors out of task bodies.
struct TaskPyErr(PyErr);

fn err(kind: ErrKind, msg: impl Into<String>) -> PyErr {
    PyErr::new(kind, msg)
}

fn runtime_err(msg: impl Into<String>) -> PyErr {
    err(ErrKind::Runtime, msg)
}

// ---- opaque state objects -------------------------------------------------

/// Loop state behind the `__omp_bounds` list (the paper's numeric array plus
/// its native scheduling state).
struct BoundsState {
    fb: Mutex<Option<ForBounds>>,
    triplets: Mutex<Vec<i64>>,
    seq: Mutex<Option<u64>>,
    instance: Mutex<Option<Arc<WsInstance>>>,
    rank: Mutex<usize>,
    ordered: Mutex<bool>,
}

impl std::fmt::Debug for BoundsState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundsState").finish()
    }
}

impl Opaque for BoundsState {
    fn type_name(&self) -> &str {
        "omp_bounds"
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// State behind `single`/`sections` handles.
struct RegionState {
    inst: Option<Arc<WsInstance>>,
    seq: Option<u64>,
    n_sections: u64,
    /// Whether this thread executed the final section (lastprivate).
    ran_last: std::sync::atomic::AtomicBool,
}

impl std::fmt::Debug for RegionState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegionState").finish()
    }
}

impl Opaque for RegionState {
    fn type_name(&self) -> &str {
        "omp_region"
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

fn downcast<'a, T: 'static>(v: &'a Value, what: &str) -> Result<&'a T, PyErr> {
    match v {
        Value::Opaque(o) => o
            .as_any()
            .downcast_ref::<T>()
            .ok_or_else(|| err(ErrKind::Type, format!("expected {what}"))),
        _ => Err(err(ErrKind::Type, format!("expected {what}"))),
    }
}

fn bounds_state(bounds: &Value) -> Result<Arc<dyn Opaque>, PyErr> {
    match bounds {
        // The modern shape: `for_bounds` hands back the state directly, so
        // intrinsics on the hot loop path take no per-object lock here.
        Value::Opaque(o) => Ok(Arc::clone(o)),
        // Legacy shape (pre-hoisting callers and hand-written code): a list
        // whose element 3 carries the state.
        Value::List(items) => {
            let items = items.read();
            match items.get(3) {
                Some(Value::Opaque(o)) => Ok(Arc::clone(o)),
                _ => Err(err(ErrKind::Type, "malformed __omp bounds object")),
            }
        }
        _ => Err(err(ErrKind::Type, "expected __omp bounds object")),
    }
}

fn with_bounds<R>(
    list: &Value,
    f: impl FnOnce(&BoundsState) -> Result<R, PyErr>,
) -> Result<R, PyErr> {
    let o = bounds_state(list)?;
    let state = o
        .as_any()
        .downcast_ref::<BoundsState>()
        .ok_or_else(|| err(ErrKind::Type, "malformed __omp bounds object"))?;
    f(state)
}

// ---- thread-private storage ------------------------------------------------

thread_local! {
    static TP_STORE: RefCell<HashMap<String, Value>> = RefCell::new(HashMap::new());
}

// ---- named enter/exit locks --------------------------------------------------

fn named_lock(name: &str) -> Arc<OmpLock> {
    static LOCKS: OnceLock<Mutex<HashMap<String, Arc<OmpLock>>>> = OnceLock::new();
    let registry = LOCKS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = registry.lock();
    Arc::clone(map.entry(name.to_owned()).or_default())
}

// ---- helpers ---------------------------------------------------------------

fn current_team() -> Option<Arc<omp4rs::Team>> {
    context::current_frame().map(|f| Arc::clone(&f.team))
}

fn blocking<R>(interp: &Interp, f: impl FnOnce() -> R) -> R {
    interp.gil().allow_threads(f)
}

// ---- installation -------------------------------------------------------------

/// Wire an interpreter to the OpenMP runtime in the given mode.
///
/// Binds the `__omp` global and registers the `omp4py` module. Idempotent
/// per interpreter (later calls replace the mode).
pub fn install(interp: &Interp, mode: ExecMode) {
    // Mirror the `OMP4RS_MINIPY_VM` ICV into the interpreter's bytecode
    // VM. `Icvs` owns the env parse (and test overrides via
    // `Icvs::update`); the interpreter only sees the resolved mode.
    minipy::bytecode::set_mode(match omp4rs::Icvs::with(|icvs| icvs.minipy_vm) {
        omp4rs::MinipyVm::Off => minipy::bytecode::VmMode::Off,
        omp4rs::MinipyVm::On => minipy::bytecode::VmMode::On,
    });
    let runtime = build_runtime_module(mode);
    interp.set_global("__omp", runtime.clone());

    let omp4py = ModuleObj::new("omp4py");
    omp4py.set("omp", make_omp_callable(OmpOptions::default()));
    install_api(&omp4py);
    // `import omp4py; omp4py.omp(...)` needs the runtime reachable too.
    omp4py.set("_runtime", runtime);
    interp.register_module("omp4py", omp4py.into_value());

    // `omp4py.pure` forces Pure mode regardless of the installed default
    // (paper §III-F).
    let pure_runtime = build_runtime_module(ExecMode::Pure);
    let pure = ModuleObj::new("omp4py.pure");
    pure.set("omp", make_omp_callable(OmpOptions::default()));
    install_api(&pure);
    pure.set("_runtime", pure_runtime);
    interp.register_module("omp4py.pure", pure.into_value());
}

/// Decorator options (paper §III-F: `cache`, `dump`, `debug`, `compile`,
/// `force`, `options`). `cache`/`force`/`compile` are accepted for API
/// compatibility; in this reproduction compiled modes are the native Rust
/// APIs, and there is no bytecode cache.
#[derive(Debug, Clone, Copy, Default)]
struct OmpOptions {
    dump: bool,
    debug: bool,
}

/// The `omp` object: directive container, decorator, and decorator factory.
fn make_omp_callable(options: OmpOptions) -> Value {
    NativeFunc::new("omp", move |interp, args| {
        // Decorator factory: omp(dump=True) → configured decorator.
        if args.pos.is_empty() {
            let mut opts = options;
            for (k, v) in &args.kw {
                match k.as_str() {
                    "dump" => opts.dump = v.truthy(),
                    "debug" => opts.debug = v.truthy(),
                    "cache" | "force" | "compile" | "options" => {}
                    other => {
                        return Err(err(
                            ErrKind::Type,
                            format!("omp() got an unexpected keyword argument '{other}'"),
                        ))
                    }
                }
            }
            return Ok(make_omp_callable(opts));
        }
        match args.req(0)? {
            // Directive container: validate; register declarative directives.
            Value::Str(text) => {
                let d = Directive::parse(text)
                    .map_err(|e| PyErr::new(ErrKind::Syntax, e.to_string()))?;
                match d.kind {
                    DirectiveKind::DeclareReduction {
                        name,
                        combiner,
                        initializer,
                    } => {
                        declare_reduction(
                            &name,
                            DeclaredReduction {
                                combiner,
                                initializer,
                            },
                        );
                    }
                    DirectiveKind::Threadprivate(vars) => {
                        threadprivate::register(&vars);
                    }
                    _ => {}
                }
                Ok(Value::None)
            }
            // Decorator: transform the function.
            Value::Func(fv) => {
                let new_def = transform_function(&fv.def)?;
                if options.dump || options.debug {
                    let module = minipy::Module {
                        body: vec![minipy::ast::Stmt::synth(minipy::ast::StmtKind::FuncDef(
                            Arc::new(new_def.clone()),
                        ))],
                    };
                    interp.write_stdout(&minipy::print_module(&module));
                }
                Ok(Value::Func(Arc::new(FuncValue {
                    def: Arc::new(new_def),
                    closure: fv.closure.clone(),
                    name: fv.name.clone(),
                    defaults: fv.defaults.clone(),
                })))
            }
            other => Err(err(
                ErrKind::Type,
                format!(
                    "omp() expects a directive string or a function, got {}",
                    other.type_name()
                ),
            )),
        }
    })
}

/// Expose the OpenMP 3.0 runtime API to interpreted code.
fn install_api(module: &ModuleObj) {
    module.set(
        "omp_get_num_threads",
        NativeFunc::new("omp_get_num_threads", |_, _| {
            Ok(Value::Int(omp4rs::omp_get_num_threads() as i64))
        }),
    );
    module.set(
        "omp_get_thread_num",
        NativeFunc::new("omp_get_thread_num", |_, _| {
            Ok(Value::Int(omp4rs::omp_get_thread_num() as i64))
        }),
    );
    module.set(
        "omp_get_max_threads",
        NativeFunc::new("omp_get_max_threads", |_, _| {
            Ok(Value::Int(omp4rs::omp_get_max_threads() as i64))
        }),
    );
    module.set(
        "omp_set_num_threads",
        NativeFunc::new("omp_set_num_threads", |_, args: Args| {
            omp4rs::omp_set_num_threads(args.req(0)?.as_int()?.max(0) as usize);
            Ok(Value::None)
        }),
    );
    module.set(
        "omp_get_num_procs",
        NativeFunc::new("omp_get_num_procs", |_, _| {
            Ok(Value::Int(omp4rs::omp_get_num_procs() as i64))
        }),
    );
    module.set(
        "omp_in_parallel",
        NativeFunc::new("omp_in_parallel", |_, _| {
            Ok(Value::Bool(omp4rs::omp_in_parallel()))
        }),
    );
    module.set(
        "omp_set_nested",
        NativeFunc::new("omp_set_nested", |_, args: Args| {
            omp4rs::omp_set_nested(args.req(0)?.truthy());
            Ok(Value::None)
        }),
    );
    module.set(
        "omp_get_nested",
        NativeFunc::new("omp_get_nested", |_, _| {
            Ok(Value::Bool(omp4rs::omp_get_nested()))
        }),
    );
    module.set(
        "omp_set_dynamic",
        NativeFunc::new("omp_set_dynamic", |_, args: Args| {
            omp4rs::omp_set_dynamic(args.req(0)?.truthy());
            Ok(Value::None)
        }),
    );
    module.set(
        "omp_get_dynamic",
        NativeFunc::new("omp_get_dynamic", |_, _| {
            Ok(Value::Bool(omp4rs::omp_get_dynamic()))
        }),
    );
    module.set(
        "omp_get_level",
        NativeFunc::new("omp_get_level", |_, _| {
            Ok(Value::Int(omp4rs::omp_get_level() as i64))
        }),
    );
    module.set(
        "omp_get_active_level",
        NativeFunc::new("omp_get_active_level", |_, _| {
            Ok(Value::Int(omp4rs::omp_get_active_level() as i64))
        }),
    );
    module.set(
        "omp_get_ancestor_thread_num",
        NativeFunc::new("omp_get_ancestor_thread_num", |_, args: Args| {
            Ok(Value::Int(omp4rs::omp_get_ancestor_thread_num(
                args.req(0)?.as_int()?,
            )))
        }),
    );
    module.set(
        "omp_get_team_size",
        NativeFunc::new("omp_get_team_size", |_, args: Args| {
            Ok(Value::Int(omp4rs::omp_get_team_size(
                args.req(0)?.as_int()?,
            )))
        }),
    );
    module.set(
        "omp_get_wtime",
        NativeFunc::new("omp_get_wtime", |_, _| {
            Ok(Value::Float(omp4rs::omp_get_wtime()))
        }),
    );
    module.set(
        "omp_get_wtick",
        NativeFunc::new("omp_get_wtick", |_, _| {
            Ok(Value::Float(omp4rs::omp_get_wtick()))
        }),
    );
    module.set(
        "omp_set_schedule",
        NativeFunc::new("omp_set_schedule", |_, args: Args| {
            let kind = ScheduleKind::parse(args.req(0)?.as_str()?)
                .ok_or_else(|| err(ErrKind::Value, "invalid schedule kind"))?;
            let chunk = match args.opt(1) {
                Some(Value::None) | None => None,
                Some(v) => Some(v.as_int()?.max(1) as u64),
            };
            omp4rs::omp_set_schedule(kind, chunk);
            Ok(Value::None)
        }),
    );
    module.set(
        "omp_get_schedule",
        NativeFunc::new("omp_get_schedule", |_, _| {
            let (kind, chunk) = omp4rs::omp_get_schedule();
            Ok(Value::tuple(vec![
                Value::str(kind.name()),
                chunk.map(|c| Value::Int(c as i64)).unwrap_or(Value::None),
            ]))
        }),
    );
    module.set(
        "omp_get_thread_limit",
        NativeFunc::new("omp_get_thread_limit", |_, _| {
            let limit = omp4rs::omp_get_thread_limit();
            Ok(Value::Int(if limit == usize::MAX {
                i64::MAX
            } else {
                limit as i64
            }))
        }),
    );
    module.set(
        "omp_set_max_active_levels",
        NativeFunc::new("omp_set_max_active_levels", |_, args: Args| {
            omp4rs::omp_set_max_active_levels(args.req(0)?.as_int()?.max(0) as usize);
            Ok(Value::None)
        }),
    );
    module.set(
        "omp_get_max_active_levels",
        NativeFunc::new("omp_get_max_active_levels", |_, _| {
            let levels = omp4rs::omp_get_max_active_levels();
            Ok(Value::Int(if levels == usize::MAX {
                i64::MAX
            } else {
                levels as i64
            }))
        }),
    );

    // ---- profiling (OMPT-inspired, beyond the OpenMP 3.0 API) -------------
    module.set(
        "ompt_enabled",
        NativeFunc::new("ompt_enabled", |_, _| {
            Ok(Value::Bool(omp4rs::ompt::enabled()))
        }),
    );
    module.set(
        "ompt_counters",
        NativeFunc::new("ompt_counters", |interp, _| {
            sync_interp_counters(interp);
            let out = Value::dict();
            if let Value::Dict(map) = &out {
                let mut entries = map.write();
                for (name, value) in omp4rs::ompt::counters() {
                    entries.insert(minipy::HKey::Str(name.into()), Value::Int(value as i64));
                }
            }
            Ok(out)
        }),
    );
    module.set(
        "ompt_summary",
        NativeFunc::new("ompt_summary", |interp, _| {
            sync_interp_counters(interp);
            Ok(Value::str(omp4rs::ompt::summary()))
        }),
    );
    module.set(
        "ompt_reset",
        NativeFunc::new("ompt_reset", |_, _| {
            minipy::stats::reset();
            omp4rs::ompt::reset();
            Ok(Value::None)
        }),
    );
}

/// Publish the interpreter-side profiling counters into the
/// [`omp4rs::ompt`] counter registry, so GIL hold time and per-object lock
/// contention appear next to runtime metrics in summaries and Chrome traces.
///
/// Counter names: `minipy.gil.acquisitions`, `minipy.gil.hold_ns`,
/// `minipy.gil.switches`, `minipy.obj_lock.acquisitions`,
/// `minipy.obj_lock.contended`, `minipy.vm.compiles`,
/// `minipy.vm.compile_ns`, `minipy.vm.fallbacks`, `minipy.vm.frames`,
/// `minipy.vm.ops`, `minipy.vm.quicken.rewrites`,
/// `minipy.vm.quicken.deopts`, `minipy.vm.ic.hits`, `minipy.vm.ic.misses`,
/// and one `minipy.vm.fallback.<reason>` per observed fallback reason. See
/// [`minipy::stats`] for what each counts.
pub fn sync_interp_counters(interp: &Interp) {
    let stats = minipy::stats::snapshot();
    omp4rs::ompt::set_counter("minipy.gil.acquisitions", stats.gil_acquisitions);
    omp4rs::ompt::set_counter("minipy.gil.hold_ns", stats.gil_hold_ns);
    omp4rs::ompt::set_counter("minipy.gil.switches", interp.gil().switch_count());
    omp4rs::ompt::set_counter("minipy.obj_lock.acquisitions", stats.obj_lock_acquisitions);
    omp4rs::ompt::set_counter("minipy.obj_lock.contended", stats.obj_lock_contended);
    omp4rs::ompt::set_counter("minipy.vm.compiles", stats.vm_compiles);
    omp4rs::ompt::set_counter("minipy.vm.compile_ns", stats.vm_compile_ns);
    omp4rs::ompt::set_counter("minipy.vm.fallbacks", stats.vm_fallbacks);
    omp4rs::ompt::set_counter("minipy.vm.frames", stats.vm_frames);
    omp4rs::ompt::set_counter("minipy.vm.ops", stats.vm_ops);
    omp4rs::ompt::set_counter("minipy.vm.quicken.rewrites", stats.quicken_rewrites);
    omp4rs::ompt::set_counter("minipy.vm.quicken.deopts", stats.quicken_deopts);
    omp4rs::ompt::set_counter("minipy.vm.ic.hits", stats.ic_hits);
    omp4rs::ompt::set_counter("minipy.vm.ic.misses", stats.ic_misses);
    for (reason, count) in minipy::bytecode::fallback_reasons() {
        omp4rs::ompt::set_counter(vm_fallback_counter(reason), count);
    }
}

/// Intern `minipy.vm.fallback.<reason>` counter names: the `ompt` counter
/// registry wants `&'static str` keys, and the reason set is closed (one
/// leaked string per [`minipy::bytecode::FallbackReason`] spelling, ever).
fn vm_fallback_counter(reason: &'static str) -> &'static str {
    static NAMES: OnceLock<Mutex<HashMap<&'static str, &'static str>>> = OnceLock::new();
    let mut map = NAMES.get_or_init(|| Mutex::new(HashMap::new())).lock();
    map.entry(reason)
        .or_insert_with(|| Box::leak(format!("minipy.vm.fallback.{reason}").into_boxed_str()))
}

fn native(
    module: &ModuleObj,
    name: &'static str,
    f: impl Fn(&Interp, Args) -> Result<Value, PyErr> + Send + Sync + 'static,
) {
    module.set(name, NativeFunc::new(name, f));
}

/// Build the `__omp` intrinsics module for a mode.
fn build_runtime_module(mode: ExecMode) -> Value {
    let backend = mode.backend();
    let module = ModuleObj::new("__omp");

    // ---- parallel --------------------------------------------------------
    native(&module, "parallel_run", move |interp, args: Args| {
        // Arm interpreter-side counters (GIL hold time, per-object lock
        // contention) whenever the profiler is on, so the Pure-vs-Compiled
        // contrast shows up in `ompt` counters. Never disarms: tests may have
        // enabled stats programmatically without an OMP_TOOL session.
        omp4rs::ompt::ensure_env_init();
        if omp4rs::ompt::enabled() {
            minipy::stats::set_enabled(true);
        }
        let func = args.req(0)?.clone();
        let num_threads = match args.opt(1) {
            Some(Value::None) | None => None,
            Some(v) => Some(v.as_int()?.max(1) as usize),
        };
        let if_parallel = args.opt(2).map(Value::truthy).unwrap_or(true);
        let cfg = ParallelConfig {
            num_threads,
            if_parallel,
            backend,
        };
        let error_slot: Mutex<Option<PyErr>> = Mutex::new(None);
        let region = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            blocking(interp, || {
                omp4rs::parallel_region(&cfg, |_ctx| {
                    // Each team thread runs the region body function under
                    // its own GIL session.
                    if let Err(e) = interp.call(&func, vec![]) {
                        let mut slot = error_slot.lock();
                        if slot.is_none() {
                            *slot = Some(e);
                        }
                    }
                });
            });
        }));
        if let Err(panic) = region {
            // Task bodies carry interpreter errors as TaskPyErr payloads.
            match panic.downcast::<TaskPyErr>() {
                Ok(task_err) => return Err(task_err.0),
                Err(other) => std::panic::resume_unwind(other),
            }
        }
        let first_error = error_slot.lock().take();
        match first_error {
            // Divergence from the paper (documented): instead of printing a
            // per-thread traceback and continuing, the first uncaught
            // exception of a team is re-raised once the region completes.
            Some(e) => Err(e),
            None => Ok(Value::None),
        }
    });

    // ---- worksharing loops -------------------------------------------------
    native(&module, "for_bounds", |_, args: Args| {
        let triplet_list = match args.req(0)? {
            Value::List(l) => l.read().clone(),
            other => {
                return Err(err(
                    ErrKind::Type,
                    format!("for_bounds expects a list, got {}", other.type_name()),
                ))
            }
        };
        if triplet_list.is_empty() || triplet_list.len() % 3 != 0 {
            return Err(err(
                ErrKind::Value,
                "for_bounds expects start/end/step triplets",
            ));
        }
        let mut triplets = Vec::with_capacity(triplet_list.len());
        for v in &triplet_list {
            triplets.push(v.as_int()?);
        }
        let state = BoundsState {
            fb: Mutex::new(None),
            triplets: Mutex::new(triplets),
            seq: Mutex::new(None),
            instance: Mutex::new(None),
            rank: Mutex::new(triplet_list.len() / 3),
            ordered: Mutex::new(false),
        };
        // Returned as a bare opaque handle: the generated code reads chunk
        // bounds through `for_chunk` (an immutable tuple), so the loop path
        // never round-trips through a lock-counted shared list.
        Ok(Value::Opaque(Arc::new(state)))
    });

    native(&module, "for_init", move |_, args: Args| {
        let bounds = args.req(0)?;
        let sched_clause = match args.opt(1) {
            Some(Value::Str(s)) => Some(
                ScheduleKind::parse(s).ok_or_else(|| err(ErrKind::Value, "bad schedule kind"))?,
            ),
            _ => None,
        };
        let chunk = match args.opt(2) {
            Some(Value::None) | None => None,
            Some(v) => Some(v.as_int()?.max(1) as u64),
        };
        let _nowait = args.opt(3).map(Value::truthy).unwrap_or(false);
        let ordered = args.opt(4).map(Value::truthy).unwrap_or(false);

        with_bounds(bounds, |state| {
            let triplets = state.triplets.lock().clone();
            let dims_vec: Vec<(i64, i64, i64)> =
                triplets.chunks(3).map(|c| (c[0], c[1], c[2])).collect();
            let dims = LoopDims::new(&dims_vec).map_err(|e| err(ErrKind::Value, e.to_string()))?;
            let frame = context::current_frame();
            let (thread_num, nthreads) = match &frame {
                Some(f) => (f.thread_num, f.team.size()),
                None => (0, 1),
            };
            // Every in-team loop gets a work-share instance: dynamic/guided
            // schedules need its chunk counter, ordered needs its turnstile,
            // cancellation (`cancel("for")`, region poisoning) is observed
            // through it at each `for_next` chunk claim — and it pins the
            // schedule the first team thread resolves.
            let mut instance = None;
            if let Some(f) = &frame {
                let seq = f.next_ws_seq();
                let inst = f.team.worksharing().enter(seq);
                *state.seq.lock() = Some(seq);
                instance = Some(inst);
            }
            let clause = sched_clause.map(|k| (k, chunk));
            let sched = match &instance {
                Some(inst) => inst.resolve_schedule(clause, dims.total(), nthreads, true),
                None => ResolvedSchedule::resolve(clause, dims.total(), nthreads, true),
            };
            if let (Some(f), Some(inst)) = (&frame, &instance) {
                f.set_current_instance(Some(Arc::clone(inst)));
            }
            *state.instance.lock() = instance.clone();
            *state.ordered.lock() = ordered;
            *state.fb.lock() = Some(ForBounds::init(dims, sched, thread_num, nthreads, instance));
            Ok(())
        })?;
        Ok(Value::None)
    });

    native(&module, "for_next", |_, args: Args| {
        let bounds = args.req(0)?;
        let (more, lo, hi, step) = with_bounds(bounds, |state| {
            let mut guard = state.fb.lock();
            let fb = guard
                .as_mut()
                .ok_or_else(|| runtime_err("for_next before for_init"))?;
            if fb.next() {
                let rank = *state.rank.lock();
                if rank == 1 {
                    let (v0, v1, st) = fb.dims.var_chunk(fb.lo, fb.hi);
                    Ok((true, v0, v1, st))
                } else {
                    Ok((true, fb.lo as i64, fb.hi as i64, 1))
                }
            } else {
                Ok((false, 0, 0, 1))
            }
        })?;
        if more {
            if let Value::List(items) = bounds {
                let mut items = items.write();
                items[0] = Value::Int(lo);
                items[1] = Value::Int(hi);
                items[2] = Value::Int(step);
            }
        }
        Ok(Value::Bool(more))
    });

    native(&module, "for_chunk", |_, args: Args| {
        let (lo, hi, step) = with_bounds(args.req(0)?, |state| {
            let guard = state.fb.lock();
            let fb = guard
                .as_ref()
                .ok_or_else(|| runtime_err("for_chunk before for_init"))?;
            let rank = *state.rank.lock();
            if rank == 1 {
                Ok(fb.dims.var_chunk(fb.lo, fb.hi))
            } else {
                Ok((fb.lo as i64, fb.hi as i64, 1))
            }
        })?;
        // An immutable tuple: unpacking it into frame locals takes no
        // per-object lock, unlike the legacy writeback into the bounds list.
        Ok(Value::tuple(vec![
            Value::Int(lo),
            Value::Int(hi),
            Value::Int(step),
        ]))
    });

    native(&module, "for_is_last", |_, args: Args| {
        let last = with_bounds(args.req(0)?, |state| {
            Ok(state
                .fb
                .lock()
                .as_ref()
                .map(|fb| fb.is_last)
                .unwrap_or(false))
        })?;
        Ok(Value::Bool(last))
    });

    native(&module, "for_end", |interp, args: Args| {
        let nowait = args.opt(1).map(Value::truthy).unwrap_or(false);
        with_bounds(args.req(0)?, |state| {
            let frame = context::current_frame();
            if let (Some(f), Some(seq)) = (&frame, *state.seq.lock()) {
                f.team.worksharing().leave(seq);
            }
            if let Some(f) = &frame {
                if *state.ordered.lock() {
                    f.set_current_iter(None);
                }
                f.set_current_instance(None);
            }
            Ok(())
        })?;
        if !nowait {
            if let Some(team) = current_team() {
                blocking(interp, || team.barrier());
            }
        }
        Ok(Value::None)
    });

    native(&module, "collapse_var", |_, args: Args| {
        let flat = args.req(1)?.as_int()?;
        let dim = args.req(2)?.as_int()? as usize;
        let value = with_bounds(args.req(0)?, |state| {
            let guard = state.fb.lock();
            let fb = guard
                .as_ref()
                .ok_or_else(|| runtime_err("collapse_var before for_init"))?;
            Ok(fb.dims.vars_of(flat as u64).get(dim).copied().unwrap_or(0))
        })?;
        Ok(Value::Int(value))
    });

    native(&module, "set_iter", |_, args: Args| {
        let var = args.req(1)?.as_int()?;
        with_bounds(args.req(0)?, |state| {
            let guard = state.fb.lock();
            let fb = guard
                .as_ref()
                .ok_or_else(|| runtime_err("set_iter before for_init"))?;
            let flat = fb.dims.flat_of_var(var);
            if let Some(f) = context::current_frame() {
                f.set_current_iter(Some(flat));
            }
            Ok(())
        })?;
        Ok(Value::None)
    });

    native(&module, "set_iter_flat", |_, args: Args| {
        let flat = args.req(1)?.as_int()?;
        if let Some(f) = context::current_frame() {
            f.set_current_iter(Some(flat as u64));
        }
        Ok(Value::None)
    });

    // ---- single / sections -------------------------------------------------
    native(&module, "single_begin", |_, _| {
        let frame = context::current_frame();
        let (inst, seq) = match &frame {
            Some(f) => {
                let seq = f.next_ws_seq();
                (Some(f.team.worksharing().enter(seq)), Some(seq))
            }
            None => (None, None),
        };
        Ok(Value::Opaque(Arc::new(RegionState {
            inst,
            seq,
            n_sections: 0,
            ran_last: std::sync::atomic::AtomicBool::new(false),
        })))
    });

    native(&module, "single_claim", |_, args: Args| {
        let state = downcast::<RegionState>(args.req(0)?, "single handle")?;
        let claimed = match &state.inst {
            Some(inst) => inst.claim.try_claim(),
            None => true,
        };
        Ok(Value::Bool(claimed))
    });

    native(&module, "single_end", |interp, args: Args| {
        let nowait = args.opt(1).map(Value::truthy).unwrap_or(false);
        {
            let state = downcast::<RegionState>(args.req(0)?, "single handle")?;
            if let (Some(f), Some(seq)) = (context::current_frame(), state.seq) {
                f.team.worksharing().leave(seq);
            }
        }
        if !nowait {
            if let Some(team) = current_team() {
                blocking(interp, || team.barrier());
            }
        }
        Ok(Value::None)
    });

    native(&module, "copyprivate_set", |_, args: Args| {
        let value = args.req(1)?.clone();
        let state = downcast::<RegionState>(args.req(0)?, "single handle")?;
        match &state.inst {
            Some(inst) => inst.copyprivate_publish(Box::new(value)),
            None => {
                // Serial execution: stash directly.
                state
                    .ran_last
                    .store(true, std::sync::atomic::Ordering::SeqCst);
            }
        }
        Ok(Value::None)
    });

    native(&module, "copyprivate_get", |interp, args: Args| {
        let state = downcast::<RegionState>(args.req(0)?, "single handle")?;
        match &state.inst {
            Some(inst) => {
                let inst = Arc::clone(inst);
                Ok(blocking(interp, move || inst.copyprivate_read::<Value>()))
            }
            None => Err(runtime_err("copyprivate_get outside a parallel region")),
        }
    });

    native(&module, "sections_begin", |_, args: Args| {
        let n = args.req(0)?.as_int()?.max(0) as u64;
        let frame = context::current_frame();
        let (inst, seq) = match &frame {
            Some(f) => {
                let seq = f.next_ws_seq();
                (Some(f.team.worksharing().enter(seq)), Some(seq))
            }
            None => (None, None),
        };
        // Track the active instance so `cancel("sections")` can target it.
        if let (Some(f), Some(inst)) = (&frame, &inst) {
            f.set_current_instance(Some(Arc::clone(inst)));
        }
        Ok(Value::Opaque(Arc::new(RegionState {
            inst,
            seq,
            n_sections: n,
            ran_last: std::sync::atomic::AtomicBool::new(false),
        })))
    });

    native(&module, "sections_next", |_, args: Args| {
        let state = downcast::<RegionState>(args.req(0)?, "sections handle")?;
        let inst = match &state.inst {
            Some(inst) => inst,
            // Outside a parallel region: one thread runs all sections.
            None => return serial_sections_next(state),
        };
        if inst.is_cancelled() {
            return Ok(Value::Int(-1));
        }
        let i = inst.counter.fetch_add(1);
        if i < state.n_sections {
            if i == state.n_sections - 1 {
                state
                    .ran_last
                    .store(true, std::sync::atomic::Ordering::SeqCst);
            }
            Ok(Value::Int(i as i64))
        } else {
            Ok(Value::Int(-1))
        }
    });

    native(&module, "sections_end", |interp, args: Args| {
        let nowait = args.opt(1).map(Value::truthy).unwrap_or(false);
        {
            let state = downcast::<RegionState>(args.req(0)?, "sections handle")?;
            if let Some(f) = context::current_frame() {
                if let Some(seq) = state.seq {
                    f.team.worksharing().leave(seq);
                }
                f.set_current_instance(None);
            }
        }
        if !nowait {
            if let Some(team) = current_team() {
                blocking(interp, || team.barrier());
            }
        }
        Ok(Value::None)
    });

    // ---- synchronization ------------------------------------------------------
    native(&module, "barrier", |interp, _| {
        if let Some(team) = current_team() {
            // A user-written `barrier` directive is an *explicit* barrier in
            // profiler events, unlike the implicit end-of-worksharing ones.
            blocking(interp, || team.barrier_explicit());
        }
        Ok(Value::None)
    });

    native(&module, "is_master", |_, _| {
        Ok(Value::Bool(context::thread_num() == 0))
    });

    // ---- cancellation -----------------------------------------------------
    native(&module, "cancel", |_, args: Args| {
        let name = args.req(0)?.as_str()?.to_owned();
        let construct = CancelConstruct::parse(&name)
            .ok_or_else(|| err(ErrKind::Value, format!("invalid cancel construct '{name}'")))?;
        // User-requested cancellation is gated by the cancel-var ICV
        // (OMP_CANCELLATION); outside a team there is nothing to cancel.
        if !omp4rs::Icvs::with(|icvs| icvs.cancellation) {
            return Ok(Value::Bool(false));
        }
        let frame = match context::current_frame() {
            Some(f) => f,
            None => return Ok(Value::Bool(false)),
        };
        match construct {
            CancelConstruct::Parallel => frame.team.cancel_region(),
            CancelConstruct::For | CancelConstruct::Sections => {
                let inst = frame.current_instance().ok_or_else(|| {
                    runtime_err(format!("cancel({name}) outside a work-sharing region"))
                })?;
                inst.cancel();
            }
            CancelConstruct::Taskgroup => frame.team.tasks().cancel(),
        }
        Ok(Value::Bool(true))
    });

    native(&module, "cancellation_point", |_, args: Args| {
        let name = args.req(0)?.as_str()?.to_owned();
        let construct = CancelConstruct::parse(&name)
            .ok_or_else(|| err(ErrKind::Value, format!("invalid cancel construct '{name}'")))?;
        let frame = match context::current_frame() {
            Some(f) => f,
            None => return Ok(Value::Bool(false)),
        };
        // Observation is not ICV-gated: poisoning must be visible even when
        // user cancellation is disabled.
        let cancelled = match construct {
            CancelConstruct::Parallel => frame.team.is_cancelled(),
            CancelConstruct::For | CancelConstruct::Sections => frame
                .current_instance()
                .map(|inst| inst.is_cancelled())
                .unwrap_or_else(|| frame.team.is_cancelled()),
            CancelConstruct::Taskgroup => {
                frame.team.tasks().is_cancelled() || frame.team.is_cancelled()
            }
        };
        Ok(Value::Bool(cancelled))
    });

    native(&module, "critical_enter", |interp, args: Args| {
        let name = match args.opt(0) {
            Some(Value::Str(s)) if !s.is_empty() => format!("user:{s}"),
            _ => "user:".to_owned(),
        };
        let lock = named_lock(&name);
        blocking(interp, || lock.set());
        Ok(Value::None)
    });
    native(&module, "critical_exit", |_, args: Args| {
        let name = match args.opt(0) {
            Some(Value::Str(s)) if !s.is_empty() => format!("user:{s}"),
            _ => "user:".to_owned(),
        };
        named_lock(&name).unset();
        Ok(Value::None)
    });
    native(&module, "mutex_lock", |interp, _| {
        let lock = named_lock("\0reduction");
        blocking(interp, || lock.set());
        Ok(Value::None)
    });
    native(&module, "mutex_unlock", |_, _| {
        named_lock("\0reduction").unset();
        Ok(Value::None)
    });
    native(&module, "atomic_enter", |interp, _| {
        let lock = named_lock("\0atomic");
        blocking(interp, || lock.set());
        Ok(Value::None)
    });
    native(&module, "atomic_exit", |_, _| {
        named_lock("\0atomic").unset();
        Ok(Value::None)
    });

    native(&module, "ordered_start", |interp, _| {
        let frame = context::current_frame()
            .ok_or_else(|| runtime_err("'ordered' outside a parallel loop"))?;
        let inst = frame
            .current_instance()
            .ok_or_else(|| runtime_err("'ordered' requires a loop with the ordered clause"))?;
        let flat = frame
            .current_iter()
            .ok_or_else(|| runtime_err("'ordered' requires an active loop iteration"))?;
        blocking(interp, || inst.ordered_enter(flat));
        Ok(Value::None)
    });
    native(&module, "ordered_end", |_, _| {
        let frame = context::current_frame()
            .ok_or_else(|| runtime_err("'ordered' outside a parallel loop"))?;
        let inst = frame
            .current_instance()
            .ok_or_else(|| runtime_err("'ordered' requires a loop with the ordered clause"))?;
        let flat = frame
            .current_iter()
            .ok_or_else(|| runtime_err("'ordered' requires an active loop iteration"))?;
        inst.ordered_exit(flat);
        Ok(Value::None)
    });

    native(&module, "flush", |_, _| {
        std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
        Ok(Value::None)
    });

    // ---- tasks -------------------------------------------------------------------
    native(&module, "task_submit", |interp, args: Args| {
        let func = args.req(0)?.clone();
        let deferred = args.opt(1).map(Value::truthy).unwrap_or(true);
        match current_team() {
            Some(team) => {
                let interp = interp.clone();
                let body = move || {
                    if let Err(e) = interp.call(&func, vec![]) {
                        // Carried to parallel_run through the panic channel.
                        std::panic::panic_any(TaskPyErr(e));
                    }
                };
                team.submit_task(body, deferred);
            }
            None => {
                // Outside a parallel region tasks are undeferred.
                interp.call(&func, vec![])?;
            }
        }
        Ok(Value::None)
    });
    // `task depend(...)` / `task priority(n)`: the transform evaluates the
    // dependence item expressions at creation time and hands the resulting
    // *values* here; hashing them into storage keys makes two tasks naming
    // equal values conflict, mirroring same-address list items in compiled
    // mode. Signature: (func, deferred, in_items, out_items, inout_items,
    // priority).
    native(&module, "task_submit_ex", |interp, args: Args| {
        let func = args.req(0)?.clone();
        let deferred = args.opt(1).map(Value::truthy).unwrap_or(true);
        let mut deps = Vec::new();
        for (idx, make) in [
            (2usize, Dep::input as fn(u64) -> Dep),
            (3, Dep::output as fn(u64) -> Dep),
            (4, Dep::inout as fn(u64) -> Dep),
        ] {
            if let Some(Value::List(items)) = args.opt(idx) {
                for item in items.read().iter() {
                    deps.push(make(dep_key(item)?));
                }
            }
        }
        let priority = match args.opt(5) {
            Some(Value::None) | None => 0,
            Some(v) => v.as_int()?,
        };
        match current_team() {
            Some(team) => {
                let task_interp = interp.clone();
                let body = move || {
                    if let Err(e) = task_interp.call(&func, vec![]) {
                        std::panic::panic_any(TaskPyErr(e));
                    }
                };
                if deferred || deps.is_empty() {
                    team.submit_task_ex(body, deferred, priority, &deps);
                } else {
                    // An undeferred task with dependences waits for its
                    // predecessors; release the GIL while parked so other
                    // team threads can run the interpreted tasks it needs.
                    blocking(interp, || team.submit_task_ex(body, false, priority, &deps));
                }
            }
            None => {
                // Outside a parallel region tasks run undeferred in program
                // order, which already satisfies every dependence.
                interp.call(&func, vec![])?;
            }
        }
        Ok(Value::None)
    });
    native(&module, "taskgroup_begin", |_, _| {
        if let Some(team) = current_team() {
            team.taskgroup_begin();
        }
        Ok(Value::None)
    });
    native(&module, "taskgroup_end", |interp, _| {
        if let Some(team) = current_team() {
            blocking(interp, || team.taskgroup_end());
        }
        Ok(Value::None)
    });
    native(&module, "taskloop_run", |interp, args: Args| {
        let func = args.req(0)?.clone();
        let start = args.req(1)?.as_int()?;
        let stop = args.req(2)?.as_int()?;
        let step = args.req(3)?.as_int()?;
        if step == 0 {
            return Err(err(ErrKind::Value, "taskloop step must not be zero"));
        }
        let grainsize = match args.opt(4) {
            Some(Value::None) | None => None,
            Some(v) => Some(v.as_int()?.max(1)),
        };
        let num_tasks = match args.opt(5) {
            Some(Value::None) | None => None,
            Some(v) => Some(v.as_int()?.max(1)),
        };
        let nogroup = args.opt(6).map(Value::truthy).unwrap_or(false);
        let total = if step > 0 {
            ((stop - start).max(0) + step - 1) / step
        } else {
            ((start - stop).max(0) + (-step) - 1) / (-step)
        };
        if total == 0 {
            return Ok(Value::None);
        }
        let team = current_team();
        let team_size = team.as_ref().map(|t| t.size()).unwrap_or(1) as i64;
        let grain = grainsize
            .unwrap_or_else(|| {
                let nt = num_tasks.unwrap_or(2 * team_size).max(1);
                (total + nt - 1) / nt
            })
            .max(1);
        let mut chunk_start = 0i64;
        while chunk_start < total {
            let chunk_end = (chunk_start + grain).min(total);
            let lo = start + chunk_start * step;
            let hi = start + chunk_end * step;
            match &team {
                Some(team) => {
                    let interp = interp.clone();
                    let func = func.clone();
                    team.submit_task(
                        move || {
                            if let Err(e) = interp.call(
                                &func,
                                vec![Value::Int(lo), Value::Int(hi), Value::Int(step)],
                            ) {
                                std::panic::panic_any(TaskPyErr(e));
                            }
                        },
                        true,
                    );
                }
                None => {
                    interp.call(
                        &func,
                        vec![Value::Int(lo), Value::Int(hi), Value::Int(step)],
                    )?;
                }
            }
            chunk_start = chunk_end;
        }
        if !nogroup {
            if let Some(team) = &team {
                blocking(interp, || team.taskwait());
            }
        }
        Ok(Value::None)
    });
    native(&module, "task_wait", |interp, _| {
        if let Some(team) = current_team() {
            blocking(interp, || team.taskwait());
        }
        Ok(Value::None)
    });
    native(&module, "task_yield", |interp, _| {
        if let Some(team) = current_team() {
            blocking(interp, || team.taskyield());
        }
        Ok(Value::None)
    });

    // ---- reductions -----------------------------------------------------------------
    native(&module, "reduce_init", |interp, args: Args| {
        let op = args.req(0)?.as_str()?.to_owned();
        let current = args.req(1)?;
        reduce_identity_value(interp, &op, current)
    });

    native(&module, "reduce_combine", |interp, args: Args| {
        let name = args.req(0)?.as_str()?.to_owned();
        let a = args.req(1)?.clone();
        let b = args.req(2)?.clone();
        let decl = declared_reduction(&name).ok_or_else(|| {
            err(
                ErrKind::Name,
                format!("reduction '{name}' has not been declared"),
            )
        })?;
        eval_reduction_expr(interp, &decl.combiner, Some((&a, &b)))
    });

    // ---- threadprivate -----------------------------------------------------------------
    native(&module, "tp_get", |interp, args: Args| {
        let name = args.req(0)?.as_str()?.to_owned();
        let local = TP_STORE.with(|s| s.borrow().get(&name).cloned());
        match local {
            Some(v) => Ok(v),
            None => {
                // First touch on this thread: initialize from the global.
                let initial = interp.get_global(&name).unwrap_or(Value::None);
                TP_STORE.with(|s| s.borrow_mut().insert(name, initial.clone()));
                Ok(initial)
            }
        }
    });
    native(&module, "tp_set", |_, args: Args| {
        let name = args.req(0)?.as_str()?.to_owned();
        let value = args.req(1)?.clone();
        TP_STORE.with(|s| s.borrow_mut().insert(name, value));
        Ok(Value::None)
    });

    // Mode introspection for tests and harnesses.
    native(&module, "mode", move |_, _| Ok(Value::str(mode.name())));

    Value::Opaque(Arc::new(module))
}

/// Hash a `depend` list-item value into a dependence-graph storage key
/// (FNV-1a over a type tag and the value's bytes; tuples/lists fold their
/// elements). Equal values — ints, floats, bools, strings, and nestings of
/// those — produce equal keys, so two tasks naming the same item conflict
/// exactly like same-address list items do in compiled mode.
fn dep_key(v: &Value) -> Result<u64, PyErr> {
    fn mix(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn go(v: &Value, h: &mut u64) -> Result<(), PyErr> {
        match v {
            Value::Int(i) => {
                mix(h, b"i");
                mix(h, &i.to_le_bytes());
            }
            Value::Bool(b) => {
                mix(h, b"b");
                mix(h, &[u8::from(*b)]);
            }
            Value::Float(f) => {
                mix(h, b"f");
                mix(h, &f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                mix(h, b"s");
                mix(h, s.as_bytes());
                mix(h, &[0xff]);
            }
            Value::Tuple(items) => {
                mix(h, b"t");
                for item in items.iter() {
                    go(item, h)?;
                }
                mix(h, &[0xfe]);
            }
            Value::List(items) => {
                mix(h, b"t");
                for item in items.read().iter() {
                    go(item, h)?;
                }
                mix(h, &[0xfe]);
            }
            other => {
                return Err(err(
                    ErrKind::Type,
                    format!(
                        "depend item of type {} cannot be used as a storage key",
                        other.type_name()
                    ),
                ))
            }
        }
        Ok(())
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    go(v, &mut h)?;
    Ok(h)
}

/// Serial (no-team) `sections_next`: iterate sections with a per-handle
/// cursor stored in a side table keyed by pointer identity.
fn serial_sections_next(state: &RegionState) -> Result<Value, PyErr> {
    static CURSORS: OnceLock<Mutex<HashMap<usize, u64>>> = OnceLock::new();
    let cursors = CURSORS.get_or_init(|| Mutex::new(HashMap::new()));
    let key = state as *const _ as usize;
    let mut map = cursors.lock();
    let cursor = map.entry(key).or_insert(0);
    if *cursor < state.n_sections {
        let i = *cursor;
        *cursor += 1;
        Ok(Value::Int(i as i64))
    } else {
        map.remove(&key);
        Ok(Value::Int(-1))
    }
}

/// Identity value for a reduction, typed against the variable's current
/// value (paper: private reduction copies start at the operator identity).
fn reduce_identity_value(interp: &Interp, op: &str, current: &Value) -> Result<Value, PyErr> {
    let is_float = matches!(current, Value::Float(_));
    Ok(match op {
        "+" | "-" => {
            if is_float {
                Value::Float(0.0)
            } else {
                Value::Int(0)
            }
        }
        "*" => {
            if is_float {
                Value::Float(1.0)
            } else {
                Value::Int(1)
            }
        }
        "min" => Value::Float(f64::INFINITY),
        "max" => Value::Float(f64::NEG_INFINITY),
        "&&" => Value::Bool(true),
        "||" => Value::Bool(false),
        "&" => Value::Int(-1),
        "|" | "^" => Value::Int(0),
        custom => {
            let decl = declared_reduction(custom).ok_or_else(|| {
                err(
                    ErrKind::Name,
                    format!("reduction '{custom}' has not been declared"),
                )
            })?;
            match &decl.initializer {
                Some(init) => eval_reduction_expr(interp, init, None)?,
                None => {
                    return Err(err(
                        ErrKind::Value,
                        format!("custom reduction '{custom}' requires an initializer(...) clause"),
                    ))
                }
            }
        }
    })
}

/// Evaluate a `declare reduction` combiner/initializer expression. The
/// combiner sees the accumulated value as `a`/`omp_out` and the incoming
/// value as `b`/`omp_in`.
fn eval_reduction_expr(
    interp: &Interp,
    text: &str,
    operands: Option<(&Value, &Value)>,
) -> Result<Value, PyErr> {
    let expr = minipy::parse_expr(text).map_err(|e| {
        err(
            ErrKind::Syntax,
            format!("invalid reduction expression '{text}': {}", e.msg),
        )
    })?;
    let env = interp.globals().child();
    if let Some((a, b)) = operands {
        env.define("a", a.clone());
        env.define("b", b.clone());
        env.define("omp_out", a.clone());
        env.define("omp_in", b.clone());
    }
    interp.eval(&expr, &env)
}
