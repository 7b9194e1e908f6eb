//! Compiled-mode execution API.
//!
//! This is the Rust analogue of the paper's **Compiled**/**CompiledDT**
//! modes: user code is native (Rust closures) and links directly against the
//! runtime, with directives expressed as clause strings or builders.
//!
//! ```
//! use omp4rs::exec::{parallel, ForSpec};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let total = AtomicU64::new(0);
//! parallel("num_threads(4)", |ctx| {
//!     let mut local = 0u64;
//!     ctx.for_each(ForSpec::parse("schedule(dynamic, 8)").unwrap(), 0..100, |i| {
//!         local += i as u64;
//!     });
//!     total.fetch_add(local, Ordering::Relaxed);
//! });
//! assert_eq!(total.load(Ordering::Relaxed), 4950);
//! ```

use std::any::Any;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::context;
use crate::depgraph::{self, Dep};
use crate::directive::{CancelConstruct, Clause, Directive, ScheduleKind};
use crate::error::OmpError;
use crate::icv::Icvs;
use crate::locks;
use crate::schedule::{ForBounds, LoopDims};
use crate::sync::Backend;
use crate::team::Team;

/// Invariant lifetime marker (prevents scope-shortening coercions that would
/// let tasks capture data shorter-lived than the parallel region).
type ScopeMarker<'scope> = PhantomData<std::cell::Cell<&'scope ()>>;

/// Configuration for a `parallel` directive.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// `num_threads(n)` clause; `None` uses the `nthreads-var` ICV.
    pub num_threads: Option<usize>,
    /// `if(expr)` clause result; `false` serializes the region.
    pub if_parallel: bool,
    /// Synchronization backend for the team's runtime internals.
    pub backend: Backend,
}

impl Default for ParallelConfig {
    fn default() -> ParallelConfig {
        ParallelConfig {
            num_threads: None,
            if_parallel: true,
            backend: Backend::Atomic,
        }
    }
}

impl ParallelConfig {
    /// Default configuration (atomic backend, ICV thread count).
    pub fn new() -> ParallelConfig {
        ParallelConfig::default()
    }

    /// Set an explicit team size.
    pub fn num_threads(mut self, n: usize) -> ParallelConfig {
        self.num_threads = Some(n.max(1));
        self
    }

    /// Set the `if` clause value.
    pub fn if_parallel(mut self, cond: bool) -> ParallelConfig {
        self.if_parallel = cond;
        self
    }

    /// Select the synchronization backend.
    pub fn backend(mut self, backend: Backend) -> ParallelConfig {
        self.backend = backend;
        self
    }

    /// Parse `parallel` clause text (e.g. `"num_threads(4) if(1)"`).
    ///
    /// In compiled mode `num_threads`/`if` arguments must be integer
    /// constants; host-evaluated expressions use the builder methods instead.
    ///
    /// # Errors
    ///
    /// [`OmpError`] for invalid clause text or non-constant arguments.
    pub fn parse(clauses: &str) -> Result<ParallelConfig, OmpError> {
        let mut cfg = ParallelConfig::default();
        if clauses.trim().is_empty() {
            return Ok(cfg);
        }
        let d = Directive::parse(&format!("parallel {clauses}"))?;
        for clause in &d.clauses {
            match clause {
                Clause::NumThreads(expr) => {
                    let n: usize =
                        expr.trim()
                            .parse()
                            .map_err(|_| OmpError::NonConstantClause {
                                clause: "num_threads",
                                expr: expr.clone(),
                            })?;
                    cfg.num_threads = Some(n.max(1));
                }
                Clause::If { expr, .. } => {
                    let v: i64 = expr
                        .trim()
                        .parse()
                        .map_err(|_| OmpError::NonConstantClause {
                            clause: "if",
                            expr: expr.clone(),
                        })?;
                    cfg.if_parallel = v != 0;
                }
                // Data-sharing clauses are a no-op in compiled mode: Rust's
                // ownership rules make privatization explicit in user code.
                Clause::Private(_)
                | Clause::Firstprivate(_)
                | Clause::Shared(_)
                | Clause::Default(_)
                | Clause::Copyin(_)
                | Clause::Reduction { .. } => {}
                other => {
                    return Err(OmpError::InvalidContext(format!(
                        "clause '{}' is not supported by ParallelConfig::parse",
                        other.keyword()
                    )))
                }
            }
        }
        Ok(cfg)
    }
}

/// Loop specification for [`WorkerCtx::for_each`] / [`WorkerCtx::for_reduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ForSpec {
    /// `schedule(kind[, chunk])`; `None` uses `def-sched-var`.
    pub schedule: Option<(ScheduleKind, Option<u64>)>,
    /// `nowait`: skip the implicit end-of-loop barrier.
    pub nowait: bool,
    /// `ordered`: the loop body may call [`WorkerCtx::ordered`].
    pub ordered: bool,
}

impl ForSpec {
    /// The default specification (static schedule, barrier at end).
    pub fn new() -> ForSpec {
        ForSpec::default()
    }

    /// Set the schedule.
    pub fn schedule(mut self, kind: ScheduleKind, chunk: Option<u64>) -> ForSpec {
        self.schedule = Some((kind, chunk));
        self
    }

    /// Skip the implicit barrier.
    pub fn nowait(mut self) -> ForSpec {
        self.nowait = true;
        self
    }

    /// Enable `ordered` regions in the loop body.
    pub fn ordered(mut self) -> ForSpec {
        self.ordered = true;
        self
    }

    /// Parse `for` clause text (e.g. `"schedule(guided, 4) nowait"`).
    ///
    /// # Errors
    ///
    /// [`OmpError`] for invalid clause text, non-constant chunk sizes, or
    /// clauses without a compiled-mode meaning (`collapse` is implied by
    /// [`WorkerCtx::for_each2`]).
    pub fn parse(text: &str) -> Result<ForSpec, OmpError> {
        let mut spec = ForSpec::default();
        if text.trim().is_empty() {
            return Ok(spec);
        }
        let d = Directive::parse(&format!("for {text}"))?;
        for clause in &d.clauses {
            match clause {
                Clause::Schedule { kind, chunk } => {
                    let chunk = match chunk {
                        Some(expr) => Some(expr.trim().parse::<u64>().map_err(|_| {
                            OmpError::NonConstantClause {
                                clause: "schedule",
                                expr: expr.clone(),
                            }
                        })?),
                        None => None,
                    };
                    spec.schedule = Some((*kind, chunk));
                }
                Clause::Nowait(_) => spec.nowait = true,
                Clause::Ordered => spec.ordered = true,
                Clause::Collapse(_) => {
                    // Collapse is expressed structurally (for_each2) in
                    // compiled mode; accept and ignore the clause.
                }
                Clause::Private(_)
                | Clause::Firstprivate(_)
                | Clause::Lastprivate(_)
                | Clause::Reduction { .. } => {}
                other => {
                    return Err(OmpError::InvalidContext(format!(
                        "clause '{}' is not supported by ForSpec::parse",
                        other.keyword()
                    )))
                }
            }
        }
        Ok(spec)
    }
}

impl std::str::FromStr for ForSpec {
    type Err = OmpError;
    fn from_str(s: &str) -> Result<ForSpec, OmpError> {
        ForSpec::parse(s)
    }
}

/// Open a parallel region with clause text (panics on malformed clauses —
/// they are programmer errors, like a malformed `format!` string).
///
/// See [`parallel_region`] for the builder-based, non-panicking variant.
///
/// # Panics
///
/// Panics if `clauses` fails to parse, or propagates the first panic raised
/// by any team thread or task after the region completes.
pub fn parallel<'env, F>(clauses: &str, body: F)
where
    F: Fn(&WorkerCtx<'env>) + Sync,
{
    let cfg = match ParallelConfig::parse(clauses) {
        Ok(cfg) => cfg,
        Err(e) => panic!(
            "malformed parallel clauses {clauses:?}: {e} \
             (parallel_region(&ParallelConfig, …) is the non-panicking variant)"
        ),
    };
    parallel_region(&cfg, body);
}

/// A `*const T` that may cross to pool threads. Safety is argued at each
/// dereference site (the pooled-region latch protocol), not here: a raw
/// pointer, unlike a reference, is allowed to dangle as long as it is not
/// dereferenced, which is exactly the guarantee the post-barrier epilogue
/// needs.
struct SendConstPtr<T: ?Sized>(*const T);

impl<T: ?Sized> Clone for SendConstPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: ?Sized> Copy for SendConstPtr<T> {}

// SAFETY: the pointee types used with this (the region body `F: Sync` and
// the panic slot `Mutex<..>: Sync`) are all sharable across threads; the
// wrapper only restores the `Send`-ability that `&T where T: Sync` would
// have had.
unsafe impl<T: ?Sized> Send for SendConstPtr<T> {}

/// The pooled job's entry into [`run_worker`], as a plain fn pointer so the
/// boxed `'static` job closure never mentions the region body's
/// non-`'static` type `F`.
type PooledShim = fn(
    Arc<Team>,
    usize,
    Vec<(usize, usize)>,
    SendConstPtr<()>,
    &Mutex<Option<Box<dyn Any + Send>>>,
);

/// Restore the erased body pointer to `&F` and run the worker. SAFETY: see
/// the latch protocol argument at the pooled dispatch site in
/// [`parallel_region`]; the erased pointer was created from `&F` there.
fn pooled_worker_shim<'env, F>(
    team: Arc<Team>,
    thread_num: usize,
    positions: Vec<(usize, usize)>,
    body: SendConstPtr<()>,
    panic_slot: &Mutex<Option<Box<dyn Any + Send>>>,
) where
    F: Fn(&WorkerCtx<'env>) + Sync,
{
    let body = unsafe { &*(body.0 as *const F) };
    run_worker(team, thread_num, positions, body, panic_slot);
}

/// Open a parallel region: fork a team, run `body` on every thread, join at
/// the implicit end barrier (which also drains the task queue).
///
/// Nested calls create teams of one thread unless `omp_set_nested(true)`.
///
/// # Panics
///
/// Re-raises the first panic captured from a team thread or task after all
/// threads have joined (the paper's rule: exceptions never propagate *out of*
/// a running region; here they are re-thrown once the region is complete).
pub fn parallel_region<'env, F>(cfg: &ParallelConfig, body: F)
where
    F: Fn(&WorkerCtx<'env>) + Sync,
{
    crate::ompt::ensure_env_init();
    let icvs = Icvs::current();
    let level = context::level();
    let active = context::active_level();
    let serialized =
        !cfg.if_parallel || (level >= 1 && !icvs.nested) || active >= icvs.max_active_levels;
    let mut size = if serialized {
        1
    } else {
        cfg.num_threads
            .unwrap_or(icvs.num_threads)
            .min(icvs.thread_limit)
            .max(1)
    };
    // Admission control (`dyn-var`): under pool pressure, grant fewer
    // threads than requested — shrink toward the remaining concurrency
    // budget, shedding to caller-runs-serial as the last resort — instead of
    // oversubscribing. Only top-level (pooled) regions are admitted this
    // way; nested regions already serialize by default.
    if icvs.dynamic && !serialized && size > 1 && level == 0 {
        size = crate::pool::admit(size, icvs.thread_limit);
    }
    // Threads-in-flight accounting feeding future admission decisions; the
    // guard spans the whole region including the join below. Only the pool
    // workers (`size - 1`) are charged: the master runs on its caller's
    // thread, which exists whether or not the region parallelizes, and a
    // serial region (including one just shed by `admit`) takes no workers
    // at all. Charging serial regions used to make shedding self-
    // sustaining — each shed region's own charge helped keep the budget
    // exhausted for the next — which is how BENCH_serve.json ended up
    // shedding >90% of offered regions.
    let pooled = level == 0 && size > 1;
    let _inflight = pooled.then(|| crate::pool::InflightGuard::new(size - 1));

    let team = Team::new(size, cfg.backend);
    let parent_positions = context::current_positions();
    let panic_slot: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);

    // Hot teams: top-level multi-thread regions are dispatched to the
    // persistent worker pool (re-binding parked threads to this region's
    // fresh team) instead of spawning OS threads per region. Nested regions
    // bypass the pool and spawn scoped threads, keeping the pool's size
    // bounded by top-level team sizes.
    if pooled {
        let latch = crate::pool::RegionLatch::new(size - 1);
        // Arm the team: the final barrier's releaser zeroes the latch for
        // the whole gang, so the master proceeds the moment the region's
        // last rendezvous completes instead of waiting for each worker's
        // post-barrier bookkeeping to be scheduled.
        team.set_final_latch(Arc::clone(&latch));
        // SAFETY (for the dereferences in `pooled_worker_shim` and the
        // panic capture below): `body` and `panic_slot` live on the
        // master's stack, which stays alive until the latch reaches zero
        // (`latch.wait()` below). The latch reaches zero either (a) at the
        // final barrier's release — which happens after every body has
        // returned, every panic is recorded, and every region task has
        // drained, i.e. after the last dereference of these pointers on
        // any thread — or (b) after each job has returned (cancel/poison
        // paths, where no release ever fires). Raw pointers rather than
        // references so that no reference outlives the referent on path
        // (a): the worker's post-barrier epilogue holds only pointers it
        // no longer dereferences. The body pointer is type-erased and
        // restored by a monomorphized shim because the boxed `'static` job
        // closure must not mention the non-`'static` type `F`.
        let body_ptr = SendConstPtr(&body as *const F as *const ());
        let panic_ptr = SendConstPtr(&panic_slot as *const Mutex<Option<Box<dyn Any + Send>>>);
        let shim: PooledShim = pooled_worker_shim::<F>;
        let mut jobs: Vec<crate::pool::Job> = Vec::with_capacity(size - 1);
        for t in 1..size {
            let team_job = Arc::clone(&team);
            let positions = parent_positions.clone();
            let job_latch = Arc::clone(&latch);
            let job: crate::pool::Job = Box::new(move || {
                // Whole-struct bindings: edition-2021 closures would
                // otherwise capture the raw-pointer *fields*, which are not
                // `Send` — the wrappers are.
                let (body_ptr, panic_ptr) = (body_ptr, panic_ptr);
                let panic_slot = unsafe { &*panic_ptr.0 };
                // Defense in depth: `run_worker` already catches body and
                // final-barrier panics, but anything escaping it (e.g. an
                // injected worker-dispatch fault) must still poison the
                // region and be captured — the job must never unwind into
                // the pool with the team left un-poisoned, or its barrier
                // would strand the rest of the team.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    crate::faults::on_event(crate::faults::FaultSite::WorkerDispatch);
                    shim(Arc::clone(&team_job), t, positions, body_ptr, panic_slot);
                }));
                if let Err(p) = result {
                    // The unwind escaped before this thread's barrier
                    // arrival was counted (everything from arrival to the
                    // epilogue is no-unwind, and the epilogue's own panics
                    // are swallowed in `run_worker`), so the region can
                    // never release and the master is pinned in
                    // `latch.wait()` by this job's outstanding count: the
                    // write cannot race the master's exit. The armed check
                    // is belt-and-braces against that invariant eroding.
                    team_job.poison();
                    if job_latch.armed() {
                        let mut slot = panic_slot.lock();
                        if slot.is_none() {
                            *slot = Some(p);
                        }
                    }
                }
            });
            jobs.push(job);
        }
        crate::pool::dispatch(jobs, &latch);
        run_worker(
            Arc::clone(&team),
            0,
            parent_positions.clone(),
            &body,
            &panic_slot,
        );
        latch.wait();
        crate::pool::publish_counters();
    } else {
        std::thread::scope(|scope| {
            let mut spawn_failed = false;
            for t in 1..size {
                let worker_team = Arc::clone(&team);
                let positions = parent_positions.clone();
                let body = &body;
                let panic_slot = &panic_slot;
                let spawned = std::thread::Builder::new()
                    .name(format!("omp4rs-worker-{t}"))
                    // Generous stacks: Pure/Hybrid-mode workers run a
                    // tree-walking interpreter with deep recursion.
                    .stack_size(16 * 1024 * 1024)
                    .spawn_scoped(scope, move || {
                        run_worker(worker_team, t, positions, body, panic_slot);
                    });
                if let Err(e) = spawned {
                    // Degrade instead of deadlocking: poison the team so
                    // the members already spawned exit through the
                    // cancellation path rather than waiting at a barrier
                    // for arrivals that will never come, and surface the
                    // OS failure as this region's panic after the join.
                    team.poison();
                    let mut slot = panic_slot.lock();
                    if slot.is_none() {
                        *slot = Some(Box::new(format!("failed to spawn team thread: {e}")));
                    }
                    spawn_failed = true;
                    break;
                }
            }
            if !spawn_failed {
                run_worker(
                    Arc::clone(&team),
                    0,
                    parent_positions.clone(),
                    &body,
                    &panic_slot,
                );
            }
        });
    }

    // Region exit on both paths: publish the dependence-graph counters
    // alongside the pool's (the pooled path published those at the latch).
    depgraph::publish_counters();

    let task_panic = team.tasks().take_panic();
    let thread_panic = panic_slot.into_inner();
    if let Some(p) = thread_panic.or(task_panic) {
        std::panic::resume_unwind(p);
    }
    // No thread or task panic, but the region was failed asynchronously — a
    // deadline trip whose tripping thread exited via the cancellation path,
    // or a watchdog cancellation. Raise the stored typed error so callers
    // ([`parallel_region_result`]) can observe it.
    if let Some(err) = team.take_failure() {
        std::panic::panic_any(err);
    }
}

/// [`parallel_region`] with typed runtime failures as a `Result`.
///
/// Catches the region's re-raised unwind and converts an [`OmpError`]
/// payload — e.g. [`OmpError::RegionTimeout`] from a deadline trip or
/// watchdog cancellation — into `Err`. Any other panic (user panics,
/// injected faults) is resumed unchanged.
///
/// # Errors
///
/// The typed runtime failure that poisoned the region, if any.
pub fn parallel_region_result<'env, F>(cfg: &ParallelConfig, body: F) -> Result<(), OmpError>
where
    F: Fn(&WorkerCtx<'env>) + Sync,
{
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| parallel_region(cfg, body))) {
        Ok(()) => Ok(()),
        Err(p) => match p.downcast::<OmpError>() {
            Ok(err) => Err(*err),
            Err(p) => std::panic::resume_unwind(p),
        },
    }
}

fn run_worker<'env, F>(
    team: Arc<Team>,
    thread_num: usize,
    positions: Vec<(usize, usize)>,
    body: &F,
    panic_slot: &Mutex<Option<Box<dyn Any + Send>>>,
) where
    F: Fn(&WorkerCtx<'env>) + Sync,
{
    let _guard = context::enter_team(Arc::clone(&team), thread_num, positions);
    // Tell the pool's watchdog which region this worker is serving, so a
    // stall flagged on the heartbeat can be traced back to (and poison) the
    // right team. No-op on non-pooled threads.
    crate::pool::note_region(team.region());
    // Injected delays on this thread yield once the region is cancelled or
    // poisoned: a simulated stall must not pin the region open past a
    // deadline trip (the guard restores the enclosing hook on exit). The
    // deadline probe also lets a *serial* team (admission shed) rescue
    // itself — there is no sibling waiter to trip the deadline for it.
    let _interrupt = {
        let team = Arc::clone(&team);
        crate::faults::set_delay_interrupt(Box::new(move |site| {
            team.is_cancelled() || team.deadline_probe(site.construct())
        }))
    };
    crate::ompt::record(
        team.region(),
        crate::ompt::EventKind::ParallelBegin {
            team_size: team.size() as u32,
        },
    );
    let ctx = WorkerCtx {
        team: Arc::clone(&team),
        _scope: PhantomData,
    };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&ctx)));
    if let Err(p) = result {
        // Poison before recording: cancels the region and wakes every
        // waiter (barrier, copyprivate, ordered turn-taking, taskwait) so
        // the surviving threads run to the end of the region instead of
        // hanging on a rendezvous this thread will never reach.
        team.poison();
        let mut slot = panic_slot.lock();
        if slot.is_none() {
            *slot = Some(p);
        }
    }
    // Implicit barrier at region end; also drains the task queue. Runs even
    // after a panic so the rest of the team is not deadlocked. Catch panics
    // here too (fault injection targets barrier arrivals): an unwinding
    // final barrier would otherwise strand the teammates still parked in it.
    // (Injected barrier faults fire *before* this thread's arrival is
    // counted, so an unwinding barrier implies the region can never release
    // — the pooled latch then drains via per-job completions and the
    // `panic_slot` write below stays race-free against the master's exit.)
    // Epilogue marker, taken before the final-barrier arrival: the pooled
    // latch can release the master the instant the barrier flips, so this is
    // what lets `ompt::events()` wait out the BarrierExit/ParallelEnd records
    // still in flight on worker threads.
    let _epilogue = crate::ompt::epilogue_begin();
    // Region-end rendezvous: threads that are provably not the last arriver
    // and see no outstanding tasks may leave without waiting for the
    // release — their remaining obligation (the pooled latch decrement /
    // scoped-join exit, which is also the master's own rendezvous) happens
    // on return from this function. With a region deadline or the stall
    // watchdog armed, everyone takes the full barrier instead — the parked
    // threads are the detector's sensor (see `Team::final_barrier`).
    if let Err(p) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| team.final_barrier()))
    {
        team.poison();
        let mut slot = panic_slot.lock();
        if slot.is_none() {
            *slot = Some(p);
        }
    }
    // Post-barrier epilogue. On the pooled path the final barrier's release
    // may already have zeroed the region latch and released the master, so
    // nothing here may touch the master's stack — and nothing here may
    // unwind (an unwind would reach the dispatch wrapper's panic capture,
    // which does): swallow the impossible.
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        crate::ompt::record(team.region(), crate::ompt::EventKind::ParallelEnd);
        // Deterministic flush: scoped threads signal the scope before their
        // TLS destructors run, so the drop-flush alone races with
        // `ompt::events()`.
        crate::ompt::flush_thread();
    }));
}

/// Builder for a `task` directive's dependence clauses: `depend(in/out/inout)`
/// lists plus a `priority(n)` hint.
///
/// Dependence *keys* are opaque `u64` storage identifiers — typically a
/// pointer cast (`&block as *const _ as u64`) or an encoded index pair.
/// Two tasks are ordered when their keys are equal and at least one side is
/// a write (`out`/`inout`), exactly OpenMP's list-item aliasing rule.
///
/// ```
/// use omp4rs::exec::{parallel, DepSpec};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let x = AtomicU64::new(0);
/// let key = &x as *const _ as u64;
/// parallel("num_threads(2)", |ctx| {
///     ctx.single(|| {
///         ctx.task_depend(DepSpec::new().output(key), |_| {
///             x.store(1, Ordering::SeqCst);
///         });
///         ctx.task_depend(DepSpec::new().inout(key), |_| {
///             x.fetch_add(10, Ordering::SeqCst);
///         });
///     });
/// });
/// assert_eq!(x.load(Ordering::SeqCst), 11);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DepSpec {
    deps: DepList,
    priority: i64,
}

/// `depend` items a [`DepSpec`] holds without allocating: a typical task
/// names one to four locations.
const INLINE_DEPS: usize = 4;

/// A [`DepSpec`]'s items, inline until the fifth.
#[derive(Debug, Clone)]
enum DepList {
    Inline(usize, [Dep; INLINE_DEPS]),
    Heap(Vec<Dep>),
}

impl Default for DepList {
    fn default() -> DepList {
        DepList::Inline(0, [Dep::input(0); INLINE_DEPS])
    }
}

impl DepList {
    fn push(&mut self, dep: Dep) {
        match self {
            DepList::Inline(len, items) if *len < INLINE_DEPS => {
                items[*len] = dep;
                *len += 1;
            }
            DepList::Inline(_, items) => {
                let mut all = items.to_vec();
                all.push(dep);
                *self = DepList::Heap(all);
            }
            DepList::Heap(all) => all.push(dep),
        }
    }

    fn as_slice(&self) -> &[Dep] {
        match self {
            DepList::Inline(len, items) => &items[..*len],
            DepList::Heap(all) => all,
        }
    }
}

impl DepSpec {
    /// Empty spec: no dependences, priority 0.
    pub fn new() -> DepSpec {
        DepSpec::default()
    }

    /// Add a `depend(in: key)` item: wait for the last writer of `key`.
    #[must_use]
    pub fn input(mut self, key: u64) -> DepSpec {
        self.deps.push(Dep::input(key));
        self
    }

    /// Add a `depend(out: key)` item: wait for the last writer *and* all
    /// readers of `key`, then become its last writer.
    #[must_use]
    pub fn output(mut self, key: u64) -> DepSpec {
        self.deps.push(Dep::output(key));
        self
    }

    /// Add a `depend(inout: key)` item (same ordering as [`DepSpec::output`]).
    #[must_use]
    pub fn inout(mut self, key: u64) -> DepSpec {
        self.deps.push(Dep::inout(key));
        self
    }

    /// `priority(n)`: scheduling hint; ready tasks with higher priority are
    /// dequeued before any deque/bag task.
    #[must_use]
    pub fn priority(mut self, n: i64) -> DepSpec {
        self.priority = n;
        self
    }
}

/// Handle to the enclosing parallel region, passed to the region body.
///
/// `'scope` is the lifetime of data the region (and its tasks) may borrow.
pub struct WorkerCtx<'scope> {
    team: Arc<Team>,
    _scope: ScopeMarker<'scope>,
}

impl std::fmt::Debug for WorkerCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerCtx")
            .field("thread_num", &self.thread_num())
            .field("num_threads", &self.num_threads())
            .finish()
    }
}

impl<'scope> WorkerCtx<'scope> {
    /// This thread's number within the team.
    pub fn thread_num(&self) -> usize {
        context::thread_num()
    }

    /// The team size.
    pub fn num_threads(&self) -> usize {
        self.team.size()
    }

    /// The team's synchronization backend.
    pub fn backend(&self) -> Backend {
        self.team.backend()
    }

    /// Explicit barrier (also a task scheduling point).
    pub fn barrier(&self) {
        self.team.barrier_explicit();
    }

    /// `cancel(construct)`: request cancellation of the named enclosing
    /// construct (`"parallel"`, `"for"`, `"sections"`, or `"taskgroup"`).
    ///
    /// Honoured only when the `cancel-var` ICV is enabled
    /// (`OMP_CANCELLATION=true`); otherwise a no-op returning `false`.
    /// Returns `true` when cancellation is active for the construct — the
    /// calling thread should then exit the construct, like after a `true`
    /// [`WorkerCtx::cancellation_point`].
    ///
    /// # Panics
    ///
    /// Panics on an unknown construct name, or for `"for"`/`"sections"`
    /// outside a work-sharing region.
    pub fn cancel(&self, construct: &str) -> bool {
        self.cancel_construct(parse_construct(construct))
    }

    /// Typed variant of [`WorkerCtx::cancel`].
    pub fn cancel_construct(&self, construct: CancelConstruct) -> bool {
        if !Icvs::current().cancellation {
            return false;
        }
        match construct {
            CancelConstruct::Parallel => self.team.cancel_region(),
            CancelConstruct::For | CancelConstruct::Sections => {
                current_ws_instance(construct).cancel()
            }
            CancelConstruct::Taskgroup => self.team.tasks().cancel(),
        }
        true
    }

    /// `cancellation point(construct)`: returns `true` when cancellation is
    /// pending for the named construct — the calling thread should exit the
    /// construct. Observes poisoning-driven cancellation regardless of the
    /// `cancel-var` ICV (runtime integrity is not user-gated).
    ///
    /// # Panics
    ///
    /// Panics on an unknown construct name, or for `"for"`/`"sections"`
    /// outside a work-sharing region.
    pub fn cancellation_point(&self, construct: &str) -> bool {
        self.cancellation_point_construct(parse_construct(construct))
    }

    /// Typed variant of [`WorkerCtx::cancellation_point`].
    pub fn cancellation_point_construct(&self, construct: CancelConstruct) -> bool {
        match construct {
            CancelConstruct::Parallel => self.team.is_cancelled(),
            CancelConstruct::For | CancelConstruct::Sections => {
                current_ws_instance(construct).is_cancelled()
            }
            CancelConstruct::Taskgroup => {
                self.team.tasks().is_cancelled() || self.team.is_cancelled()
            }
        }
    }

    /// Work-share a 1-D loop across the team.
    ///
    /// Accepts a [`ForSpec`] or a clause string (via [`TryInto`]); strings
    /// panic on malformed clauses.
    ///
    /// # Panics
    ///
    /// Panics if a clause-string spec fails to parse.
    pub fn for_each<S>(&self, spec: S, range: Range<i64>, mut body: impl FnMut(i64))
    where
        S: IntoForSpec,
    {
        let spec = spec.into_for_spec();
        let dims = LoopDims::new(&[(range.start, range.end, 1)]).expect("step 1 valid");
        self.drive_loop(&spec, dims, &mut |vars, _flat| body(vars.0));
    }

    /// Work-share a loop over an explicit `(start, stop, step)` triplet.
    ///
    /// # Panics
    ///
    /// Panics if `step == 0` or a clause-string spec fails to parse.
    pub fn for_range<S>(&self, spec: S, triplet: (i64, i64, i64), mut body: impl FnMut(i64))
    where
        S: IntoForSpec,
    {
        let spec = spec.into_for_spec();
        let dims = LoopDims::new(&[triplet]).unwrap_or_else(|e| panic!("{e}"));
        self.drive_loop(&spec, dims, &mut |vars, _flat| body(vars.0));
    }

    /// Work-share a collapsed 2-D loop nest (`collapse(2)`).
    ///
    /// # Panics
    ///
    /// Panics if a clause-string spec fails to parse.
    pub fn for_each2<S>(
        &self,
        spec: S,
        outer: Range<i64>,
        inner: Range<i64>,
        mut body: impl FnMut(i64, i64),
    ) where
        S: IntoForSpec,
    {
        let spec = spec.into_for_spec();
        let dims = LoopDims::new(&[(outer.start, outer.end, 1), (inner.start, inner.end, 1)])
            .expect("step 1 valid");
        self.drive_collapsed(&spec, dims, &mut |vars| body(vars[0], vars[1]));
    }

    /// Work-share a 1-D loop with a reduction; every thread receives the
    /// combined result (after the mandatory end-of-loop barrier).
    ///
    /// # Panics
    ///
    /// Panics if a clause-string spec fails to parse.
    pub fn for_reduce<S, T>(
        &self,
        spec: S,
        range: Range<i64>,
        identity: T,
        mut body: impl FnMut(i64, &mut T),
        combine: impl Fn(T, T) -> T,
    ) -> T
    where
        S: IntoForSpec,
        T: Clone + Send + 'static,
    {
        let spec = spec.into_for_spec();
        let dims = LoopDims::new(&[(range.start, range.end, 1)]).expect("step 1 valid");
        let frame = context::current_frame().expect("for_reduce outside parallel region");
        let seq = frame.next_ws_seq();
        let inst = self.team.worksharing().enter(seq);
        let sched = inst.resolve_schedule(spec.schedule, dims.total(), self.team.size(), false);
        let mut fb = ForBounds::init(
            dims,
            sched,
            frame.thread_num,
            self.team.size(),
            Some(Arc::clone(&inst)),
        );
        let mut local = identity.clone();
        // Track the active instance for every loop (not just ordered ones):
        // `cancel("for")` targets it.
        frame.set_current_instance(Some(Arc::clone(&inst)));
        while fb.next() {
            let (mut v, end, step) = fb.dims.var_chunk(fb.lo, fb.hi);
            let mut flat = fb.lo;
            while if step > 0 { v < end } else { v > end } {
                if spec.ordered {
                    frame.set_current_iter(Some(flat));
                }
                body(v, &mut local);
                v += step;
                flat += 1;
            }
        }
        if spec.ordered {
            frame.set_current_iter(None);
        }
        frame.set_current_instance(None);
        inst.reduce_merge(local, &combine);
        self.team.worksharing().leave(seq);
        // Reduction results require the barrier (nowait is ignored here; the
        // combined value could not be returned otherwise).
        self.team.barrier();
        inst.reduce_result::<T>().unwrap_or(identity)
    }

    fn drive_loop(&self, spec: &ForSpec, dims: LoopDims, body: &mut dyn FnMut((i64,), u64)) {
        let frame = context::current_frame().expect("worksharing loop outside parallel region");
        let seq = frame.next_ws_seq();
        let inst = self.team.worksharing().enter(seq);
        let sched = inst.resolve_schedule(spec.schedule, dims.total(), self.team.size(), false);
        let mut fb = ForBounds::init(
            dims,
            sched,
            frame.thread_num,
            self.team.size(),
            Some(Arc::clone(&inst)),
        );
        frame.set_current_instance(Some(Arc::clone(&inst)));
        while fb.next() {
            let (mut v, end, step) = fb.dims.var_chunk(fb.lo, fb.hi);
            let mut flat = fb.lo;
            while if step > 0 { v < end } else { v > end } {
                if spec.ordered {
                    frame.set_current_iter(Some(flat));
                }
                body((v,), flat);
                v += step;
                flat += 1;
            }
        }
        if spec.ordered {
            frame.set_current_iter(None);
        }
        frame.set_current_instance(None);
        self.team.worksharing().leave(seq);
        if !spec.nowait {
            self.team.barrier();
        }
    }

    fn drive_collapsed(&self, spec: &ForSpec, dims: LoopDims, body: &mut dyn FnMut(&[i64])) {
        let frame = context::current_frame().expect("worksharing loop outside parallel region");
        let seq = frame.next_ws_seq();
        let inst = self.team.worksharing().enter(seq);
        let sched = inst.resolve_schedule(spec.schedule, dims.total(), self.team.size(), false);
        let mut fb = ForBounds::init(
            dims,
            sched,
            frame.thread_num,
            self.team.size(),
            Some(Arc::clone(&inst)),
        );
        frame.set_current_instance(Some(Arc::clone(&inst)));
        while fb.next() {
            for flat in fb.lo..fb.hi {
                if spec.ordered {
                    frame.set_current_iter(Some(flat));
                }
                let vars = fb.dims.vars_of(flat);
                body(&vars);
            }
        }
        if spec.ordered {
            frame.set_current_iter(None);
        }
        frame.set_current_instance(None);
        self.team.worksharing().leave(seq);
        if !spec.nowait {
            self.team.barrier();
        }
    }

    /// `ordered` region inside an `ordered` loop: executes `f` in iteration
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if called outside a loop declared with [`ForSpec::ordered`].
    pub fn ordered<R>(&self, f: impl FnOnce() -> R) -> R {
        let frame = context::current_frame().expect("ordered outside parallel region");
        let inst = frame
            .current_instance()
            .expect("ordered requires a loop with the ordered clause");
        let flat = frame
            .current_iter()
            .expect("ordered requires an active loop iteration");
        inst.ordered_enter(flat);
        let result = f();
        inst.ordered_exit(flat);
        result
    }

    /// `single`: `f` runs on exactly one thread; returns `Some` on that
    /// thread. Implicit barrier at the end unless `nowait`.
    pub fn single<R>(&self, f: impl FnOnce() -> R) -> Option<R> {
        self.single_impl(false, f)
    }

    /// `single nowait`.
    pub fn single_nowait<R>(&self, f: impl FnOnce() -> R) -> Option<R> {
        self.single_impl(true, f)
    }

    fn single_impl<R>(&self, nowait: bool, f: impl FnOnce() -> R) -> Option<R> {
        let frame = context::current_frame().expect("single outside parallel region");
        let seq = frame.next_ws_seq();
        let inst = self.team.worksharing().enter(seq);
        let out = if inst.claim.try_claim() {
            Some(f())
        } else {
            None
        };
        self.team.worksharing().leave(seq);
        if !nowait {
            self.team.barrier();
        }
        out
    }

    /// `single copyprivate`: the winner's value is broadcast to every thread.
    pub fn single_copyprivate<T: Clone + Send + 'static>(&self, f: impl FnOnce() -> T) -> T {
        let frame = context::current_frame().expect("single outside parallel region");
        let seq = frame.next_ws_seq();
        let inst = self.team.worksharing().enter(seq);
        if inst.claim.try_claim() {
            let value = f();
            inst.copyprivate_publish(Box::new(value));
        }
        let value = inst.copyprivate_read::<T>();
        self.team.worksharing().leave(seq);
        self.team.barrier();
        value
    }

    /// `master`: `f` runs only on thread 0 (no implied barrier).
    pub fn master<R>(&self, f: impl FnOnce() -> R) -> Option<R> {
        if self.thread_num() == 0 {
            Some(f())
        } else {
            None
        }
    }

    /// `sections`: each closure runs exactly once, distributed over the team
    /// via the shared counter (§III-D). Implicit barrier unless `nowait`.
    pub fn sections(&self, nowait: bool, sections: &[&(dyn Fn() + Sync)]) {
        let frame = context::current_frame().expect("sections outside parallel region");
        let seq = frame.next_ws_seq();
        let inst = self.team.worksharing().enter(seq);
        let n = sections.len() as u64;
        frame.set_current_instance(Some(Arc::clone(&inst)));
        loop {
            if inst.is_cancelled() {
                break;
            }
            let i = inst.counter.fetch_add(1);
            if i >= n {
                break;
            }
            sections[i as usize]();
        }
        frame.set_current_instance(None);
        self.team.worksharing().leave(seq);
        if !nowait {
            self.team.barrier();
        }
    }

    /// `critical[(name)]`: mutual exclusion across the whole program.
    pub fn critical<R>(&self, name: Option<&str>, f: impl FnOnce() -> R) -> R {
        locks::critical(name, f)
    }

    /// `task`: submit a deferred task; any team thread may execute it.
    ///
    /// The closure receives a [`TaskCtx`] for nested task operations
    /// (recursive decomposition, `taskwait`).
    pub fn task<F>(&self, f: F)
    where
        F: FnOnce(&TaskCtx<'scope>) + Send + 'scope,
    {
        self.task_if(true, f);
    }

    /// `task if(cond)`: `cond == false` makes the task *undeferred* (it runs
    /// immediately on this thread), the cutoff idiom of the paper's `qsort`.
    pub fn task_if<F>(&self, deferred: bool, f: F)
    where
        F: FnOnce(&TaskCtx<'scope>) + Send + 'scope,
    {
        submit_scoped_task(&self.team, deferred, f);
    }

    /// `task depend(...)`: submit a deferred task ordered by the dependence
    /// items (and optional priority) in `spec`. The task is released to the
    /// scheduler only once every predecessor in the dependence graph has
    /// retired; see [`DepSpec`] and [`crate::depgraph`].
    pub fn task_depend<F>(&self, spec: DepSpec, f: F)
    where
        F: FnOnce(&TaskCtx<'scope>) + Send + 'scope,
    {
        submit_scoped_task_ex(&self.team, true, spec.priority, spec.deps.as_slice(), f);
    }

    /// `task priority(n)`: submit a deferred task with a scheduling-priority
    /// hint. Ready tasks with higher `n` are dequeued first; equal
    /// priorities run in submission order.
    pub fn task_priority<F>(&self, priority: i64, f: F)
    where
        F: FnOnce(&TaskCtx<'scope>) + Send + 'scope,
    {
        submit_scoped_task_ex(&self.team, true, priority, &[], f);
    }

    /// `taskgroup`: run `f`, then wait for *all* tasks spawned inside it —
    /// including transitively by descendant tasks on other threads — to
    /// complete. Composes with `cancel("taskgroup")`: cancellation discards
    /// queued members and the wait returns. If `f` unwinds, the group is
    /// abandoned without waiting (the region's task-draining barrier still
    /// accounts for its members).
    pub fn taskgroup<R>(&self, f: impl FnOnce() -> R) -> R {
        taskgroup_scoped(&self.team, f)
    }

    /// `taskloop` (OpenMP 4.5; a §V extension the paper defers): distribute
    /// the iterations of a loop as tasks. `grainsize` fixes iterations per
    /// task; otherwise `num_tasks` (default `2 × team size`) decides the
    /// task count. Unless `nogroup`, waits for all generated tasks.
    pub fn taskloop<F>(
        &self,
        grainsize: Option<u64>,
        num_tasks: Option<u64>,
        nogroup: bool,
        range: Range<i64>,
        body: F,
    ) where
        F: Fn(i64) + Send + Sync + 'scope,
    {
        let total = (range.end - range.start).max(0) as u64;
        if total == 0 {
            return;
        }
        let grain = grainsize
            .unwrap_or_else(|| {
                let nt = num_tasks.unwrap_or(2 * self.num_threads() as u64).max(1);
                total.div_ceil(nt)
            })
            .max(1) as i64;
        let body = Arc::new(body);
        let mut lo = range.start;
        while lo < range.end {
            let hi = (lo + grain).min(range.end);
            let b = Arc::clone(&body);
            self.task(move |_| {
                for i in lo..hi {
                    b(i);
                }
            });
            lo = hi;
        }
        if !nogroup {
            self.taskwait();
        }
    }

    /// `taskwait`: wait for all direct child tasks of the current task.
    pub fn taskwait(&self) {
        self.team.taskwait();
    }

    /// `taskyield`: offer to execute one queued task.
    pub fn taskyield(&self) {
        self.team.taskyield();
    }

    /// `flush`: a full memory fence (the runtime's locks/atomics already
    /// publish, so this is only needed for hand-rolled synchronization).
    pub fn flush(&self) {
        std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
    }
}

/// Handle passed to task bodies, allowing nested `task`/`taskwait`.
pub struct TaskCtx<'scope> {
    team: Arc<Team>,
    _scope: ScopeMarker<'scope>,
}

impl std::fmt::Debug for TaskCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskCtx").finish()
    }
}

impl<'scope> TaskCtx<'scope> {
    /// Submit a nested deferred task.
    pub fn task<F>(&self, f: F)
    where
        F: FnOnce(&TaskCtx<'scope>) + Send + 'scope,
    {
        self.task_if(true, f);
    }

    /// Submit a nested task with an `if` clause.
    pub fn task_if<F>(&self, deferred: bool, f: F)
    where
        F: FnOnce(&TaskCtx<'scope>) + Send + 'scope,
    {
        submit_scoped_task(&self.team, deferred, f);
    }

    /// Submit a nested task with dependence clauses (see
    /// [`WorkerCtx::task_depend`]).
    pub fn task_depend<F>(&self, spec: DepSpec, f: F)
    where
        F: FnOnce(&TaskCtx<'scope>) + Send + 'scope,
    {
        submit_scoped_task_ex(&self.team, true, spec.priority, spec.deps.as_slice(), f);
    }

    /// Submit a nested task with a priority hint (see
    /// [`WorkerCtx::task_priority`]).
    pub fn task_priority<F>(&self, priority: i64, f: F)
    where
        F: FnOnce(&TaskCtx<'scope>) + Send + 'scope,
    {
        submit_scoped_task_ex(&self.team, true, priority, &[], f);
    }

    /// Nested `taskgroup` (see [`WorkerCtx::taskgroup`]).
    pub fn taskgroup<R>(&self, f: impl FnOnce() -> R) -> R {
        taskgroup_scoped(&self.team, f)
    }

    /// Wait for this task's direct children.
    pub fn taskwait(&self) {
        self.team.taskwait();
    }

    /// The executing thread's number within the team.
    pub fn thread_num(&self) -> usize {
        context::thread_num()
    }
}

fn parse_construct(name: &str) -> CancelConstruct {
    CancelConstruct::parse(name.trim()).unwrap_or_else(|| {
        panic!(
            "invalid cancel construct {name:?} \
             (expected parallel, for, sections, or taskgroup)"
        )
    })
}

fn current_ws_instance(construct: CancelConstruct) -> Arc<crate::worksharing::WsInstance> {
    context::current_frame()
        .and_then(|f| f.current_instance())
        .unwrap_or_else(|| panic!("cancel({construct}) outside a work-sharing region"))
}

fn submit_scoped_task<'scope, F>(team: &Arc<Team>, deferred: bool, f: F)
where
    F: FnOnce(&TaskCtx<'scope>) + Send + 'scope,
{
    submit_scoped_task_ex(team, deferred, 0, &[], f);
}

fn submit_scoped_task_ex<'scope, F>(
    team: &Arc<Team>,
    deferred: bool,
    priority: i64,
    deps: &[Dep],
    f: F,
) where
    F: FnOnce(&TaskCtx<'scope>) + Send + 'scope,
{
    let team_for_body = Arc::clone(team);
    let body = move || {
        let tc = TaskCtx {
            team: team_for_body,
            _scope: PhantomData,
        };
        f(&tc);
    };
    // SAFETY: the task is guaranteed to complete (and its closure to be
    // dropped) before `parallel_region` returns. An included task completes
    // before `submit_task_scoped` returns. For a queued one, every worker
    // executes the team's final task-draining barrier, which releases only
    // when the task queue is empty and no task is in progress. A
    // dependence-held task stays counted in the queue's `outstanding` from
    // submission, so the barrier also covers tasks parked in the dependence graph (and a
    // cancelled graph *discards* — runs the drop of — every held closure
    // rather than stranding it). `'scope` outlives the `parallel_region`
    // call (enforced by the invariant lifetime on `WorkerCtx`/`TaskCtx`),
    // so the closure never outlives the data it borrows. This is the
    // same argument `std::thread::scope` makes.
    unsafe { team.submit_task_scoped(body, deferred, priority, deps) };
}

/// Shared `taskgroup` implementation for [`WorkerCtx`]/[`TaskCtx`]: enter the
/// group, run the body, and wait for members on the way out — unless the body
/// unwinds, in which case the group is popped without waiting (waiting during
/// an unwind could deadlock on members the panic orphaned; the region's final
/// barrier still drains them).
fn taskgroup_scoped<R>(team: &Arc<Team>, f: impl FnOnce() -> R) -> R {
    struct EndGuard<'a>(&'a Arc<Team>);
    impl Drop for EndGuard<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                let _ = crate::depgraph::pop_group();
            } else {
                self.0.taskgroup_end();
            }
        }
    }
    team.taskgroup_begin();
    let guard = EndGuard(team);
    let out = f();
    drop(guard);
    out
}

/// Convert clause strings or [`ForSpec`] values into a [`ForSpec`].
pub trait IntoForSpec {
    /// Perform the conversion.
    ///
    /// Implementations for string types panic on malformed clause text.
    fn into_for_spec(self) -> ForSpec;
}

impl IntoForSpec for ForSpec {
    fn into_for_spec(self) -> ForSpec {
        self
    }
}

impl IntoForSpec for &str {
    fn into_for_spec(self) -> ForSpec {
        ForSpec::parse(self).unwrap_or_else(|e| panic!("malformed for clauses {self:?}: {e}"))
    }
}

impl IntoForSpec for &ForSpec {
    fn into_for_spec(self) -> ForSpec {
        *self
    }
}
