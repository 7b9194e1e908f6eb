//! Thread teams and the task-draining implicit barrier.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Instant;

use parking_lot::Mutex;

use std::cell::Cell;

use crate::context;
use crate::depgraph::{self, Dep, TaskGroup};
use crate::error::OmpError;
use crate::faults::{self, FaultSite};
use crate::ompt;
use crate::sync::{self, Backend, CancelFlag, Notifier};
use crate::tasks::{TaskNode, TaskQueue};
use crate::worksharing::WorkshareRegistry;

/// A team of threads created by a `parallel` directive.
///
/// Owns the barrier state, the shared task queue, and the work-sharing
/// registry. Created by [`crate::exec::parallel_region`] (compiled mode) or
/// the interpreter bridge's `parallel_run` intrinsic.
pub struct Team {
    size: usize,
    backend: Backend,
    /// Unique id tagging this region's profiler events ([`crate::ompt`]).
    region: u64,
    wake: Arc<Notifier>,
    arrived: AtomicUsize,
    generation: AtomicU64,
    release: Mutex<()>,
    tasks: TaskQueue,
    ws: WorkshareRegistry,
    /// Region-wide cancellation (set by `cancel parallel` or poisoning).
    /// Shared with the work-sharing registry so every instance's wait loops
    /// can observe it.
    cancelled: Arc<CancelFlag>,
    /// Set when a team thread panicked and the region was force-released.
    poisoned: CancelFlag,
    /// Threads that have reached the region's *final* (implicit region-end)
    /// barrier. When the releaser of a barrier generation sees this equal
    /// to the team size, that barrier is the region's last rendezvous and
    /// it may complete [`Team::final_latch`] on behalf of the whole gang.
    finalists: AtomicUsize,
    /// The pooled region's completion latch (`None` for scoped/serialized
    /// teams). Taken exactly once, by the final barrier's releaser.
    final_latch: Mutex<Option<Arc<crate::pool::RegionLatch>>>,
    /// When the region started, for [`OmpError::RegionTimeout::waited`].
    started: Instant,
    /// Absolute deadline bounding every blocking wait in the region
    /// (barriers, `taskwait`, `critical`, locks), from the
    /// `region_deadline` ICV at team creation. `None` = unbounded.
    deadline: Option<Instant>,
    /// First-wins typed failure (deadline trip or watchdog cancellation)
    /// re-raised by the joining thread after all team threads exit.
    failure: Mutex<Option<OmpError>>,
    /// Whether this team was entered into the watchdog's region registry.
    registered: bool,
}

/// Region-id → team map so the stall watchdog ([`crate::pool`]) can reach a
/// team from a worker-slot heartbeat and cancel it. Teams register only when
/// the watchdog ICV is enabled at creation time, and deregister on drop.
fn registry() -> &'static Mutex<HashMap<u64, Weak<Team>>> {
    static REGISTRY: OnceLock<Mutex<HashMap<u64, Weak<Team>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Look up a live team by its region id (watchdog use).
pub(crate) fn find_by_region(region: u64) -> Option<Arc<Team>> {
    registry().lock().get(&region).and_then(Weak::upgrade)
}

impl Drop for Team {
    fn drop(&mut self) {
        if self.registered {
            registry().lock().remove(&self.region);
        }
    }
}

/// The calling thread's enclosing team and its region deadline, when both
/// exist. Used by deadline-aware primitives that live outside the team —
/// [`crate::locks::OmpLock`], [`crate::locks::critical`], and the trace
/// pipeline's `block` overflow policy (`construct = "trace"`) — to bound
/// their blocking waits.
pub(crate) fn current_deadline() -> Option<(Arc<Team>, Instant)> {
    let frame = context::current_frame()?;
    let deadline = frame.team.deadline()?;
    Some((Arc::clone(&frame.team), deadline))
}

impl std::fmt::Debug for Team {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Team")
            .field("size", &self.size)
            .field("backend", &self.backend)
            .field("outstanding_tasks", &self.tasks.outstanding())
            .finish()
    }
}

thread_local! {
    /// Nested task-execution depth for the current thread.
    static EXEC_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Beyond this inline depth, threads stop stealing unrelated queued tasks.
const STEAL_DEPTH_LIMIT: usize = 24;

impl Team {
    /// Create a team of `size` threads using the given backend.
    ///
    /// The region deadline and watchdog ICVs are sampled here, so a deadline
    /// covers the whole region lifetime starting from team creation.
    pub fn new(size: usize, backend: Backend) -> Arc<Team> {
        let wake = Arc::new(Notifier::new());
        let cancelled = Arc::new(CancelFlag::new(backend));
        let icvs = crate::icv::Icvs::current();
        let started = Instant::now();
        let registered = icvs.watchdog.is_some();
        let team = Arc::new(Team {
            size: size.max(1),
            backend,
            region: ompt::new_region_id(),
            wake: Arc::clone(&wake),
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            release: Mutex::new(()),
            tasks: TaskQueue::with_threads(backend, Arc::clone(&wake), size.max(1)),
            ws: WorkshareRegistry::with_cancel(backend, size.max(1), wake, Arc::clone(&cancelled)),
            cancelled,
            poisoned: CancelFlag::new(backend),
            finalists: AtomicUsize::new(0),
            final_latch: Mutex::new(None),
            started,
            deadline: icvs.region_deadline.map(|d| started + d),
            failure: Mutex::new(None),
            registered,
        });
        if registered {
            registry().lock().insert(team.region, Arc::downgrade(&team));
        }
        team
    }

    /// Attach the pooled region's completion latch (set by the master
    /// before any worker is dispatched). The final barrier's releaser
    /// zeroes it for the whole gang — see [`Team::final_barrier`].
    pub(crate) fn set_final_latch(&self, latch: Arc<crate::pool::RegionLatch>) {
        *self.final_latch.lock() = Some(latch);
    }

    /// The region's final (region-end implicit) barrier, with an
    /// *early-leave* fast path when no stall detector is armed.
    ///
    /// A full barrier makes every thread wait for the generation flip, which
    /// on the final rendezvous buys the workers nothing: nothing after it
    /// depends on cross-thread phase agreement — a worker's next steps are
    /// its own trace flush and its dock. What the flip *does* protect is the
    /// master (the region must not end before every body has returned and
    /// every task has drained), and the pooled-latch / scoped-join
    /// protocols already guarantee exactly that: each worker's latch
    /// decrement (or thread exit) happens only after it has passed this
    /// rendezvous, and the last arriver still drains tasks and completes
    /// the latch for the gang. So a non-leader that (a) is provably not the
    /// last arriver and (b) sees no outstanding tasks simply leaves —
    /// saving a park/wake pair per worker per region, the dominant cost of
    /// fine-grained regions under a passive wait policy. A thread that *is*
    /// last, or that sees undrained tasks, falls into the ordinary
    /// candidate-releaser wait loop and behaves exactly as before.
    ///
    /// The leader (region master) may early-leave too — its own rendezvous
    /// is the pooled latch (`latch.wait()`) or the scoped join that follows
    /// the region, and neither can complete before the last arriver has
    /// drained the tasks and released.
    ///
    /// Two exceptions, one per stall detector — in both, the threads parked
    /// at this barrier *are* the detector's sensor, so nobody early-leaves:
    ///
    /// * Under a region *deadline*, every arriver's park here is
    ///   deadline-bounded (`park_until` → `trip_deadline`); the latch wait
    ///   and the scoped join are not. A region whose slowest thread stalls
    ///   *before* arriving is rescued by a teammate's bounded park tripping
    ///   the deadline (typed as a `"barrier"` timeout) — if the teammates
    ///   early-left instead, the trip would fall to the master's coarser
    ///   region-level probe, or (for an early-leaving leader) to nothing at
    ///   all, turning the deadline into a hang.
    /// * With the stall *watchdog* armed, the sensor is a busy pool worker
    ///   whose heartbeat went stale while parked here waiting out a stalled
    ///   teammate. The master runs on the caller's thread and has no
    ///   heartbeat, so if its teammates early-left and re-docked (idle,
    ///   fresh heartbeats) a master stalled in its body would be invisible —
    ///   the watchdog would watch an apparently idle pool while the region
    ///   hangs. The full barrier preserves the PR 6 semantics: no
    ///   synchronization progress anywhere in the team for the threshold ⇒
    ///   some parked worker is flagged ⇒ the team is cancelled.
    ///
    /// (A non-conforming program whose threads execute *different* numbers
    /// of explicit barriers could fire this at a mismatched rendezvous —
    /// such programs already have no defined behavior under OpenMP.)
    pub(crate) fn final_barrier(&self) {
        self.finalists.fetch_add(1, Ordering::AcqRel);
        if self.size == 1 || self.deadline.is_some() || self.registered {
            return self.barrier();
        }
        if !ompt::enabled() {
            return self.final_barrier_body();
        }
        ompt::record(
            self.region,
            ompt::EventKind::BarrierEnter { explicit: false },
        );
        let start = Instant::now();
        self.final_barrier_body();
        ompt::record(
            self.region,
            ompt::EventKind::BarrierExit {
                wait_ns: start.elapsed().as_nanos() as u64,
            },
        );
    }

    /// Worker-side final-barrier arrival (see [`Team::final_barrier`]).
    fn final_barrier_body(&self) {
        crate::pool::heartbeat();
        faults::on_event(FaultSite::BarrierArrival);
        if self.cancelled.is_set() {
            return;
        }
        let gen = self.generation.load(Ordering::Acquire);
        let prior = self.arrived.fetch_add(1, Ordering::AcqRel);
        // Early leave: `prior + 1 < size` proves (exactly, via the fetch_add
        // serialization) that another thread's arrival is still to come —
        // that thread, or a waiter it wakes, will run the release and
        // complete the pooled latch. With no tasks outstanding there is
        // nothing to help drain, so this thread's only remaining obligation
        // is its own latch decrement, which happens after return. (Tasks
        // submitted later by a not-yet-arrived thread are drained by the
        // threads still at the rendezvous — the last arriver is always
        // one, and it cannot release, so its job cannot return and the
        // region cannot end, before the queue is dry.)
        if prior + 1 < self.size && self.tasks.outstanding() == 0 {
            return;
        }
        self.barrier_wait(gen);
    }

    /// Number of threads in the team.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The team's synchronization backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The unique region id tagging this team's profiler events.
    pub fn region(&self) -> u64 {
        self.region
    }

    /// The team's work-sharing registry.
    pub fn worksharing(&self) -> &WorkshareRegistry {
        &self.ws
    }

    /// The team's task queue.
    pub fn tasks(&self) -> &TaskQueue {
        &self.tasks
    }

    /// The team's wakeup hub.
    pub fn wake(&self) -> &Arc<Notifier> {
        &self.wake
    }

    /// Whether the region has been cancelled (by `cancel parallel` or by
    /// poisoning).
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.is_set()
    }

    /// Whether a team thread panicked and poisoned the region.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_set()
    }

    /// `cancel parallel`: latch region-wide cancellation.
    ///
    /// Every barrier in the region (current and future generations) releases
    /// immediately, queued-but-unstarted tasks are discarded, and loop
    /// drivers stop claiming chunks at their next cancellation point. Safe
    /// because teams are created fresh per parallel region: the residual
    /// `arrived` count of a cancelled barrier can never corrupt another
    /// region.
    pub fn cancel_region(&self) {
        if self.cancelled.set() {
            ompt::record(self.region, ompt::EventKind::CancelObserved);
        }
        self.tasks.cancel();
        self.wake.notify_all();
    }

    /// Poison the team after a worker panic: cancel the region *and* record
    /// that the release was abnormal. Every waiter — barrier, `single`
    /// copyprivate, `ordered`, `taskwait` — is woken so the surviving
    /// threads exit the region cleanly instead of hanging; the captured
    /// panic is re-raised once all threads have joined.
    pub fn poison(&self) {
        self.poisoned.set();
        self.cancel_region();
    }

    /// The absolute deadline bounding blocking waits in this region, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Trip the region deadline from a wait in `construct`: store a typed
    /// [`OmpError::RegionTimeout`] (first trip wins) and poison the region so
    /// every waiter — this thread included — exits through the cancellation
    /// path. The joining thread re-raises the stored failure after all team
    /// threads have left the region. Returns the error for callers with no
    /// cancellation return path (locks, `critical`) to unwind with.
    ///
    /// The `DeadlineTrip` event recorded here may itself re-enter the trace
    /// pipeline from inside a `block`-policy push (`construct = "trace"`);
    /// [`crate::ompt`]'s reentrancy guard downgrades that nested record to
    /// drop-oldest so tripping a deadline can never block on the full ring
    /// that caused it.
    pub(crate) fn trip_deadline(&self, construct: &'static str) -> OmpError {
        let waited = self.started.elapsed();
        let err = OmpError::RegionTimeout { construct, waited };
        {
            let mut slot = self.failure.lock();
            if slot.is_none() {
                *slot = Some(err.clone());
                ompt::record(
                    self.region,
                    ompt::EventKind::DeadlineTrip {
                        wait_ns: waited.as_nanos() as u64,
                    },
                );
            }
        }
        self.poison();
        err
    }

    /// Probe the region deadline from a non-parked stall point in
    /// `construct` (the injected delay interrupt hook): if the deadline has
    /// passed, trip it and return `true`. This is the only rescue path for a
    /// *serial* region (admission shed, team of one) — there are no sibling
    /// waiters parked with the deadline and no pool slot for the watchdog to
    /// monitor. In a larger team it races the parked waiters to the trip;
    /// naming the stalled construct keeps the reported error the same
    /// whichever thread wins.
    pub(crate) fn deadline_probe(&self, construct: &'static str) -> bool {
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                self.trip_deadline(construct);
                true
            }
            _ => false,
        }
    }

    /// Take the stored typed failure (deadline trip or watchdog), if any.
    /// Called once by the joining thread after the region completes.
    pub(crate) fn take_failure(&self) -> Option<OmpError> {
        self.failure.lock().take()
    }

    /// Park on the team eventcount, bounded by the region deadline. On
    /// expiry the deadline is tripped (poisoning the region), so the
    /// caller's cancellation check releases it — and every other waiter —
    /// on the next loop iteration.
    fn park_region(&self, epoch: u64, construct: &'static str) {
        match self.deadline {
            Some(deadline) => {
                if self.wake.park_until(epoch, deadline) {
                    self.trip_deadline(construct);
                }
            }
            None => self.wake.park(epoch),
        }
    }

    /// Task-draining barrier (§III-E): all threads must arrive *and* all
    /// outstanding tasks must complete before any thread proceeds. Threads
    /// waiting at the barrier execute queued tasks instead of idling, and
    /// are re-awakened when new tasks are submitted.
    ///
    /// This entry point is used for the *implicit* barriers ending
    /// worksharing constructs and regions; a `barrier` directive goes
    /// through [`Team::barrier_explicit`] (identical semantics, different
    /// profiler tag).
    pub fn barrier(&self) {
        self.barrier_impl(false);
    }

    /// An explicit `barrier` directive (see [`Team::barrier`]).
    pub fn barrier_explicit(&self) {
        self.barrier_impl(true);
    }

    fn barrier_impl(&self, explicit: bool) {
        if !ompt::enabled() {
            return self.barrier_body();
        }
        ompt::record(self.region, ompt::EventKind::BarrierEnter { explicit });
        let start = std::time::Instant::now();
        self.barrier_body();
        ompt::record(
            self.region,
            ompt::EventKind::BarrierExit {
                wait_ns: start.elapsed().as_nanos() as u64,
            },
        );
    }

    fn barrier_body(&self) {
        // A barrier arrival is synchronization progress: refresh this
        // worker's watchdog heartbeat so only threads that stop *arriving*
        // (not merely long regions) count as stalled.
        crate::pool::heartbeat();
        faults::on_event(FaultSite::BarrierArrival);
        // A cancelled/poisoned region's barriers are no-ops: the region is
        // exiting and no further cross-thread phase agreement exists.
        if self.cancelled.is_set() {
            return;
        }
        if self.size == 1 {
            // Single-thread team: the barrier reduces to draining tasks.
            loop {
                if self.cancelled.is_set() || self.tasks.outstanding() == 0 {
                    return;
                }
                if self.run_one_task() {
                    continue;
                }
                // A task is in flight elsewhere (or this thread hit the
                // steal-depth limit): eventcount-park until its completion
                // signals. Epoch first, then re-check, then park — any
                // completion in between falls through.
                let epoch = self.wake.epoch();
                if self.cancelled.is_set() || self.tasks.outstanding() == 0 {
                    return;
                }
                self.park_region(epoch, "barrier");
            }
        }
        // Sense-reversing wait: `generation` is the sense — a thread is
        // released the moment the generation it arrived under flips, and the
        // residual `arrived` count of the old generation can never confuse
        // it.
        let gen = self.generation.load(Ordering::Acquire);
        self.arrived.fetch_add(1, Ordering::AcqRel);
        self.barrier_wait(gen);
    }

    /// The barrier wait loop, entered after the caller's arrival has been
    /// counted under generation `gen`. The wait burns the ICV-derived spin
    /// budget first, then parks on the team eventcount; every transition
    /// that can release it (last arrival, task completion, new task
    /// submission, cancellation) bumps `wake`'s epoch.
    fn barrier_wait(&self, gen: u64) {
        let mut spins = sync::spin_iters();
        loop {
            let epoch = self.wake.epoch();
            if self.cancelled.is_set() || self.generation.load(Ordering::Acquire) != gen {
                return;
            }
            if self.arrived.load(Ordering::Acquire) == self.size && self.tasks.outstanding() == 0 {
                // Candidate releaser: commit under the release lock so a
                // stale thread can never reset `arrived` after the flip.
                let _g = self.release.lock();
                if self.generation.load(Ordering::Acquire) == gen {
                    if self.arrived.load(Ordering::Acquire) == self.size
                        && self.tasks.outstanding() == 0
                    {
                        self.arrived.store(0, Ordering::Release);
                        self.generation.store(gen + 1, Ordering::Release);
                        self.wake.notify_all();
                        // If every thread had reached the region's final
                        // barrier, this release ends the region: complete
                        // the pooled latch for the whole gang so the master
                        // needn't wait for the workers' post-barrier
                        // bookkeeping to be scheduled. (All bodies have
                        // returned, panics are recorded, and tasks have
                        // drained — nothing after this touches the
                        // master's stack.)
                        if self.finalists.load(Ordering::Acquire) == self.size {
                            if let Some(latch) = self.final_latch.lock().take() {
                                latch.complete_all();
                            }
                        }
                        return;
                    }
                } else {
                    return;
                }
                continue;
            }
            // Not releasable yet: make progress on tasks; with none to run,
            // spin down the budget, then park until the next signal.
            if self.run_one_task() {
                spins = sync::spin_iters();
                continue;
            }
            if spins > 0 {
                spins -= 1;
                sync::spin_hint(spins);
                continue;
            }
            self.park_region(epoch, "barrier");
        }
    }

    /// Execute one queued task on the calling thread, maintaining the task
    /// frame so nested submissions become children of that task.
    ///
    /// Refuses when the thread's inline-execution depth exceeds the steal
    /// limit: running arbitrary queued tasks from deep inside other task
    /// bodies would grow the stack with the task *count*; beyond the limit
    /// threads instead park and let shallower threads drain the queue
    /// (`taskwait` still executes its *own* children inline, which is
    /// bounded by the task-tree depth). A one-thread team has no shallower
    /// thread, so there the limit would strand a deep `taskgroup` or
    /// undeferred `depend` wait forever: it never refuses, and the stack
    /// grows only with the nesting of such waits.
    pub fn run_one_task(&self) -> bool {
        if self.size > 1 && EXEC_DEPTH.with(|d| d.get()) >= STEAL_DEPTH_LIMIT {
            return false;
        }
        EXEC_DEPTH.with(|d| d.set(d.get() + 1));
        let ran = self
            .tasks
            .run_one_from(self.member_num(context::current_frame().as_deref()));
        EXEC_DEPTH.with(|d| d.set(d.get() - 1));
        ran
    }

    /// The calling thread's number within *this* team, when it is a member
    /// (drives deque affinity for submissions and the own-deque-first /
    /// steal-last search order). `None` for outsiders — e.g. a thread of a
    /// different nesting level touching this team's queue.
    fn member_num(&self, frame: Option<&context::Frame>) -> Option<usize> {
        let frame = frame?;
        std::ptr::eq(Arc::as_ptr(&frame.team), self as *const Team).then_some(frame.thread_num)
    }

    /// Submit a task (§III-E). `deferred == false` corresponds to an
    /// `if(false)` clause: the task executes immediately on this thread.
    ///
    /// The body is wrapped so that, on whichever thread runs it, a task
    /// frame is pushed (nested `task` directives then register as children
    /// of this task) and popped even if the body panics.
    pub fn submit_task<F: FnOnce() + Send + 'static>(&self, body: F, deferred: bool) {
        self.submit_task_ex(body, deferred, 0, &[]);
    }

    /// [`Team::submit_task`] with the full clause set: a `priority(n)` hint
    /// and `depend` items. A task with dependences enters the graph in
    /// [`crate::depgraph`] and runs only after its predecessors retire; an
    /// *undeferred* task with dependences is submitted deferred and then
    /// waited for (it cannot legally run inline ahead of its predecessors).
    ///
    /// The body is additionally tied to the submitting thread's current
    /// `taskgroup`, and installs that group while running so tasks it
    /// spawns — on whatever thread ends up executing it — join too.
    pub fn submit_task_ex<F: FnOnce() + Send + 'static>(
        &self,
        body: F,
        deferred: bool,
        priority: i64,
        deps: &[Dep],
    ) {
        // SAFETY: a `'static` closure borrows nothing.
        unsafe { self.submit_task_scoped(body, deferred, priority, deps) }
    }

    /// Whether a task created now may be *included* — run at once on the
    /// creating thread, with no task node — whatever its clauses. True in a
    /// one-thread team with nothing outstanding: every earlier task has
    /// completed, so running the new one at once satisfies any `depend`
    /// item, and no other thread exists to run it sooner (libomp's
    /// `task_serial`). A cancelled queue takes the queued path, which
    /// discards; past the inline-depth limit the task is queued too, so a
    /// self-spawning chain runs from the queue in constant stack instead of
    /// recursing.
    fn includes_tasks(&self) -> bool {
        self.size == 1
            && self.tasks.outstanding() == 0
            && !self.tasks.is_cancelled()
            && EXEC_DEPTH.with(Cell::get) < STEAL_DEPTH_LIMIT
    }

    /// [`Team::submit_task_ex`] for a closure that borrows data living for
    /// `'a`. The task-frame and taskgroup wrapper and `body` become one
    /// closure: run at once as an included task (an `if(false)` task
    /// without `depend` items, or see `includes_tasks`), or stored inline
    /// in a queued task's one allocation.
    ///
    /// # Safety
    ///
    /// The caller must guarantee the task completes (or is discarded)
    /// before `'a` ends — for a region's tasks, because the region's final
    /// barrier drains the queue before the region returns.
    pub(crate) unsafe fn submit_task_scoped<'a, F: FnOnce() + Send + 'a>(
        &self,
        body: F,
        deferred: bool,
        priority: i64,
        deps: &[Dep],
    ) {
        let membership = depgraph::Membership::enter_current();
        let wrapped = move || {
            let frame = context::current_frame();
            if let Some(f) = &frame {
                f.push_task_frame();
            }
            // Pop the frame even on unwind.
            struct PopGuard(Option<std::rc::Rc<context::Frame>>);
            impl Drop for PopGuard {
                fn drop(&mut self) {
                    if let Some(f) = &self.0 {
                        f.pop_task_frame();
                    }
                }
            }
            let _guard = PopGuard(frame);
            let _group = membership.install();
            body();
        };
        // An `if(false)` task runs here in any case, so it adds no depth;
        // a task included in place of queueing does, which bounds the
        // recursion of a self-spawning chain.
        if !deferred && deps.is_empty() {
            self.tasks.run_included(wrapped);
            return;
        }
        if self.includes_tasks() {
            EXEC_DEPTH.with(|d| d.set(d.get() + 1));
            self.tasks.run_included(wrapped);
            EXEC_DEPTH.with(|d| d.set(d.get() - 1));
            return;
        }
        let frame = context::current_frame();
        let owner = self.member_num(frame.as_deref());
        let dependent = !deps.is_empty();
        // SAFETY: forwarded to the caller.
        let node = unsafe { TaskNode::new_scoped(wrapped, owner, priority, dependent) };
        self.tasks.submit_node(&node, deps);
        if !deferred {
            self.wait_node(&node);
        }
        if let Some(frame) = frame {
            frame.register_child(node);
        }
    }

    /// Wait for one specific task to complete, executing queued tasks while
    /// waiting. Used for undeferred `depend` tasks: the node may be held on
    /// predecessors, so the wait loop keeps offering to claim it (the claim
    /// succeeds only once the dependence hold clears) and otherwise makes
    /// progress on the queue, with the usual deadline-bounded park on the
    /// team notifier.
    pub fn wait_node(&self, node: &TaskNode) {
        let mut spins = sync::spin_iters();
        loop {
            let epoch = self.wake.epoch();
            if node.is_done() || self.cancelled.is_set() {
                return;
            }
            if let Some(claim) = node.try_claim() {
                EXEC_DEPTH.with(|d| d.set(d.get() + 1));
                self.tasks.execute_claimed(claim);
                EXEC_DEPTH.with(|d| d.set(d.get() - 1));
                continue;
            }
            if self.run_one_task() {
                spins = sync::spin_iters();
                continue;
            }
            if spins > 0 {
                spins -= 1;
                sync::spin_hint(spins);
                continue;
            }
            self.park_region(epoch, "taskwait");
        }
    }

    /// Enter a `taskgroup`: every task submitted by this thread — or by a
    /// descendant task, on whatever thread runs it — until the matching
    /// [`Team::taskgroup_end`] belongs to the group.
    pub fn taskgroup_begin(&self) {
        depgraph::push_group(TaskGroup::new(Arc::clone(&self.wake)));
    }

    /// Leave a `taskgroup`: wait until every member task has completed (or
    /// been discarded by `cancel taskgroup` / region cancellation),
    /// executing queued tasks while waiting. The park is region-deadline
    /// bounded like every other construct, so a stuck group trips a typed
    /// `RegionTimeout` instead of hanging.
    pub fn taskgroup_end(&self) {
        let Some(group) = depgraph::pop_group() else {
            return;
        };
        let mut spins = sync::spin_iters();
        loop {
            let epoch = self.wake.epoch();
            if group.live() == 0 || self.cancelled.is_set() {
                return;
            }
            if self.run_one_task() {
                spins = sync::spin_iters();
                continue;
            }
            if spins > 0 {
                spins -= 1;
                sync::spin_hint(spins);
                continue;
            }
            self.park_region(epoch, "taskgroup");
        }
    }

    /// `taskwait`: block until all direct children of the current task are
    /// complete, executing queued tasks while waiting.
    ///
    /// The child list is taken once: no child can be added while this task
    /// waits, because tasks run below it register in their own task frames.
    /// Each child still unclaimed is executed *inline*, in submission order
    /// (stack growth bounded by the task-tree depth); the rest — running on
    /// another thread, or held on a dependence — are then waited for one by
    /// one ([`Team::wait_node`]), running queued tasks meanwhile, up to the
    /// per-thread depth limit. So the wait is linear in the child count.
    pub fn taskwait(&self) {
        let Some(frame) = context::current_frame() else {
            return;
        };
        let mut unfinished = Vec::new();
        for child in frame.take_children() {
            // Cancellation point: a cancelled/poisoned region's `taskwait`
            // releases immediately (queued children were discarded by the
            // cancel; an in-progress child may still be finishing on another
            // thread, which never touches this thread's stack).
            if self.cancelled.is_set() {
                return;
            }
            if let Some(claim) = child.try_claim() {
                EXEC_DEPTH.with(|d| d.set(d.get() + 1));
                self.tasks.execute_claimed(claim);
                EXEC_DEPTH.with(|d| d.set(d.get() - 1));
            } else if !child.is_done() {
                unfinished.push(child);
            }
        }
        for child in &unfinished {
            self.wait_node(child);
        }
    }

    /// `taskyield`: offer to run one queued task.
    pub fn taskyield(&self) {
        self.run_one_task();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both() -> [Backend; 2] {
        [Backend::Mutex, Backend::Atomic]
    }

    #[test]
    fn barrier_synchronizes_phases() {
        for backend in both() {
            let team = Team::new(4, backend);
            let phase_counter = Arc::new(AtomicUsize::new(0));
            let violations = Arc::new(AtomicUsize::new(0));
            let mut handles = Vec::new();
            for _ in 0..4 {
                let team = Arc::clone(&team);
                let phase_counter = Arc::clone(&phase_counter);
                let violations = Arc::clone(&violations);
                handles.push(std::thread::spawn(move || {
                    for phase in 0..10usize {
                        phase_counter.fetch_add(1, Ordering::SeqCst);
                        team.barrier();
                        // After barrier `phase + 1` full rounds completed.
                        let count = phase_counter.load(Ordering::SeqCst);
                        if count < (phase + 1) * 4 {
                            violations.fetch_add(1, Ordering::SeqCst);
                        }
                        team.barrier();
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(violations.load(Ordering::SeqCst), 0, "{backend:?}");
        }
    }

    #[test]
    fn barrier_drains_tasks() {
        for backend in both() {
            let team = Team::new(2, backend);
            let hits = Arc::new(AtomicUsize::new(0));
            let mut handles = Vec::new();
            for t in 0..2 {
                let team = Arc::clone(&team);
                let hits = Arc::clone(&hits);
                handles.push(std::thread::spawn(move || {
                    if t == 0 {
                        for _ in 0..50 {
                            let hits = Arc::clone(&hits);
                            team.submit_task(
                                Box::new(move || {
                                    hits.fetch_add(1, Ordering::SeqCst);
                                }),
                                true,
                            );
                        }
                    }
                    team.barrier();
                    // All tasks must be complete once the barrier releases.
                    assert_eq!(hits.load(Ordering::SeqCst), 50);
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        }
    }

    #[test]
    fn single_thread_team_barrier_runs_tasks() {
        for backend in both() {
            let team = Team::new(1, backend);
            let hits = Arc::new(AtomicUsize::new(0));
            let h = Arc::clone(&hits);
            team.submit_task(
                Box::new(move || {
                    h.fetch_add(1, Ordering::SeqCst);
                }),
                true,
            );
            team.barrier();
            assert_eq!(hits.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn undeferred_task_runs_inline() {
        let team = Team::new(2, Backend::Atomic);
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        team.submit_task(
            Box::new(move || {
                h.fetch_add(1, Ordering::SeqCst);
            }),
            false,
        );
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(team.tasks().outstanding(), 0);
    }

    #[test]
    fn barrier_reusable_many_generations() {
        let team = Team::new(3, Backend::Atomic);
        let mut handles = Vec::new();
        for _ in 0..3 {
            let team = Arc::clone(&team);
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    team.barrier();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
