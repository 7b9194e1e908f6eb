//! Explicit tasking (`task`, `taskwait`, `taskyield`).
//!
//! Follows §III-E of the paper: tasks are packaged into nodes carrying an
//! execution state (*free* → *in-progress* → *completed*). Each node is one
//! heap block: the state word, the submit-time placement hints, the
//! dependence record of [`crate::depgraph`] and the task's closure, stored
//! inline behind the type-erased [`Body`]. Claiming a node is the state
//! word's `FREE → IN_PROGRESS` CAS alone — the winner alone takes the
//! closure — and completion is the same word reaching *completed*: there is
//! no per-node lock or event. Waiters poll the word and park on the team's
//! notifier, which every completion signals, so task completion is the same
//! in both backends. Placement is **work-stealing**: each team thread owns
//! a bounded [`WorkDeque`] it pushes to and pops from LIFO, while idle
//! threads — and threads waiting at implicit barriers — first drain their
//! own deque, then the shared overflow queue, then steal FIFO from the
//! other threads' deques. The shared queue (a mutex-guarded list in the
//! [`Backend::Mutex`] runtime, lock-free in [`Backend::Atomic`]) doubles as
//! the overflow target when a deque fills and as the home for submissions
//! made without a thread affinity. Deques are sized from the recorded
//! high-water mark of outstanding tasks.

use std::cell::UnsafeCell;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::depgraph::{Dep, DepGraph, DepRecord, Released};
use crate::faults::{self, FaultSite};
use crate::ompt;
use crate::sync::{Backend, CancelFlag, Notifier, WorkBag, WorkDeque};

/// Process-wide high-water mark of simultaneously outstanding tasks,
/// raised by any submission that exceeds it. New queues size their
/// per-thread steal deques from it, so capacity tracks how task-heavy the
/// program actually is instead of guessing. Each sizing read *decays* the mark (see
/// `deque_capacity`), so one task-heavy region raises capacity for the
/// teams that follow it without inflating every later, unrelated team
/// forever.
static QUEUE_HWM: AtomicUsize = AtomicUsize::new(0);

/// Steal-deque capacity for a team of `nthreads`: the recorded high-water
/// mark split across the team, clamped to `[8, 256]`.
fn deque_capacity(nthreads: usize) -> usize {
    // Consume-with-decay: each read shrinks the recorded mark by a quarter.
    // A sustained task-heavy phase keeps re-raising it on submission; a
    // one-off spike fades over the next few team creations.
    let hwm = QUEUE_HWM
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |h| Some(h - h / 4))
        .unwrap_or(0);
    hwm_capacity(hwm, nthreads)
}

/// Raise the high-water mark to `outstanding`. Loads first: the mark is
/// process-global, so a read-modify-write on every submission would bounce
/// its line between every submitting thread even when nothing changes.
fn record_outstanding(outstanding: usize) {
    if outstanding > QUEUE_HWM.load(Ordering::Relaxed) {
        QUEUE_HWM.fetch_max(outstanding, Ordering::Relaxed);
    }
}

/// Pure sizing rule: a recorded high-water mark split across the team.
fn hwm_capacity(hwm: usize, nthreads: usize) -> usize {
    hwm.div_ceil(nthreads.max(1)).clamp(8, 256)
}

/// Lifecycle state of a task node (paper: free / in-progress / completed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Submitted, not yet claimed by a thread.
    Free,
    /// A thread is executing it.
    InProgress,
    /// Finished.
    Completed,
}

/// Claimable.
const STATE_FREE: u8 = 0;
/// Waiting on unretired `depend` predecessors: refuses claims.
const STATE_HELD: u8 = 1;
/// Handed back by the dependence graph and not yet admitted to a queue:
/// still refuses claims.
const STATE_RELEASED: u8 = 2;
const STATE_IN_PROGRESS: u8 = 3;
const STATE_COMPLETED: u8 = 4;

/// The type-erased half of a [`TaskNode`]: its closure, stored inline in
/// the node's one allocation.
pub trait Body: Send + Sync {
    /// Take the closure out of the node and run it (`run`) or drop it. A
    /// second call finds the cell empty and does nothing.
    ///
    /// # Safety
    ///
    /// The caller must hold the node's claim (it won the node's
    /// `FREE → IN_PROGRESS` transition): the claim is what makes access to
    /// the closure exclusive.
    unsafe fn take(&self, run: bool);
}

/// A closure in an [`UnsafeCell`], guarded by its node's claim.
struct Inline<F>(UnsafeCell<Option<F>>);

// SAFETY: the cell is only touched by the thread that holds the node's
// claim (the claiming CAS is `AcqRel`, so each holder sees the last one's
// writes), or by the node's drop, which owns the node outright.
unsafe impl<F: Send> Sync for Inline<F> {}

impl<F: FnOnce() + Send> Body for Inline<F> {
    unsafe fn take(&self, run: bool) {
        // SAFETY: the caller holds the claim (see `Body::take`).
        let body = unsafe { (*self.0.get()).take() };
        if let (true, Some(body)) = (run, body) {
            body();
        }
    }
}

/// A queued unit of work: one heap block holding the lifecycle state word,
/// the placement hints, the dependence record and the closure itself.
/// `Arc<TaskNode>` is the type-erased handle; the closure type is erased
/// behind [`Body`].
pub struct TaskNode<B: ?Sized = dyn Body> {
    /// `STATE_*`: the claim and the completion both live here.
    state: AtomicU8,
    /// Submitted with `depend` items: completing it retires `dep`.
    dependent: bool,
    /// The submitter's team-thread number (deque affinity).
    owner: Option<usize>,
    /// The `priority(n)` hint.
    priority: i64,
    pub(crate) dep: DepRecord,
    body: B,
}

impl std::fmt::Debug for TaskNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskNode")
            .field("state", &self.state())
            .finish()
    }
}

impl TaskNode {
    /// A free node around `body`, submitted from `owner` with `priority`;
    /// `dependent` nodes retire their dependence record on completion.
    pub(crate) fn new<F: FnOnce() + Send + 'static>(
        body: F,
        owner: Option<usize>,
        priority: i64,
        dependent: bool,
    ) -> Arc<TaskNode> {
        // SAFETY: a `'static` closure borrows nothing.
        unsafe { TaskNode::new_scoped(body, owner, priority, dependent) }
    }

    /// [`TaskNode::new`] for a closure that borrows data living for `'a`.
    ///
    /// # Safety
    ///
    /// The caller must guarantee the node is claimed (which runs or drops
    /// the closure) or dropped before `'a` ends.
    pub(crate) unsafe fn new_scoped<'a, F: FnOnce() + Send + 'a>(
        body: F,
        owner: Option<usize>,
        priority: i64,
        dependent: bool,
    ) -> Arc<TaskNode> {
        let node: Arc<TaskNode<dyn Body + 'a>> = Arc::new(TaskNode {
            state: AtomicU8::new(STATE_FREE),
            dependent,
            owner,
            priority,
            dep: DepRecord::new(),
            body: Inline(UnsafeCell::new(Some(body))),
        });
        // SAFETY: only the trait object's lifetime bound changes; the
        // caller keeps the closure from outliving `'a`.
        unsafe { std::mem::transmute::<Arc<TaskNode<dyn Body + 'a>>, Arc<TaskNode>>(node) }
    }

    /// Bar claims until the dependence graph releases the node.
    pub(crate) fn hold(&self) {
        self.state.store(STATE_HELD, Ordering::Release);
    }

    /// Whether the node waits on unretired predecessors.
    pub(crate) fn is_held(&self) -> bool {
        self.state.load(Ordering::Acquire) == STATE_HELD
    }

    /// Take the release of a held node; exactly one caller (the thread
    /// that zeroed its pending count, or cancellation) wins. The node stays
    /// unclaimable until [`TaskNode::release_hold`].
    pub(crate) fn take_hold(&self) -> bool {
        self.state
            .compare_exchange(
                STATE_HELD,
                STATE_RELEASED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Make a released node claimable. Only the holder of its release
    /// calls this.
    pub(crate) fn release_hold(&self) {
        self.state.store(STATE_FREE, Ordering::Release);
    }

    /// Current lifecycle state.
    pub fn state(&self) -> TaskState {
        match self.state.load(Ordering::Acquire) {
            STATE_IN_PROGRESS => TaskState::InProgress,
            STATE_COMPLETED => TaskState::Completed,
            _ => TaskState::Free,
        }
    }

    /// Whether the task has completed.
    pub fn is_done(&self) -> bool {
        self.state.load(Ordering::Acquire) == STATE_COMPLETED
    }

    /// Atomically claim the task for execution on the calling thread: the
    /// `FREE → IN_PROGRESS` CAS. A held node refuses. Used both by queue
    /// pops and by `taskwait` executing its own children inline (which
    /// bounds stack growth to the task-tree depth instead of the task
    /// count).
    pub(crate) fn try_claim(&self) -> Option<Claimed<'_>> {
        self.state
            .compare_exchange(
                STATE_FREE,
                STATE_IN_PROGRESS,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
            .then_some(Claimed(self))
    }

    /// Complete the node unrun if it has not started (claim it, drop the
    /// body, finish); returns whether this call discarded it. Its
    /// retirement's releases go onto `released`.
    fn discard(&self, released: &mut Released) -> bool {
        match self.try_claim() {
            Some(claim) => {
                claim.finish(false, released);
                true
            }
            None => false,
        }
    }
}

impl<B: ?Sized> Drop for TaskNode<B> {
    /// The backstop. A claimed node is always finished, and finishing
    /// retires it, so an unretired dependent node here was never claimed:
    /// the queue that held it was dropped with it, and no queue is left to
    /// place what it releases. Those successors are discarded instead,
    /// cascading through their own releases, so each completes. The
    /// unrun closure itself drops with the node.
    fn drop(&mut self) {
        if !self.dependent || self.dep.is_retired() {
            return;
        }
        let mut released = Released::new();
        self.dep.retire(&mut released);
        while let Some(node) = released.pop_front() {
            node.release_hold();
            node.discard(&mut released);
        }
    }
}

/// Proof that the caller won a node's claim: only its holder may take the
/// closure, and it must [`finish`](Claimed::finish) the node.
pub(crate) struct Claimed<'a>(&'a TaskNode);

impl Claimed<'_> {
    /// Run the claimed body (`run`) or drop it unrun, then complete the
    /// node. A `depend` task retires in its graph here, pushing the
    /// successors that retirement released onto `released` for the caller
    /// to admit.
    ///
    /// Panics in the body are caught and returned (see `execute`); the node
    /// is still marked completed so barriers and `taskwait` release.
    fn finish(self, run: bool, released: &mut Released) -> Option<Box<dyn std::any::Any + Send>> {
        let node = self.0;
        let panic = if run {
            // SAFETY: `self` is the claim.
            execute(|| unsafe { node.body.take(true) })
        } else {
            None
        };
        // Drops the body if it did not run: discarded, or pre-empted by an
        // injected fault. A no-op after a run.
        // SAFETY: `self` is the claim.
        unsafe { node.body.take(false) };
        if node.dependent {
            node.dep.retire(released);
        }
        node.state.store(STATE_COMPLETED, Ordering::Release);
        ompt::record_here(ompt::EventKind::TaskComplete);
        panic
    }
}

/// Run a task body on the calling thread: the `task-schedule` event, then
/// the body behind the `task-execute` fault site. A panic — the body's, or
/// an injected fault's, which pre-empts the body — is caught and returned:
/// per the OpenMP rule the paper cites, exceptions must not escape a task.
fn execute(body: impl FnOnce()) -> Option<Box<dyn std::any::Any + Send>> {
    ompt::record_here(ompt::EventKind::TaskSchedule);
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        faults::on_event(FaultSite::TaskExecute);
        body();
    }))
    .err()
}

/// A `priority(n)` task's place in the heap: highest priority first,
/// submission order among equals.
type PrioKey = (Reverse<i64>, u64);

/// The team-shared task queue: per-thread steal deques over a shared
/// overflow bag.
pub struct TaskQueue {
    /// Shared overflow/fallback queue (submissions without a thread
    /// affinity, and spill from full deques).
    bag: WorkBag<Arc<TaskNode>>,
    /// One bounded deque per team thread (empty for affinity-less queues).
    deques: Vec<WorkDeque<Arc<TaskNode>>>,
    /// Tasks claimed out of another thread's deque.
    steals: AtomicU64,
    outstanding: AtomicUsize,
    wake: Arc<Notifier>,
    panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Latched by `cancel taskgroup` / region cancellation: queued tasks are
    /// discarded (marked complete without running) so barriers and
    /// `taskwait` release.
    cancelled: CancelFlag,
    /// `depend` tracking; held tasks live here until predecessors retire.
    dep: DepGraph,
    /// `priority(n)` submissions, drained ahead of the deques: highest
    /// priority first, submission order (`prio_seq`) among equals.
    prio: Mutex<BTreeMap<PrioKey, Arc<TaskNode>>>,
    /// Fast-path mirror of `prio.len()`.
    prio_len: AtomicUsize,
    /// FIFO tie-break for equal priorities.
    prio_seq: AtomicU64,
}

impl std::fmt::Debug for TaskQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskQueue")
            .field("outstanding", &self.outstanding())
            .finish()
    }
}

impl TaskQueue {
    /// Create a queue whose submissions/completions signal `wake` (shared
    /// with the team barrier, so barrier waiters learn about new tasks —
    /// the paper's "threads waiting at the barrier are reawakened to execute
    /// the work"). No per-thread deques: every task goes through the shared
    /// queue. Teams use [`TaskQueue::with_threads`] instead.
    pub fn new(backend: Backend, wake: Arc<Notifier>) -> TaskQueue {
        TaskQueue::with_threads(backend, wake, 0)
    }

    /// Create a queue with one steal deque per team thread, sized from the
    /// recorded task high-water mark (see `deque_capacity`).
    pub fn with_threads(backend: Backend, wake: Arc<Notifier>, nthreads: usize) -> TaskQueue {
        let cap = deque_capacity(nthreads);
        TaskQueue {
            bag: WorkBag::new(backend),
            deques: (0..nthreads).map(|_| WorkDeque::new(cap)).collect(),
            steals: AtomicU64::new(0),
            outstanding: AtomicUsize::new(0),
            dep: DepGraph::default(),
            wake,
            panic_slot: Mutex::new(None),
            cancelled: CancelFlag::new(backend),
            prio: Mutex::new(BTreeMap::new()),
            prio_len: AtomicUsize::new(0),
            prio_seq: AtomicU64::new(0),
        }
    }

    /// Number of tasks this queue's threads claimed from another thread's
    /// deque.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Capacity of each per-thread steal deque (0 when the queue has none).
    pub fn steal_deque_capacity(&self) -> usize {
        self.deques.first().map_or(0, WorkDeque::capacity)
    }

    /// Whether the queue has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.is_set()
    }

    /// Cancel the queue (`cancel taskgroup` semantics): tasks that have not
    /// started are discarded — marked complete without executing, so every
    /// waiter (barrier task-drain, `taskwait`) releases.
    /// Already-running tasks finish normally.
    pub fn cancel(&self) {
        self.cancelled.set();
        let mut released = Released::new();
        while let Some(node) = self.bag.pop() {
            self.discard(&node, &mut released);
        }
        for deque in &self.deques {
            while let Some(node) = deque.steal() {
                self.discard(&node, &mut released);
            }
        }
        while let Some(node) = self.pop_prio() {
            self.discard(&node, &mut released);
        }
        // A cancelled graph releases — not strands — its successors: every
        // held task is handed back and discarded like any queued one.
        self.drain_dep_cancelled(&mut released);
        self.admit(&mut released, None, false);
        self.wake.notify_all();
    }

    /// Drain and discard everything the dependence graph still holds (the
    /// cancel path, and the submit/cancel race re-check).
    fn drain_dep_cancelled(&self, released: &mut Released) {
        for node in self.dep.cancel_all() {
            node.release_hold();
            self.discard(&node, released);
        }
    }

    /// Pop the highest-priority queued `priority(n)` task, if any.
    fn pop_prio(&self) -> Option<Arc<TaskNode>> {
        if self.prio_len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let (_, node) = self.prio.lock().pop_first()?;
        self.prio_len.fetch_sub(1, Ordering::AcqRel);
        Some(node)
    }

    /// Discard one queued node if it has not started (claim it, drop the
    /// body, mark complete). Its retirement's releases go onto `released`.
    fn discard(&self, node: &TaskNode, released: &mut Released) {
        if node.discard(released) {
            self.outstanding.fetch_sub(1, Ordering::AcqRel);
            self.wake.notify_all();
        }
    }

    /// Take the first panic payload captured from a task body, if any.
    pub fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.panic_slot.lock().take()
    }

    fn record_panic(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        if let Some(p) = panic {
            let mut slot = self.panic_slot.lock();
            if slot.is_none() {
                *slot = Some(p);
            }
        }
    }

    /// Number of submitted-but-not-completed tasks (queued or in-progress).
    pub fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::Acquire)
    }

    /// Enqueue a deferred task with no thread affinity, priority or
    /// dependences; returns its node (for child tracking).
    ///
    /// Submissions to a cancelled queue are discarded immediately (the node
    /// is returned already complete, never counted as outstanding).
    pub fn submit<F: FnOnce() + Send + 'static>(&self, body: F) -> Arc<TaskNode> {
        self.submit_depend(body, None, 0, &[])
    }

    /// Enqueue a deferred task with the full clause set.
    ///
    /// `owner` is the submitter's team-thread number: the task goes onto
    /// that thread's deque and runs LIFO there unless someone steals it
    /// (overflowing to the shared queue when the deque is full, or when
    /// `owner` is `None` / out of range). A non-zero `priority` sends it to
    /// a shared heap drained ahead of the deques instead (highest first,
    /// FIFO among equals). With `depend` items it runs only after every
    /// live predecessor (per the in/out/inout rules in [`crate::depgraph`])
    /// has retired; held tasks still count as outstanding — region
    /// barriers, deadlines, and the watchdog all see them — but cannot be
    /// claimed until released.
    pub fn submit_depend<F: FnOnce() + Send + 'static>(
        &self,
        body: F,
        owner: Option<usize>,
        priority: i64,
        deps: &[Dep],
    ) -> Arc<TaskNode> {
        let node = TaskNode::new(body, owner, priority, !deps.is_empty());
        self.submit_node(&node, deps);
        node
    }

    /// Enqueue a fresh node as a deferred task, ordered by `deps` (the node
    /// must have been built `dependent` iff `deps` is non-empty).
    pub(crate) fn submit_node(&self, node: &Arc<TaskNode>, deps: &[Dep]) {
        debug_assert_eq!(node.dependent, !deps.is_empty());
        ompt::record_here(ompt::EventKind::TaskCreate { deferred: true });
        let mut released = Released::new();
        if self.cancelled.is_set() {
            // Not yet in the graph: discarding it releases nothing.
            node.discard(&mut released);
            return;
        }
        record_outstanding(self.outstanding.fetch_add(1, Ordering::AcqRel) + 1);
        if deps.is_empty() || !self.dep.insert(node, deps, &mut released) {
            self.place(node, node.owner, &mut released);
        } else if self.cancelled.is_set() {
            // Submit/cancel race: `cancel` may have drained the graph
            // before this insert landed — drain again so nothing strands.
            self.drain_dep_cancelled(&mut released);
        }
        // The held task the submitter's own hold drop released, or what a
        // race-discard of this task released.
        self.admit(&mut released, None, false);
    }

    /// Place an outstanding node on the queue (priority heap, `owner`'s
    /// deque, or shared bag) and re-check the submit/cancel race; a
    /// race-discard's releases go onto `released`.
    fn place(&self, node: &Arc<TaskNode>, owner: Option<usize>, released: &mut Released) {
        if node.priority != 0 {
            let seq = self.prio_seq.fetch_add(1, Ordering::Relaxed);
            self.prio
                .lock()
                .insert((Reverse(node.priority), seq), Arc::clone(node));
            self.prio_len.fetch_add(1, Ordering::AcqRel);
        } else {
            match owner.and_then(|t| self.deques.get(t)) {
                Some(deque) => {
                    if let Err(node) = deque.push(Arc::clone(node)) {
                        self.bag.push(node);
                    }
                }
                None => self.bag.push(Arc::clone(node)),
            }
        }
        // Submit/cancel race: the drain in `cancel` may already have run.
        // Discard here so the node cannot linger outstanding forever.
        if self.cancelled.is_set() {
            self.discard(node, released);
        }
        self.wake.notify_all();
    }

    /// Run `body` as an *included* task: at once, on the calling thread,
    /// with no [`TaskNode`] — never queued, never outstanding, never in the
    /// dependence graph. Used for an `if(false)` task, and for any task of
    /// a team whose every earlier task has completed (see
    /// `Team::submit_task_scoped`). The body still passes the
    /// `task-execute` fault site, and a panic is captured like a queued
    /// task's, to be re-raised after the join.
    pub(crate) fn run_included(&self, body: impl FnOnce()) {
        ompt::record_here(ompt::EventKind::TaskCreate { deferred: false });
        let panic = execute(body);
        ompt::record_here(ompt::EventKind::TaskComplete);
        self.record_panic(panic);
    }

    /// Execute a node the caller claimed (used by `taskwait` child
    /// inlining). The successors it releases are placed on their
    /// submitters' deques, not run here.
    pub(crate) fn execute_claimed(&self, claim: Claimed<'_>) {
        self.run_claimed(claim, &mut Released::new(), None, false);
    }

    /// Pop and execute one task, if any is available, with no thread
    /// affinity. Equivalent to [`TaskQueue::run_one_from`] with `None`.
    pub fn run_one(&self) -> bool {
        self.run_one_from(None)
    }

    /// Pop and execute one task, if any is available, then the chain of
    /// dependence successors it hands on (see `try_execute`). Returns
    /// whether a task was run. Nodes already claimed inline by `taskwait`
    /// are skipped.
    ///
    /// Search order for team thread `me`: the priority heap (highest
    /// first), then the own deque (LIFO, cache-warm — where this thread's
    /// dependence releases land), then the shared overflow queue (FIFO),
    /// then the other threads' deques (FIFO steals, rotating victim order
    /// so thieves spread out).
    pub fn run_one_from(&self, me: Option<usize>) -> bool {
        while let Some(node) = self.pop_prio() {
            if self.try_execute(&node, false, me) {
                return true;
            }
        }
        if let Some(deque) = me.and_then(|t| self.deques.get(t)) {
            while let Some(node) = deque.pop() {
                if self.try_execute(&node, false, me) {
                    return true;
                }
            }
        }
        while let Some(node) = self.bag.pop() {
            if self.try_execute(&node, false, me) {
                return true;
            }
        }
        let n = self.deques.len();
        if n > 0 {
            let start = me.map_or(0, |t| t + 1);
            for i in 0..n {
                let victim = (start + i) % n;
                if Some(victim) == me {
                    continue;
                }
                while let Some(node) = self.deques[victim].steal() {
                    if self.try_execute(&node, true, me) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Claim and run one dequeued node; `stolen` marks a cross-thread deque
    /// claim. Returns `false` when the node was discarded (cancellation) or
    /// already claimed elsewhere (its executor handles the bookkeeping).
    ///
    /// Immediate-successor bypass: of the successors the finished task
    /// released, the first with priority 0 runs next on this thread and
    /// the rest go onto `me`'s deque (`admit`). The chain is a loop, not a
    /// recursion, so a long `inout` chain runs in constant stack. Each
    /// iteration re-checks cancellation and re-claims the successor, which
    /// a `taskwait` may have claimed inline once its hold cleared.
    fn try_execute(&self, node: &TaskNode, stolen: bool, me: Option<usize>) -> bool {
        let mut released = Released::new();
        if self.cancelled.is_set() {
            self.discard(node, &mut released);
            self.admit(&mut released, me, false);
            return false;
        }
        let Some(claim) = node.try_claim() else {
            return false;
        };
        if stolen {
            self.steals.fetch_add(1, Ordering::Relaxed);
            ompt::record_here(ompt::EventKind::TaskSteal);
        }
        let mut next = self.run_claimed(claim, &mut released, me, true);
        while let Some(node) = next {
            if self.cancelled.is_set() {
                self.discard(&node, &mut released);
                self.admit(&mut released, me, false);
                break;
            }
            let Some(claim) = node.try_claim() else {
                break;
            };
            next = self.run_claimed(claim, &mut released, me, true);
        }
        true
    }

    /// Run a claimed node, account its completion and admit what it
    /// released; with `bypass`, returns the successor to run next.
    fn run_claimed(
        &self,
        claim: Claimed<'_>,
        released: &mut Released,
        me: Option<usize>,
        bypass: bool,
    ) -> Option<Arc<TaskNode>> {
        self.record_panic(claim.finish(true, released));
        self.outstanding.fetch_sub(1, Ordering::AcqRel);
        let next = self.admit(released, me, bypass);
        self.wake.notify_all();
        next
    }

    /// The single held→runnable funnel: admit every task in `released`,
    /// oldest release first. A cancelled queue discards each one. Otherwise
    /// the funnel carries the `dep-release` fault site, one event per
    /// released task — an injected panic here is recorded like a
    /// task panic and the affected successor is *discarded*, which retires
    /// it and pushes *its* releases onto the back of the same worklist, so
    /// a cascade neither strands a successor nor recurses. A clean release
    /// is placed on `me`'s deque (the admitting thread's, when it is a
    /// team thread), else on its submitter's. With `bypass`, the first
    /// clean release with priority 0 is returned instead, hold cleared,
    /// for the caller to run next; non-zero priorities always go through
    /// the heap.
    fn admit(
        &self,
        released: &mut Released,
        me: Option<usize>,
        bypass: bool,
    ) -> Option<Arc<TaskNode>> {
        let mut next = None;
        while let Some(node) = released.pop_front() {
            if self.cancelled.is_set() {
                node.release_hold();
                self.discard(&node, released);
                continue;
            }
            let fault = std::panic::catch_unwind(|| faults::on_event(FaultSite::DepRelease)).err();
            node.release_hold();
            if let Some(p) = fault {
                self.record_panic(Some(p));
                self.discard(&node, released);
            } else if bypass && next.is_none() && node.priority == 0 {
                next = Some(node);
            } else {
                self.place(&node, me.or(node.owner), released);
            }
        }
        next
    }

    /// Tasks currently held on unretired `depend` predecessors.
    pub fn dep_held(&self) -> usize {
        self.dep.held_len()
    }

    /// Whether the queue currently holds no runnable tasks (advisory; a
    /// dependence-held task is not runnable and does not count).
    pub fn is_empty(&self) -> bool {
        self.bag.is_empty()
            && self.deques.iter().all(WorkDeque::is_empty)
            && self.prio_len.load(Ordering::Acquire) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn both() -> [Backend; 2] {
        [Backend::Mutex, Backend::Atomic]
    }

    #[test]
    fn submit_and_run_one() {
        for backend in both() {
            let q = TaskQueue::new(backend, Arc::new(Notifier::new()));
            let hits = Arc::new(AtomicUsize::new(0));
            let h = Arc::clone(&hits);
            let node = q.submit(Box::new(move || {
                h.fetch_add(1, Ordering::SeqCst);
            }));
            assert_eq!(node.state(), TaskState::Free);
            assert_eq!(q.outstanding(), 1);
            assert!(q.run_one());
            assert!(!q.run_one());
            assert_eq!(hits.load(Ordering::SeqCst), 1);
            assert_eq!(q.outstanding(), 0);
            assert_eq!(node.state(), TaskState::Completed);
            assert!(node.is_done());
        }
    }

    #[test]
    fn undeferred_runs_inline() {
        for backend in both() {
            let q = TaskQueue::new(backend, Arc::new(Notifier::new()));
            let hits = AtomicUsize::new(0);
            q.run_included(|| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(hits.load(Ordering::SeqCst), 1);
            assert_eq!(q.outstanding(), 0);
            assert!(q.is_empty());
            q.run_included(|| panic!("included"));
            assert!(q.take_panic().is_some(), "a panic is captured, not raised");
        }
    }

    #[test]
    fn tasks_run_by_other_threads() {
        for backend in both() {
            let q = Arc::new(TaskQueue::new(backend, Arc::new(Notifier::new())));
            let hits = Arc::new(AtomicUsize::new(0));
            let mut nodes = Vec::new();
            for _ in 0..100 {
                let h = Arc::clone(&hits);
                nodes.push(q.submit(Box::new(move || {
                    h.fetch_add(1, Ordering::SeqCst);
                })));
            }
            let mut workers = Vec::new();
            for _ in 0..4 {
                let q = Arc::clone(&q);
                workers.push(std::thread::spawn(move || while q.run_one() {}));
            }
            for w in workers {
                w.join().unwrap();
            }
            assert_eq!(hits.load(Ordering::SeqCst), 100);
            assert!(nodes.iter().all(|n| n.is_done()));
        }
    }

    #[test]
    fn own_deque_runs_lifo_before_overflow() {
        for backend in both() {
            let q = TaskQueue::with_threads(backend, Arc::new(Notifier::new()), 2);
            let order = Arc::new(Mutex::new(Vec::new()));
            for i in 0..3 {
                let order = Arc::clone(&order);
                q.submit_depend(move || order.lock().push(i), Some(0), 0, &[]);
            }
            while q.run_one_from(Some(0)) {}
            assert_eq!(
                *order.lock(),
                vec![2, 1, 0],
                "owner pops its own deque LIFO"
            );
            assert_eq!(q.steals(), 0, "running own work is not a steal");
        }
    }

    #[test]
    fn idle_thread_steals_from_loaded_deque() {
        for backend in both() {
            let q = TaskQueue::with_threads(backend, Arc::new(Notifier::new()), 2);
            // Stay within deque capacity so nothing spills to the overflow
            // queue (spilled tasks would not count as steals).
            let n = q.steal_deque_capacity().min(5);
            let hits = Arc::new(AtomicUsize::new(0));
            for _ in 0..n {
                let h = Arc::clone(&hits);
                q.submit_depend(
                    move || {
                        h.fetch_add(1, Ordering::SeqCst);
                    },
                    Some(0),
                    0,
                    &[],
                );
            }
            // Thread 1 has nothing of its own and the overflow queue is
            // empty: all its work comes from stealing thread 0's deque.
            while q.run_one_from(Some(1)) {}
            assert_eq!(hits.load(Ordering::SeqCst), n);
            assert_eq!(q.steals(), n as u64, "every execution was a steal");
            assert_eq!(q.outstanding(), 0);
        }
    }

    #[test]
    fn full_deque_spills_to_shared_overflow() {
        for backend in both() {
            let q = TaskQueue::with_threads(backend, Arc::new(Notifier::new()), 1);
            let cap = q.steal_deque_capacity();
            assert!(cap >= 1);
            let hits = Arc::new(AtomicUsize::new(0));
            for _ in 0..cap + 3 {
                let h = Arc::clone(&hits);
                q.submit_depend(
                    move || {
                        h.fetch_add(1, Ordering::SeqCst);
                    },
                    Some(0),
                    0,
                    &[],
                );
            }
            assert!(
                !q.bag.is_empty(),
                "submissions beyond deque capacity spill to the shared queue"
            );
            while q.run_one_from(Some(0)) {}
            assert_eq!(hits.load(Ordering::SeqCst), cap + 3, "no task lost");
            assert_eq!(q.outstanding(), 0);
        }
    }

    #[test]
    fn hwm_sizing_is_clamped() {
        assert_eq!(hwm_capacity(0, 4), 8, "floor");
        assert_eq!(hwm_capacity(64, 4), 16, "split across the team");
        assert_eq!(hwm_capacity(1_000_000, 4), 256, "ceiling");
        assert_eq!(hwm_capacity(10, 0), 10, "teamless sizing still works");
    }

    #[test]
    fn queue_hwm_decays_across_sizings() {
        // A one-off spike must not pin capacity at the clamp forever: each
        // sizing read decays the mark by a quarter. Other tests submit at
        // most ~100 concurrent tasks, so after enough reads the capacity is
        // well under the 256 ceiling even with concurrent re-raising.
        QUEUE_HWM.fetch_max(100_000, Ordering::Relaxed);
        let wake = Arc::new(Notifier::new());
        let mut cap = usize::MAX;
        for _ in 0..200 {
            cap = TaskQueue::with_threads(Backend::Atomic, Arc::clone(&wake), 4)
                .steal_deque_capacity();
        }
        assert!(cap < 256, "spike did not decay (capacity {cap})");
    }

    #[test]
    fn cancel_drains_deques_and_overflow() {
        for backend in both() {
            let q = TaskQueue::with_threads(backend, Arc::new(Notifier::new()), 2);
            let hits = Arc::new(AtomicUsize::new(0));
            let mut nodes = Vec::new();
            for t in [Some(0), Some(1), None] {
                let h = Arc::clone(&hits);
                nodes.push(q.submit_depend(
                    move || {
                        h.fetch_add(1, Ordering::SeqCst);
                    },
                    t,
                    0,
                    &[],
                ));
            }
            q.cancel();
            assert!(q.is_cancelled());
            assert_eq!(hits.load(Ordering::SeqCst), 0, "no cancelled task ran");
            assert!(
                nodes.iter().all(|n| n.is_done()),
                "discarded tasks still complete so waiters release"
            );
            assert_eq!(q.outstanding(), 0);
            assert!(q.is_empty());
            assert!(!q.run_one_from(Some(0)));
        }
    }

    #[test]
    fn priority_order_is_observable_single_thread() {
        for backend in both() {
            let q = TaskQueue::with_threads(backend, Arc::new(Notifier::new()), 1);
            let order = Arc::new(Mutex::new(Vec::new()));
            for (label, prio) in [("p1", 1i64), ("p3a", 3), ("p2", 2), ("p3b", 3), ("p0", 0)] {
                let order = Arc::clone(&order);
                q.submit_depend(move || order.lock().push(label), Some(0), prio, &[]);
            }
            while q.run_one_from(Some(0)) {}
            assert_eq!(
                *order.lock(),
                vec!["p3a", "p3b", "p2", "p1", "p0"],
                "highest priority first, FIFO among equals, deque last"
            );
            assert_eq!(q.outstanding(), 0);
        }
    }

    #[test]
    fn depend_chain_overrides_lifo_order() {
        let _lock = crate::depgraph::COUNTER_TEST_LOCK.lock();
        for backend in both() {
            let q = TaskQueue::with_threads(backend, Arc::new(Notifier::new()), 1);
            let order = Arc::new(Mutex::new(Vec::new()));
            let mut nodes = Vec::new();
            for i in 0..4 {
                let order = Arc::clone(&order);
                nodes.push(q.submit_depend(
                    Box::new(move || order.lock().push(i)),
                    Some(0),
                    0,
                    &[Dep::inout(7)],
                ));
            }
            assert_eq!(q.dep_held(), 3, "everything after the head is held");
            assert_eq!(q.outstanding(), 4, "held tasks still count");
            while q.run_one_from(Some(0)) {}
            assert_eq!(
                *order.lock(),
                vec![0, 1, 2, 3],
                "inout chain serializes in submission order, not deque LIFO"
            );
            assert!(nodes.iter().all(|n| n.is_done()));
            assert_eq!(q.outstanding(), 0);
            assert_eq!(q.dep_held(), 0);
        }
    }

    #[test]
    fn cancel_releases_held_dependents() {
        let _lock = crate::depgraph::COUNTER_TEST_LOCK.lock();
        for backend in both() {
            let q = TaskQueue::with_threads(backend, Arc::new(Notifier::new()), 1);
            let hits = Arc::new(AtomicUsize::new(0));
            let mut nodes = Vec::new();
            for _ in 0..4 {
                let h = Arc::clone(&hits);
                nodes.push(q.submit_depend(
                    Box::new(move || {
                        h.fetch_add(1, Ordering::SeqCst);
                    }),
                    Some(0),
                    0,
                    &[Dep::inout(11)],
                ));
            }
            assert_eq!(q.dep_held(), 3);
            q.cancel();
            assert_eq!(hits.load(Ordering::SeqCst), 0, "no cancelled task ran");
            assert!(
                nodes.iter().all(|n| n.is_done()),
                "held successors are released and discarded, not stranded"
            );
            assert_eq!(q.outstanding(), 0);
            assert_eq!(q.dep_held(), 0);
            assert!(q.is_empty());
        }
    }

    #[test]
    fn wait_done_blocks_until_executed() {
        for backend in both() {
            let q = Arc::new(TaskQueue::new(backend, Arc::new(Notifier::new())));
            let node = q.submit(Box::new(|| {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }));
            let runner = {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.run_one())
            };
            while !node.is_done() {
                std::thread::yield_now();
            }
            assert_eq!(node.state(), TaskState::Completed);
            assert!(runner.join().unwrap());
        }
    }
}
