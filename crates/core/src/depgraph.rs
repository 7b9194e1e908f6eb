//! Task dependences (`depend(in/out/inout)`) and `taskgroup`.
//!
//! OMP4Py (the paper, §V) stops at untied `task` + `taskwait`; this module
//! adds the ordering layer on top of the work-stealing queue in
//! [`crate::tasks`]. Each dependence item is a **key** — an address-like
//! `u64` the frontends derive from the storage location named in the
//! `depend` clause — and the graph tracks, per key, the *last writer* and
//! the set of *readers* still in flight, exactly the last-writer/reader-set
//! scheme compiled OpenMP runtimes use:
//!
//! - `in`    depends on the live last writer, then registers as a reader.
//! - `out` / `inout` depend on the live last writer **and** every live
//!   reader (WAW + WAR), then become the last writer and clear the readers.
//!
//! A task whose predecessor count is zero at submission goes straight to
//! the deques; otherwise its node is **held** — counted as outstanding (so
//! region barriers, deadlines, and the stall watchdog all see it) but
//! unclaimable until the release path hands it back. When a task retires
//! (its body ran, panicked, or was discarded by cancellation — the
//! `RetireGuard` fires on every one of those paths), it decrements its
//! successors' pending counts; successors that reach zero move to a ready
//! list the queue drains in front of its deques. That drain is the single
//! held→runnable funnel and carries the `dep-release` fault-injection site:
//! an injected panic discards the successor instead of stranding it, and
//! the discard retires it in turn, cascading the release.
//!
//! Edges only ever point from earlier to later submissions, so the graph is
//! acyclic by construction and every held task is released or discarded —
//! the zero-hang property the chaos tests pin via the
//! `omp4rs.task.dep.{deferred,released,edges}` counters (deferred ==
//! released once a region drains).
//!
//! `taskgroup` is the other half: a `TaskGroup` counts the live tasks
//! submitted while it is current (inherited across steals by installing the
//! group for the duration of each member's body, so grandchildren join
//! too), and `taskgroup_end` waits for that count — not the whole queue —
//! to drain.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::ompt;
use crate::sync::Notifier;
use crate::tasks::TaskNode;

/// Access mode of one `depend` item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// `depend(in: …)` — reads the location; ordered after its last writer.
    In,
    /// `depend(out: …)` — writes the location; ordered after the last
    /// writer and all in-flight readers.
    Out,
    /// `depend(inout: …)` — read-modify-write; same ordering as [`Out`].
    ///
    /// [`Out`]: DepKind::Out
    Inout,
}

impl DepKind {
    /// Parse a dependence-type keyword as written in a `depend` clause.
    pub fn parse(text: &str) -> Option<DepKind> {
        match text {
            "in" => Some(DepKind::In),
            "out" => Some(DepKind::Out),
            "inout" => Some(DepKind::Inout),
            _ => None,
        }
    }

    /// The clause keyword for this kind.
    pub fn name(self) -> &'static str {
        match self {
            DepKind::In => "in",
            DepKind::Out => "out",
            DepKind::Inout => "inout",
        }
    }

    /// Whether this kind writes the location (orders against readers too).
    pub fn is_write(self) -> bool {
        !matches!(self, DepKind::In)
    }
}

/// One dependence item: a storage-location key plus its access mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dep {
    /// Address-like identity of the location (frontends hash or cast the
    /// named storage down to this).
    pub key: u64,
    /// How the task accesses it.
    pub kind: DepKind,
}

impl Dep {
    /// An `in` dependence on `key`.
    pub fn input(key: u64) -> Dep {
        Dep {
            key,
            kind: DepKind::In,
        }
    }

    /// An `out` dependence on `key`.
    pub fn output(key: u64) -> Dep {
        Dep {
            key,
            kind: DepKind::Out,
        }
    }

    /// An `inout` dependence on `key`.
    pub fn inout(key: u64) -> Dep {
        Dep {
            key,
            kind: DepKind::Inout,
        }
    }
}

/// Process-wide dependence counters, published to [`crate::ompt`] as
/// `omp4rs.task.dep.{deferred,released,edges}` at region exit.
static DEFERRED: AtomicU64 = AtomicU64::new(0);
static RELEASED: AtomicU64 = AtomicU64::new(0);
static EDGES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the cumulative dependence counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepCounters {
    /// Tasks that entered the graph held (at least one unretired
    /// predecessor at submission).
    pub deferred: u64,
    /// Held tasks handed back to the scheduler — released to the deques,
    /// or drained by cancellation/fault discard. A drained region always
    /// ends with `released == deferred`: nothing strands.
    pub released: u64,
    /// Predecessor→successor edges recorded (after liveness filtering and
    /// per-task dedup).
    pub edges: u64,
}

/// Read the cumulative process-wide dependence counters.
pub fn counters() -> DepCounters {
    DepCounters {
        deferred: DEFERRED.load(Ordering::Relaxed),
        released: RELEASED.load(Ordering::Relaxed),
        edges: EDGES.load(Ordering::Relaxed),
    }
}

/// Publish the dependence counters to the [`crate::ompt`] profiler (no-op
/// when it is disabled). `exec` calls this at region exit.
pub(crate) fn publish_counters() {
    if !ompt::enabled() {
        return;
    }
    let c = counters();
    ompt::set_counter("omp4rs.task.dep.deferred", c.deferred);
    ompt::set_counter("omp4rs.task.dep.released", c.released);
    ompt::set_counter("omp4rs.task.dep.edges", c.edges);
}

/// A held task plus the placement hints it was submitted with, carried
/// from submission to release.
pub(crate) struct Ready {
    pub(crate) node: Arc<TaskNode>,
    pub(crate) owner: Option<usize>,
    pub(crate) priority: i64,
}

/// Per-key ordering state: the last writer and the readers submitted since.
#[derive(Default)]
struct AddrState {
    last_writer: Option<u64>,
    readers: Vec<u64>,
}

/// A live (unretired) dependent task.
struct DepNode {
    /// Unretired predecessors; the task is held until this reaches zero.
    pending: usize,
    /// Successor ids to decrement when this task retires.
    succs: Vec<u64>,
    /// Keys this task touched, for address-state cleanup at retire.
    keys: Vec<u64>,
    /// The held placement, `None` once released (or never held).
    held: Option<Ready>,
}

struct GraphInner {
    nodes: HashMap<u64, DepNode>,
    addrs: HashMap<u64, AddrState>,
    /// Released, waiting for the queue to drain them to the deques.
    ready: Vec<Ready>,
}

/// The per-queue dependence graph. One per [`crate::tasks::TaskQueue`],
/// shared (`Arc`) with every task's [`RetireGuard`].
pub(crate) struct DepGraph {
    next_id: AtomicU64,
    /// Fast-path mirror of `inner.ready.len()`.
    ready_len: AtomicUsize,
    /// Held (released-pending) tasks currently in the graph.
    held_len: AtomicUsize,
    inner: Mutex<GraphInner>,
    /// The owning queue's wake notifier: parked waiters must learn when a
    /// retire makes successors ready.
    wake: Arc<Notifier>,
}

impl DepGraph {
    pub(crate) fn new(wake: Arc<Notifier>) -> DepGraph {
        DepGraph {
            next_id: AtomicU64::new(0),
            ready_len: AtomicUsize::new(0),
            held_len: AtomicUsize::new(0),
            inner: Mutex::new(GraphInner {
                nodes: HashMap::new(),
                addrs: HashMap::new(),
                ready: Vec::new(),
            }),
            wake,
        }
    }

    /// Allocate the graph id for a task about to be inserted (the caller
    /// needs it before insertion to build the task's [`RetireGuard`]).
    pub(crate) fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record `node`'s dependences and either hold it (returns `true`) or
    /// report it immediately runnable (returns `false`; the caller places
    /// it on the deques). Predecessors are resolved against the per-key
    /// last-writer/reader state, filtered to still-live tasks, and deduped,
    /// so edges always point from earlier to later submissions — the graph
    /// is acyclic by construction.
    pub(crate) fn insert(
        &self,
        id: u64,
        node: &Arc<TaskNode>,
        owner: Option<usize>,
        priority: i64,
        deps: &[Dep],
    ) -> bool {
        let mut g = self.inner.lock();
        let mut preds: Vec<u64> = Vec::new();
        for d in deps {
            let st = g.addrs.entry(d.key).or_default();
            if d.kind.is_write() {
                preds.extend(st.last_writer);
                preds.extend_from_slice(&st.readers);
            } else {
                preds.extend(st.last_writer);
            }
        }
        // Second pass so duplicate keys within one list see the *prior*
        // tasks' state, not this task's own registrations.
        for d in deps {
            let st = g.addrs.entry(d.key).or_default();
            if d.kind.is_write() {
                st.last_writer = Some(id);
                st.readers.clear();
            } else if !st.readers.contains(&id) {
                st.readers.push(id);
            }
        }
        preds.sort_unstable();
        preds.dedup();
        preds.retain(|p| *p != id && g.nodes.contains_key(p));
        EDGES.fetch_add(preds.len() as u64, Ordering::Relaxed);
        for p in &preds {
            g.nodes.get_mut(p).expect("retained live").succs.push(id);
        }
        let pending = preds.len();
        let held = pending > 0;
        let slot = if held {
            DEFERRED.fetch_add(1, Ordering::Relaxed);
            self.held_len.fetch_add(1, Ordering::Relaxed);
            node.hold();
            Some(Ready {
                node: Arc::clone(node),
                owner,
                priority,
            })
        } else {
            None
        };
        g.nodes.insert(
            id,
            DepNode {
                pending,
                succs: Vec::new(),
                keys: deps.iter().map(|d| d.key).collect(),
                held: slot,
            },
        );
        held
    }

    /// Retire task `id`: drop it from the address state and decrement its
    /// successors, moving the newly unblocked onto the ready list. Fired by
    /// [`RetireGuard`] on every exit path (ran, panicked, discarded);
    /// idempotent once the node is gone (cancellation clears the graph).
    pub(crate) fn retire(&self, id: u64) {
        let mut woke = false;
        {
            let mut g = self.inner.lock();
            let Some(dead) = g.nodes.remove(&id) else {
                return;
            };
            for key in dead.keys {
                if let Some(st) = g.addrs.get_mut(&key) {
                    if st.last_writer == Some(id) {
                        st.last_writer = None;
                    }
                    st.readers.retain(|r| *r != id);
                    if st.last_writer.is_none() && st.readers.is_empty() {
                        g.addrs.remove(&key);
                    }
                }
            }
            for s in dead.succs {
                let Some(sn) = g.nodes.get_mut(&s) else {
                    continue;
                };
                sn.pending -= 1;
                if sn.pending == 0 {
                    if let Some(r) = sn.held.take() {
                        RELEASED.fetch_add(1, Ordering::Relaxed);
                        self.held_len.fetch_sub(1, Ordering::Relaxed);
                        self.ready_len.fetch_add(1, Ordering::Relaxed);
                        g.ready.push(r);
                        woke = true;
                    }
                }
            }
        }
        if woke {
            // Parked barrier/taskwait/taskgroup waiters drain the ready
            // list through the queue's task-running loops.
            self.wake.notify_all();
        }
    }

    /// Number of released tasks awaiting the queue's drain (fast path for
    /// `run_one_from`: zero means skip the lock entirely).
    pub(crate) fn ready_len(&self) -> usize {
        self.ready_len.load(Ordering::Acquire)
    }

    /// Number of tasks currently held on unretired predecessors.
    pub(crate) fn held_len(&self) -> usize {
        self.held_len.load(Ordering::Acquire)
    }

    /// Take the released tasks for placement on the deques.
    pub(crate) fn take_ready(&self) -> Vec<Ready> {
        let mut g = self.inner.lock();
        self.ready_len.store(0, Ordering::Release);
        std::mem::take(&mut g.ready)
    }

    /// Cancellation: release *every* task — ready-list entries and still
    /// held ones alike — and clear the graph. The caller discards them; a
    /// cancelled graph releases, not strands, its successors.
    pub(crate) fn cancel_all(&self) -> Vec<Ready> {
        let mut g = self.inner.lock();
        self.ready_len.store(0, Ordering::Release);
        let mut out: Vec<Ready> = g.ready.drain(..).collect();
        for node in g.nodes.values_mut() {
            if let Some(r) = node.held.take() {
                RELEASED.fetch_add(1, Ordering::Relaxed);
                self.held_len.fetch_sub(1, Ordering::Relaxed);
                out.push(r);
            }
        }
        g.nodes.clear();
        g.addrs.clear();
        out
    }
}

/// Drop guard that retires a dependent task in its graph. Captured by the
/// task's body closure, so it fires when the body finishes, when it
/// unwinds, **and** when cancellation drops the body unrun — the three
/// paths that must all release successors.
pub(crate) struct RetireGuard {
    graph: Arc<DepGraph>,
    id: u64,
}

impl RetireGuard {
    pub(crate) fn new(graph: Arc<DepGraph>, id: u64) -> RetireGuard {
        RetireGuard { graph, id }
    }
}

impl Drop for RetireGuard {
    fn drop(&mut self) {
        self.graph.retire(self.id);
    }
}

// ---------------------------------------------------------------- taskgroup

/// One `taskgroup` region: counts the live tasks created while it was the
/// current group (including descendants, via body-scoped installation).
pub(crate) struct TaskGroup {
    live: AtomicUsize,
    wake: Arc<Notifier>,
}

impl TaskGroup {
    pub(crate) fn new(wake: Arc<Notifier>) -> Arc<TaskGroup> {
        Arc::new(TaskGroup {
            live: AtomicUsize::new(0),
            wake,
        })
    }

    /// Tasks belonging to the group that have not finished (or been
    /// discarded) yet.
    pub(crate) fn live(&self) -> usize {
        self.live.load(Ordering::Acquire)
    }

    fn enter(&self) {
        self.live.fetch_add(1, Ordering::AcqRel);
    }

    fn leave(&self) {
        if self.live.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.wake.notify_all();
        }
    }
}

thread_local! {
    /// The stack of taskgroups the current thread is nested inside. Pushed
    /// by `taskgroup` begin and by each group member's body (so tasks a
    /// member spawns — possibly after being stolen onto another thread —
    /// join the group too), popped by the matching end/guard.
    static GROUPS: RefCell<Vec<Arc<TaskGroup>>> = const { RefCell::new(Vec::new()) };
}

/// Push `group` as the current taskgroup on this thread.
pub(crate) fn push_group(group: Arc<TaskGroup>) {
    GROUPS.with(|g| g.borrow_mut().push(group));
}

/// Pop the current taskgroup off this thread.
pub(crate) fn pop_group() -> Option<Arc<TaskGroup>> {
    GROUPS.with(|g| g.borrow_mut().pop())
}

/// The innermost taskgroup the current thread is inside, if any.
pub(crate) fn current_group() -> Option<Arc<TaskGroup>> {
    GROUPS.with(|g| g.borrow().last().cloned())
}

/// A submitted task's membership in the taskgroup that was current at
/// submission. Created at submit (incrementing the group's live count) and
/// captured by the body closure: dropping it — after the body ran, after
/// it unwound, or when cancellation drops the body unrun — leaves the
/// group, so `taskgroup_end` never waits on a task that can no longer run.
pub(crate) struct Membership(Option<Arc<TaskGroup>>);

impl Membership {
    /// Join the submitting thread's current group (no-op membership when
    /// there is none).
    pub(crate) fn enter_current() -> Membership {
        let group = current_group();
        if let Some(g) = &group {
            g.enter();
        }
        Membership(group)
    }

    /// Install the membership's group as the executing thread's current
    /// group for the duration of the body, so tasks the body spawns inherit
    /// it (the descendant-tracking half of `taskgroup`).
    pub(crate) fn install(&self) -> InstallGuard {
        if let Some(g) = &self.0 {
            push_group(Arc::clone(g));
            InstallGuard { installed: true }
        } else {
            InstallGuard { installed: false }
        }
    }
}

impl Drop for Membership {
    fn drop(&mut self) {
        if let Some(g) = self.0.take() {
            g.leave();
        }
    }
}

/// Un-installs a [`Membership::install`] at body exit (including unwind).
pub(crate) struct InstallGuard {
    installed: bool,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        if self.installed {
            pop_group();
        }
    }
}

/// Serializes the unit tests that move the process-wide dependence
/// counters, so a sibling's deferrals cannot land between one test's
/// counter snapshots.
#[cfg(test)]
pub(crate) static COUNTER_TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Backend;

    fn node() -> Arc<TaskNode> {
        TaskNode::new(Backend::Atomic, Box::new(|| {}))
    }

    /// A fresh graph that holds [`COUNTER_TEST_LOCK`] for its lifetime.
    struct TestGraph {
        graph: DepGraph,
        _lock: parking_lot::MutexGuard<'static, ()>,
    }

    impl std::ops::Deref for TestGraph {
        type Target = DepGraph;
        fn deref(&self) -> &DepGraph {
            &self.graph
        }
    }

    fn graph() -> TestGraph {
        TestGraph {
            _lock: COUNTER_TEST_LOCK.lock(),
            graph: DepGraph::new(Arc::new(Notifier::new())),
        }
    }

    fn insert(g: &DepGraph, deps: &[Dep]) -> (u64, Arc<TaskNode>, bool) {
        let id = g.alloc_id();
        let n = node();
        let held = g.insert(id, &n, None, 0, deps);
        (id, n, held)
    }

    #[test]
    fn chain_releases_in_order() {
        let g = graph();
        let (a, _, held_a) = insert(&g, &[Dep::output(1)]);
        let (b, _, held_b) = insert(&g, &[Dep::inout(1)]);
        let (_c, _, held_c) = insert(&g, &[Dep::input(1)]);
        assert!(!held_a, "no predecessor: runnable immediately");
        assert!(held_b, "WAW on a");
        assert!(held_c, "RAW on b");
        assert_eq!(g.held_len(), 2);
        g.retire(a);
        assert_eq!(g.ready_len(), 1, "only b released");
        assert_eq!(g.held_len(), 1);
        g.retire(b);
        assert_eq!(g.take_ready().len(), 2, "b then c");
        assert_eq!(g.held_len(), 0);
    }

    #[test]
    fn diamond_joins_on_both_branches() {
        let g = graph();
        let (root, _, _) = insert(&g, &[Dep::output(1)]);
        let (l, _, _) = insert(&g, &[Dep::input(1), Dep::output(2)]);
        let (r, _, _) = insert(&g, &[Dep::input(1), Dep::output(3)]);
        let (_join, _, held) = insert(&g, &[Dep::input(2), Dep::input(3)]);
        assert!(held);
        g.retire(root);
        assert_eq!(g.ready_len(), 2, "both branches released");
        for x in g.take_ready() {
            x.node.release_hold();
        }
        g.retire(l);
        assert_eq!(g.ready_len(), 0, "join still waits on the right branch");
        g.retire(r);
        assert_eq!(g.ready_len(), 1, "join released only after both");
    }

    #[test]
    fn readers_run_concurrently_and_block_writer() {
        let g = graph();
        let (w, _, _) = insert(&g, &[Dep::output(9)]);
        g.retire(w);
        let (r1, _, h1) = insert(&g, &[Dep::input(9)]);
        let (r2, _, h2) = insert(&g, &[Dep::input(9)]);
        assert!(!h1 && !h2, "readers of a retired writer run immediately");
        let (_w2, _, held) = insert(&g, &[Dep::output(9)]);
        assert!(held, "WAR: writer waits on both readers");
        g.retire(r1);
        assert_eq!(g.ready_len(), 0);
        g.retire(r2);
        assert_eq!(g.ready_len(), 1, "released when the last reader retires");
    }

    #[test]
    fn duplicate_keys_in_one_list_dedup_edges() {
        let g = graph();
        let before = counters().edges;
        let (_a, _, _) = insert(&g, &[Dep::output(5)]);
        let (_b, _, held) = insert(&g, &[Dep::input(5), Dep::inout(5), Dep::input(5)]);
        assert!(held);
        assert_eq!(
            counters().edges - before,
            1,
            "one predecessor, however many items name it"
        );
    }

    #[test]
    fn cancel_all_releases_every_held_task() {
        let g = graph();
        let before = counters();
        let (_a, _, _) = insert(&g, &[Dep::output(1)]);
        let (_b, _, _) = insert(&g, &[Dep::inout(1)]);
        let (_c, _, _) = insert(&g, &[Dep::inout(1)]);
        assert_eq!(g.held_len(), 2);
        let drained = g.cancel_all();
        assert_eq!(drained.len(), 2, "held tasks handed back, not stranded");
        assert_eq!(g.held_len(), 0);
        assert_eq!(g.ready_len(), 0);
        let after = counters();
        assert_eq!(
            after.released - before.released,
            after.deferred - before.deferred
        );
    }

    #[test]
    fn membership_tracks_nested_spawns() {
        let wake = Arc::new(Notifier::new());
        let group = TaskGroup::new(Arc::clone(&wake));
        push_group(Arc::clone(&group));
        let m = Membership::enter_current();
        assert_eq!(group.live(), 1);
        pop_group();
        // Body runs elsewhere: installing makes nested submissions join.
        {
            let _install = m.install();
            let nested = Membership::enter_current();
            assert_eq!(group.live(), 2, "descendant joined via install");
            drop(nested);
        }
        assert!(current_group().is_none(), "install popped at body exit");
        assert_eq!(group.live(), 1);
        drop(m);
        assert_eq!(group.live(), 0, "membership leaves on drop");
    }
}
