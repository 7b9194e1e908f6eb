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
//! The layout is libomp's `kmp_depnode` shape, folded into the task node:
//! each task's one allocation carries its dependence record — an atomic
//! `pending` count (unretired predecessors plus a submission hold), a
//! `retired` flag and a small lock over its successor list, whose first two
//! entries sit inline. The per-key table holds task nodes, not ids, and
//! only submission (and cancellation) takes its lock.
//!
//! A task with no live predecessor at submission goes straight to the
//! deques; otherwise its node is **held** — counted as outstanding (so
//! region barriers, deadlines, and the stall watchdog all see it) but
//! unclaimable, its state word parked at *held*, until the release path
//! hands it back. When a task retires (its body ran, panicked, or was
//! discarded by cancellation — finishing a node retires it on each of those
//! paths, and a node dropped unclaimed retires in its drop), it takes its
//! successor list and decrements each successor's pending count, without
//! the table lock. Whichever thread brings a count to zero — that retiring
//! thread, or the submitter dropping its hold after a predecessor retired
//! mid-link — takes the release (the *held → released* CAS on the node's
//! state word) and admits the task itself. The queue's admission funnel
//! carries the `dep-release` fault-injection site: an injected panic
//! discards the successor instead of stranding it, and the discard retires
//! it in turn, cascading the release. A thread that retires a task after
//! running it keeps one released successor to run next (the
//! immediate-successor bypass) and pushes the rest onto its own deque.
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
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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

/// Released tasks handed back by a retire (or a submitter's hold drop), in
/// release order, for the caller to admit. Admission pushes the releases of
/// any successor it discards onto the back, so a cascade is a worklist, not
/// a recursion.
pub(crate) type Released = SmallList<Arc<TaskNode>, 4>;

/// A FIFO list that keeps its first `N` items inline and spills the rest to
/// the heap, so a typical task's successor list, a key's reader list and a
/// retirement's releases allocate nothing.
pub(crate) struct SmallList<T, const N: usize> {
    /// Logical items `0..N` (while pushed and not yet popped).
    inline: [Option<T>; N],
    /// Logical items `N..`, in order.
    spill: VecDeque<T>,
    /// Items pushed since the list was last empty.
    end: usize,
    /// Items popped since the list was last empty.
    head: usize,
}

impl<T, const N: usize> Default for SmallList<T, N> {
    fn default() -> Self {
        SmallList {
            inline: std::array::from_fn(|_| None),
            spill: VecDeque::new(),
            end: 0,
            head: 0,
        }
    }
}

impl<T, const N: usize> SmallList<T, N> {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn len(&self) -> usize {
        self.end - self.head
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.end == self.head
    }

    /// Whether the next push allocates.
    fn is_full(&self) -> bool {
        self.end >= N && self.spill.len() == self.spill.capacity()
    }

    pub(crate) fn push_back(&mut self, item: T) {
        if self.end < N {
            self.inline[self.end] = Some(item);
        } else {
            self.spill.push_back(item);
        }
        self.end += 1;
    }

    pub(crate) fn pop_front(&mut self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let item = if self.head < N {
            self.inline[self.head].take()
        } else {
            self.spill.pop_front()
        };
        self.head += 1;
        if self.is_empty() {
            self.head = 0;
            self.end = 0;
        }
        item
    }

    fn last(&self) -> Option<&T> {
        match self.end {
            _ if self.is_empty() => None,
            end if end <= N => self.inline[end - 1].as_ref(),
            _ => self.spill.back(),
        }
    }

    /// Pop every item, oldest first.
    fn drain(&mut self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || self.pop_front())
    }

    /// Keep the items `keep` accepts, in order. Kept items are popped and
    /// pushed back, so a list that keeps everything stays full and the next
    /// push grows it: pruning on full stays amortized O(1) per push.
    fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        for _ in 0..self.len() {
            let item = self.pop_front().expect("counted");
            if keep(&item) {
                self.push_back(item);
            }
        }
    }
}

/// Hasher for the per-key table. Keys come from the program submitting the
/// tasks (an address-like integer in compiled mode, a hash of the item's
/// value in interpreted mode), so colliding keys can only slow that program
/// and SipHash's flooding resistance buys nothing here. One multiply
/// spreads the key and the fold brings its high bits down to the
/// bucket-index bits.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let h = (self.0 ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

type KeyMap<V> = HashMap<u64, V, BuildHasherDefault<KeyHasher>>;

/// A task's dependence record (libomp's `kmp_depnode`). It is a field of
/// the task node, so it shares the node's one allocation; the key table
/// and predecessors' successor lists reach it through the node. A task
/// submitted without `depend` items carries an unused record.
pub(crate) struct DepRecord {
    /// Unretired predecessors plus one submission hold. Whichever thread
    /// brings it to zero — a retiring predecessor, or the submitter dropping
    /// its hold — owns the release. Decrements are `AcqRel`, so the
    /// releasing thread has acquired every predecessor's writes.
    pending: AtomicUsize,
    /// Set (`Release`, under `successors`) when the task retires; read
    /// (`Acquire`) without the lock to prune reader lists and to skip dead
    /// predecessors — a successor that skips the edge then sees the retired
    /// task's writes.
    retired: AtomicBool,
    /// Tasks to decrement when this one retires.
    successors: Mutex<SmallList<Arc<TaskNode>, 2>>,
}

impl DepRecord {
    /// A fresh record carrying only the submission hold.
    pub(crate) fn new() -> DepRecord {
        DepRecord {
            pending: AtomicUsize::new(1),
            retired: AtomicBool::new(false),
            successors: Mutex::new(SmallList::new()),
        }
    }

    pub(crate) fn is_retired(&self) -> bool {
        self.retired.load(Ordering::Acquire)
    }

    /// Order `succ` after this task unless it already retired; returns the
    /// number of edges added (0 or 1). A predecessor reached through two
    /// keys is linked once: linking is serialized by the table lock, so if
    /// this submission already linked it, `succ` is its newest successor.
    fn link(&self, succ: &Arc<TaskNode>) -> u64 {
        if self.is_retired() {
            return 0;
        }
        let mut successors = self.successors.lock();
        if self.retired.load(Ordering::Relaxed)
            || successors.last().is_some_and(|s| Arc::ptr_eq(s, succ))
        {
            return 0;
        }
        // Counted under our lock, before `retire` can take the list and
        // decrement it.
        succ.dep.pending.fetch_add(1, Ordering::Relaxed);
        successors.push_back(Arc::clone(succ));
        1
    }

    /// Retire the task: mark it retired, take its successors and decrement
    /// each, pushing those that reach zero onto `released` for the caller
    /// to admit. The task node calls this on every path that completes it
    /// (ran, panicked, discarded, or dropped unclaimed); it never touches
    /// the table lock.
    pub(crate) fn retire(&self, released: &mut Released) {
        let mut successors = {
            let mut successors = self.successors.lock();
            self.retired.store(true, Ordering::Release);
            std::mem::take(&mut *successors)
        };
        for s in successors.drain() {
            if s.dep.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                release(s, released);
            }
        }
    }
}

/// Hand back a held task whose pending count reached zero; nothing when
/// cancellation already took it.
fn release(node: Arc<TaskNode>, released: &mut Released) {
    if node.take_hold() {
        RELEASED.fetch_add(1, Ordering::Relaxed);
        released.push_back(node);
    }
}

/// Per-key ordering state: the last writer and the readers submitted since.
#[derive(Default)]
struct KeyState {
    last_writer: Option<Arc<TaskNode>>,
    readers: SmallList<Arc<TaskNode>, 2>,
}

/// The submit-side state, behind the graph's one table lock.
#[derive(Default)]
struct Table {
    keys: KeyMap<KeyState>,
    /// Tasks that entered the graph held, so `cancel_all` can hand every
    /// one back. Released tasks are pruned as the list grows.
    held: Vec<Arc<TaskNode>>,
}

/// The per-queue dependence graph: the per-key table. Retirement and
/// release run on the task nodes' own records and never take its lock.
#[derive(Default)]
pub(crate) struct DepGraph {
    /// Touched only at submission (and by cancellation).
    table: Mutex<Table>,
}

impl DepGraph {
    /// Record `node`'s dependences and either hold it (returns `true`) or
    /// report it immediately runnable (returns `false`; the caller places
    /// it on the deques). Predecessors come from the per-key
    /// last-writer/reader state; retired ones add no edge and duplicates
    /// are linked once, so edges always point from earlier to later
    /// submissions — the graph is acyclic by construction.
    ///
    /// A held task whose predecessors all retired while it was linking is
    /// released by the submitter's own hold drop: it is pushed onto
    /// `released` for the caller to admit.
    pub(crate) fn insert(
        &self,
        node: &Arc<TaskNode>,
        deps: &[Dep],
        released: &mut Released,
    ) -> bool {
        let mut table = self.table.lock();
        let mut edges = 0;
        for (i, d) in deps.iter().enumerate() {
            // A key named twice in one list is one access, a write if any
            // item writes it: the task is ordered after the *prior* tasks'
            // accesses, never after its own.
            if deps[..i].iter().any(|e| e.key == d.key) {
                continue;
            }
            let write = deps[i..]
                .iter()
                .any(|e| e.key == d.key && e.kind.is_write());
            let st = table.keys.entry(d.key).or_default();
            if let Some(w) = &st.last_writer {
                edges += w.dep.link(node);
            }
            if write {
                for r in st.readers.drain() {
                    edges += r.dep.link(node);
                }
                st.last_writer = Some(Arc::clone(node));
            } else {
                // Prune before the list would grow, so a hot key's readers
                // stay bounded by its live ones (amortized O(1) per insert).
                if st.readers.is_full() {
                    st.readers.retain(|r| !r.dep.is_retired());
                }
                st.readers.push_back(Arc::clone(node));
            }
        }
        if edges == 0 {
            return false;
        }
        EDGES.fetch_add(edges, Ordering::Relaxed);
        DEFERRED.fetch_add(1, Ordering::Relaxed);
        node.hold();
        if table.held.len() == table.held.capacity() {
            table.held.retain(|n| n.is_held());
        }
        table.held.push(Arc::clone(node));
        drop(table);
        // Drop the submission hold. Reaching zero here means every
        // predecessor retired while this task was linking: the submitter
        // owns the release.
        if node.dep.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            release(Arc::clone(node), released);
        }
        true
    }

    /// Number of tasks currently held on unretired predecessors (a scan
    /// under the table lock: diagnostics and tests only).
    pub(crate) fn held_len(&self) -> usize {
        self.table
            .lock()
            .held
            .iter()
            .filter(|n| n.is_held())
            .count()
    }

    /// Cancellation: release every still-held task and clear the key
    /// table. The caller discards them; a cancelled graph releases, not
    /// strands, its successors.
    pub(crate) fn cancel_all(&self) -> Vec<Arc<TaskNode>> {
        let held = {
            let mut table = self.table.lock();
            table.keys.clear();
            std::mem::take(&mut table.held)
        };
        held.into_iter()
            .filter(|n| n.take_hold())
            .inspect(|_| {
                RELEASED.fetch_add(1, Ordering::Relaxed);
            })
            .collect()
    }

    /// Length of `key`'s reader list (unit tests: pruning keeps it bounded).
    #[cfg(test)]
    fn readers_len(&self, key: u64) -> usize {
        self.table
            .lock()
            .keys
            .get(&key)
            .map_or(0, |st| st.readers.len())
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

    fn node() -> Arc<TaskNode> {
        TaskNode::new(|| {}, None, 0, true)
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
            graph: DepGraph::default(),
        }
    }

    /// Retire `node`, returning what the retirement released.
    fn retire(node: &TaskNode) -> Vec<Arc<TaskNode>> {
        let mut released = Released::new();
        node.dep.retire(&mut released);
        released.drain().collect()
    }

    fn insert(g: &DepGraph, deps: &[Dep]) -> (Arc<TaskNode>, bool) {
        let n = node();
        let mut released = Released::new();
        let held = g.insert(&n, deps, &mut released);
        assert!(released.is_empty(), "no predecessor retired mid-link");
        (n, held)
    }

    #[test]
    fn chain_releases_in_order() {
        let g = graph();
        let (a, held_a) = insert(&g, &[Dep::output(1)]);
        let (b, held_b) = insert(&g, &[Dep::inout(1)]);
        let (_c, held_c) = insert(&g, &[Dep::input(1)]);
        assert!(!held_a, "no predecessor: runnable immediately");
        assert!(held_b, "WAW on a");
        assert!(held_c, "RAW on b");
        assert_eq!(g.held_len(), 2);
        let mut ready = retire(&a);
        assert_eq!(ready.len(), 1, "only b released");
        assert_eq!(g.held_len(), 1);
        ready.extend(retire(&b));
        assert_eq!(ready.len(), 2, "b then c");
        assert_eq!(g.held_len(), 0);
    }

    #[test]
    fn diamond_joins_on_both_branches() {
        let g = graph();
        let (root, _) = insert(&g, &[Dep::output(1)]);
        let (l, _) = insert(&g, &[Dep::input(1), Dep::output(2)]);
        let (r, _) = insert(&g, &[Dep::input(1), Dep::output(3)]);
        let (_join, held) = insert(&g, &[Dep::input(2), Dep::input(3)]);
        assert!(held);
        let ready = retire(&root);
        assert_eq!(ready.len(), 2, "both branches released");
        for x in ready {
            x.release_hold();
        }
        let ready = retire(&l);
        assert_eq!(ready.len(), 0, "join still waits on the right branch");
        let ready = retire(&r);
        assert_eq!(ready.len(), 1, "join released only after both");
    }

    #[test]
    fn readers_run_concurrently_and_block_writer() {
        let g = graph();
        let (w, _) = insert(&g, &[Dep::output(9)]);
        retire(&w);
        let (r1, h1) = insert(&g, &[Dep::input(9)]);
        let (r2, h2) = insert(&g, &[Dep::input(9)]);
        assert!(!h1 && !h2, "readers of a retired writer run immediately");
        let (_w2, held) = insert(&g, &[Dep::output(9)]);
        assert!(held, "WAR: writer waits on both readers");
        let ready = retire(&r1);
        assert_eq!(ready.len(), 0);
        let ready = retire(&r2);
        assert_eq!(ready.len(), 1, "released when the last reader retires");
    }

    #[test]
    fn duplicate_keys_in_one_list_dedup_edges() {
        let g = graph();
        let before = counters().edges;
        let (_a, _) = insert(&g, &[Dep::output(5)]);
        let (_b, held) = insert(&g, &[Dep::input(5), Dep::inout(5), Dep::input(5)]);
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
        let (a, _) = insert(&g, &[Dep::output(1)]);
        let (b, _) = insert(&g, &[Dep::inout(1)]);
        let (_c, _) = insert(&g, &[Dep::inout(1)]);
        assert_eq!(g.held_len(), 2);
        let drained = g.cancel_all();
        assert_eq!(drained.len(), 2, "held tasks handed back, not stranded");
        assert_eq!(g.held_len(), 0);
        let mut ready = retire(&a);
        ready.extend(retire(&b));
        assert_eq!(ready.len(), 0, "nothing left to release after cancel");
        let after = counters();
        assert_eq!(
            after.released - before.released,
            after.deferred - before.deferred
        );
    }

    #[test]
    fn retired_predecessor_adds_no_edge() {
        let g = graph();
        let (a, _) = insert(&g, &[Dep::output(4)]);
        retire(&a);
        let before = counters();
        let (_b, held) = insert(&g, &[Dep::input(4), Dep::inout(4)]);
        assert!(!held, "a retired writer leaves its successor runnable");
        let after = counters();
        assert_eq!(after.edges, before.edges, "no edge to a retired task");
        assert_eq!(after.deferred, before.deferred);
        assert_eq!(g.held_len(), 0);
    }

    #[test]
    fn retired_readers_are_pruned_from_a_hot_key() {
        let g = graph();
        let mut longest = 0;
        for _ in 0..10_000 {
            let (r, held) = insert(&g, &[Dep::input(8)]);
            assert!(!held);
            retire(&r);
            longest = longest.max(g.readers_len(8));
        }
        assert!(longest <= 8, "reader list grew to {longest}");
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
