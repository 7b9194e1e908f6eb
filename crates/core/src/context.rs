//! Per-thread execution context.
//!
//! Each OS thread carries a stack of team frames (one per enclosing
//! `parallel` region, mirroring §III-C's per-thread task stack). Threads with
//! an empty stack — the initial thread, or any externally created thread —
//! behave as an implicit single-thread team, exactly as the paper specifies
//! for threads created with `threading`/`asyncio` outside OpenMP constructs.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use crate::tasks::TaskNode;
use crate::team::Team;
use crate::worksharing::WsInstance;

/// One entry of the per-thread team stack.
pub struct Frame {
    /// The team this thread belongs to at this level.
    pub team: Arc<Team>,
    /// This thread's number within the team.
    pub thread_num: usize,
    /// `(thread_num, team_size)` for every level from the outermost parallel
    /// region down to this one (drives `omp_get_ancestor_thread_num`).
    pub positions: Vec<(usize, usize)>,
    ws_seq: Cell<u64>,
    current_flat_iter: Cell<Option<u64>>,
    current_instance: RefCell<Option<Arc<WsInstance>>>,
    children_stack: RefCell<Vec<Children>>,
}

/// Fewest registrations between two prunes of a child list.
const PRUNE_MIN: usize = 32;

/// One task's direct children, in submission order.
///
/// A producer that never calls `taskwait` would otherwise keep every task
/// it submitted (and its dependence record) alive until the region ends, so
/// registration prunes completed children whenever the list reaches
/// `prune_at`, then sets `prune_at` to twice what survived: each prune is
/// paid for by at least as many registrations as it scanned, i.e. O(1)
/// amortized, and the list stays within twice the live children (or
/// [`PRUNE_MIN`]).
struct Children {
    list: Vec<Arc<TaskNode>>,
    prune_at: usize,
}

impl Children {
    const fn new() -> Children {
        Children {
            list: Vec::new(),
            prune_at: PRUNE_MIN,
        }
    }
}

thread_local! {
    static STACK: RefCell<Vec<Rc<Frame>>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard that pops the team frame on drop.
pub struct FrameGuard {
    _private: (),
}

impl Drop for FrameGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Push a team frame for the current thread.
///
/// `parent_positions` is the position chain of the thread that encountered
/// the `parallel` directive (empty for the initial thread).
pub fn enter_team(
    team: Arc<Team>,
    thread_num: usize,
    parent_positions: Vec<(usize, usize)>,
) -> FrameGuard {
    let mut positions = parent_positions;
    positions.push((thread_num, team.size()));
    let frame = Rc::new(Frame {
        team,
        thread_num,
        positions,
        ws_seq: Cell::new(0),
        current_flat_iter: Cell::new(None),
        current_instance: RefCell::new(None),
        children_stack: RefCell::new(vec![Children::new()]),
    });
    STACK.with(|s| s.borrow_mut().push(frame));
    FrameGuard { _private: () }
}

/// The innermost team frame, if the thread is inside a parallel region.
pub fn current_frame() -> Option<Rc<Frame>> {
    STACK.with(|s| s.borrow().last().cloned())
}

/// The position chain of the current thread (for spawning nested teams).
pub fn current_positions() -> Vec<(usize, usize)> {
    current_frame()
        .map(|f| f.positions.clone())
        .unwrap_or_default()
}

impl Frame {
    /// Allocate the next work-sharing sequence number for this thread.
    pub fn next_ws_seq(&self) -> u64 {
        let seq = self.ws_seq.get();
        self.ws_seq.set(seq + 1);
        seq
    }

    /// Record the flattened iteration currently executing (for `ordered`).
    pub fn set_current_iter(&self, flat: Option<u64>) {
        self.current_flat_iter.set(flat);
    }

    /// The flattened iteration currently executing, if inside a loop chunk.
    pub fn current_iter(&self) -> Option<u64> {
        self.current_flat_iter.get()
    }

    /// Attach the active loop's shared instance (for `ordered`).
    pub fn set_current_instance(&self, inst: Option<Arc<WsInstance>>) {
        *self.current_instance.borrow_mut() = inst;
    }

    /// The active loop's shared instance.
    pub fn current_instance(&self) -> Option<Arc<WsInstance>> {
        self.current_instance.borrow().clone()
    }

    /// Register a child task of the currently executing task, first pruning
    /// completed children when the list has reached its prune threshold
    /// (see `Children`).
    pub fn register_child(&self, node: Arc<TaskNode>) {
        let mut stack = self.children_stack.borrow_mut();
        let children = stack.last_mut().expect("children stack never empty");
        if children.list.len() >= children.prune_at {
            children.list.retain(|c| !c.is_done());
            children.prune_at = (2 * children.list.len()).max(PRUNE_MIN);
        }
        children.list.push(node);
    }

    /// Take the current task's direct children, leaving its list empty (for
    /// `taskwait`, which waits on every one of them).
    pub fn take_children(&self) -> Vec<Arc<TaskNode>> {
        let mut stack = self.children_stack.borrow_mut();
        let children = stack.last_mut().expect("children stack never empty");
        std::mem::replace(children, Children::new()).list
    }

    /// How many children the current task still holds: live ones plus
    /// completed ones not yet pruned.
    pub fn child_count(&self) -> usize {
        self.children_stack
            .borrow()
            .last()
            .map_or(0, |c| c.list.len())
    }

    /// Enter a nested task frame (called around task body execution).
    pub fn push_task_frame(&self) {
        self.children_stack.borrow_mut().push(Children::new());
    }

    /// Leave a nested task frame.
    pub fn pop_task_frame(&self) {
        self.children_stack.borrow_mut().pop();
    }
}

/// `omp_get_thread_num` semantics: 0 outside any team.
pub fn thread_num() -> usize {
    current_frame().map(|f| f.thread_num).unwrap_or(0)
}

/// `omp_get_num_threads` semantics: 1 outside any team.
pub fn num_threads() -> usize {
    current_frame().map(|f| f.team.size()).unwrap_or(1)
}

/// `omp_in_parallel`: whether any enclosing parallel region is active
/// (team size > 1).
///
/// Derived from the position chain, not the local frame stack: a nested
/// team's workers are fresh OS threads whose stack holds only the innermost
/// frame, but their ancestry travels in [`Frame::positions`].
pub fn in_parallel() -> bool {
    current_frame().is_some_and(|f| f.positions.iter().any(|&(_, s)| s > 1))
}

/// `omp_get_level`: number of nested parallel regions (active or not).
pub fn level() -> usize {
    current_frame().map(|f| f.positions.len()).unwrap_or(0)
}

/// `omp_get_active_level`: number of nested *active* parallel regions.
pub fn active_level() -> usize {
    current_frame()
        .map(|f| f.positions.iter().filter(|&&(_, s)| s > 1).count())
        .unwrap_or(0)
}

/// `omp_get_ancestor_thread_num(level)`: thread number of this thread's
/// ancestor at the given level; -1 if the level does not exist.
pub fn ancestor_thread_num(query_level: i64) -> i64 {
    if query_level == 0 {
        return 0;
    }
    current_frame()
        .and_then(|f| {
            let idx = usize::try_from(query_level).ok()?.checked_sub(1)?;
            f.positions.get(idx).map(|&(t, _)| t as i64)
        })
        .unwrap_or(-1)
}

/// `omp_get_team_size(level)`: team size at the given level; -1 if absent.
pub fn team_size(query_level: i64) -> i64 {
    if query_level == 0 {
        return 1;
    }
    current_frame()
        .and_then(|f| {
            let idx = usize::try_from(query_level).ok()?.checked_sub(1)?;
            f.positions.get(idx).map(|&(_, s)| s as i64)
        })
        .unwrap_or(-1)
}
