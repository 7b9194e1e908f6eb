//! Work-sharing region bookkeeping (`for`, `sections`, `single`).
//!
//! Threads of a team encountering the *n*-th work-sharing region must agree
//! on shared state for it (the scheduling counter, the `single` claim, the
//! `copyprivate` slot, the `ordered` turn counter). Each thread counts the
//! regions it encounters; the first thread to arrive at a region creates the
//! shared instance (paper: *"the threads must coordinate to determine who
//! creates the shared counter"* — an atomic swap in the cruntime, a mutex in
//! the pure runtime).

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::directive::ScheduleKind;
use crate::schedule::ResolvedSchedule;
use crate::sync::{Backend, CancelFlag, ClaimFlag, Notifier, OmpEvent, SharedCounter};

/// Shared state for one dynamic occurrence of a work-sharing region.
#[derive(Debug)]
pub struct WsInstance {
    /// Scheduling counter: next unassigned flattened iteration (for
    /// dynamic/guided loops) or next section index (for `sections`).
    pub counter: SharedCounter,
    /// One-shot claim for `single` regions.
    pub claim: ClaimFlag,
    /// `copyprivate` broadcast slot (set by the `single` winner).
    cp_slot: Mutex<Option<Box<dyn Any + Send>>>,
    /// Signaled when the `copyprivate` slot is filled.
    cp_event: OmpEvent,
    /// Merge slot for compiled-mode reductions.
    reduce_slot: Mutex<Option<Box<dyn Any + Send>>>,
    /// Next flattened iteration allowed to run its `ordered` region.
    ordered_next: AtomicU64,
    /// Wakeups for `ordered` turn-taking.
    wake: Arc<Notifier>,
    /// Per-instance cancellation (`cancel for` / `cancel sections`).
    cancelled: CancelFlag,
    /// The owning region's cancellation flag (shared via the registry), so
    /// every instance wait loop also observes `cancel parallel`/poisoning.
    region_cancel: Arc<CancelFlag>,
    /// The loop schedule, resolved once by the first team thread through
    /// [`WsInstance::resolve_schedule`].
    schedule: OnceLock<ResolvedSchedule>,
}

impl WsInstance {
    fn new(backend: Backend, wake: Arc<Notifier>, region_cancel: Arc<CancelFlag>) -> WsInstance {
        WsInstance {
            counter: SharedCounter::new(backend),
            claim: ClaimFlag::new(backend),
            cp_slot: Mutex::new(None),
            cp_event: OmpEvent::new(backend),
            reduce_slot: Mutex::new(None),
            ordered_next: AtomicU64::new(0),
            wake,
            cancelled: CancelFlag::new(backend),
            region_cancel,
            schedule: OnceLock::new(),
        }
    }

    /// The schedule of the loop this instance shares: the first team thread
    /// resolves it ([`ResolvedSchedule::resolve`]) and every teammate reads
    /// that answer. One instance therefore never mixes schedules, even when
    /// another thread changes `run-sched-var` (`omp_set_schedule`) while the
    /// team is still entering a `schedule(runtime)` loop.
    pub fn resolve_schedule(
        &self,
        clause: Option<(ScheduleKind, Option<u64>)>,
        total: u64,
        nthreads: usize,
        interpreted: bool,
    ) -> ResolvedSchedule {
        *self
            .schedule
            .get_or_init(|| ResolvedSchedule::resolve(clause, total, nthreads, interpreted))
    }

    /// Cancel this work-sharing instance (`cancel for`/`cancel sections`):
    /// threads stop claiming chunks/sections at their next cancellation
    /// point. Iterations already claimed complete normally.
    pub fn cancel(&self) {
        if self.cancelled.set() {
            crate::ompt::record_here(crate::ompt::EventKind::CancelObserved);
        }
        self.wake.notify_all();
    }

    /// Whether the instance — or its whole region — has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.is_set() || self.region_cancel.is_set()
    }

    /// Publish a `copyprivate` value (called by the `single` winner).
    pub fn copyprivate_publish(&self, value: Box<dyn Any + Send>) {
        *self.cp_slot.lock() = Some(value);
        self.cp_event.set();
        // Readers wait on the team eventcount (so one wait observes both
        // publication and cancellation); signal it as well.
        self.wake.notify_all();
    }

    /// Wait for and read the `copyprivate` value.
    ///
    /// # Panics
    ///
    /// Panics if the published value's type does not match `T` — a
    /// programming error equivalent to mismatched copyprivate types in C.
    /// Also panics if the region is cancelled/poisoned before the value is
    /// published (the `single` winner died): converting the would-be hang
    /// into a panic that region teardown re-raises. Inside a region with a
    /// deadline ICV the wait is bounded: on expiry the region is poisoned
    /// and the thread unwinds with [`crate::error::OmpError::RegionTimeout`].
    pub fn copyprivate_read<T: Clone + 'static>(&self) -> T {
        let pred = || self.cp_event.is_set() || self.is_cancelled();
        match crate::team::current_deadline() {
            Some((team, deadline)) => {
                if !crate::sync::wait_until_deadline(&self.wake, deadline, pred) {
                    std::panic::panic_any(team.trip_deadline("single"));
                }
            }
            None => crate::sync::wait_until(&self.wake, pred),
        }
        if !self.cp_event.is_set() {
            panic!("copyprivate value abandoned: region cancelled or poisoned before publish");
        }
        let slot = self.cp_slot.lock();
        let any = slot.as_ref().expect("copyprivate slot set before event");
        any.downcast_ref::<T>()
            .expect("copyprivate type mismatch")
            .clone()
    }

    /// Merge a thread-local reduction value into the shared slot.
    pub fn reduce_merge<T: Send + 'static>(&self, value: T, combine: impl Fn(T, T) -> T) {
        let mut slot = self.reduce_slot.lock();
        let merged = match slot.take() {
            Some(prev) => {
                let prev = *prev.downcast::<T>().expect("reduction type mismatch");
                combine(prev, value)
            }
            None => value,
        };
        *slot = Some(Box::new(merged));
    }

    /// Read the merged reduction value (after the region barrier).
    pub fn reduce_result<T: Clone + 'static>(&self) -> Option<T> {
        self.reduce_slot
            .lock()
            .as_ref()
            .and_then(|b| b.downcast_ref::<T>().cloned())
    }

    /// Block until it is `flat_iter`'s turn for the `ordered` region.
    ///
    /// Returns early (without its turn) when the instance or region is
    /// cancelled: the thread whose turn it is may be gone, and a cancelled
    /// loop no longer promises iteration ordering. Inside a region with a
    /// deadline ICV the wait is bounded: on expiry the region is poisoned
    /// and the thread unwinds with [`crate::error::OmpError::RegionTimeout`].
    pub fn ordered_enter(&self, flat_iter: u64) {
        let pred = || self.ordered_next.load(Ordering::Acquire) == flat_iter || self.is_cancelled();
        match crate::team::current_deadline() {
            Some((team, deadline)) => {
                if !crate::sync::wait_until_deadline(&self.wake, deadline, pred) {
                    std::panic::panic_any(team.trip_deadline("ordered"));
                }
            }
            None => crate::sync::wait_until(&self.wake, pred),
        }
    }

    /// Finish the `ordered` region for `flat_iter`, releasing the next one.
    pub fn ordered_exit(&self, flat_iter: u64) {
        self.ordered_next.store(flat_iter + 1, Ordering::Release);
        self.wake.notify_all();
    }
}

/// Registry mapping a team's work-sharing sequence numbers to instances.
#[derive(Debug)]
pub struct WorkshareRegistry {
    backend: Backend,
    team_size: usize,
    wake: Arc<Notifier>,
    map: Mutex<HashMap<u64, (Arc<WsInstance>, usize)>>,
    /// The owning region's cancellation flag, handed to every instance.
    region_cancel: Arc<CancelFlag>,
}

impl WorkshareRegistry {
    /// Create a standalone registry (never-cancelled region) — used by tests
    /// and benchmarks that exercise work-sharing without a team.
    pub fn new(backend: Backend, team_size: usize, wake: Arc<Notifier>) -> WorkshareRegistry {
        WorkshareRegistry::with_cancel(backend, team_size, wake, Arc::new(CancelFlag::new(backend)))
    }

    /// Create a registry whose instances observe `region_cancel` (the team's
    /// region-wide cancellation flag).
    pub fn with_cancel(
        backend: Backend,
        team_size: usize,
        wake: Arc<Notifier>,
        region_cancel: Arc<CancelFlag>,
    ) -> WorkshareRegistry {
        WorkshareRegistry {
            backend,
            team_size,
            wake,
            map: Mutex::new(HashMap::new()),
            region_cancel,
        }
    }

    /// Enter the work-sharing region with the given per-thread sequence
    /// number, creating the shared instance if this thread arrives first.
    pub fn enter(&self, seq: u64) -> Arc<WsInstance> {
        let mut map = self.map.lock();
        let entry = map.entry(seq).or_insert_with(|| {
            let inst = WsInstance::new(
                self.backend,
                Arc::clone(&self.wake),
                Arc::clone(&self.region_cancel),
            );
            (Arc::new(inst), 0)
        });
        Arc::clone(&entry.0)
    }

    /// Mark the region complete for one thread; the instance is dropped from
    /// the registry when the whole team has finished it.
    pub fn leave(&self, seq: u64) {
        let mut map = self.map.lock();
        if let Some(entry) = map.get_mut(&seq) {
            entry.1 += 1;
            if entry.1 >= self.team_size {
                map.remove(&seq);
            }
        }
    }

    /// Number of live instances (diagnostic).
    pub fn live_instances(&self) -> usize {
        self.map.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_arriver_creates_instance_once() {
        let reg = WorkshareRegistry::new(Backend::Atomic, 4, Arc::new(Notifier::new()));
        let a = reg.enter(0);
        let b = reg.enter(0);
        assert!(Arc::ptr_eq(&a, &b));
        let c = reg.enter(1);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn instance_removed_when_team_leaves() {
        let reg = WorkshareRegistry::new(Backend::Mutex, 2, Arc::new(Notifier::new()));
        let _ = reg.enter(0);
        assert_eq!(reg.live_instances(), 1);
        reg.leave(0);
        assert_eq!(reg.live_instances(), 1);
        reg.leave(0);
        assert_eq!(reg.live_instances(), 0);
    }

    #[test]
    fn single_claim_via_instance() {
        let reg = WorkshareRegistry::new(Backend::Atomic, 3, Arc::new(Notifier::new()));
        let inst = reg.enter(0);
        assert!(inst.claim.try_claim());
        assert!(!inst.claim.try_claim());
    }

    #[test]
    fn copyprivate_round_trip() {
        let reg = WorkshareRegistry::new(Backend::Atomic, 2, Arc::new(Notifier::new()));
        let inst = reg.enter(0);
        let reader = {
            let inst = Arc::clone(&inst);
            std::thread::spawn(move || inst.copyprivate_read::<i64>())
        };
        inst.copyprivate_publish(Box::new(42i64));
        assert_eq!(reader.join().unwrap(), 42);
    }

    #[test]
    fn reduce_merge_accumulates() {
        let reg = WorkshareRegistry::new(Backend::Mutex, 4, Arc::new(Notifier::new()));
        let inst = reg.enter(0);
        for v in [1.0f64, 2.0, 3.0] {
            inst.reduce_merge(v, |a, b| a + b);
        }
        assert_eq!(inst.reduce_result::<f64>(), Some(6.0));
    }

    #[test]
    fn ordered_turns_serialize() {
        let reg = WorkshareRegistry::new(Backend::Atomic, 3, Arc::new(Notifier::new()));
        let inst = reg.enter(0);
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        // Three threads execute ordered regions for iterations 2, 1, 0.
        for iter in [2u64, 1, 0] {
            let inst = Arc::clone(&inst);
            let order = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                inst.ordered_enter(iter);
                order.lock().push(iter);
                inst.ordered_exit(iter);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock(), vec![0, 1, 2]);
    }
}
