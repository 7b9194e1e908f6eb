//! Dual-backend synchronization primitives.
//!
//! The OMP4Py paper's central design is a *dual runtime*: a pure-Python
//! runtime whose shared state is coordinated with **mutexes**, and a
//! Cython-generated native runtime (`cruntime`) that replaces those mutexes
//! with **atomic operations** (`fetch_add` for loop-scheduling counters,
//! `compare_exchange` for task enqueueing, direct `PyEvent` signaling).
//!
//! [`Backend`] selects between the two faithful analogues here:
//!
//! * [`Backend::Mutex`] — every shared counter/flag/event update takes a
//!   `parking_lot::Mutex` (the paper's `runtime`, i.e. **Pure** mode).
//! * [`Backend::Atomic`] — lock-free `fetch_add`/CAS paths (the paper's
//!   `cruntime`, i.e. **Hybrid**/**Compiled** modes).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// What a thread does while it waits (the `OMP_WAIT_POLICY` ICV).
///
/// OpenMP 4.0 §4.8: *active* threads should consume processor cycles while
/// waiting (spin), *passive* threads should not (sleep). Here the policy
/// resolves to a bounded spin-iteration budget ([`WaitPolicy::default_spin`])
/// that every runtime wait burns before parking on a signaled
/// [`Notifier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WaitPolicy {
    /// Spin a large bounded budget before parking — lowest wakeup latency,
    /// burns CPU; right when threads ≤ cores.
    Active,
    /// Park after a token spin — frees the core for whoever must produce
    /// the awaited state change; right when oversubscribed (the default:
    /// this runtime targets small hosts where regions oversubscribe cores).
    #[default]
    Passive,
}

impl WaitPolicy {
    /// Parse an `OMP_WAIT_POLICY` value (case-insensitive `active`/`passive`).
    pub fn parse(s: &str) -> Option<WaitPolicy> {
        match s.trim().to_ascii_lowercase().as_str() {
            "active" => Some(WaitPolicy::Active),
            "passive" => Some(WaitPolicy::Passive),
            _ => None,
        }
    }

    /// The spin budget this policy implies.
    ///
    /// Passive parks immediately: on the oversubscribed hosts this runtime
    /// targets, measured region-entry and barrier latency are *lowest* with
    /// no speculative spinning at all (every spin iteration delays the
    /// thread that must produce the awaited state change).
    pub fn default_spin(self) -> u32 {
        match self {
            WaitPolicy::Active => 10_000,
            WaitPolicy::Passive => 0,
        }
    }
}

/// Cached spin budget derived from the current ICVs; read on every wait, so
/// it lives outside the ICV lock. Defaults to the passive budget until the
/// ICV store first publishes.
static SPIN_LIMIT: AtomicU32 = AtomicU32::new(0);

/// Runtime-wide count of untimed parks (exported as `omp4rs.pool.park`).
static PARKS: AtomicU64 = AtomicU64::new(0);
/// Runtime-wide count of waits satisfied within their spin budget, without
/// parking (exported as `omp4rs.pool.spin_exit`).
static SPIN_EXITS: AtomicU64 = AtomicU64::new(0);

/// Install the effective spin budget for the current ICVs. Called by the
/// `icv` module whenever the store is initialized, updated, or reset.
pub(crate) fn refresh_wait_config(policy: WaitPolicy) {
    SPIN_LIMIT.store(policy.default_spin(), Ordering::Relaxed);
}

/// The spin budget a wait burns before parking (ICV-derived, cached).
pub fn spin_iters() -> u32 {
    SPIN_LIMIT.load(Ordering::Relaxed)
}

/// Total untimed parks performed by runtime waits since process start.
pub fn park_count() -> u64 {
    PARKS.load(Ordering::Relaxed)
}

/// Total waits satisfied during their bounded spin phase (no park needed).
pub fn spin_exit_count() -> u64 {
    SPIN_EXITS.load(Ordering::Relaxed)
}

pub(crate) fn note_park() {
    PARKS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_spin_exit() {
    SPIN_EXITS.fetch_add(1, Ordering::Relaxed);
}

/// One bounded-spin iteration: mostly scheduler yields with CPU relax hints
/// between them. Yield-dominated spinning is deliberate: on oversubscribed
/// (or single-core) hosts a yield donates the rest of the quantum to the
/// thread that must produce the awaited state change, so a team can
/// round-robin through a barrier with no futex traffic at all, while pure
/// `spin_loop` burning would stall exactly that thread.
pub fn spin_hint(remaining: u32) {
    if remaining.is_multiple_of(4) {
        std::thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
}

/// Spin-then-park until `pred()` returns `true`.
///
/// The spin budget comes from the cached `OMP_WAIT_POLICY` configuration
/// ([`spin_iters`]); once exhausted the thread parks on
/// `notifier` and wakes on the next [`Notifier::notify_all`]. Correctness
/// contract: every state transition that can flip `pred` must be followed
/// by a `notify_all` on the same notifier.
pub fn wait_until(notifier: &Notifier, mut pred: impl FnMut() -> bool) {
    let mut spins = spin_iters();
    let mut spun = false;
    let mut parked = false;
    loop {
        // Epoch first, predicate second: a notification that lands between
        // the two invalidates the snapshot and the park falls through.
        let epoch = notifier.epoch();
        if pred() {
            if spun && !parked {
                note_spin_exit();
            }
            return;
        }
        if spins > 0 {
            spins -= 1;
            spun = true;
            spin_hint(spins);
            continue;
        }
        notifier.park(epoch);
        parked = true;
    }
}

/// [`wait_until`] with a deadline: spin-then-park until `pred()` returns
/// `true` or `deadline` passes.
///
/// Returns `true` when the predicate was satisfied, `false` on deadline
/// expiry (the predicate may of course become true immediately after — the
/// caller decides what a timeout means). The untimed [`wait_until`] remains
/// the zero-overhead path when no region deadline is armed.
///
/// Besides barriers and locks, this is how the trace pipeline's `block`
/// overflow policy waits for ring space ([`crate::ompt`]): sliced waits on
/// the ring's `space` notifier, bounded by the region deadline when one is
/// armed — the same primitive everywhere means the "no unbounded parking"
/// audit has a single choke point.
pub fn wait_until_deadline(
    notifier: &Notifier,
    deadline: Instant,
    mut pred: impl FnMut() -> bool,
) -> bool {
    let mut spins = spin_iters();
    let mut spun = false;
    let mut parked = false;
    loop {
        let epoch = notifier.epoch();
        if pred() {
            if spun && !parked {
                note_spin_exit();
            }
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        if spins > 0 {
            spins -= 1;
            spun = true;
            spin_hint(spins);
            continue;
        }
        notifier.park_until(epoch, deadline);
        parked = true;
    }
}

/// Which synchronization implementation a team uses.
///
/// Mirrors the paper's `runtime` (mutex-based, Pure mode) vs `cruntime`
/// (atomics-based, Hybrid/Compiled modes) split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Mutex-coordinated shared state (the pure-Python runtime analogue).
    Mutex,
    /// Atomic `fetch_add`/CAS shared state (the Cython cruntime analogue).
    #[default]
    Atomic,
}

/// A shared monotone counter used by dynamic/guided scheduling, `sections`,
/// and `single` claims.
///
/// The paper (§III-D): *"In the `runtime`, this coordination relies on a
/// shared mutex … In contrast, cruntime uses atomic operations, where counter
/// creation is done with an atomic swap, and updates are performed using a
/// `fetch_add` operation."*
#[derive(Debug)]
pub struct SharedCounter {
    backend: Backend,
    atomic: AtomicU64,
    mutex: Mutex<u64>,
}

impl SharedCounter {
    /// Create a counter starting at `0`.
    pub fn new(backend: Backend) -> SharedCounter {
        SharedCounter {
            backend,
            atomic: AtomicU64::new(0),
            mutex: Mutex::new(0),
        }
    }

    /// The backend this counter uses.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Atomically add `n`, returning the previous value.
    pub fn fetch_add(&self, n: u64) -> u64 {
        match self.backend {
            Backend::Atomic => self.atomic.fetch_add(n, Ordering::AcqRel),
            Backend::Mutex => {
                let mut guard = self.mutex.lock();
                let prev = *guard;
                *guard += n;
                prev
            }
        }
    }

    /// Read the current value.
    pub fn load(&self) -> u64 {
        match self.backend {
            Backend::Atomic => self.atomic.load(Ordering::Acquire),
            Backend::Mutex => *self.mutex.lock(),
        }
    }

    /// CAS-style update: `f` maps the current value to `Some(new)` to commit
    /// or `None` to abort. Returns `Ok(previous)` on commit, `Err(current)`
    /// on abort. Guided scheduling's decreasing-chunk claims use this.
    pub fn fetch_update(&self, mut f: impl FnMut(u64) -> Option<u64>) -> Result<u64, u64> {
        match self.backend {
            Backend::Atomic => {
                self.atomic
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, &mut f)
            }
            Backend::Mutex => {
                let mut guard = self.mutex.lock();
                match f(*guard) {
                    Some(new) => {
                        let prev = *guard;
                        *guard = new;
                        Ok(prev)
                    }
                    None => Err(*guard),
                }
            }
        }
    }
}

/// A one-shot claim flag (`single` regions, copyprivate publication).
///
/// `try_claim` returns `true` for exactly one caller.
#[derive(Debug)]
pub struct ClaimFlag {
    backend: Backend,
    atomic: AtomicBool,
    mutex: Mutex<bool>,
}

impl ClaimFlag {
    /// Create an unclaimed flag.
    pub fn new(backend: Backend) -> ClaimFlag {
        ClaimFlag {
            backend,
            atomic: AtomicBool::new(false),
            mutex: Mutex::new(false),
        }
    }

    /// Attempt the claim; exactly one caller ever receives `true`.
    ///
    /// The atomic backend performs the paper's "atomic swap"; the mutex
    /// backend locks.
    pub fn try_claim(&self) -> bool {
        match self.backend {
            Backend::Atomic => !self.atomic.swap(true, Ordering::AcqRel),
            Backend::Mutex => {
                let mut guard = self.mutex.lock();
                let claimed = *guard;
                *guard = true;
                !claimed
            }
        }
    }

    /// Whether the flag has been claimed.
    pub fn is_claimed(&self) -> bool {
        match self.backend {
            Backend::Atomic => self.atomic.load(Ordering::Acquire),
            Backend::Mutex => *self.mutex.lock(),
        }
    }
}

/// A latching cancellation flag (`cancel` directives, team poisoning).
///
/// Once set it stays set: teams are created fresh per parallel region, so a
/// cancelled team's residual barrier state never leaks into another region.
/// Like every shared primitive here it honours both backends: the atomic
/// backend uses a swap/load, the mutex backend takes a lock.
#[derive(Debug)]
pub struct CancelFlag {
    backend: Backend,
    atomic: AtomicBool,
    mutex: Mutex<bool>,
}

impl CancelFlag {
    /// Create an unset flag.
    pub fn new(backend: Backend) -> CancelFlag {
        CancelFlag {
            backend,
            atomic: AtomicBool::new(false),
            mutex: Mutex::new(false),
        }
    }

    /// Latch the flag. Returns `true` if this call performed the transition
    /// (exactly one caller observes `true`).
    pub fn set(&self) -> bool {
        match self.backend {
            Backend::Atomic => !self.atomic.swap(true, Ordering::AcqRel),
            Backend::Mutex => {
                let mut guard = self.mutex.lock();
                let was = *guard;
                *guard = true;
                !was
            }
        }
    }

    /// Whether the flag has been latched.
    pub fn is_set(&self) -> bool {
        match self.backend {
            Backend::Atomic => self.atomic.load(Ordering::Acquire),
            Backend::Mutex => *self.mutex.lock(),
        }
    }
}

/// An epoch-based eventcount: the wait/notify hub for barriers, task
/// queues, worksharing hand-offs, and locks.
///
/// The protocol is the classic eventcount three-step that makes **untimed**
/// parking race-free:
///
/// 1. the waiter snapshots [`epoch`](Notifier::epoch),
/// 2. re-checks its wait predicate,
/// 3. calls [`park`](Notifier::park) with the snapshot — which returns
///    immediately if any notification arrived after step 1.
///
/// [`notify_all`](Notifier::notify_all) bumps the epoch *before* waking, so
/// a notification racing with steps 1–3 is never lost. Waiters therefore
/// sleep indefinitely instead of tick-polling and wake the instant they are
/// signaled — this is what un-quantizes barrier release latency from the
/// historical 500µs tick. Timed waits ([`wait_tick`](Notifier::wait_tick) /
/// [`wait_timeout`](Notifier::wait_timeout)) remain for callers polling
/// external state with no notification edge.
#[derive(Debug, Default)]
pub struct Notifier {
    epoch: AtomicU64,
    waiters: AtomicU64,
    mutex: Mutex<()>,
    condvar: Condvar,
}

impl Notifier {
    /// Granularity of the timed fallback wait.
    pub const DEFAULT_TICK: Duration = Duration::from_micros(500);

    /// Create a notifier.
    pub fn new() -> Notifier {
        Notifier::default()
    }

    /// Current notification epoch. Snapshot this *before* checking the wait
    /// predicate, then hand the snapshot to [`park`](Notifier::park).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Wake all current waiters and invalidate in-flight epoch snapshots.
    pub fn notify_all(&self) {
        // SeqCst on both the epoch bump and the waiter-count read pairs with
        // the reverse-order SeqCst accesses in `park` (Dekker pattern): at
        // least one side always observes the other, so the waiter-count==0
        // fast path can never skip a waiter that would then sleep forever.
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            let _guard = self.mutex.lock();
            self.condvar.notify_all();
        }
    }

    /// Park until the epoch advances past `observed` (returns immediately if
    /// it already has). Any notification between the [`epoch`](Notifier::epoch)
    /// snapshot and this call bumps the epoch, so the park falls through
    /// rather than missing the wakeup.
    pub fn park(&self, observed: u64) {
        let mut guard = self.mutex.lock();
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let mut slept = false;
        while self.epoch.load(Ordering::SeqCst) == observed {
            slept = true;
            self.condvar.wait(&mut guard);
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        drop(guard);
        if slept {
            note_park();
        }
    }

    /// [`park`](Notifier::park) bounded by a deadline: sleep until the epoch
    /// advances past `observed` **or** `deadline` passes, whichever is
    /// first. Returns `true` if the deadline had passed when the call
    /// returned (the epoch may have advanced too — callers re-check their
    /// predicate first, exactly as with the untimed park).
    pub fn park_until(&self, observed: u64, deadline: Instant) -> bool {
        let mut guard = self.mutex.lock();
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let mut slept = false;
        while self.epoch.load(Ordering::SeqCst) == observed {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            slept = true;
            let timed_out = self
                .condvar
                .wait_for(&mut guard, deadline - now)
                .timed_out();
            if timed_out {
                break;
            }
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        drop(guard);
        if slept {
            note_park();
        }
        Instant::now() >= deadline
    }

    /// Block until notified or the default tick elapses.
    pub fn wait_tick(&self) {
        self.wait_timeout(Notifier::DEFAULT_TICK);
    }

    /// Block until notified or `timeout` elapses.
    pub fn wait_timeout(&self, timeout: Duration) {
        let observed = self.epoch();
        let mut guard = self.mutex.lock();
        self.waiters.fetch_add(1, Ordering::SeqCst);
        if self.epoch.load(Ordering::SeqCst) == observed {
            let _ = self.condvar.wait_for(&mut guard, timeout);
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A settable completion event (the analogue of `threading.Event` /
/// CPython's internal `PyEvent`): a flag that latches once set.
///
/// The paper (§III-E): the pure runtime waits on `threading.Event` objects,
/// while the cruntime *"bypasses Python code entirely by interfacing directly
/// with `PyEvent`"*. Here the mutex backend keeps the flag under a lock and
/// the atomic backend uses an `AtomicBool`. Waiters do not block on the
/// event itself: they park on a [`Notifier`] with the flag in their
/// predicate ([`wait_until`]), so one wait can also observe cancellation.
///
/// Tasks do not use it: a task's completion is its node's state word, and
/// its waiters park on the team notifier (see [`crate::tasks`]). The
/// `copyprivate` hand-off of a `single` is what still sets one.
#[derive(Debug)]
pub struct OmpEvent {
    backend: Backend,
    atomic: AtomicBool,
    state: Mutex<bool>,
}

impl OmpEvent {
    /// Create an unset event.
    pub fn new(backend: Backend) -> OmpEvent {
        OmpEvent {
            backend,
            atomic: AtomicBool::new(false),
            state: Mutex::new(false),
        }
    }

    /// Set the event. Idempotent; the setter notifies the waiters'
    /// notifier.
    pub fn set(&self) {
        match self.backend {
            Backend::Atomic => self.atomic.store(true, Ordering::Release),
            Backend::Mutex => *self.state.lock() = true,
        }
    }

    /// Whether the event is set.
    pub fn is_set(&self) -> bool {
        match self.backend {
            Backend::Atomic => self.atomic.load(Ordering::Acquire),
            Backend::Mutex => *self.state.lock(),
        }
    }
}

/// A lock-free-or-locked MPMC bag of work items.
///
/// The atomic backend uses a lock-free segment queue (standing in for the
/// paper's `compare_exchange` linked-list enqueue); the mutex backend guards
/// a `VecDeque` with a lock (the paper's mutex-updated next-reference).
#[derive(Debug)]
pub struct WorkBag<T> {
    backend: Backend,
    locked: Mutex<std::collections::VecDeque<T>>,
    lockfree: crossbeam::queue::SegQueue<T>,
}

impl<T> WorkBag<T> {
    /// Create an empty bag.
    pub fn new(backend: Backend) -> WorkBag<T> {
        WorkBag {
            backend,
            locked: Mutex::new(std::collections::VecDeque::new()),
            lockfree: crossbeam::queue::SegQueue::new(),
        }
    }

    /// Enqueue an item.
    pub fn push(&self, item: T) {
        match self.backend {
            Backend::Atomic => self.lockfree.push(item),
            Backend::Mutex => self.locked.lock().push_back(item),
        }
    }

    /// Dequeue an item (FIFO), if any.
    pub fn pop(&self) -> Option<T> {
        match self.backend {
            Backend::Atomic => self.lockfree.pop(),
            Backend::Mutex => self.locked.lock().pop_front(),
        }
    }

    /// Whether the bag is currently empty (racy, advisory).
    pub fn is_empty(&self) -> bool {
        match self.backend {
            Backend::Atomic => self.lockfree.is_empty(),
            Backend::Mutex => self.locked.lock().is_empty(),
        }
    }
}

/// A bounded per-thread deque for work-stealing task execution.
///
/// The owner pushes and pops at the **back** (LIFO: the freshest task stays
/// cache-warm and task trees unwind depth-first); thieves steal from the
/// **front** (FIFO: the oldest — typically largest — unit of work migrates,
/// amortizing the steal). Capacity is fixed at construction and [`push`]
/// reports overflow instead of growing, so callers spill excess work to a
/// shared overflow queue rather than hoarding it on one thread.
///
/// [`push`]: WorkDeque::push
#[derive(Debug)]
pub struct WorkDeque<T> {
    cap: usize,
    items: Mutex<std::collections::VecDeque<T>>,
}

impl<T> WorkDeque<T> {
    /// Create an empty deque holding at most `cap` items (minimum 1).
    pub fn new(cap: usize) -> WorkDeque<T> {
        let cap = cap.max(1);
        WorkDeque {
            cap,
            items: Mutex::new(std::collections::VecDeque::with_capacity(cap)),
        }
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Owner push (back). Returns the item back on overflow.
    ///
    /// # Errors
    ///
    /// `Err(item)` when the deque is full — the caller owns the item again
    /// and should spill it to the overflow queue.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut q = self.items.lock();
        if q.len() >= self.cap {
            return Err(item);
        }
        q.push_back(item);
        Ok(())
    }

    /// Owner pop (back, LIFO).
    pub fn pop(&self) -> Option<T> {
        self.items.lock().pop_back()
    }

    /// Thief steal (front, FIFO).
    pub fn steal(&self) -> Option<T> {
        self.items.lock().pop_front()
    }

    /// Number of queued items (racy, advisory).
    pub fn len(&self) -> usize {
        self.items.lock().len()
    }

    /// Whether the deque is currently empty (racy, advisory).
    pub fn is_empty(&self) -> bool {
        self.items.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn both() -> [Backend; 2] {
        [Backend::Mutex, Backend::Atomic]
    }

    #[test]
    fn counter_fetch_add_sequential() {
        for backend in both() {
            let c = SharedCounter::new(backend);
            assert_eq!(c.fetch_add(3), 0);
            assert_eq!(c.fetch_add(2), 3);
            assert_eq!(c.load(), 5);
        }
    }

    #[test]
    fn counter_fetch_add_concurrent_is_exact() {
        for backend in both() {
            let c = Arc::new(SharedCounter::new(backend));
            let mut handles = Vec::new();
            for _ in 0..8 {
                let c = Arc::clone(&c);
                handles.push(std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.fetch_add(1);
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(c.load(), 8000, "{backend:?}");
        }
    }

    #[test]
    fn counter_fetch_update_commit_and_abort() {
        for backend in both() {
            let c = SharedCounter::new(backend);
            c.fetch_add(10);
            assert_eq!(c.fetch_update(|v| Some(v * 2)), Ok(10));
            assert_eq!(c.load(), 20);
            assert_eq!(c.fetch_update(|_| None), Err(20));
            assert_eq!(c.load(), 20);
        }
    }

    #[test]
    fn claim_flag_exactly_once() {
        for backend in both() {
            let flag = Arc::new(ClaimFlag::new(backend));
            let mut handles = Vec::new();
            for _ in 0..8 {
                let flag = Arc::clone(&flag);
                handles.push(std::thread::spawn(move || flag.try_claim() as usize));
            }
            let wins: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert_eq!(wins, 1, "{backend:?}");
            assert!(flag.is_claimed());
        }
    }

    #[test]
    fn event_set_is_a_latch() {
        for backend in both() {
            let event = OmpEvent::new(backend);
            assert!(!event.is_set());
            event.set();
            event.set(); // idempotent
            assert!(event.is_set());
        }
    }

    #[test]
    fn work_bag_fifo_single_thread() {
        for backend in both() {
            let bag = WorkBag::new(backend);
            assert!(bag.is_empty());
            bag.push(1);
            bag.push(2);
            bag.push(3);
            assert_eq!(bag.pop(), Some(1));
            assert_eq!(bag.pop(), Some(2));
            assert_eq!(bag.pop(), Some(3));
            assert_eq!(bag.pop(), None);
        }
    }

    #[test]
    fn work_bag_concurrent_no_loss_no_dup() {
        for backend in both() {
            let bag = Arc::new(WorkBag::new(backend));
            let total = 4 * 500;
            let mut producers = Vec::new();
            for p in 0..4 {
                let bag = Arc::clone(&bag);
                producers.push(std::thread::spawn(move || {
                    for i in 0..500 {
                        bag.push(p * 500 + i);
                    }
                }));
            }
            let seen = Arc::new(Mutex::new(std::collections::HashSet::new()));
            let done = Arc::new(AtomicBool::new(false));
            let mut consumers = Vec::new();
            for _ in 0..4 {
                let bag = Arc::clone(&bag);
                let seen = Arc::clone(&seen);
                let done = Arc::clone(&done);
                consumers.push(std::thread::spawn(move || loop {
                    match bag.pop() {
                        Some(v) => {
                            assert!(seen.lock().insert(v), "duplicate item {v}");
                        }
                        None => {
                            if done.load(Ordering::Acquire) && bag.is_empty() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }));
            }
            for h in producers {
                h.join().unwrap();
            }
            done.store(true, Ordering::Release);
            for h in consumers {
                h.join().unwrap();
            }
            assert_eq!(seen.lock().len(), total, "{backend:?}");
        }
    }

    #[test]
    fn work_deque_owner_lifo_thief_fifo() {
        let d = WorkDeque::new(8);
        assert!(d.push(1).is_ok());
        assert!(d.push(2).is_ok());
        assert!(d.push(3).is_ok());
        assert_eq!(d.pop(), Some(3), "owner pops the freshest item");
        assert_eq!(d.steal(), Some(1), "thieves steal the oldest item");
        assert_eq!(d.pop(), Some(2));
        assert_eq!(d.pop(), None);
        assert_eq!(d.steal(), None);
    }

    #[test]
    fn work_deque_overflows_at_capacity() {
        let d = WorkDeque::new(2);
        assert_eq!(d.capacity(), 2);
        assert!(d.push(10).is_ok());
        assert!(d.push(11).is_ok());
        assert_eq!(d.push(12), Err(12), "overflow hands the item back");
        assert_eq!(d.len(), 2);
        assert_eq!(d.steal(), Some(10));
        assert!(d.push(12).is_ok(), "space reopens after a steal");
    }

    #[test]
    fn cancel_flag_latches_once() {
        for backend in both() {
            let flag = CancelFlag::new(backend);
            assert!(!flag.is_set());
            assert!(flag.set(), "first set performs the transition");
            assert!(!flag.set(), "second set observes the latch");
            assert!(flag.is_set());
        }
    }

    #[test]
    fn cancel_flag_set_race_has_single_winner() {
        for backend in both() {
            let flag = Arc::new(CancelFlag::new(backend));
            let mut handles = Vec::new();
            for _ in 0..8 {
                let flag = Arc::clone(&flag);
                handles.push(std::thread::spawn(move || flag.set() as usize));
            }
            let wins: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert_eq!(wins, 1, "{backend:?}");
        }
    }

    #[test]
    fn notifier_timed_wait_returns() {
        let n = Notifier::new();
        let start = std::time::Instant::now();
        n.wait_timeout(Duration::from_millis(2));
        assert!(start.elapsed() >= Duration::from_millis(1));
    }

    #[test]
    fn notifier_park_falls_through_after_prior_notify() {
        let n = Notifier::new();
        let epoch = n.epoch();
        n.notify_all();
        // The snapshot is stale, so this must return immediately rather
        // than sleeping — the core lost-wakeup defense.
        n.park(epoch);
    }

    #[test]
    fn notifier_notify_wakes_parked_thread() {
        let n = Arc::new(Notifier::new());
        let waiter = {
            let n = Arc::clone(&n);
            std::thread::spawn(move || {
                let epoch = n.epoch();
                n.park(epoch);
            })
        };
        // Keep notifying until the waiter exits: each notify bumps the
        // epoch, so whichever side wins the race the park terminates.
        while !waiter.is_finished() {
            n.notify_all();
            std::thread::yield_now();
        }
        waiter.join().unwrap();
    }

    #[test]
    fn wait_until_observes_flag_from_other_thread() {
        let n = Arc::new(Notifier::new());
        let flag = Arc::new(AtomicBool::new(false));
        let setter = {
            let n = Arc::clone(&n);
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(2));
                flag.store(true, Ordering::Release);
                n.notify_all();
            })
        };
        wait_until(&n, || flag.load(Ordering::Acquire));
        assert!(flag.load(Ordering::Acquire));
        setter.join().unwrap();
    }

    #[test]
    fn park_until_times_out_without_notification() {
        let n = Notifier::new();
        let epoch = n.epoch();
        let start = std::time::Instant::now();
        let expired = n.park_until(epoch, start + Duration::from_millis(5));
        assert!(expired, "no notification arrived: the deadline must trip");
        assert!(start.elapsed() >= Duration::from_millis(4));
    }

    #[test]
    fn wait_until_deadline_reports_timeout_and_success() {
        let n = Notifier::new();
        let start = std::time::Instant::now();
        assert!(
            !wait_until_deadline(&n, start + Duration::from_millis(5), || false),
            "a never-true predicate must time out"
        );
        assert!(wait_until_deadline(
            &n,
            std::time::Instant::now() + Duration::from_secs(5),
            || true
        ));
    }

    #[test]
    fn wait_policy_parse_accepts_openmp_spellings() {
        assert_eq!(WaitPolicy::parse("active"), Some(WaitPolicy::Active));
        assert_eq!(WaitPolicy::parse("PASSIVE"), Some(WaitPolicy::Passive));
        assert_eq!(WaitPolicy::parse("  Active "), Some(WaitPolicy::Active));
        assert_eq!(WaitPolicy::parse("aggressive"), None);
        assert_eq!(WaitPolicy::parse(""), None);
        assert!(WaitPolicy::Active.default_spin() > WaitPolicy::Passive.default_spin());
    }
}
