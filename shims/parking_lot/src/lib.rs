//! Offline stand-in for the `parking_lot` crate.
//!
//! The build container has no access to a crates.io mirror, so the workspace
//! vendors the small API subset it actually uses: [`Mutex`], [`RwLock`],
//! [`Condvar`], and the const-initializable [`RawMutex`]. Semantics follow
//! parking_lot, not std: **no poisoning** — a panic while holding a lock
//! leaves the data accessible to other threads.
//!
//! The cost model follows parking_lot too, not only the API: an uncontended
//! lock is one compare-and-swap, an uncontended unlock is one swap, and a
//! notify with no sleepers returns without a wake syscall. Only a thread
//! that actually has to sleep, and the unlock or notify that has to wake
//! it, reach the kernel (through a `std` mutex + condvar park slot).
//! [`RwLock`] wraps `std::sync::RwLock`, whose uncontended paths are
//! already syscall-free.

use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, PoisonError, RwLock as StdRwLock};
use std::time::{Duration, Instant};

pub mod lock_api {
    /// The subset of `lock_api::RawMutex` the workspace relies on: a
    /// const-initializable mutex with free `lock`/`unlock` (no guard).
    pub trait RawMutex {
        /// A fresh, unlocked mutex.
        const INIT: Self;
        /// Block until the lock is acquired.
        fn lock(&self);
        /// Acquire the lock if it is free; never blocks.
        fn try_lock(&self) -> bool;
        /// Release the lock.
        ///
        /// # Safety
        ///
        /// Must only be called by the context that holds the lock.
        unsafe fn unlock(&self);
    }
}

/// Const-initializable blocking mutex without a guard (parking_lot's
/// `RawMutex`).
///
/// The lock word is a three-state atomic:
///
/// * `0` — free;
/// * `1` — held, no thread sleeping on it;
/// * `2` — held, and a thread may be sleeping on it.
///
/// An uncontended `lock` is one compare-and-swap from `0` to `1`, and
/// `unlock` is one swap back to `0`: neither makes a syscall. A contended
/// `lock` spins briefly, then stores `2` and sleeps on the park slot (a
/// `std` mutex + condvar). `unlock` enters the park slot only when the word
/// it swapped out was `2`. A woken thread re-takes the lock as `2`, so the
/// next unlock wakes any other sleeper in turn.
pub struct RawMutex {
    state: AtomicU8,
    park: StdMutex<()>,
    wake: StdCondvar,
}

const FREE: u8 = 0;
const HELD: u8 = 1;
const HELD_SLEEPERS: u8 = 2;

impl RawMutex {
    /// The contended half of `lock`: spin, then sleep until the lock is
    /// handed over.
    #[cold]
    #[inline(never)]
    fn lock_slow(&self) {
        // Spin as parking_lot's `SpinWait` does (3 short pause bursts, then
        // yields), but only while nobody sleeps: with sleepers queued the
        // lock is busy for longer than a spin is worth.
        for spin in 0..10u32 {
            let state = self.state.load(Ordering::Relaxed);
            if state == FREE {
                if self
                    .state
                    .compare_exchange_weak(FREE, HELD, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    return;
                }
                continue;
            }
            if state == HELD_SLEEPERS {
                break;
            }
            if spin < 3 {
                for _ in 0..(2u32 << spin) {
                    std::hint::spin_loop();
                }
            } else {
                std::thread::yield_now();
            }
        }
        slow_path_entered();
        let mut slot = self.park.lock().unwrap_or_else(PoisonError::into_inner);
        // The swap both takes a free lock (as `2`: there may be other
        // sleepers) and, on a held one, announces this sleeper before it
        // waits. `unlock` enters the slot after its swap, so it cannot
        // notify between this swap and the wait.
        while self.state.swap(HELD_SLEEPERS, Ordering::Acquire) != FREE {
            slot = self.wake.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The contended half of `unlock`: wake one sleeper.
    #[cold]
    #[inline(never)]
    fn unlock_slow(&self) {
        slow_path_entered();
        let _slot = self.park.lock().unwrap_or_else(PoisonError::into_inner);
        self.wake.notify_one();
    }
}

impl lock_api::RawMutex for RawMutex {
    const INIT: RawMutex = RawMutex {
        state: AtomicU8::new(FREE),
        park: StdMutex::new(()),
        wake: StdCondvar::new(),
    };

    // Ordering: the `Acquire` on every transition into a held state pairs
    // with the `Release` swap in `unlock`, so a new holder sees every write
    // the previous holder made under the lock.
    #[inline]
    fn lock(&self) {
        if self
            .state
            .compare_exchange(FREE, HELD, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            self.lock_slow();
        }
    }

    #[inline]
    fn try_lock(&self) -> bool {
        self.state
            .compare_exchange(FREE, HELD, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    #[inline]
    unsafe fn unlock(&self) {
        if self.state.swap(FREE, Ordering::Release) == HELD_SLEEPERS {
            self.unlock_slow();
        }
    }
}

/// Count one entry into a park slot or a wake syscall (test builds only):
/// the cost-contract tests assert that uncontended use never gets here.
#[inline]
fn slow_path_entered() {
    #[cfg(test)]
    tests::SLOW_PATH_ENTRIES.with(|n| n.set(n.get() + 1));
}

/// A mutual-exclusion lock with parking_lot's panic-transparent semantics.
pub struct Mutex<T: ?Sized> {
    raw: RawMutex,
    data: UnsafeCell<T>,
}

// Safety: standard mutex reasoning — exclusive access is enforced by `raw`.
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    /// Create a new unlocked mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            raw: <RawMutex as lock_api::RawMutex>::INIT,
            data: UnsafeCell::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Block until the lock is held, returning a RAII guard.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        lock_api::RawMutex::lock(&self.raw);
        MutexGuard { mutex: self }
    }

    /// Acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        if lock_api::RawMutex::try_lock(&self.raw) {
            Some(MutexGuard { mutex: self })
        } else {
            None
        }
    }

    /// Access the data through an exclusive reference (no locking needed).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a Mutex<T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Safety: the guard holds the raw lock.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // Safety: the guard holds the raw lock exclusively.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Safety: this guard acquired the lock and is releasing it exactly once.
        unsafe { lock_api::RawMutex::unlock(&self.mutex.raw) };
    }
}

/// Result of a timed condvar wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// Whether the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable usable with this crate's [`Mutex`].
///
/// Wakeup tracking is epoch-based: `notify_all` bumps an epoch under an
/// internal lock, and waiters record the epoch *before* releasing the user
/// mutex, so a notify performed while holding the user mutex can never be
/// missed. Under the same lock each waiter registers as a sleeper before it
/// waits and deregisters when it leaves, so `notify_all`/`notify_one` with
/// no sleepers take that (uncontended, syscall-free) lock and return
/// without a wake syscall.
pub struct Condvar {
    state: StdMutex<CondvarState>,
    cv: StdCondvar,
}

struct CondvarState {
    epoch: u64,
    sleepers: usize,
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar { .. }")
    }
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            state: StdMutex::new(CondvarState {
                epoch: 0,
                sleepers: 0,
            }),
            cv: StdCondvar::new(),
        }
    }

    /// Wake all current waiters.
    pub fn notify_all(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.sleepers == 0 {
            // A waiter that registers later records the epoch as it is
            // then, so there is nothing to bump.
            return;
        }
        state.epoch += 1;
        drop(state);
        slow_path_entered();
        self.cv.notify_all();
    }

    /// Wake one waiter. Conservatively wakes all: epoch-based tracking
    /// cannot target a single waiter, and callers only rely on "at least
    /// one wakes".
    pub fn notify_one(&self) {
        self.notify_all();
    }

    /// Block until notified.
    pub fn wait<T: ?Sized>(&self, guard: &mut MutexGuard<'_, T>) {
        self.wait_until(guard, None);
    }

    /// Block until notified or `timeout` elapses.
    pub fn wait_for<T: ?Sized>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        self.wait_until(guard, Some(Instant::now() + timeout))
    }

    fn wait_until<T: ?Sized>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Option<Instant>,
    ) -> WaitTimeoutResult {
        // Record the epoch and register as a sleeper before releasing the
        // user mutex: any notify that happens afterwards sees the sleeper
        // and bumps the epoch, which the `epoch == target` check observes.
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let target = state.epoch;
        state.sleepers += 1;
        // Safety: `guard` proves this context holds the lock; it is
        // re-acquired below before the guard is used again.
        unsafe { lock_api::RawMutex::unlock(&guard.mutex.raw) };
        let mut timed_out = false;
        while state.epoch == target {
            match deadline {
                None => {
                    state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
                }
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        timed_out = true;
                        break;
                    }
                    let (g, _) = self
                        .cv
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    state = g;
                }
            }
        }
        state.sleepers -= 1;
        drop(state);
        lock_api::RawMutex::lock(&guard.mutex.raw);
        WaitTimeoutResult(timed_out)
    }
}

/// A reader-writer lock with parking_lot's panic-transparent semantics.
pub struct RwLock<T: ?Sized> {
    inner: StdRwLock<T>,
}

impl<T> RwLock<T> {
    /// Create a new unlocked rwlock.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            inner: StdRwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Acquire exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Acquire shared read access without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(inner) => Some(RwLockReadGuard { inner }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(RwLockReadGuard {
                inner: p.into_inner(),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Acquire exclusive write access without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(inner) => Some(RwLockWriteGuard { inner }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(RwLockWriteGuard {
                inner: p.into_inner(),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Access the data through an exclusive reference (no locking needed).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> RwLock<T> {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock")
            .field("data", &&*self.read())
            .finish()
    }
}

/// RAII shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// RAII exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::lock_api::RawMutex as _;
    use super::*;
    use std::cell::Cell;
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

    thread_local! {
        /// Park-slot and wake-syscall entries made by this thread.
        pub(super) static SLOW_PATH_ENTRIES: Cell<u64> = const { Cell::new(0) };
    }

    fn slow_path_entries() -> u64 {
        SLOW_PATH_ENTRIES.with(Cell::get)
    }

    impl Condvar {
        fn sleepers(&self) -> usize {
            self.state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .sleepers
        }
    }

    /// Generous bound on the stress tests: a lost wakeup fails the test
    /// instead of hanging it.
    const STRESS_DEADLINE: Duration = Duration::from_secs(60);

    /// Run `f` on a helper thread and fail if it does not finish by
    /// [`STRESS_DEADLINE`]; a panic in `f` is re-raised here.
    fn within_deadline<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(STRESS_DEADLINE) {
            Ok(result) => {
                helper.join().expect("the helper sent its result");
                result
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("stress test missed its {STRESS_DEADLINE:?} deadline (lost wakeup?)")
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => match helper.join() {
                Err(panic) => std::panic::resume_unwind(panic),
                Ok(()) => unreachable!("the helper sends before it returns"),
            },
        }
    }

    #[test]
    fn uncontended_mutex_never_parks() {
        let m = Mutex::new(0u64);
        let before = slow_path_entries();
        for _ in 0..100_000 {
            *m.lock() += 1;
        }
        assert_eq!(*m.lock(), 100_000);
        assert_eq!(slow_path_entries(), before);
    }

    #[test]
    fn uncontended_raw_mutex_never_parks() {
        let raw = RawMutex::INIT;
        let before = slow_path_entries();
        for _ in 0..100_000 {
            raw.lock();
            // Safety: locked on the line above by this thread.
            unsafe { raw.unlock() };
        }
        assert_eq!(slow_path_entries(), before);
    }

    #[test]
    fn notify_without_sleepers_makes_no_wake() {
        let cv = Condvar::new();
        let before = slow_path_entries();
        for _ in 0..100_000 {
            cv.notify_all();
            cv.notify_one();
        }
        assert_eq!(slow_path_entries(), before);
        assert_eq!(cv.sleepers(), 0);
    }

    #[test]
    fn timed_out_wait_deregisters_its_sleeper() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(5)).timed_out());
        drop(g);
        assert_eq!(cv.sleepers(), 0);
        let before = slow_path_entries();
        cv.notify_all();
        assert_eq!(slow_path_entries(), before);
    }

    const STRESS_THREADS: usize = 4;
    const STRESS_INCREMENTS: u64 = 50_000;

    /// Run `increment` [`STRESS_INCREMENTS`] times on each of
    /// [`STRESS_THREADS`] threads at once.
    fn hammer(increment: impl Fn() + Sync) {
        std::thread::scope(|s| {
            for _ in 0..STRESS_THREADS {
                s.spawn(|| {
                    for _ in 0..STRESS_INCREMENTS {
                        increment();
                    }
                });
            }
        });
    }

    #[test]
    fn contended_mutex_counts_exactly() {
        let total = within_deadline(|| {
            let m = Mutex::new(0u64);
            hammer(|| *m.lock() += 1);
            m.into_inner()
        });
        assert_eq!(total, STRESS_THREADS as u64 * STRESS_INCREMENTS);
    }

    /// A plain `u64` guarded by a guard-free [`RawMutex`], as the GIL and
    /// the OpenMP locks use it.
    struct RawCounter {
        raw: RawMutex,
        value: UnsafeCell<u64>,
    }

    // Safety: `raw` is a lock and `Sync` itself; `value` is a plain `u64`
    // that is only read or written while `raw` is held.
    unsafe impl Sync for RawCounter {}

    impl RawCounter {
        fn increment(&self) {
            self.raw.lock();
            // Safety: `raw` is held; it is unlocked right after.
            unsafe {
                *self.value.get() += 1;
                self.raw.unlock();
            }
        }
    }

    #[test]
    fn contended_raw_mutex_counts_exactly() {
        let total = within_deadline(|| {
            let c = RawCounter {
                raw: RawMutex::INIT,
                value: UnsafeCell::new(0),
            };
            hammer(|| c.increment());
            c.value.into_inner()
        });
        assert_eq!(total, STRESS_THREADS as u64 * STRESS_INCREMENTS);
    }

    #[test]
    fn condvar_ping_pong() {
        const ROUNDS: u64 = 10_000;
        let last = within_deadline(|| {
            let turn = Mutex::new(0u64);
            let cv = Condvar::new();
            // Each side moves only on its own parity of the turn counter,
            // then hands the turn over.
            let play = |parity: u64| {
                let mut turn = turn.lock();
                for _ in 0..ROUNDS {
                    while *turn % 2 != parity {
                        cv.wait(&mut turn);
                    }
                    *turn += 1;
                    cv.notify_one();
                }
            };
            std::thread::scope(|s| {
                s.spawn(|| play(1));
                play(0);
            });
            turn.into_inner()
        });
        assert_eq!(last, 2 * ROUNDS);
    }

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn raw_mutex_excludes() {
        let raw = RawMutex::INIT;
        raw.lock();
        assert!(!raw.try_lock());
        unsafe { raw.unlock() };
        assert!(raw.try_lock());
        unsafe { raw.unlock() };
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut guard = m.lock();
            while !*guard {
                cv.wait_for(&mut guard, Duration::from_millis(50));
            }
        });
        std::thread::sleep(Duration::from_millis(5));
        let (m, cv) = &*pair;
        *m.lock() = true;
        cv.notify_all();
        t.join().unwrap();
    }

    #[test]
    fn condvar_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(r.timed_out());
    }

    #[test]
    fn no_poisoning_after_panic() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }
}
