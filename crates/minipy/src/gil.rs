//! A simulated Global Interpreter Lock.
//!
//! CPython ≤3.12 serializes bytecode execution through the GIL, releasing it
//! every *switch interval* so other threads can run. Python 3.13+ offers a
//! free-threaded build without the GIL — the feature OMP4Py depends on.
//!
//! [`Gil`] reproduces both behaviours for the minipy interpreter:
//!
//! * [`GilMode::Enabled`] — interpreter threads must hold a global mutex
//!   while executing statements, periodically yielding it. Multithreaded
//!   CPU-bound code gets **no** parallel speedup (the paper's motivation).
//! * [`GilMode::FreeThreaded`] — no global lock; threads run concurrently,
//!   limited only by per-object locks and shared refcount contention.
//!
//! A tick is a scheduling point, not a flush: in both modes a loop may keep
//! a value read from a shared cell across ticks (OpenMP's temporary view, as
//! the VM's fused `range` loop does); visibility comes from flush points.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::lock_api::RawMutex as _;
use parking_lot::RawMutex;

/// Whether the simulated interpreter runs with or without the GIL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GilMode {
    /// A global lock serializes interpreted execution (CPython ≤3.12).
    Enabled,
    /// No global lock (CPython 3.13+ `--disable-gil`). The default.
    #[default]
    FreeThreaded,
}

/// Default number of interpreter ticks between voluntary GIL switches.
///
/// CPython's default switch interval is 5 ms; we use an operation count
/// instead of wall time to stay deterministic.
pub const DEFAULT_SWITCH_INTERVAL: u32 = 128;

/// The simulated global interpreter lock. See the module docs.
pub struct Gil {
    mode: GilMode,
    switch_interval: u32,
    raw: RawMutex,
    switches: AtomicU64,
}

impl std::fmt::Debug for Gil {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gil")
            .field("mode", &self.mode)
            .field("switch_interval", &self.switch_interval)
            .field("switches", &self.switches.load(Ordering::Relaxed))
            .finish()
    }
}

thread_local! {
    static HOLD_DEPTH: Cell<u32> = const { Cell::new(0) };
    static TICKS: Cell<u32> = const { Cell::new(0) };
    /// When [`crate::stats`] collection is on: the instant this thread last
    /// acquired the raw GIL lock (for hold-time accounting).
    static HOLD_START: Cell<Option<std::time::Instant>> = const { Cell::new(None) };
}

/// Start a hold-time measurement if counters are armed (called right after
/// the raw lock is taken).
fn stats_hold_begin() {
    if crate::stats::enabled() {
        crate::stats::count_gil_acquisition();
        HOLD_START.with(|h| h.set(Some(std::time::Instant::now())));
    }
}

/// Accumulate the hold time measured since the matching `stats_hold_begin`,
/// tolerating counters being armed mid-hold (the start is simply absent).
fn stats_hold_end() {
    if let Some(start) = HOLD_START.with(Cell::take) {
        crate::stats::add_gil_hold_ns(start.elapsed().as_nanos() as u64);
    }
}

impl Gil {
    /// Create a GIL with the default switch interval.
    pub fn new(mode: GilMode) -> Arc<Gil> {
        Gil::with_interval(mode, DEFAULT_SWITCH_INTERVAL)
    }

    /// Create a GIL with a custom switch interval (ticks between yields).
    pub fn with_interval(mode: GilMode, switch_interval: u32) -> Arc<Gil> {
        Arc::new(Gil {
            mode,
            switch_interval: switch_interval.max(1),
            raw: RawMutex::INIT,
            switches: AtomicU64::new(0),
        })
    }

    /// The configured mode.
    pub fn mode(&self) -> GilMode {
        self.mode
    }

    /// Whether the GIL actually serializes execution.
    pub fn is_enabled(&self) -> bool {
        self.mode == GilMode::Enabled
    }

    /// Number of voluntary switch-interval yields so far (diagnostic).
    pub fn switch_count(&self) -> u64 {
        self.switches.load(Ordering::Relaxed)
    }

    /// Enter a GIL-holding session on the current thread.
    ///
    /// Re-entrant: nested sessions only lock/unlock at the outermost level.
    /// All interpreter entry points hold a session while executing.
    pub fn enter(self: &Arc<Gil>) -> GilSession {
        if self.is_enabled() {
            let depth = HOLD_DEPTH.with(|d| {
                let v = d.get();
                d.set(v + 1);
                v
            });
            if depth == 0 {
                self.raw.lock();
                stats_hold_begin();
            }
        }
        GilSession {
            gil: Arc::clone(self),
        }
    }

    /// Account one interpreter operation; yields the GIL at the switch
    /// interval so other threads can run (as CPython's eval loop does).
    /// A no-op when the GIL is disabled.
    #[cfg_attr(not(debug_assertions), inline(always))]
    pub fn tick(&self) {
        if !self.is_enabled() {
            return;
        }
        let should_switch = TICKS.with(|t| {
            let v = t.get() + 1;
            if v >= self.switch_interval {
                t.set(0);
                true
            } else {
                t.set(v);
                false
            }
        });
        if should_switch {
            self.switch();
        }
    }

    /// Open a batched tick account for a hot loop: the switch-interval
    /// counter moves from thread-local storage into the returned value (a
    /// register, once inlined) and is written back on drop. Tick cadence is
    /// bit-identical to calling [`Gil::tick`] per operation — same counter,
    /// same interval, same switch calls — only the counter's home changes.
    /// The loop must not call [`Gil::tick`] directly while the batch is
    /// live (the TLS counter would be stale); dropping the batch before any
    /// other tick source runs restores it.
    pub fn tick_batch(&self) -> TickBatch<'_> {
        let enabled = self.is_enabled();
        TickBatch {
            gil: self,
            ticks: if enabled { TICKS.with(|t| t.get()) } else { 0 },
            enabled,
        }
    }

    /// The switch-interval boundary: release the GIL (when held) so another
    /// thread can run. Out of line so [`Gil::tick`]'s per-operation fast
    /// path inlines into dispatch loops without this body.
    #[cold]
    fn switch(&self) {
        if HOLD_DEPTH.with(|d| d.get()) > 0 {
            self.switches.fetch_add(1, Ordering::Relaxed);
            stats_hold_end();
            // SAFETY: this thread holds the raw lock (HOLD_DEPTH > 0 and the
            // outermost `enter` locked it).
            unsafe { self.raw.unlock() };
            std::thread::yield_now();
            self.raw.lock();
            if crate::stats::enabled() {
                HOLD_START.with(|h| h.set(Some(std::time::Instant::now())));
            }
        }
    }

    /// Run `f` with the GIL released (the CPython C-API "allow threads"
    /// pattern). Runtime bridge operations that block — barriers, task
    /// waits, mutex acquisition — use this so a GIL-enabled interpreter
    /// does not deadlock its own team.
    ///
    /// The hold depth is reset to zero for the duration of `f`, so code run
    /// by `f` on this thread (e.g. a parallel region executing interpreted
    /// workers, one of which is this thread) re-acquires the GIL through
    /// fresh [`Gil::enter`] sessions instead of silently assuming it is
    /// still held.
    pub fn allow_threads<R>(&self, f: impl FnOnce() -> R) -> R {
        let saved_depth = if self.is_enabled() {
            HOLD_DEPTH.with(|d| {
                let v = d.get();
                d.set(0);
                v
            })
        } else {
            0
        };
        if saved_depth > 0 {
            stats_hold_end();
            // SAFETY: as in `tick`, the lock is held by this thread.
            unsafe { self.raw.unlock() };
        }
        let result = f();
        if saved_depth > 0 {
            self.raw.lock();
            HOLD_DEPTH.with(|d| d.set(saved_depth));
            if crate::stats::enabled() {
                HOLD_START.with(|h| h.set(Some(std::time::Instant::now())));
            }
        }
        result
    }
}

/// A register-resident tick counter for hot loops; see [`Gil::tick_batch`].
///
/// Holds the thread-local switch-interval counter for the duration of a
/// tight loop so each [`TickBatch::tick`] is an increment-and-compare on a
/// local instead of a TLS access. Dropping writes the counter back.
pub struct TickBatch<'g> {
    gil: &'g Gil,
    ticks: u32,
    enabled: bool,
}

impl TickBatch<'_> {
    /// Account one interpreter operation, with the same cadence as
    /// [`Gil::tick`].
    #[inline(always)]
    pub fn tick(&mut self) {
        if !self.enabled {
            return;
        }
        self.ticks += 1;
        if self.ticks >= self.gil.switch_interval {
            self.ticks = 0;
            self.gil.switch();
        }
    }
}

impl Drop for TickBatch<'_> {
    fn drop(&mut self) {
        if self.enabled {
            TICKS.with(|t| t.set(self.ticks));
        }
    }
}

/// RAII token for a GIL-holding session. Dropping releases the outermost hold.
pub struct GilSession {
    gil: Arc<Gil>,
}

impl Drop for GilSession {
    fn drop(&mut self) {
        if self.gil.is_enabled() {
            let depth = HOLD_DEPTH.with(|d| {
                let v = d.get() - 1;
                d.set(v);
                v
            });
            if depth == 0 {
                stats_hold_end();
                // SAFETY: matching unlock for the `enter` that locked.
                unsafe { self.gil.raw.unlock() };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn free_threaded_is_noop() {
        let gil = Gil::new(GilMode::FreeThreaded);
        let _s = gil.enter();
        gil.tick();
        assert_eq!(gil.switch_count(), 0);
    }

    #[test]
    fn nested_sessions_are_reentrant() {
        let gil = Gil::new(GilMode::Enabled);
        let s1 = gil.enter();
        let s2 = gil.enter();
        drop(s2);
        drop(s1);
        // If unlock pairing were wrong this would deadlock or panic.
        let s3 = gil.enter();
        drop(s3);
    }

    #[test]
    fn enabled_gil_serializes_threads() {
        let gil = Gil::with_interval(GilMode::Enabled, 1_000_000);
        let in_critical = Arc::new(AtomicBool::new(false));
        let saw_overlap = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let gil = Arc::clone(&gil);
            let in_critical = Arc::clone(&in_critical);
            let saw_overlap = Arc::clone(&saw_overlap);
            handles.push(std::thread::spawn(move || {
                let _s = gil.enter();
                for _ in 0..100 {
                    if in_critical.swap(true, Ordering::SeqCst) {
                        saw_overlap.store(true, Ordering::SeqCst);
                    }
                    std::hint::spin_loop();
                    in_critical.store(false, Ordering::SeqCst);
                    gil.tick();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            !saw_overlap.load(Ordering::SeqCst),
            "GIL failed to serialize"
        );
    }

    #[test]
    fn tick_switches_at_interval() {
        let gil = Gil::with_interval(GilMode::Enabled, 4);
        let _s = gil.enter();
        for _ in 0..16 {
            gil.tick();
        }
        assert!(gil.switch_count() >= 3);
    }

    #[test]
    fn tick_batch_matches_tick_cadence() {
        // Same interval, same number of ticks → same switch count, whether
        // the counter lives in TLS or in a batch, including a batch opened
        // mid-stride (it must pick up the TLS counter, not restart at 0).
        let interval = 8;
        // 96 ticks per block (a multiple of the interval) so the
        // thread-local counter returns to its starting phase between blocks.
        let plain = {
            let gil = Gil::with_interval(GilMode::Enabled, interval);
            let _s = gil.enter();
            for _ in 0..96 {
                gil.tick();
            }
            gil.switch_count()
        };
        let batched = {
            let gil = Gil::with_interval(GilMode::Enabled, interval);
            let _s = gil.enter();
            for _ in 0..5 {
                gil.tick();
            }
            let mut batch = gil.tick_batch();
            for _ in 0..86 {
                batch.tick();
            }
            drop(batch);
            for _ in 0..5 {
                gil.tick();
            }
            gil.switch_count()
        };
        assert_eq!(plain, batched);
    }

    #[test]
    fn allow_threads_releases_and_reacquires() {
        let gil = Gil::with_interval(GilMode::Enabled, 1_000_000);
        let _s = gil.enter();
        let gil2 = Arc::clone(&gil);
        let acquired = gil.allow_threads(move || {
            // Another thread can take the GIL while released.
            let handle = std::thread::spawn(move || {
                let _s = gil2.enter();
                true
            });
            handle.join().unwrap()
        });
        assert!(acquired);
        gil.tick(); // still holding afterwards; must not panic
    }

    #[test]
    fn allow_threads_without_session_is_noop() {
        let gil = Gil::new(GilMode::Enabled);
        assert_eq!(gil.allow_threads(|| 7), 7);
    }
}
