//! Hot-team pool lifecycle, end to end through `parallel_region`.
//!
//! The invariants under test: a panicking or cancelled region must poison
//! (or end) only *itself* — the persistent worker pool recycles its threads
//! and the very next region runs normally; nested regions bypass the pool;
//! back-to-back top-level regions actually re-bind pooled workers instead
//! of spawning fresh OS threads; and several masters dispatching at once
//! each get full teams, keep a worker panic to their own team, and leave
//! the admission charge at zero when they finish.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use omp4rs::exec::{parallel_region, ParallelConfig};
use omp4rs::faults::{self, FaultPlan, FaultSite};
use omp4rs::{pool, Backend, Icvs, InjectedFault};

const BACKENDS: [Backend; 2] = [Backend::Mutex, Backend::Atomic];
const HANG_LIMIT: Duration = Duration::from_secs(30);

fn cfg(backend: Backend, threads: usize) -> ParallelConfig {
    ParallelConfig::new().num_threads(threads).backend(backend)
}

/// Serializes every test in this binary. They share process-global state:
/// an armed fault plan faults *any* thread's worker dispatch, not just the
/// arming test's, and the ICVs are one global set.
static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

fn global_lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` with an ICV tweak applied, holding [`GLOBAL_LOCK`], restoring
/// the previous ICVs after.
fn with_icvs(tweak: impl FnOnce(&mut Icvs), f: impl FnOnce()) {
    let _lock = global_lock();
    let before = Icvs::current();
    Icvs::update(tweak);
    let result = catch_unwind(AssertUnwindSafe(f));
    Icvs::reset(before);
    if let Err(p) = result {
        std::panic::resume_unwind(p);
    }
}

/// A region whose body panics must re-raise after the join — and the *pool*
/// must shrug it off: the next region on the same pool runs to completion
/// with every thread participating.
#[test]
fn panicking_region_then_successful_region_on_same_pool() {
    let _lock = global_lock();
    for backend in BACKENDS {
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_region(&cfg(backend, 4), |ctx| {
                if ctx.thread_num() == 2 {
                    panic!("poisoned region, not a poisoned pool");
                }
            });
        }));
        assert!(result.is_err(), "{backend:?}: the panic must re-raise");

        let hits = AtomicUsize::new(0);
        let start = Instant::now();
        parallel_region(&cfg(backend, 4), |_ctx| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(
            hits.load(Ordering::SeqCst),
            4,
            "{backend:?}: the region after the panic must get a full team"
        );
        assert!(start.elapsed() < HANG_LIMIT, "{backend:?}: region hung");
    }
}

/// `cancel parallel` mid-region with pooled workers: every thread observes
/// the cancellation, the region exits promptly, and the pool serves the
/// next region normally.
#[test]
fn cancellation_mid_region_with_pooled_workers() {
    with_icvs(
        |icvs| icvs.cancellation = true,
        || {
            for backend in BACKENDS {
                let start = Instant::now();
                parallel_region(&cfg(backend, 4), |ctx| {
                    if ctx.thread_num() == 0 {
                        assert!(ctx.cancel("parallel"));
                    } else {
                        while !ctx.cancellation_point("parallel") {
                            assert!(start.elapsed() < HANG_LIMIT, "{backend:?}: never observed");
                            std::thread::yield_now();
                        }
                    }
                });
                // The cancelled region's latch drained on the abnormal path
                // (no final-barrier release); the pool must still be whole.
                let hits = AtomicUsize::new(0);
                parallel_region(&cfg(backend, 4), |_ctx| {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
                assert_eq!(hits.load(Ordering::SeqCst), 4, "{backend:?}");
            }
        },
    );
}

/// Nested regions bypass the pool (scoped threads), and the outer pooled
/// region still joins correctly around them.
#[test]
fn nested_parallel_inside_pooled_region() {
    with_icvs(
        |icvs| {
            icvs.nested = true;
            icvs.max_active_levels = 2;
        },
        || {
            for backend in BACKENDS {
                let inner_hits = AtomicUsize::new(0);
                let outer_hits = AtomicUsize::new(0);
                parallel_region(&cfg(backend, 3), |_outer| {
                    outer_hits.fetch_add(1, Ordering::SeqCst);
                    parallel_region(&cfg(backend, 2), |_inner| {
                        inner_hits.fetch_add(1, Ordering::SeqCst);
                    });
                });
                assert_eq!(outer_hits.load(Ordering::SeqCst), 3, "{backend:?}");
                assert_eq!(
                    inner_hits.load(Ordering::SeqCst),
                    6,
                    "{backend:?}: 3 outer threads x 2 inner threads"
                );
            }
        },
    );
}

/// An injected fault at worker dispatch (the pool's own site, firing on the
/// worker thread before it binds to the team) poisons the *region* — the
/// panic re-raises on the master — while the pool recycles the thread.
#[test]
fn worker_dispatch_fault_poisons_region_not_pool() {
    let _lock = global_lock();
    for backend in BACKENDS {
        let guard = faults::arm(FaultPlan::new(0xF007).panic_at(FaultSite::WorkerDispatch, 1));
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_region(&cfg(backend, 4), |_ctx| {});
        }));
        let payload = result.expect_err("the injected dispatch fault must re-raise");
        let fault = payload
            .downcast_ref::<InjectedFault>()
            .expect("payload must be the InjectedFault");
        assert_eq!(fault.site, FaultSite::WorkerDispatch);
        assert!(start.elapsed() < HANG_LIMIT, "{backend:?}: region hung");
        drop(guard);

        let hits = AtomicUsize::new(0);
        parallel_region(&cfg(backend, 4), |_ctx| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 4, "{backend:?}: pool survives");
    }
}

/// Nested regions take the scoped-spawn path: an inner 4-thread region
/// (level 1, under a 1-thread outer region) runs with a full team while the
/// pool's reuse/spawn counters stay flat.
#[test]
fn nested_regions_take_the_scoped_path() {
    with_icvs(
        |icvs| {
            icvs.nested = true;
            icvs.max_active_levels = 2;
        },
        || {
            for backend in BACKENDS {
                // Retry: a worker from an earlier test may still be docking
                // and move the counters between the two reads; what must
                // never happen is that *every* attempt sees movement.
                for round in 0.. {
                    let before = pool::stats();
                    let hits = AtomicUsize::new(0);
                    parallel_region(&cfg(backend, 1), |_outer| {
                        parallel_region(&cfg(backend, 4), |inner| {
                            assert_eq!(inner.num_threads(), 4);
                            hits.fetch_add(1, Ordering::SeqCst);
                        });
                    });
                    assert_eq!(hits.load(Ordering::SeqCst), 4, "{backend:?}");
                    let after = pool::stats();
                    if (after.reuse, after.spawn) == (before.reuse, before.spawn) {
                        break;
                    }
                    assert!(
                        round < 20,
                        "{backend:?}: nested regions kept touching the pool"
                    );
                }
            }
        },
    );
}

/// Back-to-back top-level regions must re-bind pooled workers (hot teams),
/// not spawn OS threads per region. Other tests in the process share the
/// pool, so allow retries — but a hot path that *never* reuses is broken.
#[test]
fn back_to_back_regions_reuse_pooled_workers() {
    let _lock = global_lock();
    for round in 0.. {
        parallel_region(&cfg(Backend::Atomic, 4), |_ctx| {});
        let before = pool::stats();
        parallel_region(&cfg(Backend::Atomic, 4), |_ctx| {});
        let after = pool::stats();
        if after.reuse > before.reuse && after.spawn == before.spawn {
            return;
        }
        assert!(round < 20, "no region-after-region ever reused the gang");
    }
}

/// Run `f(i)` on `n` fresh OS threads (each a new dispatching master) and
/// join them, failing if any of them has not finished within [`HANG_LIMIT`].
/// Returns each thread's result in spawn order.
fn on_fresh_masters<T: Send + 'static>(
    n: usize,
    f: impl Fn(usize) -> T + Send + Sync + 'static,
) -> Vec<T> {
    let f = Arc::new(f);
    let (tx, rx) = mpsc::channel();
    for i in 0..n {
        let (f, tx) = (Arc::clone(&f), tx.clone());
        std::thread::spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(|| f(i)));
            let _ = tx.send((i, result));
        });
    }
    let deadline = Instant::now() + HANG_LIMIT;
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for _ in 0..n {
        let left = deadline.saturating_duration_since(Instant::now());
        let (i, result) = rx.recv_timeout(left).expect("a master hung");
        match result {
            Ok(v) => results[i] = Some(v),
            Err(p) => std::panic::resume_unwind(p),
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every master reported"))
        .collect()
}

/// Several masters dispatching at once each get the team size they asked
/// for, on every region.
#[test]
fn concurrent_masters_each_get_full_teams() {
    let _lock = global_lock();
    let start = Arc::new(Barrier::new(4));
    let short = on_fresh_masters(4, move |_| {
        start.wait();
        let mut short = 0;
        for _ in 0..50 {
            let hits = AtomicUsize::new(0);
            parallel_region(&cfg(Backend::Atomic, 3), |ctx| {
                assert_eq!(ctx.num_threads(), 3);
                hits.fetch_add(1, Ordering::SeqCst);
            });
            short += usize::from(hits.into_inner() != 3);
        }
        short
    });
    assert_eq!(short, vec![0; 4], "regions that ran short, per master");
}

/// A worker panic poisons only its own master's team: a second master's
/// regions, running at the same time, keep their full size and never see
/// the panic, and the first master's next region is whole again.
#[test]
fn worker_panic_poisons_only_its_own_masters_team() {
    let _lock = global_lock();
    let panicked = Arc::new(AtomicBool::new(false));
    on_fresh_masters(2, move |master| {
        if master == 0 {
            let result = catch_unwind(AssertUnwindSafe(|| {
                parallel_region(&cfg(Backend::Atomic, 4), |ctx| {
                    if ctx.thread_num() == 3 {
                        panic!("poisoned team, not a poisoned pool");
                    }
                });
            }));
            panicked.store(true, Ordering::SeqCst);
            assert!(result.is_err(), "the panic must re-raise on its own master");
        }
        // Master 1 keeps dispatching until master 0's panic has re-raised
        // (and a few regions beyond); master 0 then checks its own pool
        // service is whole again.
        let mut regions = 0;
        while regions < 20 || !panicked.load(Ordering::SeqCst) {
            let hits = AtomicUsize::new(0);
            parallel_region(&cfg(Backend::Atomic, 4), |_ctx| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(hits.into_inner(), 4, "master {master}: region ran short");
            regions += 1;
        }
    });
}

/// The admission charge is exact: once concurrent masters have finished
/// their regions, `admission_stats().inflight` is back to zero.
#[test]
fn admission_inflight_returns_to_zero_after_concurrent_masters() {
    let _lock = global_lock();
    on_fresh_masters(8, |_| {
        for _ in 0..50 {
            parallel_region(&cfg(Backend::Atomic, 3), |_ctx| {});
        }
    });
    assert_eq!(
        pool::admission_stats().inflight,
        0,
        "in-flight charge leaked"
    );
}
