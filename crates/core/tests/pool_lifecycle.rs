//! Hot-team pool lifecycle, end to end through `parallel_region`.
//!
//! The invariants under test: a panicking or cancelled region must poison
//! (or end) only *itself* — the persistent worker pool recycles its threads
//! and the very next region runs normally; nested regions bypass the pool;
//! and back-to-back top-level regions actually re-bind pooled workers
//! instead of spawning fresh OS threads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
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

/// `OMP4RS_POOL=off` (the `pool` ICV) forces the scoped-spawn path: regions
/// still run correctly, and the pool's reuse/spawn counters stay flat.
#[test]
fn pool_icv_off_bypasses_the_pool() {
    with_icvs(
        |icvs| icvs.pool = false,
        || {
            for backend in BACKENDS {
                // Retry: concurrently running tests may legitimately move
                // the pool counters between the two reads; what must never
                // happen is that *every* attempt sees movement.
                for round in 0.. {
                    let before = pool::stats();
                    let before_sh = pool::shard_stats();
                    let hits = AtomicUsize::new(0);
                    parallel_region(&cfg(backend, 4), |_ctx| {
                        hits.fetch_add(1, Ordering::SeqCst);
                    });
                    assert_eq!(hits.load(Ordering::SeqCst), 4, "{backend:?}");
                    let after = pool::stats();
                    let after_sh = pool::shard_stats();
                    if (after.reuse, after.spawn) == (before.reuse, before.spawn)
                        && (after_sh.local, after_sh.steal, after_sh.rebalance)
                            == (before_sh.local, before_sh.steal, before_sh.rebalance)
                    {
                        break;
                    }
                    assert!(
                        round < 20,
                        "{backend:?}: pool-off regions kept touching the pool"
                    );
                }
            }
        },
    );
}

/// With a single shard (`OMP4RS_POOL_SHARDS=1`, or a one-CPU default) the
/// sharded pool must be the legacy pool exactly: nobody to steal from, an
/// infinite admission fold batch, and every reused worker accounted as
/// shard-local. Skipped (trivially) when this process runs with more
/// shards — `scripts/ci.sh` re-runs this binary under several counts.
#[test]
fn single_shard_keeps_legacy_counter_shape() {
    let _lock = global_lock();
    if pool::shard_count() != 1 {
        return;
    }
    parallel_region(&cfg(Backend::Atomic, 4), |_ctx| {});
    let sh = pool::shard_stats();
    assert_eq!(sh.steal, 0, "one shard has nobody to steal from");
    assert_eq!(sh.rebalance, 0, "one shard must never fold its counter");
    // Every reuse is a local (gang or home-shard) handout. The two counters
    // are separate atomics bumped by concurrent tests, so sample until a
    // quiet pair of reads brackets the comparison.
    for round in 0.. {
        let r1 = pool::stats().reuse;
        let local = pool::shard_stats().local;
        let r2 = pool::stats().reuse;
        if r1 == r2 && local == r1 {
            return;
        }
        assert!(
            round < 50,
            "local ({local}) never settled to reuse ({r1}..{r2})"
        );
        std::thread::yield_now();
    }
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
