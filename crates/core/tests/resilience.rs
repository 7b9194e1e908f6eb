//! Serve-grade resilience, end to end: region deadlines convert stalls into
//! typed [`OmpError::RegionTimeout`] errors, and admission control degrades
//! team sizes instead of oversubscribing a saturated pool.
//!
//! Every test here is bounded by `HANG_LIMIT`: the whole point of the layer
//! under test is that nothing blocks forever.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use omp4rs::exec::{parallel_region, parallel_region_result, ParallelConfig};
use omp4rs::faults::{self, FaultPlan, FaultSite};
use omp4rs::{pool, Backend, Icvs, OmpError};

const HANG_LIMIT: Duration = Duration::from_secs(30);

fn cfg(threads: usize) -> ParallelConfig {
    ParallelConfig::new()
        .num_threads(threads)
        .backend(Backend::Atomic)
}

/// Serialize every test in this binary: fault-plan occurrence counting is
/// process-global, and the admission tests reason about the pool's
/// threads-in-flight, so overlapping regions would make both
/// nondeterministic.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` with an ICV tweak applied, restoring the previous ICVs after.
fn with_icvs(tweak: impl FnOnce(&mut Icvs), f: impl FnOnce()) {
    let before = Icvs::current();
    Icvs::update(tweak);
    let result = catch_unwind(AssertUnwindSafe(f));
    Icvs::reset(before);
    if let Err(p) = result {
        std::panic::resume_unwind(p);
    }
}

/// A worker stalled by an injected "infinite" delay at its barrier arrival:
/// the region deadline trips on the threads parked at that barrier, the
/// team is poisoned, and the caller observes a typed `RegionTimeout` —
/// never a hang. (The injected delay itself aborts once the region is
/// poisoned.)
#[test]
fn region_deadline_converts_barrier_stall_into_timeout() {
    let _s = serial();
    let guard = faults::arm(FaultPlan::new(0xDEAD).delay_at(
        FaultSite::BarrierArrival,
        1,
        Duration::from_secs(120),
    ));
    with_icvs(
        |icvs| icvs.region_deadline = Some(Duration::from_millis(300)),
        || {
            let start = Instant::now();
            let result = parallel_region_result(&cfg(4), |_ctx| {});
            assert!(start.elapsed() < HANG_LIMIT, "deadline must bound the wait");
            match result {
                Err(OmpError::RegionTimeout { construct, waited }) => {
                    assert_eq!(construct, "barrier");
                    assert!(waited >= Duration::from_millis(300));
                }
                other => panic!("expected RegionTimeout, got {other:?}"),
            }
        },
    );
    drop(guard);

    // The pool must be whole afterwards: a full team serves the next region.
    let hits = AtomicUsize::new(0);
    parallel_region(&cfg(4), |_ctx| {
        hits.fetch_add(1, Ordering::SeqCst);
    });
    assert_eq!(hits.load(Ordering::SeqCst), 4);
}

/// Admission control (`omp_set_dynamic`): while one region holds the whole
/// thread budget, a second concurrent region is shed to serial execution
/// instead of oversubscribing — and the `omp4rs.admission.*` counters
/// record the decision.
#[test]
fn saturated_pool_sheds_second_region_to_serial() {
    let _s = serial();
    with_icvs(
        |icvs| {
            icvs.dynamic = true;
            icvs.thread_limit = 4;
        },
        || {
            let hold = AtomicBool::new(true);
            let first_running = AtomicBool::new(false);
            let shed_size = AtomicUsize::new(0);
            let before = pool::admission_stats();
            std::thread::scope(|scope| {
                // First region: takes the full budget and holds it.
                scope.spawn(|| {
                    parallel_region(&cfg(4), |ctx| {
                        first_running.store(true, Ordering::SeqCst);
                        let start = Instant::now();
                        while hold.load(Ordering::SeqCst) && ctx.thread_num() == 0 {
                            assert!(start.elapsed() < HANG_LIMIT);
                            std::thread::yield_now();
                        }
                        ctx.barrier();
                    });
                });
                let start = Instant::now();
                while !first_running.load(Ordering::SeqCst) {
                    assert!(start.elapsed() < HANG_LIMIT);
                    std::thread::yield_now();
                }
                // Second region: budget exhausted, must run serially.
                parallel_region(&cfg(4), |ctx| {
                    shed_size.fetch_max(ctx.num_threads(), Ordering::SeqCst);
                });
                hold.store(false, Ordering::SeqCst);
            });
            assert_eq!(
                shed_size.load(Ordering::SeqCst),
                1,
                "second region must be shed to serial"
            );
            let after = pool::admission_stats();
            assert!(after.shed > before.shed, "shed must be counted");
            assert!(after.granted > before.granted, "first grant counted");
        },
    );
}

/// Oversubscription lifecycle: more concurrent top-level regions than the
/// host has cores (admission off, the default) — every region still gets
/// its full team and completes.
#[test]
fn more_concurrent_regions_than_workers_all_complete() {
    let _s = serial();
    const REGIONS: usize = 8;
    const THREADS: usize = 4;
    let hits = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..REGIONS {
            scope.spawn(|| {
                parallel_region(&cfg(THREADS), |_ctx| {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            });
        }
    });
    assert_eq!(hits.load(Ordering::SeqCst), REGIONS * THREADS);
    assert!(start.elapsed() < HANG_LIMIT);
}

/// Nested regions while the pool is saturated: the nested level bypasses
/// the pool (scoped threads), so saturation upstairs cannot deadlock the
/// inner teams.
#[test]
fn nested_regions_while_pool_saturated() {
    let _s = serial();
    with_icvs(
        |icvs| {
            icvs.nested = true;
            icvs.max_active_levels = 2;
        },
        || {
            let inner_hits = AtomicUsize::new(0);
            let start = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        parallel_region(&cfg(3), |_outer| {
                            parallel_region(&cfg(2), |_inner| {
                                inner_hits.fetch_add(1, Ordering::SeqCst);
                            });
                        });
                    });
                }
            });
            assert_eq!(inner_hits.load(Ordering::SeqCst), 4 * 3 * 2);
            assert!(start.elapsed() < HANG_LIMIT);
        },
    );
}

/// A healthy region under a generous deadline is unaffected: the deadline
/// path must not change results, and `parallel_region_result` returns Ok.
#[test]
fn generous_deadline_does_not_perturb_a_healthy_region() {
    let _s = serial();
    with_icvs(
        |icvs| icvs.region_deadline = Some(Duration::from_secs(60)),
        || {
            let hits = AtomicUsize::new(0);
            let result = parallel_region_result(&cfg(4), |ctx| {
                ctx.barrier();
                hits.fetch_add(1, Ordering::SeqCst);
                ctx.barrier();
            });
            assert!(result.is_ok());
            assert_eq!(hits.load(Ordering::SeqCst), 4);
        },
    );
}

/// User panics still dominate deadline reporting: when a thread panics
/// *and* the deadline trips during teardown, the join re-raises the panic
/// (the timeout is a symptom, the panic the cause).
#[test]
fn user_panic_takes_precedence_over_deadline_failure() {
    let _s = serial();
    with_icvs(
        |icvs| icvs.region_deadline = Some(Duration::from_millis(200)),
        || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                parallel_region(&cfg(2), |ctx| {
                    if ctx.thread_num() == 1 {
                        panic!("user bug");
                    }
                });
            }));
            let payload = result.expect_err("panic must re-raise");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(msg, "user bug", "panic, not RegionTimeout, must win");
        },
    );
}
