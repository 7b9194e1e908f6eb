//! Deterministic fault injection and cancellation, end to end.
//!
//! The invariant under test: a panicking team thread must never hang the
//! region. The team is poisoned, every waiter wakes, the surviving threads
//! run to the region exit, and the first captured panic re-raises after the
//! join — in both synchronization backends.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use omp4rs::exec::{parallel_region, ForSpec, ParallelConfig};
use omp4rs::faults::{self, FaultPlan, FaultSite};
use omp4rs::{Backend, Icvs, InjectedFault, ScheduleKind};

const BACKENDS: [Backend; 2] = [Backend::Mutex, Backend::Atomic];

/// Generous bound: a healthy poisoned-region exit takes milliseconds; only
/// a real deadlock (the bug this PR guards against) would reach this.
const HANG_LIMIT: Duration = Duration::from_secs(30);

fn cfg(backend: Backend, threads: usize) -> ParallelConfig {
    ParallelConfig::new().num_threads(threads).backend(backend)
}

/// Serializes every test in this binary. They share process-global state:
/// an armed fault plan counts (and faults) every thread's events, not just
/// the arming test's, and the cancel-var ICV is one global flag.
static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

fn global_lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` with the cancel-var ICV enabled, holding [`GLOBAL_LOCK`].
fn with_cancellation(f: impl FnOnce()) {
    let _lock = global_lock();
    let before = Icvs::current();
    Icvs::update(|icvs| icvs.cancellation = true);
    let result = catch_unwind(AssertUnwindSafe(f));
    Icvs::reset(before);
    if let Err(p) = result {
        std::panic::resume_unwind(p);
    }
}

/// Hold a team thread in user code until `flag` is set. Spinning is no
/// scheduling point, so the thread cannot steal a queued task meanwhile.
fn hold_until(flag: &AtomicBool) {
    while !flag.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
}

/// Sets its flag when dropped. Thread 0 holds one for its whole body, so
/// the thread in [`hold_until`] is released when that body ends, even by a
/// panic or a failed assertion: the test then fails instead of hanging.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

#[test]
fn panic_at_first_barrier_arrival_reraises_bounded() {
    let _lock = global_lock();
    for backend in BACKENDS {
        let guard = faults::arm(FaultPlan::new(0xF001).panic_at(FaultSite::BarrierArrival, 1));
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_region(&cfg(backend, 4), |ctx| {
                // The first thread to arrive here panics; its 3 teammates
                // must not deadlock waiting for it.
                ctx.barrier();
            });
        }));
        let payload = result.expect_err("the injected fault must re-raise after the join");
        let fault = payload
            .downcast_ref::<InjectedFault>()
            .expect("payload must be the InjectedFault");
        assert_eq!(fault.site, FaultSite::BarrierArrival);
        assert_eq!(fault.occurrence, 1);
        assert!(start.elapsed() < HANG_LIMIT, "{backend:?}: region hung");
        drop(guard);
    }
}

#[test]
fn panic_at_the_implicit_end_barrier_is_caught() {
    // With an empty body the first barrier arrival IS the implicit region-end
    // barrier — the panic unwinds outside the body's catch_unwind and must
    // still poison the team rather than strand the teammates parked there.
    let _lock = global_lock();
    for backend in BACKENDS {
        let guard = faults::arm(FaultPlan::new(0xF002).panic_at(FaultSite::BarrierArrival, 1));
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_region(&cfg(backend, 4), |_ctx| {});
        }));
        let payload = result.expect_err("fault at the end barrier must re-raise");
        assert!(payload.downcast_ref::<InjectedFault>().is_some());
        assert!(start.elapsed() < HANG_LIMIT, "{backend:?}: region hung");
        drop(guard);
    }
}

#[test]
fn panic_inside_a_task_is_contained_then_reraised() {
    let _lock = global_lock();
    for backend in BACKENDS {
        let guard = faults::arm(FaultPlan::new(0xF003).panic_at(FaultSite::TaskExecute, 1));
        let executed = AtomicUsize::new(0);
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_region(&cfg(backend, 2), |ctx| {
                ctx.single(|| {
                    for _ in 0..4 {
                        ctx.task(|_| {
                            executed.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            });
        }));
        // The paper's rule: an exception never escapes a *running* task —
        // the region completes (later tasks may still run) and the panic
        // re-raises after the join.
        let payload = result.expect_err("task fault must re-raise after the join");
        let fault = payload
            .downcast_ref::<InjectedFault>()
            .expect("payload must be the InjectedFault");
        assert_eq!(fault.site, FaultSite::TaskExecute);
        assert!(executed.load(Ordering::SeqCst) < 4);
        assert!(start.elapsed() < HANG_LIMIT, "{backend:?}: region hung");
        drop(guard);
    }
}

#[test]
fn panic_at_a_chunk_claim_poisons_the_loop() {
    let _lock = global_lock();
    for backend in BACKENDS {
        let guard = faults::arm(FaultPlan::new(0xF004).panic_at(FaultSite::ChunkClaim, 5));
        let executed = AtomicUsize::new(0);
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_region(&cfg(backend, 2), |ctx| {
                ctx.for_each(
                    ForSpec::new().schedule(ScheduleKind::Dynamic, Some(1)),
                    0..100_000,
                    |_| {
                        executed.fetch_add(1, Ordering::SeqCst);
                    },
                );
            });
        }));
        let payload = result.expect_err("chunk-claim fault must re-raise");
        let fault = payload
            .downcast_ref::<InjectedFault>()
            .expect("payload must be the InjectedFault");
        assert_eq!(fault.site, FaultSite::ChunkClaim);
        // Poisoning cancels the region: the survivor stops claiming chunks.
        assert!(executed.load(Ordering::SeqCst) < 100_000);
        assert!(start.elapsed() < HANG_LIMIT, "{backend:?}: region hung");
        drop(guard);
    }
}

#[test]
fn cancel_for_stops_remaining_chunk_claims() {
    with_cancellation(|| {
        for backend in BACKENDS {
            let executed = AtomicUsize::new(0);
            parallel_region(&cfg(backend, 2), |ctx| {
                ctx.for_each(
                    ForSpec::new().schedule(ScheduleKind::Dynamic, Some(1)),
                    0..100_000,
                    |_| {
                        if executed.fetch_add(1, Ordering::SeqCst) + 1 >= 10 {
                            assert!(ctx.cancel("for"));
                        }
                    },
                );
                // The loop-end barrier still synchronizes the cancelled team.
            });
            let n = executed.load(Ordering::SeqCst);
            assert!(
                n >= 10,
                "{backend:?}: cancel fired before 10 iterations ({n})"
            );
            assert!(
                n < 1_000,
                "{backend:?}: cancel did not stop the claims ({n})"
            );
        }
    });
}

#[test]
fn cancel_is_inert_when_the_icv_is_disabled() {
    // OMP_CANCELLATION defaults to false: cancel is a no-op returning false.
    let _lock = global_lock();
    let executed = AtomicUsize::new(0);
    parallel_region(&cfg(Backend::Atomic, 2), |ctx| {
        ctx.for_each(
            ForSpec::new().schedule(ScheduleKind::Dynamic, Some(1)),
            0..1_000,
            |_| {
                executed.fetch_add(1, Ordering::SeqCst);
                assert!(!ctx.cancel("for"));
            },
        );
    });
    assert_eq!(executed.load(Ordering::SeqCst), 1_000);
}

#[test]
fn cancel_parallel_is_observed_at_cancellation_points() {
    with_cancellation(|| {
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
        }
    });
}

#[test]
fn cancel_taskgroup_discards_queued_tasks() {
    with_cancellation(|| {
        for backend in BACKENDS {
            let executed = AtomicUsize::new(0);
            let discarded = AtomicBool::new(false);
            // Two threads, so tasks are queued, not included. Thread 1 waits
            // on a flag in user code — no scheduling point, so it cannot
            // steal — until thread 0 has cancelled: the queued tasks are
            // discarded deterministically.
            parallel_region(&cfg(backend, 2), |ctx| {
                if ctx.thread_num() == 0 {
                    let _release = SetOnDrop(&discarded);
                    for _ in 0..8 {
                        ctx.task(|_| {
                            executed.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                    assert!(ctx.cancel("taskgroup"));
                } else {
                    hold_until(&discarded);
                }
            });
            assert_eq!(executed.load(Ordering::SeqCst), 0, "{backend:?}");
        }
    });
}

#[test]
fn sections_observe_cancellation() {
    with_cancellation(|| {
        for backend in BACKENDS {
            let ran = AtomicUsize::new(0);
            parallel_region(&cfg(backend, 1), |ctx| {
                // Section closures must be Sync, which WorkerCtx is not;
                // smuggle it as an address. Sound here: the team has one
                // thread, so the closure runs on the thread owning `ctx`,
                // within its lifetime.
                let ctx_addr = ctx as *const omp4rs::WorkerCtx as usize;
                let s0 = || {
                    ran.fetch_add(1, Ordering::SeqCst);
                    let ctx = unsafe { &*(ctx_addr as *const omp4rs::WorkerCtx) };
                    assert!(ctx.cancel("sections"));
                };
                let s1 = || {
                    ran.fetch_add(1, Ordering::SeqCst);
                };
                let s2 = s1;
                ctx.sections(false, &[&s0, &s1, &s2]);
            });
            // Section 0 cancels; a single-thread team must then skip the rest.
            assert_eq!(ran.load(Ordering::SeqCst), 1, "{backend:?}");
        }
    });
}

#[test]
fn tasks_submitted_by_one_thread_are_stolen_by_teammates() {
    // One producer loads its own deque; teammates waiting at the region-end
    // barrier must pull work from it. The profiler's task-steal counter is
    // the witness that cross-thread stealing actually happened. The task
    // count stays at the deque-capacity floor (8) so nothing spills into the
    // shared overflow bag — the only way a teammate gets work is stealing.
    let _lock = global_lock();
    for backend in BACKENDS {
        let session = omp4rs::ompt::session(omp4rs::ompt::ToolConfig::default());
        let executed = AtomicUsize::new(0);
        parallel_region(&cfg(backend, 4), |ctx| {
            ctx.single(|| {
                for _ in 0..8 {
                    ctx.task(|_| {
                        // Slow enough that the producer cannot drain its own
                        // deque before the thieves arrive.
                        std::thread::sleep(Duration::from_micros(500));
                        executed.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        });
        assert_eq!(executed.load(Ordering::SeqCst), 8, "{backend:?}");
        let events = omp4rs::ompt::events();
        let steals: u64 = omp4rs::ompt::aggregate(&events)
            .iter()
            .map(|m| m.task_steals)
            .sum();
        drop(session);
        assert!(steals > 0, "{backend:?}: no task was stolen (steals = 0)");
    }
}

#[test]
fn injected_panic_in_a_stolen_task_poisons_without_hanging() {
    // Panics must stay first-wins and bounded even when the failing task may
    // be executing on a thief's stack rather than its submitter's.
    let _lock = global_lock();
    for backend in BACKENDS {
        let guard = faults::arm(FaultPlan::new(0xF006).panic_at(FaultSite::TaskExecute, 10));
        let executed = AtomicUsize::new(0);
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_region(&cfg(backend, 4), |ctx| {
                ctx.single(|| {
                    for _ in 0..64 {
                        ctx.task(|_| {
                            std::thread::sleep(Duration::from_micros(100));
                            executed.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            });
        }));
        let payload = result.expect_err("the injected task fault must re-raise");
        let fault = payload
            .downcast_ref::<InjectedFault>()
            .expect("payload must be the InjectedFault");
        assert_eq!(fault.site, FaultSite::TaskExecute);
        assert!(
            executed.load(Ordering::SeqCst) < 64,
            "{backend:?}: poisoning must discard queued tasks"
        );
        assert!(start.elapsed() < HANG_LIMIT, "{backend:?}: region hung");
        drop(guard);
    }
}

#[test]
fn cancel_taskgroup_drains_loaded_deques_across_threads() {
    // Multi-thread version of the discard rule: cancellation must empty the
    // per-thread deques as well as the shared overflow bag.
    with_cancellation(|| {
        for backend in BACKENDS {
            let executed = AtomicUsize::new(0);
            let start = Instant::now();
            parallel_region(&cfg(backend, 4), |ctx| {
                ctx.single(|| {
                    for _ in 0..64 {
                        ctx.task(|_| {
                            std::thread::sleep(Duration::from_micros(100));
                            executed.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                    assert!(ctx.cancel("taskgroup"));
                });
            });
            // A few tasks may start before the cancel lands; the rest must
            // be discarded, not executed.
            assert!(
                executed.load(Ordering::SeqCst) < 64,
                "{backend:?}: cancel did not discard queued tasks"
            );
            assert!(start.elapsed() < HANG_LIMIT, "{backend:?}: region hung");
        }
    });
}

#[test]
fn delay_injection_slows_but_does_not_break() {
    let _lock = global_lock();
    let guard = faults::arm(FaultPlan::new(0xF005).delay_at(
        FaultSite::BarrierArrival,
        1,
        Duration::from_millis(50),
    ));
    let start = Instant::now();
    parallel_region(&cfg(Backend::Atomic, 2), |ctx| {
        ctx.barrier();
    });
    assert!(start.elapsed() >= Duration::from_millis(50));
    drop(guard);
}
