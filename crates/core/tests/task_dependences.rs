//! Task-dependence runtime, end to end: `depend(in/out/inout)` ordering
//! through real parallel regions, `priority(n)` observability, child-scoped
//! `taskwait`, `taskgroup` structured waits, and the failure paths —
//! cancellation, injected panics at the `dep-release` fault site, and region
//! deadlines — none of which may strand a held successor.
//!
//! Every test is bounded by `HANG_LIMIT`: the dependence graph's core
//! guarantee is that a released/cancelled/poisoned graph terminates.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use omp4rs::depgraph;
use omp4rs::exec::{parallel_region, parallel_region_result, DepSpec, ParallelConfig};
use omp4rs::faults::{self, FaultPlan, FaultSite};
use omp4rs::sync::Notifier;
use omp4rs::tasks::TaskQueue;
use omp4rs::{Backend, Dep, Icvs, InjectedFault, OmpError, TaskCtx};

const HANG_LIMIT: Duration = Duration::from_secs(30);
const BACKENDS: [Backend; 2] = [Backend::Mutex, Backend::Atomic];

fn cfg(backend: Backend, threads: usize) -> ParallelConfig {
    ParallelConfig::new().num_threads(threads).backend(backend)
}

/// Serialize every test in this binary: the `omp4rs.task.dep.*` counters and
/// fault-plan occurrence counts are process-global, so overlapping regions
/// would make the delta assertions nondeterministic.
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

/// Hold a team thread in user code until `flag` is set. Spinning is no
/// scheduling point, so the thread cannot steal a queued task meanwhile:
/// a two-thread team whose second thread waits here keeps its tasks
/// queued (a one-thread team would run each at once, included).
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

/// An `inout` chain on one storage key must serialize in submission order no
/// matter which threads execute the tasks — the deques' LIFO/steal order is
/// overridden by the graph.
#[test]
fn inout_chain_runs_in_submission_order_across_threads() {
    let _s = serial();
    for backend in BACKENDS {
        let order: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let start = Instant::now();
        parallel_region(&cfg(backend, 4), |ctx| {
            ctx.single(|| {
                for i in 0..16 {
                    let order = &order;
                    ctx.task_depend(DepSpec::new().inout(7), move |_| {
                        order.lock().unwrap().push(i);
                    });
                }
            });
        });
        assert!(start.elapsed() < HANG_LIMIT, "{backend:?}: region hung");
        let got = order.into_inner().unwrap();
        assert_eq!(got, (0..16).collect::<Vec<_>>(), "{backend:?}");
    }
}

/// Diamond: D(in b, in c) must observe both B(in a, out b) and C(in a,
/// out c), each of which must observe A(out a). The assertions run *inside*
/// the dependent tasks, so any mis-ordering fails deterministically.
#[test]
fn diamond_joins_both_branches() {
    let _s = serial();
    for backend in BACKENDS {
        let (a, b, c, d) = (
            AtomicBool::new(false),
            AtomicBool::new(false),
            AtomicBool::new(false),
            AtomicBool::new(false),
        );
        parallel_region(&cfg(backend, 4), |ctx| {
            ctx.single(|| {
                let (a, b, c, d) = (&a, &b, &c, &d);
                ctx.task_depend(DepSpec::new().output(1), move |_| {
                    a.store(true, Ordering::SeqCst);
                });
                ctx.task_depend(DepSpec::new().input(1).output(2), move |_| {
                    assert!(a.load(Ordering::SeqCst), "B ran before A");
                    b.store(true, Ordering::SeqCst);
                });
                ctx.task_depend(DepSpec::new().input(1).output(3), move |_| {
                    assert!(a.load(Ordering::SeqCst), "C ran before A");
                    c.store(true, Ordering::SeqCst);
                });
                ctx.task_depend(DepSpec::new().input(2).input(3), move |_| {
                    assert!(b.load(Ordering::SeqCst), "D ran before B");
                    assert!(c.load(Ordering::SeqCst), "D ran before C");
                    d.store(true, Ordering::SeqCst);
                });
            });
        });
        assert!(d.load(Ordering::SeqCst), "{backend:?}: D never ran");
    }
}

/// WAR/WAW: a writer after a set of readers waits for *all* of them; the
/// readers themselves only wait for the preceding writer.
#[test]
fn writer_waits_for_all_readers() {
    let _s = serial();
    for backend in BACKENDS {
        let value = AtomicUsize::new(0);
        let readers_done = AtomicUsize::new(0);
        parallel_region(&cfg(backend, 4), |ctx| {
            ctx.single(|| {
                let (value, readers_done) = (&value, &readers_done);
                ctx.task_depend(DepSpec::new().output(9), move |_| {
                    value.store(1, Ordering::SeqCst);
                });
                for _ in 0..4 {
                    ctx.task_depend(DepSpec::new().input(9), move |_| {
                        assert_eq!(value.load(Ordering::SeqCst), 1, "reader before writer");
                        readers_done.fetch_add(1, Ordering::SeqCst);
                    });
                }
                ctx.task_depend(DepSpec::new().output(9), move |_| {
                    assert_eq!(
                        readers_done.load(Ordering::SeqCst),
                        4,
                        "second writer overtook a reader"
                    );
                    value.store(2, Ordering::SeqCst);
                });
            });
        });
        assert_eq!(value.load(Ordering::SeqCst), 2, "{backend:?}");
    }
}

/// `priority(n)` must be *observable*, not merely accepted: with one thread
/// draining the queue, the deferred tasks run strictly in priority order
/// (ties in submission order is pinned by the unit tests). The second
/// thread is held in user code so it cannot take one out of turn.
#[test]
fn priority_order_is_observable_in_a_region() {
    let _s = serial();
    for backend in BACKENDS {
        let order: Mutex<Vec<i64>> = Mutex::new(Vec::new());
        let drained = AtomicBool::new(false);
        parallel_region(&cfg(backend, 2), |ctx| {
            if ctx.thread_num() != 0 {
                return hold_until(&drained);
            }
            let _release = SetOnDrop(&drained);
            for p in [1i64, 3, 2, 5, 4] {
                let order = &order;
                ctx.task_priority(p, move |_| {
                    order.lock().unwrap().push(p);
                });
            }
            while order.lock().unwrap().len() < 5 {
                ctx.taskyield();
            }
        });
        let got = order.into_inner().unwrap();
        assert_eq!(got, vec![5, 4, 3, 2, 1], "{backend:?}");
    }
}

/// `taskwait` waits on the *submitting task's children*, per spec — not the
/// whole queue. Regression pin: with one thread draining the queue (the
/// other held in user code), a sibling task queued before the parent must
/// still be pending when the parent's `taskwait` returns (the old behavior
/// drained the entire queue).
#[test]
fn taskwait_is_child_scoped_not_queue_wide() {
    let _s = serial();
    for backend in BACKENDS {
        let sibling_ran = AtomicBool::new(false);
        let child_ran = AtomicBool::new(false);
        let sibling_seen_at_taskwait = AtomicBool::new(true);
        let drained = AtomicBool::new(false);
        parallel_region(&cfg(backend, 2), |ctx| {
            if ctx.thread_num() != 0 {
                return hold_until(&drained);
            }
            let _release = SetOnDrop(&drained);
            let (sibling_ran, child_ran, seen) =
                (&sibling_ran, &child_ran, &sibling_seen_at_taskwait);
            // Sibling of the parent task below (both are children of the
            // implicit task), queued first.
            ctx.task(move |_| {
                sibling_ran.store(true, Ordering::SeqCst);
            });
            ctx.task(move |tc| {
                tc.task(move |_| {
                    child_ran.store(true, Ordering::SeqCst);
                });
                tc.taskwait();
                assert!(child_ran.load(Ordering::SeqCst), "taskwait skipped a child");
                seen.store(sibling_ran.load(Ordering::SeqCst), Ordering::SeqCst);
            });
            // The own deque pops LIFO: the parent task runs first.
            while !sibling_ran.load(Ordering::SeqCst) {
                ctx.taskyield();
            }
        });
        assert!(sibling_ran.load(Ordering::SeqCst), "{backend:?}");
        assert!(
            !sibling_seen_at_taskwait.load(Ordering::SeqCst),
            "{backend:?}: taskwait drained an unrelated sibling task \
             (queue-wide wait regression)"
        );
    }
}

/// `taskgroup` waits for members *and* their transitive descendants — even
/// when a member is stolen and spawns its nested task on another thread.
#[test]
fn taskgroup_waits_for_transitive_descendants() {
    let _s = serial();
    for backend in BACKENDS {
        let done = AtomicUsize::new(0);
        parallel_region(&cfg(backend, 4), |ctx| {
            ctx.single(|| {
                let done = &done;
                ctx.taskgroup(|| {
                    for _ in 0..4 {
                        ctx.task(move |tc| {
                            done.fetch_add(1, Ordering::SeqCst);
                            tc.task(move |_| {
                                done.fetch_add(1, Ordering::SeqCst);
                            });
                        });
                    }
                });
                // The structured wait: all 4 members + 4 nested descendants.
                assert_eq!(done.load(Ordering::SeqCst), 8, "{backend:?}");
            });
        });
    }
}

/// Dependence-held tasks inside a taskgroup still count as members, and the
/// group's end-wait sees them complete.
#[test]
fn taskgroup_covers_dependence_held_members() {
    let _s = serial();
    for backend in BACKENDS {
        let done = AtomicUsize::new(0);
        parallel_region(&cfg(backend, 2), |ctx| {
            ctx.single(|| {
                let done = &done;
                ctx.taskgroup(|| {
                    for _ in 0..6 {
                        ctx.task_depend(DepSpec::new().inout(42), move |_| {
                            done.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
                assert_eq!(done.load(Ordering::SeqCst), 6, "{backend:?}");
            });
        });
    }
}

/// `cancel taskgroup` inside the group discards queued members (including
/// dependence-held ones) and the end-wait returns — bounded, with every
/// deferred task accounted as released.
#[test]
fn cancel_inside_taskgroup_releases_held_members() {
    let _s = serial();
    with_icvs(
        |icvs| icvs.cancellation = true,
        || {
            for backend in BACKENDS {
                let before = depgraph::counters();
                let executed = AtomicUsize::new(0);
                let discarded = AtomicBool::new(false);
                let start = Instant::now();
                parallel_region(&cfg(backend, 2), |ctx| {
                    if ctx.thread_num() != 0 {
                        return hold_until(&discarded);
                    }
                    let _release = SetOnDrop(&discarded);
                    let executed = &executed;
                    ctx.taskgroup(|| {
                        for _ in 0..8 {
                            ctx.task_depend(DepSpec::new().inout(5), move |_| {
                                executed.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                        // Thread 1 is held: everything is still queued/held.
                        assert!(ctx.cancel("taskgroup"));
                    });
                });
                assert_eq!(
                    executed.load(Ordering::SeqCst),
                    0,
                    "{backend:?}: cancel must discard held members"
                );
                assert!(start.elapsed() < HANG_LIMIT, "{backend:?}: hung");
                let after = depgraph::counters();
                assert_eq!(
                    after.deferred - before.deferred,
                    after.released - before.released,
                    "{backend:?}: a cancelled graph stranded a held task"
                );
            }
        },
    );
}

/// A panicking member poisons the region without hanging the group's
/// structured wait; the panic re-raises after the join.
#[test]
fn panic_in_taskgroup_member_reraises_bounded() {
    let _s = serial();
    for backend in BACKENDS {
        let guard = faults::arm(FaultPlan::new(0xD0A1).panic_at(FaultSite::TaskExecute, 1));
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_region(&cfg(backend, 2), |ctx| {
                ctx.single(|| {
                    ctx.taskgroup(|| {
                        for _ in 0..4 {
                            ctx.task(|_| {});
                        }
                    });
                });
            });
        }));
        let payload = result.expect_err("member fault must re-raise after the join");
        let fault = payload
            .downcast_ref::<InjectedFault>()
            .expect("payload must be the InjectedFault");
        assert_eq!(fault.site, FaultSite::TaskExecute);
        assert!(start.elapsed() < HANG_LIMIT, "{backend:?}: region hung");
        drop(guard);
    }
}

/// A region deadline tripping while a taskgroup is in flight converts the
/// stall into a typed `RegionTimeout` instead of a hang. The stalling member
/// self-releases after ~2s (far past the deadline, far under `HANG_LIMIT`),
/// so a broken deadline path fails fast rather than hanging the suite.
#[test]
fn deadline_trips_during_taskgroup_wait() {
    let _s = serial();
    with_icvs(
        |icvs| icvs.region_deadline = Some(Duration::from_millis(250)),
        || {
            let start = Instant::now();
            let result = parallel_region_result(&cfg(Backend::Atomic, 2), |ctx| {
                ctx.single(|| {
                    ctx.taskgroup(|| {
                        ctx.task(|_| {
                            // Stall well past the deadline, bounded.
                            let t0 = Instant::now();
                            while t0.elapsed() < Duration::from_secs(2) {
                                std::thread::sleep(Duration::from_millis(10));
                            }
                        });
                    });
                });
            });
            assert!(start.elapsed() < HANG_LIMIT, "deadline must bound the wait");
            match result {
                Err(OmpError::RegionTimeout { waited, .. }) => {
                    assert!(waited >= Duration::from_millis(250));
                }
                other => panic!("expected RegionTimeout, got {other:?}"),
            }
        },
    );
}

/// The `dep-release` fault site: an injected panic while handing a released
/// task back to the scheduler discards that successor — whose own retirement
/// cascades the release to *its* successors — and re-raises after the join.
/// No held task may be stranded.
#[test]
fn dep_release_fault_discards_successor_and_cascades() {
    let _s = serial();
    let before = depgraph::counters();
    let guard = faults::arm(FaultPlan::new(0xDE97).panic_at(FaultSite::DepRelease, 1));
    let (a_ran, b_ran, c_ran) = (
        AtomicBool::new(false),
        AtomicBool::new(false),
        AtomicBool::new(false),
    );
    let drained = AtomicBool::new(false);
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        parallel_region(&cfg(Backend::Atomic, 2), |ctx| {
            if ctx.thread_num() != 0 {
                return hold_until(&drained);
            }
            let _release = SetOnDrop(&drained);
            let (a_ran, b_ran, c_ran) = (&a_ran, &b_ran, &c_ran);
            ctx.task_depend(DepSpec::new().inout(11), move |_| {
                a_ran.store(true, Ordering::SeqCst);
            });
            ctx.task_depend(DepSpec::new().inout(11), move |_| {
                b_ran.store(true, Ordering::SeqCst);
            });
            ctx.task_depend(DepSpec::new().inout(11), move |_| {
                c_ran.store(true, Ordering::SeqCst);
            });
            // Runs A inline, whose faulted release discards B and releases
            // C, which runs next.
            ctx.taskwait();
        });
    }));
    let payload = result.expect_err("the dep-release fault must re-raise");
    let fault = payload
        .downcast_ref::<InjectedFault>()
        .expect("payload must be the InjectedFault");
    assert_eq!(fault.site, FaultSite::DepRelease);
    assert!(a_ran.load(Ordering::SeqCst), "predecessor must have run");
    assert!(
        !b_ran.load(Ordering::SeqCst),
        "the faulted release must discard its task"
    );
    assert!(
        c_ran.load(Ordering::SeqCst),
        "discarding B must release C, not strand it"
    );
    assert!(start.elapsed() < HANG_LIMIT, "region hung");
    drop(guard);
    let after = depgraph::counters();
    assert_eq!(after.deferred - before.deferred, 2, "B and C were held");
    assert_eq!(
        after.deferred - before.deferred,
        after.released - before.released,
        "a faulted release path stranded a successor"
    );
    assert_eq!(after.edges - before.edges, 2, "A→B and B→C");
}

/// The calling thread's team queue's outstanding count.
fn outstanding() -> usize {
    omp4rs::context::current_frame()
        .expect("inside a region")
        .team
        .tasks()
        .outstanding()
}

/// In a one-thread team with nothing outstanding a task is *included*: it
/// has run when `task` or `task_depend` returns, it is never counted
/// outstanding, and it never enters the dependence graph.
#[test]
fn one_thread_team_runs_its_tasks_included() {
    let _s = serial();
    for backend in BACKENDS {
        let before = depgraph::counters();
        let ran = AtomicUsize::new(0);
        parallel_region(&cfg(backend, 1), |ctx| {
            let ran = &ran;
            for i in 0..8 {
                ctx.task(move |_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
                assert_eq!(ran.load(Ordering::SeqCst), 2 * i + 1, "task ran at once");
                ctx.task_depend(DepSpec::new().inout(3).input(4), move |tc| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    tc.task(|_| {});
                    assert_eq!(outstanding(), 0, "a nested task is included too");
                });
                assert_eq!(
                    ran.load(Ordering::SeqCst),
                    2 * i + 2,
                    "task_depend ran at once"
                );
                assert_eq!(outstanding(), 0, "{backend:?}");
            }
        });
        assert_eq!(
            depgraph::counters(),
            before,
            "{backend:?}: an included task touched the dependence graph"
        );
    }
}

/// One link of a self-spawning chain: counts itself, records the queue's
/// outstanding count, and spawns the next link.
fn chain_link<'s>(tc: &TaskCtx<'s>, left: usize, ran: &'s AtomicUsize, queued: &'s AtomicUsize) {
    ran.fetch_add(1, Ordering::Relaxed);
    queued.fetch_max(outstanding(), Ordering::Relaxed);
    if left > 0 {
        tc.task(move |tc| chain_link(tc, left - 1, ran, queued));
    }
}

/// Included tasks nest on the creating thread's stack, so inclusion stops
/// at the inline-depth limit: a 100k-deep self-spawning chain at T = 1
/// runs on a 1 MiB stack because the links past the limit are queued and
/// run from the queue. An inclusion rule without the depth check overflows.
#[test]
fn deep_self_spawning_chain_defers_past_the_depth_limit() {
    const N: usize = 100_000;
    let _s = serial();
    for backend in BACKENDS {
        let (ran, queued) = (AtomicUsize::new(0), AtomicUsize::new(0));
        std::thread::scope(|s| {
            std::thread::Builder::new()
                .stack_size(1 << 20)
                .spawn_scoped(s, || {
                    parallel_region(&cfg(backend, 1), |ctx| {
                        let (ran, queued) = (&ran, &queued);
                        ctx.task(move |tc| chain_link(tc, N - 1, ran, queued));
                    });
                })
                .expect("spawn");
        });
        assert_eq!(ran.load(Ordering::Relaxed), N, "{backend:?}");
        assert!(
            queued.load(Ordering::Relaxed) > 0,
            "{backend:?}: no link was queued past the depth limit"
        );
    }
}

/// A panicking included task is captured like a queued one: the region
/// goes on, later tasks run, and the panic re-raises after the join.
#[test]
fn included_task_panic_reraises_after_the_join() {
    let _s = serial();
    for backend in BACKENDS {
        let later_ran = AtomicBool::new(false);
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_region(&cfg(backend, 1), |ctx| {
                ctx.task(|_| panic!("included task failed"));
                ctx.task(|_| later_ran.store(true, Ordering::SeqCst));
            });
        }));
        let payload = result.expect_err("the task panic must re-raise");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"included task failed"),
            "{backend:?}"
        );
        assert!(
            later_ran.load(Ordering::SeqCst),
            "{backend:?}: later task skipped"
        );
    }
}

/// A cancelled queue includes nothing: after `cancel taskgroup` in a
/// one-thread team, later tasks are discarded, not run.
#[test]
fn cancelled_one_thread_team_runs_no_later_task() {
    let _s = serial();
    with_icvs(
        |icvs| icvs.cancellation = true,
        || {
            for backend in BACKENDS {
                let (before, after) = (AtomicUsize::new(0), AtomicUsize::new(0));
                parallel_region(&cfg(backend, 1), |ctx| {
                    ctx.task(|_| {
                        before.fetch_add(1, Ordering::SeqCst);
                    });
                    assert!(ctx.cancel("taskgroup"));
                    ctx.task(|_| {
                        after.fetch_add(1, Ordering::SeqCst);
                    });
                    ctx.task_depend(DepSpec::new().inout(1), |_| {
                        after.fetch_add(1, Ordering::SeqCst);
                    });
                });
                assert_eq!(before.load(Ordering::SeqCst), 1, "{backend:?}");
                assert_eq!(after.load(Ordering::SeqCst), 0, "{backend:?}");
            }
        },
    );
}

/// A writer of key 9 that, while every writer so far has run at once,
/// nests one more below itself. The first writer that the inline-depth
/// limit queues instead of running ends the nesting: it runs later, from
/// the queue, and only that one sets `written`.
fn nested_writer<'s>(tc: &TaskCtx<'s>, queued: &'s AtomicBool, written: &'s AtomicBool) {
    tc.task_depend(DepSpec::new().output(9), move |tc| {
        if queued.load(Ordering::SeqCst) {
            written.store(true, Ordering::SeqCst);
        } else {
            nested_writer(tc, queued, written);
        }
    });
    if outstanding() > 0 {
        queued.store(true, Ordering::SeqCst);
    }
}

/// Inclusion needs *every* earlier task completed. A `depend` task created
/// while an earlier one is still queued (here a writer created past the
/// inline-depth limit, under nested included writers) goes through the
/// dependence graph and runs after it, even in a one-thread team.
#[test]
fn depend_task_after_a_queued_task_is_still_ordered() {
    let _s = serial();
    for backend in BACKENDS {
        let (queued, written) = (AtomicBool::new(false), AtomicBool::new(false));
        let read_after_write = AtomicBool::new(false);
        parallel_region(&cfg(backend, 1), |ctx| {
            let (queued, written, read_after_write) = (&queued, &written, &read_after_write);
            ctx.task(move |tc| nested_writer(tc, queued, written));
            assert!(queued.load(Ordering::SeqCst), "no writer was queued");
            assert!(
                !written.load(Ordering::SeqCst),
                "the writer is still queued"
            );
            assert_eq!(outstanding(), 1, "the writer is queued");
            ctx.task_depend(DepSpec::new().input(9), move |_| {
                read_after_write.store(written.load(Ordering::SeqCst), Ordering::SeqCst);
            });
        });
        assert!(written.load(Ordering::SeqCst), "{backend:?}");
        assert!(
            read_after_write.load(Ordering::SeqCst),
            "{backend:?}: the reader overtook a queued writer"
        );
    }
}

/// Run `body` in a one-thread region whose waits are bounded by a region
/// deadline, so a wait that nothing can satisfy fails as a typed
/// `RegionTimeout` instead of hanging.
fn one_thread_bounded<'env>(backend: Backend, body: impl Fn(&omp4rs::WorkerCtx<'env>) + Sync) {
    with_icvs(
        |icvs| icvs.region_deadline = Some(HANG_LIMIT / 3),
        || {
            let start = Instant::now();
            let result = parallel_region_result(&cfg(backend, 1), body);
            assert!(start.elapsed() < HANG_LIMIT, "{backend:?}: region hung");
            result.unwrap_or_else(|e| panic!("{backend:?}: {e:?}"));
        },
    );
}

/// One link of a fire-and-forget chain: opens a taskgroup with one member
/// task and checks that the member ran, then spawns the next link.
fn group_link<'s>(tc: &TaskCtx<'s>, left: usize, links: &'s AtomicUsize) {
    let member_ran = Arc::new(AtomicBool::new(false));
    let m = Arc::clone(&member_ran);
    tc.taskgroup(|| tc.task(move |_| m.store(true, Ordering::SeqCst)));
    assert!(member_ran.load(Ordering::SeqCst), "taskgroup left a member");
    links.fetch_add(1, Ordering::SeqCst);
    if left > 0 {
        tc.task(move |tc| group_link(tc, left - 1, links));
    }
}

/// Links past the inline-depth limit queue their taskgroup member, and a
/// one-thread team has no shallower thread to run it: the taskgroup's own
/// wait must run it from the queue, at any depth.
#[test]
fn deep_taskgroup_in_a_one_thread_team_completes() {
    let _s = serial();
    for backend in BACKENDS {
        let links = AtomicUsize::new(0);
        one_thread_bounded(backend, |ctx| {
            let links = &links;
            ctx.task(move |tc| group_link(tc, 29, links));
        });
        assert_eq!(links.load(Ordering::SeqCst), 30, "{backend:?}");
    }
}

/// One link of a fire-and-forget chain: creates a writer of key 5, then an
/// undeferred (`if(false)`) reader of it, which checks that the writer ran
/// first; then spawns the next link. Past the inline-depth limit the
/// writer is queued and the reader held on it.
fn undeferred_reader_link<'s>(tc: &TaskCtx<'s>, left: usize, links: &'s AtomicUsize) {
    let wrote = Arc::new(AtomicBool::new(false));
    let (w, r) = (Arc::clone(&wrote), Arc::clone(&wrote));
    tc.task_depend(DepSpec::new().output(5), move |_| {
        w.store(true, Ordering::SeqCst);
    });
    let team = Arc::clone(&omp4rs::context::current_frame().expect("in a task").team);
    let read = Arc::new(AtomicBool::new(false));
    let seen = Arc::clone(&read);
    team.submit_task_ex(
        move || seen.store(r.load(Ordering::SeqCst), Ordering::SeqCst),
        false,
        0,
        &[Dep::input(5)],
    );
    assert!(
        read.load(Ordering::SeqCst),
        "the undeferred reader overtook its writer"
    );
    links.fetch_add(1, Ordering::SeqCst);
    if left > 0 {
        tc.task(move |tc| undeferred_reader_link(tc, left - 1, links));
    }
}

/// Nest `depth` `if(false)` tasks, then run `f` in the innermost.
fn under_if_false<'s, F>(tc: &TaskCtx<'s>, depth: usize, f: F)
where
    F: FnOnce(&TaskCtx<'s>) + Send + 's,
{
    if depth == 0 {
        return f(tc);
    }
    tc.task_if(false, move |tc| under_if_false(tc, depth - 1, f));
}

/// `if(false)` tasks run on the creating thread whatever the depth, so they
/// do not count toward the inline-depth limit: 30 of them nested still let
/// a task be included. Below them, an undeferred `depend` task held on a
/// writer queued past the limit is waited for by running that writer from
/// the queue, which a one-thread team must do at any depth.
#[test]
fn undeferred_depend_wait_in_a_one_thread_team_completes() {
    let _s = serial();
    for backend in BACKENDS {
        let links = AtomicUsize::new(0);
        one_thread_bounded(backend, |ctx| {
            let links = &links;
            ctx.task_if(false, move |tc| {
                under_if_false(tc, 29, move |tc| {
                    let ran = Arc::new(AtomicBool::new(false));
                    let r = Arc::clone(&ran);
                    tc.task(move |_| r.store(true, Ordering::SeqCst));
                    assert!(
                        ran.load(Ordering::SeqCst),
                        "if(false) nesting used up the depth"
                    );
                    tc.task(move |tc| undeferred_reader_link(tc, 29, links));
                });
            });
        });
        assert_eq!(links.load(Ordering::SeqCst), 30, "{backend:?}");
    }
}

/// A team task queue with `threads` steal deques, driven by hand: the
/// bypass tests below observe exactly which call runs which task.
fn queue(backend: Backend, threads: usize) -> Arc<TaskQueue> {
    Arc::new(TaskQueue::with_threads(
        backend,
        Arc::new(Notifier::new()),
        threads,
    ))
}

/// Immediate-successor bypass: the thread that retires a chain link runs
/// the released successor itself. A 100k-task `inout` chain runs in
/// submission order on threads with 1 MiB stacks, which a bypass that
/// recursed per successor would overflow. At T = 1 nothing is stolen.
#[test]
fn long_inout_chain_bypasses_in_constant_stack() {
    const N: usize = 100_000;
    let _s = serial();
    for backend in BACKENDS {
        for threads in [1, 2] {
            let q = queue(backend, threads);
            let order = Arc::new(Mutex::new(Vec::with_capacity(N)));
            for i in 0..N {
                let order = Arc::clone(&order);
                q.submit_depend(
                    Box::new(move || order.lock().unwrap().push(i)),
                    Some(0),
                    0,
                    &[Dep::inout(5)],
                );
            }
            assert_eq!(q.dep_held(), N - 1, "everything after the head is held");
            let start = Instant::now();
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let q = Arc::clone(&q);
                    std::thread::Builder::new()
                        .stack_size(1 << 20)
                        .spawn(move || {
                            while q.outstanding() > 0 && start.elapsed() < HANG_LIMIT {
                                if !q.run_one_from(Some(t)) {
                                    std::thread::yield_now();
                                }
                            }
                        })
                        .unwrap()
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
            let ctx = format!("{backend:?} T={threads}");
            assert!(start.elapsed() < HANG_LIMIT, "{ctx}: chain hung");
            assert_eq!(q.outstanding(), 0, "{ctx}");
            let order = order.lock().unwrap();
            assert!(
                order.iter().copied().eq(0..N),
                "{ctx}: chain ran out of submission order"
            );
            if threads == 1 {
                assert_eq!(q.steals(), 0, "{ctx}: one thread has no one to steal from");
            }
        }
    }
}

/// The bypass only takes priority-0 successors: released successors that
/// carry `priority(n)` go through the heap and run highest first, after
/// the retiring call returns.
#[test]
fn prioritized_successors_go_through_the_heap() {
    let _s = serial();
    for backend in BACKENDS {
        let q = queue(backend, 1);
        let order = Arc::new(Mutex::new(Vec::new()));
        for (label, priority, dep) in [
            ("a", 0, Dep::output(3)),
            ("b1", 1, Dep::input(3)),
            ("b3", 3, Dep::input(3)),
        ] {
            let order = Arc::clone(&order);
            q.submit_depend(
                Box::new(move || order.lock().unwrap().push(label)),
                Some(0),
                priority,
                &[dep],
            );
        }
        assert_eq!(q.dep_held(), 2);
        assert!(q.run_one_from(Some(0)));
        assert_eq!(
            *order.lock().unwrap(),
            ["a"],
            "{backend:?}: a prioritized successor was bypassed"
        );
        while q.run_one_from(Some(0)) {}
        assert_eq!(
            *order.lock().unwrap(),
            ["a", "b3", "b1"],
            "{backend:?}: released successors must drain in heap order"
        );
    }
}

/// The `dep-release` fault site covers releases made inside the bypass
/// loop. Chain A→B→C→D, one thread, one `run_one_from` call: A releases B
/// (event 1) and B runs next; B releases C (event 2, injected panic), so C
/// is discarded and its retirement releases D (event 3), which runs.
#[test]
fn dep_release_fault_inside_the_bypass_loop_cascades() {
    let _s = serial();
    let before = depgraph::counters();
    let guard = faults::arm(FaultPlan::new(0xB7A5).panic_at(FaultSite::DepRelease, 2));
    let q = queue(Backend::Atomic, 1);
    let ran: Arc<[AtomicBool; 4]> = Arc::new(Default::default());
    for i in 0..4 {
        let ran = Arc::clone(&ran);
        q.submit_depend(
            Box::new(move || ran[i].store(true, Ordering::SeqCst)),
            Some(0),
            0,
            &[Dep::inout(21)],
        );
    }
    let start = Instant::now();
    assert!(q.run_one_from(Some(0)));
    let ran: Vec<bool> = ran.iter().map(|r| r.load(Ordering::SeqCst)).collect();
    assert_eq!(
        ran,
        [true, true, false, true],
        "B runs in the bypass loop, C is discarded, D is released by the discard"
    );
    let payload = q
        .take_panic()
        .expect("the injected release fault is recorded");
    let fault = payload
        .downcast_ref::<InjectedFault>()
        .expect("payload must be the InjectedFault");
    assert_eq!(fault.site, FaultSite::DepRelease);
    assert!(!q.run_one_from(Some(0)), "nothing left to run");
    assert_eq!(q.outstanding(), 0);
    assert!(start.elapsed() < HANG_LIMIT, "chain hung");
    drop(guard);
    let after = depgraph::counters();
    assert_eq!(after.deferred - before.deferred, 3, "B, C and D were held");
    assert_eq!(
        after.deferred - before.deferred,
        after.released - before.released,
        "a faulted release in the bypass loop stranded a successor"
    );
}

/// Seeded chaos: random dependence graphs inside taskgroups with
/// cancellation on odd seeds and injected dep-release/task-execute panics on
/// selected seeds. Invariants: every region terminates under `HANG_LIMIT`
/// with a typed error (or success), and the global accounting holds —
/// deferred == released, no stranded successors.
#[test]
fn chaos_dependence_graphs_terminate_with_accounting() {
    let _s = serial();
    with_icvs(
        |icvs| icvs.cancellation = true,
        || {
            for seed in 0u64..6 {
                let fault_guard = match seed {
                    2 => Some(faults::arm(
                        FaultPlan::new(0xC0DE + seed).panic_at(FaultSite::DepRelease, 2),
                    )),
                    4 => Some(faults::arm(
                        FaultPlan::new(0xC0DE + seed).panic_at(FaultSite::TaskExecute, 3),
                    )),
                    _ => None,
                };
                let before = depgraph::counters();
                let executed = AtomicUsize::new(0);
                let start = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| {
                    parallel_region(&cfg(Backend::Atomic, 4), |ctx| {
                        ctx.single(|| {
                            let executed = &executed;
                            ctx.taskgroup(|| {
                                // Deterministic LCG over a handful of keys.
                                let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                                let mut next = || {
                                    state = state
                                        .wrapping_mul(6364136223846793005)
                                        .wrapping_add(1442695040888963407);
                                    state >> 33
                                };
                                for i in 0..24 {
                                    let key = next() % 4;
                                    let spec = match next() % 3 {
                                        0 => DepSpec::new().input(key),
                                        1 => DepSpec::new().output(key),
                                        _ => DepSpec::new().inout(key),
                                    };
                                    let spec = spec.priority((next() % 3) as i64);
                                    ctx.task_depend(spec, move |_| {
                                        executed.fetch_add(1, Ordering::SeqCst);
                                    });
                                    if seed % 2 == 1 && i == 12 {
                                        assert!(ctx.cancel("taskgroup"));
                                    }
                                }
                            });
                        });
                    });
                }));
                assert!(
                    start.elapsed() < HANG_LIMIT,
                    "seed {seed}: chaos region hung"
                );
                // Faulted seeds re-raise the injected panic; cancelled and
                // clean seeds complete. Either way the graph must drain.
                if let Err(payload) = result {
                    assert!(
                        payload.downcast_ref::<InjectedFault>().is_some(),
                        "seed {seed}: unexpected panic payload"
                    );
                }
                drop(fault_guard);
                let after = depgraph::counters();
                assert_eq!(
                    after.deferred - before.deferred,
                    after.released - before.released,
                    "seed {seed}: a held task was stranded"
                );
            }
        },
    );
}

/// Insert-vs-retire race: on a wavefront DAG (2×`in` + `out` per task) fed
/// by one producer, a predecessor often retires while its successor is
/// still linking — the window the record's atomic pending count opens.
/// Each body checks that both predecessors finished before it started;
/// every round must finish under the region deadline and release exactly
/// what it held.
#[test]
fn wavefront_insert_retire_race_keeps_order_and_accounting() {
    const N: usize = 12;
    const ROUNDS: usize = 100;
    let _s = serial();
    // Cell (i, j) writes key(i + 1, j + 1) and reads its upper and left
    // neighbours; row and column 0 are border keys nobody writes.
    let key = |i: usize, j: usize| ((i as u64) << 32) | j as u64;
    with_icvs(
        |icvs| icvs.region_deadline = Some(Duration::from_secs(10)),
        || {
            for threads in [2, 4] {
                for round in 0..ROUNDS {
                    let backend = BACKENDS[round % 2];
                    let done: Vec<AtomicBool> =
                        (0..N * N).map(|_| AtomicBool::new(false)).collect();
                    let before = depgraph::counters();
                    let result = parallel_region_result(&cfg(backend, threads), |ctx| {
                        ctx.single(|| {
                            for i in 0..N {
                                for j in 0..N {
                                    let done = &done;
                                    let spec = DepSpec::new()
                                        .input(key(i, j + 1))
                                        .input(key(i + 1, j))
                                        .output(key(i + 1, j + 1));
                                    ctx.task_depend(spec, move |_| {
                                        if i > 0 {
                                            assert!(
                                                done[(i - 1) * N + j].load(Ordering::Acquire),
                                                "({i},{j}) ran before its upper neighbour"
                                            );
                                        }
                                        if j > 0 {
                                            assert!(
                                                done[i * N + j - 1].load(Ordering::Acquire),
                                                "({i},{j}) ran before its left neighbour"
                                            );
                                        }
                                        // A few hundred ns of work, so retires
                                        // overlap the producer's inserts.
                                        let t0 = Instant::now();
                                        while t0.elapsed() < Duration::from_nanos(300) {
                                            std::hint::spin_loop();
                                        }
                                        done[i * N + j].store(true, Ordering::Release);
                                    });
                                }
                            }
                        });
                    });
                    let ctx = format!("{backend:?} T={threads} round {round}");
                    assert!(result.is_ok(), "{ctx}: {:?}", result.err());
                    assert!(
                        done.iter().all(|d| d.load(Ordering::Acquire)),
                        "{ctx}: a task never ran"
                    );
                    let after = depgraph::counters();
                    assert_eq!(
                        after.deferred - before.deferred,
                        after.released - before.released,
                        "{ctx}: a held task was stranded"
                    );
                }
            }
        },
    );
}

/// Counts one task body's runs and drops.
#[derive(Default)]
struct BodyProbe {
    runs: AtomicUsize,
    drops: AtomicUsize,
}

impl BodyProbe {
    fn counts(&self) -> (usize, usize) {
        (
            self.runs.load(Ordering::SeqCst),
            self.drops.load(Ordering::SeqCst),
        )
    }
}

/// Dropped with the closure that owns it: when the body returns, unwinds,
/// or is dropped unrun.
struct DropCount(Arc<BodyProbe>);

impl Drop for DropCount {
    fn drop(&mut self) {
        self.0.drops.fetch_add(1, Ordering::SeqCst);
    }
}

/// A task body that counts its run and its drop, and panics if `panics`.
fn probed_body(probe: &Arc<BodyProbe>, panics: bool) -> impl FnOnce() + Send + 'static {
    let guard = DropCount(Arc::clone(probe));
    move || {
        guard.0.runs.fetch_add(1, Ordering::SeqCst);
        if panics {
            panic!("probed body panics");
        }
    }
}

/// The claim is the node's state CAS and the closure lives inline in the
/// node: on every path a body is run at most once and dropped exactly once
/// — run, panicked, discarded by `cancel` while queued, cancelled while
/// held on a predecessor, and dropped unrun together with its queue (the
/// node's drop retires it, so its held successor is discarded, not
/// stranded).
#[test]
fn task_bodies_run_at_most_once_and_drop_exactly_once() {
    let _s = serial();
    for backend in BACKENDS {
        let probe = || Arc::new(BodyProbe::default());

        let (ran, panicked) = (probe(), probe());
        let q = queue(backend, 1);
        q.submit_depend(probed_body(&ran, false), Some(0), 0, &[]);
        q.submit_depend(probed_body(&panicked, true), Some(0), 0, &[]);
        while q.run_one_from(Some(0)) {}
        assert!(q.take_panic().is_some(), "{backend:?}: panic recorded");
        assert_eq!(ran.counts(), (1, 1), "{backend:?}: ran");
        assert_eq!(panicked.counts(), (1, 1), "{backend:?}: panicked");

        let (queued, pred, held) = (probe(), probe(), probe());
        let q = queue(backend, 1);
        let queued_node = q.submit_depend(probed_body(&queued, false), Some(0), 0, &[]);
        q.submit_depend(probed_body(&pred, false), Some(0), 0, &[Dep::output(41)]);
        let held_node = q.submit_depend(probed_body(&held, false), Some(0), 0, &[Dep::inout(41)]);
        assert_eq!(q.dep_held(), 1);
        q.cancel();
        assert!(queued_node.is_done() && held_node.is_done(), "{backend:?}");
        assert_eq!(
            queued.counts(),
            (0, 1),
            "{backend:?}: discarded while queued"
        );
        assert_eq!(pred.counts(), (0, 1), "{backend:?}: predecessor discarded");
        assert_eq!(held.counts(), (0, 1), "{backend:?}: cancelled while held");

        let (first, second) = (probe(), probe());
        let q = queue(backend, 1);
        q.submit_depend(probed_body(&first, false), Some(0), 0, &[Dep::output(42)]);
        let second_node =
            q.submit_depend(probed_body(&second, false), Some(0), 0, &[Dep::inout(42)]);
        assert_eq!(first.counts(), (0, 0));
        drop(q);
        assert_eq!(
            first.counts(),
            (0, 1),
            "{backend:?}: dropped with its queue"
        );
        assert_eq!(second.counts(), (0, 1), "{backend:?}: successor discarded");
        assert!(second_node.is_done(), "{backend:?}: successor completed");
    }
}

/// The claim race: thread 0 submits a task and at once `taskwait`s, which
/// claims its child inline, while thread 1 keeps stealing from thread 0's
/// deque. Each of the 10k nodes has exactly one executor, and every body is
/// dropped exactly once.
#[test]
fn taskwait_inline_claim_races_a_thief() {
    const NODES: usize = 10_000;
    let _s = serial();
    for backend in BACKENDS {
        let runs: Vec<AtomicUsize> = (0..NODES).map(|_| AtomicUsize::new(0)).collect();
        let drops = Arc::new(BodyProbe::default());
        let done = AtomicBool::new(false);
        let stolen = AtomicUsize::new(0);
        let stolen = &stolen;
        let start = Instant::now();
        parallel_region(&cfg(backend, 2), |ctx| {
            if ctx.thread_num() == 0 {
                for run in &runs {
                    let guard = DropCount(Arc::clone(&drops));
                    ctx.task(move |tc| {
                        let _guard = guard;
                        run.fetch_add(1, Ordering::SeqCst);
                        if tc.thread_num() == 1 {
                            stolen.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                    ctx.taskwait();
                }
                done.store(true, Ordering::SeqCst);
            } else {
                while !done.load(Ordering::SeqCst) && start.elapsed() < HANG_LIMIT {
                    ctx.taskyield();
                }
            }
        });
        assert!(start.elapsed() < HANG_LIMIT, "{backend:?}: region hung");
        let twice = runs
            .iter()
            .filter(|r| r.load(Ordering::SeqCst) != 1)
            .count();
        assert_eq!(twice, 0, "{backend:?}: nodes not run exactly once");
        assert_eq!(drops.counts(), (0, NODES), "{backend:?}: drops");
        println!(
            "{backend:?}: thief ran {} of {NODES}",
            stolen.load(Ordering::Relaxed)
        );
    }
}
