//! End-to-end behaviour of the compiled-mode runtime: parallel regions,
//! worksharing, synchronization, and tasking, on both backends.

use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;

use omp4rs::exec::{parallel_region, ForSpec, ParallelConfig};
use omp4rs::{Backend, ScheduleKind};
use parking_lot::Mutex;

fn cfg(threads: usize, backend: Backend) -> ParallelConfig {
    ParallelConfig::new().num_threads(threads).backend(backend)
}

fn both() -> [Backend; 2] {
    [Backend::Mutex, Backend::Atomic]
}

/// Tests that mutate the global ICVs must not interleave.
static ICV_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn parallel_runs_body_on_each_thread() {
    for backend in both() {
        let hits = AtomicUsize::new(0);
        let ids = Mutex::new(Vec::new());
        parallel_region(&cfg(4, backend), |ctx| {
            hits.fetch_add(1, Ordering::SeqCst);
            ids.lock().push(ctx.thread_num());
            assert_eq!(ctx.num_threads(), 4);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 4);
        let mut ids = ids.into_inner();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }
}

#[test]
fn if_clause_serializes() {
    let hits = AtomicUsize::new(0);
    parallel_region(&cfg(4, Backend::Atomic).if_parallel(false), |ctx| {
        assert_eq!(ctx.num_threads(), 1);
        hits.fetch_add(1, Ordering::SeqCst);
    });
    assert_eq!(hits.load(Ordering::SeqCst), 1);
}

#[test]
fn parallel_clause_string() {
    let hits = AtomicUsize::new(0);
    omp4rs::parallel("num_threads(3) default(shared)", |_ctx| {
        hits.fetch_add(1, Ordering::SeqCst);
    });
    assert_eq!(hits.load(Ordering::SeqCst), 3);
}

#[test]
fn for_each_covers_all_iterations_every_schedule() {
    for backend in both() {
        for spec in [
            ForSpec::new(),
            ForSpec::new().schedule(ScheduleKind::Static, Some(3)),
            ForSpec::new().schedule(ScheduleKind::Dynamic, Some(2)),
            ForSpec::new().schedule(ScheduleKind::Guided, Some(1)),
            ForSpec::new().schedule(ScheduleKind::Auto, None),
        ] {
            let n = 103i64;
            let marks: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            parallel_region(&cfg(4, backend), |ctx| {
                ctx.for_each(spec, 0..n, |i| {
                    marks[i as usize].fetch_add(1, Ordering::SeqCst);
                });
            });
            assert!(
                marks.iter().all(|m| m.load(Ordering::SeqCst) == 1),
                "{backend:?} {spec:?}: every iteration exactly once"
            );
        }
    }
}

#[test]
fn for_range_with_negative_step() {
    let sum = AtomicI64::new(0);
    parallel_region(&cfg(3, Backend::Atomic), |ctx| {
        ctx.for_range("schedule(dynamic, 2)", (10, 0, -2), |i| {
            sum.fetch_add(i, Ordering::SeqCst);
        });
    });
    // 10 + 8 + 6 + 4 + 2
    assert_eq!(sum.load(Ordering::SeqCst), 30);
}

#[test]
fn for_each2_collapse_covers_product_space() {
    let hits: Vec<AtomicUsize> = (0..6 * 7).map(|_| AtomicUsize::new(0)).collect();
    parallel_region(&cfg(4, Backend::Atomic), |ctx| {
        ctx.for_each2("schedule(dynamic, 3) collapse(2)", 0..6, 0..7, |i, j| {
            hits[(i * 7 + j) as usize].fetch_add(1, Ordering::SeqCst);
        });
    });
    assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
}

#[test]
fn for_reduce_sums_once() {
    for backend in both() {
        let result = Mutex::new(Vec::new());
        parallel_region(&cfg(4, backend), |ctx| {
            let total = ctx.for_reduce(
                ForSpec::new().schedule(ScheduleKind::Dynamic, Some(5)),
                0..1000,
                0i64,
                |i, acc| *acc += i,
                |a, b| a + b,
            );
            result.lock().push(total);
        });
        let results = result.into_inner();
        assert_eq!(results.len(), 4);
        assert!(
            results.iter().all(|&r| r == 499_500),
            "{backend:?}: {results:?}"
        );
    }
}

#[test]
fn consecutive_reductions_are_independent() {
    let outcome = Mutex::new((0i64, 0i64));
    parallel_region(&cfg(3, Backend::Atomic), |ctx| {
        let a = ctx.for_reduce(
            ForSpec::new(),
            0..10,
            0i64,
            |i, acc| *acc += i,
            |x, y| x + y,
        );
        let b = ctx.for_reduce(
            ForSpec::new(),
            0..10,
            1i64,
            |i, acc| *acc *= i + 1,
            |x, y| x * y,
        );
        ctx.master(|| *outcome.lock() = (a, b));
    });
    let (a, b) = outcome.into_inner();
    assert_eq!(a, 45);
    assert_eq!(b, 3_628_800); // 10!
}

#[test]
fn single_executes_exactly_once() {
    for backend in both() {
        let hits = AtomicUsize::new(0);
        let winners = AtomicUsize::new(0);
        parallel_region(&cfg(4, backend), |ctx| {
            for _ in 0..10 {
                if ctx.single(|| hits.fetch_add(1, Ordering::SeqCst)).is_some() {
                    winners.fetch_add(1, Ordering::SeqCst);
                }
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 10, "{backend:?}");
        assert_eq!(winners.load(Ordering::SeqCst), 10);
    }
}

#[test]
fn single_copyprivate_broadcasts() {
    let seen = Mutex::new(Vec::new());
    parallel_region(&cfg(4, Backend::Atomic), |ctx| {
        let value = ctx.single_copyprivate(|| vec![1, 2, 3]);
        seen.lock().push(value);
    });
    let seen = seen.into_inner();
    assert_eq!(seen.len(), 4);
    assert!(seen.iter().all(|v| v == &vec![1, 2, 3]));
}

#[test]
fn master_runs_only_on_thread_zero() {
    let hits = AtomicUsize::new(0);
    parallel_region(&cfg(4, Backend::Atomic), |ctx| {
        ctx.master(|| hits.fetch_add(1, Ordering::SeqCst));
        ctx.barrier();
    });
    assert_eq!(hits.load(Ordering::SeqCst), 1);
}

#[test]
fn sections_each_run_once() {
    for backend in both() {
        let a = AtomicUsize::new(0);
        let b = AtomicUsize::new(0);
        let c = AtomicUsize::new(0);
        parallel_region(&cfg(2, backend), |ctx| {
            ctx.sections(
                false,
                &[
                    &|| {
                        a.fetch_add(1, Ordering::SeqCst);
                    },
                    &|| {
                        b.fetch_add(1, Ordering::SeqCst);
                    },
                    &|| {
                        c.fetch_add(1, Ordering::SeqCst);
                    },
                ],
            );
        });
        assert_eq!(
            (
                a.load(Ordering::SeqCst),
                b.load(Ordering::SeqCst),
                c.load(Ordering::SeqCst)
            ),
            (1, 1, 1),
            "{backend:?}"
        );
    }
}

#[test]
fn critical_protects_shared_state() {
    for backend in both() {
        let shared = Mutex::new(0i64);
        parallel_region(&cfg(4, backend), |ctx| {
            for _ in 0..100 {
                ctx.critical(Some("rt_test"), || {
                    let mut v = shared.lock();
                    *v += 1;
                });
            }
        });
        assert_eq!(*shared.lock(), 400);
    }
}

#[test]
fn ordered_loop_emits_in_order() {
    for backend in both() {
        let order = Mutex::new(Vec::new());
        parallel_region(&cfg(4, backend), |ctx| {
            ctx.for_each(
                ForSpec::new()
                    .schedule(ScheduleKind::Dynamic, Some(1))
                    .ordered(),
                0..30,
                |i| {
                    // Simulate out-of-order arrival.
                    if i % 3 == 0 {
                        std::thread::yield_now();
                    }
                    ctx.ordered(|| order.lock().push(i));
                },
            );
        });
        let order = order.into_inner();
        assert_eq!(order, (0..30).collect::<Vec<_>>(), "{backend:?}");
    }
}

#[test]
fn tasks_all_execute_before_region_ends() {
    for backend in both() {
        let hits = Arc::new(AtomicUsize::new(0));
        parallel_region(&cfg(4, backend), |ctx| {
            ctx.single_nowait(|| {
                for _ in 0..200 {
                    let hits = Arc::clone(&hits);
                    ctx.task(move |_| {
                        hits.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        });
        assert_eq!(hits.load(Ordering::SeqCst), 200, "{backend:?}");
    }
}

#[test]
fn tasks_borrow_region_data() {
    // Scoped tasks: borrow a slice alive outside the region.
    let mut data = [0u8; 64];
    let chunks: Vec<&mut [u8]> = data.chunks_mut(16).collect();
    let chunks = Mutex::new(chunks);
    parallel_region(&cfg(2, Backend::Atomic), |ctx| {
        ctx.single(|| {
            while let Some(chunk) = chunks.lock().pop() {
                ctx.task(move |_| {
                    for b in chunk {
                        *b = 7;
                    }
                });
            }
        });
    });
    assert!(data.iter().all(|&b| b == 7));
}

#[test]
fn recursive_tasks_fibonacci() {
    fn fib(n: u64) -> u64 {
        if n <= 1 {
            n
        } else {
            fib(n - 1) + fib(n - 2)
        }
    }
    for backend in both() {
        let result = Arc::new(AtomicI64::new(0));
        parallel_region(&cfg(4, backend), |ctx| {
            ctx.single(|| {
                let result = Arc::clone(&result);
                ctx.task(move |tc| {
                    fn go(tc: &omp4rs::TaskCtx<'_>, n: u64, out: Arc<AtomicI64>) {
                        if n <= 1 {
                            out.fetch_add(n as i64, Ordering::SeqCst);
                            return;
                        }
                        let o1 = Arc::clone(&out);
                        let o2 = Arc::clone(&out);
                        // Cutoff idiom: defer only large subproblems.
                        tc.task_if(n > 5, move |tc| go(tc, n - 1, o1));
                        tc.task_if(n > 5, move |tc| go(tc, n - 2, o2));
                        tc.taskwait();
                    }
                    go(tc, 12, result);
                });
            });
        });
        // Sum of leaves of the fib(12) call tree equals fib(12).
        assert_eq!(result.load(Ordering::SeqCst) as u64, fib(12), "{backend:?}");
    }
}

#[test]
fn taskwait_waits_for_direct_children() {
    let log = Arc::new(Mutex::new(Vec::new()));
    parallel_region(&cfg(4, Backend::Atomic), |ctx| {
        ctx.single(|| {
            for i in 0..8 {
                let log = Arc::clone(&log);
                ctx.task(move |_| {
                    log.lock().push(i);
                });
            }
            ctx.taskwait();
            log.lock().push(100);
        });
    });
    let log = log.lock().clone();
    assert_eq!(log.len(), 9);
    assert_eq!(*log.last().unwrap(), 100);
}

/// A producer that never calls `taskwait` does not keep its completed
/// children: across 10k submitted tasks, the producer's child list stays
/// bounded by the children still live, not by the number ever submitted.
#[test]
fn completed_children_are_pruned_without_taskwait() {
    for threads in [1, 2] {
        let live = Arc::new(AtomicUsize::new(0));
        let peaks = Mutex::new((0, 0));
        parallel_region(&cfg(threads, Backend::Atomic), |ctx| {
            ctx.master(|| {
                let frame = omp4rs::context::current_frame().expect("inside a region");
                let (mut peak_live, mut peak_children) = (0, 0);
                for _ in 0..10_000 {
                    peak_live = peak_live.max(live.fetch_add(1, Ordering::SeqCst) + 1);
                    let live = Arc::clone(&live);
                    ctx.task(move |_| {
                        live.fetch_sub(1, Ordering::SeqCst);
                    });
                    peak_children = peak_children.max(frame.child_count());
                    ctx.taskyield();
                }
                *peaks.lock() = (peak_live, peak_children);
            });
        });
        let (peak_live, peak_children) = peaks.into_inner();
        // A task leaves `live` a moment before its node reads done: allow
        // one such task per thread on top of twice the live children.
        let bound = 2 * (peak_live + threads) + 64;
        assert!(
            peak_children <= bound,
            "T={threads}: {peak_children} children held, {peak_live} ever live"
        );
    }
}

#[test]
fn nested_parallel_disabled_by_default() {
    let _g = ICV_LOCK.lock();
    let before = omp4rs::Icvs::current();
    omp4rs::omp_set_nested(false);
    let inner_sizes = Mutex::new(Vec::new());
    parallel_region(&cfg(2, Backend::Atomic), |_ctx| {
        parallel_region(&cfg(2, Backend::Atomic), |inner| {
            inner_sizes.lock().push(inner.num_threads());
        });
    });
    let sizes = inner_sizes.into_inner();
    assert_eq!(sizes, vec![1, 1]);
    omp4rs::Icvs::reset(before);
}

#[test]
fn nested_parallel_enabled() {
    let _g = ICV_LOCK.lock();
    let before = omp4rs::Icvs::current();
    omp4rs::omp_set_nested(true);
    let total = AtomicUsize::new(0);
    let levels = Mutex::new(Vec::new());
    parallel_region(&cfg(2, Backend::Atomic), |_ctx| {
        parallel_region(&cfg(3, Backend::Atomic), |inner| {
            total.fetch_add(1, Ordering::SeqCst);
            levels
                .lock()
                .push((omp4rs::omp_get_level(), inner.num_threads()));
        });
    });
    assert_eq!(total.load(Ordering::SeqCst), 6);
    assert!(levels.into_inner().iter().all(|&(l, s)| l == 2 && s == 3));
    omp4rs::Icvs::reset(before);
}

#[test]
fn api_functions_inside_region() {
    parallel_region(&cfg(3, Backend::Atomic), |ctx| {
        assert!(omp4rs::omp_in_parallel());
        assert_eq!(omp4rs::omp_get_num_threads(), 3);
        assert_eq!(omp4rs::omp_get_thread_num(), ctx.thread_num());
        assert_eq!(omp4rs::omp_get_level(), 1);
        assert_eq!(omp4rs::omp_get_active_level(), 1);
        assert_eq!(
            omp4rs::omp_get_ancestor_thread_num(1),
            ctx.thread_num() as i64
        );
        assert_eq!(omp4rs::omp_get_team_size(1), 3);
    });
    assert!(!omp4rs::omp_in_parallel());
}

#[test]
fn panic_in_worker_propagates_after_join() {
    let result = std::panic::catch_unwind(|| {
        parallel_region(&cfg(3, Backend::Atomic), |ctx| {
            if ctx.thread_num() == 1 {
                panic!("boom from worker");
            }
        });
    });
    assert!(result.is_err());
}

#[test]
fn panic_in_task_propagates_after_region() {
    let result = std::panic::catch_unwind(|| {
        parallel_region(&cfg(2, Backend::Atomic), |ctx| {
            ctx.single(|| {
                ctx.task(|_| panic!("boom from task"));
            });
        });
    });
    assert!(result.is_err());
}

#[test]
fn taskloop_covers_iterations() {
    for backend in both() {
        let marks: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        parallel_region(&cfg(4, backend), |ctx| {
            ctx.single_nowait(|| {
                ctx.taskloop(Some(7), None, false, 0..100, |i| {
                    marks[i as usize].fetch_add(1, Ordering::SeqCst);
                });
                // taskloop's implicit taskwait: everything done here.
                assert!(marks.iter().all(|m| m.load(Ordering::SeqCst) == 1));
            });
        });
        assert!(
            marks.iter().all(|m| m.load(Ordering::SeqCst) == 1),
            "{backend:?}"
        );
    }
}

#[test]
fn taskloop_nogroup_defers_to_barrier() {
    let marks: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
    parallel_region(&cfg(3, Backend::Atomic), |ctx| {
        ctx.single_nowait(|| {
            ctx.taskloop(None, Some(6), true, 0..50, |i| {
                marks[i as usize].fetch_add(1, Ordering::SeqCst);
            });
        });
        // The region's end barrier drains the ungrouped tasks.
    });
    assert!(marks.iter().all(|m| m.load(Ordering::SeqCst) == 1));
}

#[test]
fn nowait_loops_allow_overlap() {
    // Two nowait loops back to back; correctness = all iterations run.
    let first: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
    let second: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
    parallel_region(&cfg(4, Backend::Atomic), |ctx| {
        ctx.for_each("schedule(dynamic, 1) nowait", 0..50, |i| {
            first[i as usize].fetch_add(1, Ordering::SeqCst);
        });
        ctx.for_each("schedule(dynamic, 1) nowait", 0..50, |i| {
            second[i as usize].fetch_add(1, Ordering::SeqCst);
        });
    });
    assert!(first.iter().all(|m| m.load(Ordering::SeqCst) == 1));
    assert!(second.iter().all(|m| m.load(Ordering::SeqCst) == 1));
}

#[test]
fn barrier_inside_region_synchronizes() {
    let stage = AtomicUsize::new(0);
    parallel_region(&cfg(4, Backend::Atomic), |ctx| {
        stage.fetch_add(1, Ordering::SeqCst);
        ctx.barrier();
        assert_eq!(stage.load(Ordering::SeqCst), 4);
    });
}

#[test]
fn schedule_runtime_respects_icv() {
    let _g = ICV_LOCK.lock();
    let before = omp4rs::Icvs::current();
    omp4rs::omp_set_schedule(ScheduleKind::Dynamic, Some(4));
    let marks: Vec<AtomicUsize> = (0..40).map(|_| AtomicUsize::new(0)).collect();
    parallel_region(&cfg(3, Backend::Atomic), |ctx| {
        ctx.for_each("schedule(runtime)", 0..40, |i| {
            marks[i as usize].fetch_add(1, Ordering::SeqCst);
        });
    });
    assert!(marks.iter().all(|m| m.load(Ordering::SeqCst) == 1));
    omp4rs::Icvs::reset(before);
}

#[test]
fn empty_loop_is_fine() {
    parallel_region(&cfg(4, Backend::Atomic), |ctx| {
        ctx.for_each(ForSpec::new(), 0..0, |_| panic!("must not run"));
        let r = ctx.for_reduce(ForSpec::new(), 5..5, 42i64, |_, _| {}, |a, _| a);
        assert_eq!(r, 42);
    });
}

#[test]
fn more_threads_than_work() {
    let hits = AtomicUsize::new(0);
    parallel_region(&cfg(8, Backend::Atomic), |ctx| {
        ctx.for_each("schedule(dynamic)", 0..3, |_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
    });
    assert_eq!(hits.load(Ordering::SeqCst), 3);
}
