//! Heap allocations per task, counted by a counting global allocator.
//!
//! A task is one heap block: its closure, lifecycle state, placement hints
//! and dependence record share one allocation, and the small lists a
//! typical `depend` task touches (its successors, a key's readers, the
//! released worklist, the `DepSpec` items) hold their first items inline.
//! An included task — every task of a one-thread team here — has no block
//! at all.
//! This binary has its own global allocator, so it is its own test target
//! with one test: no sibling test can allocate while a region is counted.
//!
//! Counted: every `alloc`, `alloc_zeroed` and `realloc` on every thread
//! while a region runs, less the count of the same region submitting no
//! task (team set-up, the implicit tasks' frames). What is left is the
//! per-task allocations plus the doubling growth of the containers that
//! hold every queued task at once — see [`GROWTH`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use omp4rs::exec::{parallel_region, DepSpec, ParallelConfig};
use omp4rs::Backend;

struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn note() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: forwards every call to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Blocks per side of the wavefront-shaped graph.
const NB: usize = 64;
const TASKS: usize = NB * NB;

/// Allocations allowed beyond the per-task limit: the containers that can
/// hold all `TASKS` tasks at once — the shared overflow bag, the
/// producer's child list, the dependence key table and its held list —
/// each reach that size by doubling, `log2(TASKS)` steps apiece. One
/// allocation per hundred tasks (41 here) is more than this allowance
/// leaves room for.
const GROWTH: u64 = 4 * TASKS.ilog2() as u64;

#[derive(Clone, Copy)]
enum Shape {
    /// No task: the region's own allocations.
    Empty,
    /// `NB × NB` tasks, each `depend(in: north, west) depend(out: self)`.
    Wavefront,
    /// `NB × NB` plain `task`s.
    Plain,
}

fn key(bi: usize, bj: usize) -> u64 {
    ((bi as u64) << 32) | bj as u64
}

/// Allocations made on every thread while one region of `shape` runs.
fn region_allocs(backend: Backend, threads: usize, shape: Shape) -> u64 {
    let ran = AtomicUsize::new(0);
    let ran = &ran;
    let cfg = ParallelConfig::new().num_threads(threads).backend(backend);
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    parallel_region(&cfg, |ctx| {
        ctx.single_nowait(|| {
            for bi in 1..=NB {
                for bj in 1..=NB {
                    match shape {
                        Shape::Empty => return,
                        Shape::Wavefront => {
                            let spec = DepSpec::new()
                                .input(key(bi - 1, bj))
                                .input(key(bi, bj - 1))
                                .output(key(bi, bj));
                            ctx.task_depend(spec, move |_| {
                                ran.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                        Shape::Plain => ctx.task(move |_| {
                            ran.fetch_add(1, Ordering::Relaxed);
                        }),
                    }
                }
            }
        });
    });
    COUNTING.store(false, Ordering::SeqCst);
    let expected = match shape {
        Shape::Empty => 0,
        Shape::Wavefront | Shape::Plain => TASKS,
    };
    assert_eq!(ran.load(Ordering::Relaxed), expected, "every task ran once");
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn one_allocation_per_task() {
    for backend in [Backend::Mutex, Backend::Atomic] {
        for threads in [1, 2] {
            // Warm: workers spawned, lazy statics and thread-locals built.
            region_allocs(backend, threads, Shape::Wavefront);
            region_allocs(backend, threads, Shape::Plain);
            let base = region_allocs(backend, threads, Shape::Empty);
            let ctx = format!("{backend:?} T={threads}");
            // A one-thread team includes every task (runs it at once, with
            // no task node): nothing per task is allocated.
            let included = threads == 1;
            for (shape, what, limit) in [
                (Shape::Wavefront, "dependent", if included { 0 } else { 2 }),
                (Shape::Plain, "plain", if included { 0 } else { 1 }),
            ] {
                let extra = region_allocs(backend, threads, shape).saturating_sub(base);
                println!(
                    "{ctx}: {:.3} allocations per {what} task",
                    extra as f64 / TASKS as f64
                );
                assert!(
                    extra <= limit * TASKS as u64 + GROWTH,
                    "{ctx}: {extra} allocations for {TASKS} {what} tasks \
                     (limit {limit} per task + {GROWTH})"
                );
            }
        }
    }
}
