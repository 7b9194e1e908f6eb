//! EPCC-syncbench-style construct-overhead microbenchmark.
//!
//! Measures the per-construct overhead of the runtime's synchronization
//! primitives — the numbers that bound fine-grained scaling (paper §IV; the
//! EPCC schedule/sync benchmarks the OpenMP community uses for this):
//!
//! * `parallel` — entry + exit of an empty parallel region (fork/join cost:
//!   team construction, worker mobilization, final task-draining barrier),
//! * `barrier` — an explicit barrier inside a live region,
//! * `reduction` — a work-shared loop with a `reduction(+)` and its
//!   mandatory end-of-loop barrier,
//! * `single` — a `single` construct with its implicit barrier,
//! * `task` — spawn of a deferred empty task plus its share of the final
//!   `taskwait`,
//! * `task-depend` — one empty task of a wavefront-shaped DAG (each task
//!   `depend(in: up, in: left, out: self)`) submitted by the master thread
//!   and drained by the team at region end: the dependence layer's cost per
//!   task (insert, link, retire, release), as `task` prices the queue's.
//!
//! Each construct is measured across a thread-count sweep × both
//! synchronization backends ([`Backend::Mutex`] / [`Backend::Atomic`]) ×
//! both wait policies (`OMP_WAIT_POLICY=passive|active`), because the whole
//! point of hot teams + signaled waiting is that these costs stop being
//! quantized by thread-spawn and condvar-tick latencies.
//!
//! ```text
//! syncbench [--threads 1,2,4,8] [--trials N] [--inner N] [--outer N]
//!           [--scale-limit R] [--check]
//! ```
//!
//! `--check` runs a
//! 1..8-thread sweep and exits nonzero unless every construct completed,
//! every overhead number is finite and positive, and `parallel` *scales*:
//! the fastest-trial region cost at the widest team stays within
//! `--scale-limit` (default 80) multiples of the 1-thread cost for every
//! backend x policy cell. What keeps the wide cell under the limit is
//! early-leave final barriers plus per-worker docks (a dispatch wakes only
//! its own gang, never the pool); a dispatch that serializes the gang or
//! wakes every docked worker multiplies the 8-thread floor and trips it. It
//! is a scaling regression gate, not a noise gate: it compares cost
//! *floors*, and it measures the two gated teams in interleaved trials
//! (narrow, wide, narrow, wide, …), so a slow host phase raises both
//! floors instead of only the narrow one.

use std::time::Instant;

use omp4rs::exec::{parallel_region, DepSpec, ForSpec, ParallelConfig};
use omp4rs::{Backend, Icvs};
use omp4rs_bench::cli::Spec;

const SPEC: Spec = Spec {
    usage: "usage: syncbench [--threads 1,2,4,8] [--trials N] [--inner N] [--outer N]\n                 \
            [--scale-limit R] [--check]",
    switches: &["--check"],
    options: &["--threads", "--trials", "--inner", "--outer", "--scale-limit"],
    positional: 0..=0,
};

/// Fewest interleaved trial pairs behind each scale-gate floor.
const GATE_TRIALS: usize = 5;

/// One measured construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Construct {
    Parallel,
    Barrier,
    Reduction,
    Single,
    Task,
    TaskDepend,
}

impl Construct {
    const ALL: [Construct; 6] = [
        Construct::Parallel,
        Construct::Barrier,
        Construct::Reduction,
        Construct::Single,
        Construct::Task,
        Construct::TaskDepend,
    ];

    fn name(self) -> &'static str {
        match self {
            Construct::Parallel => "parallel",
            Construct::Barrier => "barrier",
            Construct::Reduction => "reduction",
            Construct::Single => "single",
            Construct::Task => "task",
            Construct::TaskDepend => "task-depend",
        }
    }
}

/// Benchmark knobs (trial counts scale down as team size grows so the sweep
/// stays wall-clock bounded on small hosts).
#[derive(Debug, Clone, Copy)]
struct Knobs {
    trials: usize,
    outer: usize,
    inner: usize,
}

/// Wait for the worker pool to go quiet before timing a cell.
///
/// Workers from the previous cell's (possibly much larger) team each burn
/// their dock spin budget before parking; under `OMP_WAIT_POLICY=active`
/// that is 10k yield-laced iterations per worker, and a 32-worker drain on
/// a small host takes longer than an entire 4-thread timed loop — measured
/// as a 4x inflation of the 4-thread `parallel` cell when it follows a
/// 32-thread one. The flat sleep (during which this thread is off-CPU and
/// stragglers spin out their budgets) covers that worst case; the
/// park-count stability loop then confirms nobody is still transitioning.
/// Parks are monotonic runtime-wide, so a stable count means every
/// straggler has parked — but stability alone is not sufficient (a
/// mid-spin worker parks nothing for tens of milliseconds), hence the
/// unconditional sleep first.
fn settle() {
    std::thread::sleep(std::time::Duration::from_millis(300));
    let deadline = Instant::now() + std::time::Duration::from_millis(400);
    let mut last = omp4rs::pool::stats().park;
    let mut stable = 0;
    while stable < 3 && Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
        let now = omp4rs::pool::stats().park;
        if now == last {
            stable += 1;
        } else {
            stable = 0;
            last = now;
        }
    }
}

/// Time `outer` empty parallel regions; returns seconds per region.
fn time_parallel(cfg: &ParallelConfig, outer: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..outer {
        parallel_region(cfg, |_ctx| {});
    }
    start.elapsed().as_secs_f64() / outer.max(1) as f64
}

/// The `parallel` cost floors (fastest trial, seconds per region) of the
/// teams of `lo` and `hi` threads, their trials interleaved — `lo`, `hi`,
/// `lo`, `hi`, … — so that a slow host phase lands on both sides of the
/// scale gate's ratio. The pool settles before each `lo` trial, so the
/// wide team's docking workers do not spin beside it.
fn interleaved_floors(
    backend: Backend,
    lo: usize,
    hi: usize,
    trials: usize,
    outer: usize,
) -> [f64; 2] {
    let teams = [lo, hi].map(|t| {
        let cfg = ParallelConfig::new().num_threads(t).backend(backend);
        (cfg, knobs_for(t, trials, outer, 1).outer)
    });
    let mut floors = [f64::INFINITY; 2];
    for _ in 0..trials {
        for (floor, (cfg, outer)) in floors.iter_mut().zip(&teams) {
            // Warm the team and its code paths outside the timing.
            parallel_region(cfg, |_ctx| {});
            if cfg.num_threads == Some(lo) {
                settle();
            }
            *floor = floor.min(time_parallel(cfg, *outer));
        }
    }
    floors
}

/// Time one region running `inner` repetitions of a construct on every
/// thread; returns total region seconds.
fn time_region(cfg: &ParallelConfig, body: impl Fn(&omp4rs::WorkerCtx<'_>) + Sync) -> f64 {
    let start = Instant::now();
    parallel_region(cfg, body);
    start.elapsed().as_secs_f64()
}

/// Per-operation seconds for a construct at the given team size: the
/// `(median, min)` across trials.
///
/// The median is robust against one outlier trial; the min is the better
/// estimator of the cost *floor* on a shared host, where scheduler noise is
/// strictly additive (nothing can make a region entry cheaper than its true
/// cost, so the fastest trial is the one with the least interference).
///
/// `parallel` is the region entry/exit cost itself; every other construct is
/// measured inside a live region and reported net of one region's cost.
fn measure(
    construct: Construct,
    cfg: &ParallelConfig,
    knobs: Knobs,
    region_cost: f64,
) -> (f64, f64) {
    let mut samples = Vec::with_capacity(knobs.trials);
    for _ in 0..knobs.trials {
        let secs = match construct {
            Construct::Parallel => time_parallel(cfg, knobs.outer),
            Construct::Barrier => {
                let inner = knobs.inner;
                let t = time_region(cfg, |ctx| {
                    for _ in 0..inner {
                        ctx.barrier();
                    }
                });
                (t - region_cost).max(0.0) / inner as f64
            }
            Construct::Reduction => {
                let inner = knobs.inner;
                let t = time_region(cfg, |ctx| {
                    let n = ctx.num_threads() as i64;
                    let mut sink = 0u64;
                    for _ in 0..inner {
                        sink = sink.wrapping_add(ctx.for_reduce(
                            ForSpec::new(),
                            0..n,
                            0u64,
                            |i, acc| *acc += i as u64,
                            |a, b| a + b,
                        ));
                    }
                    std::hint::black_box(sink);
                });
                (t - region_cost).max(0.0) / inner as f64
            }
            Construct::Single => {
                let inner = knobs.inner;
                let t = time_region(cfg, |ctx| {
                    let mut sink = 0u64;
                    for _ in 0..inner {
                        if ctx.single(|| ()).is_some() {
                            sink += 1;
                        }
                    }
                    std::hint::black_box(sink);
                });
                (t - region_cost).max(0.0) / inner as f64
            }
            Construct::Task => {
                let inner = knobs.inner;
                let t = time_region(cfg, |ctx| {
                    for _ in 0..inner {
                        ctx.task(|_| {});
                    }
                    ctx.taskwait();
                });
                let ops = (inner * cfg.num_threads.unwrap_or(1)) as f64;
                (t - region_cost).max(0.0) / ops
            }
            Construct::TaskDepend => {
                // A side x side grid of about `inner` tasks; row and column
                // 0 are border keys nobody writes.
                let side = (knobs.inner as f64).sqrt().ceil() as usize;
                let key = |i: usize, j: usize| ((i as u64) << 32) | j as u64;
                let t = time_region(cfg, |ctx| {
                    ctx.master(|| {
                        for i in 0..side {
                            for j in 0..side {
                                let spec = DepSpec::new()
                                    .input(key(i, j + 1))
                                    .input(key(i + 1, j))
                                    .output(key(i + 1, j + 1));
                                ctx.task_depend(spec, |_| {});
                            }
                        }
                    });
                });
                (t - region_cost).max(0.0) / (side * side) as f64
            }
        };
        samples.push(secs);
    }
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    (omp4rs_bench::median(&mut samples), min)
}

/// One result row.
#[derive(Debug)]
struct Row {
    construct: Construct,
    backend: Backend,
    policy: &'static str,
    threads: usize,
    /// Median across trials.
    ns_per_op: f64,
    /// Fastest trial — the interference-free cost floor.
    ns_per_op_min: f64,
}

fn backend_name(b: Backend) -> &'static str {
    match b {
        Backend::Mutex => "mutex",
        Backend::Atomic => "atomic",
    }
}

/// Select the wait policy for subsequent regions: set `OMP_WAIT_POLICY` and
/// re-derive the ICVs from the environment, exactly as a fresh process would.
fn apply_policy(policy: &str) {
    std::env::set_var("OMP_WAIT_POLICY", policy);
    Icvs::reset(Icvs::from_env());
}

fn knobs_for(threads: usize, trials: usize, outer: usize, inner: usize) -> Knobs {
    // Scale repetition counts to team size. Down for larger teams so the
    // full sweep stays bounded on a small host (costs scale roughly with
    // team size) — and *up* for small teams, where per-op costs in the
    // tens of microseconds would otherwise make a trial only a few
    // milliseconds of timed work, small enough for one scheduler hiccup to
    // move the whole sample.
    let scale = |n: usize| match threads {
        0..=4 => n * 5,
        5..=16 => (n / 2).max(8),
        _ => (n / 4).max(4),
    };
    Knobs {
        trials,
        outer: scale(outer),
        inner: scale(inner),
    }
}

fn main() {
    let args = SPEC.parse();
    let check = args.switch("--check");
    let trials = args.get("--trials", 5usize).max(1);
    let outer = args.get("--outer", 200usize).max(1);
    let inner = args.get("--inner", 200usize).max(1);
    // The check sweep includes 8 threads so the scaling gate below
    // exercises a team wider than the host.
    let threads: Vec<usize> = args.list("--threads", vec![1, 2, 4, 8]);
    let scale_limit: f64 = args.get("--scale-limit", 80.0);

    let policies: &[&'static str] = &["passive", "active"];
    let backends = [Backend::Atomic, Backend::Mutex];

    let mut rows = Vec::new();
    for &policy in policies {
        apply_policy(policy);
        for backend in backends {
            for &t in &threads {
                let knobs = knobs_for(t, trials, outer, inner);
                let cfg = ParallelConfig::new().num_threads(t).backend(backend);
                // Warm the worker pool / code paths outside the timing,
                // then let the previous cell's stragglers park.
                parallel_region(&cfg, |_ctx| {});
                settle();
                let region_cost = measure(Construct::Parallel, &cfg, knobs, 0.0);
                for construct in Construct::ALL {
                    let (med, min) = if construct == Construct::Parallel {
                        region_cost
                    } else {
                        // Subtract the *median* region cost from every
                        // trial: a stable baseline keeps the min field
                        // meaning "quietest trial of this construct".
                        measure(construct, &cfg, knobs, region_cost.0)
                    };
                    rows.push(Row {
                        construct,
                        backend,
                        policy,
                        threads: t,
                        ns_per_op: med * 1e9,
                        ns_per_op_min: min * 1e9,
                    });
                }
            }
        }
    }
    // Leave the ICVs as a fresh process would see them.
    std::env::remove_var("OMP_WAIT_POLICY");
    Icvs::reset(Icvs::from_env());

    println!("construct overhead (ns/op):");
    println!(
        "{:<14} {:>7} {:>8} {:>8} {:>12} {:>12}",
        "construct", "backend", "policy", "threads", "median", "min"
    );
    for row in &rows {
        println!(
            "{:<14} {:>7} {:>8} {:>8} {:>12.1} {:>12.1}",
            row.construct.name(),
            backend_name(row.backend),
            row.policy,
            row.threads,
            row.ns_per_op,
            row.ns_per_op_min
        );
    }

    if check {
        let mut failed = false;
        for row in &rows {
            if !row.ns_per_op.is_finite() || !row.ns_per_op_min.is_finite() {
                eprintln!(
                    "CHECK FAILED: {} ({}/{} @{}) overhead is not finite",
                    row.construct.name(),
                    backend_name(row.backend),
                    row.policy,
                    row.threads
                );
                failed = true;
            }
        }
        // Region entry can never be free: a zero reading means the clock or
        // the construct loop is broken.
        if !rows
            .iter()
            .any(|r| r.construct == Construct::Parallel && r.ns_per_op > 0.0)
        {
            eprintln!("CHECK FAILED: no positive parallel-region overhead measured");
            failed = true;
        }
        // Scaling-regression gate: for every backend x policy cell, the
        // fork/join cost floor at the widest team must stay within
        // `scale_limit` multiples of the narrowest team's. Compares floors
        // (the fastest trial) measured in interleaved trials, so a noisy
        // host inflates both sides rather than tripping the gate; a real
        // regression — serialized dispatch, lost early-leave, a
        // reintroduced global lock — multiplies the wide-team side only.
        let lo = threads.iter().copied().min().unwrap_or(1);
        let hi = threads.iter().copied().max().unwrap_or(1);
        if hi > lo {
            for &policy in policies {
                apply_policy(policy);
                for backend in backends {
                    let [narrow, wide] =
                        interleaved_floors(backend, lo, hi, trials.max(GATE_TRIALS), outer)
                            .map(|s| s * 1e9);
                    let ratio = wide / narrow.max(1.0);
                    if ratio > scale_limit {
                        eprintln!(
                            "CHECK FAILED: parallel ({}/{policy}) does not scale: \
                             {wide:.1}ns @{hi}T is {ratio:.1}x the {narrow:.1}ns @{lo}T \
                             floor (limit {scale_limit:.0}x)",
                            backend_name(backend)
                        );
                        failed = true;
                    }
                }
            }
            std::env::remove_var("OMP_WAIT_POLICY");
            Icvs::reset(Icvs::from_env());
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "check: OK ({} rows, all finite; parallel @{hi}T within {scale_limit:.0}x of @{lo}T)",
            rows.len()
        );
    }
}
