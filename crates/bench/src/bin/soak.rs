//! Chaos-soak harness: server-style resilience proof for the runtime.
//!
//! N client threads fire small parallel regions continuously while the
//! fault layer injects worker panics and "infinite" stalls, and a sidecar
//! silences a minimpi rank mid-collective — all simultaneously. The run
//! must complete with **zero hangs** (an internal monitor thread enforces
//! an overall deadline), **zero cascading panics** (every failure is a
//! typed, per-region outcome), and deterministic degradation counters.
//!
//! Usage: `soak [--check] [--clients <list>] [--seconds <s>]`
//!
//! * `--check` — short seeded run under the full fault matrix; exits
//!   nonzero unless the expected degradation counters come out exactly.
//! * otherwise — print a sweep of regions/sec vs client count, with and
//!   without chaos.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use minimpi::{MpiError, World};
use omp4rs::exec::{parallel_region_result, ParallelConfig};
use omp4rs::faults::{self, FaultPlan, FaultSite};
use omp4rs::{pool, Backend, Icvs, InjectedFault, OmpError};
use omp4rs_bench::cli::Spec;

const SPEC: Spec = Spec {
    usage: "usage: soak [--check] [--clients <list>] [--seconds <s>]",
    switches: &["--check"],
    options: &["--clients", "--seconds"],
    positional: 0..=0,
};

/// Per-soak outcome tallies. Everything a region can do is one of these —
/// any panic that is neither an injected fault nor a region timeout is a
/// cascading failure and fails `--check`.
#[derive(Debug, Default)]
struct Tally {
    regions: AtomicU64,
    ok: AtomicU64,
    injected_panics: AtomicU64,
    deadline_timeouts: AtomicU64,
    unexpected: AtomicU64,
}

/// One client region: a small work-shared reduction plus an explicit
/// barrier — enough surface (chunk claims, barrier arrivals) for every
/// fault site to land somewhere.
fn serve_one(threads: usize) -> Result<(), OmpError> {
    let cfg = ParallelConfig::new()
        .num_threads(threads)
        .backend(Backend::Atomic);
    parallel_region_result(&cfg, |ctx| {
        let sum = ctx.for_reduce(
            omp4rs::ForSpec::new(),
            0..64,
            0i64,
            |i, acc| *acc += i,
            |a, b| a + b,
        );
        ctx.barrier();
        assert_eq!(sum, 64 * 63 / 2);
    })
}

/// Drive `clients` client threads for `duration`, classifying every
/// region's outcome.
fn soak(clients: usize, threads: usize, duration: Duration, tally: &Tally) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    tally.regions.fetch_add(1, Ordering::Relaxed);
                    match catch_unwind(AssertUnwindSafe(|| serve_one(threads))) {
                        Ok(Ok(())) => {
                            tally.ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(Err(OmpError::RegionTimeout { .. })) => {
                            tally.deadline_timeouts.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(Err(_)) => {
                            tally.unexpected.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(payload) => {
                            if payload.downcast_ref::<InjectedFault>().is_some() {
                                tally.injected_panics.fetch_add(1, Ordering::Relaxed);
                            } else {
                                tally.unexpected.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });
}

/// How long the minimpi leg's dead-rank collective waits for a peer.
const MPI_TIMEOUT: Duration = Duration::from_millis(100);

/// The minimpi leg of the fault matrix: a timed allreduce on a healthy
/// two-rank world must succeed, and the same collective with rank 1
/// silenced must end on every rank in a typed [`MpiError`] — not a hang.
/// Returns (healthy ranks that got the sum, ranks that got a typed error,
/// how long the failed collective took).
fn mpi_chaos() -> (usize, usize, Duration) {
    // A generous bound: the healthy round runs beside the oversubscribed
    // client soak, and a descheduled rank must not read as a failure.
    let healthy = World::run(2, |comm| {
        comm.allreduce_sum_timeout(comm.rank() as f64 + 1.0, Duration::from_secs(10))
    })
    .into_iter()
    .filter(|r| r == &Ok(3.0))
    .count();
    let start = Instant::now();
    let dead = World::run(2, |comm| {
        if comm.rank() == 1 {
            comm.inject_failure();
        }
        comm.allreduce_sum_timeout(1.0, MPI_TIMEOUT)
    });
    let elapsed = start.elapsed();
    let typed = dead
        .iter()
        .filter(|r| {
            matches!(
                r,
                Err(MpiError::Timeout { .. } | MpiError::Disconnected { .. })
            )
        })
        .count();
    (healthy, typed, elapsed)
}

/// Install the ICVs a serving process would run with. The region deadline
/// turns injected stalls into `RegionTimeout`s; `dynamic` turns pool
/// saturation into shrunken/shed teams.
fn serve_icvs(chaos: bool) -> Icvs {
    let before = Icvs::current();
    Icvs::update(|icvs| {
        icvs.dynamic = true;
        if chaos {
            icvs.region_deadline = Some(Duration::from_millis(300));
        }
    });
    before
}

struct SweepRow {
    clients: usize,
    chaos: bool,
    regions: u64,
    ok: u64,
    injected_panics: u64,
    deadline_timeouts: u64,
    unexpected: u64,
    regions_per_sec: f64,
}

/// One sweep cell: soak at `clients` for `seconds`, optionally under the
/// standard chaos plan (one injected worker panic + one injected infinite
/// stall, occurrences spaced so they cannot land in the same region).
fn run_cell(clients: usize, seconds: f64, chaos: bool) -> SweepRow {
    let before = serve_icvs(chaos);
    let guard = chaos.then(|| {
        faults::arm(
            FaultPlan::new(0x50AC)
                .panic_at(FaultSite::BarrierArrival, 10)
                .delay_at(FaultSite::BarrierArrival, 400, Duration::from_secs(120)),
        )
    });
    let tally = Tally::default();
    let start = Instant::now();
    soak(clients, 4, Duration::from_secs_f64(seconds), &tally);
    let elapsed = start.elapsed().as_secs_f64();
    drop(guard);
    Icvs::reset(before);
    let regions = tally.regions.load(Ordering::Relaxed);
    SweepRow {
        clients,
        chaos,
        regions,
        ok: tally.ok.load(Ordering::Relaxed),
        injected_panics: tally.injected_panics.load(Ordering::Relaxed),
        deadline_timeouts: tally.deadline_timeouts.load(Ordering::Relaxed),
        unexpected: tally.unexpected.load(Ordering::Relaxed),
        regions_per_sec: regions as f64 / elapsed,
    }
}

/// Zero-hang enforcement: if the process is still alive past the overall
/// deadline, something deadlocked despite the resilience layer — print a
/// diagnostic and die nonzero so CI sees a failure, not a stuck job.
fn arm_hang_monitor(limit: Duration) {
    let spawned = std::thread::Builder::new()
        .name("soak-hang-monitor".into())
        .spawn(move || {
            std::thread::sleep(limit);
            eprintln!(
                "soak: HANG — still running after {limit:?}; pool stats {:?}",
                pool::stats()
            );
            std::process::exit(2);
        });
    if let Err(e) = spawned {
        eprintln!("soak: could not arm hang monitor: {e}");
    }
}

fn main() {
    let args = SPEC.parse();
    let check = args.switch("--check");
    let seconds: f64 = args.get("--seconds", if check { 3.0 } else { 2.0 });
    // A `Duration` cannot hold a negative or non-finite span.
    if !seconds.is_finite() || seconds < 0.0 {
        args.fail(&format!("--seconds: malformed value '{seconds}'"));
    }
    let clients: Vec<usize> =
        args.list("--clients", if check { vec![4] } else { vec![1, 2, 4, 8] });

    let cells = clients.len() * if check { 1 } else { 2 };
    arm_hang_monitor(Duration::from_secs_f64(seconds * cells as f64 + 120.0));

    if check {
        // The full fault matrix at once: worker panic + injected stall
        // (clients) and rank failures (mpi sidecar), concurrently.
        let admission_before = pool::admission_stats();
        let mpi = std::thread::spawn(mpi_chaos);
        let row = run_cell(clients[0], seconds, true);
        let (mpi_healthy, mpi_typed, mpi_elapsed) = mpi.join().expect("mpi sidecar must not panic");
        let admission_after = pool::admission_stats();

        let admitted = (admission_after.granted - admission_before.granted)
            + (admission_after.shrunk - admission_before.shrunk)
            + (admission_after.shed - admission_before.shed);
        println!(
            "check: {} regions ({:.0}/s), {} ok, {} injected panics, {} deadline timeouts, \
             {} unexpected; admission decisions {}; mpi: {}/2 healthy ranks summed, \
             {}/2 ranks typed errors after a dead rank ({:?})",
            row.regions,
            row.regions_per_sec,
            row.ok,
            row.injected_panics,
            row.deadline_timeouts,
            row.unexpected,
            admitted,
            mpi_healthy,
            mpi_typed,
            mpi_elapsed
        );
        let mut failures = Vec::new();
        // Deterministic counters: each plan entry fires exactly once, and
        // the two entries cannot land in one region (occurrences 10 and 400
        // are farther apart than any region's arrival count).
        if row.injected_panics != 1 {
            failures.push(format!(
                "expected exactly 1 injected panic, saw {}",
                row.injected_panics
            ));
        }
        if row.deadline_timeouts != 1 {
            failures.push(format!(
                "expected exactly 1 deadline timeout, saw {}",
                row.deadline_timeouts
            ));
        }
        if row.unexpected != 0 {
            failures.push(format!("{} cascading/unexpected failures", row.unexpected));
        }
        if row.ok + 2 != row.regions {
            failures.push(format!(
                "outcome accounting leak: {} ok + 2 degraded != {} regions",
                row.ok, row.regions
            ));
        }
        // Every top-level region passes admission exactly once under
        // OMP_DYNAMIC; the mpi sidecar contributes none.
        if admitted < row.regions {
            failures.push(format!(
                "admission decisions {admitted} < regions {}",
                row.regions
            ));
        }
        if mpi_healthy != 2 {
            failures.push(format!(
                "healthy mpi allreduce summed on {mpi_healthy}/2 ranks"
            ));
        }
        if mpi_typed != 2 {
            failures.push(format!(
                "dead rank: {mpi_typed}/2 ranks got a typed MpiError"
            ));
        }
        // Bounded, not a hang: each rank's wait is MPI_TIMEOUT; the slack
        // covers a descheduled rank on a loaded host.
        if mpi_elapsed > Duration::from_secs(10) {
            failures.push(format!("dead-rank allreduce took {mpi_elapsed:?}"));
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("check FAILED: {f}");
            }
            std::process::exit(1);
        }
        println!("check: OK (zero hangs, zero cascades, deterministic degradation)");
        return;
    }

    // Sweep: regions/sec vs client count, with and without chaos.
    let mut rows = Vec::new();
    for &c in &clients {
        for chaos in [false, true] {
            eprintln!("==> soak clients={c} chaos={chaos} seconds={seconds}");
            rows.push(run_cell(c, seconds, chaos));
        }
    }
    let admission = pool::admission_stats();
    println!("SOAK — regions/sec vs clients (4 threads per region)");
    for row in &rows {
        println!(
            "  clients={:<2} chaos={:<5} {:>8.0} regions/s  ({} regions, {} ok, {} panics, {} timeouts, {} unexpected)",
            row.clients,
            row.chaos,
            row.regions_per_sec,
            row.regions,
            row.ok,
            row.injected_panics,
            row.deadline_timeouts,
            row.unexpected
        );
    }
    println!(
        "admission: {} granted, {} shrunk, {} shed",
        admission.granted, admission.shrunk, admission.shed
    );
}
