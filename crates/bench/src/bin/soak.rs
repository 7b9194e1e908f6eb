//! Chaos-soak harness: server-style resilience proof for the runtime.
//!
//! N client threads fire small parallel regions continuously while the
//! fault layer injects worker panics and "infinite" stalls, and a sidecar
//! exercises minimpi rank failures over a lossy interconnect — all
//! simultaneously. The run must complete with **zero hangs** (an internal
//! monitor thread enforces an overall deadline), **zero cascading panics**
//! (every failure is a typed, per-region outcome), and deterministic
//! degradation counters.
//!
//! Usage: `soak [--check] [--json] [--trace] [--clients <list>] [--seconds <s>]`
//!
//! * `--check` — short seeded run under the full fault matrix; exits
//!   nonzero unless the expected degradation counters come out exactly.
//! * `--json`  — emit the `BENCH_serve.json` document on stdout: a sweep of
//!   regions/sec vs client count, with and without chaos.
//! * `--trace` — arm the streaming trace pipeline underneath the soak
//!   (chaos included) and report what it sustained; see
//!   [`omp4rs_bench::traceprobe`]. Adds a `"trace"` member to the JSON.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use minimpi::{NetModel, RetryPolicy, World};
use omp4rs::exec::{parallel_region_result, ParallelConfig};
use omp4rs::faults::{self, FaultPlan, FaultSite};
use omp4rs::{pool, Backend, Icvs, InjectedFault, OmpError};

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

/// The minimpi leg of the fault matrix: resilient collectives over a lossy
/// net must all recover, and a permanently silenced rank must surface as a
/// typed `RetriesExhausted` — not a hang. Returns (recoveries, typed
/// permanent failures observed).
fn mpi_chaos(rounds: usize) -> (u64, u64) {
    let policy = RetryPolicy {
        max_attempts: 12,
        base_backoff: Duration::from_millis(1),
        per_attempt_timeout: Duration::from_millis(100),
        seed: 11,
    };
    let mut recovered = 0u64;
    for round in 0..rounds {
        let net = NetModel::local().with_loss(0.25, 1000 + round as u64);
        let out = World::run_with_net(2, net, |comm| {
            comm.allreduce_sum_resilient(comm.rank() as f64 + 1.0, &policy)
        });
        if out.iter().all(|r| r == &Ok(3.0)) {
            recovered += 1;
        }
    }
    // Permanent failure: rank 1 goes silent; rank 0's retries must exhaust
    // into the typed error within bounded time.
    let fast = RetryPolicy {
        max_attempts: 2,
        per_attempt_timeout: Duration::from_millis(40),
        ..policy
    };
    let out = World::run(2, |comm| {
        if comm.rank() == 1 {
            comm.inject_failure();
        }
        comm.allreduce_sum_resilient(1.0, &fast)
    });
    let typed = out
        .iter()
        .filter(|r| matches!(r, Err(minimpi::MpiError::RetriesExhausted { .. })))
        .count() as u64;
    (recovered, typed)
}

/// Install the ICVs a serving process would run with. The region deadline
/// turns injected stalls into `RegionTimeout`s; `dynamic` turns pool
/// saturation into shrunken/shed teams; the generous watchdog is armed as
/// the backstop without flagging healthy-but-descheduled workers.
fn serve_icvs(chaos: bool) -> Icvs {
    let before = Icvs::current();
    Icvs::update(|icvs| {
        icvs.dynamic = true;
        if chaos {
            icvs.region_deadline = Some(Duration::from_millis(300));
            icvs.watchdog = Some(Duration::from_secs(10));
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

impl SweepRow {
    fn json(&self) -> String {
        format!(
            "{{\"clients\":{},\"chaos\":{},\"regions\":{},\"ok\":{},\"injected_panics\":{},\
             \"deadline_timeouts\":{},\"unexpected\":{},\"regions_per_sec\":{:.1}}}",
            self.clients,
            self.chaos,
            self.regions,
            self.ok,
            self.injected_panics,
            self.deadline_timeouts,
            self.unexpected,
            self.regions_per_sec
        )
    }
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
                "soak: HANG — still running after {limit:?}; pool stats {:?}, watchdog {:?}",
                pool::stats(),
                pool::watchdog_stats()
            );
            std::process::exit(2);
        });
    if let Err(e) = spawned {
        eprintln!("soak: could not arm hang monitor: {e}");
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let probe = omp4rs_bench::traceprobe::begin(&mut args, "soak");
    let check = args.iter().any(|a| a == "--check");
    let json = args.iter().any(|a| a == "--json");
    let seconds = args
        .iter()
        .position(|a| a == "--seconds")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(if check { 3.0 } else { 2.0 });
    let clients: Vec<usize> = args
        .iter()
        .position(|a| a == "--clients")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.split(',').filter_map(|c| c.parse().ok()).collect())
        .unwrap_or_else(|| if check { vec![4] } else { vec![1, 2, 4, 8] });

    let cells = clients.len() * if check { 1 } else { 2 };
    arm_hang_monitor(Duration::from_secs_f64(seconds * cells as f64 + 120.0));

    if check {
        // The full fault matrix at once: worker panic + injected stall
        // (clients) and rank failures (mpi sidecar), concurrently.
        let admission_before = pool::admission_stats();
        let mpi = std::thread::spawn(|| mpi_chaos(10));
        let row = run_cell(clients[0], seconds, true);
        let (recovered, typed_permanent) = mpi.join().expect("mpi sidecar must not panic");
        let admission_after = pool::admission_stats();
        if let Some(report) = probe.finish() {
            println!("{}", report.line());
        }

        let admitted = (admission_after.granted - admission_before.granted)
            + (admission_after.shrunk - admission_before.shrunk)
            + (admission_after.shed - admission_before.shed);
        println!(
            "check: {} regions ({:.0}/s), {} ok, {} injected panics, {} deadline timeouts, \
             {} unexpected; admission decisions {}; mpi {}/10 recovered, {} typed permanent",
            row.regions,
            row.regions_per_sec,
            row.ok,
            row.injected_panics,
            row.deadline_timeouts,
            row.unexpected,
            admitted,
            recovered,
            typed_permanent
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
        if recovered != 10 {
            failures.push(format!("mpi recovered {recovered}/10 lossy rounds"));
        }
        if typed_permanent == 0 {
            failures.push("dead rank produced no typed RetriesExhausted".into());
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
    let (recovered, typed_permanent) = mpi_chaos(5);
    let admission = pool::admission_stats();
    let watchdog = pool::watchdog_stats();
    let trace = probe.finish();

    if json {
        let body = rows
            .iter()
            .map(SweepRow::json)
            .collect::<Vec<_>>()
            .join(",\n  ");
        let trace_member = trace
            .as_ref()
            .map(|t| format!(",\n \"trace\": {}", t.json()))
            .unwrap_or_default();
        println!(
            "{{\n \"benchmark\": \"serve\",\n \
             \"seconds_per_cell\": {seconds},\n \"sweep\": [\n  \
             {body}\n ],\n \"mpi\": {{\"lossy_rounds_recovered\": {recovered}, \
             \"typed_permanent_failures\": {typed_permanent}}},\n \"admission\": \
             {{\"granted\": {}, \"shrunk\": {}, \"shed\": {}}},\n \"watchdog\": \
             {{\"stalls\": {}, \"cancels\": {}}}{trace_member}\n}}",
            admission.granted, admission.shrunk, admission.shed, watchdog.stalls, watchdog.cancels
        );
    } else {
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
            "admission: {} granted, {} shrunk, {} shed; watchdog: {} stalls, {} cancels; \
             mpi: {recovered}/5 lossy rounds recovered, {typed_permanent} typed permanent failures",
            admission.granted, admission.shrunk, admission.shed, watchdog.stalls, watchdog.cancels
        );
        if let Some(report) = &trace {
            println!("{}", report.line());
        }
    }
}
