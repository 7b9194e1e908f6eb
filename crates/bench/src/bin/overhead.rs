//! Trace-overhead microbenchmark: what does the OMPT-style profiler cost,
//! and how much event traffic can the trace pipeline sustain?
//!
//! Two sections:
//!
//! 1. **A/B overhead.** Runs an event-dense workload — a
//!    `schedule(dynamic, 1)` parallel loop whose every chunk claim and
//!    completion is an event, plus the region's barriers — once with the
//!    profiler enabled and once disabled, several trials each, and reports
//!    events/sec, per-event overhead, and the disabled-run invariant
//!    (**zero** events recorded). The enabled runs' rings hold a whole
//!    trial, so no event is dropped and the per-event figure divides by
//!    every event recorded, not only the ones a full ring let through.
//! 2. **Sustained throughput.** Runs the same event-dense regions for a
//!    fixed wall-clock window through the full production pipeline —
//!    bounded per-thread rings, the dedicated flusher, the collector, and one
//!    trace file written by [`ompt::finalize`] — and reports events/sec
//!    drained, events dropped by full rings (drop-newest), the ring-memory
//!    bound (`rings × capacity × sizeof(Event)`), the trace file's size (the
//!    collected stream is *not* bounded: it grows with the window), and
//!    whether a lossy run's `omp4rs.trace.dropped` counter landed in the
//!    trace footer.
//!
//! ```text
//! overhead [--trials N] [--iters N] [--ring N] [--sustained-ms N] [--check]
//! ```
//!
//! `--check` exits nonzero unless (a) disabled runs record no events,
//! (b) an enabled run's Chrome-trace dump passes the shape validator and its
//! trials dropped no event, and (c) the sustained run on a tiny ring reports
//! its drops in both the stats and the trace footer, and its trace file
//! validates. For (c) the flusher
//! is paused during the run ([`ompt::set_flusher_paused`]) so the tiny ring
//! deterministically overflows.

use omp4rs::exec::{parallel, ForSpec};
use omp4rs::ompt;
use omp4rs_bench::cli::Spec;

const SPEC: Spec = Spec {
    usage: "usage: overhead [--trials N] [--iters N] [--ring N] [--sustained-ms N] [--check]",
    switches: &["--check"],
    options: &["--trials", "--iters", "--ring", "--sustained-ms"],
    positional: 0..=0,
};

/// The event-dense region: a `dynamic,1` loop recording two events per
/// iteration plus the region's begin/end/barrier events.
fn run_region(iters: i64, threads: usize) {
    let sink = std::sync::atomic::AtomicU64::new(0);
    parallel(&format!("num_threads({threads})"), |ctx| {
        let mut local = 0u64;
        ctx.for_range(
            ForSpec::parse("schedule(dynamic, 1)").expect("valid spec"),
            (0, iters, 1),
            |i| {
                local = local.wrapping_add(i as u64);
            },
        );
        sink.fetch_add(local, std::sync::atomic::Ordering::Relaxed);
    });
    std::hint::black_box(sink.into_inner());
}

/// One timed run of the event-dense loop; returns (seconds, events recorded).
fn run_once(iters: i64, threads: usize) -> (f64, usize) {
    let before = ompt::events().len();
    let start = std::time::Instant::now();
    run_region(iters, threads);
    let seconds = start.elapsed().as_secs_f64();
    (seconds, ompt::events().len() - before)
}

fn mean_sigma(xs: &[f64]) -> (f64, f64) {
    let n = xs.len().max(1) as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// One sustained-throughput measurement through the full pipeline.
struct Sustained {
    ring: usize,
    seconds: f64,
    flushed: u64,
    dropped: u64,
    rings: usize,
    bounded_bytes: usize,
    trace_bytes: usize,
    trace_valid: bool,
    footer_drops: bool,
}

impl Sustained {
    fn events_per_sec(&self) -> f64 {
        self.flushed as f64 / self.seconds.max(1e-12)
    }
}

/// Run event-dense regions through a session writing one trace file for
/// `ms` of wall-clock, then finalize and inspect the file.
///
/// `pause_flusher` holds the dedicated flusher off during the measurement so
/// a tiny ring deterministically overflows (`--check` uses it); inline
/// region-end drains still feed the collector, and shutdown drains
/// everything that remains.
fn sustained_run(
    ring: usize,
    threads: usize,
    ms: u64,
    iters: i64,
    pause_flusher: bool,
) -> Sustained {
    let path = std::env::temp_dir().join(format!("overhead_sustained_{}.json", std::process::id()));
    let session = ompt::session(ompt::ToolConfig {
        trace_path: Some(path.display().to_string()),
        summary: false,
        ring_capacity: ring,
    });
    ompt::set_flusher_paused(pause_flusher);
    let start = std::time::Instant::now();
    let deadline = start + std::time::Duration::from_millis(ms);
    while std::time::Instant::now() < deadline {
        run_region(iters, threads);
    }
    let seconds = start.elapsed().as_secs_f64();
    ompt::set_flusher_paused(false);
    let stats = ompt::ring_stats();
    let written = ompt::finalize().expect("trace file writable");
    drop(session);

    let text = written
        .and_then(|p| std::fs::read_to_string(p).ok())
        .unwrap_or_default();
    let _ = std::fs::remove_file(&path);
    Sustained {
        ring,
        seconds,
        flushed: stats.flushed,
        dropped: stats.dropped,
        rings: stats.rings,
        bounded_bytes: stats.bounded_bytes(),
        trace_bytes: text.len(),
        trace_valid: ompt::validate_chrome_trace(&text).is_ok(),
        footer_drops: text.contains("\"omp4rs.trace.dropped\""),
    }
}

fn main() {
    let args = SPEC.parse();
    let check = args.switch("--check");
    let trials = args.get("--trials", 7usize).max(2);
    let iters = i64::from(args.get("--iters", 20_000u32));
    let ring = args
        .get("--ring", if check { 256usize } else { 2048 })
        .max(1);
    // With the flusher live, the collected stream (and the validator's parse
    // of the trace file) grows with the window by ~100 MB/s on a 2-CPU host:
    // keep the default window short.
    let sustained_ms: u64 = args.get("--sustained-ms", if check { 300 } else { 100 });
    let threads = 4;

    println!(
        "profiler overhead: {trials} trials, dynamic,1 loop of {iters} iters, {threads} threads"
    );

    // Warm up thread pools and code paths outside any session.
    {
        let _s = ompt::disabled_session();
        run_once(iters, threads);
    }

    // Disabled runs: must record nothing; establishes the baseline time.
    let mut disabled_secs = Vec::with_capacity(trials);
    let mut disabled_events = 0usize;
    {
        let _s = ompt::disabled_session();
        for _ in 0..trials {
            let (secs, events) = run_once(iters, threads);
            disabled_secs.push(secs);
            disabled_events += events;
        }
    }

    // Enabled runs: count events and wall-clock. One trial is one region,
    // and every team thread drains its ring at region exit, so a ring that
    // holds one thread's share of a trial never drops: at most 2 events per
    // iteration (chunk claim and done, if one thread ran them all) plus the
    // region's own begin/end/barrier events.
    let ab_ring = 2 * iters as usize + 64;
    let trace_path = std::env::temp_dir().join("overhead_trace.json");
    let mut enabled_secs = Vec::with_capacity(trials);
    let mut enabled_events = Vec::with_capacity(trials);
    let trace_result;
    let enabled_dropped;
    {
        let session = ompt::session(ompt::ToolConfig {
            trace_path: Some(trace_path.display().to_string()),
            summary: false,
            ring_capacity: ab_ring,
        });
        for _ in 0..trials {
            let (secs, events) = run_once(iters, threads);
            enabled_secs.push(secs);
            enabled_events.push(events as f64);
        }
        trace_result = ompt::validate_chrome_trace(&session.chrome_trace());
        enabled_dropped = ompt::dropped_events();
    }

    let (dis_mean, dis_sigma) = mean_sigma(&disabled_secs);
    let (en_mean, en_sigma) = mean_sigma(&enabled_secs);
    let (ev_mean, ev_sigma) = mean_sigma(&enabled_events);
    let rate: Vec<f64> = enabled_secs
        .iter()
        .zip(&enabled_events)
        .map(|(s, e)| e / s.max(1e-12))
        .collect();
    let (rate_mean, rate_sigma) = mean_sigma(&rate);
    let delta = (en_mean - dis_mean).max(0.0);
    let per_event_ns = if ev_mean > 0.0 {
        delta / ev_mean * 1e9
    } else {
        0.0
    };

    println!(
        "  disabled: {:.3} ± {:.3} ms/run, {} events recorded",
        dis_mean * 1e3,
        dis_sigma * 1e3,
        disabled_events
    );
    println!(
        "  enabled:  {:.3} ± {:.3} ms/run, {:.0} ± {:.0} events/run, {} dropped in all",
        en_mean * 1e3,
        en_sigma * 1e3,
        ev_mean,
        ev_sigma,
        enabled_dropped
    );
    println!(
        "  rate:     {:.0} ± {:.0} events/sec while enabled",
        rate_mean, rate_sigma
    );
    println!(
        "  overhead: {:+.1}% wall-clock ({:.0} ns per recorded event)",
        100.0 * delta / dis_mean.max(1e-12),
        per_event_ns
    );
    match &trace_result {
        Ok(stats) => println!(
            "  trace:    {} events, {} counters — valid Chrome trace",
            stats.events, stats.counters
        ),
        Err(e) => println!("  trace:    INVALID: {e}"),
    }

    // Sustained throughput through the full pipeline (rings -> flusher ->
    // collector -> one trace file). Under --check the flusher is paused so
    // the tiny ring must overflow and drop.
    println!("sustained pipeline throughput: ring={ring} events/thread, {sustained_ms} ms");
    let row = sustained_run(ring, threads, sustained_ms, iters, check);
    println!(
        "  drop-newest {:>9.0} events/sec drained, {:>7} dropped, {} rings x {} cap = {:.0} KiB bound, trace file {:.0} KiB{}{}",
        row.events_per_sec(),
        row.dropped,
        row.rings,
        row.ring,
        row.bounded_bytes as f64 / 1024.0,
        row.trace_bytes as f64 / 1024.0,
        if row.trace_valid { "" } else { " [INVALID TRACE]" },
        if row.footer_drops { " [drops in footer]" } else { "" }
    );

    if check {
        let mut failed = false;
        if disabled_events != 0 {
            eprintln!("CHECK FAILED: disabled profiler recorded {disabled_events} events");
            failed = true;
        }
        if ev_mean <= 0.0 {
            eprintln!("CHECK FAILED: enabled profiler recorded no events");
            failed = true;
        }
        if let Err(e) = &trace_result {
            eprintln!("CHECK FAILED: Chrome trace did not validate: {e}");
            failed = true;
        }
        if enabled_dropped != 0 {
            eprintln!(
                "CHECK FAILED: the A/B trials dropped {enabled_dropped} events on \
                 {ab_ring}-slot rings (the per-event cost would skip them)"
            );
            failed = true;
        }
        if row.flushed == 0 {
            eprintln!("CHECK FAILED: the sustained run drained no events through the pipeline");
            failed = true;
        }
        if !row.trace_valid {
            eprintln!("CHECK FAILED: the sustained run's trace file is missing or invalid");
            failed = true;
        }
        if row.dropped == 0 {
            eprintln!(
                "CHECK FAILED: a {ring}-slot ring with the flusher paused dropped nothing \
                 (overflow never engaged?)"
            );
            failed = true;
        }
        if !row.footer_drops {
            eprintln!(
                "CHECK FAILED: {} events dropped but the trace footer has no \
                 omp4rs.trace.dropped entry",
                row.dropped
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "  check:    OK (disabled records nothing; enabled trace validates and \
             drops nothing; drop-newest drops surface in stats + footer)"
        );
    }
}
