//! Deterministic tests for the bounded trace pipeline (`omp4rs::ompt`):
//! exact drop-newest behavior on tiny rings, on a live ring and on the ring
//! of a thread that has exited, loss accounting in `ring_stats`/trace
//! footers, and the flusher lifecycle around `finalize`.
//!
//! Determinism comes from [`ompt::set_flusher_paused`]: with the dedicated
//! flusher held off, a capacity-`N` ring receiving `M > N` events must drop
//! exactly the last `M - N` of them.

use omp4rs::ompt::{self, EventKind, ToolConfig};

/// Record `n` distinguishable events on this thread (the payload indexes
/// them so tests can see *which* events a full ring kept).
fn record_indexed(n: u64) {
    for i in 0..n {
        ompt::record(1, EventKind::BarrierExit { wait_ns: i });
    }
}

/// The `wait_ns` payloads that survived, in drain order.
fn surviving_indexes() -> Vec<u64> {
    ompt::events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::BarrierExit { wait_ns } => Some(wait_ns),
            _ => None,
        })
        .collect()
}

#[test]
fn drop_newest_keeps_the_oldest_events_and_counts_exactly() {
    let _s = ompt::session(ToolConfig {
        ring_capacity: 4,
        ..ToolConfig::default()
    });
    ompt::set_flusher_paused(true);
    record_indexed(10);
    assert_eq!(ompt::dropped_events(), 6, "exactly M - N events dropped");
    assert_eq!(
        surviving_indexes(),
        vec![0, 1, 2, 3],
        "arrivals kept in order"
    );
    let stats = ompt::ring_stats();
    assert_eq!(stats.dropped, 6);
    assert_eq!(stats.capacity, 4);
    assert!(stats.bounded_bytes() > 0);
}

#[test]
fn flusher_runs_during_a_session_and_stops_before_summary_artifacts() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "trace_pipeline_flusher_{}.json",
        std::process::id()
    ));
    let path = path.display().to_string();
    let _s = ompt::session(ToolConfig {
        trace_path: Some(path.clone()),
        summary: false,
        ..ToolConfig::default()
    });
    assert!(ompt::flusher_running(), "enable spawns the flusher");

    record_indexed(100);
    // The flusher drains rings on its own: flushed grows without this test
    // ever calling `events()`.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while ompt::ring_stats().flushed < 100 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert!(
        ompt::ring_stats().flushed >= 100,
        "flusher drained the ring"
    );

    let written = ompt::finalize()
        .expect("trace writable")
        .expect("path configured");
    assert!(
        !ompt::flusher_running(),
        "finalize stops the flusher before rendering artifacts"
    );
    let text = std::fs::read_to_string(&written).expect("trace file readable");
    ompt::validate_chrome_trace(&text).expect("trace is valid");
    let _ = std::fs::remove_file(&written);
}

#[test]
fn lossy_run_stamps_drop_counter_into_the_trace_footer() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("trace_pipeline_footer_{}.json", std::process::id()));
    let path = path.display().to_string();
    let _s = ompt::session(ToolConfig {
        trace_path: Some(path.clone()),
        summary: false,
        ring_capacity: 4,
    });
    ompt::set_flusher_paused(true);
    record_indexed(10);
    let written = ompt::finalize()
        .expect("trace writable")
        .expect("path configured");
    let text = std::fs::read_to_string(&written).expect("trace file readable");
    assert!(
        text.contains("\"omp4rs.trace.dropped\""),
        "truncation is never silent: the footer carries the drop counter"
    );
    assert!(
        ompt::summary().contains("trace ring overflow"),
        "the summary banner flags the loss too"
    );
    let _ = std::fs::remove_file(&written);
}

#[test]
fn an_exited_threads_drops_are_counted_exactly() {
    let path = std::env::temp_dir().join(format!(
        "trace_pipeline_retired_{}.json",
        std::process::id()
    ));
    let path = path.display().to_string();
    let _s = ompt::session(ToolConfig {
        trace_path: Some(path.clone()),
        summary: false,
        ring_capacity: 4,
    });
    ompt::set_flusher_paused(true);
    // The recorder's ring is retired when the thread exits: its survivors
    // are drained and its drop count carried over to the process total.
    std::thread::spawn(|| record_indexed(10))
        .join()
        .expect("recorder thread");
    assert_eq!(ompt::dropped_events(), 6, "exactly M - N events dropped");
    assert_eq!(ompt::ring_stats().dropped, 6);
    assert_eq!(
        surviving_indexes(),
        vec![0, 1, 2, 3],
        "arrivals kept in order"
    );
    let written = ompt::finalize()
        .expect("trace writable")
        .expect("path configured");
    let text = std::fs::read_to_string(&written).expect("trace file readable");
    assert!(
        text.contains("\"omp4rs.trace.dropped\":6"),
        "the footer carries the exact drop count"
    );
    let _ = std::fs::remove_file(&written);
}
