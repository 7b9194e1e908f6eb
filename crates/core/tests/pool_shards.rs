//! Sharded-pool lifecycle: stealing, migration, and per-team poisoning,
//! end to end through `parallel_region` with the pool pinned to two shards.
//!
//! This binary is its own process, so it can fix the shard count before the
//! pool's `OnceLock` first fires: every test funnels through [`setup`],
//! which forces `pool_shards = 2` into the ICVs and then touches the pool.
//! (`scripts/ci.sh` additionally re-runs the `pool_lifecycle` suite under
//! `OMP4RS_POOL_SHARDS=2/4/8` to cover the invariants there at other
//! counts; this file covers the behaviours that *only exist* with > 1
//! shard.)

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

use omp4rs::exec::{parallel_region, ParallelConfig};
use omp4rs::{pool, Backend, Icvs};

fn cfg(threads: usize) -> ParallelConfig {
    ParallelConfig::new()
        .num_threads(threads)
        .backend(Backend::Atomic)
}

/// Pin the pool to exactly two shards, before anything initializes it.
fn setup() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        Icvs::update(|icvs| icvs.pool_shards = Some(2));
        assert_eq!(
            pool::shard_count(),
            2,
            "this suite requires first pool use to happen here"
        );
    });
    assert_eq!(pool::shard_count(), 2);
}

/// Run one region on a brand-new OS thread: a fresh thread gets the next
/// master id, so consecutive calls land on alternating home shards.
fn region_on_fresh_thread(threads: usize) {
    std::thread::spawn(move || {
        parallel_region(&cfg(threads), |_ctx| {});
    })
    .join()
    .expect("region thread must not panic");
}

/// The configured shard count is respected (and frozen at first use).
#[test]
fn shard_count_matches_the_icv() {
    setup();
}

/// Cross-shard stealing actually fires: masters homed on different shards
/// keep docking workers on both sides, so a dispatch whose home shard is
/// dry must eventually serve itself from the sibling — visible as the
/// `steal` counter moving (and `spawn` staying bounded).
#[test]
fn cross_shard_stealing_fires() {
    setup();
    for round in 0..200 {
        // Each fresh thread gets a new master id, alternating home shards.
        // A team that needs more workers than are docked in the whole pool
        // drains its home shard, so any worker docked on the sibling must
        // be stolen. A fixed-size team would not do: once both shards hold
        // enough docked workers (a slow dock makes a round spawn on the
        // other side, and sibling tests stock both shards), every home pop
        // is served locally and stealing never fires again.
        let docked = docked_workers();
        region_on_fresh_thread(docked + 2);
        if pool::shard_stats().steal > 0 {
            return;
        }
        assert!(round < 199, "stealing never fired across 200 rounds");
    }
}

/// Wait up to a second for at least one pooled worker to dock, and return
/// the docked count (advisory: it can change right after).
fn docked_workers() -> usize {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
    loop {
        let docked = pool::idle_workers();
        if docked > 0 || std::time::Instant::now() >= deadline {
            return docked;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// A master whose gang contains stolen (migrated) workers must still reach
/// them by gang affinity: its immediate next region re-binds the same
/// workers without spawning, no matter which shard they now call home.
#[test]
fn gang_affinity_survives_shard_migration() {
    setup();
    // Exercised on a fresh thread so its first region plausibly steals
    // (its home shard starts empty); the second region must reuse the
    // gang either way. Retries absorb other tests racing workers away.
    for round in 0.. {
        let reused = std::thread::spawn(|| {
            parallel_region(&cfg(3), |_ctx| {});
            let before = pool::stats();
            parallel_region(&cfg(3), |_ctx| {});
            let after = pool::stats();
            after.reuse > before.reuse && after.spawn == before.spawn
        })
        .join()
        .expect("region thread must not panic");
        if reused {
            return;
        }
        assert!(round < 20, "a migrated gang was never re-bound by affinity");
    }
}

/// A worker panic poisons its own team only: the shard keeps serving other
/// (and subsequent) regions at full size.
#[test]
fn worker_panic_poisons_team_not_shard() {
    setup();
    let result = catch_unwind(AssertUnwindSafe(|| {
        parallel_region(&cfg(4), |ctx| {
            if ctx.thread_num() == 3 {
                panic!("poisoned team, not a poisoned shard");
            }
        });
    }));
    assert!(result.is_err(), "the panic must re-raise on the master");
    // The very next regions — from this thread and from a fresh master on
    // the other home shard — must both get full teams.
    let hits = AtomicUsize::new(0);
    parallel_region(&cfg(4), |_ctx| {
        hits.fetch_add(1, Ordering::SeqCst);
    });
    assert_eq!(hits.load(Ordering::SeqCst), 4, "same-master region");
    let hits = std::thread::spawn(|| {
        let hits = AtomicUsize::new(0);
        parallel_region(&cfg(4), |_ctx| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        hits.into_inner()
    })
    .join()
    .expect("region thread must not panic");
    assert_eq!(hits, 4, "fresh-master region on the sibling shard");
}

/// The sharded admission counters stay conservation-correct: charges and
/// releases across shards (with reservoir folds in between) cancel out.
#[test]
fn sharded_admission_charges_balance() {
    setup();
    let spread: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(|| {
                // Each fresh thread charges its own home shard; the drops
                // release on the same thread. Folds happen when a slice
                // crosses the batch.
                for _ in 0..50 {
                    parallel_region(&cfg(3), |_ctx| {});
                }
            })
        })
        .collect();
    for h in spread {
        h.join().expect("charge thread must not panic");
    }
    // Quiesced (modulo other tests): the visible in-flight total must not
    // have leaked upward past what live regions explain. Sample for a
    // moment of calm rather than asserting an instant.
    for round in 0.. {
        if pool::admission_stats().inflight <= 8 {
            return;
        }
        assert!(round < 100, "in-flight charge leaked");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}
