//! The OpenMP 3.0 runtime library API (`omp_*` functions).
//!
//! These are free functions mirroring the C API names, backed by the global
//! ICVs ([`crate::icv::Icvs`]) and the per-thread context
//! ([`crate::context`]). The interpreter bridge re-exports them to
//! interpreted code under the same names.

use std::sync::OnceLock;
use std::time::Instant;

use crate::context;
use crate::directive::ScheduleKind;
use crate::icv::{available_parallelism, Icvs};

/// `omp_set_num_threads`: set the default team size (`nthreads-var`).
pub fn omp_set_num_threads(n: usize) {
    if n > 0 {
        Icvs::update(|icvs| icvs.num_threads = n);
    }
}

/// `omp_get_num_threads`: size of the current team (1 outside parallel).
pub fn omp_get_num_threads() -> usize {
    context::num_threads()
}

/// `omp_get_max_threads`: team size the next `parallel` would use.
pub fn omp_get_max_threads() -> usize {
    Icvs::with(|icvs| icvs.num_threads)
}

/// `omp_get_thread_num`: this thread's number in the current team.
pub fn omp_get_thread_num() -> usize {
    context::thread_num()
}

/// `omp_get_num_procs`: available hardware parallelism.
pub fn omp_get_num_procs() -> usize {
    available_parallelism()
}

/// `omp_in_parallel`: whether an enclosing *active* parallel region exists.
pub fn omp_in_parallel() -> bool {
    context::in_parallel()
}

/// `omp_set_dynamic` (`dyn-var`): allow the runtime to grant fewer threads
/// than requested when the worker pool is under pressure.
///
/// With `dyn-var` true, every top-level pooled region passes admission
/// control: the runtime compares the requested team size against the
/// process-wide concurrency budget (`thread-limit-var` when set, otherwise a
/// multiple of the host parallelism) minus the threads already in flight.
/// Oversubscribed requests are **shrunk** to the remaining budget, and when
/// no budget remains at all the region is **shed** to caller-runs-serial
/// (team size 1). The decisions are observable as the
/// `omp4rs.admission.{granted,shrunk,shed}` counters. With `dyn-var` false
/// (the default) the requested size is always granted, exactly as before.
pub fn omp_set_dynamic(dynamic: bool) {
    Icvs::update(|icvs| icvs.dynamic = dynamic);
}

/// `omp_get_dynamic`.
pub fn omp_get_dynamic() -> bool {
    Icvs::with(|icvs| icvs.dynamic)
}

/// `omp_set_nested` (`nest-var`): enable nested parallel regions.
pub fn omp_set_nested(nested: bool) {
    Icvs::update(|icvs| icvs.nested = nested);
}

/// `omp_get_nested`.
pub fn omp_get_nested() -> bool {
    Icvs::with(|icvs| icvs.nested)
}

/// `omp_set_schedule`: set the `schedule(runtime)` policy.
pub fn omp_set_schedule(kind: ScheduleKind, chunk: Option<u64>) {
    Icvs::update(|icvs| icvs.run_schedule = (kind, chunk));
}

/// `omp_get_schedule`.
pub fn omp_get_schedule() -> (ScheduleKind, Option<u64>) {
    Icvs::with(|icvs| icvs.run_schedule)
}

/// `omp_get_thread_limit`.
pub fn omp_get_thread_limit() -> usize {
    Icvs::with(|icvs| icvs.thread_limit)
}

/// Set the per-region deadline (omp4rs extension, mirrors
/// `OMP4RS_REGION_DEADLINE`).
///
/// When set, every blocking wait inside a parallel region — barriers,
/// `single`/`critical` acquisition, `taskwait`, lock acquisition — is bounded
/// by the deadline measured from region entry. A wait that exceeds it poisons
/// the region exactly like a panicking team thread and surfaces
/// [`crate::error::OmpError::RegionTimeout`] on the joining thread. `None`
/// (the default) restores unbounded waits.
pub fn omp_set_region_deadline(deadline: Option<std::time::Duration>) {
    Icvs::update(|icvs| icvs.region_deadline = deadline);
}

/// Read back the per-region deadline set by [`omp_set_region_deadline`] or
/// `OMP4RS_REGION_DEADLINE`.
pub fn omp_get_region_deadline() -> Option<std::time::Duration> {
    Icvs::with(|icvs| icvs.region_deadline)
}

/// `omp_get_cancellation` (`cancel-var`): whether `cancel` directives are
/// honoured. Controlled by `OMP_CANCELLATION`; there is no spec setter, but
/// tests may flip it through [`Icvs::update`].
pub fn omp_get_cancellation() -> bool {
    Icvs::with(|icvs| icvs.cancellation)
}

/// `omp_set_max_active_levels`.
pub fn omp_set_max_active_levels(levels: usize) {
    Icvs::update(|icvs| icvs.max_active_levels = levels);
}

/// `omp_get_max_active_levels`.
pub fn omp_get_max_active_levels() -> usize {
    Icvs::with(|icvs| icvs.max_active_levels)
}

/// `omp_get_level`: nesting depth of parallel regions (active or not).
pub fn omp_get_level() -> usize {
    context::level()
}

/// `omp_get_active_level`: nesting depth of *active* parallel regions.
pub fn omp_get_active_level() -> usize {
    context::active_level()
}

/// `omp_get_ancestor_thread_num(level)`; -1 if the level does not exist.
pub fn omp_get_ancestor_thread_num(level: i64) -> i64 {
    context::ancestor_thread_num(level)
}

/// `omp_get_team_size(level)`; -1 if the level does not exist.
pub fn omp_get_team_size(level: i64) -> i64 {
    context::team_size(level)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// `omp_get_wtime`: monotonic wall-clock seconds (per-process epoch).
pub fn omp_get_wtime() -> f64 {
    epoch().elapsed().as_secs_f64()
}

/// `omp_get_wtick`: timer resolution in seconds.
pub fn omp_get_wtick() -> f64 {
    // `Instant` is nanosecond-resolution on the supported platforms.
    1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outside_parallel_defaults() {
        assert_eq!(omp_get_thread_num(), 0);
        assert_eq!(omp_get_num_threads(), 1);
        assert!(!omp_in_parallel());
        assert_eq!(omp_get_level(), 0);
        assert_eq!(omp_get_active_level(), 0);
        assert_eq!(omp_get_ancestor_thread_num(0), 0);
        assert_eq!(omp_get_ancestor_thread_num(1), -1);
        assert_eq!(omp_get_team_size(0), 1);
        assert_eq!(omp_get_team_size(3), -1);
        assert!(omp_get_num_procs() >= 1);
    }

    #[test]
    fn num_threads_round_trip() {
        let _guard = crate::icv::test_guard();
        let before = Icvs::current();
        omp_set_num_threads(6);
        assert_eq!(omp_get_max_threads(), 6);
        omp_set_num_threads(0); // ignored, like a conforming implementation
        assert_eq!(omp_get_max_threads(), 6);
        Icvs::reset(before);
    }

    #[test]
    fn schedule_round_trip() {
        let _guard = crate::icv::test_guard();
        let before = Icvs::current();
        omp_set_schedule(ScheduleKind::Guided, Some(8));
        assert_eq!(omp_get_schedule(), (ScheduleKind::Guided, Some(8)));
        Icvs::reset(before);
    }

    #[test]
    fn nested_and_dynamic_flags() {
        let _guard = crate::icv::test_guard();
        let before = Icvs::current();
        omp_set_nested(true);
        assert!(omp_get_nested());
        omp_set_dynamic(true);
        assert!(omp_get_dynamic());
        Icvs::reset(before);
    }

    #[test]
    fn region_deadline_round_trip() {
        let _guard = crate::icv::test_guard();
        let before = Icvs::current();
        assert_eq!(omp_get_region_deadline(), None);
        omp_set_region_deadline(Some(std::time::Duration::from_millis(250)));
        assert_eq!(
            omp_get_region_deadline(),
            Some(std::time::Duration::from_millis(250))
        );
        omp_set_region_deadline(None);
        assert_eq!(omp_get_region_deadline(), None);
        Icvs::reset(before);
    }

    #[test]
    fn wtime_is_monotone() {
        let t0 = omp_get_wtime();
        let t1 = omp_get_wtime();
        assert!(t1 >= t0);
        assert!(omp_get_wtick() > 0.0);
    }
}
