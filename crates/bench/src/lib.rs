//! # omp4rs-bench — the harness that regenerates the paper's evaluation
//!
//! Binaries (one per table/figure — see DESIGN.md §4):
//!
//! * `main` — the artifact-style CLI: `main <mode> <test> <threads> [scale]`
//! * `table1` — static benchmark characteristics (Table I)
//! * `figure5` — numerical-application scalability, 5 systems
//! * `figure6` — clustering & wordcount scalability, 4 OMP4Py modes
//! * `figure7` — scheduling-policy speedups (static/dynamic/guided)
//! * `figure8` — hybrid MPI/OpenMP jacobi across nodes
//! * `figure_tasks` — the task-dependence suite (beyond the paper)
//! * `gil_ablation` — GIL vs free-threading (the paper's §I motivation)
//! * `syncbench`, `overhead`, `soak` — construct overheads, profiler cost
//!   and chaos resilience, each with a `--check` contract
//!
//! Every binary parses its command line with [`cli`]: an unknown flag or a
//! malformed value exits 2 with the binary's usage.
//!
//! # Methodology on a small host
//!
//! The paper's testbed is a 32-core Xeon. On hosts with fewer cores the
//! harness reports **measured** numbers for everything core-count-independent
//! (per-iteration costs per mode — the Pure/Hybrid/Compiled/CompiledDT
//! ordering and gaps; correctness at any thread count), and regenerates the
//! **thread-scaling curves** with `simcore`, which replays the runtime's
//! scheduling algorithms on a virtual 32-core machine using those measured
//! costs. Calibration details live in [`calibrate`]; per-benchmark workload
//! shapes in [`figures`].

// Public API items carry doc comments; enum struct-variant fields are
// documented at the variant level.
#![warn(missing_docs)]
#![allow(missing_docs)]

pub mod calibrate;
pub mod cli;
pub mod figures;
pub mod profile;

/// Serializes the unit tests that time real work, so one timing test's
/// threads never compete with another's for this host's CPUs.
#[cfg(test)]
pub(crate) fn timing_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Median of a sample vector (sorts in place); `NaN` for no samples.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

pub use calibrate::{measure_primitives, PrimitiveCosts};
pub use figures::{
    sim_sweep, sim_sweep_report, workload_for, AppKind, MeasuredCost, SWEEP_THREADS,
};
