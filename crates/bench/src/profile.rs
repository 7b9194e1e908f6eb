//! `--profile` support for the figure binaries.
//!
//! `main`, the `figure*` binaries and `gil_ablation` accept a `--profile`
//! flag (equivalent to setting `OMP_TOOL=summary,trace:trace_<label>.json`):
//! the run executes with the [`omp4rs::ompt`] profiler armed, and on exit
//! writes a Chrome-trace JSON file next to the figure output plus a
//! per-region summary on stderr. Load the trace in `chrome://tracing` / Perfetto to see
//! barriers, chunks, and tasks per team thread.
//!
//! ```text
//! figure5 --profile            # emits trace_figure5.json + summary
//! OMP_TOOL=trace:my.json main 0 pi 4   # same, via the environment
//! ```
//!
//! A binary that lists `--profile` among its [`Spec`](crate::cli::Spec)
//! switches arms it with [`Args::profile`](crate::cli::Args::profile),
//! which calls [`begin`], and calls [`Profile::finish`] after the run:
//!
//! ```no_run
//! // What `Args::profile` does for a binary given `--profile`.
//! let profile = omp4rs_bench::profile::begin(true, "figure5");
//! // ... run the figure ...
//! profile.finish();
//! ```

/// Handle returned by [`begin`]; call [`Profile::finish`] after the run.
#[must_use = "call finish() after the run to emit the trace and summary"]
pub struct Profile {
    label: &'static str,
    /// Whether `begin` armed (or found armed) the profiler.
    active: bool,
}

/// Arm the profiler if `flagged` (the binary was given `--profile`) or if
/// `OMP_TOOL` already enabled it. Also arms the interpreter-side GIL and
/// object-lock counters so Pure-mode runs show their contention.
pub fn begin(flagged: bool, label: &'static str) -> Profile {
    omp4rs::ompt::ensure_env_init();
    if flagged && !omp4rs::ompt::enabled() {
        omp4rs::ompt::enable(omp4rs::ompt::ToolConfig {
            trace_path: Some(format!("trace_{label}.json")),
            summary: true,
            ..Default::default()
        });
    }
    let active = omp4rs::ompt::enabled();
    if active {
        minipy::stats::set_enabled(true);
        minipy::stats::reset();
        omp4rs::ompt::reset();
    }
    Profile { label, active }
}

impl Profile {
    /// Whether this run is being profiled.
    pub fn active(&self) -> bool {
        self.active
    }

    /// Publish interpreter counters, emit the configured outputs, and
    /// self-check the written trace. Does nothing on unprofiled runs.
    pub fn finish(self) {
        if !self.active {
            return;
        }
        let stats = minipy::stats::snapshot();
        omp4rs::ompt::set_counter("minipy.gil.acquisitions", stats.gil_acquisitions);
        omp4rs::ompt::set_counter("minipy.gil.hold_ns", stats.gil_hold_ns);
        omp4rs::ompt::set_counter("minipy.obj_lock.acquisitions", stats.obj_lock_acquisitions);
        omp4rs::ompt::set_counter("minipy.obj_lock.contended", stats.obj_lock_contended);
        omp4rs::ompt::set_counter("minipy.vm.compiles", stats.vm_compiles);
        omp4rs::ompt::set_counter("minipy.vm.compile_ns", stats.vm_compile_ns);
        omp4rs::ompt::set_counter("minipy.vm.fallbacks", stats.vm_fallbacks);
        omp4rs::ompt::set_counter("minipy.vm.frames", stats.vm_frames);
        omp4rs::ompt::set_counter("minipy.vm.ops", stats.vm_ops);
        omp4rs::ompt::set_counter("minipy.vm.quicken.rewrites", stats.quicken_rewrites);
        omp4rs::ompt::set_counter("minipy.vm.quicken.deopts", stats.quicken_deopts);
        omp4rs::ompt::set_counter("minipy.vm.ic.hits", stats.ic_hits);
        omp4rs::ompt::set_counter("minipy.vm.ic.misses", stats.ic_misses);
        match omp4rs::ompt::finalize() {
            Ok(Some(path)) => {
                match std::fs::read_to_string(&path)
                    .map_err(|e| e.to_string())
                    .and_then(|text| omp4rs::ompt::validate_chrome_trace(&text))
                {
                    Ok(ts) => eprintln!(
                        "[{}] wrote {path}: {} trace events, {} counters",
                        self.label, ts.events, ts.counters
                    ),
                    Err(e) => eprintln!(
                        "[{}] wrote {path}, but it failed validation: {e}",
                        self.label
                    ),
                }
            }
            Ok(None) => {}
            Err(e) => eprintln!("[{}] could not write trace: {e}", self.label),
        }
    }
}
