//! End-to-end profiling walkthrough: run the paper's π benchmark in Pure
//! (interpreted + mutex runtime) and Compiled (native closures) modes with
//! the OMPT-inspired profiler armed, print each run's per-region summary,
//! and write Chrome-trace JSON files you can open in `chrome://tracing` or
//! Perfetto.
//!
//! Run with: `cargo run --release --example profiling [n] [threads]`
//!
//! The same data is available without code changes via the environment —
//! `OMP_TOOL=summary,trace:pi.json cargo run --example pi_directives` — and
//! from inside interpreted programs via `omp4py`'s `ompt_summary()` /
//! `ompt_counters()`. See docs/ENVIRONMENT.md for the `OMP_TOOL` grammar.
//!
//! What to look for in the output (the paper's §III-B contrast, measured):
//!
//! * Pure mode's `minipy.obj_lock.*` and GIL counters are **nonzero** — the
//!   interpreter pays per-object locking on every shared container touch.
//! * Compiled mode's interpreter counters are **zero** — native closures
//!   never enter the interpreter, so all that remains is runtime
//!   synchronization (barriers, chunk claims).

use omp4rs::ompt;
use omp4rs_apps::{pi, Mode};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: i64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(200_000);
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);

    for mode in [Mode::Pure, Mode::Compiled] {
        let label = mode.name().to_lowercase();
        // Programmatic equivalent of OMP_TOOL=summary,trace:trace_pi_<mode>.json
        // (summary printing is done by hand below, so `summary: false`).
        ompt::enable(ompt::ToolConfig {
            trace_path: Some(format!("trace_pi_{label}.json")),
            summary: false,
            ..Default::default()
        });
        ompt::reset();
        minipy::stats::reset();
        minipy::stats::set_enabled(true);

        // Interpreted modes get a smaller n so the demo stays snappy.
        let params = pi::Params {
            n: if mode.is_interpreted() {
                (n / 100).max(1_000)
            } else {
                n
            },
        };
        let out = pi::run(mode, threads, &params).expect("pi supports this mode");

        // Publish the interpreter-side counters next to the runtime metrics.
        let stats = minipy::stats::snapshot();
        ompt::set_counter("minipy.gil.acquisitions", stats.gil_acquisitions);
        ompt::set_counter("minipy.gil.hold_ns", stats.gil_hold_ns);
        ompt::set_counter("minipy.obj_lock.acquisitions", stats.obj_lock_acquisitions);
        ompt::set_counter("minipy.obj_lock.contended", stats.obj_lock_contended);
        // Bytecode-VM counters: in the default `OMP4RS_MINIPY_VM=on`,
        // Pure mode's parallel body runs compiled (frames/ops nonzero) while
        // the decorated outer function tree-walks (one `nested-def` fallback).
        ompt::set_counter("minipy.vm.compiles", stats.vm_compiles);
        ompt::set_counter("minipy.vm.fallbacks", stats.vm_fallbacks);
        ompt::set_counter("minipy.vm.frames", stats.vm_frames);
        ompt::set_counter("minipy.vm.ops", stats.vm_ops);

        println!(
            "--- {} mode: n={}, {} threads, {:.2} ms (pi ~ {:.9}) ---",
            mode.name(),
            params.n,
            threads,
            out.seconds * 1e3,
            out.check
        );
        println!("{}", ompt::summary());

        match ompt::finalize() {
            Ok(Some(path)) => {
                let text = std::fs::read_to_string(&path).expect("trace file readable");
                let ts = ompt::validate_chrome_trace(&text).expect("trace is valid");
                println!(
                    "wrote {path}: {} trace events, {} counters\n",
                    ts.events, ts.counters
                );
            }
            Ok(None) => unreachable!("a trace path was configured"),
            Err(e) => eprintln!("could not write trace: {e}\n"),
        }
        ompt::disable();
    }
    minipy::stats::set_enabled(false);

    println!("Open the trace files in chrome://tracing or https://ui.perfetto.dev —");
    println!("one row per team thread: parallel spans, barrier waits, claimed chunks.");
}
