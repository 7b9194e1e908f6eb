//! The artifact-style CLI (paper artifact appendix §D):
//!
//! ```text
//! main <mode> <test> <threads> [scale]
//! ```
//!
//! * `mode` — `0` Pure, `1` Hybrid, `2` Compiled, `3` CompiledDT, `-1` PyOMP
//! * `test` — `fft`, `jacobi`, `lud`, `maze`, `md`, `pi`, `qsort`,
//!   `wordcount`, `graphic`
//! * `threads` — team size
//! * `scale` — optional problem-size multiplier (default 1.0; the artifact's
//!   "additional arguments to modify the problem size")
//! * `--profile` — emit `trace_main.json` plus a per-region profiler summary
//!   (see [`omp4rs_bench::profile`])
//!
//! The problem sizes are those the figures measure with
//! ([`omp4rs_bench::figures::run_once`]) at `scale`, so one `main` run is one
//! cell of a figure at any team size. A mode that cannot run the test (PyOMP
//! on `qsort`, as in the paper) exits 1 with the reason.

use omp4rs_apps::Mode;
use omp4rs_bench::cli::Spec;
use omp4rs_bench::figures::{run_once, AppKind};

const SPEC: Spec = Spec {
    usage: "usage: main <mode> <test> <threads> [scale] [--profile]\n  \
            mode: 0=Pure 1=Hybrid 2=Compiled 3=CompiledDT -1=PyOMP\n  \
            test: fft jacobi lud maze md pi qsort wordcount graphic\n        \
            wavefront sparselu pagerank   (task-dependence suite)",
    switches: &["--profile"],
    options: &[],
    positional: 3..=4,
};

fn main() {
    let args = SPEC.parse();
    // OMP4RS_FAULTS arms deterministic fault injection for the whole run
    // (the guard must stay alive); see docs/ENVIRONMENT.md.
    let _faults = omp4rs::faults::arm_from_env();
    let pos = args.positional();
    let mode =
        Mode::parse(&pos[0]).unwrap_or_else(|| args.fail(&format!("unknown mode {}", pos[0])));
    let app =
        AppKind::parse(&pos[1]).unwrap_or_else(|| args.fail(&format!("unknown test {}", pos[1])));
    let threads: usize = pos[2]
        .parse()
        .unwrap_or_else(|_| args.fail(&format!("malformed threads {}", pos[2])));
    let scale: f64 = pos.get(3).map_or(1.0, |v| {
        v.parse()
            .unwrap_or_else(|_| args.fail(&format!("malformed scale {v}")))
    });
    let profile = args.profile("main");

    match run_once(app, mode, scale, threads) {
        Ok(cost) => println!(
            "{} {} threads={} scale={}: {:.6} s (result checksum {:.6})",
            app.name(),
            mode.name(),
            threads,
            scale,
            cost.seconds,
            cost.check
        ),
        Err(e) => {
            eprintln!("{} cannot run under {}: {e}", app.name(), mode.name());
            std::process::exit(1);
        }
    }
    profile.finish();
}
