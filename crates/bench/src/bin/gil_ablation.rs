//! Ablation: the paper's §I motivation — a GIL-enabled interpreter gains
//! nothing from threads, while the free-threaded build scales (up to the
//! shared-object ceiling).
//!
//! Measured part: the same interpreted program runs under `GilMode::Enabled`
//! and `GilMode::FreeThreaded`, counting real GIL switches. Simulated part:
//! the thread sweep with and without the GIL resource.

use minipy::{Gil, GilMode, Interp, Value};
use omp4rs_apps::Mode;
use omp4rs_bench::cli::Spec;
use omp4rs_bench::{measure_primitives, sim_sweep, AppKind};
use omp4rs_pyfront::{ExecMode, Runner};

const SPEC: Spec = Spec {
    usage: "usage: gil_ablation [--profile]",
    switches: &["--profile"],
    options: &[],
    positional: 0..=0,
};

const PROGRAM: &str = r#"
from omp4py import *

@omp
def work(n, nthreads):
    acc = 0
    with omp("parallel for reduction(+:acc) num_threads(nthreads)"):
        for i in range(n):
            acc += i * i
    return acc
"#;

fn run_once(gil_mode: GilMode, threads: i64) -> (f64, u64, i64) {
    let gil = Gil::with_interval(gil_mode, 128);
    let interp = Interp::with_gil(gil);
    let runner = Runner::with_interp(interp, ExecMode::Hybrid);
    runner.run(PROGRAM).expect("program loads");
    let start = std::time::Instant::now();
    let v = runner
        .call_global("work", vec![Value::Int(40_000), Value::Int(threads)])
        .expect("program runs")
        .as_int()
        .expect("int result");
    (
        start.elapsed().as_secs_f64(),
        runner.interp().gil().switch_count(),
        v,
    )
}

fn main() {
    let profile = SPEC.parse().profile("gil_ablation");
    println!("GIL ABLATION — why the paper needs free-threaded Python\n");
    println!("-- measured (interpreted sum of squares, n = 40000) --");
    println!(
        "  {:<14} {:>8} {:>12} {:>14} {:>18}",
        "interpreter", "threads", "time", "GIL switches", "result"
    );
    let mut reference = None;
    for (label, mode) in [
        ("GIL-enabled", GilMode::Enabled),
        ("free-threaded", GilMode::FreeThreaded),
    ] {
        for threads in [1i64, 4] {
            let (secs, switches, v) = run_once(mode, threads);
            if let Some(r) = reference {
                assert_eq!(v, r, "results must not depend on the GIL");
            } else {
                reference = Some(v);
            }
            println!(
                "  {label:<14} {threads:>8} {:>9.2} ms {switches:>14} {v:>18}",
                secs * 1e3
            );
        }
    }

    println!("\n-- simulated 32-core sweep (Pure mode, measured per-unit cost) --");
    let prims = measure_primitives();
    let per_unit = omp4rs_bench::figures::measure(AppKind::Pi, Mode::Pure, 0.2)
        .expect("pi supports Pure")
        .per_unit();
    println!(
        "  {:<14} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "config", 1, 2, 4, 8, 16, 32
    );
    for (label, gil) in [("GIL-enabled", true), ("free-threaded", false)] {
        let sweep = sim_sweep(AppKind::Pi, Mode::Pure, per_unit, &prims, gil, None);
        let t1 = sweep[0].1;
        print!("  {label:<14}");
        for &(_, t) in &sweep {
            print!(" {:>5.2}x", t1 / t);
        }
        println!();
    }
    println!("\n(the GIL-enabled sweep is flat — the paper's motivation for building on");
    println!(" Python 3.13+ free-threading; the free-threaded curve is Fig. 5's Pure curve)");
    profile.finish();
}
