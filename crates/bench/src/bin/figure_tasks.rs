//! Figure-style results for the task-dependence suite: *wavefront*,
//! *sparselu*, and *pagerank* under the four OMP4Py modes (PyOMP cannot run
//! any of them — no `depend` clause).
//!
//! Usage: `figure_tasks [--scale <f64>] [--profile]`
//!
//! Per app: measured single-thread cost per mode, the dependence-graph
//! accounting of one untimed two-thread run per mode (`omp4rs.task.dep.*`
//! deltas; a one-thread team runs its tasks included, outside the graph),
//! and the simulated 1–32-thread sweep from the measured per-unit costs.
//! Exits non-zero if an accounting run defers a task it never releases.

use omp4rs_apps::Mode;
use omp4rs_bench::{measure_primitives, sim_sweep, AppKind, SWEEP_THREADS};

/// Team size of the untimed dependence-accounting runs.
const ACCOUNTING_THREADS: usize = 2;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let profile = omp4rs_bench::profile::begin(&mut args, "figure_tasks");
    let scale = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.25);

    println!("FIGURE (tasks) — wavefront, sparselu, pagerank: depend-ordered task DAGs");
    println!("(PyOMP: no task depend clause or taskgroup — the whole suite is out of envelope)\n");
    let prims = measure_primitives();
    let mut stranded = Vec::new();

    for app in AppKind::tasks_suite() {
        println!("=== {} ===", app.name());
        let mut costs = Vec::new();
        for mode in Mode::omp4py_modes() {
            let Some(m) = omp4rs_bench::figures::measure(app, mode, scale) else {
                println!("  measured {:<11} unsupported", mode.name());
                continue;
            };
            // Bracket one untimed two-thread run with the dependence
            // counters so the figure records the graph each mode builds.
            let before = omp4rs::depgraph::counters();
            let ran = omp4rs_bench::figures::run_once(app, mode, scale, ACCOUNTING_THREADS);
            let after = omp4rs::depgraph::counters();
            let deferred = after.deferred - before.deferred;
            let released = after.released - before.released;
            if ran.is_none() || deferred != released {
                stranded.push(format!("{} {}", app.name(), mode.name()));
            }
            println!(
                "  measured {:<11} {:>10.2} ms  → {:>10.1} ns/unit   \
                 dep@{ACCOUNTING_THREADS}T: {deferred} deferred / {released} released / {} edges",
                mode.name(),
                m.seconds * 1e3,
                m.per_unit() * 1e9,
                after.edges - before.edges,
            );
            costs.push((mode, m.per_unit()));
        }
        let reason = omp4rs_apps::pyomp::unsupported_reason(app.name()).unwrap_or("unsupported");
        println!("  measured {:<11} cannot run: {reason}", "PyOMP");

        print!("  {:<11}", "sim threads");
        for t in SWEEP_THREADS {
            print!(" {t:>9}");
        }
        println!();
        for (mode, per_unit) in &costs {
            let sweep = sim_sweep(app, *mode, *per_unit, &prims, false, None);
            let t1 = sweep[0].1;
            print!("  {:<11}", mode.name());
            for &(_, t) in &sweep {
                print!(" {:>8.2}x", t1 / t);
            }
            println!("   (t1 = {:.2} ms)", t1 * 1e3);
        }
        println!();
    }
    println!("(the timed runs are one-thread and include every task — run at once, never in");
    println!(" the graph; the dep@2T columns come from one untimed two-thread run per mode,");
    println!(" where every deferred task must be released)");
    profile.finish();
    if !stranded.is_empty() {
        eprintln!(
            "deferred != released (or the run failed): {}",
            stranded.join(", ")
        );
        std::process::exit(1);
    }
}
