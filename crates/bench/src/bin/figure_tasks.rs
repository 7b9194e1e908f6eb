//! Figure-style results for the task-dependence suite: *wavefront*,
//! *sparselu*, and *pagerank* under the four OMP4Py modes (PyOMP cannot run
//! any of them — no `depend` clause).
//!
//! Usage: `figure_tasks [--scale <f64>] [--profile]`
//!
//! Per app: measured single-thread cost per mode, the dependence-graph
//! accounting of each measured run (`omp4rs.task.dep.*` deltas), and the
//! simulated 1–32-thread sweep from the measured per-unit costs.

use omp4rs_apps::Mode;
use omp4rs_bench::{measure_primitives, sim_sweep, AppKind, SWEEP_THREADS};

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

    for app in AppKind::tasks_suite() {
        println!("=== {} ===", app.name());
        let mut costs = Vec::new();
        for mode in Mode::omp4py_modes() {
            // Bracket one measurement with the dependence counters so the
            // figure records the graph each mode actually built.
            let before = omp4rs::depgraph::counters();
            match omp4rs_bench::figures::measure(app, mode, scale) {
                Some(m) => {
                    let after = omp4rs::depgraph::counters();
                    println!(
                        "  measured {:<11} {:>10.2} ms  → {:>10.1} ns/unit   \
                         dep: {} deferred / {} released / {} edges",
                        mode.name(),
                        m.seconds * 1e3,
                        m.per_unit() * 1e9,
                        after.deferred - before.deferred,
                        after.released - before.released,
                        after.edges - before.edges,
                    );
                    costs.push((mode, m.per_unit()));
                }
                None => println!("  measured {:<11} unsupported", mode.name()),
            }
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
    println!("(one-thread runs include every task — run at once, never in the graph — so");
    println!(" the dep columns read 0; deferred == released with two or more threads is the");
    println!(" invariant the chaos tests and traced perfbench runs pin)");
    profile.finish();
}
