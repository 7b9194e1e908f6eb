//! Regenerate Fig. 7: speedups of *clustering coefficient* and *wordcount*
//! under static / dynamic / guided scheduling (chunk 300), relative to the
//! Pure 1-thread static baseline — plus the chunk-size variations (150,
//! 600) the paper discusses in the text.
//!
//! Usage: `figure7 [--scale <f64>] [--chunk <u64>] [--profile]`

use omp4rs::ScheduleKind;
use omp4rs_apps::Mode;
use omp4rs_bench::cli::Spec;
use omp4rs_bench::{measure_primitives, sim_sweep, AppKind, SWEEP_THREADS};

const SPEC: Spec = Spec {
    usage: "usage: figure7 [--scale <f64>] [--chunk <u64>] [--profile]",
    switches: &["--profile"],
    options: &["--scale", "--chunk"],
    positional: 0..=0,
};

fn main() {
    let args = SPEC.parse();
    let profile = args.profile("figure7");
    let scale: f64 = args.get("--scale", 0.25);
    let chunk: u64 = args.get("--chunk", 300);

    println!("FIGURE 7 — scheduling-policy speedups (chunk {chunk}),");
    println!("relative to the Pure / 1 thread / static baseline\n");
    let prims = measure_primitives();

    for app in AppKind::figure6() {
        println!("=== {} ===", app.name());
        // Baseline: Pure, static, 1 thread.
        let pure_cost = match omp4rs_bench::figures::measure(app, Mode::Pure, scale) {
            Some(m) => m.per_unit(),
            None => {
                println!("  (cannot measure Pure baseline)");
                continue;
            }
        };
        let baseline = sim_sweep(
            app,
            Mode::Pure,
            pure_cost,
            &prims,
            false,
            Some((ScheduleKind::Static, None)),
        )[0]
        .1;

        for mode in Mode::omp4py_modes() {
            let per_unit = match omp4rs_bench::figures::measure(app, mode, scale) {
                Some(m) => m.per_unit(),
                None => continue,
            };
            println!("  -- {} --", mode.name());
            print!("  {:<9}", "threads");
            for t in SWEEP_THREADS {
                print!(" {t:>9}");
            }
            println!();
            for sched in [
                ScheduleKind::Static,
                ScheduleKind::Dynamic,
                ScheduleKind::Guided,
            ] {
                let sweep = sim_sweep(
                    app,
                    mode,
                    per_unit,
                    &prims,
                    false,
                    Some((sched, Some(chunk))),
                );
                print!("  {:<9}", sched.name());
                for &(_, t) in &sweep {
                    print!(" {:>8.2}x", baseline / t);
                }
                println!();
            }
        }
        println!();
    }
    println!("(paper: dynamic performs best — especially for wordcount's imbalance —");
    println!(" and guided lags, most visibly in Pure mode; rerun with --chunk 150/600 for the text's variations)");
    profile.finish();
}
