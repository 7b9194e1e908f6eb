//! Regenerate Fig. 5: scalability of the seven numerical applications under
//! Pure / Hybrid / Compiled / CompiledDT / PyOMP.
//!
//! Usage: `figure5 [--summary] [--scale <f64>] [--profile]`
//!
//! Methodology (see EXPERIMENTS.md): per-mode single-thread costs are
//! MEASURED on this host; the 1–32-thread curves are SIMULATED by replaying
//! each benchmark's OpenMP phase structure on a virtual 32-core machine with
//! those measured costs.

use omp4rs_apps::{pi, Mode};
use omp4rs_bench::cli::Spec;
use omp4rs_bench::{measure_primitives, sim_sweep, AppKind, PrimitiveCosts, SWEEP_THREADS};

const SPEC: Spec = Spec {
    usage: "usage: figure5 [--summary] [--scale <f64>] [--profile]",
    // `--summary` is accepted for compatibility; the summary always prints.
    switches: &["--summary", "--profile"],
    options: &["--scale"],
    positional: 0..=0,
};

fn main() {
    let args = SPEC.parse();
    let profile = args.profile("figure5");
    let scale: f64 = args.get("--scale", 0.25);

    println!("FIGURE 5 — scalability of the parallel numerical applications");
    println!("measured single-thread per-unit costs on this host; simulated 32-core sweep\n");
    let prims = measure_primitives();
    println!(
        "calibration: mutex claim {:.1} ns, atomic claim {:.1} ns, barrier {:.2} us, task {:.2} us\n",
        prims.mutex_claim * 1e9,
        prims.atomic_claim * 1e9,
        prims.barrier * 1e6,
        prims.task_round * 1e6
    );

    // speedup@32 per (app, mode) for the summary.
    let mut speedups: Vec<(AppKind, Mode, f64)> = Vec::new();
    let mut per_unit_ratio: Vec<(AppKind, f64)> = Vec::new();

    for app in AppKind::figure5() {
        println!("=== {} ===", app.name());
        // Measured single-thread costs per mode.
        let mut costs = Vec::new();
        for mode in Mode::all() {
            match omp4rs_bench::figures::measure(app, mode, scale) {
                Some(m) => {
                    println!(
                        "  measured {:<11} {:>10.2} ms over {:>9} units  → {:>9.1} ns/unit",
                        mode.name(),
                        m.seconds * 1e3,
                        m.units,
                        m.per_unit() * 1e9
                    );
                    costs.push((mode, m.per_unit()));
                }
                None => println!(
                    "  measured {:<11} unsupported ({})",
                    mode.name(),
                    app.name()
                ),
            }
        }
        if let (Some(pure), Some(dt)) = (
            costs
                .iter()
                .find(|(m, _)| *m == Mode::Pure)
                .map(|&(_, c)| c),
            costs
                .iter()
                .find(|(m, _)| *m == Mode::CompiledDT)
                .map(|&(_, c)| c),
        ) {
            per_unit_ratio.push((app, pure / dt));
        }

        // Simulated sweep.
        print!("  {:<11}", "sim threads");
        for t in SWEEP_THREADS {
            print!(" {t:>9}");
        }
        println!();
        for (mode, per_unit) in &costs {
            let sweep = sim_sweep(app, *mode, *per_unit, &prims, false, None);
            print!("  {:<11}", mode.name());
            let t1 = sweep[0].1;
            for &(_, t) in &sweep {
                print!(" {:>8.2}x", t1 / t);
            }
            println!("   (t1 = {:.2} ms)", t1 * 1e3);
            speedups.push((app, *mode, t1 / sweep.last().unwrap().1));
        }
        println!();
    }

    {
        println!("— summary (paper §IV-A quantities) —");
        let avg = |mode: Mode| -> f64 {
            let v: Vec<f64> = speedups
                .iter()
                .filter(|(_, m, _)| *m == mode)
                .map(|&(_, _, s)| s)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let max = |mode: Mode| -> f64 {
            speedups
                .iter()
                .filter(|(_, m, _)| *m == mode)
                .map(|&(_, _, s)| s)
                .fold(0.0, f64::max)
        };
        println!(
            "  avg speedup @32: Pure {:.1}x  Hybrid {:.1}x  Compiled {:.1}x  CompiledDT {:.1}x",
            avg(Mode::Pure),
            avg(Mode::Hybrid),
            avg(Mode::Compiled),
            avg(Mode::CompiledDT)
        );
        println!(
            "  max speedup @32: Pure {:.1}x  Compiled {:.1}x  CompiledDT {:.1}x",
            max(Mode::Pure),
            max(Mode::Compiled),
            max(Mode::CompiledDT)
        );
        // The paper compares PyOMP vs CompiledDT over the benchmarks PyOMP
        // can run (excluding qsort/bfs).
        let common: Vec<AppKind> = AppKind::figure5()
            .into_iter()
            .filter(|a| a.pyomp_supported())
            .collect();
        let avg_on = |mode: Mode| -> f64 {
            let v: Vec<f64> = speedups
                .iter()
                .filter(|(a, m, _)| *m == mode && common.contains(a))
                .map(|&(_, _, s)| s)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let (pyomp_avg, dt_avg) = (avg_on(Mode::PyOmp), avg_on(Mode::CompiledDT));
        println!(
            "  PyOMP-supported subset @32: PyOMP {pyomp_avg:.1}x vs CompiledDT {dt_avg:.1}x \
             → OMP4Py {:+.1}% (paper: +4.5%)",
            (dt_avg / pyomp_avg - 1.0) * 100.0
        );
        let gap: f64 = per_unit_ratio.iter().map(|&(_, r)| r).sum::<f64>()
            / per_unit_ratio.len().max(1) as f64;
        println!(
            "  avg measured Pure/CompiledDT per-unit gap: {gap:.0}x (paper: ~785x at 32 threads)"
        );
        println!("  (paper reference: Pure max 3.6x; Compiled up to 10.6x; CompiledDT avg 10.1x, max 16.2x; PyOMP avg 9.9x)");
    }
    if profile.active() {
        barrier_wait_comparison(&prims, scale);
    }
    profile.finish();
}

/// `--profile` extra: sweep the pi workload over 1–32 simulated threads and
/// report the simulator's barrier-wait accounting next to a measured,
/// profiler-instrumented Pure-mode run on this host — the validation loop
/// for the barrier-wait share the profiler exposes.
///
/// The simulation replays the *measured* problem size under the schedule the
/// runtime gives clause-less interpreted loops (guided with the
/// overhead-derived minimum chunk), so measured and simulated rows are
/// directly comparable.
fn barrier_wait_comparison(prims: &PrimitiveCosts, scale: f64) {
    use simcore::{simulate_report, ClaimCost, CostModel, Machine, Phase, SimSchedule, Workload};

    println!("\n— barrier wait: measured (profiler) vs simulated (simcore), pi / Pure —");

    // Measured: run pi in Pure mode at a host-friendly thread count with the
    // profiler already armed, aggregating only this run's events.
    // Snap to a sweep point ≤ the host's core count so the measured row has
    // a directly comparable simulated row.
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .max(2);
    let host_threads = SWEEP_THREADS
        .iter()
        .copied()
        .rfind(|&t| t <= avail)
        .unwrap_or(2)
        .min(8);
    let events_before = omp4rs::ompt::events().len();
    let params = pi::Params {
        n: ((2_000_000.0 * scale * 0.02) as i64).max(2_000),
    };
    let measured = pi::run(Mode::Pure, host_threads, &params).ok();
    let events = omp4rs::ompt::events();
    let run_metrics = omp4rs::ompt::aggregate(&events[events_before..]);
    let meas = run_metrics.last();

    let Some(per_unit) = measured.map(|out| out.seconds / params.n as f64) else {
        println!("  (measured Pure pi run failed; skipping comparison)");
        return;
    };
    let iters = params.n as u64;
    let model = CostModel::default();
    let sweep: Vec<(usize, simcore::SimReport)> = SWEEP_THREADS
        .iter()
        .map(|&threads| {
            let min_chunk = omp4rs::schedule::interpreted_min_chunk(iters, threads);
            // Guided claims run a read + CAS under the mutex backend:
            // roughly twice a plain claim.
            let base = prims.claim(omp4rs::sync::Backend::Mutex);
            let guided_claim = ClaimCost {
                seconds: base.seconds * 2.0,
                serializes: true,
            };
            let w = Workload::new()
                .phase(Phase::ParallelFor {
                    iters,
                    cost_per_iter: per_unit,
                    // Frame-local chunk bounds: shared-object traffic is a
                    // handful of ops per *loop*, ~0 per iteration.
                    shared_ops_per_iter: 0.0,
                    schedule: SimSchedule::Guided(min_chunk),
                    claim: guided_claim,
                    nowait: false,
                    imbalance: 0.0,
                })
                .phase(Phase::CriticalUpdates {
                    per_thread: 1,
                    cost: prims.mutex_claim.max(1e-7),
                });
            let mut machine = Machine::new(32);
            (threads, simulate_report(&mut machine, &model, &w, threads))
        })
        .collect();

    println!(
        "  {:<10} {:>12} {:>16} {:>14}",
        "threads", "sim span ms", "sim barrier ms", "barrier share"
    );
    for (threads, report) in &sweep {
        // Share = summed barrier wait across threads over total thread-time.
        let thread_time = report.seconds * *threads as f64;
        println!(
            "  sim {:<6} {:>12.3} {:>16.3} {:>13.1}%",
            threads,
            report.seconds * 1e3,
            report.barrier_wait * 1e3,
            100.0 * report.barrier_wait / thread_time.max(1e-12)
        );
    }
    match meas {
        Some(m) if m.span_ns > 0 => {
            let thread_ns = m.span_ns as f64 * m.threads as f64;
            println!(
                "  measured @{host_threads} threads (n={iters}): span {:.3} ms, barrier wait {:.3} ms ({:.1}% of thread-time, {} arrivals)",
                m.span_ns as f64 / 1e6,
                m.barrier_wait_ns as f64 / 1e6,
                100.0 * m.barrier_wait_ns as f64 / thread_ns.max(1.0),
                m.barriers
            );
            if let Some((_, sim)) = sweep.iter().find(|(t, _)| *t == host_threads) {
                let sim_share = sim.barrier_wait / (sim.seconds * host_threads as f64).max(1e-12);
                let meas_share = m.barrier_wait_ns as f64 / thread_ns.max(1.0);
                println!(
                    "  barrier-wait share measured/simulated @{host_threads}: {:.2}x \
                     (the gap is runtime overhead the model does not charge)",
                    meas_share / sim_share.max(1e-12)
                );
            }
        }
        _ => println!("  (no profiler events captured for the measured run)"),
    }
}
