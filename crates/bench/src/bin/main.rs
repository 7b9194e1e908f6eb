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
//! * `--json` — emit one machine-readable JSON object instead of prose
//!   (consumed by `scripts/bench.sh` to build `BENCH_<test>.json` baselines)
//! * `--repeat N` — run the benchmark N times (default 1) and report the
//!   median and standard deviation over the samples

use omp4rs_apps::Mode;
use omp4rs_bench::figures::{measure, mode_scale, AppKind};

fn usage() -> ! {
    eprintln!("usage: main <mode> <test> <threads> [scale] [--profile] [--json] [--repeat N]");
    eprintln!("  mode: 0=Pure 1=Hybrid 2=Compiled 3=CompiledDT -1=PyOMP");
    eprintln!("  test: fft jacobi lud maze md pi qsort wordcount graphic");
    eprintln!("        wavefront sparselu pagerank   (task-dependence suite)");
    std::process::exit(2);
}

/// Pull `--json` / `--repeat N` out of the argument list.
fn parse_flags(args: &mut Vec<String>) -> (bool, usize) {
    let json = args.iter().position(|a| a == "--json").map(|i| {
        args.remove(i);
    });
    let repeat = match args.iter().position(|a| a == "--repeat") {
        Some(i) if i + 1 < args.len() => {
            let n = args[i + 1].parse::<usize>().unwrap_or_else(|_| usage());
            args.drain(i..=i + 1);
            n.max(1)
        }
        Some(_) => usage(),
        None => 1,
    };
    (json.is_some(), repeat)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // OMP4RS_FAULTS arms deterministic fault injection for the whole run
    // (the guard must stay alive); see docs/ENVIRONMENT.md.
    let _faults = omp4rs::faults::arm_from_env();
    let (json, repeat) = parse_flags(&mut args);
    let profile = omp4rs_bench::profile::begin(&mut args, "main");
    if args.len() < 3 {
        usage();
    }
    let Some(mode) = Mode::parse(&args[0]) else {
        usage()
    };
    let Some(app) = AppKind::parse(&args[1]) else {
        usage()
    };
    let Ok(threads) = args[2].parse::<usize>() else {
        usage()
    };
    let scale: f64 = args.get(3).and_then(|v| v.parse().ok()).unwrap_or(1.0);

    // The measurement entry point runs the benchmark at any thread count by
    // re-dispatching; reuse it at the requested team size via the apps API.
    let mut samples = Vec::with_capacity(repeat);
    let mut check = 0.0;
    for _ in 0..repeat {
        match run_at(app, mode, threads, scale) {
            Ok((seconds, c)) => {
                samples.push(seconds);
                check = c;
            }
            Err(e) => {
                eprintln!("{} cannot run under {}: {e}", app.name(), mode.name());
                std::process::exit(1);
            }
        }
    }
    let (median, sigma) = median_sigma(&mut samples);
    if json {
        // The VM switch matters for interpreted modes: record what this
        // process resolved so baselines are self-describing.
        let vm = match omp4rs::Icvs::current().minipy_vm {
            omp4rs::MinipyVm::Off => "off",
            omp4rs::MinipyVm::On => "on",
        };
        let list = samples
            .iter()
            .map(|s| format!("{s:.6}"))
            .collect::<Vec<_>>()
            .join(",");
        // `effective_scale` = scale * mode_scale(mode): the problem size the
        // run *actually* used. Without it, rows with different per-mode
        // multipliers (Pure 0.02 vs Compiled 0.3) look comparable when they
        // ran 15x different work — the trap behind the old "Compiled slower
        // than Hybrid" reading of BENCH_pi.json.
        println!(
            "{{\"app\":\"{}\",\"mode\":\"{}\",\"threads\":{},\"scale\":{},\
             \"effective_scale\":{:.6},\"minipy_vm\":\"{}\",\
             \"repeats\":{},\"median_s\":{:.6},\"sigma_s\":{:.6},\"samples_s\":[{}],\"check\":{:.9}}}",
            app.name(),
            mode.name(),
            threads,
            scale,
            scale * mode_scale(mode),
            vm,
            repeat,
            median,
            sigma,
            list,
            check
        );
    } else {
        println!(
            "{} {} threads={} scale={}: median {:.6} s +- {:.6} over {} run(s) \
             (result checksum {:.6})",
            app.name(),
            mode.name(),
            threads,
            scale,
            median,
            sigma,
            repeat,
            check
        );
    }
    profile.finish();
}

/// Median and population standard deviation of the samples (sorts in place).
fn median_sigma(samples: &mut [f64]) -> (f64, f64) {
    let median = omp4rs_bench::median(samples);
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n as f64;
    let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
    (median, var.sqrt())
}

fn run_at(app: AppKind, mode: Mode, threads: usize, scale: f64) -> Result<(f64, f64), String> {
    use omp4rs_apps::*;
    let s = scale * mode_scale(mode);
    let f = |v: f64| -> usize { (v * s).max(4.0) as usize };
    let out = match app {
        AppKind::Pi => pi::run(
            mode,
            threads,
            &pi::Params {
                n: f(2_000_000.0) as i64,
            },
        )?,
        AppKind::Fft => {
            let log2_n = ((12.0 + s.log2()).round().clamp(6.0, 22.0)) as u32;
            fft::run(
                mode,
                threads,
                &fft::Params {
                    log2_n,
                    ..fft::Params::default()
                },
            )?
        }
        AppKind::Jacobi => jacobi::run(
            mode,
            threads,
            &jacobi::Params {
                n: f(120.0),
                ..jacobi::Params::default()
            },
        )?,
        AppKind::Lu => lu::run(
            mode,
            threads,
            &lu::Params {
                n: f(96.0),
                ..lu::Params::default()
            },
        )?,
        AppKind::Md => md::run(
            mode,
            threads,
            &md::Params {
                n: f(160.0),
                steps: 2,
                ..md::Params::default()
            },
        )?,
        AppKind::Qsort => {
            let n = f(120_000.0);
            qsort::run(
                mode,
                threads,
                &qsort::Params {
                    n,
                    cutoff: (n / 64).max(16),
                    ..qsort::Params::default()
                },
            )?
        }
        AppKind::Bfs => bfs::run(
            mode,
            threads,
            &bfs::Params {
                side: f(61.0) | 1,
                ..bfs::Params::default()
            },
        )?,
        AppKind::Clustering => clustering::run(
            mode,
            threads,
            &clustering::Params {
                nodes: f(2_000.0),
                ..clustering::Params::default()
            },
        )?,
        AppKind::Wordcount => wordcount::run(
            mode,
            threads,
            &wordcount::Params {
                lines: f(4_000.0),
                ..wordcount::Params::default()
            },
        )?,
        AppKind::Wavefront => wavefront::run(
            mode,
            threads,
            &wavefront::Params {
                n: f(6.0).max(2) * 16,
                block: 16,
                ..wavefront::Params::default()
            },
        )?,
        AppKind::SparseLu => sparselu::run(
            mode,
            threads,
            &sparselu::Params {
                nb: f(6.0).max(2),
                ..sparselu::Params::default()
            },
        )?,
        AppKind::Pagerank => pagerank::run(
            mode,
            threads,
            &pagerank::Params {
                nodes: f(600.0),
                ..pagerank::Params::default()
            },
        )?,
    };
    // Silence unused import of `measure` while keeping the module linked.
    let _ = measure;
    Ok((out.seconds, out.check))
}
