//! Per-benchmark measured costs and simulator workload shapes.
//!
//! Every figure follows the same recipe:
//!
//! 1. **Measure** each mode's single-thread time on this host with a
//!    mode-appropriate problem size, yielding a per-work-unit cost. These
//!    measurements carry the paper's headline mode gaps (CompiledDT vs Pure
//!    of two–three orders of magnitude) and are reported directly.
//! 2. **Simulate** the thread sweep (1–32 threads on a virtual 32-core
//!    machine) by replaying the benchmark's OpenMP phase structure in
//!    `simcore` with the measured per-unit cost and the host-calibrated
//!    primitive costs.
//!
//! The only non-measured parameter is each mode's *serialized fraction* —
//! the share of interpreted work that contends on shared objects (refcounts
//! and per-object locks, the mechanism the paper blames for CPython
//! 3.14b1's limited scaling). The coefficients are documented in
//! EXPERIMENTS.md; they set the Pure/Hybrid scaling ceilings and are the
//! same for all benchmarks of a figure.

use omp4rs::sync::Backend;
use omp4rs::ScheduleKind;
use omp4rs_apps::{
    bfs, clustering, fft, jacobi, lu, md, pagerank, pi, qsort, sparselu, wavefront, wordcount, Mode,
};
use simcore::{
    simulate_report, ClaimCost, CostModel, Machine, Phase, SimReport, SimSchedule, TaskShape,
    Workload,
};

use crate::calibrate::PrimitiveCosts;

/// Thread counts swept by the paper's figures.
pub const SWEEP_THREADS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// The benchmarks of Figs. 5–7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    Fft,
    Jacobi,
    Lu,
    Md,
    Pi,
    Qsort,
    Bfs,
    Clustering,
    Wordcount,
    Wavefront,
    SparseLu,
    Pagerank,
}

impl AppKind {
    /// The seven numerical applications of Fig. 5 (artifact test names).
    pub fn figure5() -> [AppKind; 7] {
        [
            AppKind::Fft,
            AppKind::Jacobi,
            AppKind::Lu,
            AppKind::Md,
            AppKind::Pi,
            AppKind::Qsort,
            AppKind::Bfs,
        ]
    }

    /// The non-numerical applications of Fig. 6/7.
    pub fn figure6() -> [AppKind; 2] {
        [AppKind::Clustering, AppKind::Wordcount]
    }

    /// The task-dependence suite (`BENCH_tasks.json` / `figure_tasks`):
    /// applications a loop-parallel runtime cannot run — every one needs
    /// `depend(in/out/inout)` (and `priority`) to order its task DAG.
    pub fn tasks_suite() -> [AppKind; 3] {
        [AppKind::Wavefront, AppKind::SparseLu, AppKind::Pagerank]
    }

    /// Artifact test name.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Fft => "fft",
            AppKind::Jacobi => "jacobi",
            AppKind::Lu => "lud",
            AppKind::Md => "md",
            AppKind::Pi => "pi",
            AppKind::Qsort => "qsort",
            AppKind::Bfs => "maze",
            AppKind::Clustering => "graphic",
            AppKind::Wordcount => "wordcount",
            AppKind::Wavefront => "wavefront",
            AppKind::SparseLu => "sparselu",
            AppKind::Pagerank => "pagerank",
        }
    }

    /// Parse an artifact test name.
    pub fn parse(text: &str) -> Option<AppKind> {
        Some(match text {
            "fft" => AppKind::Fft,
            "jacobi" => AppKind::Jacobi,
            "lu" | "lud" => AppKind::Lu,
            "md" => AppKind::Md,
            "pi" => AppKind::Pi,
            "qsort" => AppKind::Qsort,
            "bfs" | "maze" => AppKind::Bfs,
            "clustering" | "graphic" => AppKind::Clustering,
            "wordcount" => AppKind::Wordcount,
            "wavefront" => AppKind::Wavefront,
            "sparselu" | "lu_tasks" => AppKind::SparseLu,
            "pagerank" => AppKind::Pagerank,
            _ => return None,
        })
    }

    /// Whether the PyOMP baseline can run this benchmark (paper §IV).
    pub fn pyomp_supported(self) -> bool {
        matches!(
            self,
            AppKind::Fft | AppKind::Jacobi | AppKind::Lu | AppKind::Md | AppKind::Pi
        )
    }
}

/// A measured cost: total seconds over `units` work units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredCost {
    /// Wall-clock seconds of the run (at one thread, from [`measure`]).
    pub seconds: f64,
    /// Number of work units the run performed.
    pub units: u64,
}

impl MeasuredCost {
    /// Seconds per work unit.
    pub fn per_unit(&self) -> f64 {
        self.seconds / self.units.max(1) as f64
    }
}

/// Size multiplier applied to interpreted modes so measurement stays fast;
/// the harness reports *per-unit* costs, which are size-independent.
pub fn mode_scale(mode: Mode) -> f64 {
    match mode {
        Mode::Pure | Mode::Hybrid => 0.02,
        Mode::Compiled => 0.3,
        Mode::CompiledDT | Mode::PyOmp => 1.0,
    }
}

/// Run one benchmark at one thread with mode-scaled sizes and return the
/// measured cost (`None` when the mode cannot run the benchmark).
///
/// Runs twice and keeps the faster run (first-run warm-up effects on a
/// shared host would otherwise invert close mode pairs).
///
/// `scale` scales all problem sizes (1.0 = harness defaults).
pub fn measure(app: AppKind, mode: Mode, scale: f64) -> Option<MeasuredCost> {
    let first = run_once(app, mode, scale, 1)?;
    let second = run_once(app, mode, scale, 1)?;
    Some(if second.seconds < first.seconds {
        second
    } else {
        first
    })
}

/// Run one benchmark once on `threads` threads with the sizes [`measure`]
/// uses (`None` when the mode cannot run the benchmark). The cost is per
/// run, not per thread: [`measure`] calls it at one thread; `figure_tasks`
/// calls it at two for the dependence-graph accounting, which a one-thread
/// team never exercises (it runs its tasks included).
pub fn run_once(app: AppKind, mode: Mode, scale: f64, threads: usize) -> Option<MeasuredCost> {
    let s = scale * mode_scale(mode);
    let f = |v: f64| -> usize { (v * s).max(4.0) as usize };
    match app {
        AppKind::Pi => {
            let p = pi::Params {
                n: f(2_000_000.0) as i64,
            };
            let out = pi::run(mode, threads, &p).ok()?;
            Some(MeasuredCost {
                seconds: out.seconds,
                units: p.n as u64,
            })
        }
        AppKind::Fft => {
            // Keep power-of-two lengths; scale the exponent.
            let log2_n = ((12.0 + s.log2()).round().clamp(6.0, 20.0)) as u32;
            let p = fft::Params {
                log2_n,
                ..fft::Params::default()
            };
            let out = fft::run(mode, threads, &p).ok()?;
            let n = p.n() as u64;
            let units = (n / 2) * n.trailing_zeros() as u64; // butterflies
            Some(MeasuredCost {
                seconds: out.seconds,
                units,
            })
        }
        AppKind::Jacobi => {
            let n = f(120.0);
            let p = jacobi::Params {
                n,
                max_iters: 60,
                tol: 0.0,
                ..jacobi::Params::default()
            };
            let out = jacobi::run(mode, threads, &p).ok()?;
            Some(MeasuredCost {
                seconds: out.seconds,
                units: (p.max_iters * n) as u64,
            })
        }
        AppKind::Lu => {
            let n = f(96.0);
            let p = lu::Params {
                n,
                ..lu::Params::default()
            };
            let out = lu::run(mode, threads, &p).ok()?;
            // Row updates: sum over k of (n-k-1).
            let units: u64 = (0..n as u64).map(|k| n as u64 - k - 1).sum();
            Some(MeasuredCost {
                seconds: out.seconds,
                units: units.max(1),
            })
        }
        AppKind::Md => {
            let n = f(160.0);
            let p = md::Params {
                n,
                steps: 2,
                ..md::Params::default()
            };
            let out = md::run(mode, threads, &p).ok()?;
            Some(MeasuredCost {
                seconds: out.seconds,
                units: ((p.steps + 1) * n) as u64,
            })
        }
        AppKind::Qsort => {
            let n = f(120_000.0);
            let p = qsort::Params {
                n,
                cutoff: (n / 64).max(16),
                ..qsort::Params::default()
            };
            let out = qsort::run(mode, threads, &p).ok()?;
            Some(MeasuredCost {
                seconds: out.seconds,
                units: n as u64,
            })
        }
        AppKind::Bfs => {
            let side = f(61.0) | 1; // odd side keeps mazes interesting
            let p = bfs::Params {
                side,
                ..bfs::Params::default()
            };
            let out = bfs::run(mode, threads, &p).ok()?;
            Some(MeasuredCost {
                seconds: out.seconds,
                units: (side * side) as u64,
            })
        }
        AppKind::Clustering => {
            let p = clustering::Params {
                nodes: f(2_000.0),
                ..clustering::Params::default()
            };
            let out = clustering::run(mode, threads, &p).ok()?;
            Some(MeasuredCost {
                seconds: out.seconds,
                units: p.nodes as u64,
            })
        }
        AppKind::Wordcount => {
            let p = wordcount::Params {
                lines: f(4_000.0),
                ..wordcount::Params::default()
            };
            let out = wordcount::run(mode, threads, &p).ok()?;
            Some(MeasuredCost {
                seconds: out.seconds,
                units: p.lines as u64,
            })
        }
        AppKind::Wavefront => {
            let p = wavefront::Params {
                n: f(6.0).max(2) * 16,
                block: 16,
                ..wavefront::Params::default()
            };
            let out = wavefront::run(mode, threads, &p).ok()?;
            Some(MeasuredCost {
                seconds: out.seconds,
                units: (p.n * p.n) as u64, // cells
            })
        }
        AppKind::SparseLu => {
            let p = sparselu::Params {
                nb: f(6.0).max(2),
                ..sparselu::Params::default()
            };
            let out = sparselu::run(mode, threads, &p).ok()?;
            let n = p.n() as u64;
            Some(MeasuredCost {
                seconds: out.seconds,
                units: (n * n * n / 3).max(1), // ~flops of dense LU
            })
        }
        AppKind::Pagerank => {
            let p = pagerank::Params {
                nodes: f(600.0),
                ..pagerank::Params::default()
            };
            let out = pagerank::run(mode, threads, &p).ok()?;
            Some(MeasuredCost {
                seconds: out.seconds,
                // ~edge traversals (each undirected edge is read twice per
                // iteration, once from each endpoint).
                units: (p.iters * p.nodes * p.degree * 2).max(1) as u64,
            })
        }
    }
}

/// Serialized fraction of interpreted work (shared refcount/lock traffic).
/// These coefficients — not measured on this host — set the Pure/Hybrid
/// scaling ceilings; see EXPERIMENTS.md ("Simulation parameters").
pub fn serialized_fraction(app: AppKind, mode: Mode) -> f64 {
    let base: f64 = match mode {
        Mode::Pure => 0.30,
        Mode::Hybrid => 0.26,
        Mode::Compiled => 0.085,
        Mode::CompiledDT => 0.065,
        Mode::PyOmp => 0.07,
    };
    match app {
        // Library-bound: the graph work is native in every mode, but each
        // call crosses the object boundary (argument boxing, result
        // refcounts), which serializes alike in all modes — the paper sees
        // ~5x at 32 threads for every mode.
        AppKind::Clustering => 0.15,
        // Every bfs task relaxes neighbor cells with CAS traffic on the
        // shared distance array — several cache-line transfers per (tiny)
        // task in every mode.
        AppKind::Bfs => base.max(0.10),
        // Dict/str work keeps contending even when compiled.
        AppKind::Wordcount => match mode {
            Mode::Pure => 0.22,
            Mode::Hybrid => 0.19,
            _ => 0.10,
        },
        _ => base,
    }
}

fn shared_ops(app: AppKind, mode: Mode, per_unit: f64, model: &CostModel) -> f64 {
    serialized_fraction(app, mode) * per_unit / model.shared_op
}

fn backend(mode: Mode) -> Backend {
    match mode {
        Mode::Pure => Backend::Mutex,
        _ => Backend::Atomic,
    }
}

fn to_sim_schedule(
    kind: ScheduleKind,
    chunk: Option<u64>,
    units: u64,
    threads: usize,
) -> SimSchedule {
    match kind {
        ScheduleKind::Static | ScheduleKind::Auto | ScheduleKind::Runtime => match chunk {
            Some(c) => SimSchedule::StaticChunk(c),
            None => SimSchedule::StaticBlock,
        },
        ScheduleKind::Dynamic => SimSchedule::Dynamic(chunk.unwrap_or(1)),
        ScheduleKind::Guided => SimSchedule::Guided(chunk.unwrap_or(1)),
    }
    .clamp_chunk(units, threads)
}

trait ClampChunk {
    fn clamp_chunk(self, units: u64, threads: usize) -> Self;
}
impl ClampChunk for SimSchedule {
    fn clamp_chunk(self, _units: u64, _threads: usize) -> Self {
        self
    }
}

/// Build the simulator workload for a benchmark in a mode.
///
/// `per_unit` is the measured single-thread cost per work unit; `prims`
/// are the host-calibrated primitive costs. `schedule` overrides the loop
/// schedule (Fig. 7); `None` uses each benchmark's paper configuration.
pub fn workload_for(
    app: AppKind,
    mode: Mode,
    per_unit: f64,
    prims: &PrimitiveCosts,
    model: &CostModel,
    threads: usize,
    schedule: Option<(ScheduleKind, Option<u64>)>,
) -> Workload {
    let claim_for = |sched: &SimSchedule| -> ClaimCost {
        match sched {
            SimSchedule::Dynamic(_) => prims.claim(backend(mode)),
            // Guided claims run a read + CAS (or a longer critical section
            // under the mutex backend): roughly twice a fetch_add.
            SimSchedule::Guided(_) => {
                let base = prims.claim(backend(mode));
                ClaimCost {
                    seconds: base.seconds * 2.0,
                    serializes: true,
                }
            }
            _ => ClaimCost::local(),
        }
    };
    let ops = |units_cost: f64| shared_ops(app, mode, units_cost, model);

    let mut w = Workload::new();
    match app {
        AppKind::Pi => {
            // Paper size: 20 billion intervals (static claims keep the event
            // count at O(threads), so the full size is simulable).
            let iters = 20_000_000_000u64;
            let sched = schedule
                .map(|(k, c)| to_sim_schedule(k, c, iters, threads))
                .unwrap_or(SimSchedule::StaticBlock);
            w = w
                .phase(Phase::ParallelFor {
                    iters,
                    cost_per_iter: per_unit,
                    shared_ops_per_iter: ops(per_unit),
                    claim: claim_for(&sched),
                    schedule: sched,
                    nowait: false,
                    imbalance: 0.0,
                })
                .phase(Phase::CriticalUpdates {
                    per_thread: 1,
                    cost: prims.mutex_claim.max(1e-7),
                });
        }
        AppKind::Fft => {
            // Paper size: 16M complex elements.
            let log2_n = 24u64;
            let n = 1u64 << log2_n;
            for _stage in 0..log2_n {
                let sched = schedule
                    .map(|(k, c)| to_sim_schedule(k, c, n / 2, threads))
                    .unwrap_or(SimSchedule::StaticBlock);
                w = w.phase(Phase::ParallelFor {
                    iters: n / 2,
                    cost_per_iter: per_unit,
                    shared_ops_per_iter: ops(per_unit),
                    claim: claim_for(&sched),
                    schedule: sched,
                    nowait: false,
                    imbalance: 0.0,
                });
            }
        }
        AppKind::Jacobi => {
            // Paper size: 3k×3k rows, up to 1000 iterations (50 simulated —
            // the per-iteration structure is what sets the scaling shape).
            let n = 3_000u64;
            let iterations = 50;
            for _ in 0..iterations {
                let sched = schedule
                    .map(|(k, c)| to_sim_schedule(k, c, n, threads))
                    .unwrap_or(SimSchedule::StaticBlock);
                w = w
                    .phase(Phase::ParallelFor {
                        iters: n,
                        cost_per_iter: per_unit,
                        shared_ops_per_iter: ops(per_unit),
                        claim: claim_for(&sched),
                        schedule: sched,
                        nowait: false,
                        imbalance: 0.0,
                    })
                    // The `single` copy-back, then the explicit barrier.
                    .phase(Phase::Serial {
                        cost: n as f64 * per_unit * 0.02,
                    })
                    .phase(Phase::Barrier);
            }
        }
        AppKind::Lu => {
            // Paper size: 2k×2k.
            let n = 2_000u64;
            // Per-step trailing-row updates: row i costs (n-k) units' worth.
            for k in 0..n {
                let rows = n - k - 1;
                if rows == 0 {
                    break;
                }
                let sched = schedule
                    .map(|(kk, c)| to_sim_schedule(kk, c, rows, threads))
                    .unwrap_or(SimSchedule::StaticBlock);
                w = w.phase(Phase::ParallelFor {
                    iters: rows,
                    cost_per_iter: per_unit * (rows as f64 / n as f64),
                    shared_ops_per_iter: ops(per_unit),
                    claim: claim_for(&sched),
                    schedule: sched,
                    nowait: false,
                    imbalance: 0.0,
                });
            }
        }
        AppKind::Md => {
            // Paper size: 8000 particles.
            let n = 8_000u64;
            for _step in 0..3 {
                let sched = schedule
                    .map(|(k, c)| to_sim_schedule(k, c, n, threads))
                    .unwrap_or(SimSchedule::StaticBlock);
                // Force phase (dominant) + two light integration loops.
                w = w
                    .phase(Phase::ParallelFor {
                        iters: n,
                        cost_per_iter: per_unit,
                        shared_ops_per_iter: ops(per_unit),
                        claim: claim_for(&sched),
                        schedule: sched,
                        nowait: false,
                        imbalance: 0.0,
                    })
                    .phase(Phase::ParallelFor {
                        iters: n,
                        cost_per_iter: per_unit * 0.01,
                        shared_ops_per_iter: ops(per_unit * 0.01),
                        claim: ClaimCost::local(),
                        schedule: SimSchedule::StaticBlock,
                        nowait: false,
                        imbalance: 0.0,
                    });
            }
        }
        AppKind::Qsort => {
            // Paper size: 400M floats; tasks per the artifact cutoff.
            let n = 400_000_000u64;
            let cutoff = n / 256;
            let count = 2 * (n / cutoff);
            w = w.phase(Phase::Tasks {
                count,
                cost_per_task: cutoff as f64 * per_unit,
                shared_ops_per_task: ops(per_unit) * cutoff as f64,
                spawn_cost: prims.task_round.max(1e-7),
                shape: TaskShape::BinaryRecursive,
            });
        }
        AppKind::Bfs => {
            // One task per expanded cell (the paper: each feasible move
            // spawns a task); the wavefront unfolds like a recursive tree.
            // Simulated at 64k cells (one event per task keeps the paper's
            // 2.1k² grid out of reach of a per-task DES; the scaling shape
            // is task-grain-bound, not count-bound).
            let cells = 65_536u64;
            w = w.phase(Phase::Tasks {
                count: cells,
                // Each expansion performs a fixed number of CAS relaxations
                // on the shared distance array regardless of mode.
                cost_per_task: per_unit,
                shared_ops_per_task: ops(per_unit).max(4.0),
                spawn_cost: prims.task_round.max(1e-7),
                shape: TaskShape::BinaryRecursive,
            });
        }
        AppKind::Clustering => {
            // Paper size: 300k nodes.
            let nodes = 300_000u64;
            let (kind, chunk) = schedule.unwrap_or((ScheduleKind::Dynamic, Some(300)));
            let sched = to_sim_schedule(kind, chunk, nodes, threads);
            w = w.phase(Phase::ParallelFor {
                iters: nodes,
                cost_per_iter: per_unit,
                shared_ops_per_iter: ops(per_unit),
                claim: claim_for(&sched),
                schedule: sched,
                nowait: false,
                // Node degrees vary: mild positional imbalance.
                imbalance: 0.4,
            });
        }
        AppKind::Wordcount => {
            // The paper's 21 GB corpus at ~2 KB/line ≈ 10M lines; 1M keeps
            // dynamic-claim event counts tractable with identical shape.
            let lines = 1_000_000u64;
            let (kind, chunk) = schedule.unwrap_or((ScheduleKind::Dynamic, Some(300)));
            let sched = to_sim_schedule(kind, chunk, lines, threads);
            w = w
                .phase(Phase::ParallelFor {
                    iters: lines,
                    cost_per_iter: per_unit,
                    shared_ops_per_iter: ops(per_unit),
                    claim: claim_for(&sched),
                    schedule: sched,
                    nowait: false,
                    // Line lengths vary strongly (the Fig. 7 lever).
                    imbalance: 1.0,
                })
                // Per-thread dict merge under critical.
                .phase(Phase::CriticalUpdates {
                    per_thread: 1,
                    cost: per_unit * 50.0,
                });
        }
        AppKind::Wavefront => {
            // Paper-style size: 2k×2k cells in 64×64 blocks. One dependence
            // task per block, submitted from a single. The DES has no
            // dependence edges, so SingleProducer + the block grain bounds
            // the achievable overlap the same way the anti-diagonal
            // wavefront does on average (width ≈ nb/2 of nb² tasks).
            let n = 2_048u64;
            let bs = 64u64;
            let nb = n / bs;
            w = w.phase(Phase::Tasks {
                count: nb * nb,
                cost_per_task: per_unit * (bs * bs) as f64,
                shared_ops_per_task: ops(per_unit) * (bs * bs) as f64,
                spawn_cost: prims.task_round.max(1e-7),
                shape: TaskShape::SingleProducer,
            });
        }
        AppKind::SparseLu => {
            // Paper-style size: 2k×2k in 32×32 blocks of 64. Kernel count
            // per step k: 1 + 2(nb−k−1) + (nb−k−1)²; total ≈ nb³/3.
            let nb = 32u64;
            let bs = 64u64;
            let kernels: u64 = (0..nb)
                .map(|k| 1 + 2 * (nb - k - 1) + (nb - k - 1).pow(2))
                .sum();
            w = w.phase(Phase::Tasks {
                count: kernels,
                cost_per_task: per_unit * (bs * bs * bs) as f64 / 3.0,
                shared_ops_per_task: ops(per_unit) * (bs * bs) as f64,
                spawn_cost: prims.task_round.max(1e-7),
                shape: TaskShape::SingleProducer,
            });
        }
        AppKind::Pagerank => {
            // Paper-style size: 300k nodes, degree 4, 20 iterations, 4
            // chunks per iteration (the pipeline's task grain).
            let (nodes, degree, iters, chunks) = (300_000u64, 4u64, 20u64, 4u64);
            let traversals = nodes * degree * 2 * iters;
            w = w.phase(Phase::Tasks {
                count: iters * chunks,
                cost_per_task: per_unit * (traversals / (iters * chunks)) as f64,
                shared_ops_per_task: ops(per_unit) * (traversals / (iters * chunks)) as f64,
                spawn_cost: prims.task_round.max(1e-7),
                shape: TaskShape::SingleProducer,
            });
        }
    }
    w
}

/// Simulate the thread sweep for a benchmark/mode; returns
/// `(threads, seconds)` pairs.
pub fn sim_sweep(
    app: AppKind,
    mode: Mode,
    per_unit: f64,
    prims: &PrimitiveCosts,
    gil: bool,
    schedule: Option<(ScheduleKind, Option<u64>)>,
) -> Vec<(usize, f64)> {
    sim_sweep_report(app, mode, per_unit, prims, gil, schedule)
        .into_iter()
        .map(|(threads, report)| (threads, report.seconds))
        .collect()
}

/// Like [`sim_sweep`], but returns the simulator's full [`SimReport`] per
/// thread count, including the barrier-wait accounting that mirrors the
/// runtime profiler's `BarrierWait` aggregation. Used by `figure5 --profile`
/// to compare measured barrier behaviour against the model.
pub fn sim_sweep_report(
    app: AppKind,
    mode: Mode,
    per_unit: f64,
    prims: &PrimitiveCosts,
    gil: bool,
    schedule: Option<(ScheduleKind, Option<u64>)>,
) -> Vec<(usize, SimReport)> {
    let model = CostModel {
        gil,
        ..CostModel::default()
    };
    SWEEP_THREADS
        .iter()
        .map(|&threads| {
            let w = workload_for(app, mode, per_unit, prims, &model, threads, schedule);
            let mut machine = Machine::new(32);
            (threads, simulate_report(&mut machine, &model, &w, threads))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prims() -> PrimitiveCosts {
        PrimitiveCosts {
            mutex_claim: 3e-8,
            atomic_claim: 8e-9,
            barrier: 2e-6,
            task_round: 4e-7,
        }
    }

    #[test]
    fn app_names_round_trip() {
        for app in AppKind::figure5()
            .into_iter()
            .chain(AppKind::figure6())
            .chain(AppKind::tasks_suite())
        {
            assert_eq!(AppKind::parse(app.name()), Some(app), "{app:?}");
        }
        assert_eq!(AppKind::parse("bogus"), None);
    }

    #[test]
    fn tasks_suite_is_outside_pyomp_envelope() {
        for app in AppKind::tasks_suite() {
            assert!(!app.pyomp_supported(), "{app:?} needs depend");
        }
    }

    #[test]
    fn pyomp_envelope_matches_paper() {
        assert!(AppKind::Pi.pyomp_supported());
        assert!(!AppKind::Qsort.pyomp_supported());
        assert!(!AppKind::Bfs.pyomp_supported());
        assert!(!AppKind::Clustering.pyomp_supported());
        assert!(!AppKind::Wordcount.pyomp_supported());
    }

    #[test]
    fn compileddt_sweeps_scale_well() {
        // Fig. 5's CompiledDT curves: good scaling to 32 threads.
        for app in [AppKind::Pi, AppKind::Md] {
            let sweep = sim_sweep(app, Mode::CompiledDT, 2e-7, &prims(), false, None);
            let t1 = sweep[0].1;
            let t32 = sweep.last().unwrap().1;
            let speedup = t1 / t32;
            assert!(speedup > 8.0, "{app:?}: CompiledDT speedup@32 = {speedup}");
        }
    }

    #[test]
    fn pure_sweeps_hit_a_ceiling() {
        // Fig. 5's Pure curves: limited scaling (paper max 3.6×).
        let sweep = sim_sweep(AppKind::Pi, Mode::Pure, 2e-5, &prims(), false, None);
        let t1 = sweep[0].1;
        let best = sweep.iter().map(|&(_, t)| t1 / t).fold(0.0, f64::max);
        assert!(best < 6.0, "Pure speedup should be capped, got {best}");
        assert!(best > 1.5, "Pure should still gain something, got {best}");
    }

    #[test]
    fn gil_sweeps_are_flat() {
        let sweep = sim_sweep(AppKind::Pi, Mode::Pure, 2e-5, &prims(), true, None);
        let t1 = sweep[0].1;
        let t8 = sweep.iter().find(|&&(t, _)| t == 8).unwrap().1;
        assert!(t8 > t1 * 0.9, "GIL: no speedup expected ({t1} → {t8})");
    }

    #[test]
    fn dynamic_beats_static_for_wordcount() {
        // Fig. 7's headline: wordcount's imbalance favors dynamic. The
        // margin shows mid-sweep (at 32 threads both schedules converge on
        // the shared-traffic ceiling, as in the paper's flattening curves),
        // so compare at 8 threads.
        let p = prims();
        let at_8 = |kind, chunk| -> f64 {
            sim_sweep(
                AppKind::Wordcount,
                Mode::CompiledDT,
                5e-7,
                &p,
                false,
                Some((kind, chunk)),
            )
            .iter()
            .find(|&&(t, _)| t == 8)
            .expect("8 is in the sweep")
            .1
        };
        let static_t = at_8(ScheduleKind::Static, None);
        let dynamic_t = at_8(ScheduleKind::Dynamic, Some(300));
        assert!(
            dynamic_t < static_t,
            "dynamic ({dynamic_t}) should beat static ({static_t}) at 8 threads"
        );
    }

    #[test]
    fn measured_costs_order_modes() {
        // The headline mode ordering, measured for real on this host:
        // interpreted ≫ boxed-compiled ≫ native, on every numerical
        // benchmark whose interpreted loop body the VM runs op by op.
        let _lock = crate::timing_lock();
        let per_unit = |app, mode| measure(app, mode, 0.2).unwrap().per_unit();
        for app in [AppKind::Fft, AppKind::Jacobi, AppKind::Lu, AppKind::Md] {
            let pure = per_unit(app, Mode::Pure);
            let compiled = per_unit(app, Mode::Compiled);
            let native = per_unit(app, Mode::CompiledDT);
            assert!(
                pure > compiled && compiled > native,
                "{app:?} per-unit costs must order: pure={pure:.2e} compiled={compiled:.2e} native={native:.2e}"
            );
        }
        // π is the exception: the VM runs its loop body as one fused
        // superinstruction over unboxed floats, which puts interpreted π
        // level with boxed-compiled code (EXPERIMENTS.md, Figure 5). It
        // must still order above native and be clearly interpreted.
        let pure = per_unit(AppKind::Pi, Mode::Pure);
        let compiled = per_unit(AppKind::Pi, Mode::Compiled);
        let native = per_unit(AppKind::Pi, Mode::CompiledDT);
        assert!(
            compiled > native,
            "pi per-unit costs must order: compiled={compiled:.2e} native={native:.2e}"
        );
        assert!(
            pure / native > 5.0,
            "interpreter gap should be large: {}",
            pure / native
        );
    }
}
