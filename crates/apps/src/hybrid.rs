//! Hybrid MPI/OpenMP Jacobi (paper §IV-C, Fig. 8).
//!
//! MPI distributes the rows of `A` and the entries of `b` across ranks;
//! within each iteration every rank updates its block of `x` with OpenMP,
//! the updated vector is exchanged with `MPI_Allgather`, and convergence is
//! checked with `MPI_Allreduce` — exactly the paper's structure, with
//! `minimpi` standing in for mpi4py and a [`minimpi::NetModel`] charging
//! inter-node transfer costs.

use minimpi::{Comm, NetModel, World};
use minipy::Value;
use omp4rs::exec::{parallel_region, ForSpec, ParallelConfig};
use omp4rs::Backend;
use parking_lot::Mutex;

use crate::modes::{interpreted_runner, timed, BenchOutput, Mode};
use crate::workloads::{diag_dominant_system, DEFAULT_SEED};

/// Problem parameters (paper: 3k×3k, 20k×20k for CompiledDT; scaled).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Matrix dimension (must be a multiple of the rank count).
    pub n: usize,
    /// Iteration cap.
    pub max_iters: usize,
    /// Convergence tolerance.
    pub tol: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Params {
        Params {
            n: 96,
            max_iters: 400,
            tol: 1e-6,
            seed: DEFAULT_SEED,
        }
    }
}

/// One rank's local block update in CompiledDT mode; returns
/// `(x_new_local, local_err)`.
fn local_update_native(
    a_rows: &[Vec<f64>],
    b_local: &[f64],
    x: &[f64],
    row_start: usize,
    threads: usize,
) -> (Vec<f64>, f64) {
    let rows = a_rows.len();
    let mut x_new = vec![0.0f64; rows];
    let err_out = Mutex::new(0.0f64);
    {
        let x_new_s = crate::util::SharedSlice::new(&mut x_new);
        let cfg = ParallelConfig::new()
            .num_threads(threads)
            .backend(Backend::Atomic);
        parallel_region(&cfg, |ctx| {
            let err = ctx.for_reduce(
                ForSpec::new(),
                0..rows as i64,
                0.0f64,
                |i, acc| {
                    let i = i as usize;
                    let gi = row_start + i;
                    let row = &a_rows[i];
                    let mut s = 0.0;
                    for (j, &aij) in row.iter().enumerate() {
                        if j != gi {
                            s += aij * x[j];
                        }
                    }
                    let v = (b_local[i] - s) / row[gi];
                    // SAFETY: disjoint indices per thread.
                    unsafe { x_new_s.set(i, v) };
                    *acc = acc.max((v - x[gi]).abs());
                },
                f64::max,
            );
            ctx.master(|| *err_out.lock() = err);
        });
    }
    (x_new, err_out.into_inner())
}

/// Interpreted local update source (Pure/Hybrid ranks).
const LOCAL_SOURCE: &str = r#"
from omp4py import *

@omp
def local_update(a_rows, b_local, x, row_start, rows, nthreads):
    err = 0.0
    x_new = [0.0] * rows
    with omp("parallel for reduction(max:err) num_threads(nthreads)"):
        for i in range(rows):
            gi = row_start + i
            row = a_rows[i]
            s = 0.0
            for j in range(len(row)):
                if j != gi:
                    s += row[j] * x[j]
            v = (b_local[i] - s) / row[gi]
            d = v - x[gi]
            if d < 0.0:
                d = -d
            x_new[i] = v
            err = max(err, d)
    return [err, x_new]
"#;

/// Deadline on each solution exchange when no fault is injected: generous
/// enough that a healthy run never trips it.
const HEALTHY_EXCHANGE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(60);

/// Fault injection for [`solve_with_fault`]: `rank` goes silent (drops all
/// outgoing messages) at the start of iteration `at_iter`, and every healthy
/// rank's exchange runs under `timeout`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankFault {
    /// Rank that fails.
    pub rank: usize,
    /// Iteration at which it fails (0-based).
    pub at_iter: usize,
    /// Exchange deadline for the surviving ranks.
    pub timeout: std::time::Duration,
}

/// Run the hybrid jacobi: `nodes` MPI ranks × `threads` OpenMP threads.
/// Returns the converged solution (gathered) for verification.
///
/// # Errors
///
/// Fails for [`Mode::PyOmp`] (Numba cannot integrate mpi4py) and when `n`
/// is not divisible by `nodes`.
pub fn solve(
    mode: Mode,
    nodes: usize,
    threads: usize,
    p: &Params,
    net: NetModel,
) -> Result<Vec<f64>, String> {
    solve_with_fault(mode, nodes, threads, p, net, None)
}

/// [`solve`] with optional rank-failure injection. The solution-vector
/// exchange uses minimpi's deadline collectives, so a dead rank surfaces as
/// an error return on every surviving rank instead of a hang.
///
/// # Errors
///
/// See [`solve`]; additionally, every exchange that exceeds its deadline
/// (because a rank died) reports the underlying [`minimpi::MpiError`].
pub fn solve_with_fault(
    mode: Mode,
    nodes: usize,
    threads: usize,
    p: &Params,
    net: NetModel,
    fault: Option<RankFault>,
) -> Result<Vec<f64>, String> {
    if mode == Mode::PyOmp {
        return Err(crate::pyomp::unsupported_reason("hybrid")
            .expect("hybrid unsupported")
            .to_owned());
    }
    if !p.n.is_multiple_of(nodes) {
        return Err(format!("n={} must be divisible by nodes={nodes}", p.n));
    }
    let (a, b) = diag_dominant_system(p.n, p.seed);
    let rows_per_rank = p.n / nodes;
    let p = *p;

    let timeout = fault.map_or(HEALTHY_EXCHANGE_TIMEOUT, |f| f.timeout);

    let results = World::run_with_net(nodes, net, move |comm: &Comm| {
        let rank = comm.rank();
        let row_start = rank * rows_per_rank;
        let a_rows: Vec<Vec<f64>> = a[row_start..row_start + rows_per_rank].to_vec();
        let b_local: Vec<f64> = b[row_start..row_start + rows_per_rank].to_vec();
        let mut x = vec![0.0f64; p.n];

        // Interpreted ranks set up their interpreter once.
        let runner = mode
            .exec_mode()
            .map(|_| interpreted_runner(mode, LOCAL_SOURCE));
        let a_boxed: Option<Value> = runner.as_ref().map(|_| {
            Value::list(
                a_rows
                    .iter()
                    .map(|row| Value::list(row.iter().map(|&v| Value::Float(v)).collect()))
                    .collect(),
            )
        });
        let b_boxed: Option<Value> = runner
            .as_ref()
            .map(|_| Value::list(b_local.iter().map(|&v| Value::Float(v)).collect()));

        for iter in 0..p.max_iters {
            if let Some(f) = fault {
                if f.rank == rank && f.at_iter == iter {
                    comm.inject_failure();
                    return Err(format!("rank {rank} failed at iteration {iter} (injected)"));
                }
            }
            let (x_new, local_err) = match (&runner, mode) {
                (Some(runner), Mode::Pure | Mode::Hybrid) => {
                    let x_boxed = Value::list(x.iter().map(|&v| Value::Float(v)).collect());
                    let out = runner
                        .call_global(
                            "local_update",
                            vec![
                                a_boxed.clone().expect("boxed a"),
                                b_boxed.clone().expect("boxed b"),
                                x_boxed,
                                Value::Int(row_start as i64),
                                Value::Int(rows_per_rank as i64),
                                Value::Int(threads as i64),
                            ],
                        )
                        .expect("local_update failed");
                    match &out {
                        Value::List(l) => {
                            let l = l.read();
                            let err = l[0].as_float().expect("err");
                            let x_new: Vec<f64> = match &l[1] {
                                Value::List(xs) => {
                                    xs.read().iter().map(|v| v.as_float().expect("x")).collect()
                                }
                                _ => unreachable!(),
                            };
                            (x_new, err)
                        }
                        _ => unreachable!(),
                    }
                }
                // Compiled and CompiledDT share the native kernel; the
                // Compiled variant's boxing overhead is second-order next to
                // the MPI exchange this experiment studies.
                _ => local_update_native(&a_rows, &b_local, &x, row_start, threads),
            };
            // Exchange the solution vector (paper: MPI_Allgather)…
            x = comm
                .allgather_timeout(x_new, timeout)
                .map_err(|e| format!("rank {rank}, iteration {iter}: {e}"))?;
            // …and evaluate the stopping criterion (paper: MPI_Allreduce).
            let global_err = comm
                .allreduce_max_timeout(local_err, timeout)
                .map_err(|e| format!("rank {rank}, iteration {iter}: {e}"))?;
            if global_err < p.tol {
                break;
            }
        }
        Ok(x)
    });
    let mut solutions = Vec::with_capacity(results.len());
    for r in results {
        solutions.push(r?);
    }
    Ok(solutions.into_iter().next().expect("rank 0 result"))
}

/// Run + time; check is the solution checksum.
///
/// # Errors
///
/// See [`solve`].
pub fn run(
    mode: Mode,
    nodes: usize,
    threads: usize,
    p: &Params,
    net: NetModel,
) -> Result<BenchOutput, String> {
    let (result, seconds) = timed(|| solve(mode, nodes, threads, p, net));
    let x = result?;
    Ok(BenchOutput {
        seconds,
        check: x.iter().sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi;
    use crate::modes::close;

    fn small() -> Params {
        Params {
            n: 24,
            max_iters: 400,
            tol: 1e-9,
            seed: 11,
        }
    }

    #[test]
    fn single_rank_matches_sequential_jacobi() {
        let p = small();
        let jp = jacobi::Params {
            n: p.n,
            max_iters: p.max_iters,
            tol: p.tol,
            seed: p.seed,
        };
        let reference = jacobi::checksum(&jacobi::seq(&jp));
        let x = solve(Mode::CompiledDT, 1, 2, &p, NetModel::local()).unwrap();
        assert!(close(x.iter().sum(), reference, 1e-7));
    }

    #[test]
    fn multi_rank_agrees_with_single_rank() {
        let p = small();
        let x1 = solve(Mode::CompiledDT, 1, 1, &p, NetModel::local()).unwrap();
        for nodes in [2, 4] {
            let xn = solve(Mode::CompiledDT, nodes, 1, &p, NetModel::local()).unwrap();
            assert!(
                close(x1.iter().sum(), xn.iter().sum(), 1e-8),
                "nodes={nodes}"
            );
        }
    }

    #[test]
    fn interpreted_ranks_agree() {
        let p = Params {
            n: 12,
            max_iters: 200,
            tol: 1e-8,
            seed: 11,
        };
        let reference: f64 = solve(Mode::CompiledDT, 2, 1, &p, NetModel::local())
            .unwrap()
            .iter()
            .sum();
        for mode in [Mode::Pure, Mode::Hybrid] {
            let x = solve(mode, 2, 2, &p, NetModel::local()).unwrap();
            assert!(close(x.iter().sum(), reference, 1e-6), "{mode}");
        }
    }

    #[test]
    fn net_model_does_not_change_result() {
        let p = small();
        let local = solve(Mode::CompiledDT, 2, 1, &p, NetModel::local()).unwrap();
        let cluster = solve(Mode::CompiledDT, 2, 1, &p, NetModel::cluster(1)).unwrap();
        assert!(close(local.iter().sum(), cluster.iter().sum(), 1e-12));
    }

    #[test]
    fn dead_rank_yields_error_not_hang() {
        use std::time::Duration;
        let p = small();
        let start = std::time::Instant::now();
        let fault = RankFault {
            rank: 1,
            at_iter: 2,
            timeout: Duration::from_millis(300),
        };
        let out = solve_with_fault(Mode::CompiledDT, 3, 1, &p, NetModel::local(), Some(fault));
        let msg = out.expect_err("a dead rank must surface as an error");
        assert!(
            msg.contains("injected") || msg.contains("timed out") || msg.contains("exited"),
            "unexpected error: {msg}"
        );
        assert!(start.elapsed() < Duration::from_secs(30), "must not hang");
    }

    #[test]
    fn rejects_bad_decomposition() {
        let p = Params { n: 10, ..small() };
        assert!(solve(Mode::CompiledDT, 3, 1, &p, NetModel::local()).is_err());
        assert!(solve(Mode::PyOmp, 2, 1, &small(), NetModel::local()).is_err());
    }
}
