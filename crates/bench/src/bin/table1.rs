//! Regenerate Table I: static characteristics of the evaluated benchmarks.
//!
//! Usage: `table1` (no arguments)

use omp4rs_apps as apps;
use omp4rs_bench::cli::Spec;

const SPEC: Spec = Spec {
    usage: "usage: table1",
    switches: &[],
    options: &[],
    positional: 0..=0,
};

fn main() {
    SPEC.parse();
    println!("TABLE I — STATIC CHARACTERISTICS OF EVALUATED BENCHMARKS");
    println!("{:-<78}", "");
    println!(
        "{:<10} | {:<45} | synchronization",
        "benchmark", "OpenMP features"
    );
    println!("{:-<78}", "");
    let rows: [(&str, &str); 7] = [
        ("fft", apps::fft::FEATURES),
        ("jacobi", apps::jacobi::FEATURES),
        ("lu", apps::lu::FEATURES),
        ("md", apps::md::FEATURES),
        ("pi", apps::pi::FEATURES),
        ("qsort", apps::qsort::FEATURES),
        ("bfs", apps::bfs::FEATURES),
    ];
    for (name, features) in rows {
        let mut parts = features.split('|');
        let constructs = parts.next().unwrap_or("").trim();
        let rest: Vec<&str> = parts.map(str::trim).collect();
        let sync = rest.last().copied().unwrap_or("");
        let clauses = if rest.len() > 1 { rest[0] } else { "" };
        let mid = if clauses.is_empty() {
            constructs.to_string()
        } else {
            format!("{constructs} {clauses}")
        };
        println!("{name:<10} | {mid:<45} | {sync}");
    }
    println!("{:-<78}", "");
    println!("(paper Table I; every row regenerated from the benchmark modules' FEATURES)");
}
