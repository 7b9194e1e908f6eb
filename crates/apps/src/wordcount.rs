//! Word count over a text corpus (paper §IV-B *wordcount*).
//!
//! String- and dict-heavy: per-thread dictionaries are filled from
//! work-shared line chunks and merged under `critical`. The paper uses the
//! Spanish Wikipedia dump; the artifact falls back to a seeded synthetic
//! corpus when no file is given — that fallback (Zipf-distributed words,
//! varying line lengths) is what [`crate::workloads::zipf_corpus`]
//! implements. Line-length variance creates the load imbalance that makes
//! dynamic scheduling win in Fig. 7.
//!
//! PyOMP cannot run this benchmark (no dict support in its Numba release).

use std::collections::HashMap;

use minipy::{HKey, Value};
use omp4rs::exec::{parallel_region, ForSpec, ParallelConfig};
use omp4rs::{Backend, ScheduleKind};
use parking_lot::Mutex;

use crate::modes::{timed, BenchOutput, Mode};
use crate::pyomp;
use crate::workloads::{zipf_corpus, DEFAULT_SEED};

/// Features exercised (Fig. 6/7 benchmark; not part of Table I).
pub const FEATURES: &str = "parallel, for, critical merge | schedule sweep";

/// Problem parameters (paper: 21 GB eswiki dump; scaled synthetic default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Number of corpus lines.
    pub lines: usize,
    /// Average words per line (actual lengths vary ±50%).
    pub words_per_line: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Workload seed.
    pub seed: u64,
    /// Schedule for the line loop (Fig. 7 sweeps this; paper chunk 300).
    pub schedule: ScheduleKind,
    /// Chunk size.
    pub chunk: Option<u64>,
}

impl Default for Params {
    fn default() -> Params {
        Params {
            lines: 4_000,
            words_per_line: 24,
            vocab: 5_000,
            seed: DEFAULT_SEED,
            schedule: ScheduleKind::Dynamic,
            chunk: Some(300),
        }
    }
}

/// Build the corpus.
pub fn corpus(p: &Params) -> Vec<String> {
    zipf_corpus(p.lines, p.words_per_line, p.vocab, p.seed)
}

/// Sequential reference.
pub fn seq(lines: &[String]) -> HashMap<String, u64> {
    let mut counts = HashMap::new();
    for line in lines {
        for word in line.split_whitespace() {
            *counts.entry(word.to_owned()).or_insert(0) += 1;
        }
    }
    counts
}

/// Mode-independent checksum: distinct words and total occurrences.
pub fn checksum(counts: &HashMap<String, u64>) -> f64 {
    let total: u64 = counts.values().sum();
    counts.len() as f64 * 1e9 + total as f64
}

fn for_spec(p: &Params) -> ForSpec {
    ForSpec::new().schedule(p.schedule, p.chunk)
}

/// CompiledDT: native `HashMap` per thread, merged under `critical`.
pub fn native(p: &Params, threads: usize, lines: &[String]) -> HashMap<String, u64> {
    let n = lines.len() as i64;
    let merged: Mutex<HashMap<String, u64>> = Mutex::new(HashMap::new());
    let cfg = ParallelConfig::new()
        .num_threads(threads)
        .backend(Backend::Atomic);
    parallel_region(&cfg, |ctx| {
        let mut local: HashMap<String, u64> = HashMap::new();
        ctx.for_each(for_spec(p), 0..n, |i| {
            for word in lines[i as usize].split_whitespace() {
                *local.entry(word.to_owned()).or_insert(0) += 1;
            }
        });
        ctx.critical(Some("wordcount_merge"), || {
            let mut m = merged.lock();
            for (k, v) in local.drain() {
                *m.entry(k).or_insert(0) += v;
            }
        });
    });
    merged.into_inner()
}

/// Compiled: per-thread boxed dicts (`minipy::Value::Dict`) and boxed
/// string splitting — Cython cannot optimize str/dict operations, which is
/// why the paper sees only slight gains here.
pub fn dynamic(p: &Params, threads: usize, lines: &[String]) -> HashMap<String, u64> {
    let boxed_lines: Vec<Value> = lines.iter().map(|l| Value::str(l.as_str())).collect();
    let n = boxed_lines.len() as i64;
    let merged = Value::dict();
    let cfg = ParallelConfig::new()
        .num_threads(threads)
        .backend(Backend::Atomic);
    parallel_region(&cfg, |ctx| {
        let local = Value::dict();
        ctx.for_each(for_spec(p), 0..n, |i| {
            let line = &boxed_lines[i as usize];
            let text = line.as_str().expect("line").to_owned();
            if let Value::Dict(map) = &local {
                for word in text.split_whitespace() {
                    let key = HKey::Str(word.into());
                    let mut map = map.write();
                    let next = match map.get(&key) {
                        Some(v) => v.as_int().expect("count") + 1,
                        None => 1,
                    };
                    map.insert(key, Value::Int(next));
                }
            }
        });
        ctx.critical(Some("wordcount_merge_dyn"), || {
            if let (Value::Dict(dst), Value::Dict(src)) = (&merged, &local) {
                let mut dst = dst.write();
                for (k, v) in src.read().iter() {
                    let add = v.as_int().expect("count");
                    let next = match dst.get(k) {
                        Some(prev) => prev.as_int().expect("count") + add,
                        None => add,
                    };
                    dst.insert(k.clone(), Value::Int(next));
                }
            }
        });
    });
    let mut out = HashMap::new();
    if let Value::Dict(map) = &merged {
        for (k, v) in map.read().iter() {
            if let HKey::Str(s) = k {
                out.insert(s.to_string(), v.as_int().expect("count") as u64);
            }
        }
    }
    out
}

/// Interpreted source, parameterized by the schedule clause.
pub fn source_with_schedule(schedule: &str) -> String {
    format!(
        r#"
from omp4py import *

@omp
def wordcount(lines, n, nthreads):
    counts = {{}}
    with omp("parallel num_threads(nthreads)"):
        local = {{}}
        with omp("for {schedule}"):
            for i in range(n):
                for w in lines[i].split():
                    local[w] = local.get(w, 0) + 1
        with omp("critical"):
            for k in local:
                counts[k] = counts.get(k, 0) + local[k]
    return counts
"#
    )
}

fn schedule_clause(p: &Params) -> String {
    match p.chunk {
        Some(c) => format!("schedule({}, {c})", p.schedule.name()),
        None => format!("schedule({})", p.schedule.name()),
    }
}

/// Pure/Hybrid: interpreted execution.
pub fn interpreted(
    mode: Mode,
    p: &Params,
    threads: usize,
    lines: &[String],
) -> HashMap<String, u64> {
    let source = source_with_schedule(&schedule_clause(p));
    let runner = crate::modes::interpreted_runner(mode, &source);
    let boxed = Value::list(lines.iter().map(|l| Value::str(l.as_str())).collect());
    let result = runner
        .call_global(
            "wordcount",
            vec![
                boxed,
                Value::Int(lines.len() as i64),
                Value::Int(threads as i64),
            ],
        )
        .expect("wordcount benchmark failed");
    let mut out = HashMap::new();
    if let Value::Dict(map) = &result {
        for (k, v) in map.read().iter() {
            if let HKey::Str(s) = k {
                out.insert(s.to_string(), v.as_int().expect("count") as u64);
            }
        }
    }
    out
}

/// Run in any mode, timed (corpus generation excluded).
///
/// # Errors
///
/// Returns the paper's incompatibility for [`Mode::PyOmp`] (dicts).
pub fn run(mode: Mode, threads: usize, p: &Params) -> Result<BenchOutput, String> {
    if mode == Mode::PyOmp {
        return Err(pyomp::unsupported_reason("wordcount")
            .expect("wordcount unsupported")
            .to_owned());
    }
    let lines = corpus(p);
    let (counts, seconds) = match mode {
        Mode::Pure | Mode::Hybrid => timed(|| interpreted(mode, p, threads, &lines)),
        Mode::Compiled => timed(|| dynamic(p, threads, &lines)),
        Mode::CompiledDT => timed(|| native(p, threads, &lines)),
        Mode::PyOmp => unreachable!(),
    };
    Ok(BenchOutput {
        seconds,
        check: checksum(&counts),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Params {
        Params {
            lines: 120,
            words_per_line: 10,
            vocab: 200,
            seed: 51,
            schedule: ScheduleKind::Dynamic,
            chunk: Some(8),
        }
    }

    #[test]
    fn seq_counts_words() {
        let lines = vec!["a b a".to_owned(), "b c".to_owned()];
        let counts = seq(&lines);
        assert_eq!(counts["a"], 2);
        assert_eq!(counts["b"], 2);
        assert_eq!(counts["c"], 1);
    }

    #[test]
    fn native_matches_seq() {
        let p = small();
        let lines = corpus(&p);
        let reference = seq(&lines);
        for threads in [1, 4] {
            let counts = native(&p, threads, &lines);
            assert_eq!(counts, reference, "threads={threads}");
        }
    }

    #[test]
    fn dynamic_matches_seq() {
        let p = small();
        let lines = corpus(&p);
        assert_eq!(dynamic(&p, 3, &lines), seq(&lines));
    }

    #[test]
    fn interpreted_matches_seq() {
        let p = Params {
            lines: 40,
            ..small()
        };
        let lines = corpus(&p);
        let reference = seq(&lines);
        for mode in [Mode::Pure, Mode::Hybrid] {
            assert_eq!(interpreted(mode, &p, 2, &lines), reference, "{mode}");
        }
    }

    #[test]
    fn schedules_agree() {
        let lines = corpus(&small());
        let reference = seq(&lines);
        for schedule in [
            ScheduleKind::Static,
            ScheduleKind::Dynamic,
            ScheduleKind::Guided,
        ] {
            let p = Params {
                schedule,
                ..small()
            };
            assert_eq!(native(&p, 3, &lines), reference, "{schedule}");
        }
    }

    #[test]
    fn pyomp_lacks_dicts() {
        let err = run(Mode::PyOmp, 2, &small()).unwrap_err();
        assert!(err.contains("dictionaries"), "{err}");
    }
}
