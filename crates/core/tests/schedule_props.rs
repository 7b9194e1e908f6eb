//! Property-based tests of the scheduling/iteration-space invariants.

use std::sync::Arc;

use omp4rs::directive::{Directive, ScheduleKind};
use omp4rs::schedule::{ForBounds, LoopDims, ResolvedSchedule};
use omp4rs::sync::{Backend, Notifier};
use omp4rs::worksharing::WorkshareRegistry;
use proptest::prelude::*;

fn resolved(kind: ScheduleKind, chunk: Option<u64>) -> ResolvedSchedule {
    ResolvedSchedule {
        kind,
        chunk: chunk.unwrap_or(1).max(1),
        explicit_chunk: chunk.is_some(),
    }
}

/// Collect every flat iteration each thread would execute (single shared
/// instance, threads drained round-robin like a sequentialized team).
fn partition(
    kind: ScheduleKind,
    chunk: Option<u64>,
    dims: &LoopDims,
    threads: usize,
) -> Vec<Vec<u64>> {
    let reg = WorkshareRegistry::new(Backend::Atomic, threads, Arc::new(Notifier::new()));
    let inst = reg.enter(0);
    let mut bounds: Vec<ForBounds> = (0..threads)
        .map(|t| {
            ForBounds::init(
                dims.clone(),
                resolved(kind, chunk),
                t,
                threads,
                Some(Arc::clone(&inst)),
            )
        })
        .collect();
    let mut out = vec![Vec::new(); threads];
    let mut progressed = true;
    while progressed {
        progressed = false;
        for (t, fb) in bounds.iter_mut().enumerate() {
            if fb.next() {
                out[t].extend(fb.lo..fb.hi);
                progressed = true;
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every schedule covers each iteration exactly once, for arbitrary
    /// (range, step, chunk, team size).
    #[test]
    fn schedules_partition_iteration_space(
        start in -50i64..50,
        len in 0i64..200,
        step in prop_oneof![1i64..5, (-5i64..-1).prop_map(|s| s)],
        chunk in prop_oneof![Just(None), (1u64..16).prop_map(Some)],
        threads in 1usize..9,
        kind_idx in 0usize..4,
    ) {
        let kind = [
            ScheduleKind::Static,
            ScheduleKind::Dynamic,
            ScheduleKind::Guided,
            ScheduleKind::Auto,
        ][kind_idx];
        let stop = start + len * step.signum();
        let dims = LoopDims::new(&[(start, stop, step)]).expect("nonzero step");
        let total = dims.total();
        let per_thread = partition(kind, chunk, &dims, threads);
        let mut all: Vec<u64> = per_thread.into_iter().flatten().collect();
        all.sort_unstable();
        let expect: Vec<u64> = (0..total).collect();
        prop_assert_eq!(all, expect, "{:?} chunk={:?} threads={}", kind, chunk, threads);
    }

    /// A clause-less loop and a `schedule(auto)` loop resolve to the same
    /// pure function of (iterations, team size, mode): resolving again gives
    /// the same answer, and the resolved schedule (guided with minimum chunk
    /// `total / (8 × threads)` when interpreted, static blocks when
    /// compiled) partitions the space.
    #[test]
    fn default_schedule_is_a_function_of_the_instance(
        total in 0i64..5_000,
        threads in 1usize..9,
        interpreted in any::<bool>(),
    ) {
        let n = total as u64;
        let default = ResolvedSchedule::resolve(None, n, threads, interpreted);
        let auto = ResolvedSchedule::resolve(Some((ScheduleKind::Auto, None)), n, threads, interpreted);
        prop_assert_eq!(default, auto);
        prop_assert_eq!(default, ResolvedSchedule::resolve(None, n, threads, interpreted));
        let dims = LoopDims::simple(total);
        let per_thread = partition(default.kind, default.explicit_chunk.then_some(default.chunk), &dims, threads);
        let mut all: Vec<u64> = per_thread.into_iter().flatten().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<u64>>());
        if interpreted {
            prop_assert_eq!(default.kind, ScheduleKind::Guided);
            prop_assert_eq!(default.chunk, (n / (8 * threads as u64)).max(1));
        } else {
            prop_assert_eq!(default.kind, ScheduleKind::Static);
            prop_assert!(!default.explicit_chunk);
        }
    }

    /// Flat→variable mapping is a bijection for collapsed loops.
    #[test]
    fn collapse_mapping_is_bijective(
        n1 in 1i64..12,
        n2 in 1i64..12,
        s1 in 1i64..4,
        s2 in 1i64..4,
    ) {
        let dims = LoopDims::new(&[(0, n1 * s1, s1), (0, n2 * s2, s2)]).expect("valid");
        let mut seen = std::collections::HashSet::new();
        for flat in 0..dims.total() {
            let vars = dims.vars_of(flat);
            prop_assert_eq!(vars.len(), 2);
            prop_assert!(vars[0] % s1 == 0 && vars[0] < n1 * s1);
            prop_assert!(vars[1] % s2 == 0 && vars[1] < n2 * s2);
            prop_assert!(seen.insert(vars.clone()), "duplicate {:?}", vars);
        }
        prop_assert_eq!(seen.len() as u64, dims.total());
    }

    /// Rank-1 var_chunk/flat_of_var round trip.
    #[test]
    fn var_chunk_round_trips(
        start in -100i64..100,
        len in 1i64..100,
        step in prop_oneof![1i64..6, (-6i64..-1).prop_map(|s| s)],
        lo_frac in 0.0f64..1.0,
        hi_frac in 0.0f64..1.0,
    ) {
        let stop = start + len * step.signum();
        let dims = LoopDims::new(&[(start, stop, step)]).expect("valid");
        let total = dims.total();
        prop_assume!(total > 0);
        let lo = (lo_frac * total as f64) as u64 % total;
        let hi = lo + 1 + ((hi_frac * (total - lo) as f64) as u64).min(total - lo - 1);
        let (v0, v1, st) = dims.var_chunk(lo, hi);
        prop_assert_eq!(st, step);
        // Walking the chunk in variable space visits exactly flat lo..hi.
        let mut v = v0;
        let mut flat = lo;
        while if st > 0 { v < v1 } else { v > v1 } {
            prop_assert_eq!(dims.flat_of_var(v), flat);
            v += st;
            flat += 1;
        }
        prop_assert_eq!(flat, hi);
    }

    /// The directive parser accepts every well-formed combination produced
    /// by the generator, and its accessors agree with the input.
    #[test]
    fn directive_parser_accepts_generated(
        nthreads in 1u64..64,
        chunk in 1u64..1000,
        kind_idx in 0usize..3,
        privates in proptest::collection::vec("[a-z][a-z0-9_]{0,8}", 0..4),
        nowait in any::<bool>(),
    ) {
        let kind = ["static", "dynamic", "guided"][kind_idx];
        let mut text = format!("parallel for num_threads({nthreads}) schedule({kind}, {chunk})");
        let mut unique = privates.clone();
        unique.sort();
        unique.dedup();
        // Avoid directive keywords colliding with variable names.
        unique.retain(|v| !["if", "for", "in", "and", "or", "not", "task"].contains(&v.as_str()));
        if !unique.is_empty() {
            text.push_str(&format!(" private({})", unique.join(", ")));
        }
        // `parallel for` does not admit nowait; use a plain `for` when set.
        let d = if nowait {
            let mut t = format!("for schedule({kind}, {chunk})");
            if !unique.is_empty() {
                t.push_str(&format!(" private({})", unique.join(", ")));
            }
            t.push_str(" nowait");
            Directive::parse(&t).expect("valid for directive")
        } else {
            Directive::parse(&text).expect("valid parallel for directive")
        };
        let nthreads_text = nthreads.to_string();
        let chunk_text = chunk.to_string();
        if nowait {
            prop_assert!(d.has_nowait());
        } else {
            prop_assert_eq!(d.num_threads_expr(), Some(nthreads_text.as_str()));
        }
        let (k, c) = d.schedule().expect("schedule present");
        prop_assert_eq!(k.name(), kind);
        prop_assert_eq!(c, Some(chunk_text.as_str()));
        prop_assert_eq!(d.private_vars().len(), unique.len());
    }

    /// for_reduce sums are exact for arbitrary ranges and team sizes.
    #[test]
    fn for_reduce_exact_sum(
        n in 0i64..500,
        threads in 1usize..7,
        chunk in 1u64..16,
        dynamic in any::<bool>(),
    ) {
        let spec = if dynamic {
            omp4rs::ForSpec::new().schedule(ScheduleKind::Dynamic, Some(chunk))
        } else {
            omp4rs::ForSpec::new().schedule(ScheduleKind::Static, Some(chunk))
        };
        let result = std::sync::Mutex::new(0i64);
        let cfg = omp4rs::ParallelConfig::new().num_threads(threads);
        omp4rs::parallel_region(&cfg, |ctx| {
            let s = ctx.for_reduce(spec, 0..n, 0i64, |i, acc| *acc += i, |a, b| a + b);
            ctx.master(|| *result.lock().unwrap() = s);
        });
        prop_assert_eq!(*result.lock().unwrap(), n * (n - 1) / 2);
    }
}
