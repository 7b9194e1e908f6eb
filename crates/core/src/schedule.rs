//! Loop iteration-space math and scheduling policies.
//!
//! Implements the paper's `for_bounds` / `for_init` / `for_next` triple
//! (Fig. 3): the iteration space — possibly collapsed from nested loops — is
//! flattened to `0..total`, chunks of that flat space are claimed according
//! to the schedule, and the caller iterates each claimed chunk with an
//! ordinary `for`/`range` loop.

use std::sync::Arc;

use crate::directive::ScheduleKind;
use crate::error::OmpError;
use crate::faults::{self, FaultSite};
use crate::icv::Icvs;
use crate::ompt;
use crate::worksharing::WsInstance;

/// A (possibly collapsed) loop iteration space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopDims {
    dims: Vec<(i64, i64, i64)>,
    sizes: Vec<u64>,
    total: u64,
}

impl LoopDims {
    /// Build from `(start, stop, step)` triplets, outermost first — the
    /// paper's `for_bounds([start, end, step, …])`.
    ///
    /// # Errors
    ///
    /// Returns [`OmpError::InvalidLoop`] if any step is zero.
    pub fn new(triplets: &[(i64, i64, i64)]) -> Result<LoopDims, OmpError> {
        if triplets.is_empty() {
            return Err(OmpError::InvalidLoop(
                "loop requires at least one dimension".into(),
            ));
        }
        let mut sizes = Vec::with_capacity(triplets.len());
        let mut total: u64 = 1;
        for &(start, stop, step) in triplets {
            if step == 0 {
                return Err(OmpError::InvalidLoop("loop step must not be zero".into()));
            }
            let len = minipy_range_len(start, stop, step);
            sizes.push(len);
            total = total.saturating_mul(len);
        }
        Ok(LoopDims {
            dims: triplets.to_vec(),
            sizes,
            total,
        })
    }

    /// Convenience: a single `0..n` dimension.
    pub fn simple(n: i64) -> LoopDims {
        LoopDims::new(&[(0, n, 1)]).expect("step 1 is valid")
    }

    /// Total flattened iterations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of collapsed dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// The triplet for dimension `d`.
    pub fn dim(&self, d: usize) -> (i64, i64, i64) {
        self.dims[d]
    }

    /// Map a flattened index to the loop-variable values, outermost first.
    pub fn vars_of(&self, mut flat: u64) -> Vec<i64> {
        let mut out = vec![0i64; self.dims.len()];
        for d in (0..self.dims.len()).rev() {
            let size = self.sizes[d].max(1);
            let idx = flat % size;
            flat /= size;
            let (start, _, step) = self.dims[d];
            out[d] = start + idx as i64 * step;
        }
        out
    }

    /// For rank-1 loops: the flattened index of loop-variable value `v`.
    pub fn flat_of_var(&self, v: i64) -> u64 {
        let (start, _, step) = self.dims[0];
        ((v - start) / step) as u64
    }

    /// For rank-1 loops: map a flat chunk `[lo, hi)` to loop-variable
    /// `(first, past_end, step)` usable with a `range`-style loop.
    pub fn var_chunk(&self, lo: u64, hi: u64) -> (i64, i64, i64) {
        let (start, _, step) = self.dims[0];
        (start + lo as i64 * step, start + hi as i64 * step, step)
    }
}

/// `range(start, stop, step)` length (shared semantics with minipy).
fn minipy_range_len(start: i64, stop: i64, step: i64) -> u64 {
    if step > 0 {
        if stop > start {
            ((stop - start + step - 1) / step) as u64
        } else {
            0
        }
    } else if start > stop {
        ((start - stop + (-step) - 1) / (-step)) as u64
    } else {
        0
    }
}

/// A schedule with its chunk parameter resolved against the ICVs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedSchedule {
    /// Effective kind (`auto`/`runtime` already resolved away).
    pub kind: ScheduleKind,
    /// Effective chunk (minimum chunk for guided).
    pub chunk: u64,
    /// Whether a chunk was explicitly requested (static semantics differ).
    pub explicit_chunk: bool,
}

impl ResolvedSchedule {
    /// Resolve a `schedule(...)` clause (or its absence) for one loop
    /// instance of `total` iterations on a team of `nthreads`.
    ///
    /// `runtime` resolves through `run-sched-var`. A clause-less loop uses
    /// `def-sched-var`; while that is its static default, the loop — like
    /// one that asks for `auto` — gets this implementation's choice, a pure
    /// function of the instance's shape:
    ///
    /// * interpreted (Pure/Hybrid) loops: guided with minimum chunk
    ///   [`interpreted_min_chunk`], because every chunk claim crosses the
    ///   interpreter boundary and a static tail of tiny chunks is the cost
    ///   the paper attributes most of the Python-side scaling loss to;
    /// * compiled loops: static blocks.
    ///
    /// Explicit `static`/`dynamic`/`guided` schedules resolve as written.
    pub fn resolve(
        clause: Option<(ScheduleKind, Option<u64>)>,
        total: u64,
        nthreads: usize,
        interpreted: bool,
    ) -> ResolvedSchedule {
        let (def_schedule, run_schedule) =
            Icvs::with(|icvs| (icvs.def_schedule, icvs.run_schedule));
        let default = def_schedule == (ScheduleKind::Static, None);
        let (mut kind, mut chunk) = match clause {
            Some(spec) => spec,
            None => def_schedule,
        };
        if kind == ScheduleKind::Runtime {
            (kind, chunk) = run_schedule;
        }
        if kind == ScheduleKind::Auto || (clause.is_none() && default) {
            if interpreted {
                return ResolvedSchedule {
                    kind: ScheduleKind::Guided,
                    chunk: interpreted_min_chunk(total, nthreads),
                    explicit_chunk: true,
                };
            }
            (kind, chunk) = (ScheduleKind::Static, None);
        }
        if kind == ScheduleKind::Runtime {
            kind = ScheduleKind::Static;
        }
        ResolvedSchedule {
            kind,
            chunk: chunk.unwrap_or(1).max(1),
            explicit_chunk: chunk.is_some(),
        }
    }
}

/// Minimum chunk of the default schedule of an interpreted loop: large
/// enough that the per-chunk interpreter round-trip amortizes, small enough
/// that the team still load-balances (at most `8 × nthreads` chunks of this
/// size fit the whole space).
pub fn interpreted_min_chunk(total: u64, nthreads: usize) -> u64 {
    (total / (8 * nthreads.max(1) as u64)).max(1)
}

/// Loop driver state: the paper's `__omp_bounds` object.
///
/// Built by `for_bounds`+`for_init`, advanced by [`ForBounds::next`] (the
/// paper's `for_next`), which fills [`ForBounds::lo`]/[`ForBounds::hi`] with
/// the current chunk in flattened-iteration space.
#[derive(Debug)]
pub struct ForBounds {
    /// The iteration space.
    pub dims: LoopDims,
    /// Resolved schedule.
    pub sched: ResolvedSchedule,
    /// Current chunk start (flat), valid after `next` returns `true`.
    pub lo: u64,
    /// Current chunk end (flat, exclusive).
    pub hi: u64,
    /// Whether the current chunk contains the sequentially-last iteration
    /// (drives `lastprivate`).
    pub is_last: bool,
    thread_num: usize,
    nthreads: usize,
    /// Static schedule: index of this thread's next chunk.
    next_chunk: u64,
    /// Static-no-chunk: whether the single block was already produced.
    block_done: bool,
    /// Shared instance for dynamic/guided/ordered coordination.
    instance: Option<Arc<WsInstance>>,
    /// Wall-clock start of the chunk currently being executed by the caller,
    /// set when its `ChunkClaim` event was recorded (so its `ChunkDone` keeps
    /// the stream balanced even if the profiler toggles).
    prof_chunk_start: Option<std::time::Instant>,
    /// Iteration count of the chunk being timed.
    prof_chunk_iters: u64,
}

impl ForBounds {
    /// Initialize loop state — the paper's `for_init`.
    ///
    /// `instance` must be the team's shared work-sharing instance when the
    /// loop is `ordered`. A `None` instance has no claim counter, so it
    /// restricts the loop to static blocks (an orphaned loop outside any
    /// team runs them as one block).
    pub fn init(
        dims: LoopDims,
        mut sched: ResolvedSchedule,
        thread_num: usize,
        nthreads: usize,
        instance: Option<Arc<WsInstance>>,
    ) -> ForBounds {
        if instance.is_none() && matches!(sched.kind, ScheduleKind::Dynamic | ScheduleKind::Guided)
        {
            sched = ResolvedSchedule {
                kind: ScheduleKind::Static,
                chunk: 1,
                explicit_chunk: false,
            };
        }
        ForBounds {
            dims,
            sched,
            lo: 0,
            hi: 0,
            is_last: false,
            thread_num,
            nthreads: nthreads.max(1),
            next_chunk: thread_num as u64,
            block_done: false,
            instance,
            prof_chunk_start: None,
            prof_chunk_iters: 0,
        }
    }

    /// The shared instance, when one is attached.
    pub fn instance(&self) -> Option<&Arc<WsInstance>> {
        self.instance.as_ref()
    }

    /// Claim the next chunk — the paper's `for_next`. Returns `false` when
    /// the thread's share of the iteration space is exhausted, or when the
    /// loop (or its whole region) has been cancelled — every chunk claim is
    /// a cancellation point, so all four execution modes stop distributing
    /// iterations as soon as `cancel for` is observed.
    // Deliberately named after the paper's `for_next`, not an Iterator.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> bool {
        // The previous chunk (if the profiler timed one) ends at the next
        // claim — or at the terminal call that returns `false`, which every
        // loop driver makes.
        self.finish_profiled_chunk();
        let total = self.dims.total();
        if total == 0 {
            return false;
        }
        faults::on_event(FaultSite::ChunkClaim);
        if let Some(inst) = &self.instance {
            if inst.is_cancelled() {
                return false;
            }
        }
        let claimed = match self.sched.kind {
            ScheduleKind::Static if !self.sched.explicit_chunk => self.next_static_block(total),
            ScheduleKind::Static => self.next_static_chunked(total),
            ScheduleKind::Dynamic => self.next_dynamic(total),
            ScheduleKind::Guided => self.next_guided(total),
            // Resolved away in `ResolvedSchedule::resolve`.
            ScheduleKind::Auto | ScheduleKind::Runtime => self.next_static_block(total),
        };
        if claimed {
            self.is_last = self.hi == total;
            if ompt::enabled() {
                ompt::record_here(ompt::EventKind::ChunkClaim {
                    lo: self.lo,
                    hi: self.hi,
                });
                self.prof_chunk_start = Some(std::time::Instant::now());
                self.prof_chunk_iters = self.hi - self.lo;
            }
        }
        claimed
    }

    fn finish_profiled_chunk(&mut self) {
        if let Some(start) = self.prof_chunk_start.take() {
            ompt::record_here(ompt::EventKind::ChunkDone {
                iters: self.prof_chunk_iters,
                ns: start.elapsed().as_nanos() as u64,
            });
        }
    }

    /// Static without a chunk: one contiguous block per thread, sizes
    /// differing by at most one iteration.
    fn next_static_block(&mut self, total: u64) -> bool {
        if self.block_done {
            return false;
        }
        self.block_done = true;
        let t = self.thread_num as u64;
        let n = self.nthreads as u64;
        let base = total / n;
        let rem = total % n;
        let lo = t * base + t.min(rem);
        let len = base + u64::from(t < rem);
        if len == 0 {
            return false;
        }
        self.lo = lo;
        self.hi = lo + len;
        true
    }

    /// Static with chunk `c`: chunks assigned round-robin in advance.
    fn next_static_chunked(&mut self, total: u64) -> bool {
        let c = self.sched.chunk;
        let lo = self.next_chunk * c;
        if lo >= total {
            return false;
        }
        self.lo = lo;
        self.hi = (lo + c).min(total);
        self.next_chunk += self.nthreads as u64;
        true
    }

    /// Dynamic: claim `chunk` iterations from the shared counter.
    fn next_dynamic(&mut self, total: u64) -> bool {
        let inst = self
            .instance
            .as_ref()
            .expect("dynamic schedule requires a shared instance");
        let c = self.sched.chunk;
        let lo = inst.counter.fetch_add(c);
        if lo >= total {
            return false;
        }
        self.lo = lo;
        self.hi = (lo + c).min(total);
        true
    }

    /// Guided: claim decreasing chunk sizes, never below the minimum chunk.
    fn next_guided(&mut self, total: u64) -> bool {
        let inst = self
            .instance
            .as_ref()
            .expect("guided schedule requires a shared instance");
        let min_chunk = self.sched.chunk;
        let n = self.nthreads as u64;
        let result = inst.counter.fetch_update(|cur| {
            if cur >= total {
                return None;
            }
            let remaining = total - cur;
            let size = (remaining.div_ceil(2 * n)).max(min_chunk).min(remaining);
            Some(cur + size)
        });
        match result {
            Ok(prev) => {
                let remaining = total - prev;
                let size = (remaining.div_ceil(2 * n)).max(min_chunk).min(remaining);
                self.lo = prev;
                self.hi = prev + size;
                true
            }
            Err(_) => false,
        }
    }
}

impl Drop for ForBounds {
    /// A driver abandoned mid-loop (cancellation observed by the caller, or
    /// a panicking chunk body) still closes its timed chunk.
    fn drop(&mut self) {
        self.finish_profiled_chunk();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{Backend, Notifier};
    use crate::worksharing::WorkshareRegistry;

    fn sched(kind: ScheduleKind, chunk: Option<u64>) -> ResolvedSchedule {
        ResolvedSchedule {
            kind,
            chunk: chunk.unwrap_or(1).max(1),
            explicit_chunk: chunk.is_some(),
        }
    }

    fn collect_iters(
        kind: ScheduleKind,
        chunk: Option<u64>,
        total: i64,
        nthreads: usize,
    ) -> Vec<Vec<u64>> {
        let reg = WorkshareRegistry::new(Backend::Atomic, nthreads, Arc::new(Notifier::new()));
        let inst = reg.enter(0);
        (0..nthreads)
            .map(|t| {
                let mut fb = ForBounds::init(
                    LoopDims::simple(total),
                    sched(kind, chunk),
                    t,
                    nthreads,
                    Some(Arc::clone(&inst)),
                );
                let mut got = Vec::new();
                while fb.next() {
                    got.extend(fb.lo..fb.hi);
                }
                got
            })
            .collect()
    }

    fn assert_complete_partition(per_thread: &[Vec<u64>], total: u64) {
        let mut all: Vec<u64> = per_thread.iter().flatten().copied().collect();
        all.sort_unstable();
        let expect: Vec<u64> = (0..total).collect();
        assert_eq!(all, expect, "iterations must partition 0..{total}");
    }

    #[test]
    fn static_block_partition_exact() {
        for (total, threads) in [(10i64, 3usize), (7, 7), (5, 8), (100, 4), (1, 1)] {
            let per = collect_iters(ScheduleKind::Static, None, total, threads);
            assert_complete_partition(&per, total as u64);
            // Block sizes differ by at most one.
            let sizes: Vec<usize> = per.iter().map(Vec::len).collect();
            let max = sizes.iter().max().unwrap();
            let min = sizes.iter().min().unwrap();
            assert!(max - min <= 1, "uneven static blocks: {sizes:?}");
            // Blocks are contiguous and in thread order.
            let flattened: Vec<u64> = per.iter().flatten().copied().collect();
            assert!(flattened.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn static_chunked_round_robin() {
        let per = collect_iters(ScheduleKind::Static, Some(2), 10, 2);
        // thread 0: chunks 0,2,4 → iters 0,1,4,5,8,9 ; thread 1: 2,3,6,7
        assert_eq!(per[0], vec![0, 1, 4, 5, 8, 9]);
        assert_eq!(per[1], vec![2, 3, 6, 7]);
    }

    #[test]
    fn dynamic_partition_complete() {
        // Sequential claim order from one shared instance is a partition.
        let per = collect_iters(ScheduleKind::Dynamic, Some(3), 20, 4);
        assert_complete_partition(&per, 20);
    }

    #[test]
    fn guided_partition_complete_and_decreasing() {
        let per = collect_iters(ScheduleKind::Guided, Some(1), 100, 4);
        assert_complete_partition(&per, 100);
    }

    #[test]
    fn guided_respects_min_chunk() {
        let reg = WorkshareRegistry::new(Backend::Atomic, 2, Arc::new(Notifier::new()));
        let inst = reg.enter(0);
        let mut fb = ForBounds::init(
            LoopDims::simple(100),
            sched(ScheduleKind::Guided, Some(10)),
            0,
            2,
            Some(inst),
        );
        let mut sizes = Vec::new();
        while fb.next() {
            sizes.push(fb.hi - fb.lo);
        }
        assert!(
            sizes[..sizes.len() - 1].iter().all(|&s| s >= 10),
            "sizes: {sizes:?}"
        );
        // First chunk is the largest (guided decreases).
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "sizes: {sizes:?}");
    }

    #[test]
    fn is_last_set_on_final_chunk() {
        let per_thread = 2usize;
        let reg = WorkshareRegistry::new(Backend::Atomic, per_thread, Arc::new(Notifier::new()));
        let inst = reg.enter(0);
        let mut last_flags = Vec::new();
        for t in 0..per_thread {
            let mut fb = ForBounds::init(
                LoopDims::simple(10),
                sched(ScheduleKind::Static, None),
                t,
                per_thread,
                Some(Arc::clone(&inst)),
            );
            while fb.next() {
                last_flags.push((t, fb.is_last));
            }
        }
        let lasts: Vec<_> = last_flags.iter().filter(|(_, l)| *l).collect();
        assert_eq!(lasts.len(), 1);
        assert_eq!(lasts[0].0, per_thread - 1); // static: last thread owns the tail
    }

    #[test]
    fn empty_and_negative_ranges() {
        assert_eq!(LoopDims::new(&[(0, 0, 1)]).unwrap().total(), 0);
        assert_eq!(LoopDims::new(&[(5, 0, 1)]).unwrap().total(), 0);
        assert_eq!(LoopDims::new(&[(10, 0, -2)]).unwrap().total(), 5);
        assert!(LoopDims::new(&[(0, 5, 0)]).is_err());
        let mut fb = ForBounds::init(
            LoopDims::simple(0),
            sched(ScheduleKind::Static, None),
            0,
            4,
            None,
        );
        assert!(!fb.next());
    }

    #[test]
    fn collapse_flattening_maps_vars() {
        // for i in range(0, 3): for j in range(10, 30, 10)
        let dims = LoopDims::new(&[(0, 3, 1), (10, 30, 10)]).unwrap();
        assert_eq!(dims.total(), 6);
        assert_eq!(dims.vars_of(0), vec![0, 10]);
        assert_eq!(dims.vars_of(1), vec![0, 20]);
        assert_eq!(dims.vars_of(2), vec![1, 10]);
        assert_eq!(dims.vars_of(5), vec![2, 20]);
    }

    #[test]
    fn var_chunk_respects_step() {
        let dims = LoopDims::new(&[(10, 30, 5)]).unwrap(); // 10, 15, 20, 25
        assert_eq!(dims.total(), 4);
        assert_eq!(dims.var_chunk(1, 3), (15, 25, 5));
        assert_eq!(dims.flat_of_var(20), 2);
        let dims = LoopDims::new(&[(10, 0, -3)]).unwrap(); // 10, 7, 4, 1
        assert_eq!(dims.total(), 4);
        assert_eq!(dims.var_chunk(0, 2), (10, 4, -3));
    }

    #[test]
    fn more_threads_than_iterations() {
        let per = collect_iters(ScheduleKind::Static, None, 3, 8);
        assert_complete_partition(&per, 3);
        assert!(per[3..].iter().all(Vec::is_empty));
    }

    #[test]
    fn resolve_uses_icvs_for_runtime() {
        let _guard = crate::icv::test_guard();
        let before = Icvs::current();
        Icvs::update(|i| i.run_schedule = (ScheduleKind::Dynamic, Some(7)));
        for interpreted in [false, true] {
            let r = ResolvedSchedule::resolve(
                Some((ScheduleKind::Runtime, None)),
                1_000,
                4,
                interpreted,
            );
            assert_eq!(r, sched(ScheduleKind::Dynamic, Some(7)));
        }
        Icvs::reset(before);
    }

    #[test]
    fn auto_resolves_by_mode() {
        let _guard = crate::icv::test_guard();
        let before = Icvs::current();
        let rule = |interpreted| {
            if interpreted {
                sched(ScheduleKind::Guided, Some(8_000 / (8 * 4)))
            } else {
                sched(ScheduleKind::Static, None)
            }
        };
        for interpreted in [false, true] {
            let r =
                ResolvedSchedule::resolve(Some((ScheduleKind::Auto, None)), 8_000, 4, interpreted);
            assert_eq!(
                r,
                rule(interpreted),
                "schedule(auto), interpreted={interpreted}"
            );
        }
        // `OMP_SCHEDULE=auto` through a `schedule(runtime)` loop: the same rule.
        Icvs::update(|i| i.run_schedule = (ScheduleKind::Auto, None));
        for interpreted in [false, true] {
            let r = ResolvedSchedule::resolve(
                Some((ScheduleKind::Runtime, None)),
                8_000,
                4,
                interpreted,
            );
            assert_eq!(
                r,
                rule(interpreted),
                "runtime=auto, interpreted={interpreted}"
            );
        }
        Icvs::reset(before);
    }

    #[test]
    fn auto_aliases_static_on_compiled_loops() {
        // Compiled loops keep `auto`'s static-block alias whatever the shape
        // of the instance and whatever `def-sched-var` says.
        let _guard = crate::icv::test_guard();
        let before = Icvs::current();
        for def in [
            (ScheduleKind::Static, None),
            (ScheduleKind::Dynamic, Some(4)),
        ] {
            Icvs::update(|i| i.def_schedule = def);
            for (total, nthreads) in [(0, 1), (7, 8), (1_000, 4), (2_000_000, 2)] {
                let r = ResolvedSchedule::resolve(
                    Some((ScheduleKind::Auto, None)),
                    total,
                    nthreads,
                    false,
                );
                assert_eq!(r.kind, ScheduleKind::Static, "{def:?} {total} {nthreads}");
                assert!(!r.explicit_chunk);
            }
        }
        Icvs::reset(before);
    }

    #[test]
    fn clause_less_loops_follow_the_default_rule() {
        let _guard = crate::icv::test_guard();
        let before = Icvs::current();
        // `def-sched-var` at its static default: the rule, per instance
        // (`schedule_props` checks it over arbitrary shapes).
        let r = ResolvedSchedule::resolve(None, 2_000_000, 2, true);
        assert_eq!(r, sched(ScheduleKind::Guided, Some(125_000)));
        let r = ResolvedSchedule::resolve(None, 2_000_000, 2, false);
        assert_eq!(r, sched(ScheduleKind::Static, None));
        // A changed `def-sched-var` is honoured as written in both modes.
        Icvs::update(|i| i.def_schedule = (ScheduleKind::Dynamic, Some(4)));
        for interpreted in [false, true] {
            let r = ResolvedSchedule::resolve(None, 1_000, 4, interpreted);
            assert_eq!(r, sched(ScheduleKind::Dynamic, Some(4)));
        }
        Icvs::reset(before);
    }

    #[test]
    fn explicit_schedules_resolve_as_written() {
        let _guard = crate::icv::test_guard();
        for interpreted in [false, true] {
            for (kind, chunk) in [
                (ScheduleKind::Static, None),
                (ScheduleKind::Static, Some(3)),
                (ScheduleKind::Dynamic, Some(8)),
                (ScheduleKind::Guided, None),
            ] {
                let r = ResolvedSchedule::resolve(Some((kind, chunk)), 1_000, 4, interpreted);
                assert_eq!(r, sched(kind, chunk), "{kind:?} {chunk:?}");
            }
        }
    }

    #[test]
    fn same_instance_threads_share_one_decision() {
        // Two threads of one team resolve `schedule(runtime)` through their
        // shared instance; `omp_set_schedule` from elsewhere lands between
        // the two resolutions. The second thread must still get the first
        // thread's answer, or the instance would mix schedules.
        let _guard = crate::icv::test_guard();
        let before = Icvs::current();
        let reg = WorkshareRegistry::new(Backend::Atomic, 2, Arc::new(Notifier::new()));
        let inst = reg.enter(0);
        let runtime = Some((ScheduleKind::Runtime, None));
        Icvs::update(|i| i.run_schedule = (ScheduleKind::Dynamic, Some(5)));
        let first = inst.resolve_schedule(runtime, 100, 2, true);
        Icvs::update(|i| i.run_schedule = (ScheduleKind::Static, None));
        let second = inst.resolve_schedule(runtime, 100, 2, true);
        assert_eq!(first, sched(ScheduleKind::Dynamic, Some(5)));
        assert_eq!(second, first);
        // The next instance resolves afresh.
        let next = reg.enter(1).resolve_schedule(runtime, 100, 2, true);
        assert_eq!(next, sched(ScheduleKind::Static, None));
        Icvs::reset(before);
    }
}
