//! Persistent worker pool with hot-team reuse ("hot teams").
//!
//! Under per-region spawning, every `parallel` directive pays OS thread
//! creation and teardown — hundreds of microseconds that put a hard floor
//! under region entry and cap fine-grained scaling (the paper's §IV overhead
//! story). libgomp and LLVM's OpenMP runtime instead keep the previous
//! region's workers parked between regions and re-bind them to the next
//! region's fresh team state ("hot teams"). This module is that pool:
//!
//! * `dispatch` hands one job per worker to pooled threads in a fixed
//!   order — gang-affinity posts, then pops off the one idle list, then
//!   fresh OS threads — and the `omp4rs.pool.reuse` / `omp4rs.pool.spawn`
//!   counters tell the reused handouts from the spawned ones;
//! * between regions each worker waits at its own *dock* eventcount (no
//!   tick-polling). Dispatch fills a worker's mailbox and then wakes that
//!   worker alone — never the pool. The docks are deliberately *not*
//!   shared: with one pool-wide eventcount, a 4-thread region dispatched
//!   while 31 workers from an earlier 32-thread region sit docked would
//!   wake all 31, and under an active wait policy each un-chosen worker
//!   burns its full spin budget before re-parking — measured at ~8x the
//!   region-entry cost on this host. Per-worker docks make dispatch wake
//!   exactly the gang. While the dock spin budget
//!   (`OMP_WAIT_POLICY`) lasts, a worker catches the next
//!   region's mail during its spin phase and the wake hits the notifier's
//!   zero-waiters fast path — no futex traffic at all;
//! * each dispatching (master) thread keeps *gang affinity*: it remembers
//!   the workers that served its previous top-level region and may post
//!   their next job before they have even finished unwinding out of that
//!   region's final barrier — a worker's region-exit scheduling slot then
//!   flows straight into the next region's work. Gang posts go straight to
//!   the worker's mailbox and never touch the idle list. Posting to a busy
//!   worker is only allowed when that worker is finishing *this master's*
//!   previous region (`Mailbox::owner`); posting to a worker busy with a
//!   different master would chain two independent regions' completions
//!   together and can deadlock (A's barrier waits on a worker held by B
//!   whose barrier waits on a worker held by A);
//! * a panicking job cannot take the pool down: the worker loop catches the
//!   unwind and recycles the thread into the idle list regardless. Region
//!   poisoning — cancelling the team, waking its waiters, capturing the
//!   panic for re-raise — is the job's own responsibility (see
//!   `exec::run_worker`), so a poisoned *region* never implies a poisoned
//!   *pool*.
//!
//! Only top-level, multi-thread, non-serialized regions are dispatched here
//! (`exec::parallel_region` gates on nesting level): nested regions spawn
//! scoped threads as before, which keeps the pool's thread count bounded by
//! the sum of concurrent top-level team sizes rather than growing with
//! nesting depth.
//!
//! Team identity stays per-region: the pool reuses *threads*, never `Team`
//! state. Every region still gets a fresh [`crate::team::Team`] — fresh
//! barrier generations, task queue, cancellation flags — so the established
//! "teams are created fresh per parallel region" invariants (cancellation
//! latching, residual barrier counts) are untouched.
//!
//! Admission control reads one exact in-flight counter: every pooled region
//! charges its `size - 1` workers on entry and releases them on exit
//! (`InflightGuard`), so `admit`'s shed-to-serial decision is a single
//! load.
//!
//! Pooled workers and the trace pipeline ([`crate::ompt`]) compose without
//! an ordering dependency: each worker drains its own event ring at region
//! exit (`exec::run_worker` calls `ompt::flush_thread` before the worker
//! docks), so a worker parked between regions — or parked forever because
//! the pool shrank — never sits on buffered events. The pipeline's
//! dedicated flusher thread is *not* a pool worker and is stopped by
//! `ompt::finalize`/`disable` alone; nothing here needs to know it exists.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::sync::{self, Notifier};

/// A region job handed to a pooled worker.
///
/// `'static` by the time it reaches the pool: `exec::parallel_region`
/// transmutes its scoped closure after arranging the [`RegionLatch`] wait
/// that keeps every borrow alive until the job has completed.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// Worker stacks match the scoped-spawn path: Pure/Hybrid-mode workers run a
/// tree-walking interpreter with deep recursion.
const WORKER_STACK: usize = 16 * 1024 * 1024;

/// Completion latch for one region dispatch: the master parks on it until
/// every pooled worker has finished (and dropped) its job.
///
/// Reference-counted so a worker's final `complete` may touch the latch
/// after the master has already been released — the master's stack frame is
/// not the latch's home.
#[derive(Debug)]
pub(crate) struct RegionLatch {
    remaining: AtomicU64,
    wake: Notifier,
}

impl RegionLatch {
    pub(crate) fn new(count: usize) -> Arc<RegionLatch> {
        Arc::new(RegionLatch {
            remaining: AtomicU64::new(count as u64),
            wake: Notifier::new(),
        })
    }

    /// Worker-side: the final decrement releases the master.
    ///
    /// Saturating: on the normal path the final barrier's releaser has
    /// already zeroed the latch for the whole gang ([`complete_all`]) and
    /// the per-worker decrements that follow must be no-ops. On abnormal
    /// paths (cancellation, poisoning — no barrier release ever happens)
    /// these decrements are what release the master.
    ///
    /// [`complete_all`]: RegionLatch::complete_all
    fn complete(&self) {
        let prior = self
            .remaining
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1));
        if prior == Ok(1) {
            self.wake.notify_all();
        }
    }

    /// Whether the master is still (or will still be) waiting on this
    /// latch. While any job has neither returned nor been covered by
    /// [`complete_all`], the count is positive and the master's stack is
    /// guaranteed alive; `0` means the final barrier released and the
    /// master may already be gone.
    ///
    /// [`complete_all`]: RegionLatch::complete_all
    pub(crate) fn armed(&self) -> bool {
        self.remaining.load(Ordering::Acquire) > 0
    }

    /// Releaser-side: zero the latch on behalf of the whole gang.
    ///
    /// Called by whichever thread releases the region's *final* barrier
    /// (see `Team::barrier` and the `finalists` count). At that instant
    /// every team thread has arrived — its body has returned, its panic (if
    /// any) is recorded, and all region tasks have drained — so no worker
    /// will touch the master's stack again and the master may proceed
    /// without waiting for the workers' post-barrier bookkeeping to be
    /// scheduled.
    pub(crate) fn complete_all(&self) {
        if self.remaining.swap(0, Ordering::AcqRel) != 0 {
            self.wake.notify_all();
        }
    }

    /// Master-side wait: a short yield-only grace period, then the policy's
    /// spin-then-park.
    ///
    /// The yield budget is unconditional (even under a parks-immediately
    /// passive policy) because of *when* this runs: the master has just left
    /// the region's final barrier, so every worker is already runnable and
    /// within a few instructions of completing. Donating one or two quanta
    /// usually lets them finish, and the last completion then hits the
    /// notifier's zero-waiters fast path — the whole join costs no futex
    /// traffic at all.
    pub(crate) fn wait(&self) {
        for _ in 0..8 {
            if self.remaining.load(Ordering::Acquire) == 0 {
                return;
            }
            std::thread::yield_now();
        }
        sync::wait_until(&self.wake, || self.remaining.load(Ordering::Acquire) == 0);
    }
}

/// One pooled worker's delivery state, all under one lock so a post and the
/// worker's take/dock transitions can never interleave inconsistently.
#[derive(Default)]
struct Mailbox {
    /// The pending job, if any. Only the owning worker ever takes it.
    work: Option<(Job, Arc<RegionLatch>)>,
    /// True only while the worker is actually waiting at the dock (between
    /// finishing one job and taking the next). A docked worker accepts mail
    /// from anyone.
    docked: bool,
    /// Id of the master whose job this worker last accepted. A *busy*
    /// worker accepts mail only from this master — it is guaranteed to dock
    /// as soon as that master's previous region finishes, whereas a worker
    /// busy with a different master's region could hold the post for an
    /// unbounded time (and posting across masters can deadlock their
    /// barriers against each other).
    owner: u64,
}

/// One pooled worker: its mailbox, its private dock eventcount, and its
/// membership bit for the idle list.
///
/// Only the worker itself sets `listed` (`false → true`, under the idle
/// lock, when it lists itself) and only a dispatcher clears it (`true →
/// false`, having just popped the entry), so a slot sits in the idle list
/// at most once.
#[derive(Default)]
struct WorkerSlot {
    mailbox: Mutex<Mailbox>,
    /// Where this worker (and only this worker) parks between jobs; the
    /// dispatcher bumps it after filling the mailbox.
    dock: Notifier,
    listed: AtomicBool,
}

struct Pool {
    /// Docked workers, LIFO: the most recently docked worker has the
    /// warmest cache and is handed out first. Entries may be stale (the
    /// worker took a gang-affinity post without being popped); `try_post`'s
    /// preconditions make stale entries harmless.
    idle: Mutex<Vec<Arc<WorkerSlot>>>,
    /// Pool workers charged to in-flight top-level regions (see
    /// [`InflightGuard`]); exact, since every charge and its release go to
    /// this one counter.
    inflight: AtomicU64,
    reuse: AtomicU64,
    spawn: AtomicU64,
    next_id: AtomicU64,
    next_master: AtomicU64,
    /// Admission outcomes (see [`admit`]).
    granted: AtomicU64,
    shrunk: AtomicU64,
    shed: AtomicU64,
}

static POOL: Pool = Pool {
    idle: Mutex::new(Vec::new()),
    inflight: AtomicU64::new(0),
    reuse: AtomicU64::new(0),
    spawn: AtomicU64::new(0),
    next_id: AtomicU64::new(0),
    next_master: AtomicU64::new(0),
    granted: AtomicU64::new(0),
    shrunk: AtomicU64::new(0),
    shed: AtomicU64::new(0),
};

thread_local! {
    /// This (master) thread's dispatch identity and remembered gang: the
    /// workers that served its previous top-level region, in arrival order.
    static GANG: (u64, std::cell::RefCell<Vec<Arc<WorkerSlot>>>) = (
        POOL.next_master.fetch_add(1, Ordering::Relaxed) + 1,
        std::cell::RefCell::new(Vec::new()),
    );
}

/// Post a job to `slot` if the worker can be relied on to take it promptly:
/// it is docked, or it is busy finishing `master`'s own previous region.
/// Returns the job on refusal (mail already pending, or busy with a
/// different master). On success the worker's private dock is bumped — a
/// parked worker wakes, a spinning or still-busy one catches the mail
/// through the notifier's zero-waiters fast path at no futex cost.
fn try_post(slot: &WorkerSlot, job: Job, latch: &Arc<RegionLatch>, master: u64) -> Result<(), Job> {
    {
        let mut mb = slot.mailbox.lock();
        if mb.work.is_some() || !(mb.docked || mb.owner == master) {
            return Err(job);
        }
        mb.work = Some((job, Arc::clone(latch)));
        mb.owner = master;
    }
    slot.dock.notify_all();
    Ok(())
}

/// Pop the warmest idle worker. Popped entries can be stale — busy workers
/// with a live gang-affinity post; `try_post` refuses those and the caller
/// simply drops them (a busy worker re-lists itself when it next docks).
fn pop_idle(p: &Pool) -> Option<Arc<WorkerSlot>> {
    let slot = p.idle.lock().pop()?;
    slot.listed.store(false, Ordering::Relaxed);
    Some(slot)
}

/// Dispatch one job per worker and return the latch that releases when all
/// of them have completed.
///
/// Worker acquisition order: gang-affinity posts, then idle-list pops, then
/// spawning.
///
/// # Aborts
///
/// Aborts the process if the OS still refuses to create a needed worker
/// thread after [`spawn_worker`]'s retries: at that point some jobs are
/// already running against borrows the caller must outlive, so unwinding
/// out of a half-dispatched region would be unsound. (The scoped-spawn
/// path can instead poison the team and unwind, because scoped join
/// guarantees the spawned members exit first.)
pub(crate) fn dispatch(jobs: Vec<Job>, latch: &Arc<RegionLatch>) {
    let p = &POOL;
    let mut pending = jobs;
    pending.reverse();
    let mut assigned: Vec<Arc<WorkerSlot>> = Vec::with_capacity(pending.len());
    let (master, gang) = GANG.with(|(id, g)| (*id, g.borrow().clone()));
    // 1. Gang affinity: post to this master's previous workers first — they
    //    are either docked already or a few instructions from docking, and
    //    their caches are warm with this master's data.
    for slot in gang {
        let Some(job) = pending.pop() else { break };
        match try_post(&slot, job, latch, master) {
            Ok(()) => assigned.push(slot),
            Err(job) => pending.push(job),
        }
    }
    // 2. The idle list.
    while !pending.is_empty() {
        let Some(slot) = pop_idle(p) else {
            break;
        };
        if assigned.iter().any(|s| Arc::ptr_eq(s, &slot)) {
            continue;
        }
        let job = pending.pop().expect("loop guard: pending non-empty");
        match try_post(&slot, job, latch, master) {
            Ok(()) => assigned.push(slot),
            Err(job) => pending.push(job),
        }
    }
    p.reuse.fetch_add(assigned.len() as u64, Ordering::Relaxed);
    // 3. Spawn fresh workers for whatever is left.
    while let Some(job) = pending.pop() {
        p.spawn.fetch_add(1, Ordering::Relaxed);
        assigned.push(spawn_worker(job, latch, master));
    }
    GANG.with(|(_, g)| *g.borrow_mut() = assigned);
}

fn spawn_worker(job: Job, latch: &Arc<RegionLatch>, master: u64) -> Arc<WorkerSlot> {
    let p = &POOL;
    let id = p.next_id.fetch_add(1, Ordering::Relaxed) + 1;
    let slot = Arc::new(WorkerSlot::default());
    {
        let mut mb = slot.mailbox.lock();
        mb.work = Some((job, Arc::clone(latch)));
        mb.owner = master;
    }
    // Thread creation can fail transiently under load (EAGAIN while another
    // process's threads wind down) — the exact situation a saturated server
    // is in. Retry briefly before treating it as fatal; at that point jobs
    // already posted to other workers run against borrows the caller must
    // outlive, so unwinding would be unsound and abort is the only sound
    // exit.
    let mut last_err = None;
    for attempt in 0..4u32 {
        if attempt > 0 {
            std::thread::sleep(std::time::Duration::from_millis(10 << attempt));
        }
        let worker_slot = Arc::clone(&slot);
        match std::thread::Builder::new()
            .name(format!("omp4rs-pool-{id}"))
            .stack_size(WORKER_STACK)
            .spawn(move || worker_loop(worker_slot))
        {
            Ok(_) => return slot,
            Err(e) => last_err = Some(e),
        }
    }
    eprintln!(
        "omp4rs: failed to spawn pool worker after retries: {}",
        last_err.expect("at least one attempt ran")
    );
    std::process::abort();
}

fn worker_loop(slot: Arc<WorkerSlot>) {
    let p = &POOL;
    loop {
        let (job, latch) = wait_for_mail(p, &slot);
        // A panicking job must not take the worker down: region poisoning
        // and panic capture happen inside the job (exec::run_worker and its
        // dispatch wrapper); the pool recycles the thread no matter what.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        // On the normal path the region's final-barrier releaser has
        // already zeroed this latch (`complete_all`); this decrement is the
        // release only on cancelled/poisoned paths.
        latch.complete();
    }
}

/// The dock: take pending mail immediately (gang-affinity fast path — the
/// post may have arrived while this worker was still finishing the previous
/// region), otherwise mark the slot docked, list it idle, and
/// spin-then-park on this worker's private dock eventcount.
fn wait_for_mail(p: &'static Pool, slot: &Arc<WorkerSlot>) -> (Job, Arc<RegionLatch>) {
    {
        let mut mb = slot.mailbox.lock();
        if let Some(work) = mb.work.take() {
            return work;
        }
        mb.docked = true;
    }
    {
        let mut idle = p.idle.lock();
        if !slot.listed.swap(true, Ordering::Relaxed) {
            idle.push(Arc::clone(slot));
        }
    }
    // Epoch before the mailbox check, so a post racing with the check falls
    // through the park. The spin budget lets a worker catch an immediately
    // following region with no futex traffic; only this worker's own posts
    // bump this dock, so a wake always means mail (no herd re-parks).
    let mut spins = sync::spin_iters();
    loop {
        let epoch = slot.dock.epoch();
        {
            let mut mb = slot.mailbox.lock();
            if let Some(work) = mb.work.take() {
                mb.docked = false;
                return work;
            }
        }
        if spins > 0 {
            spins -= 1;
            sync::spin_hint(spins);
            continue;
        }
        slot.dock.park(epoch);
    }
}

/// Decide how many threads a top-level region may actually get when
/// `omp_set_dynamic(true)` (admission control) is on.
///
/// The capacity cap is the `thread_limit` ICV when set, otherwise twice the
/// host's available parallelism (floor 4) — generous enough that ordinary
/// nesting-free workloads always fit, tight enough that a flood of
/// concurrent top-level regions cannot pile up unbounded oversubscription.
/// Against the cap we charge the *pool workers* already granted to
/// in-flight regions ([`InflightGuard`]; masters run on their own caller
/// threads and serial regions charge nothing) and grant from the remaining
/// budget:
///
/// * budget covers the request → **granted** as asked;
/// * budget is at least 2 → team **shrunk** to the budget;
/// * otherwise → **shed**: the caller runs the region serially (size 1).
///
/// Each outcome bumps its `omp4rs.admission.*` counter. The whole decision
/// — including the shed path — is lock-free: one load of the in-flight
/// counter and one counter bump. Deliberately racy (load, not
/// CAS-reserve): two regions admitted concurrently may both see the same
/// budget. That errs toward briefly overshooting the soft cap rather than
/// serializing every region entry through a reservation — admission is a
/// degradation valve, not a hard ceiling.
pub(crate) fn admit(requested: usize, thread_limit: usize) -> usize {
    let p = &POOL;
    let cap = if thread_limit != usize::MAX && thread_limit > 0 {
        thread_limit
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get() * 2)
            .unwrap_or(8)
            .max(4)
    };
    let budget = cap.saturating_sub(p.inflight.load(Ordering::Acquire) as usize);
    if budget >= requested {
        p.granted.fetch_add(1, Ordering::Relaxed);
        requested
    } else if budget > 1 {
        p.shrunk.fetch_add(1, Ordering::Relaxed);
        budget
    } else {
        p.shed.fetch_add(1, Ordering::Relaxed);
        1
    }
}

/// RAII charge against the admission budget: created by
/// `exec::parallel_region` for every pooled top-level region that takes
/// workers (whether or not dynamic adjustment is on, so [`admit`] sees the
/// true load), released when the region completes — including by unwind.
pub(crate) struct InflightGuard {
    size: u64,
}

impl InflightGuard {
    pub(crate) fn new(size: usize) -> InflightGuard {
        let size = size as u64;
        POOL.inflight.fetch_add(size, Ordering::AcqRel);
        InflightGuard { size }
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        POOL.inflight.fetch_sub(self.size, Ordering::AcqRel);
    }
}

/// Admission-control outcomes since process start (see the module notes on
/// `admit`); also published to the profiler as `omp4rs.admission.*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Regions granted their full requested team size.
    pub granted: u64,
    /// Regions granted a smaller-than-requested (but > 1) team.
    pub shrunk: u64,
    /// Regions shed to serial execution (team size 1).
    pub shed: u64,
    /// Threads currently charged to in-flight top-level regions.
    pub inflight: u64,
}

/// Read the current [`AdmissionStats`].
pub fn admission_stats() -> AdmissionStats {
    let p = &POOL;
    AdmissionStats {
        granted: p.granted.load(Ordering::Relaxed),
        shrunk: p.shrunk.load(Ordering::Relaxed),
        shed: p.shed.load(Ordering::Relaxed),
        inflight: p.inflight.load(Ordering::Acquire),
    }
}

/// A snapshot of the pool's counters, as published to the profiler under
/// `omp4rs.pool.*`.
///
/// `park`/`spin_exit` are runtime-wide wait statistics (every eventcount
/// park and every wait satisfied within its spin budget — barriers, events,
/// task waits, and the pool's own mailbox parks), reported here because the
/// pool is where the wait policy's effect concentrates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Dispatches served by re-binding an already-parked worker.
    pub reuse: u64,
    /// Dispatches that had to create a new OS thread.
    pub spawn: u64,
    /// Untimed parks performed by runtime waits.
    pub park: u64,
    /// Waits satisfied during their bounded spin phase.
    pub spin_exit: u64,
}

/// Read the current [`PoolStats`].
pub fn stats() -> PoolStats {
    let p = &POOL;
    PoolStats {
        reuse: p.reuse.load(Ordering::Relaxed),
        spawn: p.spawn.load(Ordering::Relaxed),
        park: sync::park_count(),
        spin_exit: sync::spin_exit_count(),
    }
}

/// Publish the pool counters to the [`crate::ompt`] profiler (no-op when it
/// is disabled). `exec` calls this at region exit on the pooled path.
pub(crate) fn publish_counters() {
    if !crate::ompt::enabled() {
        return;
    }
    let s = stats();
    crate::ompt::set_counter("omp4rs.pool.reuse", s.reuse);
    crate::ompt::set_counter("omp4rs.pool.spawn", s.spawn);
    crate::ompt::set_counter("omp4rs.pool.park", s.park);
    crate::ompt::set_counter("omp4rs.pool.spin_exit", s.spin_exit);
    let a = admission_stats();
    crate::ompt::set_counter("omp4rs.admission.granted", a.granted);
    crate::ompt::set_counter("omp4rs.admission.shrunk", a.shrunk);
    crate::ompt::set_counter("omp4rs.admission.shed", a.shed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Dispatch and wait, as `exec::parallel_region` does.
    fn run(jobs: Vec<Job>) {
        let latch = RegionLatch::new(jobs.len());
        dispatch(jobs, &latch);
        latch.wait();
    }

    #[test]
    fn dispatch_runs_jobs_and_latch_releases() {
        let hits = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Job> = (0..3)
            .map(|_| {
                let hits = Arc::clone(&hits);
                Box::new(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                }) as Job
            })
            .collect();
        run(jobs);
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let before = stats();
        run(vec![Box::new(|| panic!("boom")) as Job]);
        // The same (or another pooled) worker must happily run the next job.
        let ok = Arc::new(AtomicUsize::new(0));
        let ok2 = Arc::clone(&ok);
        run(vec![Box::new(move || {
            ok2.fetch_add(1, Ordering::SeqCst);
        }) as Job]);
        assert_eq!(ok.load(Ordering::SeqCst), 1);
        let after = stats();
        assert!(
            after.reuse + after.spawn >= before.reuse + before.spawn + 2,
            "both dispatches must be accounted"
        );
    }

    #[test]
    fn every_dispatch_is_reused_or_spawned() {
        // Conservation law: each of our 3 jobs lands in exactly one of the
        // two buckets, both incremented on this (the dispatching) thread.
        // Concurrent tests can only add to the deltas, never subtract.
        let before = stats();
        run((0..3).map(|_| Box::new(|| {}) as Job).collect());
        let after = stats();
        let delta = (after.reuse - before.reuse) + (after.spawn - before.spawn);
        assert!(delta >= 3, "3 jobs must be accounted, saw {delta}");
    }

    #[test]
    fn inflight_charges_release_cleanly() {
        // Other tests' concurrent guards can add to the total, so compare
        // against a floor, not equality.
        let guard = InflightGuard::new(24);
        assert!(admission_stats().inflight >= 24);
        drop(guard);
    }

    #[test]
    fn admit_grants_when_budget_covers_the_request() {
        // A practically unbounded cap always covers the request, no matter
        // what other tests have in flight.
        let before = admission_stats();
        assert_eq!(admit(4, 1 << 40), 4);
        let after = admission_stats();
        assert!(after.granted > before.granted);
    }

    #[test]
    fn admit_sheds_to_serial_when_budget_is_exhausted() {
        // Charge more than the cap ourselves: budget is zero regardless of
        // concurrent tests, so the region must run serially.
        let guard = InflightGuard::new(64);
        let before = admission_stats();
        assert!(before.inflight >= 64);
        assert_eq!(admit(8, 32), 1);
        let after = admission_stats();
        assert!(after.shed > before.shed);
        drop(guard);
    }

    #[test]
    fn admit_shrinks_an_oversized_request_to_the_budget() {
        // Leave a budget of (at most) 2 under our own load; concurrent
        // tests can only shrink it further, never extend it past 2.
        let guard = InflightGuard::new(64);
        let granted = admit(8, 66);
        assert!(granted < 8, "request must not be fully granted");
        assert!((1..=2).contains(&granted));
        drop(guard);
    }

    #[test]
    fn back_to_back_dispatches_reuse_workers() {
        // Gang affinity plus the idle list must make a hot re-dispatch
        // find the previous round's workers. Other tests share the global
        // pool and may race workers away between rounds, so allow retries —
        // but systematic failure to ever reuse means the hot path is
        // broken.
        for round in 0.. {
            let warm: Vec<Job> = (0..2).map(|_| Box::new(|| {}) as Job).collect();
            run(warm);
            let before = stats();
            let again: Vec<Job> = (0..2).map(|_| Box::new(|| {}) as Job).collect();
            run(again);
            let after = stats();
            if after.reuse > before.reuse {
                return;
            }
            assert!(round < 20, "no dispatch ever reused a parked worker");
        }
    }
}
