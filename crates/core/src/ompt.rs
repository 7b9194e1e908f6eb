//! OMPT-inspired observability: event tracing, per-region metrics, and
//! Chrome-trace export.
//!
//! Real OpenMP runtimes expose their internals to performance tools through
//! the OMPT interface (OpenMP 5.x, tools chapter). This module reproduces the
//! part of that design the paper's evaluation needs: *where do threads spend
//! their time inside the runtime?* The paper attributes Pure/Hybrid-mode
//! scaling losses to synchronization and shared-object contention inside the
//! free-threaded interpreter; with this layer those claims become measurable
//! instead of inferred from end-to-end figure numbers.
//!
//! # Design
//!
//! * **Inert unless enabled.** Every hook first performs a single relaxed
//!   atomic load ([`enabled`]) — the same pattern as [`crate::faults`] — so
//!   figure benchmarks are unperturbed when `OMP_TOOL` is unset.
//! * **Bounded per-thread rings.** Enabled hooks append to a *per-thread*
//!   fixed-capacity ring buffer (capacity from [`ToolConfig::ring_capacity`] /
//!   `OMP4RS_TRACE_RING`), so memory under sustained load is bounded by
//!   `ring capacity × recording threads × sizeof(Event)` ([`ring_stats`]
//!   reports the exact figure). No *global* state is touched on the hot
//!   path — only the thread's own uncontended ring lock — so the profiler
//!   cannot introduce the cross-thread contention it is trying to measure.
//! * **A dedicated flusher.** Enabling collection lazily spawns one
//!   `omp4rs-trace-flusher` thread that periodically (and on half-full
//!   wakeups) drains every ring into the in-memory collector. The rings bound
//!   *recording* memory; the collected stream grows with the run until
//!   [`finalize`] writes it out. Shutdown ordering is strict: [`finalize`]
//!   and [`disable`] stop and join the flusher, then drain every ring,
//!   *then* render — no events are lost on a normal exit and the summary
//!   never races a live drain.
//! * **One overflow rule: drop-newest.** A full ring discards the new event
//!   and counts it. The recording thread never waits and never touches the
//!   events already buffered. Drops surface as the `omp4rs.trace.dropped`
//!   counter in [`counters`], the summary, and the trace footer — truncation
//!   is never silent.
//! * **Region-scoped aggregation.** Every [`crate::team::Team`] draws a
//!   unique region id ([`new_region_id`]); [`aggregate`] folds the event
//!   stream into per-region [`RegionMetrics`] (barrier wait time, chunk-time
//!   load imbalance, task-queue depth high-water marks, lock contention).
//! * **External counters.** Layers the core cannot see into (the minipy
//!   interpreter's GIL and per-object locks) publish scalar counters through
//!   [`set_counter`]; the summary and trace exporters include them, which is
//!   what makes the Pure-vs-Compiled contrast directly visible.
//!
//! # Activation
//!
//! Set the `OMP_TOOL` environment variable (parsed into the ICVs by
//! [`crate::icv::Icvs::from_env`], see [`ToolConfig::parse`]):
//!
//! ```text
//! OMP_TOOL=enabled              # collect events, no automatic output
//! OMP_TOOL=summary              # + print a per-region summary on finalize
//! OMP_TOOL=trace:/tmp/out.json  # + write a chrome://tracing dump on finalize
//! OMP_TOOL=trace:out.json,summary
//! OMP_TOOL=disabled             # explicit off (the default)
//! ```
//!
//! One pipeline knob layers on top (see `docs/ENVIRONMENT.md`):
//! `OMP4RS_TRACE_RING`, the per-thread ring capacity in events.
//!
//! Programs call [`finalize`] (the `omp4rs-bench` binaries do under
//! `--profile`) to emit the configured outputs. Programmatic use — tests,
//! examples, benchmarks — goes through [`session`], which serializes on a
//! global lock and disables collection again on drop.
//!
//! # Examples
//!
//! ```
//! use omp4rs::ompt;
//!
//! let session = ompt::session(ompt::ToolConfig::default());
//! omp4rs::parallel("num_threads(2)", |ctx| {
//!     ctx.for_each(omp4rs::ForSpec::new(), 0..64, |_i| {});
//! });
//! let metrics = ompt::aggregate(&ompt::events());
//! assert_eq!(metrics.len(), 1);
//! assert!(metrics[0].chunks >= 1);
//! println!("{}", session.summary());
//! ```

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};

use crate::context;
use crate::sync::Notifier;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// What happened at an instrumentation site.
///
/// The set mirrors the OMPT callbacks relevant to this runtime: parallel
/// begin/end, barrier enter/exit (with measured wait time), the task
/// lifecycle, loop-chunk claims (with per-chunk execution time), lock
/// acquisition (flagging contention), generic synchronization waits, and
/// cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A thread entered a parallel region (one event per team thread).
    ParallelBegin {
        /// Size of the team being entered.
        team_size: u32,
    },
    /// A thread left a parallel region (after the final implicit barrier).
    ParallelEnd,
    /// A thread arrived at a team barrier.
    BarrierEnter {
        /// `true` for an explicit `barrier` directive, `false` for the
        /// implicit barriers ending worksharing constructs and regions.
        explicit: bool,
    },
    /// A thread was released from a team barrier.
    BarrierExit {
        /// Nanoseconds between arrival and release. This window covers both
        /// idle waiting *and* any tasks the thread drained while parked at
        /// the barrier; [`aggregate`] separates the two (see
        /// [`RegionMetrics::barrier_drain_ns`]) so the summary can report
        /// wait and drain as distinct shares.
        wait_ns: u64,
    },
    /// A task was created (`task` directive or `taskloop` expansion).
    TaskCreate {
        /// `false` for included tasks, run at once on the creating thread
        /// with no task node: `if(false)` tasks, and every task of a
        /// one-thread team with nothing outstanding.
        deferred: bool,
    },
    /// A task body started executing on this thread.
    TaskSchedule,
    /// A task was stolen: this thread claimed it from another thread's
    /// work-stealing deque (see [`crate::tasks`]).
    TaskSteal,
    /// A task reached the completed state (including discarded tasks of a
    /// cancelled queue, which complete without a [`EventKind::TaskSchedule`]).
    TaskComplete,
    /// A loop chunk was claimed from the iteration space.
    ChunkClaim {
        /// First flattened iteration of the chunk.
        lo: u64,
        /// Past-the-end flattened iteration of the chunk.
        hi: u64,
    },
    /// A claimed chunk finished executing.
    ChunkDone {
        /// Number of iterations the chunk contained.
        iters: u64,
        /// Nanoseconds the chunk body took.
        ns: u64,
    },
    /// An OpenMP lock or `critical` section was acquired.
    LockAcquire {
        /// Whether the acquisition had to wait for another holder.
        contended: bool,
    },
    /// Cancellation was requested or first observed for a construct.
    CancelObserved,
    /// A region deadline tripped: a blocking wait exceeded the region's
    /// deadline ICV and the region was poisoned (an
    /// [`crate::error::OmpError::RegionTimeout`] surfaces at the join).
    DeadlineTrip {
        /// Nanoseconds the region had been running when the trip occurred.
        wait_ns: u64,
    },
}

impl EventKind {
    /// Short stable name used by the exporters.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::ParallelBegin { .. } => "parallel-begin",
            EventKind::ParallelEnd => "parallel-end",
            EventKind::BarrierEnter { .. } => "barrier-enter",
            EventKind::BarrierExit { .. } => "barrier-exit",
            EventKind::TaskCreate { .. } => "task-create",
            EventKind::TaskSchedule => "task-schedule",
            EventKind::TaskSteal => "task-steal",
            EventKind::TaskComplete => "task-complete",
            EventKind::ChunkClaim { .. } => "chunk-claim",
            EventKind::ChunkDone { .. } => "chunk-done",
            EventKind::LockAcquire { .. } => "lock-acquire",
            EventKind::CancelObserved => "cancel-observed",
            EventKind::DeadlineTrip { .. } => "deadline-trip",
        }
    }
}

/// One recorded runtime event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The parallel region this event belongs to (0 when recorded outside
    /// any team, e.g. by unit tests driving primitives directly).
    pub region: u64,
    /// Profiler-assigned sequential id of the recording OS thread.
    pub thread: u32,
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

// ---------------------------------------------------------------------------
// Enable gating and configuration
// ---------------------------------------------------------------------------

/// Default per-thread ring capacity, in events.
///
/// An [`Event`] is ~48 bytes, so 8192 events ≈ 384 KiB per recording thread —
/// small enough to leave on per-worker, large enough to absorb roughly one
/// flush tick of the densest emitter (a `schedule(dynamic,1)` loop records
/// two events per iteration) before the ring starts dropping.
pub const DEFAULT_RING_CAPACITY: usize = 8192;

/// Output configuration parsed from `OMP_TOOL` (or built programmatically).
///
/// `ring_capacity` is not part of the `OMP_TOOL` grammar; it comes from
/// `OMP4RS_TRACE_RING` ([`crate::icv::Icvs::from_env`]) or is set
/// programmatically with `..Default::default()` struct update syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ToolConfig {
    /// Write a Chrome-trace JSON dump to this path on [`finalize`].
    pub trace_path: Option<String>,
    /// Print the per-region summary to stderr on [`finalize`].
    pub summary: bool,
    /// Per-thread ring buffer capacity in events (`OMP4RS_TRACE_RING`,
    /// default [`DEFAULT_RING_CAPACITY`]).
    pub ring_capacity: usize,
}

impl Default for ToolConfig {
    fn default() -> ToolConfig {
        ToolConfig {
            trace_path: None,
            summary: false,
            ring_capacity: DEFAULT_RING_CAPACITY,
        }
    }
}

impl ToolConfig {
    /// Parse `OMP_TOOL` syntax: a comma-separated list of `enabled`,
    /// `summary`, and `trace:<path>` items. Returns `None` for `disabled`
    /// (or any of the usual false spellings), which is also the default when
    /// the variable is unset.
    ///
    /// # Examples
    ///
    /// ```
    /// use omp4rs::ompt::ToolConfig;
    ///
    /// assert_eq!(ToolConfig::parse("disabled"), None);
    /// let cfg = ToolConfig::parse("trace:/tmp/t.json,summary").unwrap();
    /// assert_eq!(cfg.trace_path.as_deref(), Some("/tmp/t.json"));
    /// assert!(cfg.summary);
    /// assert_eq!(ToolConfig::parse("enabled"), Some(ToolConfig::default()));
    /// ```
    pub fn parse(text: &str) -> Option<ToolConfig> {
        let mut cfg = ToolConfig::default();
        let mut any = false;
        for part in text.split(',') {
            let part = part.trim();
            match part.to_ascii_lowercase().as_str() {
                "" => continue,
                "disabled" | "off" | "false" | "0" | "no" => return None,
                "enabled" | "on" | "true" | "1" | "yes" => any = true,
                "summary" => {
                    cfg.summary = true;
                    any = true;
                }
                _ => {
                    if let Some(path) = part.strip_prefix("trace:") {
                        let path = path.trim();
                        if !path.is_empty() {
                            cfg.trace_path = Some(path.to_owned());
                            any = true;
                        }
                    }
                    // Unknown items are ignored (forward compatibility),
                    // matching how unknown OMP_* values are treated.
                }
            }
        }
        any.then_some(cfg)
    }
}

/// Fast inert check: a single relaxed load on the disabled path (the same
/// idiom as [`crate::faults::is_armed`]).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether event collection is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The active output configuration ([`finalize`] reads it).
static ACTIVE: Mutex<Option<ToolConfig>> = Mutex::new(None);

/// One-time `OMP_TOOL` activation, consulted on every parallel-region entry.
static ENV_INIT: OnceLock<()> = OnceLock::new();

/// Enable collection from the `tool` ICV (`OMP_TOOL`) if it is configured.
/// Idempotent and cheap after the first call; [`crate::exec::parallel_region`]
/// invokes it so env-var activation needs no code changes in user programs.
pub fn ensure_env_init() {
    ENV_INIT.get_or_init(|| {
        if let Some(cfg) = crate::icv::Icvs::with(|icvs| icvs.tool.clone()) {
            enable(cfg);
        }
    });
}

/// Enable collection with the given output configuration.
///
/// Publishes the ring capacity and lazily spawns the flusher thread.
///
/// Prefer [`session`] in tests and benchmarks: it additionally serializes on
/// a global lock and disables collection on drop.
pub fn enable(config: ToolConfig) {
    RING_CAP.store(config.ring_capacity.max(1), Ordering::SeqCst);
    *ACTIVE.lock() = Some(config);
    // A fresh session starts unpaused: set_flusher_paused is a per-session
    // measurement aid, never sticky state.
    FLUSHER_PAUSED.store(false, Ordering::SeqCst);
    ensure_flusher();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disable collection (recorded events are retained until [`reset`]).
///
/// Stops and joins the flusher and drains every ring.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
    stop_flusher();
    drain_all();
    *ACTIVE.lock() = None;
}

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Monotone source of team region ids (0 is reserved for "no region").
static NEXT_REGION: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh region id (called by [`crate::team::Team::new`]).
pub fn new_region_id() -> u64 {
    NEXT_REGION.fetch_add(1, Ordering::Relaxed)
}

static NEXT_TID: AtomicU32 = AtomicU32::new(0);

/// Events drained out of the rings (by the flusher, inline drains, and the
/// safety-net drain of exiting threads).
static COLLECTED: Mutex<Vec<Event>> = Mutex::new(Vec::new());

/// Ring capacity applied to rings created after the last [`enable`].
static RING_CAP: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);

/// Registry of live rings, one per recording thread; the flusher and
/// [`events`] iterate it. Retired when the owning thread exits.
static RINGS: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());

/// Bumped by [`reset`]: thread-local rings from an earlier generation are
/// stale (their buffered events were discarded with the reset) and get
/// recreated on the next record.
static RING_EPOCH: AtomicU64 = AtomicU64::new(0);

/// Drops carried over from retired rings (live rings keep their own count).
static DROPPED_RETIRED: AtomicU64 = AtomicU64::new(0);

/// Total events drained out of rings since the last [`reset`].
static FLUSHED: AtomicU64 = AtomicU64::new(0);

/// Serializes drain → collect sequences so [`events`] can never observe a
/// batch that another drainer has popped from a ring but not yet collected.
static DRAIN: Mutex<()> = Mutex::new(());

/// How often the flusher sweeps all rings when nothing wakes it earlier.
const FLUSH_TICK: Duration = Duration::from_millis(2);

struct RingState {
    cap: usize,
    events: VecDeque<Event>,
    dropped: u64,
}

/// One thread's bounded event buffer.
struct Ring {
    tid: u32,
    state: Mutex<RingState>,
}

/// The thread-local handle: an [`Arc`] into [`RINGS`] plus the generation it
/// was created under. Dropping it (thread exit) drains leftovers and retires
/// the ring — unless a [`reset`] made it stale, in which case the buffered
/// events were already discarded by contract.
struct LocalRing {
    epoch: u64,
    ring: Arc<Ring>,
}

impl Drop for LocalRing {
    fn drop(&mut self) {
        // Check the generation under `DRAIN`, which `reset` holds while it
        // bumps the epoch: checked outside it, a thread exiting during a
        // reset could pass the check and then retire its stale events and
        // drop count into the new generation.
        let _guard = DRAIN.lock();
        if self.epoch != RING_EPOCH.load(Ordering::SeqCst) {
            return;
        }
        let (batch, dropped) = {
            let mut s = self.ring.state.lock();
            (
                s.events.drain(..).collect::<Vec<Event>>(),
                std::mem::take(&mut s.dropped),
            )
        };
        DROPPED_RETIRED.fetch_add(dropped, Ordering::Relaxed);
        collect(batch);
        RINGS.lock().retain(|r| !Arc::ptr_eq(r, &self.ring));
    }
}

thread_local! {
    static RING: RefCell<Option<LocalRing>> = const { RefCell::new(None) };
}

/// Run `f` on this thread's ring, creating it first if the thread has none
/// yet or a [`reset`] made its ring stale. `f` must not record: it runs
/// inside the thread-local borrow.
fn with_ring(f: impl FnOnce(&Ring)) {
    RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        let epoch = RING_EPOCH.load(Ordering::Relaxed);
        if slot.as_ref().is_none_or(|lr| lr.epoch != epoch) {
            let cap = RING_CAP.load(Ordering::Relaxed).max(1);
            let ring = Arc::new(Ring {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                state: Mutex::new(RingState {
                    cap,
                    events: VecDeque::with_capacity(cap),
                    dropped: 0,
                }),
            });
            RINGS.lock().push(Arc::clone(&ring));
            // Replacing a stale handle drops it; its Drop sees the epoch
            // mismatch and discards silently (reset already disowned it).
            *slot = Some(LocalRing { epoch, ring });
        }
        f(&slot.as_ref().expect("just initialized").ring);
    });
}

/// Record an event for an explicit region id. No-op (one relaxed load) when
/// collection is disabled.
#[inline]
pub fn record(region: u64, kind: EventKind) {
    if !enabled() {
        return;
    }
    record_enabled(region, kind);
}

/// Record an event for the current thread's innermost team region (0 when
/// outside any team). No-op (one relaxed load) when collection is disabled.
#[inline]
pub fn record_here(kind: EventKind) {
    if !enabled() {
        return;
    }
    let region = context::current_frame().map_or(0, |f| f.team.region());
    record_enabled(region, kind);
}

#[inline(never)]
fn record_enabled(region: u64, kind: EventKind) {
    let ts_ns = now_ns();
    with_ring(|ring| {
        let ev = Event {
            region,
            thread: ring.tid,
            ts_ns,
            kind,
        };
        push_event(ring, ev);
    });
}

/// Append `ev`, or count it dropped if the ring is full (drop-newest: the
/// buffered events are never touched, so a full ring costs the recording
/// thread one lock and one increment).
fn push_event(ring: &Ring, ev: Event) {
    let (len, cap) = {
        let mut s = ring.state.lock();
        if s.events.len() >= s.cap {
            s.dropped += 1;
            return;
        }
        s.events.push_back(ev);
        (s.events.len(), s.cap)
    };
    // Wake the flusher exactly as the ring crosses half-full (and again at
    // full), keeping steady-state drains off this thread without a notify
    // per event.
    if len == cap / 2 + 1 || len == cap {
        flush_wake().notify_all();
    }
}

/// Move a drained batch into the collector. Callers hold [`DRAIN`]
/// (directly or transitively) so [`events`] never sees a batch in flight.
fn collect(batch: Vec<Event>) {
    if batch.is_empty() {
        return;
    }
    FLUSHED.fetch_add(batch.len() as u64, Ordering::Relaxed);
    COLLECTED.lock().extend(batch);
}

/// Drain one ring into the collector. Caller holds [`DRAIN`]. The ring's
/// state lock is released before collecting, so a recording thread never
/// waits on the collector lock.
fn drain_ring_inner(ring: &Ring) {
    let batch: Vec<Event> = {
        let mut s = ring.state.lock();
        s.events.drain(..).collect()
    };
    collect(batch);
}

fn drain_ring(ring: &Ring) {
    let _guard = DRAIN.lock();
    drain_ring_inner(ring);
}

/// Team threads currently inside a region epilogue: the window between
/// arriving at the region's *final* barrier and flushing their ring. On the
/// pooled path the final barrier's releaser completes the region latch for
/// the whole gang, so the master can return — and call [`events`] — while a
/// worker is still recording its final `BarrierExit`/`ParallelEnd`. Snapshot
/// readers wait for this count to reach zero before draining.
static OPEN_EPILOGUES: AtomicUsize = AtomicUsize::new(0);

/// RAII marker for a team thread's region epilogue (see [`OPEN_EPILOGUES`]).
pub(crate) struct EpilogueGuard {
    armed: bool,
}

/// Mark the calling team thread as inside its region epilogue.
///
/// Must be taken *before* the thread arrives at the region's final barrier:
/// the increment then happens-before the barrier release that frees the
/// master, so a master that subsequently snapshots is guaranteed to observe
/// either the count or the events themselves. Inert (no atomic RMW) while
/// the profiler is off.
pub(crate) fn epilogue_begin() -> EpilogueGuard {
    let armed = enabled();
    if armed {
        OPEN_EPILOGUES.fetch_add(1, Ordering::SeqCst);
    }
    EpilogueGuard { armed }
}

impl Drop for EpilogueGuard {
    fn drop(&mut self) {
        if self.armed {
            OPEN_EPILOGUES.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Wait (bounded) until no team thread is mid-epilogue, so a snapshot taken
/// right after a pooled region returns sees the full event stream. The
/// deadline only matters if new regions keep launching concurrently — then
/// the snapshot is honestly racing live traffic and a cutoff is correct.
fn quiesce_epilogues() {
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(100);
    while OPEN_EPILOGUES.load(Ordering::SeqCst) != 0 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
}

/// Drain every live ring (the flusher's sweep; also the shutdown path).
fn drain_all() {
    let _guard = DRAIN.lock();
    let rings: Vec<Arc<Ring>> = RINGS.lock().clone();
    for ring in &rings {
        drain_ring_inner(ring);
    }
}

/// Flush the calling thread's ring into the collector.
///
/// The runtime calls this at the end of every team thread's region body:
/// scoped threads signal completion *before* their TLS destructors run, so
/// relying on the ring's drop-drain alone would let [`events`] race with a
/// just-joined worker whose destructor is still pending. The drop remains as
/// a safety net for threads outside any team.
pub fn flush_thread() {
    RING.with(|slot| {
        if let Some(lr) = slot.borrow().as_ref() {
            if lr.epoch == RING_EPOCH.load(Ordering::Relaxed) {
                drain_ring(&lr.ring);
            }
        }
    });
}

/// Snapshot every event recorded so far (drains all rings first).
///
/// Call from the thread that ran the parallel regions *after* they complete.
pub fn events() -> Vec<Event> {
    quiesce_epilogues();
    drain_all();
    let mut all = COLLECTED.lock().clone();
    all.sort_by_key(|e| e.ts_ns);
    all
}

/// Discard all recorded events, drop/flush accounting, and external counters.
///
/// Bumps the ring generation: every thread's local ring is disowned (its
/// buffered events discarded) and lazily recreated — with the capacity of
/// the *next* [`enable`] — on that thread's next record.
pub fn reset() {
    let _guard = DRAIN.lock();
    RING_EPOCH.fetch_add(1, Ordering::SeqCst);
    RINGS.lock().clear();
    DROPPED_RETIRED.store(0, Ordering::Relaxed);
    FLUSHED.store(0, Ordering::Relaxed);
    COLLECTED.lock().clear();
    COUNTERS.lock().clear();
}

// ---------------------------------------------------------------------------
// Flusher thread
// ---------------------------------------------------------------------------

/// Wakes the flusher early (half-full rings, shutdown, unpause).
fn flush_wake() -> &'static Notifier {
    static WAKE: OnceLock<Notifier> = OnceLock::new();
    WAKE.get_or_init(Notifier::new)
}

struct Flusher {
    run: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

static FLUSHER: Mutex<Option<Flusher>> = Mutex::new(None);

/// Test/bench determinism hook: a paused flusher skips its sweeps (see
/// [`set_flusher_paused`]).
static FLUSHER_PAUSED: AtomicBool = AtomicBool::new(false);

/// Spawn the dedicated flusher if it is not already running. Spawn failure is
/// tolerated: recording still works, drains just happen inline (region ends,
/// [`events`], shutdown) and a full ring drops until then.
fn ensure_flusher() {
    let mut slot = FLUSHER.lock();
    if slot.is_some() {
        return;
    }
    let run = Arc::new(AtomicBool::new(true));
    let run_flag = Arc::clone(&run);
    let spawned = std::thread::Builder::new()
        .name("omp4rs-trace-flusher".into())
        .spawn(move || {
            while run_flag.load(Ordering::SeqCst) {
                if !FLUSHER_PAUSED.load(Ordering::SeqCst) {
                    drain_all();
                }
                flush_wake().wait_timeout(FLUSH_TICK);
            }
            // Final sweep so a stop never strands buffered events.
            drain_all();
        });
    if let Ok(handle) = spawned {
        *slot = Some(Flusher { run, handle });
    }
}

/// Stop and join the flusher (idempotent). Runs before any summary/trace
/// rendering so output generation never races a live drain.
fn stop_flusher() {
    let flusher = FLUSHER.lock().take();
    if let Some(f) = flusher {
        f.run.store(false, Ordering::SeqCst);
        flush_wake().notify_all();
        let _ = f.handle.join();
    }
}

/// Whether the dedicated flusher thread is currently running.
pub fn flusher_running() -> bool {
    FLUSHER.lock().is_some()
}

/// Pause or resume the flusher's periodic sweeps *without* stopping the
/// thread. Deterministic overflow tests use this to guarantee a tiny ring
/// actually fills; benchmarks use it to measure the no-flusher baseline.
/// Inline drains ([`flush_thread`], [`events`], shutdown) are unaffected.
pub fn set_flusher_paused(paused: bool) {
    FLUSHER_PAUSED.store(paused, Ordering::SeqCst);
    if !paused {
        flush_wake().notify_all();
    }
}

// ---------------------------------------------------------------------------
// Pipeline introspection
// ---------------------------------------------------------------------------

/// A snapshot of the trace pipeline's capacity and throughput accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingStats {
    /// Live per-thread rings.
    pub rings: usize,
    /// Capacity (in events) rings are created with.
    pub capacity: usize,
    /// Events drained out of rings since the last [`reset`].
    pub flushed: u64,
    /// Events dropped by full rings since the last [`reset`].
    pub dropped: u64,
}

impl RingStats {
    /// The bounded-memory guarantee: the maximum bytes the live rings can
    /// hold (`rings × capacity × sizeof(Event)`).
    pub fn bounded_bytes(&self) -> usize {
        self.rings * self.capacity * std::mem::size_of::<Event>()
    }
}

/// Snapshot the pipeline accounting (see [`RingStats`]).
pub fn ring_stats() -> RingStats {
    // Bind the ring count first: a `RINGS.lock()` temporary inside the struct
    // literal would outlive the `dropped_events()` field initializer, which
    // locks `RINGS` again (parking_lot mutexes are not reentrant).
    let rings = RINGS.lock().len();
    RingStats {
        rings,
        capacity: RING_CAP.load(Ordering::Relaxed),
        flushed: FLUSHED.load(Ordering::Relaxed),
        dropped: dropped_events(),
    }
}

/// Total events dropped by full rings since the last [`reset`]
/// (retired rings' counts plus every live ring's).
pub fn dropped_events() -> u64 {
    let mut total = DROPPED_RETIRED.load(Ordering::Relaxed);
    for ring in RINGS.lock().iter() {
        total += ring.state.lock().dropped;
    }
    total
}

// ---------------------------------------------------------------------------
// External counters
// ---------------------------------------------------------------------------

static COUNTERS: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());

/// Publish (or overwrite) a named scalar counter.
///
/// Used by layers outside this crate — the minipy interpreter publishes its
/// GIL hold time and per-object lock contention here via the pyfront bridge —
/// so the per-region summary can show the Pure-vs-Compiled contrast.
pub fn set_counter(name: &'static str, value: u64) {
    COUNTERS.lock().insert(name, value);
}

/// Snapshot all published counters.
///
/// When the trace pipeline has dropped events, an `omp4rs.trace.dropped`
/// entry is folded in so every exporter (summary, trace footer, JSON bench
/// output) reports the loss — truncation is never silent. Lossless runs get
/// no entry.
pub fn counters() -> BTreeMap<&'static str, u64> {
    let mut map = COUNTERS.lock().clone();
    let dropped = dropped_events();
    if dropped > 0 {
        map.insert("omp4rs.trace.dropped", dropped);
    }
    map
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// Metrics folded from one region's events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegionMetrics {
    /// The region id ([`crate::team::Team::region`]).
    pub region: u64,
    /// Number of distinct threads that recorded events in the region.
    pub threads: usize,
    /// Wall-clock span (first `parallel-begin` to last `parallel-end`), ns.
    pub span_ns: u64,
    /// Barrier arrivals.
    pub barriers: u64,
    /// Total nanoseconds threads spent inside barriers (idle wait *plus*
    /// tasks drained while parked — the raw sum of `barrier-exit` windows).
    pub barrier_wait_ns: u64,
    /// Longest single barrier window, ns.
    pub barrier_wait_max_ns: u64,
    /// Of [`RegionMetrics::barrier_wait_ns`], nanoseconds actually spent
    /// *executing tasks* inside barrier windows (task schedule→complete
    /// spans that began while the thread was between `barrier-enter` and
    /// `barrier-exit`). Reporting wait and drain as one number made summary
    /// percentages exceed 100% when barriers drained heavy task queues; the
    /// summary now shows `wait = barrier_wait_ns − barrier_drain_ns` and
    /// drain as separate lines.
    pub barrier_drain_ns: u64,
    /// Loop chunks claimed.
    pub chunks: u64,
    /// Total chunk execution time, ns.
    pub chunk_ns_total: u64,
    /// Longest single chunk, ns.
    pub chunk_ns_max: u64,
    /// Load imbalance: max per-thread chunk time over mean per-thread chunk
    /// time (1.0 = perfectly balanced; 0.0 when the region ran no chunks).
    pub imbalance: f64,
    /// Tasks created.
    pub tasks_created: u64,
    /// Tasks completed (including discarded tasks of cancelled queues).
    pub tasks_completed: u64,
    /// Tasks claimed from another thread's work-stealing deque.
    pub task_steals: u64,
    /// High-water mark of simultaneously outstanding tasks.
    pub task_depth_hwm: u64,
    /// Lock / `critical` acquisitions.
    pub lock_acquires: u64,
    /// How many of those had to wait for another holder.
    pub lock_contended: u64,
    /// Cancellation requests/observations.
    pub cancellations: u64,
}

impl RegionMetrics {
    /// Mean chunk execution time, ns (0 when no chunks ran).
    pub fn chunk_ns_mean(&self) -> u64 {
        self.chunk_ns_total.checked_div(self.chunks).unwrap_or(0)
    }
}

/// Fold an event stream into per-region metrics, sorted by region id.
///
/// Events must carry consistent timestamps (as produced by this module);
/// the fold is pure, so synthetic event streams work too (the unit tests
/// build some).
pub fn aggregate(events: &[Event]) -> Vec<RegionMetrics> {
    let mut regions: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for e in events {
        regions.entry(e.region).or_default().push(e);
    }
    let mut out = Vec::with_capacity(regions.len());
    for (region, mut evs) in regions {
        evs.sort_by_key(|e| e.ts_ns);
        let mut m = RegionMetrics {
            region,
            ..RegionMetrics::default()
        };
        let mut threads: Vec<u32> = Vec::new();
        let mut begin_ts: Option<u64> = None;
        let mut end_ts: Option<u64> = None;
        let mut depth: u64 = 0;
        let mut per_thread_chunk_ns: BTreeMap<u32, u64> = BTreeMap::new();
        // Per-thread "inside a barrier window" flag and the stack of open
        // task executions (start ts, was-in-barrier), used to attribute task
        // time drained at barriers separately from idle barrier waiting.
        let mut in_barrier: BTreeMap<u32, bool> = BTreeMap::new();
        let mut task_open: BTreeMap<u32, Vec<(u64, bool)>> = BTreeMap::new();
        for e in &evs {
            if !threads.contains(&e.thread) {
                threads.push(e.thread);
            }
            match e.kind {
                EventKind::ParallelBegin { .. } => {
                    begin_ts = Some(begin_ts.map_or(e.ts_ns, |t| t.min(e.ts_ns)));
                }
                EventKind::ParallelEnd => {
                    end_ts = Some(end_ts.map_or(e.ts_ns, |t| t.max(e.ts_ns)));
                }
                EventKind::BarrierEnter { .. } => {
                    m.barriers += 1;
                    in_barrier.insert(e.thread, true);
                }
                EventKind::BarrierExit { wait_ns } => {
                    m.barrier_wait_ns += wait_ns;
                    m.barrier_wait_max_ns = m.barrier_wait_max_ns.max(wait_ns);
                    in_barrier.insert(e.thread, false);
                }
                EventKind::TaskCreate { .. } => {
                    m.tasks_created += 1;
                    depth += 1;
                    m.task_depth_hwm = m.task_depth_hwm.max(depth);
                }
                EventKind::TaskSchedule => {
                    let waiting = in_barrier.get(&e.thread).copied().unwrap_or(false);
                    task_open
                        .entry(e.thread)
                        .or_default()
                        .push((e.ts_ns, waiting));
                }
                EventKind::TaskSteal => m.task_steals += 1,
                EventKind::TaskComplete => {
                    m.tasks_completed += 1;
                    depth = depth.saturating_sub(1);
                    if let Some((start, true)) = task_open.get_mut(&e.thread).and_then(Vec::pop) {
                        m.barrier_drain_ns += e.ts_ns.saturating_sub(start);
                    }
                }
                EventKind::ChunkClaim { .. } => m.chunks += 1,
                EventKind::ChunkDone { ns, .. } => {
                    m.chunk_ns_total += ns;
                    m.chunk_ns_max = m.chunk_ns_max.max(ns);
                    *per_thread_chunk_ns.entry(e.thread).or_default() += ns;
                }
                EventKind::LockAcquire { contended } => {
                    m.lock_acquires += 1;
                    m.lock_contended += u64::from(contended);
                }
                EventKind::CancelObserved => m.cancellations += 1,
                // A deadline trip always poisons the region, which records a
                // CancelObserved counted above — no separate aggregate.
                EventKind::DeadlineTrip { .. } => {}
            }
        }
        m.threads = threads.len();
        m.span_ns = match (begin_ts, end_ts) {
            (Some(b), Some(e)) => e.saturating_sub(b),
            _ => 0,
        };
        if !per_thread_chunk_ns.is_empty() {
            let max = *per_thread_chunk_ns.values().max().unwrap_or(&0);
            let sum: u64 = per_thread_chunk_ns.values().sum();
            let mean = sum as f64 / per_thread_chunk_ns.len() as f64;
            m.imbalance = if mean > 0.0 { max as f64 / mean } else { 0.0 };
        }
        out.push(m);
    }
    out
}

// ---------------------------------------------------------------------------
// Summary exporter
// ---------------------------------------------------------------------------

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}ms", ns as f64 / 1e6)
}

/// Render the human-readable per-region summary for an event stream and a
/// counter snapshot.
pub fn render_summary(events: &[Event], counters: &BTreeMap<&'static str, u64>) -> String {
    let mut out = String::from("== omp4rs profile summary ==\n");
    let metrics = aggregate(events);
    if metrics.is_empty() {
        out.push_str("(no events recorded)\n");
    }
    for m in &metrics {
        out.push_str(&format!(
            "region {}: threads={} span={}\n",
            m.region,
            m.threads,
            fmt_ms(m.span_ns)
        ));
        // Barrier windows cover idle waiting plus tasks drained while
        // parked; reporting them as one "wait" made the shares below exceed
        // 100% of thread-time. Split them (drain clamped to the window).
        let drain_ns = m.barrier_drain_ns.min(m.barrier_wait_ns);
        let wait_ns = m.barrier_wait_ns - drain_ns;
        out.push_str(&format!(
            "  barriers: {} arrivals, in-barrier {} (wait {} + task-drain {}), max {}\n",
            m.barriers,
            fmt_ms(m.barrier_wait_ns),
            fmt_ms(wait_ns),
            fmt_ms(drain_ns),
            fmt_ms(m.barrier_wait_max_ns)
        ));
        let thread_time_ns = m.span_ns.saturating_mul(m.threads as u64);
        if thread_time_ns > 0 {
            let pct = |ns: u64| ns as f64 * 100.0 / thread_time_ns as f64;
            out.push_str(&format!(
                "  shares: barrier-wait {:.1}%, task-drain {:.1}% of thread-time\n",
                pct(wait_ns),
                pct(drain_ns)
            ));
        }
        out.push_str(&format!(
            "  chunks: {} claimed, mean {}, max {}, imbalance {:.2}\n",
            m.chunks,
            fmt_ms(m.chunk_ns_mean()),
            fmt_ms(m.chunk_ns_max),
            m.imbalance
        ));
        out.push_str(&format!(
            "  tasks: {} created, {} completed, {} stolen, queue high-water {}\n",
            m.tasks_created, m.tasks_completed, m.task_steals, m.task_depth_hwm
        ));
        out.push_str(&format!(
            "  locks: {} acquisitions, {} contended\n",
            m.lock_acquires, m.lock_contended
        ));
        if m.cancellations > 0 {
            out.push_str(&format!("  cancellations: {}\n", m.cancellations));
        }
    }
    if let Some(dropped) = counters.get("omp4rs.trace.dropped") {
        out.push_str(&format!(
            "!! trace ring overflow: {dropped} events dropped — raise OMP4RS_TRACE_RING\n"
        ));
    }
    if !counters.is_empty() {
        out.push_str("counters:\n");
        for (name, value) in counters {
            out.push_str(&format!("  {name} = {value}\n"));
        }
    }
    out
}

/// Render the summary for everything recorded so far.
pub fn summary() -> String {
    render_summary(&events(), &counters())
}

// ---------------------------------------------------------------------------
// Chrome-trace exporter
// ---------------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn ts_us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e3)
}

struct TraceWriter {
    out: String,
    first: bool,
}

impl TraceWriter {
    fn new() -> TraceWriter {
        TraceWriter {
            out: String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
            first: true,
        }
    }

    /// Emit a complete ("X") duration event.
    fn complete(
        &mut self,
        name: &str,
        region: u64,
        tid: u32,
        start_ns: u64,
        dur_ns: u64,
        args: &str,
    ) {
        self.sep();
        self.out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"omp4rs\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}{}}}",
            json_escape(name),
            ts_us(start_ns),
            ts_us(dur_ns),
            region,
            tid,
            args
        ));
    }

    /// Emit an instant ("i") event.
    fn instant(&mut self, name: &str, region: u64, tid: u32, ts_ns: u64, args: &str) {
        self.sep();
        self.out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"omp4rs\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{},\"tid\":{}{}}}",
            json_escape(name),
            ts_us(ts_ns),
            region,
            tid,
            args
        ));
    }

    fn sep(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.out.push(',');
        }
    }

    fn finish(mut self, counters: &BTreeMap<&'static str, u64>) -> String {
        self.out.push_str("],\"otherData\":{");
        let mut first = true;
        for (name, value) in counters {
            if !first {
                self.out.push(',');
            }
            first = false;
            self.out
                .push_str(&format!("\"{}\":{}", json_escape(name), value));
        }
        self.out.push_str("}}");
        self.out
    }
}

/// Render a Chrome-trace (`chrome://tracing` / Perfetto JSON) dump for an
/// event stream. Paired events (barrier enter/exit, task schedule/complete,
/// parallel begin/end) become duration slices; chunk executions become
/// slices reconstructed from their recorded durations; everything else
/// becomes instant markers. `pid` encodes the region id, `tid` the
/// profiler-assigned thread id.
pub fn render_chrome_trace(events: &[Event], counters: &BTreeMap<&'static str, u64>) -> String {
    let mut w = TraceWriter::new();
    // Open pairs per (region, thread): the slice is emitted at its closer.
    let mut barrier_open: BTreeMap<(u64, u32), (u64, bool)> = BTreeMap::new();
    let mut task_open: BTreeMap<(u64, u32), Vec<u64>> = BTreeMap::new();
    let mut parallel_open: BTreeMap<(u64, u32), u64> = BTreeMap::new();
    let mut sorted: Vec<&Event> = events.iter().collect();
    sorted.sort_by_key(|e| e.ts_ns);
    for e in sorted {
        let key = (e.region, e.thread);
        match e.kind {
            EventKind::ParallelBegin { .. } => {
                parallel_open.insert(key, e.ts_ns);
            }
            EventKind::ParallelEnd => {
                if let Some(start) = parallel_open.remove(&key) {
                    w.complete(
                        &format!("parallel (region {})", e.region),
                        e.region,
                        e.thread,
                        start,
                        e.ts_ns.saturating_sub(start),
                        "",
                    );
                }
            }
            EventKind::BarrierEnter { explicit } => {
                barrier_open.insert(key, (e.ts_ns, explicit));
            }
            EventKind::BarrierExit { wait_ns } => {
                if let Some((start, explicit)) = barrier_open.remove(&key) {
                    let name = if explicit {
                        "barrier"
                    } else {
                        "barrier (implicit)"
                    };
                    let args = format!(",\"args\":{{\"wait_ns\":{wait_ns}}}");
                    w.complete(
                        name,
                        e.region,
                        e.thread,
                        start,
                        e.ts_ns.saturating_sub(start),
                        &args,
                    );
                }
            }
            EventKind::TaskCreate { deferred } => {
                let args = format!(",\"args\":{{\"deferred\":{deferred}}}");
                w.instant("task-create", e.region, e.thread, e.ts_ns, &args);
            }
            EventKind::TaskSchedule => {
                task_open.entry(key).or_default().push(e.ts_ns);
            }
            EventKind::TaskSteal => {
                w.instant("task-steal", e.region, e.thread, e.ts_ns, "");
            }
            EventKind::TaskComplete => {
                if let Some(start) = task_open.get_mut(&key).and_then(Vec::pop) {
                    w.complete(
                        "task",
                        e.region,
                        e.thread,
                        start,
                        e.ts_ns.saturating_sub(start),
                        "",
                    );
                }
            }
            EventKind::ChunkClaim { lo, hi } => {
                let args = format!(",\"args\":{{\"lo\":{lo},\"hi\":{hi}}}");
                w.instant("chunk-claim", e.region, e.thread, e.ts_ns, &args);
            }
            EventKind::ChunkDone { iters, ns } => {
                let args = format!(",\"args\":{{\"iters\":{iters}}}");
                w.complete(
                    "chunk",
                    e.region,
                    e.thread,
                    e.ts_ns.saturating_sub(ns),
                    ns,
                    &args,
                );
            }
            EventKind::LockAcquire { contended } => {
                if contended {
                    w.instant("lock-contended", e.region, e.thread, e.ts_ns, "");
                }
            }
            EventKind::CancelObserved => {
                w.instant("cancel", e.region, e.thread, e.ts_ns, "");
            }
            EventKind::DeadlineTrip { wait_ns } => {
                let args = format!(",\"args\":{{\"wait_ns\":{wait_ns}}}");
                w.instant("deadline-trip", e.region, e.thread, e.ts_ns, &args);
            }
        }
    }
    w.finish(counters)
}

/// Render the Chrome trace for everything recorded so far.
pub fn chrome_trace() -> String {
    render_chrome_trace(&events(), &counters())
}

/// Emit the outputs configured by the active [`ToolConfig`] (write the trace
/// file, print the summary to stderr). Returns the trace path written. A
/// no-op returning `Ok(None)` when no configuration is active.
///
/// Shutdown ordering: the flusher is stopped and joined, every ring drained,
/// and only *then* is anything rendered — the summary can never race a live
/// drain and no events are lost on a normal exit.
///
/// # Errors
///
/// Propagates the I/O error if the trace file cannot be written.
pub fn finalize() -> std::io::Result<Option<String>> {
    let config = ACTIVE.lock().clone();
    let Some(config) = config else {
        return Ok(None);
    };
    stop_flusher();
    quiesce_epilogues();
    drain_all();
    if config.summary {
        eprintln!("{}", summary());
    }
    if let Some(path) = &config.trace_path {
        std::fs::write(path, chrome_trace())?;
        return Ok(Some(path.clone()));
    }
    Ok(None)
}

// ---------------------------------------------------------------------------
// Sessions (programmatic / test use)
// ---------------------------------------------------------------------------

/// Serializes sessions the way [`crate::faults`] serializes fault plans:
/// concurrently running tests never observe each other's events.
static SESSION_LOCK: Mutex<()> = Mutex::new(());

/// An active profiling session. Collection is enabled while it lives;
/// dropping it disables collection (recorded events are retained until the
/// next [`session`] or [`reset`]).
pub struct Session {
    _lock: MutexGuard<'static, ()>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").finish()
    }
}

impl Session {
    /// The per-region summary of events recorded so far in this session.
    pub fn summary(&self) -> String {
        summary()
    }

    /// The Chrome trace of events recorded so far in this session.
    pub fn chrome_trace(&self) -> String {
        chrome_trace()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        disable();
    }
}

/// Start a profiling session: take the global session lock, clear previously
/// recorded events and counters, and enable collection until the returned
/// [`Session`] drops.
pub fn session(config: ToolConfig) -> Session {
    let lock = SESSION_LOCK.lock();
    reset();
    enable(config);
    Session { _lock: lock }
}

/// Take the session lock *without* enabling collection — used by tests that
/// must assert the disabled profiler records nothing, without racing against
/// enabled sessions in sibling tests.
pub fn disabled_session() -> Session {
    let lock = SESSION_LOCK.lock();
    reset();
    disable();
    Session { _lock: lock }
}

// ---------------------------------------------------------------------------
// Chrome-trace validation (a deliberately small JSON parser)
// ---------------------------------------------------------------------------

/// Shape facts extracted by [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Number of entries in `traceEvents`.
    pub events: usize,
    /// Number of entries in `otherData` (the exported counters).
    pub counters: usize,
}

/// Parse a Chrome-trace dump with a minimal JSON parser and check its shape:
/// a top-level object with a `traceEvents` array whose entries each carry
/// `name` (string), `ph` (string), `ts` (number), `pid`/`tid` (numbers), and
/// `dur` (number) for `"X"` events.
///
/// # Errors
///
/// A description of the first malformed construct found.
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let value = json::parse(text)?;
    let obj = value.as_object().ok_or("top level is not an object")?;
    let events = obj
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .ok_or("missing traceEvents")?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    for (i, ev) in events.iter().enumerate() {
        let fields = ev
            .as_object()
            .ok_or_else(|| format!("traceEvents[{i}] is not an object"))?;
        let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let name = get("name").ok_or_else(|| format!("traceEvents[{i}] missing name"))?;
        if name.as_str().is_none() {
            return Err(format!("traceEvents[{i}].name is not a string"));
        }
        let ph = get("ph")
            .and_then(json::Value::as_str)
            .ok_or_else(|| format!("traceEvents[{i}] missing ph"))?;
        for key in ["ts", "pid", "tid"] {
            if get(key).and_then(json::Value::as_number).is_none() {
                return Err(format!("traceEvents[{i}] missing numeric {key}"));
            }
        }
        if ph == "X" && get("dur").and_then(json::Value::as_number).is_none() {
            return Err(format!("traceEvents[{i}] is ph=X without numeric dur"));
        }
    }
    let counters = obj
        .iter()
        .find(|(k, _)| k == "otherData")
        .and_then(|(_, v)| v.as_object())
        .map_or(0, Vec::len);
    Ok(TraceStats {
        events: events.len(),
        counters,
    })
}

/// The minimal JSON parser backing [`validate_chrome_trace`]. Supports the
/// full JSON grammar minus `\u` surrogate pairs, which the exporter never
/// emits.
mod json {
    pub(super) enum Value {
        Null,
        // The validator never inspects booleans, but a JSON parser that
        // dropped them would be a trap for the next caller.
        Bool(#[allow(dead_code)] bool),
        Number(f64),
        String(String),
        Array(Vec<Value>),
        Object(Vec<(String, Value)>),
    }

    impl Value {
        pub(super) fn as_object(&self) -> Option<&Vec<(String, Value)>> {
            match self {
                Value::Object(o) => Some(o),
                _ => None,
            }
        }
        pub(super) fn as_array(&self) -> Option<&Vec<Value>> {
            match self {
                Value::Array(a) => Some(a),
                _ => None,
            }
        }
        pub(super) fn as_str(&self) -> Option<&str> {
            match self {
                Value::String(s) => Some(s),
                _ => None,
            }
        }
        pub(super) fn as_number(&self) -> Option<f64> {
            match self {
                Value::Number(n) => Some(*n),
                _ => None,
            }
        }
    }

    pub(super) fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => parse_object(b, pos),
            Some(b'[') => parse_array(b, pos),
            Some(b'"') => Ok(Value::String(parse_string(b, pos)?)),
            Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_lit(b, pos, "null", Value::Null),
            Some(_) => parse_number(b, pos),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {pos}"))
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Number)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        debug_assert_eq!(b[*pos], b'"');
        *pos += 1;
        let mut out = Vec::new();
        while *pos < b.len() {
            match b[*pos] {
                b'"' => {
                    *pos += 1;
                    return String::from_utf8(out).map_err(|_| "invalid UTF-8".into());
                }
                b'\\' => {
                    *pos += 1;
                    let esc = *b.get(*pos).ok_or("unterminated escape")?;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0c),
                        b'u' => {
                            let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            let c = char::from_u32(code).ok_or("surrogate \\u escape")?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                            *pos += 4;
                        }
                        _ => return Err(format!("invalid escape at byte {pos}")),
                    }
                    *pos += 1;
                }
                c => {
                    out.push(c);
                    *pos += 1;
                }
            }
        }
        Err("unterminated string".into())
    }

    fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        *pos += 1; // '['
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(parse_value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {pos}")),
            }
        }
    }

    fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        *pos += 1; // '{'
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b'"') {
                return Err(format!("expected object key at byte {pos}"));
            }
            let key = parse_string(b, pos)?;
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b':') {
                return Err(format!("expected ':' at byte {pos}"));
            }
            *pos += 1;
            let value = parse_value(b, pos)?;
            fields.push((key, value));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_omp_tool_forms() {
        assert_eq!(ToolConfig::parse(""), None);
        assert_eq!(ToolConfig::parse("disabled"), None);
        assert_eq!(ToolConfig::parse("off"), None);
        assert_eq!(ToolConfig::parse("enabled"), Some(ToolConfig::default()));
        assert_eq!(
            ToolConfig::parse("summary"),
            Some(ToolConfig {
                trace_path: None,
                summary: true,
                ..ToolConfig::default()
            })
        );
        assert_eq!(
            ToolConfig::parse("trace:/tmp/a.json , summary"),
            Some(ToolConfig {
                trace_path: Some("/tmp/a.json".into()),
                summary: true,
                ..ToolConfig::default()
            })
        );
        assert_eq!(ToolConfig::parse("trace:"), None);
        assert_eq!(ToolConfig::parse("bogus"), None);
    }

    #[test]
    fn region_ids_are_unique() {
        let a = new_region_id();
        let b = new_region_id();
        assert!(b > a);
    }

    fn ev(region: u64, thread: u32, ts_ns: u64, kind: EventKind) -> Event {
        Event {
            region,
            thread,
            ts_ns,
            kind,
        }
    }

    #[test]
    fn aggregate_synthetic_stream() {
        let events = vec![
            ev(1, 0, 0, EventKind::ParallelBegin { team_size: 2 }),
            ev(1, 1, 5, EventKind::ParallelBegin { team_size: 2 }),
            ev(1, 0, 10, EventKind::ChunkClaim { lo: 0, hi: 8 }),
            ev(1, 0, 110, EventKind::ChunkDone { iters: 8, ns: 100 }),
            ev(1, 1, 10, EventKind::ChunkClaim { lo: 8, hi: 16 }),
            ev(1, 1, 310, EventKind::ChunkDone { iters: 8, ns: 300 }),
            ev(1, 0, 320, EventKind::BarrierEnter { explicit: false }),
            ev(1, 0, 400, EventKind::BarrierExit { wait_ns: 80 }),
            ev(1, 1, 330, EventKind::BarrierEnter { explicit: false }),
            ev(1, 1, 400, EventKind::BarrierExit { wait_ns: 70 }),
            ev(1, 0, 410, EventKind::TaskCreate { deferred: true }),
            ev(1, 0, 415, EventKind::TaskCreate { deferred: true }),
            ev(1, 1, 420, EventKind::TaskSchedule),
            ev(1, 1, 430, EventKind::TaskComplete),
            ev(1, 1, 431, EventKind::TaskSchedule),
            ev(1, 1, 440, EventKind::TaskComplete),
            ev(1, 0, 450, EventKind::LockAcquire { contended: true }),
            ev(1, 0, 460, EventKind::ParallelEnd),
            ev(1, 1, 470, EventKind::ParallelEnd),
        ];
        let metrics = aggregate(&events);
        assert_eq!(metrics.len(), 1);
        let m = &metrics[0];
        assert_eq!(m.region, 1);
        assert_eq!(m.threads, 2);
        assert_eq!(m.span_ns, 470);
        assert_eq!(m.barriers, 2);
        assert_eq!(m.barrier_wait_ns, 150);
        assert_eq!(m.barrier_wait_max_ns, 80);
        assert_eq!(m.chunks, 2);
        assert_eq!(m.chunk_ns_total, 400);
        assert_eq!(m.chunk_ns_max, 300);
        assert_eq!(m.chunk_ns_mean(), 200);
        // thread 0 spent 100ns, thread 1 spent 300ns: max/mean = 300/200.
        assert!((m.imbalance - 1.5).abs() < 1e-9);
        assert_eq!(m.tasks_created, 2);
        assert_eq!(m.tasks_completed, 2);
        assert_eq!(m.task_depth_hwm, 2);
        assert_eq!(m.lock_acquires, 1);
        assert_eq!(m.lock_contended, 1);
    }

    #[test]
    fn barrier_drain_is_split_from_wait() {
        let events = vec![
            ev(2, 0, 0, EventKind::BarrierEnter { explicit: false }),
            ev(2, 0, 10, EventKind::TaskSchedule),
            ev(2, 0, 60, EventKind::TaskComplete),
            ev(2, 0, 100, EventKind::BarrierExit { wait_ns: 100 }),
            // The same task shape outside a barrier window adds no drain.
            ev(2, 0, 110, EventKind::TaskSchedule),
            ev(2, 0, 150, EventKind::TaskComplete),
        ];
        let metrics = aggregate(&events);
        assert_eq!(metrics.len(), 1);
        assert_eq!(metrics[0].barrier_wait_ns, 100);
        assert_eq!(metrics[0].barrier_drain_ns, 50);
        let text = render_summary(&events, &BTreeMap::new());
        assert!(text.contains("wait "), "{text}");
        assert!(text.contains("task-drain "), "{text}");
    }

    #[test]
    fn summary_flags_dropped_events() {
        let mut counters = BTreeMap::new();
        counters.insert("omp4rs.trace.dropped", 7u64);
        let text = render_summary(&[], &counters);
        assert!(
            text.contains("trace ring overflow: 7 events dropped"),
            "{text}"
        );
    }

    #[test]
    fn chrome_trace_round_trips_through_parser() {
        let events = vec![
            ev(3, 0, 100, EventKind::ParallelBegin { team_size: 1 }),
            ev(3, 0, 150, EventKind::ChunkClaim { lo: 0, hi: 4 }),
            ev(3, 0, 250, EventKind::ChunkDone { iters: 4, ns: 100 }),
            ev(3, 0, 260, EventKind::BarrierEnter { explicit: true }),
            ev(3, 0, 300, EventKind::BarrierExit { wait_ns: 40 }),
            ev(3, 0, 310, EventKind::TaskCreate { deferred: false }),
            ev(3, 0, 311, EventKind::TaskSchedule),
            ev(3, 0, 330, EventKind::TaskComplete),
            ev(3, 0, 340, EventKind::LockAcquire { contended: true }),
            ev(3, 0, 360, EventKind::CancelObserved),
            ev(3, 0, 400, EventKind::ParallelEnd),
        ];
        let mut counters = BTreeMap::new();
        counters.insert("minipy.obj_lock.acquisitions", 42u64);
        let trace = render_chrome_trace(&events, &counters);
        let stats = validate_chrome_trace(&trace).expect("trace must be valid JSON");
        // parallel, chunk, barrier, task-create, task, lock-contended,
        // chunk-claim instant, cancel = 8 entries.
        assert_eq!(stats.events, 8);
        assert_eq!(stats.counters, 1);
    }

    #[test]
    fn validator_rejects_malformed_json() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_ok());
    }

    #[test]
    fn disabled_recording_is_inert() {
        let _session = disabled_session();
        record(1, EventKind::ParallelEnd);
        record_here(EventKind::TaskSchedule);
        assert!(events().is_empty());
    }

    #[test]
    fn session_records_and_disables_on_drop() {
        {
            let session = session(ToolConfig::default());
            assert!(enabled());
            record(7, EventKind::TaskCreate { deferred: true });
            record(7, EventKind::TaskComplete);
            // Collection is process-wide: regions run by sibling tests
            // record too while this session is on. Keep this thread's.
            let mut me = 0;
            with_ring(|ring| me = ring.tid);
            let evs: Vec<Event> = events().into_iter().filter(|e| e.thread == me).collect();
            assert_eq!(evs.len(), 2);
            assert!(evs.iter().all(|e| e.region == 7));
            // Events appear in per-thread program order.
            assert!(matches!(evs[0].kind, EventKind::TaskCreate { .. }));
            let text = session.summary();
            assert!(text.contains("region 7"), "{text}");
        }
        assert!(!enabled());
    }

    #[test]
    fn counters_appear_in_summary_and_trace() {
        let _session = session(ToolConfig::default());
        set_counter("test.counter", 9);
        let text = summary();
        assert!(text.contains("test.counter = 9"), "{text}");
        let stats = validate_chrome_trace(&chrome_trace()).unwrap();
        assert_eq!(stats.counters, 1);
    }
}
