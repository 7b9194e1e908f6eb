//! Deterministic fault injection for runtime robustness tests.
//!
//! The runtime calls [`on_event`] at five well-defined sites: every barrier
//! arrival, every task-body execution, every loop-chunk claim, every
//! pooled-worker region dispatch, and every dependence-graph release. A test
//! arms a seeded [`FaultPlan`] describing *which* occurrence of *which* site
//! should panic (or stall); the hook then fires deterministically — the same
//! plan always kills the same event, independent of thread interleaving,
//! because occurrences are counted with a global per-site counter.
//!
//! The module is always compiled in but **inert unless armed**: the
//! disarmed-path cost is a single relaxed atomic load per event. Plans are
//! armed through [`arm`], which also serializes tests (the returned guard
//! holds a global lock and disarms on drop, so concurrently running tests
//! never arm over each other's plans). An armed plan counts every thread's
//! events, so tests that run regions beside an armed plan must serialize
//! with it.
//!
//! Injected panics carry an [`InjectedFault`] payload so tests can assert
//! that the panic that surfaced is the one they planted.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
#[cfg(test)]
use std::thread::ThreadId;
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard};

/// A runtime site where faults can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A thread arriving at any team barrier (implicit or explicit).
    BarrierArrival,
    /// A task body about to execute (deferred or undeferred).
    TaskExecute,
    /// A thread claiming the next chunk of a work-shared loop.
    ChunkClaim,
    /// A pooled worker beginning a dispatched region job (fires on the
    /// worker thread, before it binds to the region's team — exercising the
    /// pool's recycle-after-panic path).
    WorkerDispatch,
    /// A dependence-held task being admitted by the thread that released
    /// it — placed on a deque or the priority heap, or kept by the
    /// immediate-successor bypass to run next — after its last predecessor
    /// retired ([`crate::depgraph`]). One event per released task. A panic
    /// here is absorbed by the releaser: the successor is discarded (not
    /// stranded) and its own successors cascade through the same funnel.
    DepRelease,
}

impl FaultSite {
    const COUNT: usize = 5;

    fn index(self) -> usize {
        match self {
            FaultSite::BarrierArrival => 0,
            FaultSite::TaskExecute => 1,
            FaultSite::ChunkClaim => 2,
            FaultSite::WorkerDispatch => 3,
            FaultSite::DepRelease => 4,
        }
    }

    /// Human-readable site name.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::BarrierArrival => "barrier-arrival",
            FaultSite::TaskExecute => "task-execute",
            FaultSite::ChunkClaim => "chunk-claim",
            FaultSite::WorkerDispatch => "worker-dispatch",
            FaultSite::DepRelease => "dep-release",
        }
    }

    /// The construct a thread stalled at this site is blocked in, as
    /// reported by [`crate::OmpError::RegionTimeout`]: a stall at a barrier
    /// arrival times out in `barrier`, whichever thread trips the deadline.
    pub(crate) fn construct(self) -> &'static str {
        match self {
            FaultSite::BarrierArrival => "barrier",
            FaultSite::TaskExecute | FaultSite::DepRelease => "task",
            FaultSite::ChunkClaim => "for",
            FaultSite::WorkerDispatch => "region",
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The panic payload of an injected fault.
///
/// Distinct from any user panic so tests can downcast and verify provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The site that fired.
    pub site: FaultSite,
    /// Which occurrence of the site fired (1-based).
    pub occurrence: u64,
    /// The seed of the plan that planted it.
    pub seed: u64,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected fault: panic at {} occurrence #{} (plan seed {})",
            self.site, self.occurrence, self.seed
        )
    }
}

/// A seeded schedule of faults to inject.
///
/// Occurrences are 1-based and counted globally per site (not per thread),
/// which is what makes the injection deterministic: "the 3rd barrier
/// arrival" is a well-defined event no matter which thread performs it.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    panics: Vec<(FaultSite, u64)>,
    delays: Vec<(FaultSite, u64, Duration)>,
}

impl FaultPlan {
    /// Create an empty plan with a seed (recorded in injected payloads and
    /// used to derive per-event jitter for [`FaultPlan::delay_at`]).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            panics: Vec::new(),
            delays: Vec::new(),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Panic at the `occurrence`-th (1-based) event of `site`.
    pub fn panic_at(mut self, site: FaultSite, occurrence: u64) -> FaultPlan {
        self.panics.push((site, occurrence.max(1)));
        self
    }

    /// Stall the `occurrence`-th (1-based) event of `site` for roughly
    /// `base` (the exact duration is jittered from the seed, up to 2× base).
    pub fn delay_at(mut self, site: FaultSite, occurrence: u64, base: Duration) -> FaultPlan {
        self.delays.push((site, occurrence.max(1), base));
        self
    }

    /// Parse the `OMP4RS_FAULTS` grammar: a comma-separated list of
    /// `seed:<n>`, `panic:<site>@<occurrence>`, and
    /// `delay:<site>@<occurrence>:<millis>` items, where `<site>` is
    /// `barrier-arrival`, `task-execute`, `chunk-claim`, `worker-dispatch`,
    /// or `dep-release` (short forms `barrier`, `task`, `chunk`, `dispatch`,
    /// `dep` also accepted).
    ///
    /// Returns `None` for malformed text or a plan that injects nothing —
    /// matching the env-var convention of [`crate::ompt::ToolConfig::parse`].
    ///
    /// # Examples
    ///
    /// ```
    /// use omp4rs::faults::FaultPlan;
    /// let plan = FaultPlan::parse("seed:7,panic:barrier@3,delay:chunk@2:50").unwrap();
    /// assert_eq!(plan.seed(), 7);
    /// assert!(FaultPlan::parse("panic:bogus@1").is_none());
    /// ```
    pub fn parse(text: &str) -> Option<FaultPlan> {
        fn site(name: &str) -> Option<FaultSite> {
            match name {
                "barrier-arrival" | "barrier" => Some(FaultSite::BarrierArrival),
                "task-execute" | "task" => Some(FaultSite::TaskExecute),
                "chunk-claim" | "chunk" => Some(FaultSite::ChunkClaim),
                "worker-dispatch" | "dispatch" => Some(FaultSite::WorkerDispatch),
                "dep-release" | "dep" => Some(FaultSite::DepRelease),
                _ => None,
            }
        }
        fn site_at(spec: &str) -> Option<(FaultSite, u64)> {
            let (name, occ) = spec.split_once('@')?;
            Some((site(name.trim())?, occ.trim().parse().ok()?))
        }
        let mut plan = FaultPlan::new(0);
        for item in text.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            if let Some(rest) = item.strip_prefix("seed:") {
                plan.seed = rest.trim().parse().ok()?;
            } else if let Some(rest) = item.strip_prefix("panic:") {
                let (s, occ) = site_at(rest)?;
                plan = plan.panic_at(s, occ);
            } else if let Some(rest) = item.strip_prefix("delay:") {
                let (spec, ms) = rest.rsplit_once(':')?;
                let (s, occ) = site_at(spec)?;
                plan = plan.delay_at(s, occ, Duration::from_millis(ms.trim().parse().ok()?));
            } else {
                return None;
            }
        }
        if plan.panics.is_empty() && plan.delays.is_empty() {
            None
        } else {
            Some(plan)
        }
    }
}

/// Arm the plan described by the `OMP4RS_FAULTS` environment variable, if
/// set and well-formed. The caller must hold the returned guard for the
/// faults to stay armed (binaries keep it alive in `main`); see
/// docs/ENVIRONMENT.md for the grammar.
pub fn arm_from_env() -> Option<PlanGuard> {
    let text = std::env::var("OMP4RS_FAULTS").ok()?;
    FaultPlan::parse(&text).map(arm)
}

/// Fast inert check: a single relaxed load on the disarmed path.
static ARMED: AtomicBool = AtomicBool::new(false);

/// Global per-site occurrence counters (reset on every arm).
static COUNTERS: [AtomicU64; FaultSite::COUNT] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// The armed plan.
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);

/// Unit tests only: the one thread whose events the armed plan counts
/// (`None`: every thread's). The tests' `arm_here` sets it, so that a plan
/// one unit test arms never faults the regions its sibling tests run.
#[cfg(test)]
static OWNER: Mutex<Option<ThreadId>> = Mutex::new(None);

/// Serializes tests that arm plans (held by [`PlanGuard`]).
static TEST_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    /// Whether the calling thread already holds a [`PlanGuard`]. A second
    /// same-thread `arm` would self-deadlock on the (non-reentrant)
    /// `TEST_LOCK`; this flag converts that silent hang into a clear panic.
    static ARMED_HERE: Cell<bool> = const { Cell::new(false) };
}

/// Injected delays sleep in slices of at most this, checking
/// [`delay_interrupted`] between slices.
const DELAY_SLICE: Duration = Duration::from_millis(5);

/// Whether an in-progress injected delay at `site` should be abandoned: the
/// calling thread's innermost team was cancelled or poisoned, or has run
/// past its region deadline (which this probe trips). A simulated stall
/// must not pin the region open past a deadline trip, and the probe lets a
/// *serial* team (admission shed) rescue itself — there is no sibling
/// waiter to trip the deadline for it. A thread outside any team — a pooled
/// worker at [`FaultSite::WorkerDispatch`], before it joins one — is never
/// interrupted.
fn delay_interrupted(site: FaultSite) -> bool {
    crate::context::current_frame().is_some_and(|frame| {
        frame.team.is_cancelled() || frame.team.deadline_probe(site.construct())
    })
}

/// Guard returned by [`arm`]: disarms the plan when dropped and holds the
/// global test lock so fault tests never observe each other's plans.
pub struct PlanGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for PlanGuard {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::SeqCst);
        *PLAN.lock() = None;
        ARMED_HERE.with(|here| here.set(false));
    }
}

impl fmt::Debug for PlanGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanGuard").finish()
    }
}

/// Arm a fault plan. Resets all occurrence counters. The plan stays armed
/// until the returned guard is dropped.
///
/// # Panics
///
/// Panics if the calling thread already holds a live [`PlanGuard`]: the
/// guard's global lock is not reentrant, so a second same-thread `arm` would
/// otherwise deadlock silently. Arms from *different* threads serialize on
/// the lock as before.
pub fn arm(plan: FaultPlan) -> PlanGuard {
    ARMED_HERE.with(|here| {
        assert!(
            !here.get(),
            "faults::arm: this thread already holds a PlanGuard — drop it before \
             arming another plan (a second arm would deadlock on the test lock)"
        );
        here.set(true);
    });
    let lock = TEST_LOCK.lock();
    for c in &COUNTERS {
        c.store(0, Ordering::SeqCst);
    }
    #[cfg(test)]
    {
        *OWNER.lock() = tests::SCOPE_NEXT_ARM
            .with(Cell::take)
            .then(|| std::thread::current().id());
    }
    *PLAN.lock() = Some(plan);
    ARMED.store(true, Ordering::SeqCst);
    PlanGuard { _lock: lock }
}

/// Whether a plan is currently armed.
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// splitmix64, used to jitter injected delays deterministically.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Runtime hook: report that an event of `site` is occurring.
///
/// Called by `Team::barrier`, task execution, and `ForBounds::next`. When a
/// plan is armed and this is a scheduled occurrence, either sleeps (delay
/// faults) or panics with an [`InjectedFault`] payload (panic faults).
#[inline]
pub fn on_event(site: FaultSite) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    on_event_armed(site);
}

#[cold]
fn on_event_armed(site: FaultSite) {
    #[cfg(test)]
    {
        let owner = *OWNER.lock();
        if owner.is_some_and(|o| o != std::thread::current().id()) {
            return;
        }
    }
    let n = COUNTERS[site.index()].fetch_add(1, Ordering::SeqCst) + 1;
    let (panic_hit, delay_hit, seed) = {
        let plan = PLAN.lock();
        match plan.as_ref() {
            Some(p) => (
                p.panics.iter().any(|&(s, occ)| s == site && occ == n),
                p.delays
                    .iter()
                    .find(|&&(s, occ, _)| s == site && occ == n)
                    .map(|&(_, _, d)| d),
                p.seed,
            ),
            None => return,
        }
    };
    if let Some(base) = delay_hit {
        // Jitter in [1.0, 2.0)× base, derived from (seed, site, occurrence).
        let r = splitmix64(seed ^ (site.index() as u64) << 32 ^ n);
        let factor = 1.0 + (r >> 11) as f64 / (1u64 << 53) as f64;
        // Sleep in short slices, polling the thread's team: a delay meant to
        // simulate a stall must still yield once the region it is stalling
        // has been poisoned/cancelled, or the stall would pin the region
        // open past every deadline.
        let until = std::time::Instant::now() + base.mul_f64(factor);
        loop {
            let now = std::time::Instant::now();
            if now >= until || delay_interrupted(site) {
                break;
            }
            std::thread::sleep(DELAY_SLICE.min(until - now));
        }
    }
    if panic_hit {
        std::panic::panic_any(InjectedFault {
            site,
            occurrence: n,
            seed,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// Set by [`arm_here`] for the one `arm` call it makes.
        pub(super) static SCOPE_NEXT_ARM: Cell<bool> = const { Cell::new(false) };
    }

    /// Arm `plan` for the calling thread's events only. Every other unit
    /// test in this binary runs regions that reach the fault sites, and a
    /// globally armed plan would count (and fault) their events too.
    fn arm_here(plan: FaultPlan) -> PlanGuard {
        SCOPE_NEXT_ARM.with(|s| s.set(true));
        arm(plan)
    }

    #[test]
    fn disarmed_hook_is_inert() {
        // Hold the lock `arm` takes, so no sibling test's plan is armed
        // while this one checks the disarmed state.
        let _lock = TEST_LOCK.lock();
        assert!(!is_armed());
        for _ in 0..1000 {
            on_event(FaultSite::BarrierArrival);
        }
    }

    #[test]
    fn armed_plan_panics_at_exact_occurrence() {
        let _guard = arm_here(FaultPlan::new(7).panic_at(FaultSite::TaskExecute, 3));
        on_event(FaultSite::TaskExecute);
        on_event(FaultSite::TaskExecute);
        on_event(FaultSite::BarrierArrival); // other sites don't advance it
        let err = std::panic::catch_unwind(|| on_event(FaultSite::TaskExecute))
            .expect_err("third task-execute event must panic");
        let fault = err
            .downcast_ref::<InjectedFault>()
            .expect("InjectedFault payload");
        assert_eq!(fault.site, FaultSite::TaskExecute);
        assert_eq!(fault.occurrence, 3);
        assert_eq!(fault.seed, 7);
    }

    #[test]
    fn guard_drop_disarms() {
        {
            let _guard = arm_here(FaultPlan::new(1).panic_at(FaultSite::ChunkClaim, 1));
            assert!(is_armed());
        }
        // As in `disarmed_hook_is_inert`: no sibling's plan may be armed
        // while the disarmed state is checked.
        let _lock = TEST_LOCK.lock();
        assert!(!is_armed());
        on_event(FaultSite::ChunkClaim); // must not panic
    }

    #[test]
    fn parse_accepts_the_documented_grammar() {
        let plan = FaultPlan::parse("seed:42, panic:task-execute@2, delay:barrier@1:10").unwrap();
        assert_eq!(plan.seed(), 42);
        assert_eq!(plan.panics, vec![(FaultSite::TaskExecute, 2)]);
        assert_eq!(
            plan.delays,
            vec![(FaultSite::BarrierArrival, 1, Duration::from_millis(10))]
        );
        // Malformed or inert specs are rejected.
        assert!(FaultPlan::parse("").is_none());
        assert!(FaultPlan::parse("seed:42").is_none());
        assert!(FaultPlan::parse("panic:nope@1").is_none());
        assert!(FaultPlan::parse("delay:barrier@1").is_none());
    }

    #[test]
    fn same_thread_double_arm_panics_clearly() {
        let _guard = arm_here(FaultPlan::new(1).panic_at(FaultSite::ChunkClaim, 99));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _second = arm(FaultPlan::new(2).panic_at(FaultSite::ChunkClaim, 99));
        }))
        .expect_err("second same-thread arm must panic, not deadlock");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("PlanGuard"), "unhelpful message: {msg}");
        // The failed arm must not have disturbed the live plan.
        assert!(is_armed());
    }

    #[test]
    fn rearm_after_drop_is_fine() {
        {
            let _guard = arm_here(FaultPlan::new(1).panic_at(FaultSite::ChunkClaim, 99));
        }
        let _guard = arm_here(FaultPlan::new(2).panic_at(FaultSite::ChunkClaim, 99));
        assert!(is_armed());
    }

    #[test]
    fn delay_abandons_when_interrupted() {
        let _guard = arm_here(FaultPlan::new(9).delay_at(
            FaultSite::BarrierArrival,
            1,
            Duration::from_secs(120),
        ));
        // The delay fires inside a cancelled one-thread region: the
        // two-minute stall collapses to at most a couple of slices.
        let team = crate::team::Team::new(1, crate::sync::Backend::Atomic);
        team.cancel_region();
        let _frame = crate::context::enter_team(team, 0, Vec::new());
        let start = std::time::Instant::now();
        on_event(FaultSite::BarrierArrival);
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "interrupted delay still slept {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn delay_fault_stalls_the_event() {
        let _guard = arm_here(FaultPlan::new(42).delay_at(
            FaultSite::BarrierArrival,
            1,
            Duration::from_millis(10),
        ));
        let start = std::time::Instant::now();
        on_event(FaultSite::BarrierArrival);
        assert!(start.elapsed() >= Duration::from_millis(10));
        let start = std::time::Instant::now();
        on_event(FaultSite::BarrierArrival); // occurrence 2: no delay
        assert!(start.elapsed() < Duration::from_millis(10));
    }
}
