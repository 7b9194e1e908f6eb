//! Internal control variables (ICVs) and `OMP_*` environment handling.
//!
//! OpenMP 3.0 defines a set of ICVs initialized from environment variables
//! and mutable through the runtime API (`omp_set_num_threads`,
//! `omp_set_schedule`, …). This implementation keeps one global ICV set
//! (the spec's per-task ICV inheritance is simplified to global state, which
//! matches how the benchmarks — and most programs — use them).

use std::sync::OnceLock;

use parking_lot::RwLock;

use crate::directive::ScheduleKind;

/// The mutable ICV set.
#[derive(Debug, Clone, PartialEq)]
pub struct Icvs {
    /// `nthreads-var`: default team size (`OMP_NUM_THREADS`).
    pub num_threads: usize,
    /// `dyn-var`: dynamic adjustment of team size (`OMP_DYNAMIC`).
    pub dynamic: bool,
    /// `nest-var`: nested parallelism enabled (`OMP_NESTED`).
    pub nested: bool,
    /// `max-active-levels-var` (`OMP_MAX_ACTIVE_LEVELS`).
    pub max_active_levels: usize,
    /// `thread-limit-var` (`OMP_THREAD_LIMIT`).
    pub thread_limit: usize,
    /// `run-sched-var`: the `schedule(runtime)` policy (`OMP_SCHEDULE`).
    pub run_schedule: (ScheduleKind, Option<u64>),
    /// `def-sched-var`: policy when no `schedule` clause is given.
    pub def_schedule: (ScheduleKind, Option<u64>),
    /// `cancel-var`: whether `cancel` directives are honoured
    /// (`OMP_CANCELLATION`). Poisoning after a panic ignores this — it is a
    /// runtime-integrity mechanism, not user-requested cancellation.
    pub cancellation: bool,
    /// `tool-var`: the [`crate::ompt`] observability configuration
    /// (`OMP_TOOL`). `None` — the default — means the profiler stays a
    /// no-op; see [`crate::ompt::ToolConfig::parse`] for the syntax.
    pub tool: Option<crate::ompt::ToolConfig>,
    /// The minipy bytecode-VM switch (`OMP4RS_MINIPY_VM`). The core
    /// runtime has no interpreter dependency, so this is configuration only;
    /// the pyfront bridge mirrors it into `minipy::bytecode::set_mode` when
    /// an interpreter is installed. See `docs/ENVIRONMENT.md`.
    pub minipy_vm: MinipyVm,
    /// `wait-policy-var`: what waiting threads do (`OMP_WAIT_POLICY`).
    /// `Active` spins a large bounded budget before parking; `Passive` (the
    /// default) parks almost immediately. Resolved to a spin-iteration
    /// budget ([`crate::sync::WaitPolicy::default_spin`]) cached in
    /// [`crate::sync`] on every store mutation.
    pub wait_policy: crate::sync::WaitPolicy,
    /// Optional per-region deadline (`OMP4RS_REGION_DEADLINE`, milliseconds;
    /// `omp_set_region_deadline`). When set, every blocking runtime wait
    /// inside a parallel region — barriers, `taskwait`, task-group joins,
    /// `critical`, nest-lock acquisition — is bounded: a wait still pending
    /// when the region has run past the deadline poisons the region and
    /// surfaces [`crate::OmpError::RegionTimeout`] on the joining thread.
    /// `None` (the default) keeps every wait untimed and zero-overhead.
    pub region_deadline: Option<std::time::Duration>,
    /// Optional stall-watchdog threshold (`OMP4RS_WATCHDOG`, milliseconds).
    /// When set, the worker pool runs a monitor thread that flags any pooled
    /// worker busy inside a single region job for longer than this
    /// threshold: it records a diagnostic snapshot through [`crate::ompt`]
    /// (`watchdog-stall` events, `omp4rs.watchdog.*` counters) and poisons
    /// the afflicted team so its region fails with
    /// [`crate::OmpError::RegionTimeout`] instead of hanging. `None` (the
    /// default) never starts the monitor thread.
    pub watchdog: Option<std::time::Duration>,
}

/// The minipy bytecode-VM switch (`OMP4RS_MINIPY_VM`); mirrors
/// `minipy::bytecode::VmMode` without pulling the interpreter into the core
/// runtime's dependency graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MinipyVm {
    /// Tree-walk everything (the oracle, for debugging).
    Off,
    /// Compile VM-supported functions lazily on first call. The default.
    #[default]
    On,
}

impl MinipyVm {
    /// Parse the `OMP4RS_MINIPY_VM` spellings (same table as
    /// `minipy::bytecode::VmMode::parse`; `auto` is a spelling of `on`).
    /// `None` keeps the default.
    pub fn parse(text: &str) -> Option<MinipyVm> {
        match text.trim().to_ascii_lowercase().as_str() {
            "off" | "false" | "0" | "no" => Some(MinipyVm::Off),
            "on" | "auto" | "true" | "1" | "yes" => Some(MinipyVm::On),
            _ => None,
        }
    }
}

impl Default for Icvs {
    fn default() -> Icvs {
        Icvs {
            num_threads: available_parallelism(),
            dynamic: false,
            nested: false,
            max_active_levels: usize::MAX,
            thread_limit: usize::MAX,
            run_schedule: (ScheduleKind::Static, None),
            def_schedule: (ScheduleKind::Static, None),
            cancellation: false,
            tool: None,
            minipy_vm: MinipyVm::On,
            wait_policy: crate::sync::WaitPolicy::Passive,
            region_deadline: None,
            watchdog: None,
        }
    }
}

/// Host parallelism (used for `omp_get_num_procs` and the default team size).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn store() -> &'static RwLock<Icvs> {
    static STORE: OnceLock<RwLock<Icvs>> = OnceLock::new();
    STORE.get_or_init(|| {
        let icvs = Icvs::from_env();
        crate::sync::refresh_wait_config(icvs.wait_policy);
        RwLock::new(icvs)
    })
}

impl Icvs {
    /// Build an ICV set from `OMP_*` environment variables.
    pub fn from_env() -> Icvs {
        let mut icvs = Icvs::default();
        if let Some(n) = env_usize("OMP_NUM_THREADS") {
            if n > 0 {
                icvs.num_threads = n;
            }
        }
        if let Some(b) = env_bool("OMP_DYNAMIC") {
            icvs.dynamic = b;
        }
        if let Some(b) = env_bool("OMP_NESTED") {
            icvs.nested = b;
        }
        if let Some(n) = env_usize("OMP_MAX_ACTIVE_LEVELS") {
            icvs.max_active_levels = n;
        }
        if let Some(n) = env_usize("OMP_THREAD_LIMIT") {
            if n > 0 {
                icvs.thread_limit = n;
            }
        }
        if let Ok(text) = std::env::var("OMP_SCHEDULE") {
            if let Some(sched) = parse_omp_schedule(&text) {
                icvs.run_schedule = sched;
            }
        }
        if let Some(b) = env_bool("OMP_CANCELLATION") {
            icvs.cancellation = b;
        }
        if let Ok(text) = std::env::var("OMP_TOOL") {
            icvs.tool = crate::ompt::ToolConfig::parse(&text);
        }
        // Trace-pipeline knobs layer onto the tool config (they are inert
        // when OMP_TOOL left the tool disabled).
        if let Some(tool) = icvs.tool.as_mut() {
            if let Some(n) = env_usize("OMP4RS_TRACE_RING") {
                if n > 0 {
                    tool.ring_capacity = n;
                }
            }
            if let Ok(text) = std::env::var("OMP4RS_TRACE_POLICY") {
                if let Some(policy) = crate::ompt::TracePolicy::parse(&text) {
                    tool.policy = policy;
                }
            }
            if let Some(kib) = env_usize("OMP4RS_TRACE_ROTATE") {
                if kib > 0 {
                    tool.rotate_kib = Some(kib as u64);
                }
            }
            if let Some(n) = env_usize("OMP4RS_TRACE_ROTATE_KEEP") {
                if n > 0 {
                    tool.rotate_keep = n;
                }
            }
        }
        if let Ok(text) = std::env::var("OMP4RS_MINIPY_VM") {
            if let Some(vm) = MinipyVm::parse(&text) {
                icvs.minipy_vm = vm;
            }
        }
        if let Ok(text) = std::env::var("OMP_WAIT_POLICY") {
            if let Some(policy) = crate::sync::WaitPolicy::parse(&text) {
                icvs.wait_policy = policy;
            }
        }
        if let Some(ms) = env_usize("OMP4RS_REGION_DEADLINE") {
            if ms > 0 {
                icvs.region_deadline = Some(std::time::Duration::from_millis(ms as u64));
            }
        }
        if let Some(ms) = env_usize("OMP4RS_WATCHDOG") {
            if ms > 0 {
                icvs.watchdog = Some(std::time::Duration::from_millis(ms as u64));
            }
        }
        icvs
    }

    /// Read a snapshot of the current global ICVs.
    pub fn current() -> Icvs {
        store().read().clone()
    }

    /// Mutate the global ICVs.
    pub fn update(f: impl FnOnce(&mut Icvs)) {
        let mut guard = store().write();
        f(&mut guard);
        crate::sync::refresh_wait_config(guard.wait_policy);
    }

    /// Reset the global ICVs (primarily for tests/benchmarks).
    pub fn reset(icvs: Icvs) {
        crate::sync::refresh_wait_config(icvs.wait_policy);
        *store().write() = icvs;
    }
}

/// Serialize unit tests that mutate the process-global ICVs: `cargo test`
/// runs this binary's tests concurrently, so every test doing a
/// mutate → observe → [`Icvs::reset`] dance must hold this guard across the
/// whole span, or a concurrently constructed object (task queue, resolved
/// schedule, …) silently picks up its override.
#[cfg(test)]
pub(crate) fn test_guard() -> parking_lot::MutexGuard<'static, ()> {
    static GUARD: parking_lot::Mutex<()> = parking_lot::Mutex::new(());
    GUARD.lock()
}

/// Parse `OMP_SCHEDULE` syntax: `kind[,chunk]`.
pub fn parse_omp_schedule(text: &str) -> Option<(ScheduleKind, Option<u64>)> {
    let mut parts = text.splitn(2, ',');
    let kind = ScheduleKind::parse(parts.next()?.trim())?;
    let chunk = match parts.next() {
        Some(c) => Some(c.trim().parse().ok()?),
        None => None,
    };
    Some((kind, chunk))
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn env_bool(name: &str) -> Option<bool> {
    match std::env::var(name)
        .ok()?
        .trim()
        .to_ascii_lowercase()
        .as_str()
    {
        "true" | "1" | "yes" | "on" => Some(true),
        "false" | "0" | "no" | "off" => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let icvs = Icvs::default();
        assert!(icvs.num_threads >= 1);
        assert!(!icvs.dynamic);
        assert!(!icvs.nested);
        assert_eq!(icvs.def_schedule, (ScheduleKind::Static, None));
    }

    #[test]
    fn parse_schedule_env() {
        assert_eq!(
            parse_omp_schedule("dynamic,4"),
            Some((ScheduleKind::Dynamic, Some(4)))
        );
        assert_eq!(
            parse_omp_schedule("guided"),
            Some((ScheduleKind::Guided, None))
        );
        assert_eq!(
            parse_omp_schedule(" static , 16 "),
            Some((ScheduleKind::Static, Some(16)))
        );
        assert_eq!(parse_omp_schedule("bogus"), None);
        assert_eq!(parse_omp_schedule("static,abc"), None);
    }

    #[test]
    fn parse_minipy_vm() {
        assert_eq!(MinipyVm::parse("off"), Some(MinipyVm::Off));
        assert_eq!(MinipyVm::parse(" Auto "), Some(MinipyVm::On));
        assert_eq!(MinipyVm::parse("ON"), Some(MinipyVm::On));
        assert_eq!(MinipyVm::parse("maybe"), None);
        assert_eq!(Icvs::default().minipy_vm, MinipyVm::On);
    }

    #[test]
    fn update_round_trips() {
        let _guard = test_guard();
        let before = Icvs::current();
        Icvs::update(|icvs| icvs.num_threads = 7);
        assert_eq!(Icvs::current().num_threads, 7);
        Icvs::reset(before);
    }

    #[test]
    fn wait_policy_env_parsing_and_precedence() {
        use crate::sync::{spin_iters, WaitPolicy};
        let _guard = test_guard();
        let before = Icvs::current();

        // The policy sets the spin budget.
        std::env::set_var("OMP_WAIT_POLICY", "active");
        let icvs = Icvs::from_env();
        assert_eq!(icvs.wait_policy, WaitPolicy::Active);
        Icvs::reset(icvs);
        assert_eq!(spin_iters(), 10_000);

        std::env::set_var("OMP_WAIT_POLICY", "passive");
        let icvs = Icvs::from_env();
        assert_eq!(icvs.wait_policy, WaitPolicy::Passive);
        Icvs::reset(icvs);
        assert_eq!(spin_iters(), 0);

        // Unparseable values are ignored, keeping the default.
        std::env::set_var("OMP_WAIT_POLICY", "frantic");
        let icvs = Icvs::from_env();
        assert_eq!(icvs.wait_policy, WaitPolicy::Passive);

        // Icvs::update republishes the cached budget too.
        std::env::remove_var("OMP_WAIT_POLICY");
        Icvs::update(|icvs| icvs.wait_policy = WaitPolicy::Active);
        assert_eq!(spin_iters(), WaitPolicy::Active.default_spin());

        Icvs::reset(before);
    }

    #[test]
    fn resilience_env_parsing() {
        let _guard = test_guard();

        assert_eq!(Icvs::default().region_deadline, None);
        assert_eq!(Icvs::default().watchdog, None);

        std::env::set_var("OMP4RS_REGION_DEADLINE", "250");
        std::env::set_var("OMP4RS_WATCHDOG", "100");
        let icvs = Icvs::from_env();
        assert_eq!(
            icvs.region_deadline,
            Some(std::time::Duration::from_millis(250))
        );
        assert_eq!(icvs.watchdog, Some(std::time::Duration::from_millis(100)));

        // Zero and garbage both keep the (disabled) default.
        std::env::set_var("OMP4RS_REGION_DEADLINE", "0");
        std::env::set_var("OMP4RS_WATCHDOG", "soon");
        let icvs = Icvs::from_env();
        assert_eq!(icvs.region_deadline, None);
        assert_eq!(icvs.watchdog, None);

        std::env::remove_var("OMP4RS_REGION_DEADLINE");
        std::env::remove_var("OMP4RS_WATCHDOG");
    }

    #[test]
    fn trace_pipeline_env_parsing() {
        use crate::ompt::TracePolicy;
        let _guard = test_guard();

        // Inert without OMP_TOOL: the knobs only shape an enabled tool.
        std::env::set_var("OMP4RS_TRACE_RING", "128");
        std::env::remove_var("OMP_TOOL");
        assert_eq!(Icvs::from_env().tool, None);

        std::env::set_var("OMP_TOOL", "enabled");
        std::env::set_var("OMP4RS_TRACE_POLICY", "block");
        std::env::set_var("OMP4RS_TRACE_ROTATE", "256");
        std::env::set_var("OMP4RS_TRACE_ROTATE_KEEP", "2");
        let tool = Icvs::from_env().tool.expect("tool enabled");
        assert_eq!(tool.ring_capacity, 128);
        assert_eq!(tool.policy, TracePolicy::Block);
        assert_eq!(tool.rotate_kib, Some(256));
        assert_eq!(tool.rotate_keep, 2);

        // Zero and garbage keep the defaults.
        std::env::set_var("OMP4RS_TRACE_RING", "0");
        std::env::set_var("OMP4RS_TRACE_POLICY", "spill");
        std::env::set_var("OMP4RS_TRACE_ROTATE", "lots");
        std::env::set_var("OMP4RS_TRACE_ROTATE_KEEP", "0");
        let tool = Icvs::from_env().tool.expect("tool enabled");
        assert_eq!(tool.ring_capacity, crate::ompt::DEFAULT_RING_CAPACITY);
        assert_eq!(tool.policy, TracePolicy::DropOldest);
        assert_eq!(tool.rotate_kib, None);
        assert_eq!(tool.rotate_keep, 4);

        for var in [
            "OMP_TOOL",
            "OMP4RS_TRACE_RING",
            "OMP4RS_TRACE_POLICY",
            "OMP4RS_TRACE_ROTATE",
            "OMP4RS_TRACE_ROTATE_KEEP",
        ] {
            std::env::remove_var(var);
        }
    }
}
