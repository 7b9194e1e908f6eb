//! # omp4rs — an OpenMP 3.0 runtime and directive language in Rust
//!
//! `omp4rs` is the core of a from-scratch reproduction of the OMP4Py paper
//! (*Unlocking Python Multithreading Capabilities using OpenMP-Based
//! Programming with OMP4Py*, CGO 2026). It implements:
//!
//! * the full **OpenMP 3.0 directive language** ([`directive`]) — including
//!   the paper's extensions (`declare reduction`, `default(private |
//!   firstprivate)`, optional `nowait` argument, OpenMP 6.0 surface syntax);
//! * a **dual-backend runtime** ([`sync`]): mutex-coordinated internals
//!   (the paper's pure-Python `runtime`) vs atomics (`fetch_add` schedule
//!   counters, lock-free task queues — the paper's Cython `cruntime`);
//! * **teams** with task-draining barriers ([`team`]), **work-sharing**
//!   ([`schedule`], [`worksharing`]) with static/dynamic/guided/auto/runtime
//!   policies, `collapse`, `ordered`, and `lastprivate` support;
//! * **tasking** ([`tasks`]) with deferred/undeferred tasks, `taskwait`
//!   child-tracking, `taskyield`, `priority`, and — via the dependence
//!   graph in [`depgraph`] — `depend(in/out/inout)` and `taskgroup`;
//! * the **OpenMP runtime API** ([`api`]) with ICVs and `OMP_*` environment
//!   variables ([`icv`]), locks and criticals ([`locks`]), and reductions
//!   ([`reduction`]);
//! * a **compiled-mode execution API** ([`exec`]) used by the paper's
//!   Compiled/CompiledDT analogues (native closures driven by directive
//!   clause strings);
//! * an **OMPT-inspired trace pipeline** ([`ompt`]): bounded per-thread
//!   event rings drained by a dedicated flusher into per-region summaries
//!   and Chrome-trace files; a full ring drops new events and counts them —
//!   see `docs/OBSERVABILITY.md` for the full event/counter model.
//!
//! The interpreted **Pure**/**Hybrid** modes live in the companion
//! `omp4rs-pyfront` crate, which rewrites `@omp`-decorated minipy functions
//! into calls targeting this runtime — the paper's parser.
//!
//! # Examples
//!
//! Numerical π integration, the paper's Fig. 1, in compiled mode:
//!
//! ```
//! use omp4rs::exec::{parallel, ForSpec};
//!
//! let n = 10_000i64;
//! let w = 1.0 / n as f64;
//! let result = std::sync::Mutex::new(0.0f64);
//! parallel("num_threads(4)", |ctx| {
//!     let local = ctx.for_reduce(
//!         ForSpec::new(),
//!         0..n,
//!         0.0f64,
//!         |i, acc| {
//!             let x = (i as f64 + 0.5) * w;
//!             *acc += 4.0 / (1.0 + x * x);
//!         },
//!         |a, b| a + b,
//!     );
//!     ctx.master(|| *result.lock().unwrap() = local * w);
//! });
//! let pi = result.into_inner().unwrap();
//! assert!((pi - std::f64::consts::PI).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod context;
pub mod depgraph;
pub mod directive;
pub mod error;
pub mod exec;
pub mod faults;
pub mod icv;
pub mod locks;
pub mod ompt;
pub mod pool;
pub mod reduction;
pub mod schedule;
pub mod sync;
pub mod tasks;
pub mod team;
pub mod worksharing;

pub use api::*;
pub use depgraph::{Dep, DepKind};
pub use directive::{CancelConstruct, Clause, Directive, DirectiveKind, ReductionOp, ScheduleKind};
pub use error::OmpError;
pub use exec::{
    parallel, parallel_region, parallel_region_result, DepSpec, ForSpec, ParallelConfig, TaskCtx,
    WorkerCtx,
};
pub use faults::{FaultPlan, FaultSite, InjectedFault};
pub use icv::{Icvs, MinipyVm};
pub use sync::{Backend, WaitPolicy};
pub use team::Team;
