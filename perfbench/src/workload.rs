//! The three workloads: set-up (plain or traced layer by layer), one solve
//! at a given thread count, and the check against an independent
//! sequential reference.

use std::collections::HashMap;
use std::sync::Arc;

use minipy::ast::{Expr, StmtKind};
use minipy::{HKey, Value};
use omp4rs::ScheduleKind;
use omp4rs_apps::{pi, sparselu, wavefront, wordcount};
use omp4rs_pyfront::{ExecMode, Runner};

use crate::trace::Tracer;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Hybrid-mode π, interpreted: bytecode VM and quickening dominate.
    InterpNumeric,
    /// Pure-mode wordcount, interpreted: generic dispatch, dicts, strings,
    /// object locks, a `critical` merge on the mutex backend.
    InterpObjects,
    /// CompiledDT sparselu then wavefront: task DAGs, no interpreter.
    CompiledTasks,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [
        Kind::InterpNumeric,
        Kind::InterpObjects,
        Kind::CompiledTasks,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::InterpNumeric => "interp_numeric",
            Kind::InterpObjects => "interp_objects",
            Kind::CompiledTasks => "compiled_tasks",
        }
    }

    /// Parse a workload name.
    pub fn parse(text: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == text)
    }

    /// Whether the workload runs interpreted code (and so loads a program).
    pub fn interpreted(self) -> bool {
        self != Kind::CompiledTasks
    }

    fn exec_mode(self) -> ExecMode {
        match self {
            Kind::InterpObjects => ExecMode::Pure,
            _ => ExecMode::Hybrid,
        }
    }

    /// Whether solves at a fixed thread count and chunk count run the same
    /// interpreter operations. wordcount's dynamic schedule hands chunks to
    /// whichever thread asks first, so at more than one thread the size of
    /// each thread's dict — and of its `critical` merge loop — varies.
    pub fn ops_repeat(self, threads: usize) -> bool {
        threads == 1 || self != Kind::InterpObjects
    }

    /// Whether the end-to-end timing `metric` is scaled by the host-speed
    /// yardstick: it is when the work it times is computation on data that
    /// outgrows a core's L2 cache — wordcount's corpus and dicts, the DAGs'
    /// matrices — so that its speed follows the neighbours' load on the
    /// host's shared last-level cache. π's interpreter loop runs from the
    /// core's own caches, and `compiled_tasks`' two-thread CPU time is mostly
    /// park/wake and spin; scaling those only adds the yardstick's noise.
    pub fn host_scaled(self, metric: &str) -> bool {
        match self {
            Kind::InterpNumeric => false,
            Kind::InterpObjects => true,
            Kind::CompiledTasks => metric != "cpu_s",
        }
    }
}

/// Problem sizes.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// π intervals (before the seed's offset).
    pub pi_n: i64,
    /// wordcount corpus lines.
    pub wc_lines: usize,
    /// Mean words per line.
    pub wc_words: usize,
    /// Vocabulary size.
    pub wc_vocab: usize,
    /// `schedule(dynamic, chunk)` chunk size.
    pub wc_chunk: u64,
    /// sparselu blocks per side.
    pub sp_nb: usize,
    /// sparselu block side.
    pub sp_bs: usize,
    /// wavefront table side.
    pub wf_n: usize,
    /// wavefront block side.
    pub wf_block: usize,
}

/// The measured sizes: each solve at two threads takes a few hundred
/// milliseconds on a 2-CPU host.
pub const FULL: Size = Size {
    pi_n: 2_000_000,
    wc_lines: 16_000,
    wc_words: 24,
    wc_vocab: 5_000,
    wc_chunk: 300,
    sp_nb: 32,
    sp_bs: 12,
    wf_n: 2048,
    wf_block: 16,
};

/// The self-test sizes: every layer runs, each solve takes milliseconds.
pub const TINY: Size = Size {
    pi_n: 20_000,
    wc_lines: 200,
    wc_words: 10,
    wc_vocab: 300,
    wc_chunk: 8,
    sp_nb: 4,
    sp_bs: 4,
    wf_n: 32,
    wf_block: 8,
};

/// Generated inputs; the program sees nothing else of the seed.
pub struct Inputs {
    pi_n: i64,
    lines: Vec<String>,
    boxed_lines: Value,
    sp: sparselu::Params,
    wf: wavefront::Params,
}

fn wc_params(size: &Size, seed: u64) -> wordcount::Params {
    wordcount::Params {
        lines: size.wc_lines,
        words_per_line: size.wc_words,
        vocab: size.wc_vocab,
        seed,
        schedule: ScheduleKind::Dynamic,
        chunk: Some(size.wc_chunk),
    }
}

fn make_inputs(kind: Kind, size: &Size, seed: u64) -> Inputs {
    let sp = sparselu::Params {
        nb: size.sp_nb,
        bs: size.sp_bs,
        seed,
    };
    let wf = wavefront::Params {
        n: size.wf_n,
        block: size.wf_block,
        seed,
    };
    let mut inputs = Inputs {
        // A seed-dependent offset changes the input, not the work.
        pi_n: size.pi_n + (seed % 1024) as i64,
        lines: Vec::new(),
        boxed_lines: Value::None,
        sp,
        wf,
    };
    match kind {
        Kind::InterpNumeric => {}
        Kind::InterpObjects => {
            inputs.lines = wordcount::corpus(&wc_params(size, seed));
            inputs.boxed_lines =
                Value::list(inputs.lines.iter().map(|l| Value::str(l.clone())).collect());
        }
        Kind::CompiledTasks => {
            // The DAG kernels regenerate their matrices from `Params.seed`
            // inside each solve; running the generators here pays their
            // first-use cost in set-up, as the interpreted inputs do.
            std::hint::black_box(sparselu::input_blocks(&sp));
            std::hint::black_box(wavefront::input(&wf));
        }
    }
    inputs
}

fn source(kind: Kind, size: &Size) -> String {
    match kind {
        Kind::InterpNumeric => pi::SOURCE.to_owned(),
        Kind::InterpObjects => {
            wordcount::source_with_schedule(&format!("schedule(dynamic, {})", size.wc_chunk))
        }
        Kind::CompiledTasks => String::new(),
    }
}

/// Front-end counts from a traced set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrontCounts {
    /// Tokens the lexer produced.
    pub tokens: u64,
    /// `@omp` definitions transformed.
    pub functions: u64,
    /// Definitions the bytecode compiler declined.
    pub fallbacks: u64,
}

/// A workload ready to solve.
pub struct Prepared {
    kind: Kind,
    runner: Option<Runner>,
    inputs: Inputs,
}

/// The raw result of one solve, converted and checked after timing ends.
pub enum Raw {
    /// π.
    Float(f64),
    /// The wordcount dict.
    Dict(Value),
    /// The sparselu factors and the wavefront table.
    Tables(Vec<f64>, Vec<f64>),
}

/// An independent sequential reference result.
#[derive(Debug, Clone, PartialEq)]
pub enum Reference {
    /// `pi::seq`.
    Pi(f64),
    /// `wordcount::seq`.
    Counts(HashMap<String, u64>),
    /// `sparselu::seq` and `wavefront::seq`.
    Tables(Vec<f64>, Vec<f64>),
}

fn is_omp_decorator(e: &Expr) -> bool {
    matches!(e, Expr::Name(n) if n == "omp")
}

fn step<R>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Get a workload ready: install the bridge, load the program, generate the
/// inputs, and run the first (cold) parallel region, which spawns the pool.
///
/// Without a tracer the program loads through `Runner::run`, as a user's
/// would. With one, the benchmark makes the same calls the loader makes —
/// lexer, parser, `@omp` transform, bytecode compile, module execution —
/// one by one, each inside its own span.
///
/// # Panics
///
/// Panics if the embedded program fails to load (a bug, not bad input).
pub fn setup(
    kind: Kind,
    size: &Size,
    seed: u64,
    nproc: usize,
    mut tracer: Option<&mut Tracer>,
) -> (Prepared, FrontCounts) {
    let mut counts = FrontCounts::default();
    let runner = kind.interpreted().then(|| {
        let runner = step(&mut tracer, "pyfront.bridge.install", || {
            Runner::new(kind.exec_mode())
        });
        let src = source(kind, size);
        match tracer.as_deref_mut() {
            None => runner.run(&src).expect("workload program loads"),
            Some(t) => {
                counts = load_traced(&runner, &src, t);
            }
        }
        runner
    });
    let inputs = step(&mut tracer, "apps.input", || make_inputs(kind, size, seed));
    let prepared = Prepared {
        kind,
        runner,
        inputs,
    };
    step(&mut tracer, "core.pool.cold_region", || {
        prepared.cold_region(nproc)
    });
    (prepared, counts)
}

/// The loader's steps, one span each: what `Runner::run` plus the `@omp`
/// decorator do, with bytecode compiled up front instead of at first call.
fn load_traced(runner: &Runner, src: &str, t: &mut Tracer) -> FrontCounts {
    let tokens = t.span("minipy.lexer", || {
        minipy::lexer::tokenize(src).expect("workload program lexes")
    });
    let mut module = t.span("minipy.parser", || {
        minipy::parse(src).expect("workload program parses")
    });
    let mut transformed = Vec::new();
    t.span("pyfront.transform", || {
        for stmt in &mut module.body {
            if let StmtKind::FuncDef(def) = &stmt.kind {
                if def.decorators.iter().any(is_omp_decorator) {
                    let new_def = Arc::new(
                        omp4rs_pyfront::transform_function(def).expect("@omp body transforms"),
                    );
                    transformed.push(Arc::clone(&new_def));
                    stmt.kind = StmtKind::FuncDef(new_def);
                }
            }
        }
    });
    let fallbacks_before = fallback_total();
    t.span("minipy.bytecode.compile", || {
        for def in &transformed {
            minipy::bytecode::precompile_def(def);
        }
    });
    let fallbacks = fallback_total() - fallbacks_before;
    t.span("minipy.interp.module", || {
        runner
            .interp()
            .run_module(&module)
            .expect("workload module runs")
    });
    FrontCounts {
        tokens: tokens.len() as u64,
        functions: transformed.len() as u64,
        fallbacks,
    }
}

fn fallback_total() -> u64 {
    minipy::bytecode::fallback_reasons()
        .iter()
        .map(|(_, n)| n)
        .sum()
}

impl Prepared {
    fn runner(&self) -> &Runner {
        self.runner
            .as_ref()
            .expect("interpreted workloads have a runner")
    }

    fn cold_region(&self, nproc: usize) {
        let t = Value::Int(nproc as i64);
        match self.kind {
            Kind::InterpNumeric => {
                self.runner()
                    .call_global("pi", vec![Value::Int(1_000), t])
                    .expect("cold pi region runs");
            }
            Kind::InterpObjects => {
                let few: Vec<Value> = self.inputs.lines[..4]
                    .iter()
                    .map(|l| Value::str(l.clone()))
                    .collect();
                self.runner()
                    .call_global("wordcount", vec![Value::list(few), Value::Int(4), t])
                    .expect("cold wordcount region runs");
            }
            Kind::CompiledTasks => {
                let sp = sparselu::Params {
                    nb: 2,
                    bs: 2,
                    ..self.inputs.sp
                };
                let wf = wavefront::Params {
                    n: 4,
                    block: 2,
                    ..self.inputs.wf
                };
                std::hint::black_box(sparselu::native(&sp, nproc));
                std::hint::black_box(wavefront::native(&wf, nproc));
            }
        }
    }

    /// One solve at `threads`. With a tracer, each call into a layer gets a
    /// span (the caller opens the solve's root span).
    ///
    /// # Errors
    ///
    /// The interpreter's error, as text.
    pub fn solve(&self, threads: usize, mut tracer: Option<&mut Tracer>) -> Result<Raw, String> {
        let t = Value::Int(threads as i64);
        match self.kind {
            Kind::InterpNumeric => {
                let n = Value::Int(self.inputs.pi_n);
                let v = step(&mut tracer, "pyfront.call", || {
                    self.runner().call_global("pi", vec![n, t])
                })
                .map_err(|e| e.to_string())?;
                v.as_float().map(Raw::Float).map_err(|e| e.to_string())
            }
            Kind::InterpObjects => {
                let args = vec![
                    self.inputs.boxed_lines.clone(),
                    Value::Int(self.inputs.lines.len() as i64),
                    t,
                ];
                step(&mut tracer, "pyfront.call", || {
                    self.runner().call_global("wordcount", args)
                })
                .map(Raw::Dict)
                .map_err(|e| e.to_string())
            }
            Kind::CompiledTasks => {
                let lu = step(&mut tracer, "apps.sparselu.native", || {
                    sparselu::native(&self.inputs.sp, threads)
                });
                let wf = step(&mut tracer, "apps.wavefront.native", || {
                    wavefront::native(&self.inputs.wf, threads)
                });
                Ok(Raw::Tables(lu, wf))
            }
        }
    }

    /// The independent sequential reference for this input.
    pub fn reference(&self) -> Reference {
        match self.kind {
            Kind::InterpNumeric => Reference::Pi(pi::seq(&pi::Params {
                n: self.inputs.pi_n,
            })),
            Kind::InterpObjects => Reference::Counts(wordcount::seq(&self.inputs.lines)),
            Kind::CompiledTasks => Reference::Tables(
                sparselu::seq(&self.inputs.sp),
                wavefront::seq(&self.inputs.wf),
            ),
        }
    }
}

/// Relative tolerance for float results: the parallel reduction and the
/// block algorithms add in another order than the sequential references.
const REL_TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

fn tables_close(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(&a, &b)| close(a, b))
}

fn dict_counts(v: &Value) -> Option<HashMap<String, u64>> {
    let Value::Dict(map) = v else { return None };
    let map = map.read();
    let mut out = HashMap::with_capacity(map.len());
    for (k, v) in map.iter() {
        let HKey::Str(s) = k else { return None };
        out.insert(s.to_string(), u64::try_from(v.as_int().ok()?).ok()?);
    }
    Some(out)
}

/// Whether a solve's result matches the reference.
pub fn check(raw: &Raw, reference: &Reference) -> bool {
    match (raw, reference) {
        (Raw::Float(v), Reference::Pi(want)) => close(*v, *want),
        (Raw::Dict(v), Reference::Counts(want)) => dict_counts(v).as_ref() == Some(want),
        (Raw::Tables(lu, wf), Reference::Tables(want_lu, want_wf)) => {
            tables_close(lu, want_lu) && tables_close(wf, want_wf)
        }
        _ => false,
    }
}

/// A deliberately wrong reference, for the self-test's anti-vacuity check.
pub fn spoil(reference: &Reference) -> Reference {
    match reference {
        Reference::Pi(v) => Reference::Pi(v * (1.0 + 1e-6)),
        Reference::Counts(c) => {
            let mut c = c.clone();
            *c.values_mut().next().expect("non-empty corpus") += 1;
            Reference::Counts(c)
        }
        Reference::Tables(lu, wf) => {
            let mut wf = wf.clone();
            let last = wf.len() - 1;
            wf[last] += 1.0;
            Reference::Tables(lu.clone(), wf)
        }
    }
}
