//! Directive-to-runtime AST transformation — the paper's *parser* (§III-A).
//!
//! `transform_function` rewrites an `@omp`-decorated function: every
//! `with omp("…"):` block and standalone `omp("…")` call is parsed, validated,
//! and replaced by calls into the `__omp` runtime module, reproducing the
//! code shapes of the paper's Figs. 2–3 (inner `__omp_parallel` functions
//! with `nonlocal` declarations, `__omp_`-prefixed private copies with
//! numeric suffixes, `for_bounds`/`for_init`/`for_next` loop driving with
//! the original `range`-based `for` preserved, reduction merges guarded by
//! `mutex_lock`/`mutex_unlock`).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use minipy::ast::*;
use minipy::error::{ErrKind, PyErr};
use omp4rs::directive::{Clause, DefaultKind, Directive, DirectiveKind, ReductionOp, ScheduleKind};
use omp4rs::reduction::{declare_reduction, DeclaredReduction};

use crate::scope::{assignment_counts, rename_names, used_names};
use crate::threadprivate;

/// Transform an `@omp`-decorated function definition.
///
/// # Errors
///
/// Returns a `SyntaxError` [`PyErr`] for invalid directives, malformed
/// directive placement (e.g. `for` not wrapping a `range` loop), or
/// `default(none)` violations — mirroring the paper's behaviour ("If any
/// errors are detected, a `SyntaxError` is raised").
pub fn transform_function(def: &FuncDef) -> Result<FuncDef, PyErr> {
    let mut t = Transformer {
        counter: 0,
        fn_name: def.name.clone(),
        fn_counts: assignment_counts(&def.body),
        fn_params: def.params.iter().map(|p| p.name.clone()).collect(),
    };
    let mut body = t.transform_block(&def.body)?;
    let tp_names = threadprivate::registered();
    if !tp_names.is_empty() {
        threadprivate::apply(&mut body, &tp_names)?;
    }
    Ok(FuncDef {
        name: def.name.clone(),
        params: def.params.clone(),
        body,
        // Decorators are stripped: the transformed function must not be
        // re-processed (paper §III-A).
        decorators: Vec::new(),
        line: def.line,
    })
}

/// Extract the directive text if `e` is a call `omp("…")`.
pub fn omp_directive_text(e: &Expr) -> Option<&str> {
    match e {
        Expr::Call { func, args, kwargs } if kwargs.is_empty() && args.len() == 1 => {
            match (&**func, &args[0]) {
                (Expr::Name(name), Expr::Str(text)) if name == "omp" => Some(text),
                _ => None,
            }
        }
        _ => None,
    }
}

fn syntax_err(msg: impl Into<String>, line: u32) -> PyErr {
    PyErr::at(ErrKind::Syntax, msg, line)
}

/// Stable loop-site id for one transformed `for` directive: an FNV-1a hash
/// of the enclosing function's name and the directive's source line. Every
/// transformed `for` directive bakes its id into the generated `for_init`
/// call; the runtime keys its adaptive `schedule(auto)` history on it
/// (`omp4rs::adaptive`), so repeated executions of the same source loop
/// share one feedback history — and because the id is derived from the
/// source rather than a process-global counter, re-transforming the same
/// code (a REPL re-`exec`, re-decorating a module) reuses the existing
/// history instead of orphaning it in the registry.
fn loop_site_id(fn_name: &str, line: u32) -> i64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in fn_name.bytes().chain(line.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    // Keep clear of the sign bit and the runtime's interpreted-site tag bit
    // (bridge ORs `1 << 62` into every interpreted site key).
    (h & ((1 << 62) - 1)) as i64
}

/// `privatize` result: (prologue, epilogue, nonlocal names).
type PrivatizeParts = (Vec<Stmt>, Vec<Stmt>, Vec<String>);

struct Transformer {
    counter: u32,
    /// The enclosing function's name (half of each loop-site id).
    fn_name: String,
    /// Assignment-site counts over the whole enclosing function.
    fn_counts: HashMap<String, usize>,
    /// The enclosing function's parameters.
    fn_params: HashSet<String>,
}

/// Data-sharing info extracted from clauses for a region.
#[derive(Default)]
struct DataSharing {
    privates: Vec<String>,
    firstprivates: Vec<String>,
    lastprivates: Vec<String>,
    shared: Vec<String>,
    reductions: Vec<(ReductionOp, String)>,
    default: Option<DefaultKind>,
    copyin: Vec<String>,
}

impl DataSharing {
    fn from_clauses(clauses: &[Clause]) -> DataSharing {
        let mut ds = DataSharing::default();
        for clause in clauses {
            match clause {
                Clause::Private(v) => ds.privates.extend(v.iter().cloned()),
                Clause::Firstprivate(v) => ds.firstprivates.extend(v.iter().cloned()),
                Clause::Lastprivate(v) => ds.lastprivates.extend(v.iter().cloned()),
                Clause::Shared(v) => ds.shared.extend(v.iter().cloned()),
                Clause::Copyin(v) => ds.copyin.extend(v.iter().cloned()),
                Clause::Reduction { op, vars } => {
                    ds.reductions
                        .extend(vars.iter().map(|v| (op.clone(), v.clone())));
                }
                Clause::Default(k) => ds.default = Some(*k),
                _ => {}
            }
        }
        ds
    }

    fn clause_listed(&self) -> HashSet<&str> {
        let mut set: HashSet<&str> = HashSet::new();
        set.extend(self.privates.iter().map(String::as_str));
        set.extend(self.firstprivates.iter().map(String::as_str));
        set.extend(self.lastprivates.iter().map(String::as_str));
        set.extend(self.shared.iter().map(String::as_str));
        set.extend(self.copyin.iter().map(String::as_str));
        set.extend(self.reductions.iter().map(|(_, v)| v.as_str()));
        set
    }
}

// ---- small AST builders ---------------------------------------------------

fn omp_attr(name: &str) -> Expr {
    Expr::attr(Expr::name("__omp"), name)
}

fn omp_call(name: &str, args: Vec<Expr>) -> Expr {
    Expr::call(omp_attr(name), args)
}

fn omp_call_stmt(name: &str, args: Vec<Expr>) -> Stmt {
    Stmt::synth(StmtKind::Expr(omp_call(name, args)))
}

fn assign(target: &str, value: Expr) -> Stmt {
    Stmt::synth(StmtKind::Assign {
        targets: vec![Expr::name(target)],
        value,
    })
}

/// Rebind an outlined function's name to `None` once the runtime call that
/// consumes it has been made (the runtime holds its own reference). The
/// function's closure is the enclosing frame's environment, so leaving it
/// bound there makes a reference cycle that leaks every call frame.
fn unbind_outlined(fname: &str) -> Stmt {
    assign(fname, Expr::None)
}

fn str_lit(s: &str) -> Expr {
    Expr::Str(s.to_owned())
}

/// Parse clause expression text (e.g. a `num_threads` argument) as minipy.
fn parse_clause_expr(text: &str, line: u32) -> Result<Expr, PyErr> {
    minipy::parse_expr(text).map_err(|e| {
        syntax_err(
            format!("invalid clause expression '{text}': {}", e.msg),
            line,
        )
    })
}

impl Transformer {
    fn next_id(&mut self) -> u32 {
        self.counter += 1;
        self.counter
    }

    fn transform_block(&mut self, stmts: &[Stmt]) -> Result<Vec<Stmt>, PyErr> {
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            out.extend(self.transform_stmt(stmt)?);
        }
        Ok(out)
    }

    fn transform_stmt(&mut self, stmt: &Stmt) -> Result<Vec<Stmt>, PyErr> {
        let line = stmt.line;
        match &stmt.kind {
            StmtKind::With { items, body } => {
                let directive_text = items.first().and_then(|i| omp_directive_text(&i.context));
                if let Some(text) = directive_text {
                    if items.len() > 1 {
                        return Err(syntax_err(
                            "an omp() directive must be the only context manager",
                            line,
                        ));
                    }
                    let directive =
                        Directive::parse(text).map_err(|e| syntax_err(e.to_string(), line))?;
                    return self.handle_block_directive(directive, body, line);
                }
                // Ordinary with: recurse.
                let body = self.transform_block(body)?;
                Ok(vec![Stmt::new(
                    StmtKind::With {
                        items: items.clone(),
                        body,
                    },
                    line,
                )])
            }
            StmtKind::Expr(e) => {
                if let Some(text) = omp_directive_text(e) {
                    let directive =
                        Directive::parse(text).map_err(|err| syntax_err(err.to_string(), line))?;
                    return self.handle_standalone_directive(directive, line);
                }
                Ok(vec![stmt.clone()])
            }
            StmtKind::If { test, body, orelse } => {
                let body = self.transform_block(body)?;
                let orelse = self.transform_block(orelse)?;
                Ok(vec![Stmt::new(
                    StmtKind::If {
                        test: test.clone(),
                        body,
                        orelse,
                    },
                    line,
                )])
            }
            StmtKind::While { test, body } => {
                let body = self.transform_block(body)?;
                Ok(vec![Stmt::new(
                    StmtKind::While {
                        test: test.clone(),
                        body,
                    },
                    line,
                )])
            }
            StmtKind::For { target, iter, body } => {
                let body = self.transform_block(body)?;
                Ok(vec![Stmt::new(
                    StmtKind::For {
                        target: target.clone(),
                        iter: iter.clone(),
                        body,
                    },
                    line,
                )])
            }
            StmtKind::Try {
                body,
                handlers,
                orelse,
                finalbody,
            } => {
                let body = self.transform_block(body)?;
                let mut new_handlers = Vec::with_capacity(handlers.len());
                for h in handlers {
                    new_handlers.push(ExceptHandler {
                        class_name: h.class_name.clone(),
                        alias: h.alias.clone(),
                        body: self.transform_block(&h.body)?,
                    });
                }
                let orelse = self.transform_block(orelse)?;
                let finalbody = self.transform_block(finalbody)?;
                Ok(vec![Stmt::new(
                    StmtKind::Try {
                        body,
                        handlers: new_handlers,
                        orelse,
                        finalbody,
                    },
                    line,
                )])
            }
            // Nested function definitions are separate scopes: they are only
            // transformed when their own @omp decorator runs (paper §III-A).
            _ => Ok(vec![stmt.clone()]),
        }
    }

    fn handle_standalone_directive(
        &mut self,
        directive: Directive,
        line: u32,
    ) -> Result<Vec<Stmt>, PyErr> {
        let if_text = directive.if_expr().map(str::to_owned);
        Ok(match directive.kind {
            DirectiveKind::Barrier => vec![omp_call_stmt("barrier", vec![])],
            DirectiveKind::Cancel(construct) => {
                // __omp.cancel("for"), guarded by the if clause when present
                // (the spec's cancel-if: the directive is ignored when false).
                let call = omp_call_stmt("cancel", vec![str_lit(construct.name())]);
                match if_text {
                    Some(text) => {
                        let test =
                            Expr::call(Expr::name("bool"), vec![parse_clause_expr(&text, line)?]);
                        vec![Stmt::new(
                            StmtKind::If {
                                test,
                                body: vec![call],
                                orelse: Vec::new(),
                            },
                            line,
                        )]
                    }
                    None => vec![call],
                }
            }
            DirectiveKind::CancellationPoint(construct) => {
                vec![omp_call_stmt(
                    "cancellation_point",
                    vec![str_lit(construct.name())],
                )]
            }
            DirectiveKind::Taskwait => vec![omp_call_stmt("task_wait", vec![])],
            DirectiveKind::Taskyield => vec![omp_call_stmt("task_yield", vec![])],
            DirectiveKind::Flush(_) => vec![omp_call_stmt("flush", vec![])],
            DirectiveKind::Threadprivate(vars) => {
                threadprivate::register(&vars);
                vec![Stmt::synth(StmtKind::Pass)]
            }
            DirectiveKind::DeclareReduction {
                name,
                combiner,
                initializer,
            } => {
                declare_reduction(
                    &name,
                    DeclaredReduction {
                        combiner: combiner.clone(),
                        initializer: initializer.clone(),
                    },
                );
                vec![Stmt::synth(StmtKind::Pass)]
            }
            other => {
                return Err(syntax_err(
                    format!("directive '{}' requires a structured block", other.name()),
                    line,
                ))
            }
        })
    }

    fn handle_block_directive(
        &mut self,
        directive: Directive,
        body: &[Stmt],
        line: u32,
    ) -> Result<Vec<Stmt>, PyErr> {
        match &directive.kind {
            DirectiveKind::Parallel => {
                let inner = self.transform_block(body)?;
                self.emit_parallel(&directive, inner, body, line)
            }
            DirectiveKind::ParallelFor => {
                // Split into parallel{ for{...} } as the specification
                // defines for combined constructs.
                let (for_clauses, par_clauses) = split_combined_clauses(&directive);
                let for_directive = Directive {
                    kind: DirectiveKind::For,
                    clauses: for_clauses,
                };
                let loop_stmts = self.handle_for(&for_directive, body, line)?;
                let par_directive = Directive {
                    kind: DirectiveKind::Parallel,
                    clauses: par_clauses,
                };
                self.emit_parallel(&par_directive, loop_stmts, body, line)
            }
            DirectiveKind::For => self.handle_for(&directive, body, line),
            DirectiveKind::Sections => self.handle_sections(&directive, body, line),
            DirectiveKind::ParallelSections => {
                let (sec_clauses, par_clauses) = split_combined_clauses(&directive);
                let sec_directive = Directive {
                    kind: DirectiveKind::Sections,
                    clauses: sec_clauses,
                };
                let sec_stmts = self.handle_sections(&sec_directive, body, line)?;
                let par_directive = Directive {
                    kind: DirectiveKind::Parallel,
                    clauses: par_clauses,
                };
                self.emit_parallel(&par_directive, sec_stmts, body, line)
            }
            DirectiveKind::Section => Err(syntax_err(
                "'section' directive outside a 'sections' block",
                line,
            )),
            DirectiveKind::Single => self.handle_single(&directive, body, line),
            DirectiveKind::Master => {
                let inner = self.transform_block(body)?;
                Ok(vec![Stmt::new(
                    StmtKind::If {
                        test: omp_call("is_master", vec![]),
                        body: inner,
                        orelse: Vec::new(),
                    },
                    line,
                )])
            }
            DirectiveKind::Critical(name) => {
                let inner = self.transform_block(body)?;
                let name_expr = str_lit(name.as_deref().unwrap_or(""));
                Ok(vec![
                    omp_call_stmt("critical_enter", vec![name_expr.clone()]),
                    Stmt::new(
                        StmtKind::Try {
                            body: inner,
                            handlers: Vec::new(),
                            orelse: Vec::new(),
                            finalbody: vec![omp_call_stmt("critical_exit", vec![name_expr])],
                        },
                        line,
                    ),
                ])
            }
            DirectiveKind::Atomic => {
                let inner = self.transform_block(body)?;
                if inner.len() != 1
                    || !matches!(
                        inner[0].kind,
                        StmtKind::Assign { .. } | StmtKind::AugAssign { .. }
                    )
                {
                    return Err(syntax_err(
                        "'atomic' requires a single assignment statement",
                        line,
                    ));
                }
                Ok(vec![
                    omp_call_stmt("atomic_enter", vec![]),
                    Stmt::new(
                        StmtKind::Try {
                            body: inner,
                            handlers: Vec::new(),
                            orelse: Vec::new(),
                            finalbody: vec![omp_call_stmt("atomic_exit", vec![])],
                        },
                        line,
                    ),
                ])
            }
            DirectiveKind::Ordered => {
                let inner = self.transform_block(body)?;
                Ok(vec![
                    omp_call_stmt("ordered_start", vec![]),
                    Stmt::new(
                        StmtKind::Try {
                            body: inner,
                            handlers: Vec::new(),
                            orelse: Vec::new(),
                            finalbody: vec![omp_call_stmt("ordered_end", vec![])],
                        },
                        line,
                    ),
                ])
            }
            DirectiveKind::Task => {
                let inner = self.transform_block(body)?;
                self.emit_task(&directive, inner, body, line)
            }
            DirectiveKind::Taskgroup => {
                // Critical-style shape: enter, then leave in a `finally` so
                // the group is closed even when the block raises (queued
                // members still execute; the end-wait is deadline-bounded).
                let inner = self.transform_block(body)?;
                Ok(vec![
                    omp_call_stmt("taskgroup_begin", vec![]),
                    Stmt::new(
                        StmtKind::Try {
                            body: inner,
                            handlers: Vec::new(),
                            orelse: Vec::new(),
                            finalbody: vec![omp_call_stmt("taskgroup_end", vec![])],
                        },
                        line,
                    ),
                ])
            }
            DirectiveKind::Taskloop => self.handle_taskloop(&directive, body, line),
            DirectiveKind::Barrier
            | DirectiveKind::Taskwait
            | DirectiveKind::Taskyield
            | DirectiveKind::Flush(_)
            | DirectiveKind::Threadprivate(_)
            | DirectiveKind::Cancel(_)
            | DirectiveKind::CancellationPoint(_)
            | DirectiveKind::DeclareReduction { .. } => Err(syntax_err(
                format!(
                    "directive '{}' does not take a structured block",
                    directive.kind.name()
                ),
                line,
            )),
        }
    }

    // ---- data sharing ----------------------------------------------------

    /// Apply privatization renames and compute the `nonlocal` set for a
    /// region body. Returns (prologue, epilogue, nonlocal names).
    fn privatize(
        &mut self,
        ds: &DataSharing,
        body: &mut [Stmt],
        original_body: &[Stmt],
        _is_loop: bool,
        bounds_name: Option<&str>,
        line: u32,
    ) -> Result<PrivatizeParts, PyErr> {
        let block_counts = assignment_counts(original_body);
        let globals_declared = declared_globals(original_body);

        // default(private|firstprivate): unlisted function-scope variables
        // used in the block become private/firstprivate (paper §V).
        let mut privates = ds.privates.clone();
        let mut firstprivates = ds.firstprivates.clone();
        match ds.default {
            Some(DefaultKind::Private) | Some(DefaultKind::Firstprivate) => {
                let listed = ds.clause_listed();
                let used = used_names(original_body);
                let mut unlisted: Vec<String> = used
                    .into_iter()
                    .filter(|n| {
                        !listed.contains(n.as_str())
                            && (self.fn_params.contains(n) || self.fn_counts.contains_key(n))
                            && !n.starts_with("__omp")
                            && n != "omp"
                    })
                    .collect();
                unlisted.sort();
                if ds.default == Some(DefaultKind::Private) {
                    privates.extend(unlisted);
                } else {
                    firstprivates.extend(unlisted);
                }
            }
            Some(DefaultKind::None) => {
                let listed = ds.clause_listed();
                for name in used_names(original_body) {
                    let fn_scoped = self.fn_params.contains(&name)
                        || (self.fn_counts.get(&name).copied().unwrap_or(0)
                            > block_counts.get(&name).copied().unwrap_or(0));
                    if fn_scoped && !listed.contains(name.as_str()) && !name.starts_with("__omp") {
                        return Err(syntax_err(
                            format!(
                                "variable '{name}' must be listed in a data-sharing clause \
                                 (default(none) is in effect)"
                            ),
                            line,
                        ));
                    }
                }
            }
            _ => {}
        }

        // Build the rename map for all privatized variables.
        let mut rename: HashMap<String, String> = HashMap::new();
        let mut prologue = Vec::new();
        let mut epilogue = Vec::new();
        for var in &privates {
            let new = format!("__omp_{var}_{}", self.next_id());
            rename.insert(var.clone(), new);
        }
        for var in &firstprivates {
            let new = format!("__omp_{var}_{}", self.next_id());
            prologue.push(assign(&new, Expr::name(var)));
            rename.insert(var.clone(), new);
        }
        for var in &ds.lastprivates {
            let new = rename
                .entry(var.clone())
                .or_insert_with(|| format!("__omp_{var}_{}", self.next_id()))
                .clone();
            let bounds = bounds_name.ok_or_else(|| {
                syntax_err("lastprivate requires a worksharing loop or sections", line)
            })?;
            epilogue.push(Stmt::synth(StmtKind::If {
                test: omp_call("for_is_last", vec![Expr::name(bounds)]),
                body: vec![assign(var, Expr::name(&new))],
                orelse: Vec::new(),
            }));
        }
        for (op, var) in &ds.reductions {
            let new = format!("__omp_{var}_{}", self.next_id());
            // __omp_x = __omp.reduce_init("+", x)
            prologue.push(assign(
                &new,
                omp_call("reduce_init", vec![str_lit(op.symbol()), Expr::name(var)]),
            ));
            rename.insert(var.clone(), new.clone());
            // Merge under the runtime mutex (paper Fig. 2, with try/finally).
            let merge_stmt = reduction_merge_stmt(op, var, &new);
            epilogue.push(omp_call_stmt("mutex_lock", vec![]));
            epilogue.push(Stmt::synth(StmtKind::Try {
                body: vec![merge_stmt],
                handlers: Vec::new(),
                orelse: Vec::new(),
                finalbody: vec![omp_call_stmt("mutex_unlock", vec![])],
            }));
        }

        if !rename.is_empty() {
            rename_names(body, &rename);
        }

        // nonlocal set: names assigned in the (original) block that are also
        // bound in the enclosing function outside the block, or parameters —
        // excluding privatized and `global`-declared names (paper §III-C).
        // Reduction and lastprivate variables stay in the set even though
        // their body occurrences were renamed: the generated merge epilogue
        // assigns the *original* name.
        let pure_private: HashSet<&String> = privates.iter().chain(firstprivates.iter()).collect();
        // threadprivate names are rewritten to tp_get/tp_set later; they
        // must not appear in nonlocal declarations.
        let tp_names = threadprivate::registered();
        let mut nonlocals: Vec<String> = block_counts
            .keys()
            .chain(ds.reductions.iter().map(|(_, v)| v))
            .chain(ds.lastprivates.iter())
            .filter(|name| {
                let assigned_outside = self.fn_counts.get(*name).copied().unwrap_or(0)
                    > block_counts.get(*name).copied().unwrap_or(0);
                let is_param = self.fn_params.contains(*name);
                (assigned_outside || is_param)
                    && !pure_private.contains(*name)
                    && !globals_declared.contains(*name)
                    && !tp_names.contains(*name)
            })
            .cloned()
            .collect();
        nonlocals.sort();
        nonlocals.dedup();

        Ok((prologue, epilogue, nonlocals))
    }

    // ---- parallel ----------------------------------------------------------

    fn emit_parallel(
        &mut self,
        directive: &Directive,
        mut inner_body: Vec<Stmt>,
        original_body: &[Stmt],
        line: u32,
    ) -> Result<Vec<Stmt>, PyErr> {
        let ds = DataSharing::from_clauses(&directive.clauses);
        let (prologue, epilogue, nonlocals) =
            self.privatize(&ds, &mut inner_body, original_body, false, None, line)?;

        let fname = format!("__omp_parallel_{}", self.next_id());
        let mut func_body = Vec::new();
        if !nonlocals.is_empty() {
            func_body.push(Stmt::synth(StmtKind::Nonlocal(nonlocals)));
        }
        // copyin: seed each thread's threadprivate copy from the master's.
        let mut before = Vec::new();
        for var in &ds.copyin {
            let cap = format!("__omp_copyin_{var}_{}", self.next_id());
            before.push(assign(&cap, omp_call("tp_get", vec![str_lit(var)])));
            func_body.push(omp_call_stmt(
                "tp_set",
                vec![str_lit(var), Expr::name(&cap)],
            ));
        }
        func_body.extend(prologue);
        func_body.extend(inner_body);
        func_body.extend(epilogue);

        let func_def = Arc::new(FuncDef {
            name: fname.clone(),
            params: Vec::new(),
            body: func_body,
            decorators: Vec::new(),
            line,
        });

        let num_threads = match directive.num_threads_expr() {
            Some(text) => parse_clause_expr(text, line)?,
            None => Expr::None,
        };
        let if_expr = match directive.if_expr() {
            Some(text) => Expr::call(Expr::name("bool"), vec![parse_clause_expr(text, line)?]),
            None => Expr::Bool(true),
        };

        let mut out = before;
        out.push(Stmt::new(StmtKind::FuncDef(func_def), line));
        out.push(omp_call_stmt(
            "parallel_run",
            vec![Expr::name(&fname), num_threads, if_expr],
        ));
        out.push(unbind_outlined(&fname));
        Ok(out)
    }

    // ---- task ---------------------------------------------------------------

    fn emit_task(
        &mut self,
        directive: &Directive,
        mut inner_body: Vec<Stmt>,
        original_body: &[Stmt],
        line: u32,
    ) -> Result<Vec<Stmt>, PyErr> {
        let ds = DataSharing::from_clauses(&directive.clauses);
        // For tasks, firstprivate must capture at *creation* time; we realize
        // that with default parameters (evaluated when the inner `def` runs,
        // i.e. at task creation), so the rename machinery is bypassed for
        // firstprivate here.
        let fp_params: Vec<Param> = ds
            .firstprivates
            .iter()
            .map(|var| Param {
                name: var.clone(),
                default: Some(Expr::name(var)),
            })
            .collect();
        let ds_no_fp = DataSharing {
            firstprivates: Vec::new(),
            ..clone_ds(&ds)
        };
        let (prologue, epilogue, mut nonlocals) =
            self.privatize(&ds_no_fp, &mut inner_body, original_body, false, None, line)?;
        // A firstprivate name is a parameter of the task function: it must
        // not also be declared nonlocal.
        nonlocals.retain(|n| !ds.firstprivates.contains(n));

        let fname = format!("__omp_task_{}", self.next_id());
        let mut func_body = Vec::new();
        if !nonlocals.is_empty() {
            func_body.push(Stmt::synth(StmtKind::Nonlocal(nonlocals)));
        }
        func_body.extend(prologue);
        func_body.extend(inner_body);
        func_body.extend(epilogue);

        let func_def = Arc::new(FuncDef {
            name: fname.clone(),
            params: fp_params,
            body: func_body,
            decorators: Vec::new(),
            line,
        });

        // deferred = bool(if_expr) and not bool(final_expr)
        let mut deferred = match directive.if_expr() {
            Some(text) => Expr::call(Expr::name("bool"), vec![parse_clause_expr(text, line)?]),
            None => Expr::Bool(true),
        };
        if let Some(final_text) = directive.find_clause(|c| match c {
            Clause::Final(e) => Some(e.clone()),
            _ => None,
        }) {
            let not_final = Expr::Unary {
                op: UnaryOp::Not,
                operand: Box::new(Expr::call(
                    Expr::name("bool"),
                    vec![parse_clause_expr(&final_text, line)?],
                )),
            };
            deferred = Expr::BoolOp {
                op: BoolOpKind::And,
                values: vec![deferred, not_final],
            };
        }

        // depend/priority clauses route through `task_submit_ex`; the
        // dependence item expressions are evaluated at *creation* time (like
        // firstprivate captures) — the runtime hashes the resulting values
        // into storage keys, so two tasks naming equal values conflict.
        let depends = directive.depends();
        let priority_text = directive.priority_expr();
        let submit = if depends.is_empty() && priority_text.is_none() {
            omp_call_stmt("task_submit", vec![Expr::name(&fname), deferred])
        } else {
            use omp4rs::depgraph::DepKind;
            let mut ins = Vec::new();
            let mut outs = Vec::new();
            let mut inouts = Vec::new();
            for (kind, item) in depends {
                let e = parse_clause_expr(item, line)?;
                match kind {
                    DepKind::In => ins.push(e),
                    DepKind::Out => outs.push(e),
                    DepKind::Inout => inouts.push(e),
                }
            }
            let priority = match priority_text {
                Some(text) => parse_clause_expr(text, line)?,
                None => Expr::Int(0),
            };
            omp_call_stmt(
                "task_submit_ex",
                vec![
                    Expr::name(&fname),
                    deferred,
                    Expr::List(ins),
                    Expr::List(outs),
                    Expr::List(inouts),
                    priority,
                ],
            )
        };
        Ok(vec![
            Stmt::new(StmtKind::FuncDef(func_def), line),
            submit,
            unbind_outlined(&fname),
        ])
    }

    // ---- for -----------------------------------------------------------------

    fn handle_for(
        &mut self,
        directive: &Directive,
        body: &[Stmt],
        line: u32,
    ) -> Result<Vec<Stmt>, PyErr> {
        let collapse = directive.collapse() as usize;
        // Peel `collapse` nested for-range loops.
        let mut triplets: Vec<(Expr, Expr, Expr)> = Vec::new();
        let mut loop_vars: Vec<String> = Vec::new();
        let mut cursor: &[Stmt] = body;
        let mut innermost_body: &[Stmt] = &[];
        for depth in 0..collapse {
            if cursor.len() != 1 {
                return Err(syntax_err(
                    "the 'for' directive must wrap exactly one for loop",
                    line,
                ));
            }
            let (target, iter, loop_body) = match &cursor[0].kind {
                StmtKind::For { target, iter, body } => (target, iter, body),
                _ => return Err(syntax_err("the 'for' directive must wrap a for loop", line)),
            };
            let var = match target {
                Expr::Name(n) => n.clone(),
                _ => {
                    return Err(syntax_err(
                        "parallel loop variables must be simple names",
                        line,
                    ))
                }
            };
            let triplet = range_triplet(iter).ok_or_else(|| {
                syntax_err(
                    "the 'for' directive requires a range(...)-based loop \
                     (list comprehensions and other iterables are not supported)",
                    line,
                )
            })?;
            loop_vars.push(var);
            triplets.push(triplet);
            innermost_body = loop_body;
            cursor = loop_body;
            let _ = depth;
        }

        let mut inner = self.transform_block(innermost_body)?;

        let ds = DataSharing::from_clauses(&directive.clauses);
        let bounds = format!("__omp_bounds_{}", self.next_id());
        // Note: the `for` transform never moves the body into another
        // function, so no nonlocal declarations are needed here; an
        // enclosing `parallel` transform adds its own later.
        let (prologue, epilogue, _nonlocals) =
            self.privatize(&ds, &mut inner, innermost_body, true, Some(&bounds), line)?;

        // Loop variables are implicitly private: rename them if they are
        // bound elsewhere in the enclosing function.
        let mut var_rename = HashMap::new();
        for var in &mut loop_vars {
            let block_only =
                self.fn_counts.get(var).copied().unwrap_or(0) <= 1 && !self.fn_params.contains(var);
            if !block_only && !ds.lastprivates.contains(var) {
                let new = format!("__omp_{var}_{}", self.next_id());
                var_rename.insert(var.clone(), new.clone());
                *var = new;
            }
        }
        if !var_rename.is_empty() {
            rename_names(&mut inner, &var_rename);
        }

        let ordered = directive.has_ordered();
        let nowait = directive.has_nowait();
        let (sched_expr, chunk_expr) = match directive.schedule() {
            Some((kind, chunk)) => {
                let chunk = match chunk {
                    Some(text) => parse_clause_expr(text, line)?,
                    None => Expr::None,
                };
                (str_lit(kind.name()), chunk)
            }
            None => (Expr::None, Expr::None),
        };

        // __omp_bounds = __omp.for_bounds([s1, e1, st1, ...])
        let mut triplet_items = Vec::new();
        for (s, e, st) in &triplets {
            triplet_items.push(s.clone());
            triplet_items.push(e.clone());
            triplet_items.push(st.clone());
        }
        let mut out = Vec::new();
        out.push(Stmt::new(
            StmtKind::Assign {
                targets: vec![Expr::name(&bounds)],
                value: omp_call("for_bounds", vec![Expr::List(triplet_items)]),
            },
            line,
        ));
        // __omp.for_init(bounds, sched, chunk, nowait, ordered, site)
        out.push(omp_call_stmt(
            "for_init",
            vec![
                Expr::name(&bounds),
                sched_expr,
                chunk_expr,
                Expr::Bool(nowait),
                Expr::Bool(ordered),
                Expr::Int(loop_site_id(&self.fn_name, line)),
            ],
        ));
        out.extend(prologue);

        // Loop driving (paper Fig. 3), with the claimed chunk hoisted into
        // frame locals: `for_chunk` returns an immutable (lo, hi, step)
        // tuple unpacked once per chunk, so iterating the chunk touches no
        // shared (per-object-locked) container on the hot path.
        let chunk_id = self.next_id();
        let lo_name = format!("__omp_lo_{chunk_id}");
        let hi_name = format!("__omp_hi_{chunk_id}");
        let st_name = format!("__omp_st_{chunk_id}");
        let unpack_chunk = Stmt::synth(StmtKind::Assign {
            targets: vec![Expr::Tuple(vec![
                Expr::name(&lo_name),
                Expr::name(&hi_name),
                Expr::name(&st_name),
            ])],
            value: omp_call("for_chunk", vec![Expr::name(&bounds)]),
        });
        let loop_body = if collapse == 1 {
            let var = &loop_vars[0];
            let mut for_body = Vec::new();
            if ordered {
                for_body.push(omp_call_stmt(
                    "set_iter",
                    vec![Expr::name(&bounds), Expr::name(var)],
                ));
            }
            for_body.extend(inner);
            vec![
                unpack_chunk,
                Stmt::synth(StmtKind::For {
                    target: Expr::name(var),
                    iter: Expr::call(
                        Expr::name("range"),
                        vec![
                            Expr::name(&lo_name),
                            Expr::name(&hi_name),
                            Expr::name(&st_name),
                        ],
                    ),
                    body: for_body,
                }),
            ]
        } else {
            // Collapsed: iterate the flattened space, reconstruct variables.
            let flat = format!("__omp_flat_{}", self.next_id());
            let mut for_body = Vec::new();
            for (d, var) in loop_vars.iter().enumerate() {
                for_body.push(assign(
                    var,
                    omp_call(
                        "collapse_var",
                        vec![Expr::name(&bounds), Expr::name(&flat), Expr::Int(d as i64)],
                    ),
                ));
            }
            if ordered {
                for_body.push(omp_call_stmt(
                    "set_iter_flat",
                    vec![Expr::name(&bounds), Expr::name(&flat)],
                ));
            }
            for_body.extend(inner);
            vec![
                unpack_chunk,
                Stmt::synth(StmtKind::For {
                    target: Expr::name(&flat),
                    iter: Expr::call(
                        Expr::name("range"),
                        vec![Expr::name(&lo_name), Expr::name(&hi_name)],
                    ),
                    body: for_body,
                }),
            ]
        };

        out.push(Stmt::new(
            StmtKind::While {
                test: omp_call("for_next", vec![Expr::name(&bounds)]),
                body: loop_body,
            },
            line,
        ));
        out.extend(epilogue);
        out.push(omp_call_stmt(
            "for_end",
            vec![Expr::name(&bounds), Expr::Bool(nowait)],
        ));
        Ok(out)
    }

    // ---- taskloop ---------------------------------------------------------

    /// `taskloop`: the loop's iterations are packaged into tasks. Generated
    /// shape: an inner function over a chunk `(lo, hi, step)` containing the
    /// original `for`, submitted per chunk by `__omp.taskloop_run`.
    fn handle_taskloop(
        &mut self,
        directive: &Directive,
        body: &[Stmt],
        line: u32,
    ) -> Result<Vec<Stmt>, PyErr> {
        if body.len() != 1 {
            return Err(syntax_err(
                "'taskloop' must wrap exactly one for loop",
                line,
            ));
        }
        let (target, iter, loop_body) = match &body[0].kind {
            StmtKind::For { target, iter, body } => (target, iter, body),
            _ => return Err(syntax_err("'taskloop' must wrap a for loop", line)),
        };
        let var = match target {
            Expr::Name(n) => n.clone(),
            _ => return Err(syntax_err("taskloop variables must be simple names", line)),
        };
        let (start, stop, step) = range_triplet(iter)
            .ok_or_else(|| syntax_err("'taskloop' requires a range(...)-based loop", line))?;

        let mut inner = self.transform_block(loop_body)?;
        let ds = DataSharing::from_clauses(&directive.clauses);
        let fp_params: Vec<Param> = ds
            .firstprivates
            .iter()
            .map(|v| Param {
                name: v.clone(),
                default: Some(Expr::name(v)),
            })
            .collect();
        let ds_no_fp = DataSharing {
            firstprivates: Vec::new(),
            ..clone_ds(&ds)
        };
        let (prologue, epilogue, mut nonlocals) =
            self.privatize(&ds_no_fp, &mut inner, loop_body, false, None, line)?;
        nonlocals.retain(|n| !ds.firstprivates.contains(n) && n != &var);

        let id = self.next_id();
        let fname = format!("__omp_taskloop_{id}");
        let (lo_p, hi_p, st_p) = (
            format!("__omp_lo_{id}"),
            format!("__omp_hi_{id}"),
            format!("__omp_st_{id}"),
        );
        let mut func_body = Vec::new();
        if !nonlocals.is_empty() {
            func_body.push(Stmt::synth(StmtKind::Nonlocal(nonlocals)));
        }
        func_body.extend(prologue);
        let for_body = inner;
        func_body.push(Stmt::synth(StmtKind::For {
            target: Expr::name(&var),
            iter: Expr::call(
                Expr::name("range"),
                vec![Expr::name(&lo_p), Expr::name(&hi_p), Expr::name(&st_p)],
            ),
            body: for_body,
        }));
        func_body.extend(epilogue);

        let mut params = vec![
            Param {
                name: lo_p,
                default: None,
            },
            Param {
                name: hi_p,
                default: None,
            },
            Param {
                name: st_p,
                default: None,
            },
        ];
        params.extend(fp_params);

        let func_def = Arc::new(FuncDef {
            name: fname.clone(),
            params,
            body: func_body,
            decorators: Vec::new(),
            line,
        });

        let clause_expr = |pick: &dyn Fn(&Clause) -> Option<String>| -> Result<Expr, PyErr> {
            match directive.find_clause(pick) {
                Some(text) => parse_clause_expr(&text, line),
                None => Ok(Expr::None),
            }
        };
        let grainsize = clause_expr(&|c| match c {
            Clause::Grainsize(e) => Some(e.clone()),
            _ => None,
        })?;
        let num_tasks = clause_expr(&|c| match c {
            Clause::NumTasks(e) => Some(e.clone()),
            _ => None,
        })?;
        let nogroup = directive
            .clauses
            .iter()
            .any(|c| matches!(c, Clause::Nogroup));

        Ok(vec![
            Stmt::new(StmtKind::FuncDef(func_def), line),
            omp_call_stmt(
                "taskloop_run",
                vec![
                    Expr::name(&fname),
                    start,
                    stop,
                    step,
                    grainsize,
                    num_tasks,
                    Expr::Bool(nogroup),
                ],
            ),
            unbind_outlined(&fname),
        ])
    }

    // ---- sections --------------------------------------------------------------

    fn handle_sections(
        &mut self,
        directive: &Directive,
        body: &[Stmt],
        line: u32,
    ) -> Result<Vec<Stmt>, PyErr> {
        // The body must be a sequence of `with omp("section"):` blocks.
        let mut section_bodies: Vec<Vec<Stmt>> = Vec::new();
        for stmt in body {
            match &stmt.kind {
                StmtKind::With {
                    items,
                    body: section_body,
                } if items.len() == 1 => {
                    let text = omp_directive_text(&items[0].context).ok_or_else(|| {
                        syntax_err("'sections' may only contain 'section' blocks", stmt.line)
                    })?;
                    let d =
                        Directive::parse(text).map_err(|e| syntax_err(e.to_string(), stmt.line))?;
                    if d.kind != DirectiveKind::Section {
                        return Err(syntax_err(
                            "'sections' may only contain 'section' blocks",
                            stmt.line,
                        ));
                    }
                    section_bodies.push(self.transform_block(section_body)?);
                }
                StmtKind::Pass => {}
                _ => {
                    return Err(syntax_err(
                        "'sections' may only contain 'section' blocks",
                        stmt.line,
                    ))
                }
            }
        }
        if section_bodies.is_empty() {
            return Err(syntax_err(
                "'sections' requires at least one 'section'",
                line,
            ));
        }

        let nowait = directive.has_nowait();
        let handle = format!("__omp_sections_{}", self.next_id());
        let index = format!("__omp_section_i_{}", self.next_id());
        let n = section_bodies.len();

        // Dispatch chain: if i == 0: ... elif i == 1: ...
        let mut dispatch: Vec<Stmt> = Vec::new();
        for (i, sbody) in section_bodies.into_iter().enumerate().rev() {
            let test = Expr::Compare {
                left: Box::new(Expr::name(&index)),
                ops: vec![CmpOp::Eq],
                comparators: vec![Expr::Int(i as i64)],
            };
            dispatch = vec![Stmt::synth(StmtKind::If {
                test,
                body: sbody,
                orelse: dispatch,
            })];
        }

        let mut while_body = vec![
            assign(&index, omp_call("sections_next", vec![Expr::name(&handle)])),
            Stmt::synth(StmtKind::If {
                test: Expr::Compare {
                    left: Box::new(Expr::name(&index)),
                    ops: vec![CmpOp::Lt],
                    comparators: vec![Expr::Int(0)],
                },
                body: vec![Stmt::synth(StmtKind::Break)],
                orelse: Vec::new(),
            }),
        ];
        while_body.extend(dispatch);

        Ok(vec![
            assign(
                &handle,
                omp_call("sections_begin", vec![Expr::Int(n as i64)]),
            ),
            Stmt::new(
                StmtKind::While {
                    test: Expr::Bool(true),
                    body: while_body,
                },
                line,
            ),
            omp_call_stmt(
                "sections_end",
                vec![Expr::name(&handle), Expr::Bool(nowait)],
            ),
        ])
    }

    // ---- single -----------------------------------------------------------------

    fn handle_single(
        &mut self,
        directive: &Directive,
        body: &[Stmt],
        line: u32,
    ) -> Result<Vec<Stmt>, PyErr> {
        let mut inner = self.transform_block(body)?;
        let ds = DataSharing::from_clauses(&directive.clauses);
        let (prologue, epilogue, _nonlocals) =
            self.privatize(&ds, &mut inner, body, false, None, line)?;

        let copyprivate: Vec<String> = directive
            .clauses
            .iter()
            .filter_map(|c| match c {
                Clause::Copyprivate(v) => Some(v.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        let nowait = directive.has_nowait();

        let handle = format!("__omp_single_{}", self.next_id());
        let mut out = vec![assign(&handle, omp_call("single_begin", vec![]))];
        let mut if_body = prologue;
        if_body.extend(inner);
        if_body.extend(epilogue);
        if !copyprivate.is_empty() {
            // Winner publishes [x, y, ...].
            if_body.push(omp_call_stmt(
                "copyprivate_set",
                vec![
                    Expr::name(&handle),
                    Expr::List(copyprivate.iter().map(Expr::name).collect()),
                ],
            ));
        }
        out.push(Stmt::new(
            StmtKind::If {
                test: omp_call("single_claim", vec![Expr::name(&handle)]),
                body: if_body,
                orelse: Vec::new(),
            },
            line,
        ));
        if !copyprivate.is_empty() {
            let cp = format!("__omp_cp_{}", self.next_id());
            out.push(assign(
                &cp,
                omp_call("copyprivate_get", vec![Expr::name(&handle)]),
            ));
            for (i, var) in copyprivate.iter().enumerate() {
                out.push(assign(
                    var,
                    Expr::index(Expr::name(&cp), Expr::Int(i as i64)),
                ));
            }
        }
        out.push(omp_call_stmt(
            "single_end",
            vec![
                Expr::name(&handle),
                Expr::Bool(nowait && copyprivate.is_empty()),
            ],
        ));
        Ok(out)
    }
}

fn clone_ds(ds: &DataSharing) -> DataSharing {
    DataSharing {
        privates: ds.privates.clone(),
        firstprivates: ds.firstprivates.clone(),
        lastprivates: ds.lastprivates.clone(),
        shared: ds.shared.clone(),
        reductions: ds.reductions.clone(),
        default: ds.default,
        copyin: ds.copyin.clone(),
    }
}

/// Names declared `global` anywhere in a block.
fn declared_globals(stmts: &[Stmt]) -> HashSet<String> {
    let mut out = HashSet::new();
    fn walk(stmts: &[Stmt], out: &mut HashSet<String>) {
        for stmt in stmts {
            match &stmt.kind {
                StmtKind::Global(names) => out.extend(names.iter().cloned()),
                StmtKind::If { body, orelse, .. } => {
                    walk(body, out);
                    walk(orelse, out);
                }
                StmtKind::While { body, .. } | StmtKind::For { body, .. } => walk(body, out),
                StmtKind::With { body, .. } => walk(body, out),
                StmtKind::Try {
                    body,
                    handlers,
                    orelse,
                    finalbody,
                } => {
                    walk(body, out);
                    for h in handlers {
                        walk(&h.body, out);
                    }
                    walk(orelse, out);
                    walk(finalbody, out);
                }
                _ => {}
            }
        }
    }
    walk(stmts, &mut out);
    out
}

/// Emit the reduction merge statement (`x += __omp_x`, `x = min(x, __omp_x)`,
/// `x = x and __omp_x`, or a `reduce_combine` call for custom operators).
fn reduction_merge_stmt(op: &ReductionOp, var: &str, private: &str) -> Stmt {
    let aug = |bin: BinOp| {
        Stmt::synth(StmtKind::AugAssign {
            target: Expr::name(var),
            op: bin,
            value: Expr::name(private),
        })
    };
    let call_merge = |fname: &str| {
        Stmt::synth(StmtKind::Assign {
            targets: vec![Expr::name(var)],
            value: Expr::call(
                Expr::name(fname),
                vec![Expr::name(var), Expr::name(private)],
            ),
        })
    };
    match op {
        ReductionOp::Add | ReductionOp::Sub => aug(BinOp::Add),
        ReductionOp::Mul => aug(BinOp::Mul),
        ReductionOp::BitAnd => aug(BinOp::BitAnd),
        ReductionOp::BitOr => aug(BinOp::BitOr),
        ReductionOp::BitXor => aug(BinOp::BitXor),
        ReductionOp::Min => call_merge("min"),
        ReductionOp::Max => call_merge("max"),
        ReductionOp::LogicalAnd => Stmt::synth(StmtKind::Assign {
            targets: vec![Expr::name(var)],
            value: Expr::BoolOp {
                op: BoolOpKind::And,
                values: vec![Expr::name(var), Expr::name(private)],
            },
        }),
        ReductionOp::LogicalOr => Stmt::synth(StmtKind::Assign {
            targets: vec![Expr::name(var)],
            value: Expr::BoolOp {
                op: BoolOpKind::Or,
                values: vec![Expr::name(var), Expr::name(private)],
            },
        }),
        ReductionOp::Custom(name) => Stmt::synth(StmtKind::Assign {
            targets: vec![Expr::name(var)],
            value: omp_call(
                "reduce_combine",
                vec![str_lit(name), Expr::name(var), Expr::name(private)],
            ),
        }),
    }
}

/// Split combined `parallel for`/`parallel sections` clauses into
/// (worksharing clauses, parallel clauses).
fn split_combined_clauses(directive: &Directive) -> (Vec<Clause>, Vec<Clause>) {
    let mut ws = Vec::new();
    let mut par = Vec::new();
    for clause in &directive.clauses {
        match clause {
            Clause::Schedule { .. }
            | Clause::Collapse(_)
            | Clause::Ordered
            | Clause::Lastprivate(_) => ws.push(clause.clone()),
            _ => par.push(clause.clone()),
        }
    }
    (ws, par)
}

/// Extract `(start, stop, step)` expressions from a `range(...)` call.
fn range_triplet(iter: &Expr) -> Option<(Expr, Expr, Expr)> {
    match iter {
        Expr::Call { func, args, kwargs } if kwargs.is_empty() => match &**func {
            Expr::Name(name) if name == "range" => match args.len() {
                1 => Some((Expr::Int(0), args[0].clone(), Expr::Int(1))),
                2 => Some((args[0].clone(), args[1].clone(), Expr::Int(1))),
                3 => Some((args[0].clone(), args[1].clone(), args[2].clone())),
                _ => None,
            },
            _ => None,
        },
        _ => None,
    }
}

/// Map a schedule clause kind to its runtime string (used by tests).
pub fn schedule_name(kind: ScheduleKind) -> &'static str {
    kind.name()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_site_ids_are_deterministic_and_tag_safe() {
        let id = loop_site_id("pi", 9);
        assert_eq!(id, loop_site_id("pi", 9));
        assert_ne!(id, loop_site_id("pi", 10));
        assert_ne!(id, loop_site_id("jacobi", 9));
        // Must stay below the interpreted-site tag bit (and the sign bit).
        assert!((0..(1 << 62)).contains(&id));
        assert!((0..(1 << 62)).contains(&loop_site_id("", 0)));
    }

    #[test]
    fn retransform_reuses_loop_site_ids() {
        let src = "\
def work(n):
    total = 0
    with omp(\"parallel for reduction(+:total)\"):
        for i in range(n):
            total += i
    return total
";
        let dump = || {
            let module = minipy::parse(src).expect("parse");
            let def = match &module.body[0].kind {
                StmtKind::FuncDef(def) => transform_function(def).expect("transform"),
                other => panic!("expected FuncDef, got {other:?}"),
            };
            minipy::print_module(&minipy::Module {
                body: vec![Stmt::synth(StmtKind::FuncDef(Arc::new(def)))],
            })
        };
        // Re-decorating the same source (REPL re-`exec`) must bake the same
        // site id into `for_init`, not a fresh one per transform.
        assert_eq!(dump(), dump());
    }

    /// The bytecode VM caches the callable each `__omp.<intrinsic>()` call
    /// site resolves to for the duration of a frame; that is sound only
    /// because generated code never rebinds `__omp`. Hold the transform to
    /// that invariant: no assignment-like construct in any generated
    /// function (or its nested bodies) may target the `__omp` name.
    #[test]
    fn generated_code_never_rebinds_the_runtime_binding() {
        fn check_target(e: &Expr) {
            if let Expr::Name(n) = e {
                assert_ne!(n, "__omp", "generated code rebinds __omp");
            }
            if let Expr::Tuple(items) | Expr::List(items) = e {
                items.iter().for_each(check_target);
            }
        }
        fn check_body(body: &[Stmt]) {
            for stmt in body {
                match &stmt.kind {
                    StmtKind::Assign { targets, .. } => targets.iter().for_each(check_target),
                    StmtKind::AugAssign { target, .. } => check_target(target),
                    StmtKind::For { target, body, .. } => {
                        check_target(target);
                        check_body(body);
                    }
                    StmtKind::Del(targets) => targets.iter().for_each(check_target),
                    StmtKind::FuncDef(def) => {
                        assert!(
                            def.params.iter().all(|p| p.name != "__omp"),
                            "generated function shadows __omp via a parameter"
                        );
                        check_body(&def.body);
                    }
                    StmtKind::If { body, orelse, .. } => {
                        check_body(body);
                        check_body(orelse);
                    }
                    StmtKind::While { body, .. } => check_body(body),
                    StmtKind::With { items, body } => {
                        for item in items {
                            assert!(
                                item.alias.as_deref() != Some("__omp"),
                                "generated code rebinds __omp via `with … as`"
                            );
                        }
                        check_body(body);
                    }
                    StmtKind::Try {
                        body,
                        handlers,
                        orelse,
                        finalbody,
                    } => {
                        check_body(body);
                        for h in handlers {
                            check_body(&h.body);
                        }
                        check_body(orelse);
                        check_body(finalbody);
                    }
                    _ => {}
                }
            }
        }
        for src in [
            "def pi(n):\n    pi_value = 0.0\n    w = 1.0 / n\n    with omp(\"parallel for reduction(+:pi_value)\"):\n        for i in range(n):\n            local = (i + 0.5) * w\n            pi_value += 4.0 / (1.0 + local * local)\n    return pi_value * w\n",
            "def count(n):\n    total = 0\n    with omp(\"parallel\"):\n        with omp(\"critical\"):\n            total += 1\n        omp(\"barrier\")\n    return total\n",
            "def tasks(n):\n    acc = []\n    with omp(\"parallel\"):\n        with omp(\"single\"):\n            for i in range(n):\n                with omp(\"task\"):\n                    acc.append(i)\n    return acc\n",
        ] {
            let module = minipy::parse(src).expect("parse");
            let def = match &module.body[0].kind {
                StmtKind::FuncDef(def) => transform_function(def).expect("transform"),
                other => panic!("expected FuncDef, got {other:?}"),
            };
            check_body(&def.body);
        }
    }
}
