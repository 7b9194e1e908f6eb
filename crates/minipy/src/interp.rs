//! The tree-walking interpreter.
//!
//! [`Interp`] is a cheaply-cloneable handle (all state is `Arc`-shared), so a
//! host runtime can hand clones to worker threads — exactly what the OMP4Py
//! bridge does when a `parallel` directive spawns a team.

use std::cell::Cell as StdCell;
use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::ast::*;
use crate::env::Env;
use crate::error::{name_err, type_err, value_err, ErrKind, PyErr};
use crate::gil::{Gil, GilMode};
use crate::value::{range_len, Args, FuncValue, HKey, Lookup, Opaque, Str, Value};
use crate::{builtins, methods, parser};

/// Result of executing a statement.
#[derive(Debug)]
pub enum Flow {
    /// Fall through to the next statement.
    Normal,
    /// `break` propagating to the nearest loop.
    Break,
    /// `continue` propagating to the nearest loop.
    Continue,
    /// `return` propagating to the nearest function.
    Return(Value),
}

thread_local! {
    static DEPTH: StdCell<u32> = const { StdCell::new(0) };
}

/// Default recursion limit (interpreted call depth per thread).
pub const DEFAULT_RECURSION_LIMIT: u32 = 1500;

/// An exception object bound by `except ... as e`.
#[derive(Debug, Clone)]
pub struct ExcValue {
    /// The exception category.
    pub kind: ErrKind,
    /// The message.
    pub msg: String,
}

impl Opaque for ExcValue {
    fn type_name(&self) -> &str {
        self.kind.class_name()
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn str_repr(&self) -> Option<String> {
        Some(self.msg.clone())
    }
}

/// Where `print` output goes.
#[derive(Clone)]
enum OutputSink {
    Stdout,
    Buffer(Arc<Mutex<String>>),
}

/// A minipy interpreter instance.
///
/// Cloning is cheap and produces a handle to the *same* interpreter state
/// (globals, modules, GIL), suitable for moving into other threads.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), minipy::PyErr> {
/// let interp = minipy::Interp::new();
/// interp.run("x = 2 + 3\n")?;
/// assert_eq!(interp.get_global("x").unwrap().as_int()?, 5);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Interp {
    globals: Env,
    gil: Arc<Gil>,
    modules: Arc<RwLock<HashMap<String, Value>>>,
    stdout: OutputSink,
    recursion_limit: u32,
}

impl Default for Interp {
    fn default() -> Self {
        Interp::new()
    }
}

impl Interp {
    /// Create a free-threaded interpreter (the configuration OMP4Py needs).
    pub fn new() -> Interp {
        Interp::with_gil(Gil::new(GilMode::FreeThreaded))
    }

    /// Create an interpreter with an explicit GIL configuration.
    pub fn with_gil(gil: Arc<Gil>) -> Interp {
        let builtins_env = Env::new_root();
        builtins::install(&builtins_env);
        let globals = builtins_env.child_barrier();
        let interp = Interp {
            globals,
            gil,
            modules: Arc::new(RwLock::new(HashMap::new())),
            stdout: OutputSink::Stdout,
            recursion_limit: DEFAULT_RECURSION_LIMIT,
        };
        builtins::install_default_modules(&interp);
        interp
    }

    /// Redirect `print` output to an in-memory buffer (for tests/harnesses).
    pub fn capture_output(mut self) -> Interp {
        self.stdout = OutputSink::Buffer(Arc::new(Mutex::new(String::new())));
        self
    }

    /// Captured output so far, if output capture is enabled.
    pub fn output(&self) -> Option<String> {
        match &self.stdout {
            OutputSink::Stdout => None,
            OutputSink::Buffer(buf) => Some(buf.lock().clone()),
        }
    }

    /// Set the recursion limit (interpreted call depth per thread).
    pub fn set_recursion_limit(&mut self, limit: u32) {
        self.recursion_limit = limit.max(16);
    }

    /// The interpreter's GIL handle.
    pub fn gil(&self) -> &Arc<Gil> {
        &self.gil
    }

    /// The module-level (global) environment.
    pub fn globals(&self) -> &Env {
        &self.globals
    }

    /// Write text to the interpreter's stdout sink.
    pub fn write_stdout(&self, text: &str) {
        match &self.stdout {
            OutputSink::Stdout => print!("{text}"),
            OutputSink::Buffer(buf) => buf.lock().push_str(text),
        }
    }

    /// Register an importable module object.
    ///
    /// `import name` / `from name import *` consult this registry.
    pub fn register_module(&self, name: &str, module: Value) {
        self.modules.write().insert(name.to_owned(), module);
    }

    /// Look up a registered module.
    pub fn module(&self, name: &str) -> Option<Value> {
        self.modules.read().get(name).cloned()
    }

    /// Read a global variable.
    pub fn get_global(&self, name: &str) -> Option<Value> {
        self.globals.get(name)
    }

    /// Set a global variable.
    pub fn set_global(&self, name: &str, value: Value) {
        self.globals.set_or_define(name, value);
    }

    /// Parse and execute source text at module scope.
    ///
    /// # Errors
    ///
    /// Returns the first syntax or runtime error.
    pub fn run(&self, src: &str) -> Result<(), PyErr> {
        let module = parser::parse(src)?;
        self.run_module(&module)
    }

    /// Execute a parsed module at module scope.
    ///
    /// # Errors
    ///
    /// Returns the first runtime error.
    pub fn run_module(&self, module: &Module) -> Result<(), PyErr> {
        let _session = self.gil.enter();
        for stmt in &module.body {
            match self.exec(stmt, &self.globals)? {
                Flow::Normal => {}
                Flow::Return(_) => {
                    return Err(PyErr::at(
                        ErrKind::Syntax,
                        "'return' outside function",
                        stmt.line,
                    ))
                }
                Flow::Break | Flow::Continue => {
                    return Err(PyErr::at(
                        ErrKind::Syntax,
                        "loop control outside loop",
                        stmt.line,
                    ))
                }
            }
        }
        Ok(())
    }

    /// Evaluate a single expression string at module scope.
    ///
    /// # Errors
    ///
    /// Returns the first syntax or runtime error.
    pub fn eval_str(&self, src: &str) -> Result<Value, PyErr> {
        let expr = parser::parse_expr(src)?;
        let _session = self.gil.enter();
        self.eval(&expr, &self.globals)
    }

    /// Call a callable value with positional arguments.
    ///
    /// This is the host-side entry point used by native bridges (e.g. to run
    /// a parallel region body on a worker thread). It enters a GIL session.
    ///
    /// # Errors
    ///
    /// Returns a `TypeError` if `func` is not callable, or whatever error the
    /// call raises.
    pub fn call(&self, func: &Value, args: Vec<Value>) -> Result<Value, PyErr> {
        let _session = self.gil.enter();
        self.call_value(func, Args::positional(args))
    }

    /// Invoke a callable with full [`Args`]. Assumes a GIL session is active.
    ///
    /// # Errors
    ///
    /// Propagates the callee's error, or a `TypeError` for non-callables.
    pub fn call_value(&self, func: &Value, args: Args) -> Result<Value, PyErr> {
        match func {
            Value::Func(f) => self.call_interpreted(f, args),
            Value::Native(nf) => (nf.func)(self, args),
            other => Err(type_err(format!(
                "'{}' object is not callable",
                other.type_name()
            ))),
        }
    }

    fn call_interpreted(&self, f: &Arc<FuncValue>, args: Args) -> Result<Value, PyErr> {
        let limit = self.recursion_limit;
        DEPTH.with(|d| {
            let v = d.get();
            if v >= limit {
                return Err(PyErr::new(
                    ErrKind::Custom("RecursionError".into()),
                    "maximum recursion depth exceeded",
                ));
            }
            d.set(v + 1);
            Ok(())
        })?;
        let result = self.call_interpreted_inner(f, args);
        DEPTH.with(|d| d.set(d.get() - 1));
        result
    }

    fn call_interpreted_inner(&self, f: &Arc<FuncValue>, mut args: Args) -> Result<Value, PyErr> {
        // Bytecode VM: when the VM is enabled and this definition is
        // VM-eligible, execute bytecode instead of tree-walking. Fallback is
        // per-function and the compile decision is cached per definition.
        if crate::bytecode::enabled() {
            if let Some(code) = crate::bytecode::lookup_or_compile(&f.def) {
                return crate::bytecode::vm::call_compiled(self, f, &code, args);
            }
        }
        let frame = f.closure.child();
        let def = &f.def;
        if args.pos.len() > def.params.len() {
            return Err(type_err(format!(
                "{}() takes {} positional arguments but {} were given",
                f.name,
                def.params.len(),
                args.pos.len()
            )));
        }
        let npos = args.pos.len();
        for (param, value) in def.params.iter().zip(args.pos.drain(..)) {
            frame.define(&param.name, value);
        }
        for (name, value) in args.kw.drain(..) {
            let param = def.params.iter().position(|p| p.name == name);
            match param {
                Some(i) if i < npos => {
                    return Err(type_err(format!(
                        "{}() got multiple values for argument '{name}'",
                        f.name
                    )))
                }
                Some(_) => {
                    if frame.get_local_cell(&name).is_some() {
                        return Err(type_err(format!(
                            "{}() got multiple values for argument '{name}'",
                            f.name
                        )));
                    }
                    frame.define(&name, value);
                }
                None => {
                    return Err(type_err(format!(
                        "{}() got an unexpected keyword argument '{name}'",
                        f.name
                    )))
                }
            }
        }
        for (i, param) in def.params.iter().enumerate() {
            if frame.get_local_cell(&param.name).is_none() {
                match f.defaults.get(i).and_then(Option::as_ref) {
                    Some(default) => frame.define(&param.name, default.clone()),
                    None => {
                        return Err(type_err(format!(
                            "{}() missing required argument: '{}'",
                            f.name, param.name
                        )))
                    }
                }
            }
        }
        match self.exec_block(&def.body, &frame)? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::None),
        }
    }

    /// Execute a block of statements.
    ///
    /// # Errors
    ///
    /// Propagates the first runtime error.
    pub fn exec_block(&self, stmts: &[Stmt], env: &Env) -> Result<Flow, PyErr> {
        for stmt in stmts {
            match self.exec(stmt, env)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    /// Execute one statement.
    ///
    /// # Errors
    ///
    /// Propagates the first runtime error, annotated with the statement line.
    pub fn exec(&self, stmt: &Stmt, env: &Env) -> Result<Flow, PyErr> {
        self.gil.tick();
        let result = self.exec_inner(stmt, env);
        match result {
            Err(e) if stmt.line > 0 => Err(e.with_line(stmt.line)),
            other => other,
        }
    }

    fn exec_inner(&self, stmt: &Stmt, env: &Env) -> Result<Flow, PyErr> {
        match &stmt.kind {
            StmtKind::Expr(e) => {
                self.eval(e, env)?;
                Ok(Flow::Normal)
            }
            StmtKind::Assign { targets, value } => {
                let v = self.eval(value, env)?;
                for target in targets {
                    self.assign(target, v.clone(), env)?;
                }
                Ok(Flow::Normal)
            }
            StmtKind::AugAssign { target, op, value } => {
                let rhs = self.eval(value, env)?;
                match target {
                    Expr::Name(name) => {
                        let cell = env.get_cell(name).ok_or_else(|| name_err(name))?;
                        // Read-modify-write without holding the cell lock
                        // across user code, as Python's STORE_NAME does not
                        // make `x += 1` atomic either.
                        let old = cell.read().clone();
                        let new = binary_op(*op, &old, &rhs)?;
                        *cell.write() = new;
                    }
                    Expr::Index { value: obj, index } => {
                        let container = self.eval(obj, env)?;
                        let idx = self.eval(index, env)?;
                        let old = self.get_item(&container, &idx)?;
                        let new = binary_op(*op, &old, &rhs)?;
                        self.set_item(&container, &idx, new)?;
                    }
                    _ => return Err(type_err("illegal augmented-assignment target")),
                }
                Ok(Flow::Normal)
            }
            StmtKind::If { test, body, orelse } => {
                if self.eval(test, env)?.truthy() {
                    self.exec_block(body, env)
                } else {
                    self.exec_block(orelse, env)
                }
            }
            StmtKind::While { test, body } => {
                while self.eval(test, env)?.truthy() {
                    match self.exec_block(body, env)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                    self.gil.tick();
                }
                Ok(Flow::Normal)
            }
            StmtKind::For { target, iter, body } => {
                let it = ValueIter::new_owned(self.eval(iter, env)?)?;
                for item in it {
                    self.assign(target, item, env)?;
                    match self.exec_block(body, env)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                    self.gil.tick();
                }
                Ok(Flow::Normal)
            }
            StmtKind::FuncDef(def) => {
                let mut defaults = Vec::with_capacity(def.params.len());
                for param in &def.params {
                    defaults.push(match &param.default {
                        Some(expr) => Some(self.eval(expr, env)?),
                        None => None,
                    });
                }
                let mut func = Value::Func(Arc::new(FuncValue {
                    def: Arc::clone(def),
                    closure: env.clone(),
                    name: def.name.clone(),
                    defaults,
                }));
                // Apply decorators bottom-up (the last listed runs first).
                for deco in def.decorators.iter().rev() {
                    let deco_v = self.eval(deco, env)?;
                    func = self.call_value(&deco_v, Args::positional(vec![func]))?;
                }
                env.set_or_define(&def.name, func);
                Ok(Flow::Normal)
            }
            StmtKind::Return(value) => {
                let v = match value {
                    Some(e) => self.eval(e, env)?,
                    None => Value::None,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Pass => Ok(Flow::Normal),
            StmtKind::Global(names) => {
                for name in names {
                    let cell = match self.globals.get_local_cell(name) {
                        Some(cell) => cell,
                        None => {
                            self.globals.define(name, Value::None);
                            self.globals.get_local_cell(name).expect("just defined")
                        }
                    };
                    if !env.same_frame(&self.globals) {
                        env.define_cell(name, cell);
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Nonlocal(names) => {
                for name in names {
                    let cell = env.get_nonlocal_cell(name).ok_or_else(|| {
                        PyErr::new(
                            ErrKind::Syntax,
                            format!("no binding for nonlocal '{name}' found"),
                        )
                    })?;
                    env.define_cell(name, cell);
                }
                Ok(Flow::Normal)
            }
            StmtKind::With { items, body } => {
                // minipy has no context-manager protocol: the context value is
                // evaluated (for its side effects, e.g. `omp(...)` validation)
                // and optionally bound; the body then runs unconditionally.
                for item in items {
                    let v = self.eval(&item.context, env)?;
                    if let Some(alias) = &item.alias {
                        env.set_or_define(alias, v);
                    }
                }
                self.exec_block(body, env)
            }
            StmtKind::Try {
                body,
                handlers,
                orelse,
                finalbody,
            } => {
                let body_result = self.exec_block(body, env);
                let mut result = match body_result {
                    Err(exc) => {
                        let mut handled = None;
                        for handler in handlers {
                            let matches = match &handler.class_name {
                                None => true,
                                Some(name) => exc.kind.matches(name),
                            };
                            if matches {
                                if let Some(alias) = &handler.alias {
                                    env.set_or_define(
                                        alias,
                                        Value::Opaque(Arc::new(ExcValue {
                                            kind: exc.kind.clone(),
                                            msg: exc.msg.clone(),
                                        })),
                                    );
                                }
                                handled = Some(self.exec_with_exc(&handler.body, env, &exc));
                                break;
                            }
                        }
                        match handled {
                            Some(r) => r,
                            None => Err(exc),
                        }
                    }
                    Ok(Flow::Normal) => self.exec_block(orelse, env),
                    other => other,
                };
                if !finalbody.is_empty() {
                    match self.exec_block(finalbody, env) {
                        Ok(Flow::Normal) => {}
                        other => result = other,
                    }
                }
                result
            }
            StmtKind::Raise(value) => match value {
                None => {
                    let exc = current_exception().ok_or_else(|| {
                        PyErr::new(ErrKind::Runtime, "no active exception to re-raise")
                    })?;
                    Err(exc)
                }
                Some(e) => {
                    let v = self.eval(e, env)?;
                    Err(exception_from_value(&v)?)
                }
            },
            StmtKind::Assert { test, msg } => {
                if !self.eval(test, env)?.truthy() {
                    let message = match msg {
                        Some(m) => self.eval(m, env)?.py_str(),
                        None => String::new(),
                    };
                    return Err(PyErr::new(ErrKind::Assertion, message));
                }
                Ok(Flow::Normal)
            }
            StmtKind::Del(targets) => {
                for target in targets {
                    match target {
                        Expr::Name(name) => {
                            let mut cur = Some(env.clone());
                            let mut removed = false;
                            while let Some(e) = cur {
                                if e.remove(name) {
                                    removed = true;
                                    break;
                                }
                                cur = e.parent().cloned();
                            }
                            if !removed {
                                return Err(name_err(name));
                            }
                        }
                        Expr::Index { value, index } => {
                            let container = self.eval(value, env)?;
                            let idx = self.eval(index, env)?;
                            self.del_item(&container, &idx)?;
                        }
                        _ => return Err(type_err("illegal del target")),
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Import { module, alias } => {
                let value = self.module(module).ok_or_else(|| {
                    PyErr::new(
                        ErrKind::Custom("ModuleNotFoundError".into()),
                        format!("no module named '{module}'"),
                    )
                })?;
                let bind = alias
                    .as_deref()
                    .unwrap_or(module.split('.').next().unwrap_or(module));
                env.set_or_define(bind, value);
                Ok(Flow::Normal)
            }
            StmtKind::FromImport {
                module,
                names,
                star,
            } => {
                let value = self.module(module).ok_or_else(|| {
                    PyErr::new(
                        ErrKind::Custom("ModuleNotFoundError".into()),
                        format!("no module named '{module}'"),
                    )
                })?;
                if *star {
                    match &value {
                        Value::Opaque(o) => {
                            for name in module_export_names(o.as_ref()) {
                                if let Some(v) = o.get_attr(&name) {
                                    env.set_or_define(&name, v);
                                }
                            }
                        }
                        Value::Dict(d) => {
                            for (k, v) in d.read().iter() {
                                if let HKey::Str(name) = k {
                                    env.set_or_define(name, v.clone());
                                }
                            }
                        }
                        _ => {
                            return Err(type_err("module object does not support import *"));
                        }
                    }
                } else {
                    for (name, alias) in names {
                        let item = match &value {
                            Value::Opaque(o) => o.get_attr(name),
                            Value::Dict(d) => {
                                d.read().get(&HKey::Str(name.as_str().into())).cloned()
                            }
                            _ => None,
                        };
                        let item = item.ok_or_else(|| {
                            PyErr::new(
                                ErrKind::Custom("ImportError".into()),
                                format!("cannot import name '{name}' from '{module}'"),
                            )
                        })?;
                        env.set_or_define(alias.as_deref().unwrap_or(name), item);
                    }
                }
                Ok(Flow::Normal)
            }
        }
    }

    fn exec_with_exc(&self, body: &[Stmt], env: &Env, exc: &PyErr) -> Result<Flow, PyErr> {
        push_exception(exc.clone());
        let result = self.exec_block(body, env);
        pop_exception();
        result
    }

    fn assign(&self, target: &Expr, value: Value, env: &Env) -> Result<(), PyErr> {
        match target {
            Expr::Name(name) => {
                env.set_or_define(name, value);
                Ok(())
            }
            Expr::Tuple(items) | Expr::List(items) => {
                let it = ValueIter::new_owned(value)?;
                let mut supplied = Vec::with_capacity(items.len());
                for v in it {
                    supplied.push(v);
                    if supplied.len() > items.len() {
                        return Err(value_err(format!(
                            "too many values to unpack (expected {})",
                            items.len()
                        )));
                    }
                }
                if supplied.len() < items.len() {
                    return Err(value_err(format!(
                        "not enough values to unpack (expected {}, got {})",
                        items.len(),
                        supplied.len()
                    )));
                }
                for (t, v) in items.iter().zip(supplied) {
                    self.assign(t, v, env)?;
                }
                Ok(())
            }
            Expr::Index { value: obj, index } => {
                let container = self.eval(obj, env)?;
                let idx = self.eval(index, env)?;
                self.set_item(&container, &idx, value)
            }
            Expr::Attribute { .. } => {
                Err(type_err("attribute assignment is not supported in minipy"))
            }
            _ => Err(type_err("cannot assign to expression")),
        }
    }

    /// Evaluate an expression.
    ///
    /// # Errors
    ///
    /// Propagates the first runtime error.
    pub fn eval(&self, expr: &Expr, env: &Env) -> Result<Value, PyErr> {
        match expr {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Float(v) => Ok(Value::Float(*v)),
            Expr::Str(s) => Ok(Value::str(s.as_str())),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::None => Ok(Value::None),
            Expr::Name(name) => env.get(name).ok_or_else(|| name_err(name)),
            Expr::Binary { op, left, right } => {
                let l = self.eval(left, env)?;
                let r = self.eval(right, env)?;
                binary_op(*op, &l, &r)
            }
            Expr::Unary { op, operand } => {
                let v = self.eval(operand, env)?;
                unary_op(*op, &v)
            }
            Expr::BoolOp { op, values } => {
                let mut last = Value::None;
                for (i, e) in values.iter().enumerate() {
                    last = self.eval(e, env)?;
                    let t = last.truthy();
                    let short = match op {
                        BoolOpKind::And => !t,
                        BoolOpKind::Or => t,
                    };
                    if short && i + 1 < values.len() {
                        return Ok(last);
                    }
                    if short {
                        return Ok(last);
                    }
                }
                Ok(last)
            }
            Expr::Compare {
                left,
                ops,
                comparators,
            } => {
                let mut lhs = self.eval(left, env)?;
                for (op, rhs_expr) in ops.iter().zip(comparators) {
                    let rhs = self.eval(rhs_expr, env)?;
                    if !compare(*op, &lhs, &rhs)? {
                        return Ok(Value::Bool(false));
                    }
                    lhs = rhs;
                }
                Ok(Value::Bool(true))
            }
            Expr::Call { func, args, kwargs } => {
                let call_args = Args {
                    pos: args
                        .iter()
                        .map(|a| self.eval(a, env))
                        .collect::<Result<_, _>>()?,
                    kw: kwargs
                        .iter()
                        .map(|(k, v)| Ok((k.clone(), self.eval(v, env)?)))
                        .collect::<Result<_, PyErr>>()?,
                };
                if let Expr::Attribute { value, attr } = &**func {
                    let obj = self.eval(value, env)?;
                    // Module attribute that happens to be callable?
                    if let Value::Opaque(o) = &obj {
                        if let Some(f) = o.get_attr(attr) {
                            return self.call_value(&f, call_args);
                        }
                    }
                    return methods::call_method(self, &obj, attr, call_args);
                }
                let f = self.eval(func, env)?;
                self.call_value(&f, call_args)
            }
            Expr::Attribute { value, attr } => {
                let obj = self.eval(value, env)?;
                match &obj {
                    Value::Opaque(o) => o.get_attr(attr).ok_or_else(|| {
                        PyErr::new(
                            ErrKind::Attribute,
                            format!("'{}' object has no attribute '{}'", o.type_name(), attr),
                        )
                    }),
                    other => Err(PyErr::new(
                        ErrKind::Attribute,
                        format!(
                            "attribute '{}' of '{}' is only supported in call position",
                            attr,
                            other.type_name()
                        ),
                    )),
                }
            }
            Expr::Index { value, index } => {
                let container = self.eval(value, env)?;
                let idx = self.eval(index, env)?;
                self.get_item(&container, &idx)
            }
            Expr::Slice { lower, upper, step } => {
                // A bare slice value (only meaningful inside Index); represent
                // as a 3-tuple marker.
                let l = match lower {
                    Some(e) => self.eval(e, env)?,
                    None => Value::None,
                };
                let u = match upper {
                    Some(e) => self.eval(e, env)?,
                    None => Value::None,
                };
                let s = match step {
                    Some(e) => self.eval(e, env)?,
                    None => Value::None,
                };
                Ok(Value::Opaque(Arc::new(SliceValue {
                    lower: l,
                    upper: u,
                    step: s,
                })))
            }
            Expr::List(items) => {
                let values: Vec<Value> = items
                    .iter()
                    .map(|e| self.eval(e, env))
                    .collect::<Result<_, _>>()?;
                Ok(Value::list(values))
            }
            Expr::Tuple(items) => {
                let values: Vec<Value> = items
                    .iter()
                    .map(|e| self.eval(e, env))
                    .collect::<Result<_, _>>()?;
                Ok(Value::tuple(values))
            }
            Expr::Dict(items) => {
                let dict = Value::dict();
                if let Value::Dict(map) = &dict {
                    let mut map = map.write();
                    for (k, v) in items {
                        let key = HKey::from_value(&self.eval(k, env)?)?;
                        let value = self.eval(v, env)?;
                        map.insert(key, value);
                    }
                }
                Ok(dict)
            }
            Expr::IfExp { test, body, orelse } => {
                if self.eval(test, env)?.truthy() {
                    self.eval(body, env)
                } else {
                    self.eval(orelse, env)
                }
            }
            Expr::Lambda { params, body } => {
                let def = Arc::new(FuncDef {
                    name: "<lambda>".into(),
                    params: params.clone(),
                    body: vec![Stmt::synth(StmtKind::Return(Some((**body).clone())))],
                    decorators: Vec::new(),
                    line: 0,
                });
                let mut defaults = Vec::with_capacity(params.len());
                for param in params {
                    defaults.push(match &param.default {
                        Some(expr) => Some(self.eval(expr, env)?),
                        None => None,
                    });
                }
                Ok(Value::Func(Arc::new(FuncValue {
                    def,
                    closure: env.clone(),
                    name: "<lambda>".into(),
                    defaults,
                })))
            }
        }
    }

    /// `container[index]` semantics.
    ///
    /// # Errors
    ///
    /// `TypeError`/`IndexError`/`KeyError` as in Python.
    pub fn get_item(&self, container: &Value, index: &Value) -> Result<Value, PyErr> {
        if let Value::Opaque(slice) = index {
            if let Some(s) = slice.as_any().downcast_ref::<SliceValue>() {
                return slice_get(container, s);
            }
        }
        match container {
            Value::List(l) => {
                let items = l.read();
                let i = normalize_index(index.as_int()?, items.len())?;
                Ok(items[i].clone())
            }
            Value::Tuple(t) => {
                let i = normalize_index(index.as_int()?, t.len())?;
                Ok(t[i].clone())
            }
            Value::Str(s) => {
                let i = index.as_int()?;
                if s.is_ascii() {
                    let i = normalize_index(i, s.len())?;
                    return Ok(Value::str(&s[i..=i]));
                }
                let i = normalize_index(i, s.chars().count())?;
                let c = s
                    .chars()
                    .nth(i)
                    .expect("index normalized to the char count");
                Ok(Value::str(&*c.encode_utf8(&mut [0; 4])))
            }
            Value::Dict(d) => {
                let key = Lookup::of(index)?;
                d.read()
                    .get(key.key())
                    .cloned()
                    .ok_or_else(|| PyErr::new(ErrKind::Key, index.repr()))
            }
            Value::Range(start, stop, step) => {
                let len = range_len(*start, *stop, *step);
                let i = normalize_index(index.as_int()?, len as usize)?;
                Ok(Value::Int(start + (i as i64) * step))
            }
            other => Err(type_err(format!(
                "'{}' object is not subscriptable",
                other.type_name()
            ))),
        }
    }

    /// `container[index] = value` semantics.
    ///
    /// # Errors
    ///
    /// `TypeError`/`IndexError` as in Python.
    pub fn set_item(&self, container: &Value, index: &Value, value: Value) -> Result<(), PyErr> {
        match container {
            Value::List(l) => {
                let mut items = l.write();
                let i = normalize_index(index.as_int()?, items.len())?;
                items[i] = value;
                Ok(())
            }
            Value::Dict(d) => {
                // An existing key is updated in place through the borrowed
                // view; only a new key is built as an `HKey`.
                let key = Lookup::of(index)?;
                let mut map = d.write();
                match map.get_mut(key.key()) {
                    Some(slot) => *slot = value,
                    None => {
                        let key = match key {
                            Lookup::Owned(k) => k,
                            Lookup::Ref(_) => HKey::from_value(index)?,
                        };
                        map.insert(key, value);
                    }
                }
                Ok(())
            }
            other => Err(type_err(format!(
                "'{}' object does not support item assignment",
                other.type_name()
            ))),
        }
    }

    pub(crate) fn del_item(&self, container: &Value, index: &Value) -> Result<(), PyErr> {
        match container {
            Value::List(l) => {
                let mut items = l.write();
                let i = normalize_index(index.as_int()?, items.len())?;
                items.remove(i);
                Ok(())
            }
            Value::Dict(d) => {
                let key = Lookup::of(index)?;
                if d.write().remove(key.key()).is_none() {
                    return Err(PyErr::new(ErrKind::Key, index.repr()));
                }
                Ok(())
            }
            other => Err(type_err(format!(
                "'{}' object doesn't support item deletion",
                other.type_name()
            ))),
        }
    }
}

/// A slice object created by `a[l:u:s]` subscripts.
#[derive(Debug)]
pub struct SliceValue {
    /// Lower bound or `None`.
    pub lower: Value,
    /// Upper bound or `None`.
    pub upper: Value,
    /// Step or `None`.
    pub step: Value,
}

impl Opaque for SliceValue {
    fn type_name(&self) -> &str {
        "slice"
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

fn slice_get(container: &Value, s: &SliceValue) -> Result<Value, PyErr> {
    let step = match &s.step {
        Value::None => 1,
        v => v.as_int()?,
    };
    if step == 0 {
        return Err(value_err("slice step cannot be zero"));
    }
    let len = match container {
        Value::List(l) => l.read().len(),
        Value::Tuple(t) => t.len(),
        Value::Str(st) => st.chars().count(),
        other => {
            return Err(type_err(format!(
                "'{}' object is not sliceable",
                other.type_name()
            )))
        }
    } as i64;
    let (start, stop) = slice_bounds(&s.lower, &s.upper, step, len)?;
    let indices: Vec<i64> = if step > 0 {
        let mut v = Vec::new();
        let mut i = start;
        while i < stop {
            v.push(i);
            i += step;
        }
        v
    } else {
        let mut v = Vec::new();
        let mut i = start;
        while i > stop {
            v.push(i);
            i += step;
        }
        v
    };
    match container {
        Value::List(l) => {
            let items = l.read();
            Ok(Value::list(
                indices.iter().map(|&i| items[i as usize].clone()).collect(),
            ))
        }
        Value::Tuple(t) => Ok(Value::tuple(
            indices.iter().map(|&i| t[i as usize].clone()).collect(),
        )),
        Value::Str(st) => {
            let chars: Vec<char> = st.chars().collect();
            Ok(Value::str(
                indices
                    .iter()
                    .map(|&i| chars[i as usize])
                    .collect::<String>(),
            ))
        }
        _ => unreachable!("checked above"),
    }
}

fn slice_bounds(lower: &Value, upper: &Value, step: i64, len: i64) -> Result<(i64, i64), PyErr> {
    let clamp = |mut v: i64, hi: i64| {
        if v < 0 {
            v += len;
        }
        v.clamp(if step > 0 { 0 } else { -1 }, hi)
    };
    let (default_start, default_stop) = if step > 0 { (0, len) } else { (len - 1, -1) };
    let start = match lower {
        Value::None => default_start,
        v => clamp(v.as_int()?, if step > 0 { len } else { len - 1 }),
    };
    let stop = match upper {
        Value::None => default_stop,
        v => clamp(v.as_int()?, len),
    };
    Ok((start, stop))
}

/// Normalize a (possibly negative) index against a container length.
pub(crate) fn normalize_index(i: i64, len: usize) -> Result<usize, PyErr> {
    let len = len as i64;
    let idx = if i < 0 { i + len } else { i };
    if idx < 0 || idx >= len {
        return Err(PyErr::new(ErrKind::Index, "index out of range"));
    }
    Ok(idx as usize)
}

// ---- exception context (for bare `raise`) -----------------------------

thread_local! {
    static EXC_STACK: std::cell::RefCell<Vec<PyErr>> = const { std::cell::RefCell::new(Vec::new()) };
}

fn push_exception(e: PyErr) {
    EXC_STACK.with(|s| s.borrow_mut().push(e));
}

fn pop_exception() {
    EXC_STACK.with(|s| {
        s.borrow_mut().pop();
    });
}

pub(crate) fn current_exception() -> Option<PyErr> {
    EXC_STACK.with(|s| s.borrow().last().cloned())
}

/// Convert a raised value into a [`PyErr`].
pub(crate) fn exception_from_value(v: &Value) -> Result<PyErr, PyErr> {
    match v {
        Value::Opaque(o) => {
            if let Some(exc) = o.as_any().downcast_ref::<ExcValue>() {
                return Ok(PyErr::new(exc.kind.clone(), exc.msg.clone()));
            }
            Err(type_err("exceptions must derive from BaseException"))
        }
        Value::Native(nf) => {
            // `raise ValueError` without arguments.
            Ok(PyErr::new(ErrKind::from_class_name(&nf.name), ""))
        }
        _ => Err(type_err("exceptions must derive from BaseException")),
    }
}

/// Names a module opaque exposes for `import *`; modules opt in by
/// implementing [`crate::builtins::ModuleObj`].
fn module_export_names(o: &dyn Opaque) -> Vec<String> {
    if let Some(m) = o.as_any().downcast_ref::<crate::builtins::ModuleObj>() {
        m.export_names()
    } else {
        Vec::new()
    }
}

// ---- operators ---------------------------------------------------------

/// Apply a binary operator with Python semantics.
///
/// # Errors
///
/// `TypeError` for unsupported operand types, `ZeroDivisionError` where
/// applicable, and an overflow `OverflowError` for out-of-range `int` math
/// (minipy has no big integers).
pub fn binary_op(op: BinOp, l: &Value, r: &Value) -> Result<Value, PyErr> {
    use BinOp::*;
    // Fast numeric paths.
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return int_binary(op, *a, *b);
    }
    // Mixed numeric paths.
    if l.is_number() && r.is_number() {
        return float_binary(op, l.as_float()?, r.as_float()?);
    }
    // Sequence/str operations.
    match (op, l, r) {
        (Add, Value::Str(a), Value::Str(b)) => Ok(Value::str(Str::concat(a, b))),
        (Add, Value::List(a), Value::List(b)) => {
            let mut out = a.read().clone();
            out.extend(b.read().iter().cloned());
            Ok(Value::list(out))
        }
        (Add, Value::Tuple(a), Value::Tuple(b)) => {
            let mut out = (**a).clone();
            out.extend(b.iter().cloned());
            Ok(Value::tuple(out))
        }
        (Mul, Value::Str(s), Value::Int(n)) | (Mul, Value::Int(n), Value::Str(s)) => {
            Ok(Value::str(s.repeat((*n).max(0) as usize)))
        }
        (Mul, Value::List(items), Value::Int(n)) | (Mul, Value::Int(n), Value::List(items)) => {
            let items = items.read();
            let mut out = Vec::with_capacity(items.len() * (*n).max(0) as usize);
            for _ in 0..(*n).max(0) {
                out.extend(items.iter().cloned());
            }
            Ok(Value::list(out))
        }
        (Mod, Value::Str(_), _) => Err(type_err(
            "printf-style '%' string formatting is not supported in minipy",
        )),
        _ => Err(type_err(format!(
            "unsupported operand type(s) for {}: '{}' and '{}'",
            op.symbol(),
            l.type_name(),
            r.type_name()
        ))),
    }
}

/// The `int <op> int` arm of [`binary_op`], shared with the VM's quickened
/// `Binary`/`AugLocal` handlers so specialization cannot drift from the
/// tree-walker (same checked math, same error messages).
///
/// # Errors
///
/// `ZeroDivisionError` and `OverflowError` as in [`binary_op`].
#[cfg_attr(not(debug_assertions), inline(always))]
pub fn int_binary(op: BinOp, a: i64, b: i64) -> Result<Value, PyErr> {
    use BinOp::*;
    match op {
        Add => checked_int(a.checked_add(b)),
        Sub => checked_int(a.checked_sub(b)),
        Mul => checked_int(a.checked_mul(b)),
        Div => {
            if b == 0 {
                Err(PyErr::new(ErrKind::ZeroDivision, "division by zero"))
            } else {
                Ok(Value::Float(a as f64 / b as f64))
            }
        }
        FloorDiv => {
            if b == 0 {
                Err(PyErr::new(
                    ErrKind::ZeroDivision,
                    "integer division or modulo by zero",
                ))
            } else {
                Ok(Value::Int(python_floordiv(a, b)))
            }
        }
        Mod => {
            if b == 0 {
                Err(PyErr::new(
                    ErrKind::ZeroDivision,
                    "integer division or modulo by zero",
                ))
            } else {
                Ok(Value::Int(python_mod(a, b)))
            }
        }
        Pow => int_pow(a, b),
        BitAnd => Ok(Value::Int(a & b)),
        BitOr => Ok(Value::Int(a | b)),
        BitXor => Ok(Value::Int(a ^ b)),
        Shl => {
            if !(0..64).contains(&b) {
                Err(value_err("shift count out of range"))
            } else {
                checked_int(a.checked_shl(b as u32))
            }
        }
        Shr => {
            if !(0..64).contains(&b) {
                Err(value_err("shift count out of range"))
            } else {
                Ok(Value::Int(a >> b))
            }
        }
    }
}

/// The mixed-numeric arm of [`binary_op`] (operands already coerced to
/// `f64`), shared with the VM's quickened handlers.
///
/// # Errors
///
/// `ZeroDivisionError` and `TypeError` as in [`binary_op`].
#[cfg_attr(not(debug_assertions), inline(always))]
pub fn float_binary(op: BinOp, a: f64, b: f64) -> Result<Value, PyErr> {
    use BinOp::*;
    match op {
        Add => Ok(Value::Float(a + b)),
        Sub => Ok(Value::Float(a - b)),
        Mul => Ok(Value::Float(a * b)),
        Div => {
            if b == 0.0 {
                Err(PyErr::new(ErrKind::ZeroDivision, "float division by zero"))
            } else {
                Ok(Value::Float(a / b))
            }
        }
        FloorDiv => {
            if b == 0.0 {
                Err(PyErr::new(
                    ErrKind::ZeroDivision,
                    "float floor division by zero",
                ))
            } else {
                Ok(Value::Float((a / b).floor()))
            }
        }
        Mod => {
            if b == 0.0 {
                Err(PyErr::new(ErrKind::ZeroDivision, "float modulo"))
            } else {
                let r = a % b;
                Ok(Value::Float(if r != 0.0 && (r < 0.0) != (b < 0.0) {
                    r + b
                } else {
                    r
                }))
            }
        }
        Pow => Ok(Value::Float(a.powf(b))),
        _ => Err(type_err(format!(
            "unsupported operand type(s) for {}: 'float'",
            op.symbol()
        ))),
    }
}

impl Value {
    /// Whether the value is `int`, `float`, or `bool`.
    pub fn is_number(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_) | Value::Bool(_))
    }
}

fn checked_int(v: Option<i64>) -> Result<Value, PyErr> {
    v.map(Value::Int).ok_or_else(|| {
        PyErr::new(
            ErrKind::Custom("OverflowError".into()),
            "integer overflow (minipy has no big integers)",
        )
    })
}

/// Floor division with Python's round-toward-negative-infinity semantics.
pub fn python_floordiv(a: i64, b: i64) -> i64 {
    let q = a / b;
    if a % b != 0 && (a < 0) != (b < 0) {
        q - 1
    } else {
        q
    }
}

/// Modulo with Python's sign-of-divisor semantics.
pub fn python_mod(a: i64, b: i64) -> i64 {
    let r = a % b;
    if r != 0 && (r < 0) != (b < 0) {
        r + b
    } else {
        r
    }
}

fn int_pow(a: i64, b: i64) -> Result<Value, PyErr> {
    if b < 0 {
        if a == 0 {
            return Err(PyErr::new(
                ErrKind::ZeroDivision,
                "0 cannot be raised to a negative power",
            ));
        }
        return Ok(Value::Float((a as f64).powi(b as i32)));
    }
    if b > u32::MAX as i64 {
        return Err(value_err("exponent too large"));
    }
    checked_int(a.checked_pow(b as u32))
}

/// Apply a unary operator with Python semantics.
///
/// # Errors
///
/// `TypeError` for unsupported operand types.
pub fn unary_op(op: UnaryOp, v: &Value) -> Result<Value, PyErr> {
    match op {
        UnaryOp::Not => Ok(Value::Bool(!v.truthy())),
        UnaryOp::Neg => match v {
            Value::Int(i) => checked_int(i.checked_neg()),
            Value::Float(f) => Ok(Value::Float(-f)),
            Value::Bool(b) => Ok(Value::Int(-(*b as i64))),
            other => Err(type_err(format!(
                "bad operand type for unary -: '{}'",
                other.type_name()
            ))),
        },
        UnaryOp::Pos => match v {
            Value::Int(_) | Value::Float(_) => Ok(v.clone()),
            Value::Bool(b) => Ok(Value::Int(*b as i64)),
            other => Err(type_err(format!(
                "bad operand type for unary +: '{}'",
                other.type_name()
            ))),
        },
        UnaryOp::Invert => match v {
            Value::Int(i) => Ok(Value::Int(!i)),
            Value::Bool(b) => Ok(Value::Int(!(*b as i64))),
            other => Err(type_err(format!(
                "bad operand type for unary ~: '{}'",
                other.type_name()
            ))),
        },
    }
}

/// Evaluate a comparison with Python semantics.
///
/// # Errors
///
/// `TypeError` for unordered operand types.
pub fn compare(op: CmpOp, l: &Value, r: &Value) -> Result<bool, PyErr> {
    Ok(match op {
        CmpOp::Eq => l.py_eq(r),
        CmpOp::NotEq => !l.py_eq(r),
        CmpOp::Is => l.is_identical(r),
        CmpOp::IsNot => !l.is_identical(r),
        CmpOp::In => contains(r, l)?,
        CmpOp::NotIn => !contains(r, l)?,
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
            let ord = py_ordering(l, r)?;
            match op {
                CmpOp::Lt => ord == std::cmp::Ordering::Less,
                CmpOp::Le => ord != std::cmp::Ordering::Greater,
                CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                CmpOp::Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            }
        }
    })
}

/// Total ordering of comparable values (numbers, strings, lists, tuples).
///
/// # Errors
///
/// `TypeError` for cross-type or unorderable comparisons.
pub fn py_ordering(l: &Value, r: &Value) -> Result<std::cmp::Ordering, PyErr> {
    if l.is_number() && r.is_number() {
        let a = l.as_float()?;
        let b = r.as_float()?;
        return a
            .partial_cmp(&b)
            .ok_or_else(|| value_err("cannot order NaN"));
    }
    match (l, r) {
        (Value::Str(a), Value::Str(b)) => Ok(a.cmp(b)),
        (Value::List(a), Value::List(b)) => {
            let a = a.read().clone();
            let b = b.read().clone();
            seq_ordering(&a, &b)
        }
        (Value::Tuple(a), Value::Tuple(b)) => seq_ordering(a, b),
        _ => Err(type_err(format!(
            "'<' not supported between instances of '{}' and '{}'",
            l.type_name(),
            r.type_name()
        ))),
    }
}

fn seq_ordering(a: &[Value], b: &[Value]) -> Result<std::cmp::Ordering, PyErr> {
    for (x, y) in a.iter().zip(b.iter()) {
        if !x.py_eq(y) {
            return py_ordering(x, y);
        }
    }
    Ok(a.len().cmp(&b.len()))
}

fn contains(container: &Value, item: &Value) -> Result<bool, PyErr> {
    match container {
        Value::List(l) => Ok(l.read().iter().any(|v| v.py_eq(item))),
        Value::Tuple(t) => Ok(t.iter().any(|v| v.py_eq(item))),
        Value::Dict(d) => {
            let key = Lookup::of(item)?;
            Ok(d.read().contains_key(key.key()))
        }
        Value::Str(s) => {
            let needle = item.as_str()?;
            Ok(s.contains(needle))
        }
        Value::Range(start, stop, step) => {
            let i = item.as_int()?;
            if *step > 0 {
                Ok(i >= *start && i < *stop && (i - start) % step == 0)
            } else if *step < 0 {
                Ok(i <= *start && i > *stop && (start - i) % (-step) == 0)
            } else {
                Ok(false)
            }
        }
        other => Err(type_err(format!(
            "argument of type '{}' is not iterable",
            other.type_name()
        ))),
    }
}

// ---- iteration ---------------------------------------------------------

/// An iterator over a dynamic value.
///
/// A list is iterated live or owned, by who else holds it:
///
/// * **Owned** — [`ValueIter::new_owned`] was handed the list's only
///   reference (a `for` over a temporary: a call result, a literal, a
///   `split()`). No one else can see the list, so its items move out one by
///   one: no lock, no clone. Tuples held alone go the same way.
/// * **Live** — anything else still holds the list (a local, a cell, another
///   container, or [`ValueIter::new`]'s borrowed argument). Each step takes
///   the list's lock and clones the item at the current index, so the loop
///   sees appends and removals made while it runs, as Python's does.
///
/// Strings are immutable and iterated in place, one character per step;
/// dicts are iterated over a snapshot of their keys, which each step hands
/// out by value.
pub enum ValueIter {
    /// Range iteration.
    Range {
        /// Next value.
        cur: i64,
        /// Exclusive stop.
        stop: i64,
        /// Step (nonzero).
        step: i64,
    },
    /// Live list iteration by index (reads under the lock each step).
    List {
        /// The shared list.
        list: Arc<crate::value::ObjLock<Vec<Value>>>,
        /// Next index.
        idx: usize,
    },
    /// Owned list or tuple iteration: the items, moved out in order.
    Owned(std::vec::IntoIter<Value>),
    /// Tuple iteration.
    Tuple {
        /// The tuple.
        items: Arc<Vec<Value>>,
        /// Next index.
        idx: usize,
    },
    /// String iteration (per character, stepped lazily; each character is
    /// an inline string).
    Chars {
        /// The string (immutable, so a copy is a snapshot).
        s: Str,
        /// Byte offset of the next character.
        pos: usize,
    },
    /// Dict-key iteration (snapshot of keys, each moved out in turn).
    Keys(std::vec::IntoIter<HKey>),
}

impl ValueIter {
    /// Build an iterator for a borrowed value (a list is iterated live).
    ///
    /// # Errors
    ///
    /// `TypeError` if the value is not iterable.
    pub fn new(v: &Value) -> Result<ValueIter, PyErr> {
        Ok(match v {
            Value::Range(start, stop, step) => ValueIter::Range {
                cur: *start,
                stop: *stop,
                step: *step,
            },
            Value::List(l) => ValueIter::List {
                list: Arc::clone(l),
                idx: 0,
            },
            Value::Tuple(t) => ValueIter::Tuple {
                items: Arc::clone(t),
                idx: 0,
            },
            Value::Str(s) => ValueIter::Chars {
                s: s.clone(),
                pos: 0,
            },
            Value::Dict(d) => {
                ValueIter::Keys(d.read().keys().cloned().collect::<Vec<_>>().into_iter())
            }
            other => {
                return Err(type_err(format!(
                    "'{}' object is not iterable",
                    other.type_name()
                )))
            }
        })
    }

    /// Build an iterator that takes `v`: a list or tuple whose only
    /// reference this is iterates owned, anything else as [`ValueIter::new`].
    ///
    /// # Errors
    ///
    /// `TypeError` if the value is not iterable.
    pub fn new_owned(v: Value) -> Result<ValueIter, PyErr> {
        // `try_unwrap` succeeds only for the last strong reference, and
        // minipy makes no weak ones: no one else can reach the items.
        Ok(match v {
            Value::List(l) => match Arc::try_unwrap(l) {
                Ok(items) => ValueIter::Owned(items.into_inner().into_iter()),
                Err(list) => ValueIter::List { list, idx: 0 },
            },
            Value::Tuple(t) => match Arc::try_unwrap(t) {
                Ok(items) => ValueIter::Owned(items.into_iter()),
                Err(items) => ValueIter::Tuple { items, idx: 0 },
            },
            other => return ValueIter::new(&other),
        })
    }

    /// Materialize the remaining items into a vector.
    pub fn collect_vec(self) -> Vec<Value> {
        self.collect()
    }
}

impl Iterator for ValueIter {
    type Item = Value;

    fn next(&mut self) -> Option<Value> {
        match self {
            ValueIter::Range { cur, stop, step } => {
                if (*step > 0 && *cur < *stop) || (*step < 0 && *cur > *stop) {
                    let v = *cur;
                    *cur += *step;
                    Some(Value::Int(v))
                } else {
                    None
                }
            }
            ValueIter::List { list, idx } => {
                let items = list.read();
                if *idx < items.len() {
                    let v = items[*idx].clone();
                    *idx += 1;
                    Some(v)
                } else {
                    None
                }
            }
            ValueIter::Tuple { items, idx } => {
                if *idx < items.len() {
                    let v = items[*idx].clone();
                    *idx += 1;
                    Some(v)
                } else {
                    None
                }
            }
            ValueIter::Chars { s, pos } => {
                let c = s[*pos..].chars().next()?;
                let start = *pos;
                *pos += c.len_utf8();
                Some(Value::str(&s[start..*pos]))
            }
            ValueIter::Owned(items) => items.next(),
            ValueIter::Keys(keys) => keys.next().map(HKey::into_value),
        }
    }
}
