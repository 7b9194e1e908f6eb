//! AST → bytecode lowering.
//!
//! Compilation is two passes over the (shared, immutable) function body:
//!
//! 1. **Scan** — reject constructs the VM does not execute (returning a
//!    [`FallbackReason`] so the caller tree-walks instead), assign register
//!    slots to every name the function assigns, record `global`/`nonlocal`
//!    declarations, and intern literal constants.
//! 2. **Emit** — lower statements to [`Op`]s. Temporaries are allocated with
//!    stack discipline above the locals; constants are referenced through a
//!    high-bit tag and rewritten to their final registers (above the highest
//!    temporary) once the temporary high-water mark is known.
//!
//! The compiler is deliberately conservative: anything whose tree-walker
//! semantics the VM cannot reproduce *exactly* (nested `def`, `lambda`,
//! `try`/`except`, imports, late `global` declarations, …) falls back, so
//! the VM (`OMP4RS_MINIPY_VM=on`, the default) is always safe to leave on.

use std::collections::HashMap;
use std::sync::Arc;

use crate::ast::*;
use crate::value::Value;

use super::opcode::{CompiledCode, Op, Reg, NO_KW};

/// Why a function is not VM-eligible (the tree-walker runs it instead).
///
/// Each variant's [`FallbackReason::as_str`] spelling is published as a
/// `minipy.vm.fallback.<reason>` counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// A nested `def` (closures over VM locals are not representable).
    NestedDef,
    /// A `lambda` expression (same restriction as nested `def`).
    Lambda,
    /// `import` / `from … import` (mutates the frame dynamically).
    Import,
    /// `try` with `except` handlers or an `else` clause.
    TryExcept,
    /// `return` / `break` / `continue` lexically inside a `try` block.
    ControlFlowInTry,
    /// `global` / `nonlocal` not in leading position of the function body.
    LateDeclaration,
    /// A parameter also declared `global` / `nonlocal`.
    DeclaredParam,
    /// `del` of a `global` / `nonlocal`-declared name.
    DelDeclared,
    /// An assignment or `del` target shape the VM does not lower
    /// (e.g. attribute assignment).
    UnsupportedTarget,
    /// Register / constant / name-table demand exceeds the 15-bit encoding.
    TooLarge,
}

impl FallbackReason {
    /// Stable counter-suffix spelling of the reason.
    pub fn as_str(self) -> &'static str {
        match self {
            FallbackReason::NestedDef => "nested-def",
            FallbackReason::Lambda => "lambda",
            FallbackReason::Import => "import",
            FallbackReason::TryExcept => "try-except",
            FallbackReason::ControlFlowInTry => "control-flow-in-try",
            FallbackReason::LateDeclaration => "late-declaration",
            FallbackReason::DeclaredParam => "declared-param",
            FallbackReason::DelDeclared => "del-declared",
            FallbackReason::UnsupportedTarget => "unsupported-target",
            FallbackReason::TooLarge => "too-large",
        }
    }
}

/// Constant registers are referenced through this tag during emission and
/// rewritten to concrete registers in [`Compiler::finalize`].
const CONST_TAG: u16 = 0x8000;
/// Hard ceiling on locals + temporaries + constants (15-bit register space).
const MAX_REGS: usize = 0x4000;

/// How a name binds inside the function being compiled.
#[derive(Clone, Copy, PartialEq)]
enum Binding {
    /// Assigned somewhere in the body: a local register slot.
    Local(u16),
    /// Declared `global`/`nonlocal`: reads/writes go through a bound cell.
    Cell(u16),
}

/// Interning key for the constant table (`f64` by bit pattern).
#[derive(PartialEq, Eq, Hash)]
enum ConstKey {
    None,
    Bool(bool),
    Int(i64),
    Float(u64),
    Str(String),
}

/// Compile one function definition to bytecode.
///
/// # Errors
///
/// Returns the first [`FallbackReason`] encountered; the caller must run the
/// function through the tree-walker.
pub fn compile_function(def: &Arc<FuncDef>) -> Result<Arc<CompiledCode>, FallbackReason> {
    let mut c = Compiler::new(def);
    c.scan()?;
    c.emit_body()?;
    c.finalize()
}

/// One `(global|nonlocal, name, cell slot, line)` leading declaration.
struct Decl {
    is_global: bool,
    name: String,
    cell: u16,
    line: u32,
}

struct Compiler<'a> {
    def: &'a FuncDef,

    // Scan results.
    bindings: HashMap<String, Binding>,
    local_names: Vec<String>,
    decls: Vec<Decl>,
    n_cells: u16,
    consts: Vec<Value>,
    const_map: HashMap<ConstKey, u16>,

    // Emission state.
    ops: Vec<Op>,
    lines: Vec<u32>,
    cur_line: u32,
    names: Vec<String>,
    name_map: HashMap<String, u16>,
    kw_tables: Vec<Vec<String>>,
    free_cells: HashMap<String, u16>,
    n_sites: u16,
    temp_sp: u16,
    max_temp: u16,
    loop_depth: u16,
    n_iters: u16,
    /// `(continue_target, break_patch_sites, iterator_slot)` per open loop.
    loops: Vec<(u32, Vec<usize>, Option<u16>)>,
}

impl<'a> Compiler<'a> {
    fn new(def: &'a FuncDef) -> Compiler<'a> {
        Compiler {
            def,
            bindings: HashMap::new(),
            local_names: Vec::new(),
            decls: Vec::new(),
            n_cells: 0,
            consts: Vec::new(),
            const_map: HashMap::new(),
            ops: Vec::new(),
            lines: Vec::new(),
            cur_line: def.line,
            names: Vec::new(),
            name_map: HashMap::new(),
            kw_tables: Vec::new(),
            free_cells: HashMap::new(),
            n_sites: 0,
            temp_sp: 0,
            max_temp: 0,
            loop_depth: 0,
            n_iters: 0,
            loops: Vec::new(),
        }
    }

    // ---- pass 1: scan ---------------------------------------------------

    /// Number of leading `global`/`nonlocal` statements (the only position
    /// the VM supports declarations in; they lower to prologue cell binds).
    fn leading_decls(def: &FuncDef) -> usize {
        def.body
            .iter()
            .take_while(|s| matches!(s.kind, StmtKind::Global(_) | StmtKind::Nonlocal(_)))
            .count()
    }

    fn scan(&mut self) -> Result<(), FallbackReason> {
        let def = self.def;
        // Leading `global`/`nonlocal` declarations bind cells; anywhere else
        // they would change binding kinds mid-function, which the slot model
        // cannot express — fall back (scan_stmt rejects late ones).
        for stmt in &def.body[..Self::leading_decls(def)] {
            let (is_global, names) = match &stmt.kind {
                StmtKind::Global(names) => (true, names),
                StmtKind::Nonlocal(names) => (false, names),
                _ => unreachable!("leading_decls only admits declarations"),
            };
            for name in names {
                if def.params.iter().any(|p| &p.name == name) {
                    return Err(FallbackReason::DeclaredParam);
                }
                let cell = match self.bindings.get(name) {
                    Some(Binding::Cell(c)) => *c,
                    _ => {
                        let c = self.n_cells;
                        self.n_cells += 1;
                        self.bindings.insert(name.clone(), Binding::Cell(c));
                        c
                    }
                };
                self.decls.push(Decl {
                    is_global,
                    name: name.clone(),
                    cell,
                    line: stmt.line,
                });
            }
        }
        for param in &def.params {
            self.add_local(&param.name);
        }
        for stmt in &def.body[Self::leading_decls(def)..] {
            self.scan_stmt(stmt, false)?;
        }
        Ok(())
    }

    fn add_local(&mut self, name: &str) -> u16 {
        match self.bindings.get(name) {
            Some(Binding::Local(s)) => *s,
            Some(Binding::Cell(_)) => u16::MAX, // declared: never a slot
            None => {
                let slot = self.local_names.len() as u16;
                self.local_names.push(name.to_owned());
                self.bindings.insert(name.to_owned(), Binding::Local(slot));
                slot
            }
        }
    }

    fn scan_stmt(&mut self, stmt: &Stmt, in_try: bool) -> Result<(), FallbackReason> {
        match &stmt.kind {
            StmtKind::Expr(e) => self.scan_expr(e),
            StmtKind::Assign { targets, value } => {
                self.scan_expr(value)?;
                for t in targets {
                    self.scan_target(t)?;
                }
                Ok(())
            }
            StmtKind::AugAssign { target, value, .. } => {
                self.scan_expr(value)?;
                match target {
                    Expr::Name(name) => {
                        self.add_local(name);
                        Ok(())
                    }
                    Expr::Index { value, index } => {
                        self.scan_expr(value)?;
                        self.scan_expr(index)
                    }
                    _ => Err(FallbackReason::UnsupportedTarget),
                }
            }
            StmtKind::If { test, body, orelse } => {
                self.scan_expr(test)?;
                self.scan_block(body, in_try)?;
                self.scan_block(orelse, in_try)
            }
            StmtKind::While { test, body } => {
                self.scan_expr(test)?;
                self.scan_block(body, in_try)
            }
            StmtKind::For { target, iter, body } => {
                self.scan_expr(iter)?;
                self.scan_target(target)?;
                self.scan_block(body, in_try)
            }
            StmtKind::FuncDef(_) => Err(FallbackReason::NestedDef),
            StmtKind::Return(v) => {
                if in_try {
                    return Err(FallbackReason::ControlFlowInTry);
                }
                if let Some(e) = v {
                    self.scan_expr(e)?;
                }
                Ok(())
            }
            StmtKind::Break | StmtKind::Continue => {
                if in_try {
                    return Err(FallbackReason::ControlFlowInTry);
                }
                Ok(())
            }
            StmtKind::Pass => Ok(()),
            StmtKind::Global(_) | StmtKind::Nonlocal(_) => Err(FallbackReason::LateDeclaration),
            StmtKind::With { items, body } => {
                for item in items {
                    self.scan_expr(&item.context)?;
                    if let Some(alias) = &item.alias {
                        self.add_local(alias);
                    }
                }
                self.scan_block(body, in_try)
            }
            StmtKind::Try {
                body,
                handlers,
                orelse,
                finalbody,
            } => {
                if !handlers.is_empty() || !orelse.is_empty() {
                    return Err(FallbackReason::TryExcept);
                }
                self.scan_block(body, true)?;
                self.scan_block(finalbody, in_try)
            }
            StmtKind::Raise(v) => {
                if let Some(e) = v {
                    self.scan_expr(e)?;
                }
                Ok(())
            }
            StmtKind::Assert { test, msg } => {
                self.scan_expr(test)?;
                if let Some(m) = msg {
                    self.scan_expr(m)?;
                }
                Ok(())
            }
            StmtKind::Del(targets) => {
                for t in targets {
                    match t {
                        Expr::Name(name) => {
                            if matches!(self.bindings.get(name), Some(Binding::Cell(_))) {
                                return Err(FallbackReason::DelDeclared);
                            }
                            self.add_local(name);
                        }
                        Expr::Index { value, index } => {
                            self.scan_expr(value)?;
                            self.scan_expr(index)?;
                        }
                        _ => return Err(FallbackReason::UnsupportedTarget),
                    }
                }
                Ok(())
            }
            StmtKind::Import { .. } | StmtKind::FromImport { .. } => Err(FallbackReason::Import),
        }
    }

    fn scan_block(&mut self, body: &[Stmt], in_try: bool) -> Result<(), FallbackReason> {
        for stmt in body {
            self.scan_stmt(stmt, in_try)?;
        }
        Ok(())
    }

    fn scan_target(&mut self, target: &Expr) -> Result<(), FallbackReason> {
        match target {
            Expr::Name(name) => {
                self.add_local(name);
                Ok(())
            }
            Expr::Tuple(items) | Expr::List(items) => {
                for item in items {
                    self.scan_target(item)?;
                }
                Ok(())
            }
            Expr::Index { value, index } => {
                self.scan_expr(value)?;
                self.scan_expr(index)
            }
            _ => Err(FallbackReason::UnsupportedTarget),
        }
    }

    fn scan_expr(&mut self, expr: &Expr) -> Result<(), FallbackReason> {
        match expr {
            Expr::Int(v) => {
                self.intern(ConstKey::Int(*v), || Value::Int(*v));
                Ok(())
            }
            Expr::Float(v) => {
                self.intern(ConstKey::Float(v.to_bits()), || Value::Float(*v));
                Ok(())
            }
            Expr::Str(s) => {
                self.intern(ConstKey::Str(s.clone()), || Value::str(s.as_str()));
                Ok(())
            }
            Expr::Bool(b) => {
                self.intern(ConstKey::Bool(*b), || Value::Bool(*b));
                Ok(())
            }
            Expr::None => {
                self.intern(ConstKey::None, || Value::None);
                Ok(())
            }
            Expr::Name(_) => Ok(()),
            Expr::Binary { left, right, .. } => {
                self.scan_expr(left)?;
                self.scan_expr(right)
            }
            Expr::Unary { operand, .. } => self.scan_expr(operand),
            Expr::BoolOp { values, .. } => {
                for v in values {
                    self.scan_expr(v)?;
                }
                Ok(())
            }
            Expr::Compare {
                left, comparators, ..
            } => {
                self.scan_expr(left)?;
                for c in comparators {
                    self.scan_expr(c)?;
                }
                Ok(())
            }
            Expr::Call { func, args, kwargs } => {
                // The callee of an attribute call is dispatched specially at
                // emit time; its base is still an ordinary expression.
                match &**func {
                    Expr::Attribute { value, .. } => self.scan_expr(value)?,
                    other => self.scan_expr(other)?,
                }
                for a in args {
                    self.scan_expr(a)?;
                }
                for (_, v) in kwargs {
                    self.scan_expr(v)?;
                }
                Ok(())
            }
            Expr::Attribute { value, .. } => self.scan_expr(value),
            Expr::Index { value, index } => {
                self.scan_expr(value)?;
                self.scan_expr(index)
            }
            Expr::Slice { lower, upper, step } => {
                for bound in [lower, upper, step] {
                    match bound {
                        Some(e) => self.scan_expr(e)?,
                        None => {
                            self.intern(ConstKey::None, || Value::None);
                        }
                    }
                }
                Ok(())
            }
            Expr::List(items) | Expr::Tuple(items) => {
                for item in items {
                    self.scan_expr(item)?;
                }
                Ok(())
            }
            Expr::Dict(pairs) => {
                for (k, v) in pairs {
                    self.scan_expr(k)?;
                    self.scan_expr(v)?;
                }
                Ok(())
            }
            Expr::IfExp { test, body, orelse } => {
                self.scan_expr(test)?;
                self.scan_expr(body)?;
                self.scan_expr(orelse)
            }
            Expr::Lambda { .. } => Err(FallbackReason::Lambda),
        }
    }

    fn intern(&mut self, key: ConstKey, make: impl FnOnce() -> Value) -> u16 {
        if let Some(idx) = self.const_map.get(&key) {
            return *idx;
        }
        let idx = self.consts.len() as u16;
        self.consts.push(make());
        self.const_map.insert(key, idx);
        idx
    }

    // ---- pass 2: emit ---------------------------------------------------

    fn n_locals(&self) -> u16 {
        self.local_names.len() as u16
    }

    fn emit(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.lines.push(self.cur_line);
        self.ops.len() - 1
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.ops[at] {
            Op::Jump { target: t }
            | Op::JumpIfFalse { target: t, .. }
            | Op::JumpIfTrue { target: t, .. }
            | Op::IterNext { exit: t, .. }
            | Op::SetupFinally { target: t } => *t = target,
            other => unreachable!("patch target is not a jump: {other:?}"),
        }
    }

    fn push_temp(&mut self) -> Result<Reg, FallbackReason> {
        let reg = self.n_locals() + self.temp_sp;
        self.temp_sp += 1;
        self.max_temp = self.max_temp.max(self.temp_sp);
        if (reg as usize) + self.consts.len() >= MAX_REGS {
            return Err(FallbackReason::TooLarge);
        }
        Ok(reg)
    }

    fn name_idx(&mut self, name: &str) -> u16 {
        if let Some(i) = self.name_map.get(name) {
            return *i;
        }
        let i = self.names.len() as u16;
        self.names.push(name.to_owned());
        self.name_map.insert(name.to_owned(), i);
        i
    }

    /// The cell-cache slot for a free (never-assigned, undeclared) name.
    fn free_cell(&mut self, name: &str) -> u16 {
        if let Some(c) = self.free_cells.get(name) {
            return *c;
        }
        let c = self.n_cells;
        self.n_cells += 1;
        self.free_cells.insert(name.to_owned(), c);
        c
    }

    fn emit_body(&mut self) -> Result<(), FallbackReason> {
        // Prologue: bind declared cells in declaration order.
        let decls = std::mem::take(&mut self.decls);
        for d in &decls {
            self.cur_line = if d.line > 0 { d.line } else { self.def.line };
            let name = self.name_idx(&d.name);
            if d.is_global {
                self.emit(Op::BindGlobal { cell: d.cell, name });
            } else {
                self.emit(Op::BindNonlocal { cell: d.cell, name });
            }
        }
        self.decls = decls;
        // Skip the leading declarations already lowered above.
        let def = self.def;
        self.block(&def.body[Self::leading_decls(def)..])?;
        self.emit(Op::ReturnNone);
        Ok(())
    }

    fn block(&mut self, stmts: &[Stmt]) -> Result<(), FallbackReason> {
        for stmt in stmts {
            self.stmt(stmt)?;
        }
        Ok(())
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<(), FallbackReason> {
        let saved_line = self.cur_line;
        if stmt.line > 0 {
            self.cur_line = stmt.line;
        }
        let saved_sp = self.temp_sp;
        let result = self.stmt_inner(stmt);
        self.temp_sp = saved_sp;
        self.cur_line = saved_line;
        result
    }

    fn stmt_inner(&mut self, stmt: &Stmt) -> Result<(), FallbackReason> {
        match &stmt.kind {
            StmtKind::Expr(e) => {
                let t = self.push_temp()?;
                self.expr(e, t)
            }
            StmtKind::Assign { targets, value } => {
                // Single local-name target: evaluate straight into the slot
                // (expr() guarantees the slot is written exactly once, as its
                // last action, so a mid-expression error leaves it untouched).
                if let [Expr::Name(name)] = targets.as_slice() {
                    if let Some(Binding::Local(slot)) = self.bindings.get(name).copied() {
                        return self.expr(value, slot);
                    }
                }
                let t = self.push_temp()?;
                self.expr(value, t)?;
                for target in targets {
                    self.assign_to(target, t)?;
                }
                Ok(())
            }
            StmtKind::AugAssign { target, op, value } => {
                // Tree-walker order: RHS first, then the target.
                let src = self.operand(value)?;
                match target {
                    Expr::Name(name) => match self.bindings.get(name).copied() {
                        Some(Binding::Local(slot)) => {
                            self.emit(Op::AugLocal { op: *op, slot, src });
                            Ok(())
                        }
                        Some(Binding::Cell(cell)) => {
                            self.emit(Op::AugCell { op: *op, cell, src });
                            Ok(())
                        }
                        None => unreachable!("scan allocated a slot for aug target"),
                    },
                    Expr::Index { value: obj, index } => {
                        let o = self.operand(obj)?;
                        let i = self.operand(index)?;
                        let old = self.push_temp()?;
                        self.emit(Op::GetItem {
                            dst: old,
                            obj: o,
                            idx: i,
                        });
                        self.emit(Op::Binary {
                            op: *op,
                            dst: old,
                            l: old,
                            r: src,
                        });
                        self.emit(Op::SetItem {
                            obj: o,
                            idx: i,
                            src: old,
                        });
                        Ok(())
                    }
                    _ => unreachable!("scan rejected other aug targets"),
                }
            }
            StmtKind::If { test, body, orelse } => {
                let cond = self.operand(test)?;
                let jf = self.emit(Op::JumpIfFalse { cond, target: 0 });
                self.block(body)?;
                if orelse.is_empty() {
                    let end = self.here();
                    self.patch(jf, end);
                } else {
                    let je = self.emit(Op::Jump { target: 0 });
                    let l_else = self.here();
                    self.patch(jf, l_else);
                    self.block(orelse)?;
                    let end = self.here();
                    self.patch(je, end);
                }
                Ok(())
            }
            StmtKind::While { test, body } => {
                let top = self.here();
                let saved_sp = self.temp_sp;
                let cond = self.operand(test)?;
                let jf = self.emit(Op::JumpIfFalse { cond, target: 0 });
                self.temp_sp = saved_sp;
                self.loops.push((top, Vec::new(), None));
                self.block(body)?;
                self.emit(Op::Jump { target: top });
                let exit = self.here();
                self.patch(jf, exit);
                let (_, breaks, _) = self.loops.pop().expect("loop stack");
                for b in breaks {
                    self.patch(b, exit);
                }
                Ok(())
            }
            StmtKind::For { target, iter, body } => {
                let iter_slot = self.loop_depth;
                self.n_iters = self.n_iters.max(iter_slot + 1);
                let src = self.operand(iter)?;
                self.emit(Op::IterNew {
                    iter: iter_slot,
                    src,
                });
                let top = self.here();
                let saved_sp = self.temp_sp;
                // A plain local-name target receives the item directly.
                let direct = match target {
                    Expr::Name(name) => match self.bindings.get(name).copied() {
                        Some(Binding::Local(slot)) => Some(slot),
                        _ => None,
                    },
                    _ => None,
                };
                let (dst, next) = match direct {
                    Some(slot) => {
                        let next = self.emit(Op::IterNext {
                            iter: iter_slot,
                            dst: slot,
                            exit: 0,
                        });
                        (None, next)
                    }
                    None => {
                        let t = self.push_temp()?;
                        let next = self.emit(Op::IterNext {
                            iter: iter_slot,
                            dst: t,
                            exit: 0,
                        });
                        (Some(t), next)
                    }
                };
                if let Some(t) = dst {
                    self.assign_to(target, t)?;
                }
                self.temp_sp = saved_sp;
                self.loops.push((top, Vec::new(), Some(iter_slot)));
                self.loop_depth += 1;
                self.block(body)?;
                self.loop_depth -= 1;
                self.emit(Op::Jump { target: top });
                let exit = self.here();
                self.patch(next, exit);
                let (_, breaks, _) = self.loops.pop().expect("loop stack");
                for b in breaks {
                    self.patch(b, exit);
                }
                Ok(())
            }
            StmtKind::Return(value) => {
                match value {
                    Some(e) => {
                        let src = self.operand(e)?;
                        self.emit(Op::Return { src });
                    }
                    None => {
                        self.emit(Op::ReturnNone);
                    }
                }
                Ok(())
            }
            StmtKind::Break => {
                let (_, _, iter_slot) = *self.loops.last().expect("scan verified loop context");
                if let Some(slot) = iter_slot {
                    self.emit(Op::IterClear { iter: slot });
                }
                let j = self.emit(Op::Jump { target: 0 });
                self.loops.last_mut().expect("loop stack").1.push(j);
                Ok(())
            }
            StmtKind::Continue => {
                let (top, _, _) = *self.loops.last().expect("scan verified loop context");
                self.emit(Op::Jump { target: top });
                Ok(())
            }
            StmtKind::Pass => Ok(()),
            StmtKind::Global(_) | StmtKind::Nonlocal(_) => {
                unreachable!("leading declarations lowered in prologue; late ones rejected")
            }
            StmtKind::With { items, body } => {
                for item in items {
                    let saved = self.temp_sp;
                    let t = self.push_temp()?;
                    self.expr(&item.context, t)?;
                    if let Some(alias) = &item.alias {
                        self.assign_to(&Expr::Name(alias.clone()), t)?;
                    }
                    self.temp_sp = saved;
                }
                self.block(body)
            }
            StmtKind::Try {
                body, finalbody, ..
            } => {
                if finalbody.is_empty() {
                    // `try:` with nothing but a body (no handlers — scan
                    // rejected those) degenerates to the body.
                    return self.block(body);
                }
                let setup = self.emit(Op::SetupFinally { target: 0 });
                self.block(body)?;
                self.emit(Op::PopBlock);
                // Normal path: run the finally body inline, skip the
                // error-path copy.
                self.block(finalbody)?;
                let done = self.emit(Op::Jump { target: 0 });
                let l_err = self.here();
                self.patch(setup, l_err);
                // Error path: same finally body, then re-raise the pending
                // exception (a fresh error inside the body replaces it, as
                // the tree-walker's finalbody result replacement does).
                self.block(finalbody)?;
                self.emit(Op::Reraise);
                let end = self.here();
                self.patch(done, end);
                Ok(())
            }
            StmtKind::Raise(value) => {
                match value {
                    Some(e) => {
                        let src = self.operand(e)?;
                        self.emit(Op::Raise { src });
                    }
                    None => {
                        self.emit(Op::RaiseBare);
                    }
                }
                Ok(())
            }
            StmtKind::Assert { test, msg } => {
                let cond = self.operand(test)?;
                let jt = self.emit(Op::JumpIfTrue { cond, target: 0 });
                // The message is evaluated only on failure.
                let msg_reg = match msg {
                    Some(m) => self.operand(m)?,
                    None => NO_KW,
                };
                self.emit(Op::AssertFail { msg: msg_reg });
                let end = self.here();
                self.patch(jt, end);
                Ok(())
            }
            StmtKind::Del(targets) => {
                for target in targets {
                    match target {
                        Expr::Name(name) => match self.bindings.get(name).copied() {
                            Some(Binding::Local(slot)) => {
                                self.emit(Op::DelLocal { slot });
                            }
                            _ => unreachable!("scan allocated slots for del names"),
                        },
                        Expr::Index { value, index } => {
                            let obj = self.operand(value)?;
                            let idx = self.operand(index)?;
                            self.emit(Op::DelItem { obj, idx });
                        }
                        _ => unreachable!("scan rejected other del targets"),
                    }
                }
                Ok(())
            }
            StmtKind::FuncDef(_) | StmtKind::Import { .. } | StmtKind::FromImport { .. } => {
                unreachable!("scan rejected this statement kind")
            }
        }
    }

    fn assign_to(&mut self, target: &Expr, src: Reg) -> Result<(), FallbackReason> {
        match target {
            Expr::Name(name) => match self.bindings.get(name).copied() {
                Some(Binding::Local(slot)) => {
                    if slot != src {
                        self.emit(Op::Copy { dst: slot, src });
                    }
                    Ok(())
                }
                Some(Binding::Cell(cell)) => {
                    self.emit(Op::StoreCell { cell, src });
                    Ok(())
                }
                None => unreachable!("scan allocated slots for assigned names"),
            },
            Expr::Tuple(items) | Expr::List(items) => {
                let saved = self.temp_sp;
                let base = self.n_locals() + self.temp_sp;
                for _ in items {
                    self.push_temp()?;
                }
                self.emit(Op::UnpackSeq {
                    base,
                    n: items.len() as u16,
                    src,
                });
                for (i, item) in items.iter().enumerate() {
                    self.assign_to(item, base + i as u16)?;
                }
                self.temp_sp = saved;
                Ok(())
            }
            Expr::Index { value, index } => {
                let saved = self.temp_sp;
                let obj = self.operand(value)?;
                let idx = self.operand(index)?;
                self.emit(Op::SetItem { obj, idx, src });
                self.temp_sp = saved;
                Ok(())
            }
            _ => unreachable!("scan rejected other assignment targets"),
        }
    }

    /// Place an expression's value in a register with minimal copying:
    /// literals and local names map to existing registers with no code.
    fn operand(&mut self, expr: &Expr) -> Result<Reg, FallbackReason> {
        match expr {
            Expr::Int(v) => Ok(CONST_TAG | self.intern(ConstKey::Int(*v), || Value::Int(*v))),
            Expr::Float(v) => {
                Ok(CONST_TAG | self.intern(ConstKey::Float(v.to_bits()), || Value::Float(*v)))
            }
            Expr::Str(s) => {
                Ok(CONST_TAG | self.intern(ConstKey::Str(s.clone()), || Value::str(s.as_str())))
            }
            Expr::Bool(b) => Ok(CONST_TAG | self.intern(ConstKey::Bool(*b), || Value::Bool(*b))),
            Expr::None => Ok(CONST_TAG | self.intern(ConstKey::None, || Value::None)),
            Expr::Name(name) => match self.bindings.get(name).copied() {
                Some(Binding::Local(slot)) => Ok(slot),
                _ => {
                    let t = self.push_temp()?;
                    self.expr(expr, t)?;
                    Ok(t)
                }
            },
            _ => {
                let t = self.push_temp()?;
                self.expr(expr, t)?;
                Ok(t)
            }
        }
    }

    /// Compile `expr` so that `dst` is written exactly once, as the final
    /// action (so an error mid-expression leaves `dst` untouched, and `dst`
    /// may alias a register the expression itself reads).
    fn expr(&mut self, expr: &Expr, dst: Reg) -> Result<(), FallbackReason> {
        let saved_sp = self.temp_sp;
        self.expr_inner(expr, dst)?;
        self.temp_sp = saved_sp;
        Ok(())
    }

    /// Whether `dst` is a scratch register the program cannot observe
    /// mid-expression (multi-write lowerings are only safe there).
    fn is_scratch(&self, dst: Reg) -> bool {
        dst >= self.n_locals() && dst & CONST_TAG == 0
    }

    fn expr_inner(&mut self, expr: &Expr, dst: Reg) -> Result<(), FallbackReason> {
        match expr {
            Expr::Int(_) | Expr::Float(_) | Expr::Str(_) | Expr::Bool(_) | Expr::None => {
                let src = self.operand(expr)?;
                self.emit(Op::Copy { dst, src });
                Ok(())
            }
            Expr::Name(name) => match self.bindings.get(name).copied() {
                Some(Binding::Local(slot)) => {
                    self.emit(Op::Copy { dst, src: slot });
                    Ok(())
                }
                Some(Binding::Cell(cell)) => {
                    self.emit(Op::LoadCell { dst, cell });
                    Ok(())
                }
                None => {
                    let cell = self.free_cell(name);
                    let name = self.name_idx(name);
                    self.emit(Op::LoadFree { dst, cell, name });
                    Ok(())
                }
            },
            Expr::Binary { op, left, right } => {
                let l = self.operand(left)?;
                let r = self.operand(right)?;
                self.emit(Op::Binary { op: *op, dst, l, r });
                Ok(())
            }
            Expr::Unary { op, operand } => {
                let s = self.operand(operand)?;
                self.emit(Op::Unary { op: *op, dst, s });
                Ok(())
            }
            Expr::BoolOp { op, values } => {
                // Multi-write lowering: route through a scratch register when
                // dst could be read by a later value expression.
                if !self.is_scratch(dst) {
                    let t = self.push_temp()?;
                    self.expr_inner(expr, t)?;
                    self.emit(Op::Copy { dst, src: t });
                    return Ok(());
                }
                let mut exits = Vec::new();
                for (i, v) in values.iter().enumerate() {
                    let saved = self.temp_sp;
                    self.expr_inner(v, dst)?;
                    self.temp_sp = saved;
                    if i + 1 < values.len() {
                        let j = match op {
                            BoolOpKind::And => self.emit(Op::JumpIfFalse {
                                cond: dst,
                                target: 0,
                            }),
                            BoolOpKind::Or => self.emit(Op::JumpIfTrue {
                                cond: dst,
                                target: 0,
                            }),
                        };
                        exits.push(j);
                    }
                }
                let end = self.here();
                for j in exits {
                    self.patch(j, end);
                }
                Ok(())
            }
            Expr::Compare {
                left,
                ops,
                comparators,
            } => {
                if ops.len() == 1 {
                    let l = self.operand(left)?;
                    let r = self.operand(&comparators[0])?;
                    self.emit(Op::Compare {
                        op: ops[0],
                        dst,
                        l,
                        r,
                    });
                    return Ok(());
                }
                // Chained comparison: multi-write, needs a scratch dst.
                if !self.is_scratch(dst) {
                    let t = self.push_temp()?;
                    self.expr_inner(expr, t)?;
                    self.emit(Op::Copy { dst, src: t });
                    return Ok(());
                }
                let mut lhs = self.operand(left)?;
                let mut exits = Vec::new();
                for (i, (op, comp)) in ops.iter().zip(comparators).enumerate() {
                    let rhs = self.operand(comp)?;
                    self.emit(Op::Compare {
                        op: *op,
                        dst,
                        l: lhs,
                        r: rhs,
                    });
                    if i + 1 < ops.len() {
                        exits.push(self.emit(Op::JumpIfFalse {
                            cond: dst,
                            target: 0,
                        }));
                    }
                    lhs = rhs;
                }
                let end = self.here();
                for j in exits {
                    self.patch(j, end);
                }
                Ok(())
            }
            Expr::Call { func, args, kwargs } => self.call(func, args, kwargs, dst),
            Expr::Attribute { value, attr } => {
                let obj = self.operand(value)?;
                let attr = self.name_idx(attr);
                self.emit(Op::GetAttr { dst, obj, attr });
                Ok(())
            }
            Expr::Index { value, index } => {
                let obj = self.operand(value)?;
                let idx = self.operand(index)?;
                self.emit(Op::GetItem { dst, obj, idx });
                Ok(())
            }
            Expr::Slice { lower, upper, step } => {
                let none = CONST_TAG | self.intern(ConstKey::None, || Value::None);
                let l = match lower {
                    Some(e) => self.operand(e)?,
                    None => none,
                };
                let u = match upper {
                    Some(e) => self.operand(e)?,
                    None => none,
                };
                let s = match step {
                    Some(e) => self.operand(e)?,
                    None => none,
                };
                self.emit(Op::BuildSlice { dst, l, u, s });
                Ok(())
            }
            Expr::List(items) => {
                let base = self.eval_seq(items)?;
                self.emit(Op::BuildList {
                    dst,
                    base,
                    n: items.len() as u16,
                });
                Ok(())
            }
            Expr::Tuple(items) => {
                let base = self.eval_seq(items)?;
                self.emit(Op::BuildTuple {
                    dst,
                    base,
                    n: items.len() as u16,
                });
                Ok(())
            }
            Expr::Dict(pairs) => {
                let base = self.n_locals() + self.temp_sp;
                for (k, v) in pairs {
                    let tk = self.push_temp()?;
                    self.expr(k, tk)?;
                    let tv = self.push_temp()?;
                    self.expr(v, tv)?;
                }
                self.emit(Op::BuildDict {
                    dst,
                    base,
                    n: pairs.len() as u16,
                });
                Ok(())
            }
            Expr::IfExp { test, body, orelse } => {
                let saved = self.temp_sp;
                let cond = self.operand(test)?;
                let jf = self.emit(Op::JumpIfFalse { cond, target: 0 });
                self.temp_sp = saved;
                self.expr_inner(body, dst)?;
                self.temp_sp = saved;
                let je = self.emit(Op::Jump { target: 0 });
                let l_else = self.here();
                self.patch(jf, l_else);
                self.expr_inner(orelse, dst)?;
                self.temp_sp = saved;
                let end = self.here();
                self.patch(je, end);
                Ok(())
            }
            Expr::Lambda { .. } => unreachable!("scan rejected lambdas"),
        }
    }

    /// Evaluate expressions into consecutive fresh temporaries; returns the
    /// base register.
    fn eval_seq(&mut self, items: &[Expr]) -> Result<Reg, FallbackReason> {
        let base = self.n_locals() + self.temp_sp;
        for item in items {
            let t = self.push_temp()?;
            self.expr(item, t)?;
        }
        Ok(base)
    }

    fn call(
        &mut self,
        func: &Expr,
        args: &[Expr],
        kwargs: &[(String, Expr)],
        dst: Reg,
    ) -> Result<(), FallbackReason> {
        // Tree-walker evaluation order: all arguments first (positional then
        // keyword), then the callee / receiver.
        if let Expr::Attribute { value, attr } = func {
            if let Expr::Name(base) = &**value {
                if kwargs.is_empty() && !self.bindings.contains_key(base.as_str()) {
                    // Free-name receiver (`__omp.for_next(…)`, `math.sqrt(…)`):
                    // dedicated opcode with a per-frame callable cache.
                    let argbase = self.eval_seq(args)?;
                    let site = self.n_sites;
                    self.n_sites += 1;
                    let base = self.name_idx(base);
                    let attr = self.name_idx(attr);
                    self.emit(Op::CallIntrinsic {
                        dst,
                        site,
                        base,
                        attr,
                        argbase,
                        argc: args.len() as u16,
                    });
                    return Ok(());
                }
            }
            let (argbase, kw) = self.eval_args(args, kwargs)?;
            let obj = self.operand(value)?;
            let attr = self.name_idx(attr);
            // Method calls get an inline-cache slot like intrinsics: the
            // VM caches the resolved built-in method there.
            let site = self.n_sites;
            self.n_sites += 1;
            self.emit(Op::CallMethod {
                dst,
                site,
                obj,
                attr,
                argbase,
                argc: args.len() as u16,
                kw,
            });
            return Ok(());
        }
        let (argbase, kw) = self.eval_args(args, kwargs)?;
        let f = self.operand(func)?;
        self.emit(Op::Call {
            dst,
            func: f,
            argbase,
            argc: args.len() as u16,
            kw,
        });
        Ok(())
    }

    fn eval_args(
        &mut self,
        args: &[Expr],
        kwargs: &[(String, Expr)],
    ) -> Result<(Reg, u16), FallbackReason> {
        let base = self.n_locals() + self.temp_sp;
        for a in args {
            let t = self.push_temp()?;
            self.expr(a, t)?;
        }
        let kw = if kwargs.is_empty() {
            NO_KW
        } else {
            for (_, v) in kwargs {
                let t = self.push_temp()?;
                self.expr(v, t)?;
            }
            let names: Vec<String> = kwargs.iter().map(|(k, _)| k.clone()).collect();
            self.kw_tables.push(names);
            (self.kw_tables.len() - 1) as u16
        };
        Ok((base, kw))
    }

    // ---- finalize -------------------------------------------------------

    fn finalize(mut self) -> Result<Arc<CompiledCode>, FallbackReason> {
        let n_locals = self.n_locals();
        let const_base = n_locals + self.max_temp;
        let n_regs = const_base as usize + self.consts.len();
        if n_regs >= MAX_REGS || self.names.len() >= u16::MAX as usize {
            return Err(FallbackReason::TooLarge);
        }
        let fix = |r: Reg| -> Reg {
            if r != NO_KW && r & CONST_TAG != 0 {
                const_base + (r & !CONST_TAG)
            } else {
                r
            }
        };
        for op in &mut self.ops {
            match op {
                Op::Copy { src, .. } => *src = fix(*src),
                Op::Binary { l, r, .. } | Op::Compare { l, r, .. } => {
                    *l = fix(*l);
                    *r = fix(*r);
                }
                Op::AugLocal { src, .. }
                | Op::AugCell { src, .. }
                | Op::StoreCell { src, .. }
                | Op::Raise { src }
                | Op::Return { src }
                | Op::UnpackSeq { src, .. }
                | Op::IterNew { src, .. } => *src = fix(*src),
                Op::Unary { s, .. } => *s = fix(*s),
                Op::JumpIfFalse { cond, .. } | Op::JumpIfTrue { cond, .. } => *cond = fix(*cond),
                Op::Call { func, .. } => *func = fix(*func),
                Op::CallMethod { obj, .. } | Op::GetAttr { obj, .. } => *obj = fix(*obj),
                Op::GetItem { obj, idx, .. } | Op::DelItem { obj, idx } => {
                    *obj = fix(*obj);
                    *idx = fix(*idx);
                }
                Op::SetItem { obj, idx, src } => {
                    *obj = fix(*obj);
                    *idx = fix(*idx);
                    *src = fix(*src);
                }
                Op::BuildSlice { l, u, s, .. } => {
                    *l = fix(*l);
                    *u = fix(*u);
                    *s = fix(*s);
                }
                Op::AssertFail { msg } => *msg = fix(*msg),
                Op::BindNonlocal { .. }
                | Op::BindGlobal { .. }
                | Op::LoadCell { .. }
                | Op::LoadFree { .. }
                | Op::Jump { .. }
                | Op::CallIntrinsic { .. }
                | Op::BuildList { .. }
                | Op::BuildTuple { .. }
                | Op::BuildDict { .. }
                | Op::IterNext { .. }
                | Op::IterClear { .. }
                | Op::SetupFinally { .. }
                | Op::PopBlock
                | Op::Reraise
                | Op::RaiseBare
                | Op::DelLocal { .. }
                | Op::ReturnNone => {}
            }
        }
        let param_slots = self
            .def
            .params
            .iter()
            .map(|p| match self.bindings.get(&p.name) {
                Some(Binding::Local(s)) => *s,
                _ => unreachable!("params are locals"),
            })
            .collect();
        let quick = (0..self.ops.len())
            .map(|_| std::sync::atomic::AtomicU8::new(0))
            .collect();
        // Fused-loop eligibility: an `IterNext` whose body is straight-line
        // register-only numeric work closed by its own back-edge can run
        // whole iterations in one quickened handler (`quick::FUSED_RANGE`).
        // Any control flow, call, cell store, or container build in the body
        // disqualifies the loop (those ops need per-op dispatch semantics —
        // ticks, materialization, unwind targets). Encoded as body length
        // plus one; 0 = ineligible.
        use super::opcode::FUSED_MAX_BODY;
        let fused = (0..self.ops.len())
            .map(|pc| {
                if !matches!(self.ops[pc], Op::IterNext { .. }) {
                    return 0;
                }
                let mut k = pc + 1;
                while k < self.ops.len() && k - pc <= FUSED_MAX_BODY {
                    match &self.ops[k] {
                        Op::Binary { .. }
                        | Op::AugLocal { .. }
                        | Op::Copy { .. }
                        | Op::LoadFree { .. } => k += 1,
                        Op::Jump { target } if *target as usize == pc => {
                            return (k - pc) as u16;
                        }
                        _ => return 0,
                    }
                }
                0
            })
            .collect();
        Ok(Arc::new(CompiledCode {
            name: self.def.name.clone(),
            ops: self.ops,
            quick,
            fused,
            lines: self.lines,
            consts: self.consts,
            names: self.names,
            kw_tables: self.kw_tables,
            n_locals,
            const_base,
            n_regs: n_regs as u16,
            n_cells: self.n_cells,
            n_iters: self.n_iters,
            n_sites: self.n_sites,
            local_names: self.local_names,
            param_slots,
        }))
    }
}
