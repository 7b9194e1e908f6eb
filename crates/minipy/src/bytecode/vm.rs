//! The dispatch-loop virtual machine.
//!
//! [`call_compiled`] is the compiled twin of the tree-walker's
//! interpreted call path: it binds arguments into register slots (with the
//! tree-walker's exact arity/keyword error messages), then dispatches the
//! instruction stream over a flat [`Frame`]. Semantics — including error
//! lines, `finally` unwinding, unset-local name resolution, and GIL
//! scheduling points — match the tree-walker; the differential suite in
//! `tests/vm_differential.rs` holds the two executions to identical output.
//!
//! GIL scheduling: the tree-walker calls `gil.tick()` before every
//! statement; compiled code ticks on loop back-edges and calls instead. Each
//! loop iteration and each call boundary therefore remains a potential
//! switch point (what CPython's eval loop guarantees), while straight-line
//! arithmetic runs untouched — that is the point of the VM. A switch point
//! is not a flush: a fused `range` loop reads each closure cell once per
//! run and keeps that value (the OpenMP temporary view; see `run_fused`).
//!
//! # Quickening
//!
//! The dispatch loop runs `step_quick`, which handles control flow and the
//! specialized forms inline and reaches the generic `step` out of line.
//! Each instruction slot carries a specialization state byte
//! (`CompiledCode::quick`):
//!
//! * `UNSEEN` — the first execution profiles the actual operand types and
//!   CAS-rewrites the slot to a specialized state (`BIN_II`, `BIN_FF`,
//!   `CMP_NUM`, `AUG_II`, `AUG_FF`, `LIST_GET`, `LIST_SET`, `ITER_RANGE`),
//!   counting `minipy.vm.quicken.rewrites`; shapes with no specialization
//!   move to `GENERIC` silently.
//! * specialized — every execution re-checks the operand-type guard; on
//!   mismatch the slot CAS-deopts to `GENERIC` permanently, counting
//!   `minipy.vm.quicken.deopts`, and the generic handler runs (so a failed
//!   guard has no side effects and identical semantics).
//! * `GENERIC` — the generic handler, with the dispatch-site inline caches
//!   ([`super::frame::IcEntry`]) armed and counted.
//!
//! A `CallMethod` site's cache holds the resolved built-in method (a
//! [`BuiltinMethod`] for one receiver [`TypeTag`]); the call lends it the
//! receiver and argument registers, so a method call clones no operand. A
//! `CallIntrinsic` on a free name with a built-in value (`counts.get(k, 0)`
//! on an enclosing function's dict) uses the same cache. The `GetItem`/
//! `SetItem` handlers borrow their container and index the same way.
//! A string of up to 22 bytes is inline in its `Value` (`Str`), so copying
//! one into an argument register touches no reference count.
//!
//! The object path's hot ops run inline in `step_quick` with no new
//! quicken state, each guarded by its shape: a dict subscript on a
//! `GENERIC` slot, a `GENERIC` `IterNext`, and a positional `CallMethod`
//! on a built-in receiver (the site's cache consulted and filled by
//! `site_method`). A miss of the shape falls through to the generic path
//! unchanged.
//!
//! Every specialized arithmetic handler calls the *same* semantic helpers
//! as the tree-walker (`int_binary`, `float_binary`, the `py_eq` coercion
//! table), so values, errors, and error messages cannot drift.
//!
//! # Unboxed registers
//!
//! Every frame carries a tag plane: specialized numeric handlers write results
//! as raw `i64`/`f64` bits instead of `Value`s, and read operands from the
//! plane. Tag-aware instructions (`Jump`, conditional jumps, `Copy`,
//! `Return`, the specialized handlers themselves, and the inline object
//! path, which checks the tag of each register it reads and boxes only
//! those) execute without a flush; any other instruction is an escape
//! point — the loop calls [`Frame::materialize`] first, so generic handlers
//! (and anything that leaks a register into a call, container, cell, or
//! closure) always see exactly the boxed state a boxed-only execution would
//! have produced.

use crate::ast::{BinOp, CmpOp};
use crate::env::Env;
use crate::error::{name_err, type_err, value_err, ErrKind, PyErr};
use crate::interp::{
    binary_op, compare, current_exception, exception_from_value, float_binary, int_binary,
    normalize_index, unary_op, Interp, SliceValue, ValueIter,
};
use crate::methods::{self, BuiltinMethod, TypeTag};
use crate::stats;
use crate::value::{Args, ArgsRef, FuncValue, HKey, Value};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::frame::{Frame, IcEntry, Num, TAG_BOXED, TAG_FLOAT, TAG_INT};
use super::opcode::{quick as qk, CompiledCode, FusedBody, Op, Reg, Src, FUSED_MAX_BODY, NO_KW};

/// What one dispatched instruction asks the loop to do next.
enum Ctl {
    /// Fall through to the next instruction.
    Next,
    /// Transfer to an absolute pc.
    Jump(usize),
    /// Leave the frame with a value.
    Ret(Value),
}

/// Execute a compiled function.
///
/// The caller (the interpreted call path) has already applied the recursion
/// guard and holds a GIL session; this replaces environment-frame creation
/// and tree-walking for the whole call.
///
/// # Errors
///
/// Exactly the errors the tree-walker would raise for the same call: arity
/// and keyword `TypeError`s, then whatever the body raises (annotated with
/// the innermost statement line).
pub fn call_compiled(
    interp: &Interp,
    f: &FuncValue,
    code: &Arc<CompiledCode>,
    args: Args,
) -> Result<Value, PyErr> {
    let mut frame = Frame::new(code);
    bind_args(f, code, &mut frame, args)?;
    let mut ops = 0u64;
    let result = run_frame(interp, f, code, &mut frame, &mut ops);
    if stats::enabled() {
        stats::add_vm_frame(ops);
    }
    result
}

/// The dispatch loop.
fn run_frame(
    interp: &Interp,
    f: &FuncValue,
    code: &CompiledCode,
    frame: &mut Frame,
    ops: &mut u64,
) -> Result<Value, PyErr> {
    let mut pc = 0usize;
    loop {
        *ops += 1;
        match step_quick(interp, f, code, frame, pc, ops) {
            Ok(Ctl::Next) => pc += 1,
            Ok(Ctl::Jump(target)) => pc = target,
            Ok(Ctl::Ret(v)) => break Ok(v),
            Err(mut e) => {
                // The tree-walker annotates errors with the innermost
                // enclosing statement's line (`with_line` keeps the first
                // annotation); `lines[pc]` is exactly that statement.
                let line = code.lines[pc];
                if line > 0 {
                    e = e.with_line(line);
                }
                match frame.blocks.pop() {
                    // Unwind into the nearest `finally` error copy. A new
                    // error raised there replaces the pending one, as the
                    // tree-walker's `finally` result replacement does.
                    Some(target) => {
                        frame.pending = Some(e);
                        pc = target as usize;
                    }
                    None => break Err(e),
                }
            }
        }
    }
}

/// Bind call arguments into parameter slots, replicating the tree-walker's
/// arity and keyword errors verbatim.
fn bind_args(
    f: &FuncValue,
    code: &CompiledCode,
    frame: &mut Frame,
    mut args: Args,
) -> Result<(), PyErr> {
    let params = &f.def.params;
    if args.pos.len() > params.len() {
        return Err(type_err(format!(
            "{}() takes {} positional arguments but {} were given",
            f.name,
            params.len(),
            args.pos.len()
        )));
    }
    let npos = args.pos.len();
    for (i, value) in args.pos.drain(..).enumerate() {
        frame.write(code.param_slots[i], value);
    }
    for (name, value) in args.kw.drain(..) {
        match params.iter().position(|p| p.name == name) {
            Some(i) if i < npos => {
                return Err(type_err(format!(
                    "{}() got multiple values for argument '{name}'",
                    f.name
                )))
            }
            Some(i) => {
                let slot = code.param_slots[i];
                if frame.is_set(slot) {
                    return Err(type_err(format!(
                        "{}() got multiple values for argument '{name}'",
                        f.name
                    )));
                }
                frame.write(slot, value);
            }
            None => {
                return Err(type_err(format!(
                    "{}() got an unexpected keyword argument '{name}'",
                    f.name
                )))
            }
        }
    }
    for (i, param) in params.iter().enumerate() {
        let slot = code.param_slots[i];
        if !frame.is_set(slot) {
            match f.defaults.get(i).and_then(Option::as_ref) {
                Some(default) => frame.write(slot, default.clone()),
                None => {
                    return Err(type_err(format!(
                        "{}() missing required argument: '{}'",
                        f.name, param.name
                    )))
                }
            }
        }
    }
    Ok(())
}

/// Collect `argc` positional registers starting at `argbase`.
fn read_args(
    frame: &Frame,
    code: &CompiledCode,
    closure: &Env,
    argbase: Reg,
    argc: u16,
) -> Result<Vec<Value>, PyErr> {
    let mut pos = Vec::with_capacity(argc as usize);
    for i in 0..argc {
        pos.push(frame.read(argbase + i, code, closure)?);
    }
    Ok(pos)
}

/// The built-in method a `CallMethod` site calls on `receiver`: the site's
/// cached method while the receiver keeps the cached type tag, otherwise
/// the method the site's name resolves to for the receiver's type, which
/// the site then caches. Counts one inline-cache hit or miss.
fn site_method(ic: &mut IcEntry, receiver: &Value, name: &str) -> Result<BuiltinMethod, PyErr> {
    let tag = TypeTag::of(receiver);
    if let IcEntry::Method(cached, method) = *ic {
        if tag == Some(cached) {
            if stats::enabled() {
                stats::count_ic(true);
            }
            return Ok(method);
        }
    }
    if stats::enabled() {
        stats::count_ic(false);
    }
    let method = methods::lookup(receiver, name)?;
    *ic = IcEntry::Method(tag.expect("a type with methods has a tag"), method);
    Ok(method)
}

/// The value of the free name `name` through the frame's cell slot `cell`:
/// the cached cell, or the closure chain's, which the slot then caches for
/// the rest of the call (CPython closure-cell semantics).
fn free_value(
    frame: &mut Frame,
    code: &CompiledCode,
    closure: &Env,
    cell: u16,
    name: u16,
) -> Result<Value, PyErr> {
    let slot = &mut frame.cells[cell as usize];
    if let Some(c) = slot {
        return Ok(c.read().clone());
    }
    let nm = &code.names[name as usize];
    let c = closure.get_cell(nm).ok_or_else(|| name_err(nm))?;
    let v = c.read().clone();
    *slot = Some(c);
    Ok(v)
}

/// Dispatch one instruction generically: the handler for ops with no
/// quickened fast path and the target of every deopt.
///
/// Kept out of line (rather than inlining this whole match into
/// [`step_quick`]) so the numeric hot loop stays cache-resident. Dispatch
/// sites run with their inline caches armed and counted — `LoadFree` cell
/// fills, `CallMethod` resolved built-in methods, and `CallIntrinsic`
/// callables and methods each record a `minipy.vm.ic.*` hit or miss per
/// execution.
#[inline(never)]
fn step(
    interp: &Interp,
    f: &FuncValue,
    code: &CompiledCode,
    frame: &mut Frame,
    pc: usize,
) -> Result<Ctl, PyErr> {
    let closure = &f.closure;
    match &code.ops[pc] {
        Op::Copy { dst, src } => {
            let v = frame.read(*src, code, closure)?;
            frame.write(*dst, v);
        }
        Op::BindNonlocal { cell, name } => {
            let nm = &code.names[*name as usize];
            // The VM call has no `Env` frame, so "strict ancestors of the
            // frame" is the closure chain itself.
            let resolved = closure.get_cell_below_root(nm).ok_or_else(|| {
                PyErr::new(
                    ErrKind::Syntax,
                    format!("no binding for nonlocal '{nm}' found"),
                )
            })?;
            frame.cells[*cell as usize] = Some(resolved);
        }
        Op::BindGlobal { cell, name } => {
            let nm = &code.names[*name as usize];
            let globals = interp.globals();
            let resolved = match globals.get_local_cell(nm) {
                Some(c) => c,
                None => {
                    globals.define(nm, Value::None);
                    globals.get_local_cell(nm).expect("just defined")
                }
            };
            frame.cells[*cell as usize] = Some(resolved);
        }
        Op::LoadCell { dst, cell } => {
            let v = frame.cells[*cell as usize]
                .as_ref()
                .expect("cell bound by prologue")
                .read()
                .clone();
            frame.write(*dst, v);
        }
        Op::StoreCell { cell, src } => {
            let v = frame.read(*src, code, closure)?;
            *frame.cells[*cell as usize]
                .as_ref()
                .expect("cell bound by prologue")
                .write() = v;
        }
        Op::LoadFree { dst, cell, name } => {
            if stats::enabled() {
                stats::count_ic(frame.cells[*cell as usize].is_some());
            }
            let v = free_value(frame, code, closure, *cell, *name)?;
            frame.write(*dst, v);
        }
        Op::Binary { op, dst, l, r } => {
            // Borrow both operands when possible (the common case: consts,
            // temps, assigned locals) — cloning `Value`s here dominates the
            // dispatch cost of numeric loops otherwise.
            let v = match (frame.read_ref(*l), frame.read_ref(*r)) {
                (Some(a), Some(b)) => binary_op(*op, a, b)?,
                _ => {
                    let a = frame.read(*l, code, closure)?;
                    let b = frame.read(*r, code, closure)?;
                    binary_op(*op, &a, &b)?
                }
            };
            frame.write(*dst, v);
        }
        Op::AugLocal { op, slot, src } => {
            if frame.is_set(*slot) {
                let new = match frame.read_ref(*src) {
                    Some(r) => binary_op(*op, &frame.regs[*slot as usize], r)?,
                    None => {
                        let r = frame.read(*src, code, closure)?;
                        binary_op(*op, &frame.regs[*slot as usize], &r)?
                    }
                };
                frame.write(*slot, new);
            } else {
                let rhs = frame.read(*src, code, closure)?;
                // The tree-walker's `x += v` mutates the nearest existing
                // binding through its cell and never creates a local.
                let nm = &code.local_names[*slot as usize];
                let cell = closure.get_cell(nm).ok_or_else(|| name_err(nm))?;
                let old = cell.read().clone();
                let new = binary_op(*op, &old, &rhs)?;
                *cell.write() = new;
            }
        }
        Op::AugCell { op, cell, src } => {
            let rhs = frame.read(*src, code, closure)?;
            let c = frame.cells[*cell as usize]
                .as_ref()
                .expect("cell bound by prologue");
            // Read-modify-write without holding the lock across the
            // operator, matching the tree-walker (and CPython: `x += 1` is
            // not atomic).
            let old = c.read().clone();
            let new = binary_op(*op, &old, &rhs)?;
            *c.write() = new;
        }
        Op::Unary { op, dst, s } => {
            let v = match frame.read_ref(*s) {
                Some(x) => unary_op(*op, x)?,
                None => {
                    let x = frame.read(*s, code, closure)?;
                    unary_op(*op, &x)?
                }
            };
            frame.write(*dst, v);
        }
        Op::Compare { op, dst, l, r } => {
            let v = match (frame.read_ref(*l), frame.read_ref(*r)) {
                (Some(a), Some(b)) => compare(*op, a, b)?,
                _ => {
                    let a = frame.read(*l, code, closure)?;
                    let b = frame.read(*r, code, closure)?;
                    compare(*op, &a, &b)?
                }
            };
            frame.write(*dst, Value::Bool(v));
        }
        Op::Jump { target } => {
            let t = *target as usize;
            if t <= pc {
                // Loop back-edge: a GIL switch point per iteration.
                interp.gil().tick();
            }
            return Ok(Ctl::Jump(t));
        }
        Op::JumpIfFalse { cond, target } => {
            let t = match frame.read_ref(*cond) {
                Some(v) => v.truthy(),
                None => frame.read(*cond, code, closure)?.truthy(),
            };
            if !t {
                return Ok(Ctl::Jump(*target as usize));
            }
        }
        Op::JumpIfTrue { cond, target } => {
            let t = match frame.read_ref(*cond) {
                Some(v) => v.truthy(),
                None => frame.read(*cond, code, closure)?.truthy(),
            };
            if t {
                return Ok(Ctl::Jump(*target as usize));
            }
        }
        Op::Call {
            dst,
            func,
            argbase,
            argc,
            kw,
        } => {
            let pos = read_args(frame, code, closure, *argbase, *argc)?;
            let kwargs = read_kwargs(frame, code, closure, *argbase + *argc, *kw)?;
            // Argument registers were populated before the callee register,
            // preserving the tree-walker's argument-then-callee order.
            let callee = frame.read(*func, code, closure)?;
            interp.gil().tick();
            let v = interp.call_value(&callee, Args { pos, kw: kwargs })?;
            frame.write(*dst, v);
        }
        Op::CallMethod {
            dst,
            site,
            obj,
            attr,
            argbase,
            argc,
            kw,
        } => {
            // A keyword call, an opaque receiver, or an unset local read
            // through the closure chain (`step_quick` runs a positional call
            // on set built-in registers borrowed).
            let nm = &code.names[*attr as usize];
            let pos = read_args(frame, code, closure, *argbase, *argc)?;
            let kwargs = read_kwargs(frame, code, closure, *argbase + *argc, *kw)?;
            let call_args = Args { pos, kw: kwargs };
            let receiver = frame.read(*obj, code, closure)?;
            interp.gil().tick();
            let v = match &receiver {
                Value::Opaque(o) => {
                    // Opaque attribute tables are dynamic — never cached.
                    if stats::enabled() {
                        stats::count_ic(false);
                    }
                    match o.get_attr(nm) {
                        Some(callable) => interp.call_value(&callable, call_args)?,
                        None => o.call_method(interp, nm, call_args.pos)?,
                    }
                }
                _ => {
                    let method = site_method(&mut frame.ics[*site as usize], &receiver, nm)?;
                    method(interp, &receiver, call_args.borrowed())?
                }
            };
            frame.write(*dst, v);
        }
        Op::CallIntrinsic {
            dst,
            site,
            cell,
            base,
            attr,
            argbase,
            argc,
        } => {
            let site = *site as usize;
            // Arguments first (an unset one is read through the chain), as
            // the tree-walker evaluates them before the callee.
            let owned = match frame.read_slice(*argbase, *argc) {
                Some(_) => None,
                None => Some(read_args(frame, code, closure, *argbase, *argc)?),
            };
            interp.gil().tick();
            let v = if let IcEntry::Callable(callable) = &frame.ics[site] {
                let callable = callable.clone();
                if stats::enabled() {
                    stats::count_ic(true);
                }
                let pos =
                    owned.map_or_else(|| read_args(frame, code, closure, *argbase, *argc), Ok)?;
                interp.call_value(&callable, Args::positional(pos))?
            } else {
                let receiver = free_value(frame, code, closure, *cell, *base)?;
                let attr_nm = &code.names[*attr as usize];
                if let Value::Opaque(o) = &receiver {
                    if stats::enabled() {
                        stats::count_ic(false);
                    }
                    let pos = owned
                        .map_or_else(|| read_args(frame, code, closure, *argbase, *argc), Ok)?;
                    match o.get_attr(attr_nm) {
                        Some(callable) => {
                            // Cache the resolved runtime intrinsic: the
                            // base is a free name this function never
                            // rebinds, so the callable is call-invariant.
                            frame.ics[site] = IcEntry::Callable(callable.clone());
                            interp.call_value(&callable, Args::positional(pos))?
                        }
                        None => o.call_method(interp, attr_nm, pos)?,
                    }
                } else {
                    // A built-in receiver: the `CallMethod` inline cache,
                    // with the argument registers borrowed.
                    let method = site_method(&mut frame.ics[site], &receiver, attr_nm)?;
                    let pos = match &owned {
                        Some(pos) => pos,
                        None => frame.read_slice(*argbase, *argc).expect("checked above"),
                    };
                    method(interp, &receiver, ArgsRef::positional(pos))?
                }
            };
            frame.write(*dst, v);
        }
        Op::GetItem { dst, obj, idx } => {
            let v = match (frame.read_ref(*obj), frame.read_ref(*idx)) {
                (Some(container), Some(index)) => interp.get_item(container, index)?,
                _ => {
                    let container = frame.read(*obj, code, closure)?;
                    let index = frame.read(*idx, code, closure)?;
                    interp.get_item(&container, &index)?
                }
            };
            frame.write(*dst, v);
        }
        Op::SetItem { obj, idx, src } => {
            // The stored value is read (and cloned) first, as the
            // tree-walker evaluates it first.
            let v = frame.read(*src, code, closure)?;
            match (frame.read_ref(*obj), frame.read_ref(*idx)) {
                (Some(container), Some(index)) => interp.set_item(container, index, v)?,
                _ => {
                    let container = frame.read(*obj, code, closure)?;
                    let index = frame.read(*idx, code, closure)?;
                    interp.set_item(&container, &index, v)?;
                }
            }
        }
        Op::DelItem { obj, idx } => {
            let container = frame.read(*obj, code, closure)?;
            let index = frame.read(*idx, code, closure)?;
            interp.del_item(&container, &index)?;
        }
        Op::GetAttr { dst, obj, attr } => {
            let receiver = frame.read(*obj, code, closure)?;
            let nm = &code.names[*attr as usize];
            let v = match &receiver {
                Value::Opaque(o) => o.get_attr(nm).ok_or_else(|| {
                    PyErr::new(
                        ErrKind::Attribute,
                        format!("'{}' object has no attribute '{}'", o.type_name(), nm),
                    )
                })?,
                other => {
                    return Err(PyErr::new(
                        ErrKind::Attribute,
                        format!(
                            "attribute '{}' of '{}' is only supported in call position",
                            nm,
                            other.type_name()
                        ),
                    ))
                }
            };
            frame.write(*dst, v);
        }
        Op::BuildList { dst, base, n } => {
            let items = read_args(frame, code, closure, *base, *n)?;
            frame.write(*dst, Value::list(items));
        }
        Op::BuildTuple { dst, base, n } => {
            let items = read_args(frame, code, closure, *base, *n)?;
            frame.write(*dst, Value::tuple(items));
        }
        Op::BuildDict { dst, base, n } => {
            let dict = Value::dict();
            if let Value::Dict(map) = &dict {
                let mut map = map.write();
                for j in 0..*n {
                    let k = frame.read(*base + 2 * j, code, closure)?;
                    let v = frame.read(*base + 2 * j + 1, code, closure)?;
                    map.insert(HKey::from_value(&k)?, v);
                }
            }
            frame.write(*dst, dict);
        }
        Op::BuildSlice { dst, l, u, s } => {
            let slice = SliceValue {
                lower: frame.read(*l, code, closure)?,
                upper: frame.read(*u, code, closure)?,
                step: frame.read(*s, code, closure)?,
            };
            frame.write(*dst, Value::Opaque(Arc::new(slice)));
        }
        Op::UnpackSeq { base, n, src } => {
            let v = frame.read(*src, code, closure)?;
            let it = ValueIter::new(&v)?;
            let want = *n as usize;
            let mut supplied = Vec::with_capacity(want);
            for item in it {
                supplied.push(item);
                if supplied.len() > want {
                    return Err(value_err(format!(
                        "too many values to unpack (expected {want})"
                    )));
                }
            }
            if supplied.len() < want {
                return Err(value_err(format!(
                    "not enough values to unpack (expected {}, got {})",
                    want,
                    supplied.len()
                )));
            }
            for (j, item) in supplied.into_iter().enumerate() {
                frame.write(*base + j as u16, item);
            }
        }
        Op::IterNew { iter, src } => {
            // A temporary is dead once its loop starts, so the iterator
            // takes it: a list only the loop holds then iterates owned
            // (`ValueIter::new_owned`). Locals and constants outlive the
            // loop and are read as usual.
            let v = if (code.n_locals..code.const_base).contains(src) {
                std::mem::replace(&mut frame.regs[*src as usize], Value::None)
            } else {
                frame.read(*src, code, closure)?
            };
            frame.iters[*iter as usize] = Some(ValueIter::new_owned(v)?);
        }
        Op::IterNext { iter, dst, exit } => return Ok(iter_step(frame, *iter, *dst, *exit)),
        Op::IterClear { iter } => frame.iters[*iter as usize] = None,
        Op::SetupFinally { target } => frame.blocks.push(*target),
        Op::PopBlock => {
            frame.blocks.pop();
        }
        Op::Reraise => {
            return Err(frame
                .pending
                .take()
                .expect("unwind path stashed the pending exception"));
        }
        Op::Raise { src } => {
            let v = frame.read(*src, code, closure)?;
            return Err(exception_from_value(&v)?);
        }
        Op::RaiseBare => {
            return Err(current_exception()
                .ok_or_else(|| PyErr::new(ErrKind::Runtime, "no active exception to re-raise"))?);
        }
        Op::AssertFail { msg } => {
            let message = if *msg == NO_KW {
                String::new()
            } else {
                frame.read(*msg, code, closure)?.py_str()
            };
            return Err(PyErr::new(ErrKind::Assertion, message));
        }
        Op::DelLocal { slot } => {
            if frame.is_set(*slot) {
                frame.clear_local(*slot);
            } else {
                // Unset local: the tree-walker's `del` removes the nearest
                // enclosing binding instead.
                let nm = &code.local_names[*slot as usize];
                let mut cur = Some(closure.clone());
                let mut removed = false;
                while let Some(env) = cur {
                    if env.remove(nm) {
                        removed = true;
                        break;
                    }
                    cur = env.parent().cloned();
                }
                if !removed {
                    return Err(name_err(nm));
                }
            }
        }
        Op::Return { src } => return Ok(Ctl::Ret(frame.read(*src, code, closure)?)),
        Op::ReturnNone => return Ok(Ctl::Ret(Value::None)),
    }
    Ok(Ctl::Next)
}

/// Whether a generic handler can run with unboxed registers still pending:
/// it neither reads a value register nor leaks one (it only touches the
/// iterator/block planes, which the tag plane never shadows). Everything
/// else must materialize first.
#[inline]
fn unbox_safe(op: &Op) -> bool {
    matches!(
        op,
        Op::IterNext { .. }
            | Op::IterClear { .. }
            | Op::SetupFinally { .. }
            | Op::PopBlock
            | Op::LoadFree { .. }
    )
}

/// CAS an `UNSEEN` slot to `state`, counting a rewrite for specialized
/// states. Returns the slot's winning state (another thread may have
/// rewritten it first — the caller re-guards, so either outcome is safe).
#[inline]
fn try_specialize(code: &CompiledCode, pc: usize, state: u8) -> u8 {
    match code.quick[pc].compare_exchange(qk::UNSEEN, state, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => {
            if state != qk::GENERIC {
                stats::count_quicken_rewrite();
            }
            state
        }
        Err(current) => current,
    }
}

/// CAS a specialized slot back to `GENERIC` after a guard failure, counting
/// the deopt. One-shot per slot (a racing deopt loses the CAS and counts
/// nothing), so `deopts <= rewrites` holds by construction.
#[inline]
fn deopt(code: &CompiledCode, pc: usize, from: u8) {
    if code.quick[pc]
        .compare_exchange(from, qk::GENERIC, Ordering::Relaxed, Ordering::Relaxed)
        .is_ok()
    {
        stats::count_quicken_deopt();
    }
}

/// Dispatch one instruction.
///
/// One primary match over the hot ops: tag-aware control ops run
/// directly, each quickenable op loads its slot state and runs its
/// specialized handler inline when the operand guard holds, the object
/// path (dict subscripts, generic iteration, built-in method calls) runs
/// inline when its shape guard holds, and everything else takes the
/// generic [`step`]. `UNSEEN` profiling, deopts, and post-deopt generic
/// execution live out of line in [`quick_fallback`] so the hot loop body
/// stays compact.
#[cfg_attr(not(debug_assertions), inline(always))]
fn step_quick(
    interp: &Interp,
    f: &FuncValue,
    code: &CompiledCode,
    frame: &mut Frame,
    pc: usize,
    ops: &mut u64,
) -> Result<Ctl, PyErr> {
    let closure = &f.closure;
    match &code.ops[pc] {
        Op::Jump { target } => {
            let t = *target as usize;
            if t <= pc {
                // Loop back-edge: a GIL switch point per iteration.
                interp.gil().tick();
            }
            Ok(Ctl::Jump(t))
        }
        Op::JumpIfFalse { cond, target } => {
            let t = match frame.truthy_unboxed(*cond) {
                Some(t) => t,
                None => match frame.read_ref(*cond) {
                    Some(v) => v.truthy(),
                    None => frame.read(*cond, code, closure)?.truthy(),
                },
            };
            Ok(if t {
                Ctl::Next
            } else {
                Ctl::Jump(*target as usize)
            })
        }
        Op::JumpIfTrue { cond, target } => {
            let t = match frame.truthy_unboxed(*cond) {
                Some(t) => t,
                None => match frame.read_ref(*cond) {
                    Some(v) => v.truthy(),
                    None => frame.read(*cond, code, closure)?.truthy(),
                },
            };
            Ok(if t {
                Ctl::Jump(*target as usize)
            } else {
                Ctl::Next
            })
        }
        Op::Copy { dst, src } => {
            // A constant holds both planes (`Frame::new`), so its copy is
            // written boxed and queues nothing for a later flush.
            if *src >= code.const_base || !frame.copy_unboxed(*dst, *src) {
                let v = frame.read(*src, code, closure)?;
                frame.write(*dst, v);
            }
            Ok(Ctl::Next)
        }
        Op::Return { src } => Ok(Ctl::Ret(frame.read_boxed(*src, code, closure)?)),
        Op::ReturnNone => Ok(Ctl::Ret(Value::None)),
        Op::Binary { op, dst, l, r } => {
            match code.quick[pc].load(Ordering::Relaxed) {
                qk::BIN_II => {
                    if let (Some(Num::I(a)), Some(Num::I(b))) =
                        (frame.read_num(*l), frame.read_num(*r))
                    {
                        return write_num_result(frame, *dst, int_binary(*op, a, b));
                    }
                }
                qk::BIN_FF => {
                    if let (Some(a), Some(b)) = (frame.read_num(*l), frame.read_num(*r)) {
                        // int/int must take the int path (e.g. `//` stays an
                        // int).
                        if !matches!((a, b), (Num::I(_), Num::I(_))) {
                            return write_num_result(
                                frame,
                                *dst,
                                float_binary(*op, a.as_f64(), b.as_f64()),
                            );
                        }
                    }
                }
                _ => {}
            }
            quick_fallback(interp, f, code, frame, pc)
        }
        Op::AugLocal { op, slot, src } => {
            match code.quick[pc].load(Ordering::Relaxed) {
                qk::AUG_II => {
                    if let (Some(Num::I(a)), Some(Num::I(b))) =
                        (frame.read_num(*slot), frame.read_num(*src))
                    {
                        return write_num_result(frame, *slot, int_binary(*op, a, b));
                    }
                }
                qk::AUG_FF => {
                    if let (Some(a), Some(b)) = (frame.read_num(*slot), frame.read_num(*src)) {
                        if !matches!((a, b), (Num::I(_), Num::I(_))) {
                            return write_num_result(
                                frame,
                                *slot,
                                float_binary(*op, a.as_f64(), b.as_f64()),
                            );
                        }
                    }
                }
                _ => {}
            }
            quick_fallback(interp, f, code, frame, pc)
        }
        Op::Compare { op, dst, l, r } => {
            if code.quick[pc].load(Ordering::Relaxed) == qk::CMP_NUM {
                if let (Some(a), Some(b)) = (frame.read_num(*l), frame.read_num(*r)) {
                    let t = match op {
                        // The `py_eq` numeric coercion table: int/int exact,
                        // anything involving a float compares as f64.
                        CmpOp::Eq | CmpOp::NotEq => {
                            let eq = match (a, b) {
                                (Num::I(x), Num::I(y)) => x == y,
                                (x, y) => x.as_f64() == y.as_f64(),
                            };
                            Some(eq == matches!(op, CmpOp::Eq))
                        }
                        // `py_ordering`'s numeric arm: both as f64,
                        // `partial_cmp`, unordered (NaN) raises the
                        // tree-walker's ValueError.
                        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                            match a.as_f64().partial_cmp(&b.as_f64()) {
                                Some(ord) => Some(match op {
                                    CmpOp::Lt => ord == std::cmp::Ordering::Less,
                                    CmpOp::Le => ord != std::cmp::Ordering::Greater,
                                    CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                                    _ => ord != std::cmp::Ordering::Less,
                                }),
                                None => return Err(value_err("cannot order NaN")),
                            }
                        }
                        // `CMP_NUM` is only ever installed for the six
                        // numeric comparators; anything else re-routes.
                        _ => None,
                    };
                    if let Some(t) = t {
                        frame.write(*dst, Value::Bool(t));
                        return Ok(Ctl::Next);
                    }
                }
            }
            quick_fallback(interp, f, code, frame, pc)
        }
        Op::GetItem { dst, obj, idx } => {
            match code.quick[pc].load(Ordering::Relaxed) {
                qk::LIST_GET if !frame.is_unboxed(*obj) => {
                    if let (Some(Num::I(i)), Some(Value::List(l))) =
                        (frame.read_num(*idx), frame.read_ref(*obj))
                    {
                        // The list stays borrowed from its register: no
                        // refcount traffic on a list other threads share.
                        let v = {
                            let items = l.read();
                            items[normalize_index(i, items.len())?].clone()
                        };
                        frame.write(*dst, v);
                        return Ok(Ctl::Next);
                    }
                }
                // A generic site on a dict: the generic handler's lookup,
                // on the two registers it reads.
                qk::GENERIC => {
                    if let Some(v) = on_dict(frame, *obj, *idx, |d, k| interp.get_item(d, k)) {
                        frame.write(*dst, v?);
                        return Ok(Ctl::Next);
                    }
                }
                _ => {}
            }
            quick_fallback(interp, f, code, frame, pc)
        }
        Op::SetItem { obj, idx, src } => {
            match code.quick[pc].load(Ordering::Relaxed) {
                qk::LIST_SET if !frame.is_unboxed(*obj) => {
                    if let (Some(Num::I(i)), Some(Value::List(l))) =
                        (frame.read_num(*idx), frame.read_ref(*obj))
                    {
                        // Guards passed: from here on, effects and error
                        // order match the generic handler (src read first,
                        // then the index check). The list stays borrowed,
                        // as in `LIST_GET`.
                        let v = frame.read_boxed(*src, code, closure)?;
                        let mut items = l.write();
                        let ix = normalize_index(i, items.len())?;
                        items[ix] = v;
                        return Ok(Ctl::Next);
                    }
                }
                qk::GENERIC => {
                    let set = on_dict(frame, *obj, *idx, |d, k| {
                        // The stored value is read first, as in the generic
                        // handler.
                        let v = frame.read_boxed(*src, code, closure)?;
                        interp.set_item(d, k, v)
                    });
                    if let Some(r) = set {
                        r?;
                        return Ok(Ctl::Next);
                    }
                }
                _ => {}
            }
            quick_fallback(interp, f, code, frame, pc)
        }
        Op::IterNext { iter, dst, exit } => {
            let slot = *iter as usize;
            let state = code.quick[pc].load(Ordering::Relaxed);
            if state == qk::FUSED_RANGE {
                if matches!(frame.iters[slot], Some(ValueIter::Range { .. })) {
                    return run_fused(interp, code, frame, pc, ops);
                }
            } else if state == qk::ITER_RANGE {
                if let Some(ValueIter::Range { cur, stop, step }) = frame.iters[slot].as_mut() {
                    // `ValueIter::next`'s Range arm, writing to the tag
                    // plane.
                    let next = if (*step > 0 && *cur < *stop) || (*step < 0 && *cur > *stop) {
                        let v = *cur;
                        *cur += *step;
                        Some(v)
                    } else {
                        None
                    };
                    return Ok(match next {
                        Some(v) => {
                            frame.write_num(*dst, Num::I(v));
                            Ctl::Next
                        }
                        None => {
                            frame.iters[slot] = None;
                            Ctl::Jump(*exit as usize)
                        }
                    });
                }
            } else if state == qk::GENERIC {
                // Any other iterator (owned, live list, tuple, keys, str):
                // the generic handler's step, inline.
                return Ok(iter_step(frame, *iter, *dst, *exit));
            }
            quick_fallback(interp, f, code, frame, pc)
        }
        // `LoadFree` reads a cell and writes one register through tag-aware
        // stores, so it never observes a stale unboxed register: no
        // materialization (free-variable reads are common on loop hot paths
        // — the pyfront outlining turns enclosing locals into free
        // variables).
        Op::LoadFree { dst, cell, .. } => {
            if code.quick[pc].load(Ordering::Relaxed) == qk::LOAD_FREE_NUM {
                let n = match &frame.cells[*cell as usize] {
                    Some(c) => match &*c.read() {
                        Value::Int(v) => Some(Num::I(*v)),
                        Value::Float(v) => Some(Num::F(*v)),
                        _ => None,
                    },
                    // Unfilled cell slot: the generic handler performs the
                    // once-per-frame lazy fill (counted as the IC miss).
                    // Frame bootstrap, not an operand-shape change — no
                    // deopt.
                    None => return step(interp, f, code, frame, pc),
                };
                if let Some(n) = n {
                    // A filled cell holding a number: one IC hit, exactly
                    // as the generic handler counts this execution.
                    if stats::enabled() {
                        stats::count_ic(true);
                    }
                    frame.write_num(*dst, n);
                    return Ok(Ctl::Next);
                }
                // The cell no longer holds a number: operand-shape change.
                deopt(code, pc, qk::LOAD_FREE_NUM);
                return step(interp, f, code, frame, pc);
            }
            quick_fallback(interp, f, code, frame, pc)
        }
        Op::CallMethod {
            dst,
            site,
            obj,
            attr,
            argbase,
            argc,
            kw: NO_KW,
        } => {
            // A positional call on a built-in receiver: the site's cached
            // method borrows the receiver and argument registers, boxing
            // only those, so neither a hit nor a miss flushes the frame.
            if frame.has_unboxed() {
                frame.box_reg(*obj);
                for r in *argbase..*argbase + *argc {
                    frame.box_reg(r);
                }
            }
            if frame
                .read_ref(*obj)
                .is_some_and(|r| !matches!(r, Value::Opaque(_)))
                && frame.read_slice(*argbase, *argc).is_some()
            {
                interp.gil().tick();
                let receiver = &frame.regs[*obj as usize];
                let nm = &code.names[*attr as usize];
                let method = site_method(&mut frame.ics[*site as usize], receiver, nm)?;
                let pos = &frame.regs[*argbase as usize..(*argbase + *argc) as usize];
                let v = method(interp, receiver, ArgsRef::positional(pos))?;
                frame.write(*dst, v);
                return Ok(Ctl::Next);
            }
            // An opaque receiver or an unset local: the generic handler.
            if frame.has_unboxed() {
                frame.materialize();
            }
            step(interp, f, code, frame, pc)
        }
        op => {
            if frame.has_unboxed() && !unbox_safe(op) {
                frame.materialize();
            }
            step(interp, f, code, frame, pc)
        }
    }
}

/// Run `op` on a dict subscript's container, borrowed from `obj`, and its
/// key, from `idx`. `None` when `obj` does not hold a dict or `idx` is an
/// unset local (the generic handler reads it through the closure chain).
#[inline(always)]
fn on_dict<R>(
    frame: &Frame,
    obj: Reg,
    idx: Reg,
    op: impl FnOnce(&Value, &Value) -> R,
) -> Option<R> {
    if frame.is_unboxed(obj) {
        return None;
    }
    let dict = frame
        .read_ref(obj)
        .filter(|v| matches!(v, Value::Dict(_)))?;
    Some(match frame.unboxed_num(idx) {
        // An unboxed key, boxed on the stack: the value a flush would have
        // written, so the same key rules apply.
        Some(n) => op(dict, &n.to_value()),
        None => op(dict, frame.read_ref(idx)?),
    })
}

/// Step a non-range iterator: the next item into `dst`, or, once it is
/// exhausted, clear its slot and leave the loop for `exit`.
#[inline(always)]
fn iter_step(frame: &mut Frame, iter: u16, dst: Reg, exit: u32) -> Ctl {
    let slot = iter as usize;
    match frame.iters[slot].as_mut().expect("IterNew precedes").next() {
        Some(item) => {
            frame.write(dst, item);
            Ctl::Next
        }
        None => {
            frame.iters[slot] = None;
            Ctl::Jump(exit as usize)
        }
    }
}

/// Execute a fused `range` loop ([`qk::FUSED_RANGE`]): the `IterNext`, its
/// straight-line register-only body (`CompiledCode::fused` holds the
/// compile-time-verified body and its register dataflow), and the back-edge
/// run as one handler without returning to the dispatch loop between
/// instructions.
///
/// Each entry first builds a [`Plan`]: the body's inputs staged from the
/// frame with their kinds, cells read into immediates, and every
/// instruction lowered to a kind-specific [`Micro`] op. The iterations then
/// run on the frame's planes with no tag test, and the registers they wrote
/// are sealed (tagged, marked set, queued) once, when the run exits or
/// bails. Semantics are preserved exactly:
///
/// * **GIL cadence** — `tick()` runs once per completed iteration, where
///   the back-edge `Jump` would have ticked.
/// * **Errors and guard failures** — the handler bails via
///   `Ctl::Jump(sub_pc)` *without executing the failing instruction*
///   (overflow, a zero divisor, a helper result of another kind than
///   planned, an unset local, an unfilled cell); the per-op dispatch
///   re-executes it and raises the identical error with the correct
///   per-instruction line annotation.
/// * **Unsettled kinds** — when a loop-carried register would leave an
///   iteration with another kind than it entered with (`x = 0` then
///   `x += 0.5`), the plan holds for no second iteration: the handler runs
///   this iteration's `IterNext` and leaves the body to per-op dispatch,
///   re-planning at the next back-edge.
/// * **Shape failures** — an arithmetic operand that is not a number, a
///   cell that holds none, or an unset local the body never assigns (read
///   through the closure chain on every iteration) fails the plan's guard
///   as it would fail any quickened slot's: the slot deopts to `GENERIC`
///   and per-op dispatch runs the loop from this iteration on. A `Copy` of
///   a non-number stays in the run (a boxed move).
/// * **Counters** — `vm_ops` and the fused `LoadFree` IC hits match per-op
///   execution exactly. Both follow from the iteration count and the bail
///   position, and are published once, when the run exits.
/// * **Cells** — read once per run, in [`plan_fused`], and kept: OpenMP's
///   temporary view, legal because a fused body has no flush point (barriers,
///   locks, `atomic`, `flush`, chunk claims are non-fusible `CallIntrinsic`s)
///   and writes no cell. Every chunk and every re-entry reads afresh.
#[inline(never)]
fn run_fused(
    interp: &Interp,
    code: &CompiledCode,
    frame: &mut Frame,
    pc: usize,
    ops: &mut u64,
) -> Result<Ctl, PyErr> {
    let (Op::IterNext { iter, dst, exit }, Some(flow)) = (&code.ops[pc], code.fused[pc].as_deref())
    else {
        unreachable!("FUSED_RANGE is only installed on a fusible IterNext");
    };
    let slot = *iter as usize;
    let body = flow.args.len();
    // Hoist the range state into locals: body ops never touch the iterator
    // plane, and the frame is per-call, so no other thread can observe the
    // stale slot across a GIL yield. Written back before any bail-out.
    let (mut cur, stop, step) = match &frame.iters[slot] {
        Some(ValueIter::Range { cur, stop, step }) => (*cur, *stop, *step),
        // Unreachable (the caller just checked), but bail to per-op
        // dispatch rather than trusting that.
        _ => return Ok(Ctl::Jump(pc)),
    };
    let live = |cur: i64| (step > 0 && cur < stop) || (step < 0 && cur > stop);
    if !live(cur) {
        frame.iters[slot] = None;
        return Ok(Ctl::Jump(*exit as usize));
    }
    let plan = plan_fused(code, frame, pc, flow);
    if plan.misshapen {
        deopt(code, pc, qk::FUSED_RANGE);
    }
    if !plan.settled || plan.misshapen {
        // This iteration's `IterNext`; per-op dispatch runs the body.
        if let Some(ValueIter::Range { cur: c, .. }) = frame.iters[slot].as_mut() {
            *c = cur + step;
        }
        frame.write_num(*dst, Num::I(cur));
        return Ok(Ctl::Next);
    }
    let micro = &plan.micro[..body];
    let var = *dst as usize;
    // Keep the GIL tick counter in a register for the whole loop; identical
    // cadence to one `tick()` per back-edge.
    let mut batch = interp.gil().tick_batch();
    let mut iters: u64 = 0;
    let (raw, regs) = frame.planes();
    // `None`: the range ran out; `Some(k)`: body op `k` bailed.
    let bailed = 'iter: loop {
        if !live(cur) {
            break None;
        }
        raw[var] = cur as u64;
        cur += step;
        for (k, m) in micro.iter().enumerate() {
            if !m.exec(raw, regs) {
                break 'iter Some(k);
            }
        }
        iters += 1;
        batch.tick();
    };
    // Seal in write order, so a register written twice keeps the kind of
    // its last write: the last full iteration from the bail point on (its
    // `IterNext` first, when the range ran out), then the bailing
    // iteration's `IterNext` and the ops before the bail.
    let done = bailed.unwrap_or(0);
    if iters > 0 {
        if bailed.is_none() {
            frame.seal(*dst, TAG_INT);
        }
        seal(frame, &micro[done..]);
    }
    if bailed.is_some() {
        frame.seal(*dst, TAG_INT);
        seal(frame, &micro[..done]);
    }
    let ctl = match bailed {
        Some(k) => {
            if let Some(ValueIter::Range { cur: c, .. }) = frame.iters[slot].as_mut() {
                *c = cur;
            }
            Ctl::Jump(pc + 1 + k)
        }
        None => {
            frame.iters[slot] = None;
            Ctl::Jump(*exit as usize)
        }
    };
    // Per iteration: `IterNext`, the body and the back-edge; then the last
    // `IterNext` (which the caller's dispatch already counted) and the ops
    // before a bail.
    *ops += iters * (body as u64 + 2) + done as u64;
    let ic_hits = iters * loads(micro) + loads(&micro[..done]);
    if ic_hits > 0 && stats::enabled() {
        stats::add_ic_hits(ic_hits);
    }
    Ok(ctl)
}

/// Seal the destinations of `micro`, in order.
fn seal(frame: &mut Frame, micro: &[Micro]) {
    for m in micro {
        frame.seal(m.d, m.kind);
    }
}

/// A fused body lowered for one run: one [`Micro`] op per body
/// instruction (so a bail at op `k` maps back to pc `IterNext + 1 + k`).
struct Plan {
    micro: [Micro; FUSED_MAX_BODY],
    /// Every loop-carried register leaves an iteration with the kind it
    /// entered with, so the plan holds for every iteration of the run.
    settled: bool,
    /// An arithmetic operand is not a number, a filled cell holds none, or
    /// the body reads a local it never assigns and the frame has not set:
    /// the slot's guard failed.
    misshapen: bool,
}

/// Closure-cell reads among `micro`: one IC hit each, as the generic
/// `LoadFree` handler counts.
fn loads(micro: &[Micro]) -> u64 {
    micro
        .iter()
        .filter(|m| matches!(m.op, MicroOp::Load(_)))
        .count() as u64
}

/// The operation of a [`Micro`] op. `II`/`FF` name the settled operand
/// kinds; in `IF`/`FI` the `int` side converts to `f64`, as `binary_op`'s
/// mixed arm does. Results are bit-identical to `int_binary` and
/// `float_binary`, and every case where those raise bails instead.
#[derive(Clone, Copy)]
enum MicroOp {
    AddII,
    SubII,
    MulII,
    DivII,
    AddFF,
    SubFF,
    MulFF,
    DivFF,
    AddIF,
    SubIF,
    MulIF,
    DivIF,
    AddFI,
    SubFI,
    MulFI,
    DivFI,
    /// Any other operator, through the shared semantic helpers on the
    /// settled operand kinds (`TAG_INT`/`TAG_FLOAT`). A result of another
    /// kind than the plan's (`int ** negative int` is a `float`) bails.
    Helper(BinOp, u8, u8),
    /// Register copy of a raw-plane word.
    Move,
    /// Register copy of a boxed value (not a number).
    Boxed,
    /// A closure cell's value, read when the run started.
    Load(u64),
    /// An operand that is not a number, an unset local, or an unfilled
    /// cell: per-op dispatch handles it.
    Bail,
}

/// One fused-body instruction with its operand kinds settled: `d = a op b`
/// on the frame's planes, `kind` being the tag of what it writes to `d`.
#[derive(Clone, Copy)]
struct Micro {
    op: MicroOp,
    kind: u8,
    d: Reg,
    a: Reg,
    b: Reg,
}

impl Micro {
    const BAIL: Micro = Micro {
        op: MicroOp::Bail,
        kind: TAG_BOXED,
        d: 0,
        a: 0,
        b: 0,
    };

    /// Execute on the raw plane (or, for [`MicroOp::Boxed`], the boxed
    /// registers). `false` — with **no effects** — when the instruction
    /// would raise or the plan does not cover it.
    #[inline(always)]
    fn exec(&self, raw: &mut [u64], regs: &mut [Value]) -> bool {
        let (x, y) = (raw[self.a as usize], raw[self.b as usize]);
        let (xi, yi) = (x as i64, y as i64);
        let (xf, yf) = (f64::from_bits(x), f64::from_bits(y));
        let v = match self.op {
            MicroOp::AddII => match xi.checked_add(yi) {
                Some(v) => v as u64,
                None => return false,
            },
            MicroOp::SubII => match xi.checked_sub(yi) {
                Some(v) => v as u64,
                None => return false,
            },
            MicroOp::MulII => match xi.checked_mul(yi) {
                Some(v) => v as u64,
                None => return false,
            },
            MicroOp::DivII if yi != 0 => (xi as f64 / yi as f64).to_bits(),
            MicroOp::AddFF => (xf + yf).to_bits(),
            MicroOp::SubFF => (xf - yf).to_bits(),
            MicroOp::MulFF => (xf * yf).to_bits(),
            MicroOp::DivFF if yf != 0.0 => (xf / yf).to_bits(),
            MicroOp::AddIF => (xi as f64 + yf).to_bits(),
            MicroOp::SubIF => (xi as f64 - yf).to_bits(),
            MicroOp::MulIF => (xi as f64 * yf).to_bits(),
            MicroOp::DivIF if yf != 0.0 => (xi as f64 / yf).to_bits(),
            MicroOp::AddFI => (xf + yi as f64).to_bits(),
            MicroOp::SubFI => (xf - yi as f64).to_bits(),
            MicroOp::MulFI => (xf * yi as f64).to_bits(),
            MicroOp::DivFI if yi != 0 => (xf / yi as f64).to_bits(),
            MicroOp::Helper(op, ka, kb) => match helper(op, ka, kb, x, y, self.kind) {
                Some(v) => v,
                None => return false,
            },
            MicroOp::Move => x,
            MicroOp::Boxed => {
                regs[self.d as usize] = regs[self.a as usize].clone();
                return true;
            }
            MicroOp::Load(v) => v,
            // `Bail`, and the zero-divisor arms: `int_binary` and
            // `float_binary` raise `ZeroDivisionError` per-op.
            _ => return false,
        };
        raw[self.d as usize] = v;
        true
    }
}

/// [`MicroOp::Helper`]: `op` on raw words of kinds `ka`/`kb` through
/// `int_binary`/`float_binary`, or `None` on an error or a result that is
/// not of kind `want`.
#[inline(never)]
fn helper(op: BinOp, ka: u8, kb: u8, x: u64, y: u64, want: u8) -> Option<u64> {
    let f = |k: u8, w: u64| match k {
        TAG_INT => w as i64 as f64,
        _ => f64::from_bits(w),
    };
    let r = match (ka, kb) {
        (TAG_INT, TAG_INT) => int_binary(op, x as i64, y as i64),
        _ => float_binary(op, f(ka, x), f(kb, y)),
    };
    match (r, want) {
        (Ok(Value::Int(v)), TAG_INT) => Some(v as u64),
        (Ok(Value::Float(v)), TAG_FLOAT) => Some(v.to_bits()),
        _ => None,
    }
}

/// Build the [`Plan`] for one [`run_fused`] entry: stage the body's inputs
/// from the frame, then walk the body once, taking each operand's kind
/// from its input or from the write before it ([`FusedBody::args`]),
/// reading each `LoadFree`'s cell, and lowering every instruction to its
/// kind-specific [`Micro`] op.
#[inline(never)]
fn plan_fused(code: &CompiledCode, frame: &mut Frame, pc: usize, flow: &FusedBody) -> Plan {
    // Each input's kind as the frame holds it (`None`: an unset local).
    // An unset local the body never writes stays unset for the whole run,
    // so every iteration would bail at its first reader: a shape failure.
    let mut entry = [None; 2 * FUSED_MAX_BODY];
    let mut misshapen = false;
    for (e, input) in entry.iter_mut().zip(&flow.inputs) {
        *e = frame.stage(input.reg);
        misshapen |= e.is_none() && input.last.is_none();
    }
    // The kind each write leaves: the loop variable's, then each body
    // instruction's (`None`: it bails).
    let mut wrote = [None; FUSED_MAX_BODY + 1];
    wrote[0] = Some(TAG_INT);
    let mut plan = Plan {
        micro: [Micro::BAIL; FUSED_MAX_BODY],
        settled: true,
        misshapen,
    };
    let ops = &code.ops[pc + 1..pc + 1 + flow.args.len()];
    for (k, (op, args)) in ops.iter().zip(&flow.args).enumerate() {
        let [ka, kb] = args.map(|s| match s {
            Src::Write(w) => wrote[w as usize],
            Src::Input(i) => entry[i as usize],
        });
        let m = match op {
            Op::Binary { op, dst, l, r } => lower(frame, *op, *dst, *l, *r, ka, kb),
            Op::AugLocal { op, slot, src } => lower(frame, *op, *slot, *slot, *src, ka, kb),
            Op::Copy { dst, src } => Micro {
                op: match ka {
                    Some(TAG_BOXED) => MicroOp::Boxed,
                    Some(_) => MicroOp::Move,
                    None => MicroOp::Bail,
                },
                kind: ka.unwrap_or(TAG_BOXED),
                d: *dst,
                a: *src,
                b: *src,
            },
            Op::LoadFree { dst, cell, .. } => {
                let cell = frame.cells[*cell as usize].as_ref().map(|c| c.read());
                let (op, kind) = match cell.as_deref() {
                    Some(Value::Int(v)) => (MicroOp::Load(*v as u64), TAG_INT),
                    Some(Value::Float(v)) => (MicroOp::Load(v.to_bits()), TAG_FLOAT),
                    Some(_) => {
                        plan.misshapen = true;
                        (MicroOp::Bail, TAG_BOXED)
                    }
                    None => (MicroOp::Bail, TAG_BOXED),
                };
                Micro {
                    op,
                    kind,
                    d: *dst,
                    a: *dst,
                    b: *dst,
                }
            }
            op => unreachable!("non-fusible op in fused body: {op:?}"),
        };
        if matches!(op, Op::Binary { .. } | Op::AugLocal { .. }) {
            plan.misshapen |= ka == Some(TAG_BOXED) || kb == Some(TAG_BOXED);
        }
        plan.micro[k] = m;
        wrote[k + 1] = (!matches!(m.op, MicroOp::Bail)).then_some(m.kind);
    }
    plan.settled = flow
        .inputs
        .iter()
        .zip(&entry)
        .all(|(input, e)| input.last.is_none_or(|w| wrote[w as usize] == *e));
    plan
}

/// Lower `d = a op b` on operands of kinds `ka`/`kb`; anything but two
/// numbers bails.
fn lower(
    frame: &Frame,
    op: BinOp,
    d: Reg,
    a: Reg,
    b: Reg,
    ka: Option<u8>,
    kb: Option<u8>,
) -> Micro {
    use super::frame::{TAG_FLOAT as F, TAG_INT as I};
    let (Some(ka @ (I | F)), Some(kb @ (I | F))) = (ka, kb) else {
        return Micro::BAIL;
    };
    let (mop, kind) = match (op, ka, kb) {
        (BinOp::Add, I, I) => (MicroOp::AddII, I),
        (BinOp::Sub, I, I) => (MicroOp::SubII, I),
        (BinOp::Mul, I, I) => (MicroOp::MulII, I),
        (BinOp::Div, I, I) => (MicroOp::DivII, F),
        (BinOp::Add, F, F) => (MicroOp::AddFF, F),
        (BinOp::Sub, F, F) => (MicroOp::SubFF, F),
        (BinOp::Mul, F, F) => (MicroOp::MulFF, F),
        (BinOp::Div, F, F) => (MicroOp::DivFF, F),
        (BinOp::Add, I, F) => (MicroOp::AddIF, F),
        (BinOp::Sub, I, F) => (MicroOp::SubIF, F),
        (BinOp::Mul, I, F) => (MicroOp::MulIF, F),
        (BinOp::Div, I, F) => (MicroOp::DivIF, F),
        (BinOp::Add, F, I) => (MicroOp::AddFI, F),
        (BinOp::Sub, F, I) => (MicroOp::SubFI, F),
        (BinOp::Mul, F, I) => (MicroOp::MulFI, F),
        (BinOp::Div, F, I) => (MicroOp::DivFI, F),
        // `int ** int` is a `float` for a negative exponent: expect the
        // kind this instruction's destination holds from its last run.
        (BinOp::Pow, I, I) => (
            MicroOp::Helper(op, I, I),
            match frame.read_num(d) {
                Some(Num::F(_)) => F,
                _ => I,
            },
        ),
        (_, I, I) => (MicroOp::Helper(op, I, I), I),
        _ => (MicroOp::Helper(op, ka, kb), F),
    };
    Micro {
        op: mop,
        kind,
        d,
        a,
        b,
    }
}

/// Out-of-line slow path for a quickenable op whose inline fast path did
/// not fire: profile and rewrite an `UNSEEN` slot, deopt a specialized slot
/// whose operand guard just failed (guards are side-effect-free, so nothing
/// has happened yet), then run this execution generically. The next
/// execution of the slot dispatches on the settled state.
#[cold]
#[inline(never)]
fn quick_fallback(
    interp: &Interp,
    f: &FuncValue,
    code: &CompiledCode,
    frame: &mut Frame,
    pc: usize,
) -> Result<Ctl, PyErr> {
    match code.quick[pc].load(Ordering::Relaxed) {
        qk::UNSEEN => {
            // First execution: profile the live operand shapes and CAS the
            // slot to the matching specialized state (or `GENERIC` when
            // nothing applies).
            let profiled = profile(f, code, frame, pc);
            try_specialize(code, pc, profiled);
        }
        qk::GENERIC => {}
        from => deopt(code, pc, from),
    }
    if frame.has_unboxed() && !unbox_safe(&code.ops[pc]) {
        frame.materialize();
    }
    step(interp, f, code, frame, pc)
}

/// Pick the specialized state matching a slot's live operand shapes, or
/// `GENERIC` when nothing applies. Side-effect-free: the `LoadFree` arm
/// peeks at the cell (or the closure chain) without filling the frame's
/// cell slot — the generic execution that follows does the actual fill.
fn profile(f: &FuncValue, code: &CompiledCode, frame: &Frame, pc: usize) -> u8 {
    match &code.ops[pc] {
        Op::LoadFree { cell, name, .. } => {
            let numeric = match &frame.cells[*cell as usize] {
                Some(c) => matches!(&*c.read(), Value::Int(_) | Value::Float(_)),
                None => match f.closure.get_cell(&code.names[*name as usize]) {
                    Some(c) => matches!(&*c.read(), Value::Int(_) | Value::Float(_)),
                    // Unbound name: the generic handler raises NameError.
                    None => false,
                },
            };
            if numeric {
                qk::LOAD_FREE_NUM
            } else {
                qk::GENERIC
            }
        }
        Op::Binary { l, r, .. } => match (frame.read_num(*l), frame.read_num(*r)) {
            (Some(Num::I(_)), Some(Num::I(_))) => qk::BIN_II,
            (Some(_), Some(_)) => qk::BIN_FF,
            _ => qk::GENERIC,
        },
        Op::AugLocal { slot, src, .. } => match (frame.read_num(*slot), frame.read_num(*src)) {
            (Some(Num::I(_)), Some(Num::I(_))) => qk::AUG_II,
            (Some(_), Some(_)) => qk::AUG_FF,
            _ => qk::GENERIC,
        },
        Op::Compare {
            op: CmpOp::Eq | CmpOp::NotEq | CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge,
            l,
            r,
            ..
        } => match (frame.read_num(*l), frame.read_num(*r)) {
            (Some(_), Some(_)) => qk::CMP_NUM,
            _ => qk::GENERIC,
        },
        Op::GetItem { obj, idx, .. } => {
            if !frame.is_unboxed(*obj)
                && matches!(frame.read_ref(*obj), Some(Value::List(_)))
                && matches!(frame.read_num(*idx), Some(Num::I(_)))
            {
                qk::LIST_GET
            } else {
                qk::GENERIC
            }
        }
        Op::SetItem { obj, idx, .. } => {
            if !frame.is_unboxed(*obj)
                && matches!(frame.read_ref(*obj), Some(Value::List(_)))
                && matches!(frame.read_num(*idx), Some(Num::I(_)))
            {
                qk::LIST_SET
            } else {
                qk::GENERIC
            }
        }
        Op::IterNext { iter, .. } => {
            if matches!(frame.iters[*iter as usize], Some(ValueIter::Range { .. })) {
                if code.fused[pc].is_some() {
                    qk::FUSED_RANGE
                } else {
                    qk::ITER_RANGE
                }
            } else {
                qk::GENERIC
            }
        }
        _ => qk::GENERIC,
    }
}

/// Store a specialized arithmetic result: numeric values go to the tag
/// plane unboxed, anything else boxes.
#[inline]
fn write_num_result(frame: &mut Frame, dst: Reg, r: Result<Value, PyErr>) -> Result<Ctl, PyErr> {
    match r? {
        Value::Int(v) => frame.write_num(dst, Num::I(v)),
        Value::Float(v) => frame.write_num(dst, Num::F(v)),
        v => frame.write(dst, v),
    }
    Ok(Ctl::Next)
}

/// Read a call's keyword arguments (values follow the positionals).
fn read_kwargs(
    frame: &Frame,
    code: &CompiledCode,
    closure: &Env,
    kwbase: Reg,
    kw: u16,
) -> Result<Vec<(String, Value)>, PyErr> {
    if kw == NO_KW {
        return Ok(Vec::new());
    }
    let names = &code.kw_tables[kw as usize];
    let mut out = Vec::with_capacity(names.len());
    for (j, name) in names.iter().enumerate() {
        out.push((name.clone(), frame.read(kwbase + j as u16, code, closure)?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::compile::compile_function;
    use crate::value::Value;

    /// Compile `src` (which must define `f`), then call `f` with `args`
    /// through the VM directly (no global-mode flip, so tests stay
    /// parallel-safe) and through the tree-walker via a fresh interpreter,
    /// asserting identical results.
    fn vm_vs_tree(src: &str, args: Vec<Value>) -> (Result<Value, PyErr>, Option<String>) {
        let interp = Interp::new().capture_output();
        interp.run(src).expect("test source runs");
        let func = match interp.get_global("f").expect("f defined") {
            Value::Func(fv) => fv,
            other => panic!("f is {other:?}"),
        };
        let code = compile_function(&func.def).expect("test function compiles");
        let vm = call_compiled(&interp, &func, &code, Args::positional(args.clone()));
        let vm_out = interp.output();

        let tree = Interp::new().capture_output();
        tree.run(src).expect("test source runs");
        let tfunc = tree.get_global("f").expect("f defined");
        let expected = tree.call(&tfunc, args);
        let tree_out = tree.output();
        match (&vm, &expected) {
            (Ok(a), Ok(b)) => assert!(a.py_eq(b), "vm {a:?} != tree {b:?}"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            other => panic!("vm/tree diverge: {other:?}"),
        }
        assert_eq!(vm_out, tree_out, "stdout diverges");
        (vm, vm_out)
    }

    #[test]
    fn straight_line_arithmetic() {
        let (r, _) = vm_vs_tree(
            "def f(a, b):\n    c = a * b + 2\n    c = c - a\n    return c\n",
            vec![Value::Int(6), Value::Int(7)],
        );
        assert_eq!(r.unwrap().as_int().unwrap(), 38);
    }

    #[test]
    fn while_loop_sums() {
        let (r, _) = vm_vs_tree(
            "def f(n):\n    total = 0\n    i = 0\n    while i < n:\n        total += i\n        i += 1\n    return total\n",
            vec![Value::Int(100)],
        );
        assert_eq!(r.unwrap().as_int().unwrap(), 4950);
    }

    #[test]
    fn for_loop_over_range_and_list() {
        let _ = vm_vs_tree(
            "def f(n):\n    out = []\n    for i in range(n):\n        out.append(i * i)\n    s = 0\n    for v in out:\n        s += v\n    return s\n",
            vec![Value::Int(10)],
        );
    }

    #[test]
    fn try_finally_runs_on_error_and_success() {
        let _ = vm_vs_tree(
            "def f(x):\n    log = []\n    try:\n        log.append(1)\n        y = 1 // x\n    finally:\n        log.append(2)\n    return log\n",
            vec![Value::Int(2)],
        );
        let (r, _) = vm_vs_tree(
            "def f(x):\n    print('enter')\n    try:\n        y = 1 // x\n    finally:\n        print('cleanup')\n    return y\n",
            vec![Value::Int(0)],
        );
        assert!(r.unwrap_err().to_string().contains("ZeroDivisionError"));
    }

    #[test]
    fn unset_local_falls_back_to_enclosing_scope() {
        let (r, _) = vm_vs_tree(
            "g = 41\ndef f(flag):\n    if flag:\n        g = 1\n    return g + 1\n",
            vec![Value::Bool(false)],
        );
        assert_eq!(r.unwrap().as_int().unwrap(), 42);
    }

    #[test]
    fn arity_errors_match_the_tree_walker() {
        let (r, _) = vm_vs_tree(
            "def f(a, b):\n    return a\n",
            vec![Value::Int(1), Value::Int(2), Value::Int(3)],
        );
        assert_eq!(
            r.unwrap_err().to_string(),
            "TypeError: f() takes 2 positional arguments but 3 were given"
        );
        let (r, _) = vm_vs_tree("def f(a, b):\n    return a\n", vec![Value::Int(1)]);
        assert_eq!(
            r.unwrap_err().to_string(),
            "TypeError: f() missing required argument: 'b'"
        );
    }

    #[test]
    fn unpack_and_bool_ops() {
        let _ = vm_vs_tree(
            "def f(p):\n    a, b = p\n    c = a or b\n    d = a and b\n    return [a, b, c, d, a < b < 10]\n",
            vec![Value::tuple(vec![Value::Int(0), Value::Int(5)])],
        );
    }

    #[test]
    fn errors_carry_statement_lines() {
        let (r, _) = vm_vs_tree("def f():\n    x = 1\n    return x + ''\n", vec![]);
        assert_eq!(r.unwrap_err().line, Some(3));
    }
}
