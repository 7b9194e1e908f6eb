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
//! Every specialized arithmetic handler calls the *same* semantic helpers
//! as the tree-walker (`int_binary`, `float_binary`, the `py_eq` coercion
//! table), so values, errors, and error messages cannot drift.
//!
//! # Unboxed registers
//!
//! Every frame carries a tag plane: specialized numeric handlers write results
//! as raw `i64`/`f64` bits instead of `Value`s, and read operands from the
//! plane. Tag-aware instructions (`Jump`, conditional jumps, `Copy`,
//! `Return`, the specialized handlers themselves) execute without boxing;
//! any other instruction is an escape point — the loop calls
//! [`Frame::materialize`] first, so generic handlers (and anything that
//! leaks a register into a call, container, cell, or closure) always see
//! exactly the boxed state a boxed-only execution would have produced.

use crate::ast::{BinOp, CmpOp};
use crate::env::Env;
use crate::error::{name_err, type_err, value_err, ErrKind, PyErr};
use crate::interp::{
    binary_op, compare, current_exception, exception_from_value, float_binary, int_binary,
    normalize_index, unary_op, Interp, SliceValue, ValueIter,
};
use crate::methods;
use crate::stats;
use crate::value::{Args, FuncValue, HKey, Value};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::frame::{Frame, IcEntry, Num};
use super::opcode::{quick as qk, CompiledCode, Op, Reg, NO_KW};

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

/// Dispatch one instruction generically: the handler for ops with no
/// quickened fast path and the target of every deopt.
///
/// Kept out of line (rather than inlining this whole match into
/// [`step_quick`]) so the numeric hot loop stays cache-resident. Dispatch
/// sites run with their inline caches armed and counted — `LoadFree` cell
/// fills, `CallMethod` receiver-type dispatch, and `CallIntrinsic` callable
/// caching each record a `minipy.vm.ic.*` hit or miss per execution.
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
            let v = match &frame.cells[*cell as usize] {
                Some(c) => {
                    if stats::enabled() {
                        stats::count_ic(true);
                    }
                    c.read().clone()
                }
                None => {
                    if stats::enabled() {
                        stats::count_ic(false);
                    }
                    let nm = &code.names[*name as usize];
                    let c = closure.get_cell(nm).ok_or_else(|| name_err(nm))?;
                    let v = c.read().clone();
                    frame.cells[*cell as usize] = Some(c);
                    v
                }
            };
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
            let pos = read_args(frame, code, closure, *argbase, *argc)?;
            let kwargs = read_kwargs(frame, code, closure, *argbase + *argc, *kw)?;
            let call_args = Args { pos, kw: kwargs };
            let receiver = frame.read(*obj, code, closure)?;
            let nm = &code.names[*attr as usize];
            interp.gil().tick();
            let v = if let Value::Opaque(o) = &receiver {
                // Opaque attribute tables are dynamic — never cached.
                if stats::enabled() {
                    stats::count_ic(false);
                }
                match o.get_attr(nm) {
                    Some(callable) => interp.call_value(&callable, call_args)?,
                    None => methods::call_method(interp, &receiver, nm, call_args)?,
                }
            } else {
                let cached = match &frame.ics[*site as usize] {
                    IcEntry::Method(tag, func) => Some((*tag, *func)),
                    _ => None,
                };
                let dispatch = match (cached, methods::resolve_dispatch(&receiver)) {
                    (Some((tag, func)), Some((t, _))) if tag == t => {
                        if stats::enabled() {
                            stats::count_ic(true);
                        }
                        Some(func)
                    }
                    (_, Some((t, func))) => {
                        if stats::enabled() {
                            stats::count_ic(false);
                        }
                        frame.ics[*site as usize] = IcEntry::Method(t, func);
                        Some(func)
                    }
                    (_, None) => {
                        if stats::enabled() {
                            stats::count_ic(false);
                        }
                        None
                    }
                };
                match dispatch {
                    Some(func) => func(interp, &receiver, nm, call_args)?,
                    None => methods::call_method(interp, &receiver, nm, call_args)?,
                }
            };
            frame.write(*dst, v);
        }
        Op::CallIntrinsic {
            dst,
            site,
            base,
            attr,
            argbase,
            argc,
        } => {
            let pos = read_args(frame, code, closure, *argbase, *argc)?;
            let call_args = Args::positional(pos);
            interp.gil().tick();
            let cached = match &frame.ics[*site as usize] {
                IcEntry::Callable(v) => Some(v.clone()),
                _ => None,
            };
            if stats::enabled() {
                stats::count_ic(cached.is_some());
            }
            let v = match cached {
                Some(callable) => interp.call_value(&callable, call_args)?,
                None => {
                    let base_nm = &code.names[*base as usize];
                    let attr_nm = &code.names[*attr as usize];
                    let receiver = closure.get(base_nm).ok_or_else(|| name_err(base_nm))?;
                    if let Value::Opaque(o) = &receiver {
                        match o.get_attr(attr_nm) {
                            Some(callable) => {
                                // Cache the resolved runtime intrinsic: the
                                // base is a free name this function never
                                // rebinds, so the callable is call-invariant.
                                frame.ics[*site as usize] = IcEntry::Callable(callable.clone());
                                interp.call_value(&callable, call_args)?
                            }
                            None => methods::call_method(interp, &receiver, attr_nm, call_args)?,
                        }
                    } else {
                        methods::call_method(interp, &receiver, attr_nm, call_args)?
                    }
                }
            };
            frame.write(*dst, v);
        }
        Op::GetItem { dst, obj, idx } => {
            let container = frame.read(*obj, code, closure)?;
            let index = frame.read(*idx, code, closure)?;
            frame.write(*dst, interp.get_item(&container, &index)?);
        }
        Op::SetItem { obj, idx, src } => {
            let container = frame.read(*obj, code, closure)?;
            let index = frame.read(*idx, code, closure)?;
            let v = frame.read(*src, code, closure)?;
            interp.set_item(&container, &index, v)?;
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
            let v = frame.read(*src, code, closure)?;
            frame.iters[*iter as usize] = Some(ValueIter::new(&v)?);
        }
        Op::IterNext { iter, dst, exit } => {
            let slot = *iter as usize;
            match frame.iters[slot].as_mut().expect("IterNew precedes").next() {
                Some(item) => frame.write(*dst, item),
                None => {
                    frame.iters[slot] = None;
                    return Ok(Ctl::Jump(*exit as usize));
                }
            }
        }
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
/// specialized handler inline when the operand guard holds, and dispatch
/// sites and everything else take the generic [`step`]. `UNSEEN`
/// profiling, deopts, and post-deopt generic execution live out of line in
/// [`quick_fallback`] so the hot loop body stays compact.
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
            if !frame.copy_unboxed(*dst, *src) {
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
            if code.quick[pc].load(Ordering::Relaxed) == qk::LIST_GET && !frame.is_unboxed(*obj) {
                if let (Some(Num::I(i)), Some(Value::List(l))) =
                    (frame.read_num(*idx), frame.read_ref(*obj))
                {
                    let l = Arc::clone(l);
                    let v = {
                        let items = l.read();
                        match normalize_index(i, items.len()) {
                            Ok(ix) => items[ix].clone(),
                            Err(e) => return Err(e),
                        }
                    };
                    frame.write(*dst, v);
                    return Ok(Ctl::Next);
                }
            }
            quick_fallback(interp, f, code, frame, pc)
        }
        Op::SetItem { obj, idx, src } => {
            if code.quick[pc].load(Ordering::Relaxed) == qk::LIST_SET && !frame.is_unboxed(*obj) {
                if let Some(Num::I(i)) = frame.read_num(*idx) {
                    if matches!(frame.read_ref(*obj), Some(Value::List(_))) {
                        // Guards passed: from here on, effects and error
                        // order match the generic handler (src read first,
                        // then the index check).
                        let v = frame.read_boxed(*src, code, closure)?;
                        let Some(Value::List(l)) = frame.read_ref(*obj) else {
                            unreachable!("guard above matched a list");
                        };
                        let l = Arc::clone(l);
                        let mut items = l.write();
                        return match normalize_index(i, items.len()) {
                            Ok(ix) => {
                                items[ix] = v;
                                Ok(Ctl::Next)
                            }
                            Err(e) => Err(e),
                        };
                    }
                }
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
        Op::CallMethod { .. } | Op::CallIntrinsic { .. } => {
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

/// Execute a fused `range` loop ([`qk::FUSED_RANGE`]): the `IterNext`, its
/// straight-line register-only body (`CompiledCode::fused` holds the
/// compile-time-verified body length), and the back-edge run as one handler
/// without returning to the dispatch loop between instructions.
///
/// Semantics are preserved exactly:
///
/// * **GIL cadence** — `tick()` runs once per completed iteration, where
///   the back-edge `Jump` would have ticked.
/// * **Errors and guard failures** — the handler bails via
///   `Ctl::Jump(sub_pc)` *without executing the failing instruction* (the
///   arithmetic helpers are pure, so nothing has happened); the per-op dispatch
///   re-executes it and raises the identical error with the correct
///   per-instruction line annotation.
/// * **Counters** — `executed` tracks every completed sub-instruction so
///   `vm_ops` matches per-op execution exactly, and a fused `LoadFree`
///   counts its IC hit exactly as the generic handler would. Both are
///   summed in locals and published once, when the run exits.
/// * **Cells** — read once per run, in [`decode_fused`], and kept: OpenMP's
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
    let Op::IterNext { iter, dst, exit } = &code.ops[pc] else {
        unreachable!("FUSED_RANGE is only installed on IterNext");
    };
    let slot = *iter as usize;
    let body = code.fused[pc] as usize - 1;
    // Hoist the range state into locals: body ops never touch the iterator
    // plane, and the frame is per-call, so no other thread can observe the
    // stale slot across a GIL yield. Written back before any bail-out.
    let (mut cur, stop, step) = match &frame.iters[slot] {
        Some(ValueIter::Range { cur, stop, step }) => (*cur, *stop, *step),
        // Unreachable (the caller just checked), but bail to per-op
        // dispatch rather than trusting that.
        _ => return Ok(Ctl::Jump(pc)),
    };
    // Decode the body once: the iteration loop dispatches over flat
    // [`FusedOp`]s instead of re-walking the `Op` enum (and the `BinOp`
    // jump table inside the arithmetic helpers) every iteration.
    let mut micro = [FusedOp::NOP; super::opcode::FUSED_MAX_BODY];
    decode_fused(code, frame, pc, body, &mut micro);
    // Keep the GIL tick counter in a register for the whole loop; identical
    // cadence to one `tick()` per back-edge.
    let mut batch = interp.gil().tick_batch();
    // The caller's dispatch already counted one op for this pc.
    let mut executed: u64 = 0;
    let mut ic_hits: u64 = 0;
    let ctl = 'iter: loop {
        // -- the IterNext itself --
        executed += 1;
        if !((step > 0 && cur < stop) || (step < 0 && cur > stop)) {
            frame.iters[slot] = None;
            break 'iter Ctl::Jump(*exit as usize);
        }
        let v = cur;
        cur += step;
        frame.write_num(*dst, Num::I(v));
        // -- the body --
        for (k, m) in micro[..body].iter().enumerate() {
            if !exec_fused(frame, m, &mut ic_hits) {
                if let Some(ValueIter::Range { cur: c, .. }) = frame.iters[slot].as_mut() {
                    *c = cur;
                }
                break 'iter Ctl::Jump(pc + 1 + k);
            }
            executed += 1;
        }
        // -- the back-edge: a GIL switch point per iteration --
        executed += 1;
        batch.tick();
    };
    *ops += executed.saturating_sub(1);
    if ic_hits > 0 && stats::enabled() {
        stats::add_ic_hits(ic_hits);
    }
    Ok(ctl)
}

/// The executable shape of one fused-body instruction; see [`FusedOp`].
#[derive(Clone, Copy)]
enum FusedKind {
    /// `int`/`int` checked add, anything else numeric as `f64` add.
    Add,
    /// As [`FusedKind::Add`] for `-`.
    Sub,
    /// As [`FusedKind::Add`] for `*`.
    Mul,
    /// True division: zero divisors bail (the per-op helper raises).
    Div,
    /// Any other operator: route through [`fused_binary`].
    Helper,
    /// Register copy.
    Copy,
    /// Closure-cell read of the value the cell held when the run started.
    Free(Num),
    /// Unfilled or non-numeric cell: bails to the generic handler.
    Bail,
}

/// A fused-body instruction pre-decoded at loop entry: operator shape and
/// register operands flattened out of the `Op` enum so the per-iteration
/// dispatch is one small jump table with the common arithmetic inline. The
/// inline arithmetic is bit-identical to `int_binary`/`float_binary` for
/// the success cases; **every** error case (overflow, zero divisor) bails
/// so the real helper raises it with identical kind and message.
#[derive(Clone, Copy)]
struct FusedOp {
    kind: FusedKind,
    /// The original operator, for the [`FusedKind::Helper`] path.
    op: BinOp,
    dst: Reg,
    /// Left operand register.
    a: Reg,
    b: Reg,
}

impl FusedOp {
    /// Filler for unused decode slots; never executed.
    const NOP: FusedOp = FusedOp {
        kind: FusedKind::Helper,
        op: BinOp::Add,
        dst: 0,
        a: 0,
        b: 0,
    };
}

/// Decode a compile-time-verified fused body (see `CompiledCode::fused`)
/// into [`FusedOp`]s, reading each `LoadFree`'s cell. Once per
/// [`run_fused`] entry, not per iteration.
#[inline(never)]
fn decode_fused(code: &CompiledCode, frame: &Frame, pc: usize, body: usize, out: &mut [FusedOp]) {
    let kind_of = |op: BinOp| match op {
        BinOp::Add => FusedKind::Add,
        BinOp::Sub => FusedKind::Sub,
        BinOp::Mul => FusedKind::Mul,
        BinOp::Div => FusedKind::Div,
        _ => FusedKind::Helper,
    };
    for (k, slot) in out.iter_mut().enumerate().take(body) {
        *slot = match &code.ops[pc + 1 + k] {
            Op::Binary { op, dst, l, r } => FusedOp {
                kind: kind_of(*op),
                op: *op,
                dst: *dst,
                a: *l,
                b: *r,
            },
            // In-place update: `dst = dst <op> src` on the same slot.
            Op::AugLocal { op, slot, src } => FusedOp {
                kind: kind_of(*op),
                op: *op,
                dst: *slot,
                a: *slot,
                b: *src,
            },
            Op::Copy { dst, src } => FusedOp {
                kind: FusedKind::Copy,
                dst: *dst,
                a: *src,
                ..FusedOp::NOP
            },
            Op::LoadFree { dst, cell, .. } => {
                let kind = match frame.cells[*cell as usize]
                    .as_ref()
                    .map(|c| c.read())
                    .as_deref()
                {
                    Some(Value::Int(v)) => FusedKind::Free(Num::I(*v)),
                    Some(Value::Float(v)) => FusedKind::Free(Num::F(*v)),
                    _ => FusedKind::Bail,
                };
                FusedOp {
                    kind,
                    dst: *dst,
                    ..FusedOp::NOP
                }
            }
            // `CompiledCode::fused` only marks bodies made of the arms above.
            op => unreachable!("non-fusible op in fused body: {op:?}"),
        };
    }
}

/// Execute one pre-decoded fused-body instruction against the tag plane.
/// Returns `false` — with **no effects** — when an operand guard fails or
/// the operation would raise; the caller bails so the per-op dispatch
/// re-executes the instruction and raises the identical error.
#[cfg_attr(not(debug_assertions), inline(always))]
fn exec_fused(frame: &mut Frame, m: &FusedOp, ic_hits: &mut u64) -> bool {
    // `int`/`int` takes the checked-int path, anything mixed computes as
    // `f64` — the same coercion ladder as `binary_op`.
    macro_rules! arith {
        ($checked:ident, $op:tt) => {
            match (frame.read_num(m.a), frame.read_num(m.b)) {
                (Some(Num::I(x)), Some(Num::I(y))) => match x.$checked(y) {
                    Some(v) => {
                        frame.write_num(m.dst, Num::I(v));
                        true
                    }
                    // Overflow: `int_binary` raises `OverflowError` per-op.
                    None => false,
                },
                (Some(x), Some(y)) => {
                    frame.write_num(m.dst, Num::F(x.as_f64() $op y.as_f64()));
                    true
                }
                _ => false,
            }
        };
    }
    match m.kind {
        FusedKind::Add => arith!(checked_add, +),
        FusedKind::Sub => arith!(checked_sub, -),
        FusedKind::Mul => arith!(checked_mul, *),
        FusedKind::Div => match (frame.read_num(m.a), frame.read_num(m.b)) {
            // Zero divisors bail: `int_binary`/`float_binary` raise the
            // matching `ZeroDivisionError` per-op.
            (Some(Num::I(x)), Some(Num::I(y))) => {
                y != 0 && {
                    frame.write_num(m.dst, Num::F(x as f64 / y as f64));
                    true
                }
            }
            (Some(x), Some(y)) => {
                let d = y.as_f64();
                d != 0.0 && {
                    frame.write_num(m.dst, Num::F(x.as_f64() / d));
                    true
                }
            }
            _ => false,
        },
        FusedKind::Helper => fused_binary(frame, m.op, m.dst, m.a, m.b),
        FusedKind::Copy => {
            if frame.copy_unboxed(m.dst, m.a) {
                return true;
            }
            match frame.read_ref(m.a) {
                Some(v) => {
                    let v = v.clone();
                    frame.write(m.dst, v);
                    true
                }
                // Unset local: the generic handler's closure-chain read.
                None => false,
            }
        }
        FusedKind::Free(n) => {
            // One dispatch, one IC hit, exactly as the generic handler
            // counts this execution.
            *ic_hits += 1;
            frame.write_num(m.dst, n);
            true
        }
        FusedKind::Bail => false,
    }
}

/// The fused numeric-binary kernel: the same operand coercion as the
/// generic `binary_op` (`int`/`int` takes the int path, anything mixed
/// compares as `f64`) through the same semantic helpers. `false` (no
/// effects) on a non-numeric operand or a helper error.
#[cfg_attr(not(debug_assertions), inline(always))]
fn fused_binary(frame: &mut Frame, op: BinOp, dst: Reg, l: Reg, r: Reg) -> bool {
    let result = match (frame.read_num(l), frame.read_num(r)) {
        (Some(Num::I(a)), Some(Num::I(b))) => int_binary(op, a, b),
        (Some(a), Some(b)) => float_binary(op, a.as_f64(), b.as_f64()),
        _ => return false,
    };
    match result {
        Ok(Value::Int(v)) => frame.write_num(dst, Num::I(v)),
        Ok(Value::Float(v)) => frame.write_num(dst, Num::F(v)),
        Ok(v) => frame.write(dst, v),
        Err(_) => return false,
    }
    true
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
                if code.fused[pc] != 0 {
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
