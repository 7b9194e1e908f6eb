//! Per-call VM state: the register file and its side tables.

use crate::env::{Cell, Env};
use crate::error::{name_err, PyErr};
use crate::interp::ValueIter;
use crate::methods;
use crate::value::Value;

use super::opcode::{CompiledCode, Reg};

/// An unboxed numeric operand: the register-plane dual of `Value::Int` /
/// `Value::Float`. Everything the quickened arithmetic handlers touch moves
/// through this type, so no `Value` is constructed (or dropped) on the hot
/// path.
#[derive(Debug, Clone, Copy)]
pub enum Num {
    /// An `int` (`Value::Int` dual).
    I(i64),
    /// A `float` (`Value::Float` dual).
    F(f64),
}

impl Num {
    /// Coerce to `f64`, exactly like `Value::as_float` on the boxed dual.
    #[inline]
    pub fn as_f64(self) -> f64 {
        match self {
            Num::I(v) => v as f64,
            Num::F(v) => v,
        }
    }

    /// Materialize the boxed dual.
    #[inline]
    pub fn to_value(self) -> Value {
        match self {
            Num::I(v) => Value::Int(v),
            Num::F(v) => Value::Float(v),
        }
    }
}

/// One inline-cache slot: the cached resolution of a dispatch site.
///
/// `CallIntrinsic` sites cache the resolved runtime callable; `CallMethod`
/// sites cache the built-in method their fixed name resolves to for one
/// receiver type (guard-checked against the receiver's current type tag on
/// every hit).
#[derive(Clone, Default)]
pub enum IcEntry {
    /// Nothing cached yet (every probe is a miss).
    #[default]
    Empty,
    /// A resolved intrinsic callable (`CallIntrinsic`: the base is a free
    /// name the function never rebinds, so the callable is call-invariant).
    Callable(Value),
    /// The built-in method a `CallMethod` site resolved to, valid while
    /// the receiver keeps the cached type tag.
    Method(methods::TypeTag, methods::BuiltinMethod),
}

/// `tags` low bits: what the unboxed `raw` slot holds (0 = register is
/// boxed in `regs` as usual).
const TAG_BOXED: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_KIND: u8 = 0x3;
/// `tags` bit 2: the register is queued in `unboxed` for materialization
/// (kept set when a boxed write overwrites the slot, so the queue never
/// grows more than one entry per register between two materialize points).
const TAG_QUEUED: u8 = 0x4;

/// The mutable state of one bytecode-function invocation.
///
/// Everything a call touches lives here; the [`CompiledCode`] itself is
/// immutable and shared across threads. Locals occupy the low registers and
/// carry a definedness bitmask: reading an *unset* local falls back to the
/// closure chain, exactly like the tree-walker's dynamic name lookup for a
/// local that has not been assigned yet on this path.
///
/// A register may live in the `tags`/`raw` plane instead of `regs`:
/// quickened numeric handlers read and write registers there without
/// boxing, and the dispatch loop materializes the boxed `Value`s back into
/// `regs` before any instruction that is not tag-aware (calls, container
/// builds, returns — the escape points).
pub struct Frame {
    /// The register file: `[locals][temporaries][constants]`.
    pub regs: Vec<Value>,
    /// Definedness bits for the local registers.
    set: Vec<u64>,
    /// Bound cells (`global`/`nonlocal` declarations) and cached
    /// free-variable cells, indexed by cell slot.
    pub cells: Vec<Option<Cell>>,
    /// Live iterator state, indexed by loop-nesting depth.
    pub iters: Vec<Option<ValueIter>>,
    /// The inline-cache array, indexed by dispatch site.
    pub ics: Vec<IcEntry>,
    /// Active `finally` unwind targets (innermost last).
    pub blocks: Vec<u32>,
    /// The exception being unwound through a `finally` block.
    pub pending: Option<PyErr>,
    /// Unboxed-register kind tags, one per register.
    tags: Vec<u8>,
    /// Unboxed register payloads (`i64` bits or `f64` bits, per `tags`).
    raw: Vec<u64>,
    /// Registers currently holding (or recently holding) unboxed values,
    /// drained by [`Frame::materialize`].
    unboxed: Vec<Reg>,
    n_locals: u16,
}

impl Frame {
    /// Allocate the register file and its tag plane for `code`, preloading
    /// its constants.
    pub fn new(code: &CompiledCode) -> Frame {
        let n = code.n_regs as usize;
        let mut regs = vec![Value::None; n];
        let mut tags = vec![TAG_BOXED; n];
        let mut raw = vec![0; n];
        for (i, c) in code.consts.iter().enumerate() {
            let slot = code.const_base as usize + i;
            // Numeric constants live in the tag plane permanently: tagged
            // but never queued, so `materialize` never resets them and
            // `read_num` hits the fast path for every constant operand. The
            // boxed copy in `regs` stays identical, so generic handlers
            // reading the register boxed observe the same value.
            match c {
                Value::Int(v) => {
                    tags[slot] = TAG_INT;
                    raw[slot] = *v as u64;
                }
                Value::Float(v) => {
                    tags[slot] = TAG_FLOAT;
                    raw[slot] = v.to_bits();
                }
                _ => {}
            }
            regs[slot] = c.clone();
        }
        Frame {
            regs,
            set: vec![0; (code.n_locals as usize).div_ceil(64)],
            cells: vec![None; code.n_cells as usize],
            iters: (0..code.n_iters).map(|_| None).collect(),
            ics: vec![IcEntry::Empty; code.n_sites as usize],
            blocks: Vec::new(),
            pending: None,
            tags,
            raw,
            unboxed: Vec::new(),
            n_locals: code.n_locals,
        }
    }

    /// Whether local slot `slot` has been assigned in this call.
    #[inline(always)]
    pub fn is_set(&self, slot: Reg) -> bool {
        self.set[slot as usize / 64] & (1u64 << (slot % 64)) != 0
    }

    /// Un-assign a local slot (`del x`): later reads fall back to the chain.
    #[inline]
    pub fn clear_local(&mut self, slot: Reg) {
        self.set[slot as usize / 64] &= !(1u64 << (slot % 64));
        self.regs[slot as usize] = Value::None;
        self.tags[slot as usize] &= TAG_QUEUED;
    }

    /// Write a register, marking locals as assigned.
    #[inline(always)]
    pub fn write(&mut self, reg: Reg, v: Value) {
        if reg < self.n_locals {
            self.set[reg as usize / 64] |= 1u64 << (reg % 64);
        }
        // Boxed write supersedes any unboxed value; keep the queued bit so
        // the slot stays tracked (materialize skips boxed tags).
        self.tags[reg as usize] &= TAG_QUEUED;
        self.regs[reg as usize] = v;
    }

    /// Borrow an operand register, or `None` when the register is an unset
    /// local (the caller must take the owned [`Frame::read`] fallback path).
    ///
    /// This is the dispatch loop's hot path: constants, temporaries, and
    /// assigned locals — everything straight-line numeric code touches —
    /// borrow without cloning.
    ///
    /// Callers must have materialized the frame first (the dispatch loop
    /// does this before every non-tag-aware instruction), so an unboxed
    /// register can never be observed stale here.
    #[inline(always)]
    pub fn read_ref(&self, reg: Reg) -> Option<&Value> {
        if reg < self.n_locals && !self.is_set(reg) {
            return None;
        }
        Some(&self.regs[reg as usize])
    }

    /// Borrow `n` consecutive registers from `base` (a call's argument
    /// registers), or `None` when one of them is an unset local. Same
    /// materialization precondition as [`Frame::read_ref`].
    #[inline]
    pub fn read_slice(&self, base: Reg, n: u16) -> Option<&[Value]> {
        if (base..base + n).any(|r| r < self.n_locals && !self.is_set(r)) {
            return None;
        }
        Some(&self.regs[base as usize..(base + n) as usize])
    }

    /// Read an operand register.
    ///
    /// Unset locals fall back to a dynamic lookup through the function's
    /// closure chain (the tree-walker reads any name it cannot find in the
    /// call frame from enclosing scopes), raising `NameError` if the name is
    /// bound nowhere.
    ///
    /// # Errors
    ///
    /// `NameError` for an unset local bound nowhere on the chain.
    #[inline]
    pub fn read(&self, reg: Reg, code: &CompiledCode, closure: &Env) -> Result<Value, PyErr> {
        if reg < self.n_locals && !self.is_set(reg) {
            let name = &code.local_names[reg as usize];
            return closure.get(name).ok_or_else(|| name_err(name));
        }
        Ok(self.regs[reg as usize].clone())
    }

    // ---- unboxed tag plane -----------------------------------------------

    /// Read a register as an unboxed number: from the tag plane when the
    /// register is unboxed, otherwise from the boxed `Value`. `None` when
    /// the register holds a non-`int`/`float` value or is an unset local —
    /// the specialized handler's guard failure.
    #[inline(always)]
    pub fn read_num(&self, reg: Reg) -> Option<Num> {
        if let Some(n) = self.unboxed_num(reg) {
            return Some(n);
        }
        match self.read_ref(reg)? {
            Value::Int(v) => Some(Num::I(*v)),
            Value::Float(v) => Some(Num::F(*v)),
            _ => None,
        }
    }

    /// The register's unboxed payload, or `None` when it is boxed.
    #[inline(always)]
    fn unboxed_num(&self, reg: Reg) -> Option<Num> {
        let i = reg as usize;
        match self.tags[i] & TAG_KIND {
            TAG_INT => Some(Num::I(self.raw[i] as i64)),
            TAG_FLOAT => Some(Num::F(f64::from_bits(self.raw[i]))),
            _ => None,
        }
    }

    /// Write a numeric result into the tag plane (no `Value` constructed).
    #[inline(always)]
    pub fn write_num(&mut self, reg: Reg, n: Num) {
        if reg < self.n_locals {
            self.set[reg as usize / 64] |= 1u64 << (reg % 64);
        }
        let i = reg as usize;
        let (kind, bits) = match n {
            Num::I(v) => (TAG_INT, v as u64),
            Num::F(v) => (TAG_FLOAT, v.to_bits()),
        };
        if self.tags[i] & TAG_QUEUED == 0 {
            self.unboxed.push(reg);
        }
        self.tags[i] = kind | TAG_QUEUED;
        self.raw[i] = bits;
    }

    /// Tag-aware truthiness for jump conditions, without materializing.
    /// `None` when the register is boxed (caller falls back to the generic
    /// read path).
    #[inline(always)]
    pub fn truthy_unboxed(&self, reg: Reg) -> Option<bool> {
        Some(match self.unboxed_num(reg)? {
            Num::I(v) => v != 0,
            Num::F(v) => v != 0.0,
        })
    }

    /// Whether any register is pending materialization.
    #[inline(always)]
    pub fn has_unboxed(&self) -> bool {
        !self.unboxed.is_empty()
    }

    /// Whether `reg` currently holds an unboxed value (its boxed slot in
    /// `regs` is stale). Guards for specialized handlers that read a boxed
    /// payload (e.g. a list reference) must reject unboxed registers.
    #[inline(always)]
    pub fn is_unboxed(&self, reg: Reg) -> bool {
        self.tags[reg as usize] & TAG_KIND != TAG_BOXED
    }

    /// Box every unboxed register back into `regs` (the escape point: the
    /// next instruction sees exactly the state a boxed-only execution would
    /// have produced).
    pub fn materialize(&mut self) {
        while let Some(reg) = self.unboxed.pop() {
            let i = reg as usize;
            match self.tags[i] & TAG_KIND {
                TAG_INT => self.regs[i] = Value::Int(self.raw[i] as i64),
                TAG_FLOAT => self.regs[i] = Value::Float(f64::from_bits(self.raw[i])),
                // A boxed write superseded the unboxed value; nothing to do.
                _ => {}
            }
            self.tags[i] = TAG_BOXED;
        }
    }

    /// Tag-aware owning read: boxes an unboxed register on the fly (without
    /// changing the register's state), otherwise defers to [`Frame::read`].
    ///
    /// # Errors
    ///
    /// `NameError` as for [`Frame::read`].
    #[inline(always)]
    pub fn read_boxed(&self, reg: Reg, code: &CompiledCode, closure: &Env) -> Result<Value, PyErr> {
        match self.unboxed_num(reg) {
            Some(n) => Ok(n.to_value()),
            None => self.read(reg, code, closure),
        }
    }

    /// Tag-aware register copy for the quickened `Copy` handler: forwards
    /// the unboxed payload when the source is unboxed. Returns `false` when
    /// the source is boxed (caller takes the generic copy path).
    #[inline]
    pub fn copy_unboxed(&mut self, dst: Reg, src: Reg) -> bool {
        let Some(n) = self.unboxed_num(src) else {
            return false;
        };
        self.write_num(dst, n);
        true
    }
}
