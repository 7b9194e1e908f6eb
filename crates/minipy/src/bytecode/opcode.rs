//! The instruction set and compiled-function container.
//!
//! Instructions are register-oriented: every operand names a slot in the
//! frame's register file. Locals occupy the low registers (`[0, n_locals)`),
//! resolved to fixed indices at compile time; expression temporaries use the
//! registers above them with stack discipline. Constants are interned into
//! [`CompiledCode::consts`] and preloaded into dedicated registers at frame
//! entry, so straight-line numeric code touches no hash map, no environment
//! chain, and no per-object lock.

use std::sync::atomic::AtomicU8;

use crate::ast::{BinOp, CmpOp, UnaryOp};
use crate::value::Value;

/// Per-instruction specialization states for [`CompiledCode::quick`].
///
/// The state machine is monotone per slot: `UNSEEN` transitions (by CAS)
/// either to exactly one specialized state — counted as a rewrite — or
/// silently to `GENERIC` when the instruction shape is not specializable.
/// A specialized state transitions (by CAS) at most once to `GENERIC` on a
/// guard failure — counted as a deopt. Both transitions being one-shot per
/// slot makes `minipy.vm.quicken.deopts <= minipy.vm.quicken.rewrites` an
/// invariant by construction, even under concurrent execution of shared
/// code.
pub mod quick {
    /// Never executed: the next execution profiles its operand types.
    pub const UNSEEN: u8 = 0;
    /// Permanently generic (unsupported shape, or deoptimized).
    pub const GENERIC: u8 = 1;
    /// `Binary` with two `int` operands (checked `i64` math).
    pub const BIN_II: u8 = 2;
    /// `Binary` with `int`/`float` operands, at least one `float`.
    pub const BIN_FF: u8 = 3;
    /// `Compare` (`==`/`!=`/`<`/`<=`/`>`/`>=`) on `int`/`float` operands.
    pub const CMP_NUM: u8 = 4;
    /// `AugLocal` on a set slot with two `int` operands.
    pub const AUG_II: u8 = 5;
    /// `AugLocal` on a set slot with `int`/`float` operands, one `float`.
    pub const AUG_FF: u8 = 6;
    /// `GetItem` on a `list` container with an `int` index.
    pub const LIST_GET: u8 = 7;
    /// `SetItem` on a `list` container with an `int` index.
    pub const LIST_SET: u8 = 8;
    /// `IterNext` over a `range` iterator (always yields `int`).
    pub const ITER_RANGE: u8 = 9;
    /// `LoadFree` whose cell holds an `int`/`float` (tag-plane store).
    ///
    /// An *unfilled* cell slot (the once-per-frame lazy fill) runs the
    /// generic fill path without deopting — it is per-frame bootstrap, not
    /// an operand-shape change; only a non-numeric cell value deopts.
    pub const LOAD_FREE_NUM: u8 = 10;
    /// `IterNext` over a `range` iterator whose loop body is straight-line
    /// register-only numeric work closed by its own back-edge
    /// ([`super::CompiledCode::fused`] is non-zero at this pc): the VM runs
    /// whole iterations — `IterNext`, body, back-edge GIL tick — inside one
    /// handler, bailing to per-op dispatch (with no effects from the failing
    /// instruction) on any operand-guard failure or arithmetic error.
    pub const FUSED_RANGE: u8 = 11;
}

/// Upper bound on a fused loop body ([`CompiledCode::fused`]): long bodies
/// see diminishing returns and would bloat the fused handler's per-entry
/// caches.
pub const FUSED_MAX_BODY: usize = 32;

/// A register index.
pub type Reg = u16;

/// Sentinel for "no keyword table" on call instructions.
pub const NO_KW: u16 = u16::MAX;

/// One VM instruction.
///
/// Field order convention: destination first, then sources.
#[derive(Debug, Clone)]
pub enum Op {
    /// `dst = src` (register move; also "load name" when `src` is a local
    /// slot, via the unset-local fallback in the frame's read path).
    Copy {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Bind a `nonlocal` name: resolve the enclosing-function cell through
    /// the closure chain into cell slot `cell` (error if unbound, matching
    /// the tree-walker's `nonlocal` statement).
    BindNonlocal {
        /// Cell-table slot to fill.
        cell: u16,
        /// Name-table index.
        name: u16,
    },
    /// Bind a `global` name: find-or-define the cell in the interpreter
    /// globals (defining `None` when absent, as the tree-walker does).
    BindGlobal {
        /// Cell-table slot to fill.
        cell: u16,
        /// Name-table index.
        name: u16,
    },
    /// `dst = *cell` (read through a bound nonlocal/global cell).
    LoadCell {
        /// Destination register.
        dst: Reg,
        /// Cell-table slot.
        cell: u16,
    },
    /// `*cell = src`.
    StoreCell {
        /// Cell-table slot.
        cell: u16,
        /// Source register.
        src: Reg,
    },
    /// Read a free variable (never assigned in this function): resolved
    /// through the closure chain on first use, with the cell cached in the
    /// frame for the rest of the call (CPython closure-cell semantics).
    LoadFree {
        /// Destination register.
        dst: Reg,
        /// Cell-cache slot.
        cell: u16,
        /// Name-table index.
        name: u16,
    },
    /// `dst = l <op> r` via the interpreter's [`crate::interp::binary_op`].
    Binary {
        /// The operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        l: Reg,
        /// Right operand register.
        r: Reg,
    },
    /// In-place `local <op>= src`, replicating the tree-walker's augmented
    /// assignment: when the local slot is unset, the write goes through the
    /// enclosing binding found on the chain (and no local is created).
    AugLocal {
        /// The operator.
        op: BinOp,
        /// Local slot (also the name, via `local_names`).
        slot: Reg,
        /// Right-hand-side register.
        src: Reg,
    },
    /// In-place `*cell <op>= src` for nonlocal/global names.
    AugCell {
        /// The operator.
        op: BinOp,
        /// Cell-table slot.
        cell: u16,
        /// Right-hand-side register.
        src: Reg,
    },
    /// `dst = <op> s` via [`crate::interp::unary_op`].
    Unary {
        /// The operator.
        op: UnaryOp,
        /// Destination register.
        dst: Reg,
        /// Operand register.
        s: Reg,
    },
    /// `dst = Bool(l <op> r)` via [`crate::interp::compare`].
    Compare {
        /// The comparison operator.
        op: CmpOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        l: Reg,
        /// Right operand register.
        r: Reg,
    },
    /// Unconditional jump. Backward jumps tick the GIL (loop back-edges).
    Jump {
        /// Target pc.
        target: u32,
    },
    /// Jump when `cond` is falsy.
    JumpIfFalse {
        /// Condition register.
        cond: Reg,
        /// Target pc.
        target: u32,
    },
    /// Jump when `cond` is truthy.
    JumpIfTrue {
        /// Condition register.
        cond: Reg,
        /// Target pc.
        target: u32,
    },
    /// Call `regs[func]` with `argc` positional arguments starting at
    /// `argbase` (plus keyword arguments from `kw_tables[kw]` unless
    /// `kw == NO_KW`, their values following the positionals).
    Call {
        /// Destination register.
        dst: Reg,
        /// Callee register.
        func: Reg,
        /// First argument register.
        argbase: Reg,
        /// Positional argument count.
        argc: u16,
        /// Keyword-table index or [`NO_KW`].
        kw: u16,
    },
    /// Call `regs[obj].attr(...)` with the tree-walker's attribute-call
    /// semantics (module attribute if the object is opaque and has one,
    /// otherwise a builtin method).
    CallMethod {
        /// Destination register.
        dst: Reg,
        /// Per-frame inline-cache slot (caches the built-in method this
        /// site's name resolves to for the receiver's type).
        site: u16,
        /// Receiver register.
        obj: Reg,
        /// Attribute name-table index.
        attr: u16,
        /// First argument register.
        argbase: Reg,
        /// Positional argument count.
        argc: u16,
        /// Keyword-table index or [`NO_KW`].
        kw: u16,
    },
    /// Free-receiver call: `base.attr(...)` where `base` is a free name
    /// (the pyfront `__omp` runtime module, or a variable of an enclosing
    /// scope such as a `critical` merge's shared dict). The base's cell is
    /// cached per frame in `cell`, as `LoadFree` caches it. An opaque
    /// base's resolved callable is cached in `site`, so hot-loop intrinsics
    /// (`for_next`, `for_chunk`, `barrier`, reduction merges) dispatch
    /// through one cached indirect call into the runtime instead of an
    /// environment walk plus a module-dict lookup per iteration; any other
    /// base's built-in method is cached there as `CallMethod` caches it.
    CallIntrinsic {
        /// Destination register.
        dst: Reg,
        /// Per-frame inline-cache slot.
        site: u16,
        /// Cell-cache slot of the base name.
        cell: u16,
        /// Name-table index of the base name.
        base: u16,
        /// Attribute name-table index.
        attr: u16,
        /// First argument register.
        argbase: Reg,
        /// Positional argument count.
        argc: u16,
    },
    /// `dst = obj[idx]`.
    GetItem {
        /// Destination register.
        dst: Reg,
        /// Container register.
        obj: Reg,
        /// Index register.
        idx: Reg,
    },
    /// `obj[idx] = src`.
    SetItem {
        /// Container register.
        obj: Reg,
        /// Index register.
        idx: Reg,
        /// Source register.
        src: Reg,
    },
    /// `del obj[idx]`.
    DelItem {
        /// Container register.
        obj: Reg,
        /// Index register.
        idx: Reg,
    },
    /// `dst = obj.attr` (non-call attribute read; opaque objects only, as in
    /// the tree-walker).
    GetAttr {
        /// Destination register.
        dst: Reg,
        /// Object register.
        obj: Reg,
        /// Attribute name-table index.
        attr: u16,
    },
    /// `dst = [regs[base..base+n]]`.
    BuildList {
        /// Destination register.
        dst: Reg,
        /// First element register.
        base: Reg,
        /// Element count.
        n: u16,
    },
    /// `dst = (regs[base..base+n],)`.
    BuildTuple {
        /// Destination register.
        dst: Reg,
        /// First element register.
        base: Reg,
        /// Element count.
        n: u16,
    },
    /// `dst = {k: v, ...}` from `n` key/value pairs in `regs[base..base+2n]`.
    BuildDict {
        /// Destination register.
        dst: Reg,
        /// First key register.
        base: Reg,
        /// Pair count.
        n: u16,
    },
    /// `dst = slice(l, u, s)` (registers hold `None` for omitted bounds).
    BuildSlice {
        /// Destination register.
        dst: Reg,
        /// Lower-bound register.
        l: Reg,
        /// Upper-bound register.
        u: Reg,
        /// Step register.
        s: Reg,
    },
    /// Unpack an iterable into `n` consecutive registers at `base`, with
    /// Python's too-many/not-enough `ValueError`s.
    UnpackSeq {
        /// First destination register.
        base: Reg,
        /// Expected element count.
        n: u16,
        /// Source register.
        src: Reg,
    },
    /// Create iterator state for `regs[src]` in iterator slot `iter`.
    IterNew {
        /// Iterator-table slot.
        iter: u16,
        /// Iterable register.
        src: Reg,
    },
    /// Advance iterator `iter`: store the next item in `dst`, or jump to
    /// `exit` (clearing the slot) when exhausted.
    IterNext {
        /// Iterator-table slot.
        iter: u16,
        /// Destination register for the item.
        dst: Reg,
        /// Jump target on exhaustion.
        exit: u32,
    },
    /// Drop iterator state (loop exit via `break`).
    IterClear {
        /// Iterator-table slot.
        iter: u16,
    },
    /// Push a `finally` unwind target onto the block stack.
    SetupFinally {
        /// Error-path pc of the finally block.
        target: u32,
    },
    /// Pop the innermost block (normal completion of a `try` body).
    PopBlock,
    /// Re-raise the pending exception stashed by the error-path unwind.
    Reraise,
    /// `raise regs[src]`.
    Raise {
        /// Exception-value register.
        src: Reg,
    },
    /// Bare `raise`: re-raise the active exception (from an enclosing
    /// tree-walker `except` block), or `RuntimeError` if none.
    RaiseBare,
    /// Assertion failure: raise `AssertionError` with the message in `msg`
    /// (or an empty message when `msg` is `None`-sentinel `NO_KW`).
    AssertFail {
        /// Message register, or [`NO_KW`] for no message.
        msg: u16,
    },
    /// `del` a local slot, falling back to the tree-walker's chain removal
    /// when the slot is unset at runtime.
    DelLocal {
        /// Local slot.
        slot: Reg,
    },
    /// Return `regs[src]`.
    Return {
        /// Result register.
        src: Reg,
    },
    /// Return `None` (also emitted at the implicit end of a body).
    ReturnNone,
}

/// The register dataflow of a fused loop body ([`CompiledCode::fused`]),
/// fixed for the body: which registers an iteration takes from the frame,
/// which of those it carries to the next iteration, and where each operand
/// comes from.
#[derive(Debug)]
pub struct FusedBody {
    /// Per body instruction, where its two operands come from (a `Copy`
    /// names its source twice; a `LoadFree` reads no register and names
    /// the loop variable). Its length is the body length.
    pub args: Vec<[Src; 2]>,
    /// The registers the body reads before writing them, in first-read
    /// order.
    pub inputs: Vec<FusedInput>,
}

/// Where a fused-body operand's value comes from ([`FusedBody::args`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// The latest write before it in the iteration: `0` is the loop
    /// variable's (the `IterNext`), `k + 1` body instruction `k`'s.
    Write(u16),
    /// [`FusedBody::inputs`]`[k]`: what the register held when the
    /// iteration began.
    Input(u16),
}

/// A register a fused body reads before writing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedInput {
    /// The register.
    pub reg: Reg,
    /// The body's last write to it, as a [`Src::Write`] index; `Some`
    /// makes the register loop-carried.
    pub last: Option<u16>,
}

/// A function compiled to bytecode.
///
/// Shared (behind `Arc`) by every thread calling the function; all mutable
/// state lives in the per-call [`crate::bytecode::frame::Frame`].
#[derive(Debug)]
pub struct CompiledCode {
    /// Function name (diagnostics only).
    pub name: String,
    /// The instruction stream.
    pub ops: Vec<Op>,
    /// Per-instruction specialization state ([`quick`] constants). Lives
    /// beside the immutable instruction stream as an atomic plane so the
    /// VM can quicken instructions "in place" while the
    /// `Arc<CompiledCode>` is shared across threads — a CAS on the state
    /// byte, not a mutation of [`CompiledCode::ops`].
    pub quick: Vec<AtomicU8>,
    /// Fused-loop eligibility, per instruction: at an `IterNext` whose loop
    /// body is straight-line register-only numeric work
    /// (`Binary`/`AugLocal`/`Copy`/`LoadFree`) closed by its own back-edge
    /// `Jump`, the body's register dataflow; `None` elsewhere. Computed
    /// once at compile time so the fused handler ([`quick::FUSED_RANGE`])
    /// never rescans the instruction stream, and each run's plan only
    /// reads operand kinds and cells.
    pub fused: Vec<Option<Box<FusedBody>>>,
    /// Per-instruction source line (innermost enclosing statement; 0 for
    /// synthesized code), used to annotate errors exactly as the
    /// tree-walker's per-statement `with_line` does.
    pub lines: Vec<u32>,
    /// Interned constants, preloaded into `[const_base, const_base+len)` at
    /// frame entry.
    pub consts: Vec<Value>,
    /// Name table (free/global/attr names referenced by index).
    pub names: Vec<String>,
    /// Per-call-site keyword-argument name lists.
    pub kw_tables: Vec<Vec<String>>,
    /// Locals occupy registers `[0, n_locals)`.
    pub n_locals: u16,
    /// First constant register.
    pub const_base: u16,
    /// Total register-file size (locals + constants + temporaries).
    pub n_regs: u16,
    /// Cell-table size (nonlocal/global binds and free-variable caches).
    pub n_cells: u16,
    /// Iterator-table size (maximum loop nesting).
    pub n_iters: u16,
    /// Inline-cache array size (one slot per `CallIntrinsic` and
    /// `CallMethod` site).
    pub n_sites: u16,
    /// Slot → name for locals (unset-slot fallback and diagnostics).
    pub local_names: Vec<String>,
    /// Parameter index → local slot.
    pub param_slots: Vec<u16>,
}
