//! Dynamic values.
//!
//! Containers are `Arc`-shared with per-object `RwLock`s — the same design
//! free-threaded CPython uses (per-object locks + shared reference counts).
//! This is deliberate: in Pure/Hybrid execution modes, multithreaded scaling
//! is limited by contention on these shared atomically-refcounted objects,
//! which reproduces the scaling ceiling the OMP4Py paper attributes to the
//! CPython 3.14b1 free-threaded interpreter.

use std::any::Any;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::ast::FuncDef;
use crate::env::Env;
use crate::error::{type_err, PyErr};
use crate::interp::Interp;

/// The per-object lock guarding a shared mutable container — free-threaded
/// CPython's per-object locking, reduced to its essentials.
///
/// A thin wrapper over `RwLock` whose only addition is observability: when
/// [`crate::stats`] collection is armed, every acquisition is counted and
/// flagged as contended if the lock was already held (probed with a
/// non-blocking attempt before falling back to the blocking path). Disarmed —
/// the default — both methods are a single relaxed load away from the plain
/// `RwLock` fast path, so benchmark figures are unperturbed.
pub struct ObjLock<T> {
    inner: RwLock<T>,
}

impl<T> ObjLock<T> {
    /// Wrap a value in a fresh, unlocked per-object lock.
    pub fn new(value: T) -> ObjLock<T> {
        ObjLock {
            inner: RwLock::new(value),
        }
    }

    /// Acquire shared read access (counted when stats are armed).
    pub fn read(&self) -> parking_lot::RwLockReadGuard<'_, T> {
        if !crate::stats::enabled() {
            return self.inner.read();
        }
        match self.inner.try_read() {
            Some(guard) => {
                crate::stats::count_obj_lock(false);
                guard
            }
            None => {
                let guard = self.inner.read();
                crate::stats::count_obj_lock(true);
                guard
            }
        }
    }

    /// Acquire exclusive write access (counted when stats are armed).
    pub fn write(&self) -> parking_lot::RwLockWriteGuard<'_, T> {
        if !crate::stats::enabled() {
            return self.inner.write();
        }
        match self.inner.try_write() {
            Some(guard) => {
                crate::stats::count_obj_lock(false);
                guard
            }
            None => {
                let guard = self.inner.write();
                crate::stats::count_obj_lock(true);
                guard
            }
        }
    }

    /// Take the value out of a lock no one else can reach (no acquisition).
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: fmt::Debug> fmt::Debug for ObjLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// A Python-like dynamic value.
#[derive(Clone)]
pub enum Value {
    /// `None`
    None,
    /// `bool`
    Bool(bool),
    /// `int` (64-bit; minipy does not implement big integers)
    Int(i64),
    /// `float`
    Float(f64),
    /// `str` (immutable; short strings inline, longer ones shared)
    Str(Str),
    /// `list` (mutable, shared, per-object lock)
    List(Arc<ObjLock<Vec<Value>>>),
    /// `dict` (mutable, shared, per-object lock)
    Dict(Arc<ObjLock<HashMap<HKey, Value>>>),
    /// `tuple` (immutable, shared)
    Tuple(Arc<Vec<Value>>),
    /// `range(start, stop, step)` — materialized lazily
    Range(i64, i64, i64),
    /// An interpreted function (closure)
    Func(Arc<FuncValue>),
    /// A host-provided native function
    Native(Arc<NativeFunc>),
    /// A host-provided opaque object (e.g. a graph handle or lock)
    Opaque(Arc<dyn Opaque>),
}

// A value is four words: a tag and the largest payload (a `range`'s three
// `i64`s, or an inline string's length and bytes).
const _: () = assert!(std::mem::size_of::<Value>() == 32);

/// The most bytes a `str` holds inline, in its [`Value`]: its tag, length
/// and bytes fill the 24 bytes a `range` takes.
pub const INLINE_STR_MAX: usize = 22;

/// The payload of a `str` value.
///
/// A string of at most [`INLINE_STR_MAX`] bytes keeps its bytes and length
/// in the value itself, so making, copying, dropping or splitting one out
/// allocates nothing and touches no reference count. A longer string is an
/// `Arc<str>`: its reference counts and bytes in one heap block, shared by
/// every copy. Every constructor picks the form by length alone, so two
/// equal strings always have the same form.
///
/// It derefs to `&str`. Equality and ordering are by content.
///
/// Identity (`is`, `id()`): a heap string is identified by its block, as
/// any shared object. An inline string has no block, so it is identified
/// by content, as if every short string were interned: two inline strings
/// are `is`-identical exactly when they are equal, and `id()` of one is
/// [`Str::id`], a function of its bytes alone.
#[derive(Clone)]
pub struct Str(StrRepr);

#[derive(Clone)]
enum StrRepr {
    /// `len` bytes of `buf`, valid UTF-8.
    Inline {
        len: u8,
        buf: [u8; INLINE_STR_MAX],
    },
    Heap(Arc<str>),
}

impl Str {
    /// The string `s`: inline if it fits, else copied into a new heap block.
    pub fn new(s: &str) -> Str {
        Str::inline(s).unwrap_or_else(|| Str(StrRepr::Heap(s.into())))
    }

    /// `s` in the inline form, if it fits.
    #[inline]
    fn inline(s: &str) -> Option<Str> {
        if s.len() > INLINE_STR_MAX {
            return None;
        }
        let mut buf = [0; INLINE_STR_MAX];
        buf[..s.len()].copy_from_slice(s.as_bytes());
        Some(Str(StrRepr::Inline {
            len: s.len() as u8,
            buf,
        }))
    }

    /// `a` followed by `b` (`+`), built in place when it fits inline.
    pub fn concat(a: &str, b: &str) -> Str {
        let len = a.len() + b.len();
        if len > INLINE_STR_MAX {
            return Str::new(&[a, b].concat());
        }
        let mut buf = [0; INLINE_STR_MAX];
        buf[..a.len()].copy_from_slice(a.as_bytes());
        buf[a.len()..len].copy_from_slice(b.as_bytes());
        Str(StrRepr::Inline {
            len: len as u8,
            buf,
        })
    }

    /// The string slice.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            StrRepr::Inline { len, buf } => {
                let bytes = &buf[..*len as usize];
                // SAFETY: an inline string's first `len` bytes are always
                // copied whole from one `&str` or two end to end, so they
                // are valid UTF-8.
                unsafe { std::str::from_utf8_unchecked(bytes) }
            }
            StrRepr::Heap(s) => s,
        }
    }

    /// Whether the bytes sit inline (the string is at most
    /// [`INLINE_STR_MAX`] bytes long).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, StrRepr::Inline { .. })
    }

    /// The string as an `Arc<str>`: the heap block itself, shared, or a new
    /// block holding an inline string's bytes.
    pub fn to_arc(&self) -> Arc<str> {
        match &self.0 {
            StrRepr::Inline { .. } => self.as_str().into(),
            StrRepr::Heap(s) => Arc::clone(s),
        }
    }

    /// Identity (`is`): the same heap block, or equal inline strings.
    pub fn is_identical(&self, other: &Str) -> bool {
        match (&self.0, &other.0) {
            (StrRepr::Heap(a), StrRepr::Heap(b)) => Arc::ptr_eq(a, b),
            (StrRepr::Inline { .. }, StrRepr::Inline { .. }) => self == other,
            _ => false,
        }
    }

    /// `id()`: a heap string's block address, or, for an inline string,
    /// a 64-bit FNV-1a hash of its bytes folded into `[2^62, 2^63)`, a
    /// range no heap address reaches. Equal inline strings share it; two
    /// different ones collide only as their hashes do.
    pub fn id(&self) -> u64 {
        match &self.0 {
            StrRepr::Inline { .. } => {
                let hash = self.as_str().bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                });
                (hash >> 2) | 1 << 62
            }
            StrRepr::Heap(s) => Arc::as_ptr(s) as *const u8 as u64,
        }
    }
}

impl Deref for Str {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Str {
    fn from(s: &str) -> Str {
        Str::new(s)
    }
}

impl From<String> for Str {
    fn from(s: String) -> Str {
        Str::new(&s)
    }
}

impl From<Arc<str>> for Str {
    /// Keeps a long string's block; a short one moves inline.
    fn from(s: Arc<str>) -> Str {
        Str::inline(&s).unwrap_or(Str(StrRepr::Heap(s)))
    }
}

impl PartialEq for Str {
    fn eq(&self, other: &Str) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Str {}

impl PartialOrd for Str {
    fn partial_cmp(&self, other: &Str) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Str {
    fn cmp(&self, other: &Str) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl fmt::Display for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

impl fmt::Debug for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// An interpreted function value: AST plus captured environment.
pub struct FuncValue {
    /// The function's definition (name, params, body).
    pub def: Arc<FuncDef>,
    /// The lexical environment the function was defined in.
    pub closure: Env,
    /// Qualified name for diagnostics.
    pub name: String,
    /// Default values, evaluated at `def` time (Python semantics); indexed
    /// like `def.params`, `None` for parameters without defaults.
    pub defaults: Vec<Option<Value>>,
}

impl fmt::Debug for FuncValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<function {}>", self.name)
    }
}

/// Call arguments for native functions: positional plus keyword.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Positional arguments, in order.
    pub pos: Vec<Value>,
    /// Keyword arguments, in source order.
    pub kw: Vec<(String, Value)>,
}

impl Args {
    /// Positional-only arguments.
    pub fn positional(pos: Vec<Value>) -> Args {
        Args {
            pos,
            kw: Vec::new(),
        }
    }

    /// Number of positional arguments.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// Whether there are no arguments at all.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty() && self.kw.is_empty()
    }

    /// Borrow both argument lists.
    pub fn borrowed(&self) -> ArgsRef<'_> {
        ArgsRef {
            pos: &self.pos,
            kw: &self.kw,
        }
    }

    /// Fetch positional argument `i`.
    ///
    /// # Errors
    ///
    /// `TypeError` if fewer than `i + 1` positional arguments were passed.
    pub fn req(&self, i: usize) -> Result<&Value, PyErr> {
        self.borrowed().req(i)
    }

    /// Fetch optional positional argument `i`.
    pub fn opt(&self, i: usize) -> Option<&Value> {
        self.pos.get(i)
    }

    /// Fetch a keyword argument by name.
    pub fn kwarg(&self, name: &str) -> Option<&Value> {
        self.borrowed().kwarg(name)
    }

    /// Require an exact positional arity.
    ///
    /// # Errors
    ///
    /// `TypeError` on arity mismatch.
    pub fn expect_len(&self, n: usize, fname: &str) -> Result<(), PyErr> {
        self.borrowed().expect_len(n, fname)
    }
}

/// Borrowed call arguments: what a built-in method receives. The VM lends
/// a call's argument registers here directly, so a method call copies no
/// argument.
#[derive(Debug, Clone, Copy)]
pub struct ArgsRef<'a> {
    /// Positional arguments, in order.
    pub pos: &'a [Value],
    /// Keyword arguments, in source order.
    pub kw: &'a [(String, Value)],
}

impl<'a> ArgsRef<'a> {
    /// Positional-only arguments.
    pub fn positional(pos: &'a [Value]) -> ArgsRef<'a> {
        ArgsRef { pos, kw: &[] }
    }

    /// Fetch positional argument `i`.
    ///
    /// # Errors
    ///
    /// `TypeError` if fewer than `i + 1` positional arguments were passed.
    pub fn req(self, i: usize) -> Result<&'a Value, PyErr> {
        self.pos
            .get(i)
            .ok_or_else(|| type_err(format!("missing required argument {}", i + 1)))
    }

    /// Fetch optional positional argument `i`.
    pub fn opt(self, i: usize) -> Option<&'a Value> {
        self.pos.get(i)
    }

    /// Fetch a keyword argument by name.
    pub fn kwarg(self, name: &str) -> Option<&'a Value> {
        self.kw.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Require an exact positional arity.
    ///
    /// # Errors
    ///
    /// `TypeError` on arity mismatch.
    pub fn expect_len(self, n: usize, fname: &str) -> Result<(), PyErr> {
        if self.pos.len() != n {
            return Err(type_err(format!(
                "{fname}() takes {n} positional arguments but {} were given",
                self.pos.len()
            )));
        }
        Ok(())
    }
}

/// Signature of host-native functions callable from interpreted code.
///
/// Native functions receive the interpreter so they can call back into
/// interpreted code (the OMP4Py runtime bridge uses this to run parallel
/// region bodies on worker threads).
pub type NativeImpl = dyn Fn(&Interp, Args) -> Result<Value, PyErr> + Send + Sync;

/// A host-native function value.
pub struct NativeFunc {
    /// Name for diagnostics.
    pub name: String,
    /// The implementation.
    pub func: Box<NativeImpl>,
}

impl NativeFunc {
    /// Wrap a Rust closure as a native function value (not `Self`: the
    /// useful unit is the ready-to-store [`Value`]).
    #[allow(clippy::new_ret_no_self)]
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(&Interp, Args) -> Result<Value, PyErr> + Send + Sync + 'static,
    ) -> Value {
        Value::Native(Arc::new(NativeFunc {
            name: name.into(),
            func: Box::new(f),
        }))
    }
}

impl fmt::Debug for NativeFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<native function {}>", self.name)
    }
}

/// Host objects stored inside interpreted values (graphs, locks, events…).
pub trait Opaque: Send + Sync {
    /// Python-style type name, shown by `type()` and error messages.
    fn type_name(&self) -> &str;
    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
    /// Optional method dispatch: `obj.method(args)` from interpreted code.
    ///
    /// # Errors
    ///
    /// The default implementation reports an `AttributeError` for all names.
    fn call_method(&self, interp: &Interp, name: &str, args: Vec<Value>) -> Result<Value, PyErr> {
        let _ = (interp, args);
        Err(PyErr::new(
            crate::error::ErrKind::Attribute,
            format!("'{}' object has no attribute '{}'", self.type_name(), name),
        ))
    }
    /// Optional length support (`len(obj)`).
    fn len(&self) -> Option<usize> {
        None
    }
    /// `len() == 0`, when length is supported at all.
    fn is_empty(&self) -> Option<bool> {
        self.len().map(|n| n == 0)
    }
    /// Optional attribute lookup (`obj.attr` without a call). Used by
    /// module objects (`math.pi`).
    fn get_attr(&self, name: &str) -> Option<Value> {
        let _ = name;
        None
    }
    /// Optional `str()` override (exception objects show their message).
    fn str_repr(&self) -> Option<String> {
        None
    }
}

/// Hashable key for dict storage (Python dict keys).
///
/// It hashes through its borrowed view, [`KeyRef`], so a dict can be
/// searched with a key borrowed from the looked-up value (see [`Lookup`])
/// and finds the same entries an owned key would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HKey {
    /// `None` key.
    None,
    /// `bool` key. Note: unlike Python, `True` and `1` are distinct keys.
    Bool(bool),
    /// `int` key.
    Int(i64),
    /// `float` key (bit pattern; `-0.0` normalized to `0.0`).
    FloatBits(u64),
    /// `str` key (an inline string's bytes are copied to the heap when it
    /// becomes a key).
    Str(Arc<str>),
    /// `tuple` key.
    Tuple(Vec<HKey>),
}

impl HKey {
    /// Convert a value into a dict key.
    ///
    /// # Errors
    ///
    /// Returns a `TypeError` for unhashable values (lists, dicts, functions).
    pub fn from_value(v: &Value) -> Result<HKey, PyErr> {
        Ok(match v {
            // Share a heap string's block rather than copy its bytes.
            Value::Str(s) => HKey::Str(s.to_arc()),
            other => match Lookup::of(other)? {
                Lookup::Ref(k) => k.to_hkey(),
                Lookup::Owned(k) => k,
            },
        })
    }

    /// Convert a key back to a value (for `keys()` / iteration).
    pub fn to_value(&self) -> Value {
        self.clone().into_value()
    }

    /// Convert a key into a value, moving its string or items.
    pub fn into_value(self) -> Value {
        match self {
            HKey::None => Value::None,
            HKey::Bool(b) => Value::Bool(b),
            HKey::Int(i) => Value::Int(i),
            HKey::FloatBits(bits) => Value::Float(f64::from_bits(bits)),
            HKey::Str(s) => Value::str(s),
            HKey::Tuple(items) => {
                Value::Tuple(Arc::new(items.into_iter().map(HKey::into_value).collect()))
            }
        }
    }
}

impl Hash for HKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key_ref().hash(state);
    }
}

/// A borrowed view of a dict key: what [`HKey`] holds, with its string and
/// items borrowed. An `HKey` hashes as its view, so a lookup by view finds
/// the entry the owned key would.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyRef<'a> {
    /// `None` key.
    None,
    /// `bool` key.
    Bool(bool),
    /// `int` key (and any float that is an exact integer).
    Int(i64),
    /// `float` key (bit pattern; `-0.0` normalized to `0.0`).
    FloatBits(u64),
    /// `str` key.
    Str(&'a str),
    /// `tuple` key.
    Tuple(&'a [HKey]),
}

impl KeyRef<'_> {
    /// The key of a float: an exact integer keys like the int (as in
    /// Python), anything else by its bits, with `-0.0` as `0.0`.
    fn float(f: f64) -> KeyRef<'static> {
        let f = if f == 0.0 { 0.0 } else { f };
        if f.fract() == 0.0 && f.abs() < i64::MAX as f64 {
            KeyRef::Int(f as i64)
        } else {
            KeyRef::FloatBits(f.to_bits())
        }
    }

    /// Build the owned key (copying a string's bytes).
    pub fn to_hkey(self) -> HKey {
        match self {
            KeyRef::None => HKey::None,
            KeyRef::Bool(b) => HKey::Bool(b),
            KeyRef::Int(i) => HKey::Int(i),
            KeyRef::FloatBits(bits) => HKey::FloatBits(bits),
            KeyRef::Str(s) => HKey::Str(s.into()),
            KeyRef::Tuple(items) => HKey::Tuple(items.to_vec()),
        }
    }
}

/// A dict key seen through its borrowed view. A `HashMap<HKey, _>` is
/// searched with a `&dyn DictKey` (`HKey: Borrow<dyn DictKey>`), so a
/// lookup hashes and compares a [`KeyRef`] and builds no `HKey`.
pub trait DictKey {
    /// The key's borrowed view.
    fn key_ref(&self) -> KeyRef<'_>;
}

impl DictKey for HKey {
    fn key_ref(&self) -> KeyRef<'_> {
        match self {
            HKey::None => KeyRef::None,
            HKey::Bool(b) => KeyRef::Bool(*b),
            HKey::Int(i) => KeyRef::Int(*i),
            HKey::FloatBits(bits) => KeyRef::FloatBits(*bits),
            HKey::Str(s) => KeyRef::Str(s),
            HKey::Tuple(items) => KeyRef::Tuple(items),
        }
    }
}

impl DictKey for KeyRef<'_> {
    fn key_ref(&self) -> KeyRef<'_> {
        *self
    }
}

impl<'a> Borrow<dyn DictKey + 'a> for HKey {
    fn borrow(&self) -> &(dyn DictKey + 'a) {
        self
    }
}

impl Hash for dyn DictKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key_ref().hash(state);
    }
}

impl PartialEq for dyn DictKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.key_ref() == other.key_ref()
    }
}

impl Eq for dyn DictKey + '_ {}

/// A value as a dict key for one lookup: borrowed from the value where the
/// key is the value's own data (`None`, bools, numbers, strings), owned
/// where it has to be built (a tuple's items become `HKey`s).
pub enum Lookup<'a> {
    /// A view into the value.
    Ref(KeyRef<'a>),
    /// A key built from the value.
    Owned(HKey),
}

impl<'a> Lookup<'a> {
    /// View `v` as a dict key.
    ///
    /// # Errors
    ///
    /// Returns a `TypeError` for unhashable values (lists, dicts, functions),
    /// with [`HKey::from_value`]'s message.
    pub fn of(v: &'a Value) -> Result<Lookup<'a>, PyErr> {
        Ok(Lookup::Ref(match v {
            Value::None => KeyRef::None,
            Value::Bool(b) => KeyRef::Bool(*b),
            Value::Int(i) => KeyRef::Int(*i),
            Value::Float(f) => KeyRef::float(*f),
            Value::Str(s) => KeyRef::Str(s),
            Value::Tuple(items) => {
                return Ok(Lookup::Owned(HKey::Tuple(
                    items
                        .iter()
                        .map(HKey::from_value)
                        .collect::<Result<_, _>>()?,
                )))
            }
            other => {
                return Err(type_err(format!(
                    "unhashable type: '{}'",
                    other.type_name()
                )))
            }
        }))
    }

    /// The key, to pass to `HashMap::get` and friends.
    pub fn key(&self) -> &(dyn DictKey + 'a) {
        match self {
            Lookup::Ref(k) => k,
            Lookup::Owned(k) => k,
        }
    }
}

impl Value {
    /// Build a string value from a `&str`, `String`, `Arc<str>` or [`Str`].
    /// A string of at most [`INLINE_STR_MAX`] bytes is stored inline, with
    /// no allocation; a longer one is one heap block holding the reference
    /// counts and the bytes (a `String`'s bytes are copied into it, an
    /// `Arc<str>` is kept).
    pub fn str(s: impl Into<Str>) -> Value {
        Value::Str(s.into())
    }

    /// Build a list value from items.
    pub fn list(items: Vec<Value>) -> Value {
        Value::List(Arc::new(ObjLock::new(items)))
    }

    /// Build an empty dict value.
    pub fn dict() -> Value {
        Value::Dict(Arc::new(ObjLock::new(HashMap::new())))
    }

    /// Build a tuple value from items.
    pub fn tuple(items: Vec<Value>) -> Value {
        Value::Tuple(Arc::new(items))
    }

    /// Python-style type name.
    pub fn type_name(&self) -> &str {
        match self {
            Value::None => "NoneType",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::List(_) => "list",
            Value::Dict(_) => "dict",
            Value::Tuple(_) => "tuple",
            Value::Range(..) => "range",
            Value::Func(_) => "function",
            Value::Native(_) => "builtin_function_or_method",
            Value::Opaque(o) => o.type_name(),
        }
    }

    /// Python truthiness.
    pub fn truthy(&self) -> bool {
        match self {
            Value::None => false,
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::List(l) => !l.read().is_empty(),
            Value::Dict(d) => !d.read().is_empty(),
            Value::Tuple(t) => !t.is_empty(),
            Value::Range(start, stop, step) => range_len(*start, *stop, *step) > 0,
            Value::Func(_) | Value::Native(_) | Value::Opaque(_) => true,
        }
    }

    /// Extract an `i64`, accepting `int` and `bool`.
    ///
    /// # Errors
    ///
    /// `TypeError` if the value is not an integer.
    pub fn as_int(&self) -> Result<i64, PyErr> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Bool(b) => Ok(*b as i64),
            other => Err(type_err(format!("expected int, got {}", other.type_name()))),
        }
    }

    /// Extract an `f64`, accepting `int`, `float`, and `bool`.
    ///
    /// # Errors
    ///
    /// `TypeError` if the value is not numeric.
    pub fn as_float(&self) -> Result<f64, PyErr> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            Value::Bool(b) => Ok(*b as i64 as f64),
            other => Err(type_err(format!(
                "expected float, got {}",
                other.type_name()
            ))),
        }
    }

    /// Extract a string slice.
    ///
    /// # Errors
    ///
    /// `TypeError` if the value is not a `str`.
    pub fn as_str(&self) -> Result<&str, PyErr> {
        match self {
            Value::Str(s) => Ok(s.as_str()),
            other => Err(type_err(format!("expected str, got {}", other.type_name()))),
        }
    }

    /// Identity comparison (`is`); see [`Str`] for strings.
    pub fn is_identical(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::None, Value::None) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a.is_identical(b),
            (Value::List(a), Value::List(b)) => Arc::ptr_eq(a, b),
            (Value::Dict(a), Value::Dict(b)) => Arc::ptr_eq(a, b),
            (Value::Tuple(a), Value::Tuple(b)) => Arc::ptr_eq(a, b),
            (Value::Func(a), Value::Func(b)) => Arc::ptr_eq(a, b),
            (Value::Native(a), Value::Native(b)) => Arc::ptr_eq(a, b),
            (Value::Opaque(a), Value::Opaque(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Structural equality (`==`), recursing into containers.
    pub fn py_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::None, Value::None) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *a as f64 == *b,
            (Value::Bool(a), Value::Int(b)) | (Value::Int(b), Value::Bool(a)) => (*a as i64) == *b,
            (Value::Bool(a), Value::Float(b)) | (Value::Float(b), Value::Bool(a)) => {
                (*a as i64 as f64) == *b
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Tuple(a), Value::Tuple(b)) => {
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.py_eq(y))
            }
            (Value::List(a), Value::List(b)) => {
                if Arc::ptr_eq(a, b) {
                    return true;
                }
                let a = a.read();
                let b = b.read();
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.py_eq(y))
            }
            (Value::Dict(a), Value::Dict(b)) => {
                if Arc::ptr_eq(a, b) {
                    return true;
                }
                let a = a.read();
                let b = b.read();
                a.len() == b.len() && a.iter().all(|(k, v)| b.get(k).is_some_and(|w| v.py_eq(w)))
            }
            (Value::Range(a1, a2, a3), Value::Range(b1, b2, b3)) => (a1, a2, a3) == (b1, b2, b3),
            _ => self.is_identical(other),
        }
    }

    /// Python `repr()`.
    pub fn repr(&self) -> String {
        match self {
            Value::None => "None".into(),
            Value::Bool(true) => "True".into(),
            Value::Bool(false) => "False".into(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => format_float(*f),
            Value::Str(s) => repr_str(s),
            Value::List(l) => {
                let items = l.read();
                let inner: Vec<String> = items.iter().map(Value::repr).collect();
                format!("[{}]", inner.join(", "))
            }
            Value::Dict(d) => {
                let map = d.read();
                let inner: Vec<String> = map
                    .iter()
                    .map(|(k, v)| format!("{}: {}", k.to_value().repr(), v.repr()))
                    .collect();
                format!("{{{}}}", inner.join(", "))
            }
            Value::Tuple(t) => {
                let inner: Vec<String> = t.iter().map(Value::repr).collect();
                if t.len() == 1 {
                    format!("({},)", inner[0])
                } else {
                    format!("({})", inner.join(", "))
                }
            }
            Value::Range(a, b, c) => {
                if *c == 1 {
                    format!("range({a}, {b})")
                } else {
                    format!("range({a}, {b}, {c})")
                }
            }
            Value::Func(f) => format!("<function {}>", f.name),
            Value::Native(f) => format!("<built-in function {}>", f.name),
            Value::Opaque(o) => match o.str_repr() {
                Some(s) => s,
                None => format!("<{} object>", o.type_name()),
            },
        }
    }

    /// Python `str()`.
    pub fn py_str(&self) -> String {
        match self {
            Value::Str(s) => s.as_str().to_owned(),
            other => other.repr(),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.repr())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::str(v)
    }
}

/// Number of elements in `range(start, stop, step)`.
pub fn range_len(start: i64, stop: i64, step: i64) -> i64 {
    if step > 0 {
        if stop > start {
            (stop - start + step - 1) / step
        } else {
            0
        }
    } else if step < 0 {
        if start > stop {
            (start - stop + (-step) - 1) / (-step)
        } else {
            0
        }
    } else {
        0
    }
}

/// Python's `repr` of a `str`: double quotes when the text has a `'` and no
/// `"`, `\t` `\n` `\r` as escapes, and the other C0 controls, DEL and the
/// C1 controls as `\xHH`. Unlike CPython, other non-printable non-ASCII
/// characters are written as they are.
fn repr_str(s: &str) -> String {
    use fmt::Write as _;
    let quote = if s.contains('\'') && !s.contains('"') {
        '"'
    } else {
        '\''
    };
    let mut out = String::with_capacity(s.len() + 2);
    out.push(quote);
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\0'..='\x1f' | '\x7f'..='\u{9f}' => {
                let _ = write!(out, "\\x{:02x}", c as u32);
            }
            c if c == quote => {
                out.push('\\');
                out.push(c);
            }
            c => out.push(c),
        }
    }
    out.push(quote);
    out
}

/// Format a float the way Python's `repr` does for common cases.
pub fn format_float(f: f64) -> String {
    if f.is_nan() {
        return "nan".into();
    }
    if f.is_infinite() {
        return if f > 0.0 { "inf".into() } else { "-inf".into() };
    }
    if f == f.trunc() && f.abs() < 1e16 {
        format!("{:.1}", f)
    } else {
        let s = format!("{}", f);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::None.truthy());
        assert!(!Value::Int(0).truthy());
        assert!(Value::Int(3).truthy());
        assert!(!Value::str("").truthy());
        assert!(Value::str("x").truthy());
        assert!(!Value::list(vec![]).truthy());
        assert!(Value::list(vec![Value::Int(1)]).truthy());
        assert!(!Value::Range(0, 0, 1).truthy());
        assert!(Value::Range(0, 5, 1).truthy());
    }

    #[test]
    fn numeric_equality_coerces() {
        assert!(Value::Int(2).py_eq(&Value::Float(2.0)));
        assert!(Value::Bool(true).py_eq(&Value::Int(1)));
        assert!(!Value::Int(2).py_eq(&Value::Float(2.5)));
    }

    #[test]
    fn deep_list_equality() {
        let a = Value::list(vec![Value::Int(1), Value::str("x")]);
        let b = Value::list(vec![Value::Int(1), Value::str("x")]);
        assert!(a.py_eq(&b));
        assert!(!a.is_identical(&b));
        assert!(a.is_identical(&a.clone()));
    }

    #[test]
    fn hkey_float_int_unify() {
        let k1 = HKey::from_value(&Value::Int(3)).unwrap();
        let k2 = HKey::from_value(&Value::Float(3.0)).unwrap();
        assert_eq!(k1, k2);
    }

    #[test]
    fn hkey_unhashable() {
        assert!(HKey::from_value(&Value::list(vec![])).is_err());
        assert!(HKey::from_value(&Value::dict()).is_err());
    }

    #[test]
    fn hkey_tuple_round_trip() {
        let t = Value::tuple(vec![Value::Int(1), Value::str("a")]);
        let k = HKey::from_value(&t).unwrap();
        assert!(k.to_value().py_eq(&t));
    }

    #[test]
    fn hkey_hashes_as_its_view() {
        use std::hash::BuildHasher;
        let state = std::collections::hash_map::RandomState::new();
        let keys = [
            HKey::None,
            HKey::Bool(true),
            HKey::Int(-3),
            HKey::FloatBits(2.5f64.to_bits()),
            HKey::Str("w".into()),
            HKey::Tuple(vec![HKey::Int(1), HKey::Str("a".into())]),
        ];
        for k in &keys {
            let view = k.key_ref();
            assert_eq!(state.hash_one(k), state.hash_one(view), "{k:?}");
            assert_eq!(state.hash_one(k), state.hash_one(&view as &dyn DictKey));
            assert_eq!(view.to_hkey(), *k);
        }
    }

    #[test]
    fn lookup_finds_what_the_owned_key_inserted() {
        let mut map = HashMap::new();
        let keys = [
            Value::None,
            Value::Bool(false),
            Value::Int(1),
            Value::Float(0.5),
            Value::str("w"),
            Value::tuple(vec![Value::Int(1), Value::str("a")]),
        ];
        for (i, k) in keys.iter().enumerate() {
            map.insert(HKey::from_value(k).unwrap(), i);
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(map.get(Lookup::of(k).unwrap().key()), Some(&i), "{k:?}");
        }
        // 1.0 and -0.0 key as the ints 1 and 0; True stays apart from 1.
        map.insert(HKey::Int(0), 9);
        let one = Value::Float(1.0);
        assert_eq!(map.get(Lookup::of(&one).unwrap().key()), Some(&2));
        let zero = Value::Float(-0.0);
        assert_eq!(map.get(Lookup::of(&zero).unwrap().key()), Some(&9));
        let t = Value::Bool(true);
        assert!(!map.contains_key(Lookup::of(&t).unwrap().key()));
        let err = Lookup::of(&Value::list(vec![])).err().unwrap();
        assert_eq!(err.to_string(), "TypeError: unhashable type: 'list'");
    }

    #[test]
    fn repr_shapes() {
        assert_eq!(Value::Float(1.0).repr(), "1.0");
        assert_eq!(Value::Float(1.5).repr(), "1.5");
        assert_eq!(Value::str("a'b").repr(), "\"a'b\"");
        assert_eq!(Value::str("a'\"b").repr(), "'a\\'\"b'");
        assert_eq!(Value::str("\t\n\r\\").repr(), "'\\t\\n\\r\\\\'");
        assert_eq!(
            Value::str("\0\x1c\x7f\u{85}é").repr(),
            "'\\x00\\x1c\\x7f\\x85é'"
        );
        assert_eq!(Value::tuple(vec![Value::Int(1)]).repr(), "(1,)");
        assert_eq!(
            Value::list(vec![Value::Int(1), Value::Int(2)]).repr(),
            "[1, 2]"
        );
    }

    #[test]
    fn range_len_cases() {
        assert_eq!(range_len(0, 10, 1), 10);
        assert_eq!(range_len(0, 10, 3), 4);
        assert_eq!(range_len(10, 0, -1), 10);
        assert_eq!(range_len(10, 0, -3), 4);
        assert_eq!(range_len(0, 0, 1), 0);
        assert_eq!(range_len(5, 0, 1), 0);
        assert_eq!(range_len(0, 5, -1), 0);
        assert_eq!(range_len(0, 5, 0), 0);
    }

    #[test]
    fn str_form_follows_length() {
        let short = "x".repeat(INLINE_STR_MAX);
        let long = "x".repeat(INLINE_STR_MAX + 1);
        assert!(Str::new(&short).is_inline());
        assert!(!Str::new(&long).is_inline());
        assert!(Str::from(Arc::<str>::from(short.as_str())).is_inline());
        assert!(!Str::from(long.clone()).is_inline());
        assert!(Str::concat(&short, "").is_inline());
        assert!(!Str::concat(&short, "x").is_inline());
        assert_eq!(&*Str::concat("ab", "é"), "abé");
        assert_eq!(&*Str::concat("", ""), "");
    }

    #[test]
    fn str_identity_rule() {
        // Inline: by content, with ids that no heap address reaches.
        let (a, b) = (Str::new("abc"), Str::concat("a", "bc"));
        assert!(a.is_identical(&b));
        assert_eq!(a.id(), b.id());
        assert_ne!(a.id(), Str::new("abd").id());
        assert!(a.id() >= 1 << 62 && a.id() < 1 << 63);
        // Heap: by block.
        let long = "y".repeat(INLINE_STR_MAX + 1);
        let (l1, l2) = (Str::new(&long), Str::new(&long));
        assert!(!l1.is_identical(&l2));
        assert!(l1.is_identical(&l1.clone()));
        assert_ne!(l1.id(), l2.id());
        assert_eq!(l1.id(), l1.clone().id());
        assert!(l1.id() < 1 << 62);
    }

    #[test]
    fn values_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Value>();
    }
}
