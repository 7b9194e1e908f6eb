//! Built-in methods of the built-in types (`list.append`, `str.split`, …).
//!
//! A method is resolved once, from the receiver's [`TypeTag`] and its name,
//! to one [`BuiltinMethod`], which then runs on borrowed arguments. The VM
//! caches the resolution per `CallMethod` site and lends the method the
//! call's argument registers; the tree-walker resolves on every call and
//! lends the arguments it evaluated.

use std::collections::HashMap;
use std::sync::Arc;

use crate::builtins::sort_values;
use crate::error::{type_err, value_err, ErrKind, PyErr};
use crate::interp::{Interp, ValueIter};
use crate::value::{Args, ArgsRef, HKey, Lookup, ObjLock, Value};

/// A resolved built-in method: `(interp, receiver, args)`. The receiver's
/// type is the one the method was resolved for.
pub type BuiltinMethod = fn(&Interp, &Value, ArgsRef<'_>) -> Result<Value, PyErr>;

/// The built-in receiver types that have methods. The VM's method inline
/// caches are keyed on it: a site's resolved method is valid while its
/// receiver keeps the same tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeTag {
    /// `Value::List` receivers.
    List,
    /// `Value::Str` receivers.
    Str,
    /// `Value::Dict` receivers.
    Dict,
    /// `Value::Tuple` receivers.
    Tuple,
    /// `Value::Float` receivers.
    Float,
}

impl TypeTag {
    /// The tag of a receiver, or `None` for a type with no built-in
    /// methods (opaque objects dispatch through their own table).
    #[inline]
    pub fn of(v: &Value) -> Option<TypeTag> {
        Some(match v {
            Value::List(_) => TypeTag::List,
            Value::Str(_) => TypeTag::Str,
            Value::Dict(_) => TypeTag::Dict,
            Value::Tuple(_) => TypeTag::Tuple,
            Value::Float(_) => TypeTag::Float,
            _ => return None,
        })
    }
}

/// The method `name` of receivers tagged `tag`, or `None` if that type has
/// no such method.
fn resolve(tag: TypeTag, name: &str) -> Option<BuiltinMethod> {
    match tag {
        TypeTag::List => list_method(name),
        TypeTag::Str => str_method(name),
        TypeTag::Dict => dict_method(name),
        TypeTag::Tuple => tuple_method(name),
        TypeTag::Float => float_method(name),
    }
}

/// The method `name` of a non-opaque receiver.
///
/// # Errors
///
/// `AttributeError` when the receiver's type has no such method.
pub(crate) fn lookup(obj: &Value, name: &str) -> Result<BuiltinMethod, PyErr> {
    TypeTag::of(obj)
        .and_then(|tag| resolve(tag, name))
        .ok_or_else(|| attr_err(obj.type_name(), name))
}

/// Call `obj.method(args)`: an opaque receiver's own method table, or the
/// resolved built-in method on the borrowed arguments.
///
/// # Errors
///
/// `AttributeError` for unknown methods and `TypeError` for bad arguments.
pub fn call_method(interp: &Interp, obj: &Value, method: &str, args: Args) -> Result<Value, PyErr> {
    if let Value::Opaque(o) = obj {
        return o.call_method(interp, method, args.pos);
    }
    lookup(obj, method)?(interp, obj, args.borrowed())
}

fn attr_err(type_name: &str, method: &str) -> PyErr {
    PyErr::new(
        ErrKind::Attribute,
        format!("'{type_name}' object has no attribute '{method}'"),
    )
}

// Receiver views: a method only ever runs on the type it was resolved for.

fn list(obj: &Value) -> &ObjLock<Vec<Value>> {
    match obj {
        Value::List(l) => l,
        _ => unreachable!("method resolved for list"),
    }
}

fn dict(obj: &Value) -> &Arc<ObjLock<HashMap<HKey, Value>>> {
    match obj {
        Value::Dict(d) => d,
        _ => unreachable!("method resolved for dict"),
    }
}

fn tuple(obj: &Value) -> &[Value] {
    match obj {
        Value::Tuple(t) => t,
        _ => unreachable!("method resolved for tuple"),
    }
}

fn string(obj: &Value) -> &str {
    match obj {
        Value::Str(s) => s,
        _ => unreachable!("method resolved for str"),
    }
}

fn list_method(name: &str) -> Option<BuiltinMethod> {
    let method: BuiltinMethod = match name {
        "append" => |_, obj, args| {
            args.expect_len(1, "append")?;
            list(obj).write().push(args.pos[0].clone());
            Ok(Value::None)
        },
        "extend" => |_, obj, args| {
            args.expect_len(1, "extend")?;
            // Collected before the write lock: the argument may be the
            // receiver itself.
            let items = ValueIter::new(args.req(0)?)?.collect_vec();
            list(obj).write().extend(items);
            Ok(Value::None)
        },
        "pop" => |_, obj, args| {
            let mut items = list(obj).write();
            if items.is_empty() {
                return Err(PyErr::new(ErrKind::Index, "pop from empty list"));
            }
            let idx = match args.opt(0) {
                Some(v) => {
                    let i = v.as_int()?;
                    let len = items.len() as i64;
                    let i = if i < 0 { i + len } else { i };
                    if i < 0 || i >= len {
                        return Err(PyErr::new(ErrKind::Index, "pop index out of range"));
                    }
                    i as usize
                }
                None => items.len() - 1,
            };
            Ok(items.remove(idx))
        },
        "insert" => |_, obj, args| {
            args.expect_len(2, "insert")?;
            let mut items = list(obj).write();
            let len = items.len() as i64;
            let i = args.req(0)?.as_int()?.clamp(-len, len);
            let i = if i < 0 {
                (i + len) as usize
            } else {
                i as usize
            };
            items.insert(i, args.req(1)?.clone());
            Ok(Value::None)
        },
        "sort" => |interp, obj, args| {
            // Copy out, sort, write back: the key function may run
            // interpreted code, which must not execute while the list lock
            // is held.
            let mut items = list(obj).read().clone();
            let reverse = args.kwarg("reverse").map(Value::truthy).unwrap_or(false);
            sort_values(interp, &mut items, args.kwarg("key"), reverse)?;
            *list(obj).write() = items;
            Ok(Value::None)
        },
        "reverse" => |_, obj, _| {
            list(obj).write().reverse();
            Ok(Value::None)
        },
        "clear" => |_, obj, _| {
            list(obj).write().clear();
            Ok(Value::None)
        },
        "index" => |_, obj, args| {
            args.expect_len(1, "index")?;
            let needle = args.req(0)?;
            let items = list(obj).read();
            items
                .iter()
                .position(|v| v.py_eq(needle))
                .map(|i| Value::Int(i as i64))
                .ok_or_else(|| value_err(format!("{} is not in list", needle.repr())))
        },
        "count" => |_, obj, args| {
            args.expect_len(1, "count")?;
            let needle = args.req(0)?;
            Ok(Value::Int(
                list(obj).read().iter().filter(|v| v.py_eq(needle)).count() as i64,
            ))
        },
        "copy" => |_, obj, _| Ok(Value::list(list(obj).read().clone())),
        "remove" => |_, obj, args| {
            args.expect_len(1, "remove")?;
            let needle = args.req(0)?;
            let mut items = list(obj).write();
            match items.iter().position(|v| v.py_eq(needle)) {
                Some(i) => {
                    items.remove(i);
                    Ok(Value::None)
                }
                None => Err(value_err("list.remove(x): x not in list")),
            }
        },
        _ => return None,
    };
    Some(method)
}

fn dict_method(name: &str) -> Option<BuiltinMethod> {
    let method: BuiltinMethod = match name {
        "get" => |_, obj, args| {
            let key = Lookup::of(args.req(0)?)?;
            match dict(obj).read().get(key.key()) {
                Some(v) => Ok(v.clone()),
                None => Ok(args.opt(1).cloned().unwrap_or(Value::None)),
            }
        },
        "keys" => |_, obj, _| {
            let keys: Vec<Value> = dict(obj).read().keys().map(HKey::to_value).collect();
            Ok(Value::list(keys))
        },
        "values" => |_, obj, _| {
            let values: Vec<Value> = dict(obj).read().values().cloned().collect();
            Ok(Value::list(values))
        },
        "items" => |_, obj, _| {
            let items: Vec<Value> = dict(obj)
                .read()
                .iter()
                .map(|(k, v)| Value::tuple(vec![k.to_value(), v.clone()]))
                .collect();
            Ok(Value::list(items))
        },
        "pop" => |_, obj, args| {
            let key = Lookup::of(args.req(0)?)?;
            match dict(obj).write().remove(key.key()) {
                Some(v) => Ok(v),
                None => match args.opt(1) {
                    Some(d) => Ok(d.clone()),
                    None => Err(PyErr::new(ErrKind::Key, args.req(0)?.repr())),
                },
            }
        },
        "setdefault" => |_, obj, args| {
            let key = HKey::from_value(args.req(0)?)?;
            let default = args.opt(1).cloned().unwrap_or(Value::None);
            let mut map = dict(obj).write();
            Ok(map.entry(key).or_insert(default).clone())
        },
        "update" => |_, obj, args| {
            args.expect_len(1, "update")?;
            let dst = dict(obj);
            match args.req(0)? {
                Value::Dict(src) => {
                    if Arc::ptr_eq(src, dst) {
                        return Ok(Value::None);
                    }
                    let src_items: Vec<(HKey, Value)> = src
                        .read()
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    dst.write().extend(src_items);
                    Ok(Value::None)
                }
                other => Err(type_err(format!(
                    "dict.update() argument must be a dict, not '{}'",
                    other.type_name()
                ))),
            }
        },
        "clear" => |_, obj, _| {
            dict(obj).write().clear();
            Ok(Value::None)
        },
        "copy" => |_, obj, _| {
            let snapshot = dict(obj).read().clone();
            Ok(Value::Dict(Arc::new(ObjLock::new(snapshot))))
        },
        _ => return None,
    };
    Some(method)
}

fn tuple_method(name: &str) -> Option<BuiltinMethod> {
    let method: BuiltinMethod = match name {
        "index" => |_, obj, args| {
            args.expect_len(1, "index")?;
            let needle = args.req(0)?;
            tuple(obj)
                .iter()
                .position(|v| v.py_eq(needle))
                .map(|i| Value::Int(i as i64))
                .ok_or_else(|| value_err("tuple.index(x): x not in tuple"))
        },
        "count" => |_, obj, args| {
            args.expect_len(1, "count")?;
            let needle = args.req(0)?;
            Ok(Value::Int(
                tuple(obj).iter().filter(|v| v.py_eq(needle)).count() as i64,
            ))
        },
        _ => return None,
    };
    Some(method)
}

fn float_method(name: &str) -> Option<BuiltinMethod> {
    let method: BuiltinMethod = match name {
        "is_integer" => |_, obj, args| {
            args.expect_len(0, "is_integer")?;
            match obj {
                Value::Float(f) => Ok(Value::Bool(f.fract() == 0.0)),
                _ => unreachable!("method resolved for float"),
            }
        },
        _ => return None,
    };
    Some(method)
}

fn str_method(name: &str) -> Option<BuiltinMethod> {
    let method: BuiltinMethod = match name {
        "split" => |_, obj, args| {
            let s = string(obj);
            match args.opt(0) {
                None | Some(Value::None) => Ok(Value::list(
                    s.split(py_isspace)
                        .filter(|w| !w.is_empty())
                        .map(Value::str)
                        .collect(),
                )),
                Some(sep) => {
                    let sep = sep.as_str()?;
                    if sep.is_empty() {
                        return Err(value_err("empty separator"));
                    }
                    Ok(Value::list(s.split(sep).map(Value::str).collect()))
                }
            }
        },
        "splitlines" => |_, obj, _| Ok(Value::list(splitlines(string(obj)))),
        "strip" => |_, obj, args| strip(string(obj), args, true, true),
        "lstrip" => |_, obj, args| strip(string(obj), args, true, false),
        "rstrip" => |_, obj, args| strip(string(obj), args, false, true),
        "lower" => |_, obj, _| Ok(Value::str(string(obj).to_lowercase())),
        "upper" => |_, obj, _| Ok(Value::str(string(obj).to_uppercase())),
        "join" => |_, obj, args| {
            args.expect_len(1, "join")?;
            let items = ValueIter::new(args.req(0)?)?.collect_vec();
            let parts: Result<Vec<&str>, PyErr> = items.iter().map(Value::as_str).collect();
            Ok(Value::str(parts?.join(string(obj))))
        },
        "startswith" => |_, obj, args| {
            args.expect_len(1, "startswith")?;
            Ok(Value::Bool(string(obj).starts_with(args.req(0)?.as_str()?)))
        },
        "endswith" => |_, obj, args| {
            args.expect_len(1, "endswith")?;
            Ok(Value::Bool(string(obj).ends_with(args.req(0)?.as_str()?)))
        },
        "replace" => |_, obj, args| {
            args.expect_len(2, "replace")?;
            Ok(Value::str(
                string(obj).replace(args.req(0)?.as_str()?, args.req(1)?.as_str()?),
            ))
        },
        "find" => |_, obj, args| {
            args.expect_len(1, "find")?;
            let s = string(obj);
            let needle = args.req(0)?.as_str()?;
            match s.find(needle) {
                Some(byte_pos) => {
                    let char_pos = s[..byte_pos].chars().count();
                    Ok(Value::Int(char_pos as i64))
                }
                None => Ok(Value::Int(-1)),
            }
        },
        "count" => |_, obj, args| {
            args.expect_len(1, "count")?;
            let s = string(obj);
            let needle = args.req(0)?.as_str()?;
            if needle.is_empty() {
                return Ok(Value::Int(s.chars().count() as i64 + 1));
            }
            Ok(Value::Int(s.matches(needle).count() as i64))
        },
        "isdigit" => |_, obj, _| Ok(Value::Bool(all_chars(string(obj), |c| c.is_ascii_digit()))),
        "isalpha" => |_, obj, _| Ok(Value::Bool(all_chars(string(obj), char::is_alphabetic))),
        "isalnum" => |_, obj, _| Ok(Value::Bool(all_chars(string(obj), char::is_alphanumeric))),
        "isspace" => |_, obj, _| Ok(Value::Bool(all_chars(string(obj), py_isspace))),
        "title" => |_, obj, _| {
            let s = string(obj);
            let mut out = String::with_capacity(s.len());
            let mut word_start = true;
            for c in s.chars() {
                if c.is_alphabetic() {
                    if word_start {
                        out.extend(c.to_uppercase());
                    } else {
                        out.extend(c.to_lowercase());
                    }
                    word_start = false;
                } else {
                    out.push(c);
                    word_start = true;
                }
            }
            Ok(Value::str(out))
        },
        _ => return None,
    };
    Some(method)
}

/// `str.isdigit()` and kin: non-empty and every char satisfies `pred`.
fn all_chars(s: &str, pred: impl Fn(char) -> bool) -> bool {
    !s.is_empty() && s.chars().all(pred)
}

/// Python's whitespace (`str.isspace()`, and what `split()` and `strip()`
/// with no argument remove): Unicode's `White_Space`, which is Rust's
/// [`char::is_whitespace`], plus the separators U+001C–U+001F.
pub(crate) fn py_isspace(c: char) -> bool {
    c.is_whitespace() || ('\u{1c}'..='\u{1f}').contains(&c)
}

/// `str.splitlines()`: Python breaks lines at `\n`, `\r`, `\r\n`, `\v`,
/// `\f`, U+001C-U+001E, U+0085, U+2028 and U+2029, and a break that ends
/// the string opens no empty last line.
fn splitlines(s: &str) -> Vec<Value> {
    let mut lines = Vec::new();
    let mut start = 0;
    let mut chars = s.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        if matches!(
            c,
            '\n' | '\r' | '\x0b' | '\x0c' | '\x1c'..='\x1e' | '\u{85}' | '\u{2028}' | '\u{2029}'
        ) {
            lines.push(Value::str(&s[start..i]));
            start = i + c.len_utf8();
            if c == '\r' && chars.next_if(|&(_, n)| n == '\n').is_some() {
                start += 1;
            }
        }
    }
    if start < s.len() {
        lines.push(Value::str(&s[start..]));
    }
    lines
}

fn strip(s: &str, args: ArgsRef<'_>, left: bool, right: bool) -> Result<Value, PyErr> {
    let custom: Option<Vec<char>> = match args.opt(0) {
        None | Some(Value::None) => None,
        Some(v) => Some(v.as_str()?.chars().collect()),
    };
    let pred = |c: char| match &custom {
        Some(set) => set.contains(&c),
        None => py_isspace(c),
    };
    let mut out = s;
    if left {
        out = out.trim_start_matches(pred);
    }
    if right {
        out = out.trim_end_matches(pred);
    }
    Ok(Value::str(out))
}
