//! Built-in functions and standard modules (`math`, `time`).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::env::Env;
use crate::error::{type_err, value_err, ErrKind, PyErr};
use crate::interp::{compare, py_ordering, ExcValue, Interp, ValueIter};
use crate::value::{Args, HKey, NativeFunc, Opaque, Value};

/// A module object: a named bag of attributes.
///
/// Hosts (like the OMP4Py bridge) build one, populate it with
/// [`ModuleObj::set`], and register it via [`Interp::register_module`].
#[derive(Debug, Default)]
pub struct ModuleObj {
    name: String,
    items: RwLock<HashMap<String, Value>>,
}

impl ModuleObj {
    /// Create an empty module with a name.
    pub fn new(name: impl Into<String>) -> ModuleObj {
        ModuleObj {
            name: name.into(),
            items: RwLock::new(HashMap::new()),
        }
    }

    /// Define a module attribute.
    pub fn set(&self, name: impl Into<String>, value: Value) {
        self.items.write().insert(name.into(), value);
    }

    /// Names exported by `from module import *` (all attributes not starting
    /// with an underscore).
    pub fn export_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .items
            .read()
            .keys()
            .filter(|k| !k.starts_with('_'))
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Wrap into a [`Value`].
    pub fn into_value(self) -> Value {
        Value::Opaque(Arc::new(self))
    }
}

impl Opaque for ModuleObj {
    fn type_name(&self) -> &str {
        "module"
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn get_attr(&self, name: &str) -> Option<Value> {
        self.items.read().get(name).cloned()
    }
    fn str_repr(&self) -> Option<String> {
        Some(format!("<module '{}'>", self.name))
    }
}

fn native(
    env: &Env,
    name: &'static str,
    f: impl Fn(&Interp, Args) -> Result<Value, PyErr> + Send + Sync + 'static,
) {
    env.define(name, NativeFunc::new(name, f));
}

/// Install the builtin functions into the builtins root frame.
pub fn install(env: &Env) {
    native(env, "print", |interp, args| {
        let sep = match args.kwarg("sep") {
            Some(v) => v.py_str(),
            None => " ".to_owned(),
        };
        let end = match args.kwarg("end") {
            Some(v) => v.py_str(),
            None => "\n".to_owned(),
        };
        let parts: Vec<String> = args.pos.iter().map(Value::py_str).collect();
        interp.write_stdout(&format!("{}{}", parts.join(&sep), end));
        Ok(Value::None)
    });

    native(env, "range", |_, args| match args.pos.len() {
        1 => Ok(Value::Range(0, args.req(0)?.as_int()?, 1)),
        2 => Ok(Value::Range(
            args.req(0)?.as_int()?,
            args.req(1)?.as_int()?,
            1,
        )),
        3 => {
            let step = args.req(2)?.as_int()?;
            if step == 0 {
                return Err(value_err("range() arg 3 must not be zero"));
            }
            Ok(Value::Range(
                args.req(0)?.as_int()?,
                args.req(1)?.as_int()?,
                step,
            ))
        }
        n => Err(type_err(format!(
            "range expected 1 to 3 arguments, got {n}"
        ))),
    });

    native(env, "len", |_, args| {
        args.expect_len(1, "len")?;
        let n = match args.req(0)? {
            Value::Str(s) => s.chars().count(),
            Value::List(l) => l.read().len(),
            Value::Dict(d) => d.read().len(),
            Value::Tuple(t) => t.len(),
            Value::Range(a, b, c) => crate::value::range_len(*a, *b, *c) as usize,
            Value::Opaque(o) => o.len().ok_or_else(|| {
                type_err(format!("object of type '{}' has no len()", o.type_name()))
            })?,
            other => {
                return Err(type_err(format!(
                    "object of type '{}' has no len()",
                    other.type_name()
                )))
            }
        };
        Ok(Value::Int(n as i64))
    });

    native(env, "abs", |_, args| {
        args.expect_len(1, "abs")?;
        match args.req(0)? {
            Value::Int(i) => Ok(Value::Int(i.checked_abs().ok_or_else(|| {
                PyErr::new(ErrKind::Custom("OverflowError".into()), "integer overflow")
            })?)),
            Value::Float(f) => Ok(Value::Float(f.abs())),
            Value::Bool(b) => Ok(Value::Int(*b as i64)),
            other => Err(type_err(format!(
                "bad operand type for abs(): '{}'",
                other.type_name()
            ))),
        }
    });

    native(env, "min", |interp, args| min_max(interp, args, true));
    native(env, "max", |interp, args| min_max(interp, args, false));

    native(env, "sum", |_, args| {
        let items = ValueIter::new(args.req(0)?)?.collect_vec();
        let mut acc = match args.opt(1) {
            Some(v) => v.clone(),
            None => Value::Int(0),
        };
        for item in items {
            acc = crate::interp::binary_op(crate::ast::BinOp::Add, &acc, &item)?;
        }
        Ok(acc)
    });

    native(env, "int", |_, args| {
        if args.pos.is_empty() {
            return Ok(Value::Int(0));
        }
        match args.req(0)? {
            Value::Int(i) => Ok(Value::Int(*i)),
            Value::Bool(b) => Ok(Value::Int(*b as i64)),
            Value::Float(f) => Ok(Value::Int(f.trunc() as i64)),
            Value::Str(s) => {
                let base = match args.opt(1) {
                    Some(b) => b.as_int()? as u32,
                    None => 10,
                };
                i64::from_str_radix(s.trim(), base)
                    .map(Value::Int)
                    .map_err(|_| value_err(format!("invalid literal for int(): {s:?}")))
            }
            other => Err(type_err(format!(
                "int() argument must be a number, not '{}'",
                other.type_name()
            ))),
        }
    });

    native(env, "float", |_, args| {
        if args.pos.is_empty() {
            return Ok(Value::Float(0.0));
        }
        match args.req(0)? {
            Value::Int(i) => Ok(Value::Float(*i as f64)),
            Value::Bool(b) => Ok(Value::Float(*b as i64 as f64)),
            Value::Float(f) => Ok(Value::Float(*f)),
            Value::Str(s) => s
                .trim()
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| value_err(format!("could not convert string to float: {s:?}"))),
            other => Err(type_err(format!(
                "float() argument must be a number, not '{}'",
                other.type_name()
            ))),
        }
    });

    native(env, "str", |_, args| {
        if args.pos.is_empty() {
            return Ok(Value::str(""));
        }
        Ok(Value::str(args.req(0)?.py_str()))
    });

    native(env, "repr", |_, args| {
        args.expect_len(1, "repr")?;
        Ok(Value::str(args.req(0)?.repr()))
    });

    native(env, "bool", |_, args| {
        if args.pos.is_empty() {
            return Ok(Value::Bool(false));
        }
        Ok(Value::Bool(args.req(0)?.truthy()))
    });

    native(env, "list", |_, args| {
        if args.pos.is_empty() {
            return Ok(Value::list(Vec::new()));
        }
        Ok(Value::list(ValueIter::new(args.req(0)?)?.collect_vec()))
    });

    native(env, "tuple", |_, args| {
        if args.pos.is_empty() {
            return Ok(Value::tuple(Vec::new()));
        }
        Ok(Value::tuple(ValueIter::new(args.req(0)?)?.collect_vec()))
    });

    native(env, "dict", |_, args| {
        let d = Value::dict();
        if let Some(src) = args.opt(0) {
            if let (Value::Dict(dst), Value::Dict(srcmap)) = (&d, src) {
                let src_items: Vec<(HKey, Value)> = srcmap
                    .read()
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                dst.write().extend(src_items);
            } else {
                // dict([(k, v), ...])
                if let Value::Dict(dst) = &d {
                    for pair in ValueIter::new(src)?.collect_vec() {
                        match &pair {
                            Value::Tuple(t) if t.len() == 2 => {
                                dst.write().insert(HKey::from_value(&t[0])?, t[1].clone());
                            }
                            Value::List(l) if l.read().len() == 2 => {
                                let l = l.read();
                                dst.write().insert(HKey::from_value(&l[0])?, l[1].clone());
                            }
                            _ => {
                                return Err(type_err("dict update sequence elements must be pairs"))
                            }
                        }
                    }
                }
            }
        }
        Ok(d)
    });

    native(env, "enumerate", |_, args| {
        let start = match args.opt(1) {
            Some(v) => v.as_int()?,
            None => 0,
        };
        let items = ValueIter::new(args.req(0)?)?.collect_vec();
        Ok(Value::list(
            items
                .into_iter()
                .enumerate()
                .map(|(i, v)| Value::tuple(vec![Value::Int(start + i as i64), v]))
                .collect(),
        ))
    });

    native(env, "zip", |_, args| {
        let mut iters: Vec<Vec<Value>> = Vec::new();
        for a in &args.pos {
            iters.push(ValueIter::new(a)?.collect_vec());
        }
        let n = iters.iter().map(Vec::len).min().unwrap_or(0);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(Value::tuple(iters.iter().map(|v| v[i].clone()).collect()));
        }
        Ok(Value::list(out))
    });

    native(env, "sorted", |interp, args| {
        let mut items = ValueIter::new(args.req(0)?)?.collect_vec();
        let reverse = args.kwarg("reverse").map(Value::truthy).unwrap_or(false);
        let key_fn = args.kwarg("key").cloned();
        sort_values(interp, &mut items, key_fn.as_ref(), reverse)?;
        Ok(Value::list(items))
    });

    native(env, "reversed", |_, args| {
        let mut items = ValueIter::new(args.req(0)?)?.collect_vec();
        items.reverse();
        Ok(Value::list(items))
    });

    native(env, "round", |_, args| {
        let v = args.req(0)?.as_float()?;
        match args.opt(1) {
            None => {
                // Python banker's rounding.
                let r = v.round();
                let r = if (v - v.trunc()).abs() == 0.5 && r % 2.0 != 0.0 {
                    r - v.signum()
                } else {
                    r
                };
                Ok(Value::Int(r as i64))
            }
            Some(nd) => {
                let p = 10f64.powi(nd.as_int()? as i32);
                Ok(Value::Float((v * p).round() / p))
            }
        }
    });

    native(env, "isinstance", |_, args| {
        args.expect_len(2, "isinstance")?;
        let obj = args.req(0)?;
        let class = args.req(1)?;
        let check = |class: &Value| -> Result<bool, PyErr> {
            let cname = match class {
                Value::Native(nf) => nf.name.clone(),
                other => {
                    return Err(type_err(format!(
                        "isinstance() arg 2 must be a type, not {}",
                        other.type_name()
                    )))
                }
            };
            Ok(matches_type_name(obj, &cname))
        };
        match class {
            Value::Tuple(classes) => {
                for c in classes.iter() {
                    if check(c)? {
                        return Ok(Value::Bool(true));
                    }
                }
                Ok(Value::Bool(false))
            }
            single => Ok(Value::Bool(check(single)?)),
        }
    });

    native(env, "type", |_, args| {
        args.expect_len(1, "type")?;
        Ok(Value::str(args.req(0)?.type_name()))
    });

    native(env, "id", |_, args| {
        args.expect_len(1, "id")?;
        let v = args.req(0)?;
        let addr = match v {
            Value::Str(s) => Arc::as_ptr(s) as *const u8 as usize,
            Value::List(l) => Arc::as_ptr(l) as usize,
            Value::Dict(d) => Arc::as_ptr(d) as usize,
            Value::Tuple(t) => Arc::as_ptr(t) as usize,
            Value::Func(f) => Arc::as_ptr(f) as usize,
            Value::Native(f) => Arc::as_ptr(f) as usize,
            Value::Opaque(o) => Arc::as_ptr(o) as *const () as usize,
            Value::Int(i) => *i as usize,
            Value::Bool(b) => *b as usize,
            Value::Float(f) => f.to_bits() as usize,
            Value::None | Value::Range(..) => 0,
        };
        Ok(Value::Int(addr as i64))
    });

    native(env, "ord", |_, args| {
        args.expect_len(1, "ord")?;
        let s = args.req(0)?.as_str()?.to_owned();
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(Value::Int(c as i64)),
            _ => Err(type_err("ord() expected a character")),
        }
    });

    native(env, "chr", |_, args| {
        args.expect_len(1, "chr")?;
        let i = args.req(0)?.as_int()?;
        let c = u32::try_from(i)
            .ok()
            .and_then(char::from_u32)
            .ok_or_else(|| value_err("chr() arg not in range"))?;
        Ok(Value::str(&*c.encode_utf8(&mut [0; 4])))
    });

    native(env, "divmod", |_, args| {
        args.expect_len(2, "divmod")?;
        let q = crate::interp::binary_op(crate::ast::BinOp::FloorDiv, args.req(0)?, args.req(1)?)?;
        let r = crate::interp::binary_op(crate::ast::BinOp::Mod, args.req(0)?, args.req(1)?)?;
        Ok(Value::tuple(vec![q, r]))
    });

    native(env, "any", |_, args| {
        args.expect_len(1, "any")?;
        Ok(Value::Bool(
            ValueIter::new(args.req(0)?)?.any(|v| v.truthy()),
        ))
    });

    native(env, "all", |_, args| {
        args.expect_len(1, "all")?;
        Ok(Value::Bool(
            ValueIter::new(args.req(0)?)?.all(|v| v.truthy()),
        ))
    });

    native(env, "pow", |_, args| {
        crate::interp::binary_op(crate::ast::BinOp::Pow, args.req(0)?, args.req(1)?)
    });

    // Exception constructors.
    for name in [
        "Exception",
        "BaseException",
        "ValueError",
        "TypeError",
        "NameError",
        "IndexError",
        "KeyError",
        "ZeroDivisionError",
        "AttributeError",
        "RuntimeError",
        "AssertionError",
        "StopIteration",
        "OverflowError",
        "RecursionError",
        "NotImplementedError",
        "KeyboardInterrupt",
        "SyntaxError",
    ] {
        env.define(
            name,
            NativeFunc::new(name, move |_, args| {
                let msg = match args.opt(0) {
                    Some(v) => v.py_str(),
                    None => String::new(),
                };
                Ok(Value::Opaque(Arc::new(ExcValue {
                    kind: ErrKind::from_class_name(name),
                    msg,
                })))
            }),
        );
    }
}

fn matches_type_name(obj: &Value, class_name: &str) -> bool {
    match class_name {
        "int" => matches!(obj, Value::Int(_)),
        "float" => matches!(obj, Value::Float(_)),
        "bool" => matches!(obj, Value::Bool(_)),
        "str" => matches!(obj, Value::Str(_)),
        "list" => matches!(obj, Value::List(_)),
        "dict" => matches!(obj, Value::Dict(_)),
        "tuple" => matches!(obj, Value::Tuple(_)),
        other => obj.type_name() == other,
    }
}

fn min_max(interp: &Interp, args: Args, want_min: bool) -> Result<Value, PyErr> {
    let items = if args.pos.len() == 1 {
        ValueIter::new(args.req(0)?)?.collect_vec()
    } else {
        args.pos.clone()
    };
    if items.is_empty() {
        if let Some(d) = args.kwarg("default") {
            return Ok(d.clone());
        }
        return Err(value_err("min()/max() arg is an empty sequence"));
    }
    let key_fn = args.kwarg("key").cloned();
    let keyed: Vec<(Value, Value)> = match &key_fn {
        Some(f) => items
            .iter()
            .map(|v| {
                Ok((
                    interp.call_value(f, Args::positional(vec![v.clone()]))?,
                    v.clone(),
                ))
            })
            .collect::<Result<_, PyErr>>()?,
        None => items.iter().map(|v| (v.clone(), v.clone())).collect(),
    };
    let mut best = keyed[0].clone();
    for item in &keyed[1..] {
        let better = if want_min {
            compare(crate::ast::CmpOp::Lt, &item.0, &best.0)?
        } else {
            compare(crate::ast::CmpOp::Gt, &item.0, &best.0)?
        };
        if better {
            best = item.clone();
        }
    }
    Ok(best.1)
}

/// Sort values in place, optionally via a key function, Python-stable.
///
/// # Errors
///
/// Propagates key-function errors and `TypeError` for unorderable elements.
pub fn sort_values(
    interp: &Interp,
    items: &mut [Value],
    key_fn: Option<&Value>,
    reverse: bool,
) -> Result<(), PyErr> {
    let keys: Vec<Value> = match key_fn {
        Some(f) => items
            .iter()
            .map(|v| interp.call_value(f, Args::positional(vec![v.clone()])))
            .collect::<Result<_, _>>()?,
        None => items.to_vec(),
    };
    let mut idx: Vec<usize> = (0..items.len()).collect();
    let mut error: Option<PyErr> = None;
    idx.sort_by(|&a, &b| match py_ordering(&keys[a], &keys[b]) {
        Ok(ord) => {
            if reverse {
                ord.reverse()
            } else {
                ord
            }
        }
        Err(e) => {
            if error.is_none() {
                error = Some(e);
            }
            std::cmp::Ordering::Equal
        }
    });
    if let Some(e) = error {
        return Err(e);
    }
    let sorted: Vec<Value> = idx.iter().map(|&i| items[i].clone()).collect();
    items.clone_from_slice(&sorted);
    Ok(())
}

/// Install the `math` and `time` modules into an interpreter's registry.
pub fn install_default_modules(interp: &Interp) {
    let math = ModuleObj::new("math");
    math.set("pi", Value::Float(std::f64::consts::PI));
    math.set("e", Value::Float(std::f64::consts::E));
    math.set("inf", Value::Float(f64::INFINITY));
    math.set("nan", Value::Float(f64::NAN));
    let unary_math = |name: &'static str, f: fn(f64) -> f64| {
        NativeFunc::new(name, move |_, args: Args| {
            args.expect_len(1, name)?;
            Ok(Value::Float(f(args.req(0)?.as_float()?)))
        })
    };
    math.set("sqrt", unary_math("sqrt", f64::sqrt));
    math.set("sin", unary_math("sin", f64::sin));
    math.set("cos", unary_math("cos", f64::cos));
    math.set("tan", unary_math("tan", f64::tan));
    math.set("exp", unary_math("exp", f64::exp));
    math.set("log", unary_math("log", f64::ln));
    math.set("log2", unary_math("log2", f64::log2));
    math.set("log10", unary_math("log10", f64::log10));
    math.set("fabs", unary_math("fabs", f64::abs));
    math.set(
        "floor",
        NativeFunc::new("floor", |_, args: Args| {
            Ok(Value::Int(args.req(0)?.as_float()?.floor() as i64))
        }),
    );
    math.set(
        "ceil",
        NativeFunc::new("ceil", |_, args: Args| {
            Ok(Value::Int(args.req(0)?.as_float()?.ceil() as i64))
        }),
    );
    math.set(
        "pow",
        NativeFunc::new("pow", |_, args: Args| {
            Ok(Value::Float(
                args.req(0)?.as_float()?.powf(args.req(1)?.as_float()?),
            ))
        }),
    );
    math.set(
        "atan2",
        NativeFunc::new("atan2", |_, args: Args| {
            Ok(Value::Float(
                args.req(0)?.as_float()?.atan2(args.req(1)?.as_float()?),
            ))
        }),
    );
    interp.register_module("math", math.into_value());

    let time = ModuleObj::new("time");
    time.set(
        "time",
        NativeFunc::new("time", |_, _| {
            let now = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap_or_default();
            Ok(Value::Float(now.as_secs_f64()))
        }),
    );
    time.set(
        "perf_counter",
        NativeFunc::new("perf_counter", |_, _| {
            // Monotonic, relative to process start.
            use std::sync::OnceLock;
            static START: OnceLock<std::time::Instant> = OnceLock::new();
            let start = START.get_or_init(std::time::Instant::now);
            Ok(Value::Float(start.elapsed().as_secs_f64()))
        }),
    );
    time.set(
        "sleep",
        NativeFunc::new("sleep", |interp, args: Args| {
            let secs = args.req(0)?.as_float()?;
            interp.gil().allow_threads(|| {
                std::thread::sleep(std::time::Duration::from_secs_f64(secs.max(0.0)));
            });
            Ok(Value::None)
        }),
    );
    interp.register_module("time", time.into_value());
}
