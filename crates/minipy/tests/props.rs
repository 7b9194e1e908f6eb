//! Property-based tests: minipy arithmetic and data structures agree with
//! reference semantics, and the printer round-trips arbitrary-ish programs.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;

use minipy::interp::py_ordering;
use minipy::value::{Lookup, INLINE_STR_MAX};
use minipy::{HKey, Interp, Value};
use proptest::prelude::*;

fn eval_int(src: &str) -> i64 {
    Interp::new()
        .eval_str(src)
        .unwrap_or_else(|e| panic!("{src}: {e}"))
        .as_int()
        .unwrap()
}

/// The longest prefix of `s` of at most `max` bytes that ends on a
/// character boundary.
fn clip(s: &str, max: usize) -> &str {
    let mut end = max.min(s.len());
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

fn python_floordiv(a: i64, b: i64) -> i64 {
    let q = a / b;
    if a % b != 0 && (a < 0) != (b < 0) {
        q - 1
    } else {
        q
    }
}

fn python_mod(a: i64, b: i64) -> i64 {
    let r = a % b;
    if r != 0 && (r < 0) != (b < 0) {
        r + b
    } else {
        r
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Integer arithmetic matches Python's semantics (incl. floor division
    /// and sign-of-divisor modulo).
    #[test]
    fn int_arithmetic_matches_python(a in -10_000i64..10_000, b in -10_000i64..10_000) {
        prop_assert_eq!(eval_int(&format!("{a} + {b}")), a + b);
        prop_assert_eq!(eval_int(&format!("{a} - {b}")), a - b);
        prop_assert_eq!(eval_int(&format!("{a} * {b}")), a * b);
        if b != 0 {
            prop_assert_eq!(eval_int(&format!("{a} // {b}")), python_floordiv(a, b));
            prop_assert_eq!(eval_int(&format!("{a} % {b}")), python_mod(a, b));
            // The Python identity: a == (a // b) * b + (a % b)
            prop_assert_eq!(python_floordiv(a, b) * b + python_mod(a, b), a);
        }
    }

    /// Comparison chains agree with the conjunction of pairs.
    #[test]
    fn comparison_chain_semantics(a in -100i64..100, b in -100i64..100, c in -100i64..100) {
        let chained = Interp::new()
            .eval_str(&format!("{a} < {b} <= {c}"))
            .unwrap()
            .truthy();
        prop_assert_eq!(chained, a < b && b <= c);
    }

    /// range() iteration matches Rust's equivalent stepped iteration.
    #[test]
    fn range_iteration_matches(start in -50i64..50, stop in -50i64..50, step in prop_oneof![1i64..5, (-5i64..-1).prop_map(|v| v)]) {
        let interp = Interp::new();
        interp
            .run(&format!(
                "out = []\nfor i in range({start}, {stop}, {step}):\n    out.append(i)\n"
            ))
            .unwrap();
        let got: Vec<i64> = match interp.get_global("out").unwrap() {
            Value::List(l) => l.read().iter().map(|v| v.as_int().unwrap()).collect(),
            _ => unreachable!(),
        };
        let mut expect = Vec::new();
        let mut i = start;
        while (step > 0 && i < stop) || (step < 0 && i > stop) {
            expect.push(i);
            i += step;
        }
        prop_assert_eq!(got, expect);
    }

    /// Negative indexing and slicing agree with a reference model.
    #[test]
    fn list_slicing_matches_model(items in proptest::collection::vec(-100i64..100, 0..20),
                                  lo in -25i64..25, hi in -25i64..25) {
        let interp = Interp::new();
        let list_src: Vec<String> = items.iter().map(|v| v.to_string()).collect();
        interp
            .run(&format!("out = [{}][{lo}:{hi}]\n", list_src.join(", ")))
            .unwrap();
        let got: Vec<i64> = match interp.get_global("out").unwrap() {
            Value::List(l) => l.read().iter().map(|v| v.as_int().unwrap()).collect(),
            _ => unreachable!(),
        };
        // Python slice model.
        let n = items.len() as i64;
        let clamp = |v: i64| -> i64 {
            let v = if v < 0 { v + n } else { v };
            v.clamp(0, n)
        };
        let (l, h) = (clamp(lo), clamp(hi));
        let expect: Vec<i64> = if l < h {
            items[l as usize..h as usize].to_vec()
        } else {
            Vec::new()
        };
        prop_assert_eq!(got, expect);
    }

    /// sorted() agrees with Rust's stable sort.
    #[test]
    fn sorted_matches_rust(items in proptest::collection::vec(-1000i64..1000, 0..30)) {
        let interp = Interp::new();
        let list_src: Vec<String> = items.iter().map(|v| v.to_string()).collect();
        interp.run(&format!("out = sorted([{}])\n", list_src.join(", "))).unwrap();
        let got: Vec<i64> = match interp.get_global("out").unwrap() {
            Value::List(l) => l.read().iter().map(|v| v.as_int().unwrap()).collect(),
            _ => unreachable!(),
        };
        let mut expect = items.clone();
        expect.sort();
        prop_assert_eq!(got, expect);
    }

    /// Dict insert/get/len behave like a reference HashMap.
    #[test]
    fn dict_matches_hashmap(ops in proptest::collection::vec((0u8..3, 0i64..20, -100i64..100), 1..40)) {
        let interp = Interp::new();
        interp.run("d = {}\n").unwrap();
        let mut model = std::collections::HashMap::new();
        for (op, k, v) in &ops {
            match op {
                0 => {
                    interp.run(&format!("d[{k}] = {v}\n")).unwrap();
                    model.insert(*k, *v);
                }
                1 => {
                    let got = interp.eval_str(&format!("d.get({k}, -999999)")).unwrap().as_int().unwrap();
                    prop_assert_eq!(got, model.get(k).copied().unwrap_or(-999_999));
                }
                _ => {
                    if model.remove(k).is_some() {
                        interp.run(&format!("del d[{k}]\n")).unwrap();
                    }
                }
            }
        }
        let len = interp.eval_str("len(d)").unwrap().as_int().unwrap();
        prop_assert_eq!(len as usize, model.len());
    }

    /// Printer is a fixpoint for arithmetic-expression programs.
    #[test]
    fn printer_fixpoint_for_expressions(a in -100i64..100, b in 1i64..100, c in -100i64..100) {
        let src = format!("x = ({a} + {b}) * {c} - {a} // {b}\ny = x < {c} and x != {a}\n");
        let m1 = minipy::parse(&src).unwrap();
        let p1 = minipy::print_module(&m1);
        let m2 = minipy::parse(&p1).unwrap();
        let p2 = minipy::print_module(&m2);
        prop_assert_eq!(p1.clone(), p2);
        // And evaluation agrees between original and printed forms.
        let i1 = Interp::new();
        i1.run(&src).unwrap();
        let i2 = Interp::new();
        i2.run(&p1).unwrap();
        prop_assert!(i1.get_global("x").unwrap().py_eq(&i2.get_global("x").unwrap()));
        prop_assert!(i1.get_global("y").unwrap().py_eq(&i2.get_global("y").unwrap()));
    }

    /// String split/join round trips for space-free word lists.
    #[test]
    fn split_join_round_trip(words in proptest::collection::vec("[a-z]{1,8}", 1..10)) {
        let interp = Interp::new();
        let joined = words.join(" ");
        interp.run(&format!("parts = \"{joined}\".split()\nback = \" \".join(parts)\n")).unwrap();
        let back = interp.get_global("back").unwrap();
        prop_assert_eq!(back.as_str().unwrap(), joined.as_str());
        let n = interp.eval_str("len(parts)").unwrap().as_int().unwrap();
        prop_assert_eq!(n as usize, words.len());
    }

    /// Strings of 0-64 bytes, multi-byte characters included, read back
    /// as built, and compare, order and key the same whether each sits
    /// inline (up to 22 bytes) or on the heap. `t` shares a prefix of `s`
    /// of any length, so pairs straddle the limit both ways.
    #[test]
    fn inline_and_heap_strings_agree(a in "[ab é€😀]{0,40}", b in "[ab é€😀]{0,20}", cut in 0usize..65) {
        let s = clip(&a, 64).to_owned();
        let t = clip(&format!("{}{b}", clip(&s, cut)), 64).to_owned();
        let (vs, vt) = (Value::str(s.as_str()), Value::str(t.as_str()));
        prop_assert_eq!(vs.as_str().unwrap(), s.as_str());
        prop_assert_eq!(vt.as_str().unwrap(), t.as_str());
        for (v, text) in [(&vs, &s), (&vt, &t)] {
            let Value::Str(payload) = v else { panic!("not a str") };
            prop_assert_eq!(payload.is_inline(), text.len() <= INLINE_STR_MAX);
            // Every constructor picks the same form.
            let from_arc = Value::str(Arc::<str>::from(text.as_str()));
            let from_string = Value::str(text.clone());
            for other in [&from_arc, &from_string] {
                let Value::Str(o) = other else { panic!("not a str") };
                prop_assert_eq!(o.is_inline(), payload.is_inline());
                prop_assert!(other.py_eq(v));
            }
        }
        prop_assert_eq!(vs.py_eq(&vt), s == t);
        prop_assert_eq!(vs.is_identical(&vt), s == t && s.len() <= INLINE_STR_MAX);
        prop_assert_eq!(py_ordering(&vs, &vt).unwrap(), s.cmp(&t));

        // Dict keys: always a heap block, equal to the host's key of the
        // same text, hashed as the borrowed lookup view.
        let (ks, kt) = (HKey::from_value(&vs).unwrap(), HKey::from_value(&vt).unwrap());
        prop_assert_eq!(&ks, &HKey::Str(Arc::from(s.as_str())));
        prop_assert_eq!(ks == kt, s == t);
        let state = RandomState::new();
        let lookup = Lookup::of(&vs).unwrap();
        prop_assert_eq!(state.hash_one(&ks), state.hash_one(lookup.key()));
        let mut map = HashMap::new();
        map.insert(kt.clone(), 1);
        prop_assert_eq!(map.contains_key(lookup.key()), s == t);
        prop_assert!(kt.into_value().py_eq(&vt));
    }
}
