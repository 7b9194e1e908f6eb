//! AST pretty-printer: renders a [`Module`] back to Python-like source.
//!
//! Used by the OMP4Py-style frontend's `dump` option (the paper's `@omp`
//! decorator can emit the transformed source for inspection) and by golden
//! tests of the directive transformer.

use crate::ast::*;

/// Render a module to source text.
pub fn print_module(module: &Module) -> String {
    let mut out = String::new();
    for stmt in &module.body {
        print_stmt(stmt, 0, &mut out);
    }
    out
}

/// Render a single statement (and children) at an indentation level.
pub fn print_stmt(stmt: &Stmt, indent: usize, out: &mut String) {
    let pad = "    ".repeat(indent);
    match &stmt.kind {
        StmtKind::Expr(e) => {
            out.push_str(&pad);
            out.push_str(&print_expr(e));
            out.push('\n');
        }
        StmtKind::Assign { targets, value } => {
            out.push_str(&pad);
            for t in targets {
                out.push_str(&print_expr(t));
                out.push_str(" = ");
            }
            out.push_str(&print_expr(value));
            out.push('\n');
        }
        StmtKind::AugAssign { target, op, value } => {
            out.push_str(&pad);
            out.push_str(&format!(
                "{} {}= {}\n",
                print_expr(target),
                op.symbol(),
                print_expr(value)
            ));
        }
        StmtKind::If { test, body, orelse } => {
            out.push_str(&pad);
            out.push_str(&format!("if {}:\n", print_expr(test)));
            print_block(body, indent + 1, out);
            if !orelse.is_empty() {
                // Collapse `else: if ...` into `elif`.
                if orelse.len() == 1 {
                    if let StmtKind::If { .. } = &orelse[0].kind {
                        let mut tmp = String::new();
                        print_stmt(&orelse[0], indent, &mut tmp);
                        let replaced =
                            tmp.replacen(&format!("{pad}if "), &format!("{pad}elif "), 1);
                        out.push_str(&replaced);
                        return;
                    }
                }
                out.push_str(&pad);
                out.push_str("else:\n");
                print_block(orelse, indent + 1, out);
            }
        }
        StmtKind::While { test, body } => {
            out.push_str(&pad);
            out.push_str(&format!("while {}:\n", print_expr(test)));
            print_block(body, indent + 1, out);
        }
        StmtKind::For { target, iter, body } => {
            out.push_str(&pad);
            out.push_str(&format!(
                "for {} in {}:\n",
                print_expr(target),
                print_expr(iter)
            ));
            print_block(body, indent + 1, out);
        }
        StmtKind::FuncDef(def) => {
            for deco in &def.decorators {
                out.push_str(&pad);
                out.push_str(&format!("@{}\n", print_expr(deco)));
            }
            out.push_str(&pad);
            let params: Vec<String> = def
                .params
                .iter()
                .map(|p| match &p.default {
                    Some(d) => format!("{}={}", p.name, print_expr(d)),
                    None => p.name.clone(),
                })
                .collect();
            out.push_str(&format!("def {}({}):\n", def.name, params.join(", ")));
            print_block(&def.body, indent + 1, out);
        }
        StmtKind::Return(v) => {
            out.push_str(&pad);
            match v {
                Some(e) => out.push_str(&format!("return {}\n", print_expr(e))),
                None => out.push_str("return\n"),
            }
        }
        StmtKind::Break => {
            out.push_str(&pad);
            out.push_str("break\n");
        }
        StmtKind::Continue => {
            out.push_str(&pad);
            out.push_str("continue\n");
        }
        StmtKind::Pass => {
            out.push_str(&pad);
            out.push_str("pass\n");
        }
        StmtKind::Global(names) => {
            out.push_str(&pad);
            out.push_str(&format!("global {}\n", names.join(", ")));
        }
        StmtKind::Nonlocal(names) => {
            out.push_str(&pad);
            out.push_str(&format!("nonlocal {}\n", names.join(", ")));
        }
        StmtKind::With { items, body } => {
            out.push_str(&pad);
            let parts: Vec<String> = items
                .iter()
                .map(|i| match &i.alias {
                    Some(a) => format!("{} as {}", print_expr(&i.context), a),
                    None => print_expr(&i.context),
                })
                .collect();
            out.push_str(&format!("with {}:\n", parts.join(", ")));
            print_block(body, indent + 1, out);
        }
        StmtKind::Try {
            body,
            handlers,
            orelse,
            finalbody,
        } => {
            out.push_str(&pad);
            out.push_str("try:\n");
            print_block(body, indent + 1, out);
            for h in handlers {
                out.push_str(&pad);
                match (&h.class_name, &h.alias) {
                    (Some(c), Some(a)) => out.push_str(&format!("except {c} as {a}:\n")),
                    (Some(c), None) => out.push_str(&format!("except {c}:\n")),
                    _ => out.push_str("except:\n"),
                }
                print_block(&h.body, indent + 1, out);
            }
            if !orelse.is_empty() {
                out.push_str(&pad);
                out.push_str("else:\n");
                print_block(orelse, indent + 1, out);
            }
            if !finalbody.is_empty() {
                out.push_str(&pad);
                out.push_str("finally:\n");
                print_block(finalbody, indent + 1, out);
            }
        }
        StmtKind::Raise(v) => {
            out.push_str(&pad);
            match v {
                Some(e) => out.push_str(&format!("raise {}\n", print_expr(e))),
                None => out.push_str("raise\n"),
            }
        }
        StmtKind::Assert { test, msg } => {
            out.push_str(&pad);
            match msg {
                Some(m) => {
                    out.push_str(&format!("assert {}, {}\n", print_expr(test), print_expr(m)))
                }
                None => out.push_str(&format!("assert {}\n", print_expr(test))),
            }
        }
        StmtKind::Del(targets) => {
            out.push_str(&pad);
            let parts: Vec<String> = targets.iter().map(print_expr).collect();
            out.push_str(&format!("del {}\n", parts.join(", ")));
        }
        StmtKind::Import { module, alias } => {
            out.push_str(&pad);
            match alias {
                Some(a) => out.push_str(&format!("import {module} as {a}\n")),
                None => out.push_str(&format!("import {module}\n")),
            }
        }
        StmtKind::FromImport {
            module,
            names,
            star,
        } => {
            out.push_str(&pad);
            if *star {
                out.push_str(&format!("from {module} import *\n"));
            } else {
                let parts: Vec<String> = names
                    .iter()
                    .map(|(n, a)| match a {
                        Some(a) => format!("{n} as {a}"),
                        None => n.clone(),
                    })
                    .collect();
                out.push_str(&format!("from {module} import {}\n", parts.join(", ")));
            }
        }
    }
}

fn print_block(body: &[Stmt], indent: usize, out: &mut String) {
    if body.is_empty() {
        out.push_str(&"    ".repeat(indent));
        out.push_str("pass\n");
        return;
    }
    for stmt in body {
        print_stmt(stmt, indent, out);
    }
}

/// Render an expression to source text (fully parenthesized where nested).
pub fn print_expr(e: &Expr) -> String {
    match e {
        Expr::Int(v) => v.to_string(),
        Expr::Float(v) => crate::value::format_float(*v),
        Expr::Str(s) => str_literal(s),
        Expr::Bool(true) => "True".into(),
        Expr::Bool(false) => "False".into(),
        Expr::None => "None".into(),
        Expr::Name(n) => n.clone(),
        Expr::Binary { op, left, right } => {
            format!(
                "({} {} {})",
                print_expr(left),
                op.symbol(),
                print_expr(right)
            )
        }
        Expr::Unary { op, operand } => {
            let sym = match op {
                UnaryOp::Neg => "-",
                UnaryOp::Pos => "+",
                UnaryOp::Not => "not ",
                UnaryOp::Invert => "~",
            };
            format!("({}{})", sym, print_expr(operand))
        }
        Expr::BoolOp { op, values } => {
            let sym = match op {
                BoolOpKind::And => " and ",
                BoolOpKind::Or => " or ",
            };
            let parts: Vec<String> = values.iter().map(print_expr).collect();
            format!("({})", parts.join(sym))
        }
        Expr::Compare {
            left,
            ops,
            comparators,
        } => {
            let mut s = format!("({}", print_expr(left));
            for (op, c) in ops.iter().zip(comparators) {
                s.push_str(&format!(" {} {}", op.symbol(), print_expr(c)));
            }
            s.push(')');
            s
        }
        Expr::Call { func, args, kwargs } => {
            let mut parts: Vec<String> = args.iter().map(print_expr).collect();
            parts.extend(kwargs.iter().map(|(k, v)| format!("{k}={}", print_expr(v))));
            format!("{}({})", print_expr(func), parts.join(", "))
        }
        Expr::Attribute { value, attr } => format!("{}.{}", print_expr(value), attr),
        Expr::Index { value, index } => format!("{}[{}]", print_expr(value), print_expr(index)),
        Expr::Slice { lower, upper, step } => {
            let l = lower.as_ref().map(|e| print_expr(e)).unwrap_or_default();
            let u = upper.as_ref().map(|e| print_expr(e)).unwrap_or_default();
            match step {
                Some(s) => format!("{l}:{u}:{}", print_expr(s)),
                None => format!("{l}:{u}"),
            }
        }
        Expr::List(items) => {
            let parts: Vec<String> = items.iter().map(print_expr).collect();
            format!("[{}]", parts.join(", "))
        }
        Expr::Tuple(items) => {
            let parts: Vec<String> = items.iter().map(print_expr).collect();
            if items.len() == 1 {
                format!("({},)", parts[0])
            } else {
                format!("({})", parts.join(", "))
            }
        }
        Expr::Dict(items) => {
            let parts: Vec<String> = items
                .iter()
                .map(|(k, v)| format!("{}: {}", print_expr(k), print_expr(v)))
                .collect();
            format!("{{{}}}", parts.join(", "))
        }
        Expr::IfExp { test, body, orelse } => {
            format!(
                "({} if {} else {})",
                print_expr(body),
                print_expr(test),
                print_expr(orelse)
            )
        }
        Expr::Lambda { params, body } => {
            let parts: Vec<String> = params
                .iter()
                .map(|p| match &p.default {
                    Some(d) => format!("{}={}", p.name, print_expr(d)),
                    None => p.name.clone(),
                })
                .collect();
            format!("(lambda {}: {})", parts.join(", "), print_expr(body))
        }
    }
}

/// A double-quoted Python literal for `s`: quotes, backslashes and control
/// characters escaped, everything else as is.
fn str_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => out.push_str(&format!("\\x{:02x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// Round trip: parse → print → parse; the two ASTs must match
    /// modulo parenthesization (which parse normalizes away).
    fn round_trip(src: &str) {
        let m1 = parse(src).unwrap();
        let printed = print_module(&m1);
        let m2 = parse(&printed).unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {e}"));
        let printed2 = print_module(&m2);
        assert_eq!(printed, printed2, "printer not a fixpoint for {src:?}");
    }

    #[test]
    fn round_trips() {
        round_trip("x = 1 + 2 * 3\n");
        round_trip("def f(a, b=2):\n    return a ** b\n");
        round_trip("@omp\ndef g(n):\n    with omp(\"parallel\"):\n        pass\n");
        round_trip("for i in range(10):\n    if i % 2 == 0:\n        continue\n    print(i)\n");
        round_trip("try:\n    x = 1\nexcept ValueError as e:\n    pass\nfinally:\n    y = 2\n");
        round_trip("while a < b:\n    a += 1\nelse_done = True\n");
        round_trip("d = {1: 'a', 2: 'b'}\nl = [1, 2, 3]\nt = (1,)\n");
        round_trip("x = a[1:5:2]\ny = a[:]\n");
        round_trip("f = lambda x: x * 2\n");
        round_trip("z = a if c else b\n");
        round_trip("from omp4py import *\nimport math as m\n");
        round_trip("del d[1]\nassert x > 0, 'must be positive'\n");
        round_trip("raise ValueError('bad')\n");
        round_trip("global g\nnonlocal_free = 1\n");
    }

    #[test]
    fn string_literals_round_trip() {
        let text = "q\"'\\ \n\r\t\0\x01\x1f\x7f\u{85}é€😀";
        let printed = print_expr(&Expr::Str(text.into()));
        assert_eq!(
            crate::parser::parse_expr(&printed).unwrap(),
            Expr::Str(text.into())
        );
        round_trip("s = '\\x00' + '1' + '\\a\\b' + \"\\u00e9\"\n");
    }

    #[test]
    fn elif_collapses() {
        let src = "if a:\n    x = 1\nelif b:\n    x = 2\nelse:\n    x = 3\n";
        let m = parse(src).unwrap();
        let printed = print_module(&m);
        assert!(printed.contains("elif"), "expected elif in: {printed}");
        round_trip(src);
    }

    #[test]
    fn empty_block_prints_pass() {
        let m = parse("def f():\n    pass\n").unwrap();
        let printed = print_module(&m);
        assert!(printed.contains("pass"));
    }
}
