//! Behavioural tests: minipy programs must match Python semantics.

use minipy::{ErrKind, Gil, GilMode, Interp, Value};

fn run(src: &str) -> Interp {
    let interp = Interp::new().capture_output();
    interp
        .run(src)
        .unwrap_or_else(|e| panic!("error running {src:?}: {e}"));
    interp
}

fn global_int(interp: &Interp, name: &str) -> i64 {
    interp
        .get_global(name)
        .unwrap_or_else(|| panic!("no global {name}"))
        .as_int()
        .unwrap()
}

fn global_float(interp: &Interp, name: &str) -> f64 {
    interp.get_global(name).unwrap().as_float().unwrap()
}

fn eval(src: &str) -> Value {
    Interp::new()
        .eval_str(src)
        .unwrap_or_else(|e| panic!("error evaluating {src:?}: {e}"))
}

#[test]
fn arithmetic_matches_python() {
    assert_eq!(eval("7 // 2").as_int().unwrap(), 3);
    assert_eq!(eval("-7 // 2").as_int().unwrap(), -4);
    assert_eq!(eval("7 // -2").as_int().unwrap(), -4);
    assert_eq!(eval("-7 // -2").as_int().unwrap(), 3);
    assert_eq!(eval("7 % 3").as_int().unwrap(), 1);
    assert_eq!(eval("-7 % 3").as_int().unwrap(), 2);
    assert_eq!(eval("7 % -3").as_int().unwrap(), -2);
    assert_eq!(eval("2 ** 10").as_int().unwrap(), 1024);
    assert_eq!(eval("2 ** -1").as_float().unwrap(), 0.5);
    assert_eq!(eval("7 / 2").as_float().unwrap(), 3.5);
    assert_eq!(eval("1.5 + 2").as_float().unwrap(), 3.5);
    assert_eq!(eval("-2 ** 2").as_int().unwrap(), -4); // unary binds looser than **
}

#[test]
fn division_by_zero() {
    let interp = Interp::new();
    let err = interp.eval_str("1 / 0").unwrap_err();
    assert_eq!(err.kind, ErrKind::ZeroDivision);
    let err = interp.eval_str("1 // 0").unwrap_err();
    assert_eq!(err.kind, ErrKind::ZeroDivision);
    let err = interp.eval_str("1.0 % 0.0").unwrap_err();
    assert_eq!(err.kind, ErrKind::ZeroDivision);
}

#[test]
fn string_operations() {
    assert_eq!(eval("'ab' + 'cd'").as_str().unwrap(), "abcd");
    assert_eq!(eval("'ab' * 3").as_str().unwrap(), "ababab");
    assert_eq!(eval("'hello world'.split()").repr(), "['hello', 'world']");
    assert_eq!(eval("'a,b,c'.split(',')").repr(), "['a', 'b', 'c']");
    assert_eq!(eval("'  x  '.strip()").as_str().unwrap(), "x");
    assert_eq!(eval("'ABC'.lower()").as_str().unwrap(), "abc");
    assert_eq!(eval("'-'.join(['a', 'b'])").as_str().unwrap(), "a-b");
    assert_eq!(eval("'hello'[1]").as_str().unwrap(), "e");
    assert_eq!(eval("'hello'[-1]").as_str().unwrap(), "o");
    assert_eq!(eval("'hello'[1:3]").as_str().unwrap(), "el");
    assert_eq!(eval("'hello'[::-1]").as_str().unwrap(), "olleh");
    assert_eq!(eval("len('héllo')").as_int().unwrap(), 5);
    assert_eq!(eval("'banana'.count('an')").as_int().unwrap(), 2);
    assert_eq!(eval("'banana'.find('na')").as_int().unwrap(), 2);
    assert_eq!(
        eval("'banana'.replace('a', 'o')").as_str().unwrap(),
        "bonono"
    );
}

#[test]
fn str_splitlines_matches_python() {
    // Expectations checked against CPython 3.11.
    assert_eq!(
        eval("len('a\\rb\\x1cc\\x0bd'.splitlines())")
            .as_int()
            .unwrap(),
        4
    );
    assert_eq!(
        eval("'a\\rb\\x1cc\\x0bd'.splitlines()").repr(),
        "['a', 'b', 'c', 'd']"
    );
    assert_eq!(eval("'a\\nb\\n'.splitlines()").repr(), "['a', 'b']");
    assert_eq!(eval("'a\\r\\nb\\r\\n'.splitlines()").repr(), "['a', 'b']");
    assert_eq!(eval("'a\\n\\rb'.splitlines()").repr(), "['a', '', 'b']");
    assert_eq!(eval("'\\n'.splitlines()").repr(), "['']");
    assert_eq!(eval("''.splitlines()").repr(), "[]");
    assert_eq!(eval("'no break'.splitlines()").repr(), "['no break']");
    assert_eq!(
        eval("len('a\\fb\\x1dc\\x1ed\\x85e\\u2028f\\u2029g'.splitlines())")
            .as_int()
            .unwrap(),
        7
    );
    // Other controls are not line breaks.
    assert_eq!(
        eval("len('a\\tb\\x1fc\\x00d'.splitlines())")
            .as_int()
            .unwrap(),
        1
    );
}

#[test]
fn str_repr_matches_python() {
    // Expectations checked against CPython 3.11.
    assert_eq!(eval("len(repr('\\x1c'))").as_int().unwrap(), 6);
    assert_eq!(eval("repr('\\x1c')").as_str().unwrap(), "'\\x1c'");
    assert_eq!(eval("repr(\"it's\")").as_str().unwrap(), "\"it's\"");
    assert_eq!(eval("repr('say \"hi\"')").as_str().unwrap(), "'say \"hi\"'");
    assert_eq!(
        eval("repr('it\\'s \"x\"')").as_str().unwrap(),
        "'it\\'s \"x\"'"
    );
    assert_eq!(
        eval("repr('a\\tb\\nc\\rd\\\\e')").as_str().unwrap(),
        "'a\\tb\\nc\\rd\\\\e'"
    );
    assert_eq!(
        eval("repr('\\x00\\x7f\\x85\\x9f')").as_str().unwrap(),
        "'\\x00\\x7f\\x85\\x9f'"
    );
    assert_eq!(eval("repr('héllo')").as_str().unwrap(), "'héllo'");
    assert_eq!(eval("[\"it's\"]").repr(), "[\"it's\"]");
}

#[test]
fn comparison_chaining() {
    assert!(eval("1 < 2 < 3").truthy());
    assert!(!eval("1 < 2 > 3").truthy());
    assert!(eval("'a' < 'b'").truthy());
    assert!(eval("[1, 2] < [1, 3]").truthy());
    assert!(eval("(1, 2) < (1, 2, 0)").truthy());
    assert!(eval("3 in [1, 2, 3]").truthy());
    assert!(eval("4 not in [1, 2, 3]").truthy());
    assert!(eval("'el' in 'hello'").truthy());
    assert!(eval("5 in range(0, 10)").truthy());
    assert!(!eval("5 in range(0, 10, 2)").truthy());
    assert!(eval("None is None").truthy());
}

#[test]
fn short_circuit_returns_operand() {
    assert_eq!(eval("0 or 'fallback'").as_str().unwrap(), "fallback");
    assert_eq!(eval("'x' and 5").as_int().unwrap(), 5);
    assert_eq!(eval("0 and unbound_name").as_int().unwrap(), 0); // not evaluated
    assert_eq!(eval("1 or unbound_name").as_int().unwrap(), 1);
}

#[test]
fn while_and_for_loops() {
    let interp = run("total = 0\nfor i in range(10):\n    total += i\n");
    assert_eq!(global_int(&interp, "total"), 45);
    let interp = run("n = 0\nwhile n < 5:\n    n += 1\n");
    assert_eq!(global_int(&interp, "n"), 5);
    let interp = run(
        "hits = 0\nfor i in range(10):\n    if i == 3:\n        continue\n    if i == 6:\n        break\n    hits += 1\n",
    );
    assert_eq!(global_int(&interp, "hits"), 5);
}

#[test]
fn for_over_a_shared_list_sees_appends() {
    // `get()` returns a list a global also holds: the loop must iterate it
    // live (in a VM frame in `f`, on the tree-walker at module level), not
    // a snapshot taken when the loop starts.
    let interp = run("
shared = [1, 2]
def get():
    return shared
def f():
    seen = []
    for x in get():
        seen.append(x)
        if len(seen) < 4:
            shared.append(x * 10)
    return seen
a = f()
b = []
for x in get():
    b.append(x)
    if len(b) < 6:
        shared.append(-x)
");
    assert_eq!(
        interp.get_global("a").unwrap().repr(),
        "[1, 2, 10, 20, 100]"
    );
    assert_eq!(
        interp.get_global("b").unwrap().repr(),
        "[1, 2, 10, 20, 100, -1, -2, -10, -20, -100]"
    );
}

#[test]
fn for_over_a_str_steps_by_character() {
    // A string is iterated in place, one character (of one to four UTF-8
    // bytes) per step, in a VM frame and on the tree-walker alike; a
    // `break` leaves the rest unread, and a new loop starts at the front.
    let interp = run("
def f(s):
    out = []
    for c in s:
        if c == '|':
            break
        out.append(c)
    for c in s:
        out.append(c)
    return out
a = f('aé€😀|z')
b = []
for c in 'x€':
    b.append(c)
");
    assert_eq!(
        interp.get_global("a").unwrap().repr(),
        "['a', 'é', '€', '😀', 'a', 'é', '€', '😀', '|', 'z']"
    );
    assert_eq!(interp.get_global("b").unwrap().repr(), "['x', '€']");
}

#[test]
fn negative_range_iteration() {
    let interp = run("acc = []\nfor i in range(5, 0, -2):\n    acc.append(i)\n");
    assert_eq!(interp.get_global("acc").unwrap().repr(), "[5, 3, 1]");
}

#[test]
fn functions_closures_recursion() {
    let interp = run(
        "def fib(n):\n    if n <= 1:\n        return n\n    return fib(n - 1) + fib(n - 2)\nr = fib(12)\n",
    );
    assert_eq!(global_int(&interp, "r"), 144);

    let interp = run(
        "def counter():\n    count = 0\n    def inc():\n        nonlocal count\n        count += 1\n        return count\n    return inc\nc = counter()\nc()\nc()\nlast = c()\n",
    );
    assert_eq!(global_int(&interp, "last"), 3);
}

#[test]
fn default_and_keyword_arguments() {
    let interp = run(
        "def f(a, b=10, c=20):\n    return a + b + c\nr1 = f(1)\nr2 = f(1, c=2)\nr3 = f(1, 2, 3)\n",
    );
    assert_eq!(global_int(&interp, "r1"), 31);
    assert_eq!(global_int(&interp, "r2"), 13);
    assert_eq!(global_int(&interp, "r3"), 6);
}

#[test]
fn bad_calls_raise_type_errors() {
    let interp = Interp::new();
    interp.run("def f(a):\n    return a\n").unwrap();
    assert_eq!(interp.run("f()\n").unwrap_err().kind, ErrKind::Type);
    assert_eq!(interp.run("f(1, 2)\n").unwrap_err().kind, ErrKind::Type);
    assert_eq!(interp.run("f(1, a=1)\n").unwrap_err().kind, ErrKind::Type);
    assert_eq!(interp.run("f(b=1)\n").unwrap_err().kind, ErrKind::Type);
}

#[test]
fn global_statement() {
    let interp = run("g = 1\ndef bump():\n    global g\n    g += 1\nbump()\nbump()\n");
    assert_eq!(global_int(&interp, "g"), 3);
}

#[test]
fn lists_and_dicts() {
    let interp = run(
        "l = [3, 1, 2]\nl.append(0)\nl.sort()\nfirst = l[0]\nl2 = l.copy()\nl2.reverse()\nd = {}\nd['a'] = 1\nd['b'] = d.get('a', 0) + d.get('missing', 10)\nn = len(d)\n",
    );
    assert_eq!(global_int(&interp, "first"), 0);
    assert_eq!(interp.get_global("l2").unwrap().repr(), "[3, 2, 1, 0]");
    assert_eq!(global_int(&interp, "n"), 2);
    assert_eq!(eval("sorted([3, 1, 2], reverse=True)").repr(), "[3, 2, 1]");
}

#[test]
fn dict_iteration_and_items() {
    let interp = run(
        "d = {'x': 1, 'y': 2, 'z': 3}\ntotal = 0\nfor k in d:\n    total += d[k]\npairs = sorted(d.items())\n",
    );
    assert_eq!(global_int(&interp, "total"), 6);
    assert_eq!(
        interp.get_global("pairs").unwrap().repr(),
        "[('x', 1), ('y', 2), ('z', 3)]"
    );
}

#[test]
fn tuple_unpacking() {
    let interp = run("a, b = 1, 2\na, b = b, a\nfor i, c in enumerate('xy'):\n    last = (i, c)\n");
    assert_eq!(global_int(&interp, "a"), 2);
    assert_eq!(global_int(&interp, "b"), 1);
    assert_eq!(interp.get_global("last").unwrap().repr(), "(1, 'y')");
}

#[test]
fn unpacking_errors() {
    let interp = Interp::new();
    assert_eq!(
        interp.run("a, b = [1, 2, 3]\n").unwrap_err().kind,
        ErrKind::Value
    );
    assert_eq!(
        interp.run("a, b, c = [1, 2]\n").unwrap_err().kind,
        ErrKind::Value
    );
}

#[test]
fn exceptions_and_finally() {
    let interp = run(
        "log = []\ntry:\n    log.append('try')\n    raise ValueError('boom')\n    log.append('unreached')\nexcept ValueError as e:\n    log.append(str(e))\nfinally:\n    log.append('finally')\n",
    );
    assert_eq!(
        interp.get_global("log").unwrap().repr(),
        "['try', 'boom', 'finally']"
    );
}

#[test]
fn except_matching_order_and_reraise() {
    let interp = run(
        "kind = ''\ntry:\n    try:\n        1 // 0\n    except ValueError:\n        kind = 'value'\n    except ZeroDivisionError:\n        kind = 'zero'\nexcept:\n    kind = 'outer'\n",
    );
    assert_eq!(interp.get_global("kind").unwrap().as_str().unwrap(), "zero");

    let interp = Interp::new();
    let err = interp
        .run("try:\n    raise KeyError('k')\nexcept KeyError:\n    raise\n")
        .unwrap_err();
    assert_eq!(err.kind, ErrKind::Key);
}

#[test]
fn finally_overrides_return() {
    let interp =
        run("def f():\n    try:\n        return 1\n    finally:\n        return 2\nr = f()\n");
    assert_eq!(global_int(&interp, "r"), 2);
}

#[test]
fn else_clause_on_try() {
    let interp = run(
        "path = []\ntry:\n    path.append('body')\nexcept:\n    path.append('handler')\nelse:\n    path.append('else')\n",
    );
    assert_eq!(
        interp.get_global("path").unwrap().repr(),
        "['body', 'else']"
    );
}

#[test]
fn builtin_coverage() {
    assert_eq!(eval("abs(-3)").as_int().unwrap(), 3);
    assert_eq!(eval("min(3, 1, 2)").as_int().unwrap(), 1);
    assert_eq!(eval("max([3, 1, 2])").as_int().unwrap(), 3);
    assert_eq!(eval("sum([1, 2, 3])").as_int().unwrap(), 6);
    assert_eq!(eval("sum([0.5, 0.25])").as_float().unwrap(), 0.75);
    assert_eq!(eval("int('42')").as_int().unwrap(), 42);
    assert_eq!(eval("int(3.9)").as_int().unwrap(), 3);
    assert_eq!(eval("float('2.5')").as_float().unwrap(), 2.5);
    assert_eq!(eval("str(123)").as_str().unwrap(), "123");
    assert_eq!(eval("len(range(0, 10, 3))").as_int().unwrap(), 4);
    assert_eq!(eval("list(range(3))").repr(), "[0, 1, 2]");
    assert_eq!(
        eval("list(zip([1, 2], 'ab'))").repr(),
        "[(1, 'a'), (2, 'b')]"
    );
    assert!(eval("any([0, 0, 1])").truthy());
    assert!(!eval("all([1, 0])").truthy());
    assert_eq!(eval("divmod(7, 2)").repr(), "(3, 1)");
    assert_eq!(eval("round(2.675, 2)").as_float().unwrap(), 2.68);
    assert!(eval("isinstance(3, int)").truthy());
    assert!(eval("isinstance('x', (int, str))").truthy());
    assert!(!eval("isinstance('x', int)").truthy());
    assert_eq!(eval("ord('A')").as_int().unwrap(), 65);
    assert_eq!(eval("chr(97)").as_str().unwrap(), "a");
}

#[test]
fn math_and_time_modules() {
    let interp = run("import math\nr = math.sqrt(16.0)\np = math.pi\nfl = math.floor(2.7)\n");
    assert_eq!(global_float(&interp, "r"), 4.0);
    assert!((global_float(&interp, "p") - std::f64::consts::PI).abs() < 1e-12);
    assert_eq!(global_int(&interp, "fl"), 2);

    let interp = run("from math import sqrt\nr = sqrt(9.0)\n");
    assert_eq!(global_float(&interp, "r"), 3.0);

    let interp =
        run("import time\nt0 = time.perf_counter()\nt1 = time.perf_counter()\nok = t1 >= t0\n");
    assert!(interp.get_global("ok").unwrap().truthy());
}

#[test]
fn import_star() {
    let interp = run("from math import *\nr = sqrt(25.0)\n");
    assert_eq!(global_float(&interp, "r"), 5.0);
}

#[test]
fn missing_module_errors() {
    let interp = Interp::new();
    let err = interp.run("import nonexistent\n").unwrap_err();
    assert_eq!(err.kind, ErrKind::Custom("ModuleNotFoundError".into()));
}

#[test]
fn lambda_and_sorted_key() {
    assert_eq!(
        eval("sorted(['bb', 'a', 'ccc'], key=lambda s: len(s))").repr(),
        "['a', 'bb', 'ccc']"
    );
    let interp = run("f = lambda x, y=10: x + y\nr = f(5)\n");
    assert_eq!(global_int(&interp, "r"), 15);
}

#[test]
fn ternary_and_boolops_in_context() {
    let interp = run("x = 5\nlabel = 'big' if x > 3 else 'small'\n");
    assert_eq!(interp.get_global("label").unwrap().as_str().unwrap(), "big");
}

#[test]
fn with_statement_executes_body() {
    // minipy's `with` evaluates the context and runs the body (no context
    // manager protocol) — the OMP4Py `omp()` no-op container pattern.
    let interp = run("def omp(d):\n    return d\nx = 0\nwith omp('parallel'):\n    x = 1\n");
    assert_eq!(global_int(&interp, "x"), 1);
}

#[test]
fn decorators_apply() {
    let interp = run(
        "def double(f):\n    def wrapper(x):\n        return f(x) * 2\n    return wrapper\n@double\ndef inc(x):\n    return x + 1\nr = inc(5)\n",
    );
    assert_eq!(global_int(&interp, "r"), 12);
}

#[test]
fn print_captures_output() {
    let interp = run("print('hello', 42)\nprint('a', 'b', sep='-', end='!')\n");
    assert_eq!(interp.output().unwrap(), "hello 42\na-b!");
}

#[test]
fn name_error_reports_line() {
    let interp = Interp::new();
    let err = interp.run("x = 1\ny = missing\n").unwrap_err();
    assert_eq!(err.kind, ErrKind::Name);
    assert_eq!(err.line, Some(2));
}

#[test]
fn recursion_limit() {
    let mut interp = Interp::new();
    interp.set_recursion_limit(50);
    interp.run("def f(n):\n    return f(n + 1)\n").unwrap();
    let err = interp.run("f(0)\n").unwrap_err();
    assert_eq!(err.kind, ErrKind::Custom("RecursionError".into()));
}

#[test]
fn list_index_errors() {
    let interp = Interp::new();
    assert_eq!(
        interp.eval_str("[1, 2][5]").unwrap_err().kind,
        ErrKind::Index
    );
    assert_eq!(interp.eval_str("{}['k']").unwrap_err().kind, ErrKind::Key);
    assert_eq!(
        interp.eval_str("[].pop()").unwrap_err().kind,
        ErrKind::Index
    );
}

#[test]
fn negative_indexing_and_slices() {
    assert_eq!(eval("[1, 2, 3][-1]").as_int().unwrap(), 3);
    assert_eq!(eval("[1, 2, 3, 4][1:3]").repr(), "[2, 3]");
    assert_eq!(eval("[1, 2, 3, 4][::2]").repr(), "[1, 3]");
    assert_eq!(eval("[1, 2, 3, 4][::-1]").repr(), "[4, 3, 2, 1]");
    assert_eq!(eval("[1, 2, 3, 4][10:]").repr(), "[]");
    assert_eq!(eval("(1, 2, 3)[-2]").as_int().unwrap(), 2);
    assert_eq!(eval("range(10, 0, -2)[1]").as_int().unwrap(), 8);
}

#[test]
fn del_statement() {
    let interp = run("d = {'a': 1, 'b': 2}\ndel d['a']\nl = [1, 2, 3]\ndel l[0]\nx = 9\ndel x\n");
    assert_eq!(interp.get_global("d").unwrap().repr(), "{'b': 2}");
    assert_eq!(interp.get_global("l").unwrap().repr(), "[2, 3]");
    assert!(interp.get_global("x").is_none());
}

#[test]
fn augmented_assignment_on_subscripts() {
    let interp = run("l = [1, 2, 3]\nl[1] *= 10\nd = {'k': 5}\nd['k'] += 1\n");
    assert_eq!(interp.get_global("l").unwrap().repr(), "[1, 20, 3]");
    assert_eq!(interp.get_global("d").unwrap().repr(), "{'k': 6}");
}

#[test]
fn assert_statement() {
    let interp = Interp::new();
    interp.run("assert 1 + 1 == 2\n").unwrap();
    let err = interp.run("assert False, 'oops'\n").unwrap_err();
    assert_eq!(err.kind, ErrKind::Assertion);
    assert_eq!(err.msg, "oops");
}

#[test]
fn shared_state_across_threads() {
    // The free-threaded property: one interpreter, many OS threads.
    let interp = Interp::new();
    interp
        .run("counter = [0]\ndef bump(n):\n    for _ in range(n):\n        counter.append(1)\n")
        .unwrap();
    let bump = interp.get_global("bump").unwrap();
    let mut handles = Vec::new();
    for _ in 0..4 {
        let interp = interp.clone();
        let bump = bump.clone();
        handles.push(std::thread::spawn(move || {
            interp.call(&bump, vec![Value::Int(100)]).unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // list.append takes the per-object lock, so all appends land.
    let len = interp.eval_str("len(counter)").unwrap().as_int().unwrap();
    assert_eq!(len, 401);
}

#[test]
fn gil_enabled_still_correct() {
    let gil = Gil::with_interval(GilMode::Enabled, 8);
    let interp = Interp::with_gil(gil);
    interp
        .run("total = [0]\ndef work():\n    acc = 0\n    for i in range(200):\n        acc += i\n    total.append(acc)\n")
        .unwrap();
    let work = interp.get_global("work").unwrap();
    let mut handles = Vec::new();
    for _ in 0..3 {
        let interp = interp.clone();
        let work = work.clone();
        handles.push(std::thread::spawn(move || {
            interp.call(&work, vec![]).unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(interp.gil().switch_count() > 0, "GIL should have switched");
    let v = interp.eval_str("total[1] + total[2] + total[3]").unwrap();
    assert_eq!(v.as_int().unwrap(), 3 * 19900);
}

#[test]
fn integer_overflow_is_reported() {
    let interp = Interp::new();
    let err = interp.eval_str("9223372036854775807 + 1").unwrap_err();
    assert_eq!(err.kind, ErrKind::Custom("OverflowError".into()));
}

#[test]
fn isinstance_checks() {
    assert!(eval("isinstance([1], list)").truthy());
    assert!(eval("isinstance({}, dict)").truthy());
    assert!(eval("isinstance((1,), tuple)").truthy());
    assert!(eval("isinstance(True, bool)").truthy());
}

#[test]
fn multiple_targets_share_value() {
    let interp = run("a = b = [1]\na.append(2)\nn = len(b)\n");
    assert_eq!(global_int(&interp, "n"), 2);
}

#[test]
fn nested_function_reads_outer_locals() {
    let interp = run(
        "def outer(n):\n    factor = 10\n    def inner(x):\n        return x * factor\n    return inner(n)\nr = outer(7)\n",
    );
    assert_eq!(global_int(&interp, "r"), 70);
}

#[test]
fn dict_setdefault_and_update() {
    let interp = run(
        "d = {}\nd.setdefault('k', []).append(1)\nd.setdefault('k', []).append(2)\nd2 = {'a': 1}\nd2.update({'b': 2})\nn = len(d['k']) + len(d2)\n",
    );
    assert_eq!(global_int(&interp, "n"), 4);
}

#[test]
fn string_methods_detail() {
    assert!(eval("'abc'.startswith('ab')").truthy());
    assert!(eval("'abc'.endswith('bc')").truthy());
    assert!(eval("'123'.isdigit()").truthy());
    assert!(!eval("'12a'.isdigit()").truthy());
    assert!(eval("'abc'.isalpha()").truthy());
    assert_eq!(eval("'a b\\nc'.split()").repr(), "['a', 'b', 'c']");
    assert_eq!(eval("'x\\ny'.splitlines()").repr(), "['x', 'y']");
}

/// What `src` prints.
fn printed(src: &str) -> String {
    run(src).output().expect("output captured")
}

// Strings of up to 22 bytes live inline in their value and longer ones on
// the heap; these programs cross that limit every way a string is made.
// The expected output is CPython's.

#[test]
fn string_ops_across_the_inline_limit() {
    let src = "def f(parts):\n    out = []\n    for s in parts:\n        t = s + s\n        u = s * 2\n        cs = []\n        for c in s:\n            cs.append(c)\n        out.append((len(s), len(t), t == u, s < t, s in t, t[len(s):] == s, t[1:-1], t[::-1] == u[::-1], ''.join(cs) == s, len(cs)))\n    return out\nprint(f(['', 'a' * 11, 'a' * 12, 'é' * 5 + 'a', 'é' * 6, '€' * 7 + 'é', 'x' * 22, 'x' * 23]))\n";
    assert_eq!(
        printed(src),
        "[(0, 0, True, False, True, True, '', True, True, 0), \
         (11, 22, True, True, True, True, 'aaaaaaaaaaaaaaaaaaaa', True, True, 11), \
         (12, 24, True, True, True, True, 'aaaaaaaaaaaaaaaaaaaaaa', True, True, 12), \
         (6, 12, True, True, True, True, 'ééééaééééé', True, True, 6), \
         (6, 12, True, True, True, True, 'éééééééééé', True, True, 6), \
         (8, 16, True, True, True, True, '€€€€€€é€€€€€€€', True, True, 8), \
         (22, 44, True, True, True, True, 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx', True, True, 22), \
         (23, 46, True, True, True, True, 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx', True, True, 23)]\n"
    );
    // 22 and 23 bytes, and a 2-byte character straddling the limit.
    assert_eq!(eval("len('x' * 21 + 'é')").as_int().unwrap(), 22);
    assert_eq!(eval("('x' * 21 + 'é')[-1]").as_str().unwrap(), "é");
    assert_eq!(eval("('x' * 21 + 'é')[20:]").as_str().unwrap(), "xé");
    assert!(eval("'x' * 21 + 'é' > 'x' * 22").truthy());
    assert!(eval("'x' * 23 > 'x' * 22").truthy());
    assert!(eval("'x' * 22 != 'x' * 23").truthy());
}

#[test]
fn split_strip_join_across_the_inline_limit() {
    let src = "def f(line):\n    words = line.split()\n    out = [len(words)]\n    for w in words:\n        out.append(len(w))\n        out.append(w.strip('xé'))\n    joined = '-'.join(words)\n    out.append(joined)\n    out.append(len(joined))\n    out.append(('  ' + joined + '  ').strip() == joined)\n    out.append(joined.split('-') == words)\n    out.append(' '.join(['ab', 'cd']) + '|' + ''.join([]) + '|' + ','.join(['q' * 11, 'r' * 10]))\n    return out\nprint(f('abc ' + 'x' * 22 + ' ' + 'y' * 23 + ' ' + 'é' * 11 + ' ' + 'ü' * 12 + '  \\t'))\n";
    assert_eq!(
        printed(src),
        "[5, 3, 'abc', 22, '', 23, 'yyyyyyyyyyyyyyyyyyyyyyy', 11, '', 12, 'üüüüüüüüüüüü', \
         'abc-xxxxxxxxxxxxxxxxxxxxxx-yyyyyyyyyyyyyyyyyyyyyyy-ééééééééééé-üüüüüüüüüüüü', 75, \
         True, True, 'ab cd||qqqqqqqqqqq,rrrrrrrrrr']\n"
    );
}

#[test]
fn dict_keys_across_the_inline_limit() {
    // A short key made by slicing a heap string, found through a
    // concatenation; a long key found through another long string.
    let src = "def f(d, unit):\n    big = unit * 30\n    d[big] = 1\n    d[big[:5]] = 2\n    d[unit * 2 + unit * 3] = d.get(unit * 5, 0) + 10\n    d[unit * 15 + unit * 15] = d[big] + 100\n    out = []\n    for k in d:\n        out.append((len(k), d[k], k in d))\n    return sorted(out), len(d)\nprint(f({}, 'k'))\nprint(f({}, 'é'))\n";
    assert_eq!(
        printed(src),
        "([(5, 12, True), (30, 101, True)], 2)\n([(5, 12, True), (30, 101, True)], 2)\n"
    );

    // A key the host inserted as a heap block (`HKey::Str` always is one),
    // found through inline strings, and handed back inline.
    let interp = run("def get(d):\n    return d['wo' + 'rd'], d.get('word'), 'word' in d, list(d)[0] == 'word'\n");
    let d = Value::dict();
    if let Value::Dict(map) = &d {
        map.write().insert(
            minipy::HKey::Str(std::sync::Arc::from("word")),
            Value::Int(7),
        );
    }
    let get = interp.get_global("get").unwrap();
    assert_eq!(
        interp.call(&get, vec![d]).unwrap().repr(),
        "(7, 7, True, True)"
    );
}

#[test]
fn identity_of_strings() {
    // An inline string is identified by its content, as if interned: equal
    // short strings are `is`-identical and share an `id()`, however made.
    let interp = run(
        "def f(unit):\n    a = unit * 2 + 'c'\n    b = unit + unit + 'c'\n    x = unit * 30\n    y = unit * 30\n    z = x\n    return a is b, a is not b, id(a) == id(b), id(a) == id(a + ''), a is 'abc', x is y, x is z, id(x) == id(y), id(x) == id(z), x == y, id(a) == id(x[:3])\nr = f('ab')\n",
    );
    assert_eq!(
        interp.get_global("r").unwrap().repr(),
        "(True, False, True, True, False, False, True, False, True, True, False)"
    );
    // Short ids come from their bytes and never equal a heap string's
    // address.
    let ids = eval("id('') != id('a'), id('a') == id('a'), id('a') != id('x' * 30), id('a') > 0");
    assert_eq!(ids.repr(), "(True, True, True, True)");
}

#[test]
fn python_whitespace_set() {
    let interp = run(
        "def ws(s):\n    return s.split(), s.strip(), s.lstrip(), s.rstrip(), s.isspace(), s.split(None)\n",
    );
    let ws = interp.get_global("ws").unwrap();
    let call = |s: &str| interp.call(&ws, vec![Value::str(s)]).unwrap();
    // The expected strings are written through `repr`, which escapes the
    // control characters among them as Python does.
    let r = |s: String| Value::str(s).repr();
    // Python's whitespace: Unicode's White_Space plus U+001C-U+001F.
    for c in [
        '\u{1c}', '\u{1d}', '\u{1e}', '\u{1f}', ' ', '\t', '\n', '\u{0b}', '\u{0c}', '\r',
        '\u{85}', '\u{a0}', '\u{2028}', '\u{3000}',
    ] {
        let got = call(&format!("{c}a{c}b{c}"));
        assert_eq!(
            got.repr(),
            format!(
                "(['a', 'b'], {}, {}, {}, False, ['a', 'b'])",
                r(format!("a{c}b")),
                r(format!("a{c}b{c}")),
                r(format!("{c}a{c}b"))
            ),
            "U+{:04X}",
            c as u32
        );
        assert!(
            call(&c.to_string()).repr().contains("True"),
            "U+{:04X}",
            c as u32
        );
    }
    // Not whitespace to Python either: ESC, a zero-width space, a letter.
    for c in ['\u{1b}', '\u{200b}', 'x'] {
        let got = call(&format!("a{c}b"));
        let s = r(format!("a{c}b"));
        assert_eq!(
            got.repr(),
            format!("([{s}], {s}, {s}, {s}, False, [{s}])"),
            "U+{:04X}",
            c as u32
        );
    }
    assert_eq!(eval("'\\x1f'.isspace()").repr(), "True");
    // `int()` and `float()` strip Unicode's White_Space only, as in Python.
    assert_eq!(
        eval("int('\\xa042\\u3000') + float('\\x851.5 ')").repr(),
        "43.5"
    );
    assert!(Interp::new().eval_str("int('\\x1c42')").is_err());
}

#[test]
fn string_literal_escapes() {
    assert_eq!(eval("len('\\x41'), '\\x41'").repr(), "(1, 'A')");
    assert_eq!(eval("len('\\012'), '\\012' == '\\n'").repr(), "(1, True)");
    assert_eq!(
        eval("len('a\\vb'), len('\\a\\b\\f'), ord('\\v')").repr(),
        "(3, 3, 11)"
    );
    assert_eq!(
        eval("'x\\xe9y' == 'xéy', len('\\u20ac'), '\\U0001F600'").repr(),
        "(True, 1, '😀')"
    );
    assert_eq!(
        eval("len('\\0'), len('\\08'), ord('\\101')").repr(),
        "(1, 2, 65)"
    );
    // Unknown escapes stay as written.
    assert_eq!(eval("len('\\q'), '\\q'[0] == '\\\\'").repr(), "(2, True)");
    let err = Interp::new().eval_str("'\\x4'").unwrap_err();
    assert_eq!(err.kind, ErrKind::Syntax);
}
