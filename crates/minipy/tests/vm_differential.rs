//! Differential harness: every corpus program runs under both
//! `OMP4RS_MINIPY_VM` settings and must produce identical stdout, results,
//! and errors (message *and* line). `off` is the reference tree-walker;
//! `on` routes through the bytecode VM (quickened opcodes, inline caches,
//! unboxed registers, fused range loops) and must be observationally
//! indistinguishable — including for programs the compiler rejects (nested
//! `def`, `try`/`except`, …), where the per-function fallback has to
//! preserve semantics exactly.

use minipy::bytecode::{self, VmMode};
use minipy::Interp;
use proptest::prelude::*;

/// `set_mode` is process-global; serialize every differential comparison
/// so concurrently running tests in this binary cannot observe each other's
/// mode flips.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run one program under one VM mode: (outcome, stdout). Errors are
/// collapsed to `Display@line` so the comparison covers message and
/// attribution.
fn run_with(src: &str, mode: VmMode) -> (Result<(), String>, String) {
    let prev = bytecode::set_mode(mode);
    let interp = Interp::new().capture_output();
    let result = interp
        .run(src)
        .map(|_| ())
        .map_err(|e| format!("{e}@{:?}", e.line));
    let out = interp.output().unwrap_or_default();
    bytecode::set_mode(prev);
    (result, out)
}

/// The cells the differential sweep compares: the tree-walker oracle,
/// then the VM.
const CELLS: [VmMode; 2] = [VmMode::Off, VmMode::On];

/// Assert the VM matches the tree-walker exactly.
fn differential(src: &str) {
    let _guard = lock();
    let [oracle, vm] = CELLS;
    let reference = run_with(src, oracle);
    let got = run_with(src, vm);
    assert_eq!(got, reference, "vm diverges from tree-walker on:\n{src}");
}

/// The hand-written corpus: one program per construct family the VM lowers,
/// plus the fallback families it must leave semantically untouched.
const CORPUS: &[&str] = &[
    // -- straight-line arithmetic and calls --------------------------------
    "def f(a, b):\n    return (a + b) * (a - b) // 3 % 7\nprint(f(17, 4))\nprint(f(-17, 4))\n",
    "def f(x):\n    return 4.0 / (1.0 + x * x)\nprint(f(0.5))\nprint(f(-2.0))\n",
    "def f(a):\n    return -a, +a, not a\nprint(f(3))\nprint(f(0))\n",
    "def f(a, b, c):\n    return a < b < c, a == b or b != c, a and b and c\nprint(f(1, 2, 3))\nprint(f(2, 2, 1))\n",
    "def f(s):\n    return s + 'y', s * 3, len(s)\nprint(f('x'))\n",
    // -- loops --------------------------------------------------------------
    "def f(n):\n    total = 0\n    for i in range(n):\n        if i % 3 == 0:\n            continue\n        if i > 17:\n            break\n        total += i\n    return total\nprint(f(40))\n",
    "def f(n):\n    i = 0\n    out = []\n    while i < n:\n        out.append(i * i)\n        i += 1\n    return out\nprint(f(6))\n",
    "def f(items):\n    s = 0\n    for k in items:\n        s += k\n    return s\nprint(f([5, 7, 11]))\nprint(f(()))\n",
    "def f(n):\n    acc = []\n    for i in range(n):\n        for j in range(i):\n            acc.append(i * 10 + j)\n    return acc\nprint(f(5))\n",
    // -- assignment shapes ---------------------------------------------------
    "def f(p):\n    a, b = p\n    a, b = b, a\n    (c, d), e = (a, b), 9\n    return [a, b, c, d, e]\nprint(f((1, 2)))\n",
    "def f():\n    x = y = [0]\n    x.append(1)\n    return y\nprint(f())\n",
    "def f(d):\n    d['k'] = 1\n    d['k'] += 41\n    del d['gone']\n    return d\nprint(f({'gone': 0}))\n",
    "def f(xs):\n    xs[0] += 10\n    xs[-1] = 99\n    return xs[1:3]\nprint(f([1, 2, 3, 4]))\n",
    "def f():\n    x = 5\n    del x\n    return 'ok'\nprint(f())\n",
    // -- containers ----------------------------------------------------------
    "def f():\n    d = {'a': 1, 'b': 2}\n    t = (1, 2, 3)\n    l = [t[0], d['b']]\n    return l, t[1:], sorted(d)\nprint(f())\n",
    "def f(n):\n    return [i for i in range(1)] if False else list(range(n))\nprint(f(4))\n",
    // -- global / closure reads ---------------------------------------------
    "g = 10\ndef f(x):\n    global g\n    g = g + x\n    return g\nprint(f(5))\nprint(f(5))\nprint(g)\n",
    "base = 100\ndef f(x):\n    return base + x\nprint(f(1))\n",
    "def f(flag):\n    if flag:\n        v = 1\n    return v\nv = 7\nprint(f(False))\nprint(f(True))\n",
    // -- try/finally, raise, assert -----------------------------------------
    "def f(x):\n    log = []\n    try:\n        log.append('in')\n        y = 10 // x\n        log.append(y)\n    finally:\n        log.append('fin')\n    return log\nprint(f(2))\n",
    "def f(x):\n    try:\n        return 10 // x\n    finally:\n        print('cleanup')\nprint(f(0))\n",
    "def f(x):\n    assert x > 0, 'must be positive'\n    return x\nprint(f(3))\nprint(f(-1))\n",
    "def f():\n    raise ValueError('boom')\nf()\n",
    // -- errors the VM must attribute identically ---------------------------
    "def f(a):\n    b = a + 1\n    return b + ''\nf(1)\n",
    "def f():\n    return undefined_name\nf()\n",
    "def f(p):\n    a, b, c = p\n    return a\nf((1, 2))\n",
    "def f(p):\n    a, b = p\n    return a\nf((1, 2, 3))\n",
    "def f(xs):\n    return xs[10]\nf([1])\n",
    "def f(a, b):\n    return a\nf(1)\n",
    "def f(a):\n    return a\nf(1, 2)\n",
    "def f(a):\n    return a\nf(b=1)\n",
    "def f(a):\n    return a\nf(1, a=2)\n",
    // -- keyword calls and defaults -----------------------------------------
    "def f(a, b=10, c=20):\n    return a + b * c\nprint(f(1))\nprint(f(1, c=2))\nprint(f(1, 2, 3))\n",
    // -- fallback families: must behave identically via the tree-walker -----
    "def outer(n):\n    def inner(x):\n        return x * 2\n    return inner(n) + 1\nprint(outer(5))\n",
    "def f(xs):\n    return list(map(lambda v: v + 1, xs)) if False else [v + 1 for v in xs]\nprint(f([1, 2]))\n",
    "def f(x):\n    try:\n        return 10 // x\n    except ZeroDivisionError:\n        return -1\nprint(f(0))\nprint(f(5))\n",
    "def f():\n    import math\n    return math.floor(2.5)\nprint(f())\n",
    // -- recursion (every level re-enters the VM) ---------------------------
    "def fib(n):\n    if n < 2:\n        return n\n    return fib(n - 1) + fib(n - 2)\nprint(fib(12))\n",
    // -- int overflow boundaries (quickened BIN_II/AUG_II must raise the
    //    tree-walker's OverflowError, not wrap) ------------------------------
    "def f(a, b):\n    return a * b\nprint(f(3037000499, 3037000500))\n",
    "def f():\n    x = 9223372036854775807\n    x += 1\n    return x\nf()\n",
    "def f():\n    x = -9223372036854775807\n    return x - 2\nf()\n",
    "def f(n):\n    x = 1\n    for i in range(n):\n        x = x * 10\n    return x\nprint(f(18))\nf(20)\n",
    // -- float NaN/inf (quickened BIN_FF/CMP_NUM must keep IEEE equality and
    //    the tree-walker's ValueError on NaN ordering) -----------------------
    "def f():\n    inf = 1e308 * 10.0\n    nan = inf - inf\n    return nan == nan, nan != nan, inf > 1.0, 0.0 < inf, inf == inf\nprint(f())\n",
    "def f():\n    nan = (1e308 * 10.0) - (1e308 * 10.0)\n    return nan < 1.0\nf()\n",
    "def f():\n    inf = 1e308 * 10.0\n    return inf - inf == 0.0, 1.0 / inf\nprint(f())\n",
    // -- mixed int/float boundary programs (a quickened site that first sees
    //    ints then floats must deopt, and f64 coercion must round exactly as
    //    the tree-walker's) --------------------------------------------------
    "def f(x):\n    return x * 2 + 1\nprint(f(10))\nprint(f(0.5))\nprint(f(10))\n",
    "def f():\n    big = 9007199254740993\n    return big == 9007199254740992.0, big < 9007199254740994.0, big + 0.0\nprint(f())\n",
    "def f(x, y):\n    return x < y, x == y, x // y, x % y\nprint(f(7, 2))\nprint(f(7.0, 2))\nprint(f(-7, 2.5))\n",
    "def f(x):\n    return x + 1\nprint(f(5))\nprint(f(True))\n",
    "def f(xs, i):\n    xs[i] = xs[i] + 1\n    return xs[i]\nprint(f([1, 2], 1))\nprint(f([1.5, 2.5], 1.0))\n",
    // -- built-in method calls (a site resolves its method once per receiver
    //    type and lends it the argument registers) ---------------------------
    "def f(l):\n    n = len(l)\n    return l.nosuch(n)\nf([1])\n",
    "def f(d):\n    d['k'] = 1\n    return d.get()\nf({})\n",
    "def f(l):\n    l.append(1)\n    l.append()\nf([])\n",
    "def f(d):\n    return d.get([1])\nf({})\n",
    "def f(d):\n    return d.get('absent'), d.get('absent', 7)\nprint(f({'k': 1}))\n",
    "def f(d):\n    return d.get(2.0), d.get(2.5, 'none')\nprint(f({2: 'two'}))\n",
    "def f(xs):\n    out = []\n    for x in xs:\n        out.append(x.count('a'))\n    return out\nprint(f(['banana', ['a', 'b', 'a'], ('a', 'c'), 'aa', ['a'], ('b',)]))\n",
    "def f(xs):\n    xs.extend(xs)\n    xs.extend(xs)\n    return xs\nprint(f([1, 2]))\n",
    "def f(l):\n    l.sort(reverse=True)\n    l.sort()\n    return l\nprint(f([3, 1, 2]))\n",
];

#[test]
fn corpus_is_mode_invariant() {
    for src in CORPUS {
        differential(src);
    }
}

#[test]
fn vm_actually_executes_the_eligible_corpus() {
    // Guard against the suite passing vacuously (e.g. every program falling
    // back): under the VM, the corpus must push frames through the VM.
    let _guard = lock();
    let prev = bytecode::set_mode(VmMode::On);
    minipy::stats::reset();
    minipy::stats::set_enabled(true);
    for src in CORPUS {
        let interp = Interp::new().capture_output();
        let _ = interp.run(src);
    }
    let stats = minipy::stats::snapshot();
    minipy::stats::set_enabled(false);
    bytecode::set_mode(prev);
    assert!(
        stats.vm_frames > CORPUS.len() as u64,
        "expected most corpus programs on the VM, got {} frames",
        stats.vm_frames
    );
}

#[test]
fn quickening_actually_rewrites_and_deopts_on_the_corpus() {
    // Anti-vacuity guard for quickening: if specialization never fired (or
    // guards never failed), the differential cells above would pass without
    // testing the specialized handlers at all. The corpus must drive both
    // counters, and the rewrite/deopt invariant must hold.
    let _guard = lock();
    let prev = bytecode::set_mode(VmMode::On);
    minipy::stats::reset();
    minipy::stats::set_enabled(true);
    for src in CORPUS {
        let interp = Interp::new().capture_output();
        let _ = interp.run(src);
    }
    let stats = minipy::stats::snapshot();
    minipy::stats::set_enabled(false);
    bytecode::set_mode(prev);
    assert!(
        stats.quicken_rewrites > 0,
        "corpus never specialized an instruction"
    );
    assert!(
        stats.quicken_deopts >= 1,
        "corpus never fired a deopt guard (mixed-type programs missing?)"
    );
    assert!(
        stats.quicken_deopts <= stats.quicken_rewrites,
        "deopts ({}) exceed rewrites ({})",
        stats.quicken_deopts,
        stats.quicken_rewrites
    );
    assert!(
        stats.ic_hits + stats.ic_misses > 0,
        "corpus never exercised a dispatch-site inline cache"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random arithmetic expressions evaluate identically on the VM and the tree-walker
    /// (division and modulo run against 0 too — the error path must match).
    #[test]
    fn random_expressions_are_mode_invariant(
        a in -100i64..100,
        b in -8i64..8,
        c in -100i64..100,
        op in prop_oneof![
            Just("+"), Just("-"), Just("*"), Just("//"), Just("%"),
        ],
    ) {
        let src = format!(
            "def f(a, b, c):\n    x = a {op} b\n    y = x * c - a\n    return x, y, x < y\nprint(f({a}, {b}, {c}))\n"
        );
        differential(&src);
    }

    /// Random loop shapes (bounds, strides, accumulators) agree across modes.
    #[test]
    fn random_loops_are_mode_invariant(
        start in -20i64..20,
        stop in -20i64..20,
        step in prop_oneof![1i64..4, -4i64..-1],
        cut in 0i64..30,
    ) {
        let src = format!(
            "def f():\n    total = 0\n    for i in range({start}, {stop}, {step}):\n        if i == {cut}:\n            break\n        total += i\n    return total\nprint(f())\n"
        );
        differential(&src);
    }

    /// Int arithmetic at the i64 overflow boundary raises the identical
    /// OverflowError in every cell (quickened BIN_II/AUG_II use checked
    /// arithmetic through the same helper as the tree-walker).
    #[test]
    fn random_overflow_boundaries_are_mode_invariant(
        near_max in prop_oneof![Just(true), Just(false)],
        delta in 0i64..4,
        op in prop_oneof![Just("+"), Just("-"), Just("*")],
        rhs in 1i64..3,
    ) {
        let base = if near_max {
            format!("9223372036854775807 - {delta}")
        } else {
            format!("-9223372036854775807 + {delta}")
        };
        let src = format!(
            "def f(a, b):\n    x = a {op} b\n    a {op}= b\n    return x, a\nprint(f({base}, {rhs}))\n"
        );
        differential(&src);
    }

    /// Float NaN/inf propagation — IEEE equality, the NaN-ordering
    /// ValueError, and inf arithmetic — agrees across every cell.
    #[test]
    fn random_nan_inf_programs_are_mode_invariant(
        lhs in prop_oneof![
            Just("1e308 * 10.0"),
            Just("-(1e308 * 10.0)"),
            Just("(1e308 * 10.0) - (1e308 * 10.0)"),
            Just("0.5"),
        ],
        op in prop_oneof![
            Just("+"), Just("*"), Just("=="), Just("!="), Just("<"), Just(">="),
        ],
        rhs in -4i64..4,
    ) {
        let src = format!(
            "def f(x, y):\n    return x {op} y\nprint(f({lhs}, {rhs}))\nprint(f({lhs}, 0.25))\n"
        );
        differential(&src);
    }

    /// Mixed int/float programs around the 2^53 precision boundary: the
    /// quickened compare/arithmetic must coerce through f64 exactly as the
    /// tree-walker does (including equality that "succeeds" by rounding).
    #[test]
    fn random_mixed_boundary_programs_are_mode_invariant(
        offset in -2i64..3,
        op in prop_oneof![Just("=="), Just("<"), Just("+"), Just("//")],
        float_side in prop_oneof![Just(true), Just(false)],
    ) {
        let (a, b) = if float_side {
            (format!("9007199254740992 + {offset}"), "9007199254740993.0".to_string())
        } else {
            (format!("{offset}"), "0.5".to_string())
        };
        let src = format!(
            "def f(x, y):\n    r1 = x {op} y\n    r2 = y {op} x\n    return r1, r2\nprint(f({a}, {b}))\nprint(f(2, 3))\n"
        );
        differential(&src);
    }
}
