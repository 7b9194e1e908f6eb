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
    // -- typed fused range loops: every bail and settle path of a run's plan
    //    (the first call's first iteration runs per-op and installs the
    //    fused loop, so later calls are fused from their first iteration) --
    // int overflow in a run's first iteration, then in a later one
    "def f(a, n):\n    x = a\n    for i in range(n):\n        x = x * 3 + i\n    return x\nprint(f(1, 5))\nf(4611686018427387904, 3)\n",
    "def f(a, n):\n    x = a\n    for i in range(n):\n        x = x * 3 + i\n    return x\nprint(f(1, 5))\nf(1000000000000000, 40)\n",
    "def f(a, n):\n    x = a\n    for i in range(n):\n        t = i - 1\n        x -= t * 7\n    return x\nprint(f(0, 4))\nf(-9223372036854775800, 6)\n",
    "def f(a, n, k):\n    x = a\n    for i in range(n):\n        x = x + k\n    return x\nprint(f(0, 3, 5))\nf(9223372036854775000, 5, 300)\n",
    // a zero divisor partway through a run (float / int, then int / int)
    "def f(n, k):\n    s = 0.0\n    for i in range(n):\n        s += 1.0 / (i - k)\n    return s\nprint(f(3, -1))\nprint(f(10, 5))\n",
    "def f(n, k):\n    s = 0.0\n    for i in range(n):\n        d = k - i\n        s = s + i / d\n    return s\nprint(f(3, 9))\nprint(f(10, 4))\n",
    // ... and float / float, int / float
    "def f(n, k):\n    s = 0.0\n    for i in range(n):\n        d = k - i * 1.0\n        s = s + 2.5 / d\n    return s\nprint(f(3, 9))\nprint(f(10, 4))\n",
    "def f(n, k):\n    s = 0.0\n    for i in range(n):\n        d = k - i * 1.0\n        s = s + i / d\n    return s\nprint(f(3, 9))\nprint(f(10, 4))\n",
    // `x = 0` then `x += 0.5`: the int accumulator widens to float
    "def f(n):\n    x = 0\n    for i in range(n):\n        x += 0.5\n    return x\nprint(f(1))\nprint(f(6))\nprint(f(0))\n",
    "def f(n, h):\n    x = 0\n    y = 0\n    for i in range(n):\n        y = x\n        x = x + h\n    return x, y\nprint(f(5, 1))\nprint(f(5, 0.25))\nprint(f(5, 1))\n",
    // `2 ** k` with `k` crossing zero (the result kind flips mid-run)
    "def f(a, b):\n    out = 0.0\n    for k in range(a, b):\n        p = 2 ** k\n        out = out + p\n    return out, p\nprint(f(-3, 4))\nprint(f(2, 6))\nprint(f(-5, -1))\nprint(f(3, -3))\n",
    "def f(a, b):\n    t = 0\n    for k in range(a, b):\n        t = t + 2 ** k\n    return t\nprint(f(0, 5))\nprint(f(-2, 3))\nprint(f(3, 6))\n",
    "def f(a, b):\n    for k in range(a, b, -1):\n        p = 0 ** k\n    return p\nprint(f(3, 0))\nf(3, -2)\n",
    // `//` and `%` on mixed kinds, and their zero divisors
    "def f(n, d):\n    q = 0\n    r = 0\n    for i in range(n):\n        q = (i - 3) // d\n        r = (i - 3) % d\n    return q, r\nprint(f(7, 2))\nprint(f(7, 2.5))\nprint(f(7, -2))\nprint(f(7, -0.75))\nf(7, 0)\n",
    "def f(n, d):\n    s = 0.0\n    for i in range(n):\n        s = s + (i * 0.5) // d + (i * 1.5) % d\n    return s\nprint(f(6, 2))\nprint(f(6, 0.5))\nf(6, 0.0)\n",
    // a `LoadFree` cell holding an int, then a float on the next call
    "step = 2\ndef f(n):\n    s = 0\n    for i in range(n):\n        s = s + step * i\n    return s\nprint(f(4))\nstep = 0.5\nprint(f(4))\nstep = 3\nprint(f(4))\nstep = 'x'\nf(4)\n",
    // the loop variable after the loop, and rewritten by the body with
    // another kind, around a bail (`2 ** (i + a)` turns float, then int)
    "def f(n):\n    s = 0\n    for i in range(n):\n        s = s + 1\n    return i, s\nprint(f(3))\nprint(f(4))\n",
    "def f(a, n):\n    y = 0\n    for i in range(n):\n        y = 2 ** (i + a)\n        i = i * 0.5\n    return y, i\nprint(f(0, 3))\nprint(f(-2, 5))\nprint(f(-3, 2))\n",
    // an unset local read in the body (closure-chain fallback, then NameError)
    "v = 7\ndef f(n):\n    s = 0\n    for i in range(n):\n        s = s + v\n        w = v\n    if n < 0:\n        v = 1\n    return s, w\nprint(f(5))\nprint(f(1))\n",
    "def f(n):\n    s = 0\n    for i in range(n):\n        s = s + u\n    if n < 0:\n        u = 1\n    return s\nprint(f(0))\nf(3)\n",
    // an unset local the body assigns: read through the closure chain in
    // the first iteration only
    "x = 5\ndef f(n):\n    t = 0\n    for i in range(n):\n        t = t + x\n        x = i * 0.5\n    return t, x\nprint(f(1))\nprint(f(4))\n",
    // copies of non-numbers stay in the run (boxed moves): values rotated
    // through three registers, a register that turns from int to str, and
    // boxed moves around a `**` bail
    "def f(n, a, b):\n    x = a\n    y = b\n    s = 0\n    for i in range(n):\n        t = x\n        x = y\n        y = t\n        s = s + i\n    return x, y, s\nprint(f(3, 'p', [1]))\nprint(f(4, (1, 2), 'q'))\nprint(f(5, 1, 'r'))\nprint(f(0, 'a', 'b'))\n",
    "def f(n, s):\n    v = 0\n    for i in range(n):\n        v = i * 2\n        v = s\n    return v\nprint(f(2, 'x'))\nprint(f(3, [2]))\nprint(f(0, 'z'))\n",
    "def f(a, n, s):\n    w = 0\n    v = 0\n    for i in range(n):\n        v = w\n        y = 2 ** (i + a)\n        w = s\n    return v, w, y\nprint(f(-2, 5, 'ab'))\nprint(f(0, 3, [1]))\nprint(f(-3, 2, (1,)))\n",
    // arithmetic on non-numbers fails the plan's shape guard (the loop
    // deopts): strs and lists added, a cell holding a str
    "def f(n, s):\n    t = s\n    for i in range(n):\n        t = t + s\n    return t\nprint(f(3, 'ab'))\nprint(f(3, 2))\nprint(f(2, [0]))\n",
    "sep = '-'\ndef f(n):\n    s = ''\n    for i in range(n):\n        s = s + sep\n    return s\nprint(f(3))\nsep = 2\nf(2)\n",
    // -- owned iteration: a `for` over a temporary takes it; a list anything
    //    else still holds is iterated live -------------------------------------
    // a call result a global also holds: appends in the body stay visible
    "shared = [1, 2, 3]\ndef get():\n    return shared\ndef f():\n    seen = []\n    for x in get():\n        seen.append(x)\n        shared.append(x * 10)\n        if len(seen) > 6:\n            break\n    return seen, len(shared)\nprint(f())\nprint(shared)\n",
    // a list two locals hold, appended to through one while the loop runs
    // over the other
    "def f(xs):\n    ys = xs\n    out = []\n    for x in ys:\n        out.append(x)\n        if len(xs) < 5:\n            xs.append(x + 100)\n    return out, ys\nprint(f([1, 2]))\n",
    // a list literal, `d.keys()`, `sorted(...)`, `s.split()`, a tuple, a str
    "def f(d, s):\n    out = []\n    for x in [3, 1, 2]:\n        out.append(x)\n    ks = []\n    for k in d.keys():\n        ks.append(k)\n    out.append(sorted(ks))\n    for k in sorted(d):\n        out.append(d[k])\n    for w in s.split():\n        out.append(w + '!')\n    for t in (4, (5, 6)):\n        out.append(t)\n    for c in 'ab':\n        out.append(c)\n    return out\nprint(f({'b': 2, 'a': 1}, 'x y  z'))\nprint(f({}, ''))\n",
    // nested and sequential loops reusing the same temporary registers
    "def f(n):\n    out = []\n    for i in range(n):\n        for w in ('a b ' * i).split():\n            out.append(w + str(i))\n        for w in [i, i + 1]:\n            for v in [w, -w]:\n                out.append(v)\n    for x in [7, 8]:\n        for y in [x, x * 2]:\n            out.append(y)\n    return out\nprint(f(3))\n",
    // `break` out of an owned loop, then enter it again
    "def f(xs):\n    out = []\n    for rnd in range(4):\n        for x in list(xs):\n            if x == rnd:\n                break\n            out.append(x)\n        out.append('|')\n    return out\nprint(f([5, 0, 1, 2]))\n",
    // raise mid-iteration (out of a VM frame, then inside a `try`), catch,
    // loop again
    "def g(xs):\n    total = 0\n    for x in list(xs):\n        total += 10 // x\n    return total\ndef h(s):\n    n = 0\n    for x in s.split():\n        n = n + int(x)\n    return n\nfor a in [[1, 2], [1, 0, 2], [5]]:\n    try:\n        print(g(a))\n    except ZeroDivisionError as e:\n        print('caught', e)\nfor s in ['1 2', '3 x 4', '5']:\n    try:\n        print(h(s))\n    except ValueError:\n        print('bad')\n",
    "def f(rows):\n    out = []\n    for r in list(rows):\n        try:\n            for x in [10 // r, r]:\n                out.append(x)\n        except ZeroDivisionError:\n            out.append('z')\n    return out\nprint(f([2, 0, 5]))\n",
    // `for k in d` while the body writes `d` (keys are a snapshot)
    "def f(d):\n    for k in d:\n        d[k] = d[k] + 1\n        d[k + '_x'] = 0\n    return sorted(d.items())\nprint(f({'a': 1, 'b': 2}))\n",
    // -- borrowed dict keys: lookups through the borrowed view find what the
    //    owned key inserted ---------------------------------------------------
    // `1` and `1.0`, `0.0` and `-0.0` are one key; `True` and `1` are two
    // (unlike Python); str and tuple keys
    "def f(d):\n    d[1] = 'int'\n    d[1.0] = 'float'\n    d[True] = 'bool'\n    d[0.0] = 'zero'\n    d[-0.0] = 'negzero'\n    d['s'] = 1\n    d['s'] += 1\n    d[(1, 's')] = 'tup'\n    d[(1.0, 's')] = 'tup2'\n    d[2.5] = 'half'\n    return d.get(1), d.get(1.0), d.get(True), d[0], d[-0.0], d['s'], d[(1, 's')], d.get((2,)), d.get(2.5, 'no'), d[5 / 2], len(d)\nprint(f({}))\n",
    "def f(d, keys):\n    out = []\n    for k in keys:\n        d[k] = d.get(k, 0) + 1\n        out.append(k in d)\n    for k in [1, 1.0, True, False, 0, -0.0, 'a', (1,), (1.0,)]:\n        out.append(d.get(k, 'none'))\n    return out, len(d)\nprint(f({}, [1, 1.0, True, 0.0, -0.0, 'a', 'a', (1,), (True,)]))\n",
    "def f(d):\n    return d[2.0]\nf({2.5: 1})\n",
    "def f(d):\n    return d['missing']\nf({'m': 1})\n",
    "def f(d):\n    del d[1.0]\n    del d[(1, 'a')]\n    return d, d.pop(2.0, 'gone'), d.pop('k')\nprint(f({1: 'x', (1, 'a'): 'y', 'k': 3}))\n",
    // unhashable keys keep their TypeErrors
    "def f(d):\n    return d[[1]]\nf({})\n",
    "def f(d):\n    d[{}] = 1\nf({})\n",
    "def f(d):\n    return d.get((1, [2]))\nf({})\n",
    "def f(d):\n    return [0] in d\nf({})\n",
    // `d[k] = v` reads the stored value first: an unset value raises
    // NameError before the key's TypeError
    "def f(d, flag):\n    if flag:\n        v = 1\n    d[[0]] = v\nf({}, False)\n",
    "def f(d, flag):\n    if flag:\n        v = 1\n    d[[0]] = v\nf({}, True)\n",
    // -- str indexing: ASCII by byte, other strings by char ------------------
    "def f(s, i):\n    return s[i]\nfor s in ['hello', 'héllo', 'ñ', '']:\n    for i in [0, 1, -1, -5, 4, 5, -6]:\n        try:\n            print(f(s, i))\n        except IndexError as e:\n            print('IndexError', e)\n",
    // -- the inline object path: dict subscripts, iteration and built-in
    //    method calls run in the quickened dispatcher, and each miss falls
    //    through to the generic handler ------------------------------------
    // one subscript site seeing a dict, then a list, a str and a tuple (and
    // a list first, then a dict: a deopted `LIST_GET`); the TypeError of a
    // non-subscriptable value and a KeyError
    "def f(cs):\n    out = []\n    for c in cs:\n        out.append(c[1])\n    return out\nprint(f([{1: 'a'}, [0, 'b'], 'xc', (5, 'd'), {1.0: 'e'}]))\nprint(f([[0, 'l'], {1: 'd'}, 'ab']))\nf([{1: 'a'}, 3])\n",
    "def f(cs):\n    out = []\n    for c in cs:\n        out.append(c[0])\n    return out\nprint(f([[7], {0: 'd'}, [8], {0.0: 'e'}, (9,)]))\n",
    "def f(c, k):\n    return c[k]\nprint(f({'a': 1}, 'a'))\nprint(f([10, 20], 1))\nprint(f('xy', 0))\nprint(f({'a': 1}, 'a'))\nf({'a': 1}, 'b')\n",
    "def f(cs):\n    for c in cs:\n        c[0] = len(cs)\n    return cs\nprint(f([{}, [5], {0.0: 'z'}]))\nf([{}, 'str'])\n",
    // unboxed range-loop keys and values: an int key and value, a float
    // key equal to an int (`1` and `1.0` are one key), `-0.0`, a float
    // value, and a KeyError on an unboxed key of each kind
    "def f(n):\n    d = {}\n    x = 0.5\n    for i in range(n):\n        d[i] = i * 2\n        k = i * 1.0\n        d[k + 0.5] = x + 1.5\n        x = d[i] + d[k + 0.5]\n        d[i + 10] = d.get(i, -1)\n    z = 0.0 * -1\n    d[z] = 'zero'\n    return sorted(d.items()), x, d[1], d[1.0], d[2.5], d[0]\nprint(f(4))\nprint(f(0))\n",
    "def f(n):\n    d = {0: 'a'}\n    for i in range(n):\n        v = d[i]\n    return v\nprint(f(1))\nf(3)\n",
    "def f(n):\n    d = {0.5: 'a'}\n    for i in range(n):\n        v = d[i + 0.5]\n    return v\nprint(f(1))\nf(2)\n",
    // a dict register overwritten by an unboxed number: its stale boxed
    // slot must not be subscripted or called
    "def f(n):\n    d = {0: 'x'}\n    out = []\n    for i in range(n):\n        out.append(d[0])\n        d = i + 1\n    return out\nprint(f(1))\nf(2)\n",
    "def f(n):\n    d = {0: 'x'}\n    for i in range(n):\n        d[0] = i\n        d = i + 1\n    return d\nprint(f(1))\nf(2)\n",
    "def f(n):\n    d = {0: 'x'}\n    out = []\n    for i in range(n):\n        out.append(d.get(0))\n        d = i + 0.5\n    return out\nprint(f(1))\nf(2)\n",
    // a method site whose receiver changes type mid-loop (str, list, tuple
    // all have `count`; a dict does not), unboxed receivers and arguments
    "def f(xs):\n    out = []\n    for x in xs:\n        out.append(x.count('a'))\n    return out\nprint(f(['aa', ['a', 'b', 'a'], ('a',), 'b', 'banana']))\nf(['a', {'a': 1}])\n",
    "def f(n):\n    out = []\n    for i in range(n):\n        x = i * 0.5\n        out.append(x.is_integer())\n        out.insert(0, i + 1)\n        out.append(out.count(i + 1))\n    return out\nprint(f(5))\n",
    // a method raising inside `try`/`finally`, with unboxed registers
    // pending: the `finally` reads them boxed
    "def f(d, keys):\n    t = 0\n    s = 0.5\n    out = []\n    try:\n        for k in keys:\n            t = t + 1\n            s = s * 2.0\n            out.append(t)\n            d.pop(k)\n    finally:\n        print(t, s, t + s, out)\n    return t\ntry:\n    f({'a': 1, 'b': 2}, ['a', 'b', 'c'])\nexcept KeyError as e:\n    print('KeyError', e)\nprint(f({}, []))\n",
    // iteration over an owned list, a live list appended in the body, a
    // tuple, dict keys and a non-ASCII str, with `break` and re-entry
    "def f(s, xs, d):\n    out = []\n    for rnd in range(3):\n        for c in s:\n            if c == 'é' and rnd == 1:\n                break\n            out.append(c)\n        for x in xs:\n            out.append(x)\n            if len(xs) < 6:\n                xs.append(x * 10)\n        for k in d:\n            out.append(k)\n        for t in (rnd, 'ü'):\n            out.append(t)\n        for w in (s + ' z').split():\n            if w == 'z' and rnd == 2:\n                break\n            out.append(w)\n    return out\nprint(f('aé€b😀', [1, 2], {'k': 1}))\nprint(f('', [], {}))\n",
    // a free-receiver method call (`d.get` on an enclosing function's
    // variable): the cell is cached per call, so a rebinding through it is
    // seen at once, and a new call sees the enclosing function's new value
    "def outer(keys):\n    d = {'a': 1}\n    def rebind(v):\n        nonlocal d\n        d = v\n    def inner(ks):\n        out = []\n        for k in ks:\n            out.append(d.get(k, 0))\n            rebind({'a': len(out) * 10, 'b': 'x'})\n        out.append(d.get('b', 'none'))\n        return out\n    first = inner(keys)\n    d = {'a': -1}\n    return first, inner(['a']), sorted(d.items())\nprint(outer(['a', 'b', 'a']))\n",
    "tally = {}\ndef reset(v):\n    global tally\n    tally = v\ndef f(ks):\n    out = []\n    for k in ks:\n        out.append(tally.count(k) if k == 'l' else tally.get(k, 0))\n        reset({'z': len(out)})\n    return out\nprint(f(['z', 'z', 'q']))\nreset(['l', 'l'])\nprint(f(['l']))\nreset('str')\nf(['z'])\n",
    "def f(k):\n    return nowhere.get(k)\nf(1)\n",
    "n = 5\ndef f(k):\n    return n.get(k)\nf(1)\n",
    // -- strings across the inline limit: up to 22 bytes sit in the value,
    //    longer ones on the heap; every op, split/strip/join, dict keys made
    //    from either form and `is`/`id()` (by content for inline strings)
    "def f(parts):\n    out = []\n    for s in parts:\n        t = s + s\n        u = s * 2\n        cs = []\n        for c in s:\n            cs.append(c)\n        out.append((len(s), len(t), t == u, s < t, s in t, t[len(s):] == s, t[1:-1], t[::-1] == u[::-1], ''.join(cs) == s, len(cs)))\n    return out\nprint(f(['', 'a' * 11, 'a' * 12, 'é' * 5 + 'a', 'é' * 6, '€' * 7 + 'é', 'x' * 22, 'x' * 23]))\n",
    "def f(line):\n    words = line.split()\n    out = [len(words)]\n    for w in words:\n        out.append(len(w))\n        out.append(w.strip('xé'))\n    joined = '-'.join(words)\n    out.append(joined)\n    out.append(len(joined))\n    out.append(('  ' + joined + '  ').strip() == joined)\n    out.append(joined.split('-') == words)\n    out.append(' '.join(['ab', 'cd']) + '|' + ''.join([]) + '|' + ','.join(['q' * 11, 'r' * 10]))\n    return out\nprint(f('abc ' + 'x' * 22 + ' ' + 'y' * 23 + ' ' + 'é' * 11 + ' ' + 'ü' * 12 + '  \\x1c\\t'))\n",
    "def f(d, unit):\n    big = unit * 30\n    d[big] = 1\n    d[big[:5]] = 2\n    d[unit * 2 + unit * 3] = d.get(unit * 5, 0) + 10\n    d[unit * 15 + unit * 15] = d[big] + 100\n    out = []\n    for k in d:\n        out.append((len(k), d[k], k in d))\n    return sorted(out), len(d)\nprint(f({}, 'k'))\nprint(f({}, 'é'))\n",
    "def f(unit):\n    a = unit * 2 + 'c'\n    b = unit + unit + 'c'\n    x = unit * 30\n    y = unit * 30\n    z = x\n    return a is b, a is not b, id(a) == id(b), id(a) == id(a + ''), a is 'abc', x is y, x is z, id(x) == id(y), id(x) == id(z), x == y, id('') == id(x[:0])\nprint(f('ab'))\nprint(f('é'))\n",
    "def f(xs):\n    out = []\n    for x in xs:\n        out.append((len(x), x[-1], x[20:], x.isspace(), '\\x1f\\x41\\101\\u20ac\\v' + x[:1]))\n    return out\nprint(f(['x' * 21 + 'é', 'x' * 22 + 'é', '\\x1c\\x1d']))\n",
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

#[test]
fn fused_loop_bailing_mid_iteration_keeps_per_op_counts() {
    // `2 ** (k + a)` is an int for `k + a >= 0` and a float below: a run
    // whose plan expects one kind bails at the `**` when `k + a` crosses
    // zero, mid-iteration, without raising. The op and IC counts must still
    // be exactly those of per-op dispatch.
    let src = "c = 2\ndef f(a, n):\n    y = 0\n    for k in range(n):\n        t = k * c\n        y = c ** (k + a)\n        y = y + t\n    return y\n";
    let _guard = lock();
    let prev = bytecode::set_mode(VmMode::On);
    let interp = Interp::new().capture_output();
    interp.run(src).expect("program loads");
    let f = interp.get_global("f").expect("f is defined");
    let minipy::Value::Func(func) = &f else {
        panic!("f is a function");
    };
    let code = bytecode::compile::compile_function(&func.def).expect("f compiles");
    // Per call: the straight-line prologue up to the loop's `IterNext`,
    // then per iteration the `IterNext`, the body and the back-edge, then
    // the exhausted `IterNext` and the `Return`. IC dispatches: the `range`
    // cell read, then the body's `LoadFree`s once per iteration; each of
    // the call's two cells misses once, when its frame fills it.
    let head = code
        .ops
        .iter()
        .position(|op| matches!(op, bytecode::Op::IterNext { .. }))
        .expect("f has a loop");
    let body = code.fused[head].as_ref().map_or(0, |b| b.args.len() as u64);
    assert!(body > 0, "the loop body is fusible");
    let loads = code.ops[head + 1..=head + body as usize]
        .iter()
        .filter(|op| matches!(op, bytecode::Op::LoadFree { .. }))
        .count() as u64;
    minipy::stats::reset();
    minipy::stats::set_enabled(true);
    let calls: [(i64, i64); 4] = [(-3, 8), (0, 6), (-6, 9), (-1, 1)];
    for (a, n) in calls {
        interp
            .call(&f, vec![minipy::Value::Int(a), minipy::Value::Int(n)])
            .expect("f runs");
    }
    let stats = minipy::stats::snapshot();
    minipy::stats::set_enabled(false);
    bytecode::set_mode(prev);
    let per_op_ops: u64 = calls
        .iter()
        .map(|&(_, n)| head as u64 + n as u64 * (body + 2) + 2)
        .sum();
    let dispatches: u64 = calls.iter().map(|&(_, n)| 1 + n as u64 * loads).sum();
    let misses = 2 * calls.len() as u64;
    assert_eq!(stats.vm_ops, per_op_ops, "vm.ops must count per-op");
    assert_eq!(stats.ic_misses, misses, "one fill per cell per call");
    assert_eq!(
        stats.ic_hits,
        dispatches - misses,
        "ic.hits must count per-op"
    );
}

#[test]
fn fused_loops_over_non_numbers_and_unset_locals_keep_per_op_counts() {
    // `g` copies a str in its fused body: the copy is a boxed move, so the
    // loop stays fused and nothing deopts. `h` adds strs, and `r` reads a
    // local that is never set (the closure chain finds the global): each
    // plan fails the shape guard and its loop deopts, once. Either way
    // `vm.ops` must count exactly what per-op dispatch executes.
    let src = "q = 3\ndef g(n, s):\n    w = s\n    v = s\n    for i in range(n):\n        v = w\n        w = s\n        k = i * 2\n    return v\ndef h(n, s):\n    t = s\n    for i in range(n):\n        t = t + s\n    return t\ndef r(n, s):\n    k = 0\n    for i in range(n):\n        k = k + q\n    return k\n    q = 1\n";
    let _guard = lock();
    let prev = bytecode::set_mode(VmMode::On);
    let interp = Interp::new().capture_output();
    interp.run(src).expect("program loads");
    let mut counts = Vec::new();
    for name in ["g", "h", "r"] {
        let f = interp.get_global(name).expect("function is defined");
        let minipy::Value::Func(func) = &f else {
            panic!("{name} is a function");
        };
        let code = bytecode::compile::compile_function(&func.def).expect("compiles");
        let head = code
            .ops
            .iter()
            .position(|op| matches!(op, bytecode::Op::IterNext { .. }))
            .expect("a loop");
        let body = code.fused[head].as_ref().map_or(0, |b| b.args.len() as u64);
        assert!(body > 0, "{name}'s loop body is fusible");
        minipy::stats::reset();
        minipy::stats::set_enabled(true);
        let ns = [4i64, 7, 1, 5];
        for n in ns {
            interp
                .call(&f, vec![minipy::Value::Int(n), minipy::Value::from("ab")])
                .expect("runs");
        }
        let stats = minipy::stats::snapshot();
        minipy::stats::set_enabled(false);
        let per_op_ops: u64 = ns
            .iter()
            .map(|&n| head as u64 + n as u64 * (body + 2) + 2)
            .sum();
        assert_eq!(stats.vm_ops, per_op_ops, "{name}: vm.ops must count per-op");
        counts.push(stats.quicken_deopts);
    }
    bytecode::set_mode(prev);
    assert_eq!(
        counts,
        [0, 1, 1],
        "deopts of g (boxed copy), h (str add) and r (unset local)"
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

    /// Random straight-line `range` bodies (the fused loop's typed plan):
    /// int and float operands, every arithmetic operator, loop-carried
    /// registers whose kind may widen, and the loop variable, called twice
    /// so the second call runs fused from its first iteration.
    #[test]
    fn random_fused_bodies_are_mode_invariant(
        x0 in prop_oneof![Just("0"), Just("1.5"), Just("-3")],
        stmts in proptest::collection::vec((0usize..3, 0usize..4, 0usize..7, 0usize..4), 1..5),
        a in -3i64..3,
        n in 0i64..5,
    ) {
        const VARS: [&str; 3] = ["x", "y", "z"];
        const LHS: [&str; 4] = ["x", "y", "i", "a"];
        const OPS: [&str; 7] = ["+", "-", "*", "/", "//", "%", "**"];
        const RHS: [&str; 4] = ["i", "2", "0.5", "z"];
        let body: String = stmts
            .iter()
            .map(|&(t, l, o, r)| format!("        {} = {} {} {}\n", VARS[t], LHS[l], OPS[o], RHS[r]))
            .collect();
        let src = format!(
            "def f(a, n):\n    x = {x0}\n    y = 1\n    z = 0.25\n    for i in range(n):\n{body}    return x, y, z, i\nprint(f({a}, {n}))\nprint(f({a}, {}))\n",
            n + 3
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
