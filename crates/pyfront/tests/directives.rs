//! End-to-end directive tests: minipy programs with `@omp` run through the
//! transformer, bridge, and runtime in both Pure and Hybrid modes.

use minipy::{Interp, Value};
use omp4rs_pyfront::{ExecMode, Runner};

fn both_modes() -> [ExecMode; 2] {
    [ExecMode::Pure, ExecMode::Hybrid]
}

fn run_and_call(mode: ExecMode, src: &str, func: &str, args: Vec<Value>) -> Value {
    let runner = Runner::new(mode);
    runner
        .run(src)
        .unwrap_or_else(|e| panic!("{mode:?}: error running program: {e}"));
    runner
        .call_global(func, args)
        .unwrap_or_else(|e| panic!("{mode:?}: error calling {func}: {e}"))
}

#[test]
fn paper_figure1_pi() {
    let src = r#"
from omp4py import *

@omp
def pi(n):
    w = 1.0 / n
    pi_value = 0.0
    with omp("parallel for reduction(+:pi_value)"):
        for i in range(n):
            local = (i + 0.5) * w
            pi_value += 4.0 / (1.0 + local * local)
    return pi_value * w
"#;
    for mode in both_modes() {
        let v = run_and_call(mode, src, "pi", vec![Value::Int(50_000)]);
        let pi = v.as_float().unwrap();
        assert!((pi - std::f64::consts::PI).abs() < 1e-6, "{mode:?}: {pi}");
    }
}

#[test]
fn parallel_with_num_threads_and_thread_ids() {
    let src = r#"
from omp4py import *

@omp
def ids():
    seen = []
    with omp("parallel num_threads(4)"):
        with omp("critical"):
            seen.append(omp_get_thread_num())
    return sorted(seen)
"#;
    for mode in both_modes() {
        let v = run_and_call(mode, src, "ids", vec![]);
        assert_eq!(v.repr(), "[0, 1, 2, 3]", "{mode:?}");
    }
}

#[test]
fn parallel_if_clause_serializes() {
    let src = r#"
from omp4py import *

@omp
def count(cond):
    n = 0
    with omp("parallel num_threads(4) if(cond)"):
        with omp("critical"):
            n += 1
    return n
"#;
    for mode in both_modes() {
        assert_eq!(
            run_and_call(mode, src, "count", vec![Value::Bool(false)])
                .as_int()
                .unwrap(),
            1
        );
        assert_eq!(
            run_and_call(mode, src, "count", vec![Value::Bool(true)])
                .as_int()
                .unwrap(),
            4
        );
    }
}

#[test]
fn worksharing_for_all_schedules() {
    for sched in [
        "",
        "schedule(static)",
        "schedule(static, 3)",
        "schedule(dynamic, 2)",
        "schedule(guided)",
        "schedule(auto)",
    ] {
        let src = format!(
            r#"
from omp4py import *

@omp
def total(n):
    acc = 0
    with omp("parallel num_threads(4)"):
        local = 0
        with omp("for {sched}"):
            for i in range(n):
                local += i
        with omp("critical"):
            acc += local
    return acc
"#
        );
        for mode in both_modes() {
            let v = run_and_call(mode, &src, "total", vec![Value::Int(100)]);
            assert_eq!(v.as_int().unwrap(), 4950, "{mode:?} {sched}");
        }
    }
}

/// The chunks the default schedule of a clause-less interpreted loop claims,
/// in order: guided with minimum chunk `interpreted_min_chunk(n, threads)`.
fn predicted_default_chunks(n: u64, threads: usize) -> Vec<(u64, u64)> {
    let min = omp4rs::schedule::interpreted_min_chunk(n, threads);
    let mut chunks = Vec::new();
    let mut lo = 0;
    while lo < n {
        let remaining = n - lo;
        let size = remaining
            .div_ceil(2 * threads as u64)
            .max(min)
            .min(remaining);
        chunks.push((lo, lo + size));
        lo += size;
    }
    chunks
}

#[test]
fn clause_less_loop_chunks_follow_the_rule_every_time() {
    use omp4rs::ompt::{self, EventKind, ToolConfig};

    let src = r#"
from omp4py import *

@omp
def total(n, t):
    acc = 0
    with omp("parallel for reduction(+:acc) num_threads(t)"):
        for i in range(n):
            acc += i
    return acc
"#;
    // Odd sizes no other test in this binary uses, so the loop's chunks can
    // be picked out of events recorded by concurrently running tests.
    let shapes = [(2usize, 9_973u64), (1, 4_099), (2, 6_007), (1, 9_973)];
    for mode in both_modes() {
        let runner = Runner::new(mode);
        runner.run(src).expect("program runs");
        // Repeat every shape: earlier instances must not change later ones.
        for _round in 0..3 {
            for &(threads, n) in &shapes {
                let _session = ompt::session(ToolConfig::default());
                let args = vec![Value::Int(n as i64), Value::Int(threads as i64)];
                let sum = runner.call_global("total", args).expect("call");
                assert_eq!(sum.as_int().unwrap() as u64, n * (n - 1) / 2);
                let mut by_region: std::collections::BTreeMap<u64, Vec<(u64, u64)>> =
                    Default::default();
                for e in ompt::events() {
                    if let EventKind::ChunkClaim { lo, hi } = e.kind {
                        by_region.entry(e.region).or_default().push((lo, hi));
                    }
                }
                // A full ring drops new events: a lost chunk claim would
                // otherwise read as a wrong chunk list.
                assert_eq!(
                    ompt::dropped_events(),
                    0,
                    "{mode:?} T={threads} n={n}: trace events dropped"
                );
                let mut ours: Vec<Vec<(u64, u64)>> = by_region
                    .into_values()
                    .filter(|c| c.iter().any(|&(_, hi)| hi == n))
                    .collect();
                assert_eq!(ours.len(), 1, "{mode:?} T={threads} n={n}: one region");
                let mut chunks = ours.pop().unwrap();
                chunks.sort_unstable();
                assert_eq!(
                    chunks,
                    predicted_default_chunks(n, threads),
                    "{mode:?} T={threads} n={n}"
                );
            }
        }
    }
}

#[test]
fn for_with_step_and_negative_ranges() {
    let src = r#"
from omp4py import *

@omp
def stepped():
    acc = 0
    with omp("parallel for reduction(+:acc) num_threads(3)"):
        for i in range(1, 20, 3):
            acc += i
    return acc
"#;
    // 1+4+7+10+13+16+19 = 70
    for mode in both_modes() {
        assert_eq!(
            run_and_call(mode, src, "stepped", vec![]).as_int().unwrap(),
            70
        );
    }
}

#[test]
fn collapse_two_loops() {
    let src = r#"
from omp4py import *

@omp
def grid(n, m):
    acc = 0
    with omp("parallel num_threads(4)"):
        local = 0
        with omp("for schedule(dynamic, 3) collapse(2)"):
            for i in range(n):
                for j in range(m):
                    local += i * 100 + j
        with omp("critical"):
            acc += local
    return acc
"#;
    let mut expected = 0i64;
    for i in 0..5 {
        for j in 0..7 {
            expected += i * 100 + j;
        }
    }
    for mode in both_modes() {
        let v = run_and_call(mode, src, "grid", vec![Value::Int(5), Value::Int(7)]);
        assert_eq!(v.as_int().unwrap(), expected, "{mode:?}");
    }
}

#[test]
fn reduction_operators() {
    let src = r#"
from omp4py import *

@omp
def reds(n):
    s = 0
    p = 1
    lo = 1000000.0
    hi = -1000000.0
    with omp("parallel num_threads(3)"):
        with omp("for reduction(+:s) reduction(min:lo) reduction(max:hi)"):
            for i in range(n):
                s += i
                lo = min(lo, i)
                hi = max(hi, i)
        with omp("for reduction(*:p)"):
            for i in range(1, 6):
                p *= i
    return [s, p, lo, hi]
"#;
    for mode in both_modes() {
        let v = run_and_call(mode, src, "reds", vec![Value::Int(50)]);
        // Python's min/max return the winning operand object: ints here.
        assert_eq!(v.repr(), "[1225, 120, 0, 49]", "{mode:?}");
    }
}

#[test]
fn declare_reduction_custom() {
    let src = r#"
from omp4py import *

omp("declare reduction(listcat : a + b) initializer([])")

@omp
def gather(n):
    out = []
    with omp("parallel for reduction(listcat: out) num_threads(3)"):
        for i in range(n):
            out = out + [i]
    return sorted(out)
"#;
    for mode in both_modes() {
        let v = run_and_call(mode, src, "gather", vec![Value::Int(10)]);
        assert_eq!(v.repr(), "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]", "{mode:?}");
    }
}

#[test]
fn private_and_firstprivate() {
    let src = r#"
from omp4py import *

@omp
def priv():
    x = 10
    results = []
    with omp("parallel num_threads(3) firstprivate(x)"):
        x = x + omp_get_thread_num()
        with omp("critical"):
            results.append(x)
    return [x, sorted(results)]
"#;
    for mode in both_modes() {
        let v = run_and_call(mode, src, "priv", vec![]);
        // x unchanged outside; each thread saw 10 + tid.
        assert_eq!(v.repr(), "[10, [10, 11, 12]]", "{mode:?}");
    }
}

#[test]
fn private_variable_is_uninitialized_copy() {
    let src = r#"
from omp4py import *

@omp
def priv2():
    y = 5
    with omp("parallel num_threads(2) private(y)"):
        y = omp_get_thread_num()
    return y
"#;
    for mode in both_modes() {
        // The private copies are discarded; outer y unchanged.
        assert_eq!(
            run_and_call(mode, src, "priv2", vec![]).as_int().unwrap(),
            5
        );
    }
}

#[test]
fn lastprivate_takes_final_iteration() {
    let src = r#"
from omp4py import *

@omp
def lastp(n):
    v = -1
    with omp("parallel num_threads(4)"):
        with omp("for schedule(dynamic, 1) lastprivate(v)"):
            for i in range(n):
                v = i * 10
    return v
"#;
    for mode in both_modes() {
        let v = run_and_call(mode, src, "lastp", vec![Value::Int(13)]);
        assert_eq!(v.as_int().unwrap(), 120, "{mode:?}");
    }
}

#[test]
fn single_and_master() {
    let src = r#"
from omp4py import *

@omp
def regions():
    singles = []
    masters = []
    with omp("parallel num_threads(4)"):
        with omp("single"):
            singles.append(omp_get_thread_num())
        with omp("master"):
            masters.append(omp_get_thread_num())
        omp("barrier")
    return [len(singles), masters]
"#;
    for mode in both_modes() {
        let v = run_and_call(mode, src, "regions", vec![]);
        assert_eq!(v.repr(), "[1, [0]]", "{mode:?}");
    }
}

#[test]
fn single_copyprivate_broadcasts() {
    let src = r#"
from omp4py import *

@omp
def bcast():
    seen = []
    token = 0
    with omp("parallel num_threads(4)"):
        with omp("single copyprivate(token)"):
            token = 42
        with omp("critical"):
            seen.append(token)
    return seen
"#;
    for mode in both_modes() {
        let v = run_and_call(mode, src, "bcast", vec![]);
        assert_eq!(v.repr(), "[42, 42, 42, 42]", "{mode:?}");
    }
}

#[test]
fn sections_distribute_blocks() {
    let src = r#"
from omp4py import *

@omp
def secs():
    results = []
    with omp("parallel num_threads(2)"):
        with omp("sections"):
            with omp("section"):
                with omp("critical"):
                    results.append("a")
            with omp("section"):
                with omp("critical"):
                    results.append("b")
            with omp("section"):
                with omp("critical"):
                    results.append("c")
    return sorted(results)
"#;
    for mode in both_modes() {
        let v = run_and_call(mode, src, "secs", vec![]);
        assert_eq!(v.repr(), "['a', 'b', 'c']", "{mode:?}");
    }
}

#[test]
fn atomic_update() {
    let src = r#"
from omp4py import *

@omp
def counting(n):
    c = 0
    with omp("parallel num_threads(4)"):
        with omp("for"):
            for i in range(n):
                with omp("atomic"):
                    c += 1
    return c
"#;
    for mode in both_modes() {
        let v = run_and_call(mode, src, "counting", vec![Value::Int(400)]);
        assert_eq!(v.as_int().unwrap(), 400, "{mode:?}");
    }
}

#[test]
fn ordered_loop() {
    let src = r#"
from omp4py import *

@omp
def ordered_out(n):
    out = []
    with omp("parallel num_threads(4)"):
        with omp("for schedule(dynamic, 1) ordered"):
            for i in range(n):
                x = i * i
                with omp("ordered"):
                    out.append(i)
    return out
"#;
    for mode in both_modes() {
        let v = run_and_call(mode, src, "ordered_out", vec![Value::Int(12)]);
        assert_eq!(
            v.repr(),
            "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]",
            "{mode:?}"
        );
    }
}

#[test]
fn paper_figure4_fibonacci_tasks() {
    let src = r#"
from omp4py import *

@omp
def fibonacci(n):
    if n <= 1:
        return n
    fib1 = 0
    fib2 = 0
    with omp("task"):
        fib1 = fibonacci(n - 1)
    with omp("task"):
        fib2 = fibonacci(n - 2)
    omp("taskwait")
    return fib1 + fib2

@omp
def run(n):
    result = []
    with omp("parallel num_threads(4)"):
        with omp("single"):
            result.append(fibonacci(n))
    return result[0]
"#;
    for mode in both_modes() {
        let v = run_and_call(mode, src, "run", vec![Value::Int(10)]);
        assert_eq!(v.as_int().unwrap(), 55, "{mode:?}");
    }
}

#[test]
fn task_if_clause_cutoff() {
    let src = r#"
from omp4py import *

@omp
def tree(n, depth):
    if n <= 0:
        return 1
    left = 0
    right = 0
    with omp("task if(depth < 2)"):
        left = tree(n - 1, depth + 1)
    with omp("task if(depth < 2)"):
        right = tree(n - 1, depth + 1)
    omp("taskwait")
    return left + right

@omp
def run(n):
    out = []
    with omp("parallel num_threads(3)"):
        with omp("single"):
            out.append(tree(n, 0))
    return out[0]
"#;
    for mode in both_modes() {
        let v = run_and_call(mode, src, "run", vec![Value::Int(8)]);
        assert_eq!(v.as_int().unwrap(), 256, "{mode:?}");
    }
}

#[test]
fn task_firstprivate_captures_at_creation() {
    let src = r#"
from omp4py import *

@omp
def spawner(n):
    got = []
    with omp("parallel num_threads(2)"):
        with omp("single"):
            for i in range(n):
                with omp("task firstprivate(i)"):
                    with omp("critical"):
                        got.append(i)
    return sorted(got)
"#;
    for mode in both_modes() {
        let v = run_and_call(mode, src, "spawner", vec![Value::Int(6)]);
        assert_eq!(v.repr(), "[0, 1, 2, 3, 4, 5]", "{mode:?}");
    }
}

#[test]
fn barrier_and_api_functions() {
    let src = r#"
from omp4py import *

@omp
def info():
    sizes = []
    with omp("parallel num_threads(3)"):
        with omp("critical"):
            sizes.append(omp_get_num_threads())
        omp("barrier")
        with omp("single"):
            sizes.append(omp_in_parallel())
    outside = omp_get_num_threads()
    return [sizes[0], sizes[3], outside, omp_in_parallel()]
"#;
    for mode in both_modes() {
        let v = run_and_call(mode, src, "info", vec![]);
        assert_eq!(v.repr(), "[3, True, 1, False]", "{mode:?}");
    }
}

#[test]
fn nested_parallel_when_enabled() {
    let src = r#"
from omp4py import *

@omp
def nested():
    omp_set_nested(True)
    counts = []
    with omp("parallel num_threads(2)"):
        with omp("parallel num_threads(2)"):
            with omp("critical"):
                counts.append(1)
    omp_set_nested(False)
    return len(counts)
"#;
    for mode in both_modes() {
        let v = run_and_call(mode, src, "nested", vec![]);
        assert_eq!(v.as_int().unwrap(), 4, "{mode:?}");
    }
}

#[test]
fn exceptions_in_region_are_reported() {
    let src = r#"
from omp4py import *

@omp
def boom():
    with omp("parallel num_threads(2)"):
        raise ValueError("inside region")
"#;
    for mode in both_modes() {
        let runner = Runner::new(mode);
        runner.run(src).unwrap();
        let err = runner.call_global("boom", vec![]).unwrap_err();
        assert_eq!(err.kind, minipy::ErrKind::Value, "{mode:?}");
        assert!(err.msg.contains("inside region"));
    }
}

#[test]
fn threadprivate_with_copyin() {
    let src = r#"
from omp4py import *

omp("threadprivate(counter)")
counter = 100

@omp
def tp():
    out = []
    counter = 7
    with omp("parallel num_threads(3) copyin(counter)"):
        counter = counter + omp_get_thread_num()
        with omp("critical"):
            out.append(counter)
    return sorted(out)
"#;
    for mode in both_modes() {
        let runner = Runner::new(mode);
        omp4rs_pyfront::threadprivate::reset();
        runner.run(src).unwrap();
        let v = runner.call_global("tp", vec![]).unwrap();
        assert_eq!(v.repr(), "[7, 8, 9]", "{mode:?}");
        omp4rs_pyfront::threadprivate::reset();
    }
}

#[test]
fn schedule_runtime_uses_api_setting() {
    let src = r#"
from omp4py import *

@omp
def rt(n):
    omp_set_schedule("dynamic", 2)
    acc = 0
    with omp("parallel for reduction(+:acc) num_threads(3) schedule(runtime)"):
        for i in range(n):
            acc += 1
    return acc
"#;
    for mode in both_modes() {
        let v = run_and_call(mode, src, "rt", vec![Value::Int(30)]);
        assert_eq!(v.as_int().unwrap(), 30, "{mode:?}");
    }
}

#[test]
fn nowait_loops() {
    let src = r#"
from omp4py import *

@omp
def nw(n):
    acc = 0
    with omp("parallel num_threads(4)"):
        local = 0
        with omp("for schedule(dynamic, 1) nowait"):
            for i in range(n):
                local += 1
        with omp("for schedule(dynamic, 1) nowait"):
            for i in range(n):
                local += 1
        with omp("critical"):
            acc += local
    return acc
"#;
    for mode in both_modes() {
        let v = run_and_call(mode, src, "nw", vec![Value::Int(40)]);
        assert_eq!(v.as_int().unwrap(), 80, "{mode:?}");
    }
}

#[test]
fn default_none_rejects_unlisted() {
    let src = r#"
from omp4py import *

@omp
def bad():
    x = 1
    with omp("parallel default(none)"):
        y = x
    return 0
"#;
    let runner = Runner::new(ExecMode::Hybrid);
    let err = runner.run(src).unwrap_err();
    assert_eq!(err.kind, minipy::ErrKind::Syntax);
    assert!(err.msg.contains('x'), "{}", err.msg);
}

#[test]
fn default_shared_allows_unlisted() {
    let src = r#"
from omp4py import *

@omp
def ok():
    x = 5
    total = []
    with omp("parallel default(shared) num_threads(2)"):
        with omp("critical"):
            total.append(x)
    return len(total)
"#;
    assert_eq!(
        run_and_call(ExecMode::Hybrid, src, "ok", vec![])
            .as_int()
            .unwrap(),
        2
    );
}

#[test]
fn for_requires_range_loop() {
    let src = r#"
from omp4py import *

@omp
def bad(items):
    with omp("parallel for"):
        for x in items:
            pass
"#;
    let runner = Runner::new(ExecMode::Hybrid);
    let err = runner.run(src).unwrap_err();
    assert_eq!(err.kind, minipy::ErrKind::Syntax);
    assert!(err.msg.contains("range"), "{}", err.msg);
}

#[test]
fn invalid_directive_is_syntax_error() {
    let src = r#"
from omp4py import *

@omp
def bad():
    with omp("paralel"):
        pass
"#;
    let runner = Runner::new(ExecMode::Hybrid);
    let err = runner.run(src).unwrap_err();
    assert_eq!(err.kind, minipy::ErrKind::Syntax);
}

#[test]
fn undecorated_directives_are_noops() {
    // Without @omp, omp(...) calls do nothing and the with-body runs inline.
    let src = r#"
from omp4py import *

def plain(n):
    acc = 0
    with omp("parallel for reduction(+:acc)"):
        for i in range(n):
            acc += i
    return acc
"#;
    for mode in both_modes() {
        let v = run_and_call(mode, src, "plain", vec![Value::Int(10)]);
        assert_eq!(v.as_int().unwrap(), 45, "{mode:?}");
    }
}

#[test]
fn dump_option_prints_transformed_source() {
    let src = r#"
from omp4py import *

@omp(dump=True)
def f(n):
    total = 0
    with omp("parallel for reduction(+:total)"):
        for i in range(n):
            total += i
    return total
"#;
    let interp = Interp::new().capture_output();
    omp4rs_pyfront::install(&interp, ExecMode::Hybrid);
    interp.run(src).unwrap();
    let out = interp.output().unwrap();
    assert!(out.contains("__omp_parallel_"), "dump output: {out}");
    assert!(out.contains("for_bounds"), "dump output: {out}");
    assert!(out.contains("nonlocal total"), "dump output: {out}");
    // And the function still works.
    let f = interp.get_global("f").unwrap();
    assert_eq!(
        interp
            .call(&f, vec![Value::Int(10)])
            .unwrap()
            .as_int()
            .unwrap(),
        45
    );
}

#[test]
fn orphaned_worksharing_outside_parallel() {
    // A worksharing loop outside a parallel region runs serially, whatever
    // its schedule: with no team there is no claim counter to share.
    for sched in ["", "schedule(dynamic, 2)", "schedule(guided)"] {
        let src = format!(
            r#"
from omp4py import *

@omp
def orphan(n):
    acc = 0
    with omp("for reduction(+:acc) {sched}"):
        for i in range(n):
            acc += i
    return acc
"#
        );
        for mode in both_modes() {
            let v = run_and_call(mode, &src, "orphan", vec![Value::Int(10)]);
            assert_eq!(v.as_int().unwrap(), 45, "{mode:?} {sched}");
        }
    }
}

#[test]
fn taskloop_distributes_iterations() {
    // §V extension: taskloop packages loop iterations into tasks.
    let src = r#"
from omp4py import *

@omp
def tl(n):
    acc = 0
    out = []
    with omp("parallel num_threads(3)"):
        with omp("single"):
            with omp("taskloop grainsize(4)"):
                for i in range(n):
                    with omp("critical"):
                        out.append(i)
    return sorted(out)
"#;
    for mode in both_modes() {
        let v = run_and_call(mode, src, "tl", vec![Value::Int(20)]);
        let expect: Vec<String> = (0..20).map(|i| i.to_string()).collect();
        assert_eq!(v.repr(), format!("[{}]", expect.join(", ")), "{mode:?}");
    }
}

#[test]
fn taskloop_num_tasks_and_nogroup() {
    let src = r#"
from omp4py import *

@omp
def tl(n):
    acc = [0]
    with omp("parallel num_threads(2)"):
        with omp("single"):
            with omp("taskloop num_tasks(5) nogroup"):
                for i in range(n):
                    with omp("atomic"):
                        acc[0] += i
            omp("taskwait")
    return acc[0]
"#;
    for mode in both_modes() {
        let v = run_and_call(mode, src, "tl", vec![Value::Int(30)]);
        assert_eq!(v.as_int().unwrap(), 435, "{mode:?}");
    }
}

#[test]
fn mode_visible_to_interpreted_code() {
    for (mode, expect) in [(ExecMode::Pure, "Pure"), (ExecMode::Hybrid, "Hybrid")] {
        let runner = Runner::new(mode);
        runner.run("m = __omp.mode()\n").unwrap();
        assert_eq!(
            runner.interp().get_global("m").unwrap().as_str().unwrap(),
            expect
        );
    }
}

#[test]
fn task_depend_chain_orders_siblings() {
    // An inout chain on one key serializes the tasks in submission order
    // even with a 4-thread team racing to steal them.
    let src = r#"
from omp4py import *

@omp
def chain(n):
    order = []
    with omp("parallel num_threads(4)"):
        with omp("single"):
            for i in range(n):
                with omp("task depend(inout: 0) firstprivate(i)"):
                    order.append(i)
    return order
"#;
    for mode in both_modes() {
        let v = run_and_call(mode, src, "chain", vec![Value::Int(12)]);
        let Value::List(items) = v else {
            panic!("{mode:?}: expected list")
        };
        let got: Vec<i64> = items.read().iter().map(|x| x.as_int().unwrap()).collect();
        assert_eq!(got, (0..12).collect::<Vec<_>>(), "{mode:?}");
    }
}

#[test]
fn taskgroup_waits_and_depend_takes_tuple_keys() {
    // A diamond ordered by tuple dependence keys inside a taskgroup: the
    // append after the group must observe all four members done.
    let src = r#"
from omp4py import *

@omp
def diamond():
    log = []
    with omp("parallel num_threads(4)"):
        with omp("single"):
            with omp("taskgroup"):
                with omp("task depend(out: (0, 0))"):
                    log.append("a")
                with omp("task depend(in: (0, 0)) depend(out: (0, 1))"):
                    log.append("b")
                with omp("task depend(in: (0, 0)) depend(out: (1, 0))"):
                    log.append("c")
                with omp("task depend(in: (0, 1), (1, 0))"):
                    log.append("d")
            log.append("end")
    return log
"#;
    for mode in both_modes() {
        let v = run_and_call(mode, src, "diamond", vec![]);
        let Value::List(items) = v else {
            panic!("{mode:?}: expected list")
        };
        let got: Vec<String> = items
            .read()
            .iter()
            .map(|x| x.as_str().unwrap().to_string())
            .collect();
        assert_eq!(got.len(), 5, "{mode:?}: {got:?}");
        assert_eq!(got[0], "a", "{mode:?}: {got:?}");
        let mut mid = [got[1].clone(), got[2].clone()];
        mid.sort();
        assert_eq!(mid, ["b", "c"], "{mode:?}: {got:?}");
        assert_eq!(got[3], "d", "{mode:?}: {got:?}");
        assert_eq!(got[4], "end", "{mode:?}: {got:?}");
    }
}

#[test]
fn task_priority_clause_is_honored() {
    // Two threads, so every task defers into the priority heap, then
    // thread 0 drains it highest-priority-first. Thread 1 waits on a flag
    // in user code, which is no scheduling point, so it cannot take a task
    // out of turn; `finally` releases it even if thread 0 raises. (A
    // one-thread team runs each task at once, included.)
    let src = r#"
from omp4py import *

@omp
def prio():
    order = []
    drained = [False]
    with omp("parallel num_threads(2)"):
        if omp_get_thread_num() == 0:
            try:
                for p in [1, 3, 2, 5, 4]:
                    with omp("task priority(p) firstprivate(p)"):
                        order.append(p)
                while len(order) < 5:
                    omp("taskyield")
            finally:
                drained[0] = True
        else:
            while not drained[0]:
                omp("flush")
    return order
"#;
    for mode in both_modes() {
        let v = run_and_call(mode, src, "prio", vec![]);
        let Value::List(items) = v else {
            panic!("{mode:?}: expected list")
        };
        let got: Vec<i64> = items.read().iter().map(|x| x.as_int().unwrap()).collect();
        assert_eq!(got, vec![5, 4, 3, 2, 1], "{mode:?}");
    }
}

#[test]
fn outlined_bodies_do_not_leak_the_call_frame() {
    // The outlined function's closure is the enclosing frame; a frame that
    // outlived its call would keep its arguments alive, so each call must
    // hand every reference to `xs` back.
    let src = r#"
from omp4py import *

@omp
def par(xs):
    with omp("parallel num_threads(2)"):
        n = len(xs)
    return 0

@omp
def tsk(xs):
    with omp("parallel num_threads(2)"):
        with omp("single"):
            with omp("task"):
                n = len(xs)
    return 0

@omp
def tloop(xs):
    with omp("parallel num_threads(2)"):
        with omp("single"):
            with omp("taskloop"):
                for i in range(4):
                    n = len(xs)
    return 0
"#;
    for mode in both_modes() {
        let runner = Runner::new(mode);
        runner.run(src).unwrap();
        for func in ["par", "tsk", "tloop"] {
            let xs = Value::list(vec![Value::Int(1)]);
            let Value::List(arc) = &xs else {
                unreachable!()
            };
            let before = std::sync::Arc::strong_count(arc);
            for _ in 0..3 {
                runner.call_global(func, vec![xs.clone()]).unwrap();
            }
            assert_eq!(
                std::sync::Arc::strong_count(arc),
                before,
                "{mode:?}: {func} leaked its call frame"
            );
        }
    }
}
