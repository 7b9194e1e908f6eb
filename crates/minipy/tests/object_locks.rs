//! Object-lock acquisitions per word of the wordcount loop, counted by the
//! interpreter's own stats (`minipy.obj_lock.acquisitions`).
//!
//! `line.split()` returns a list only the loop holds, so the loop iterates
//! it owned: no lock per step. What is left per word is the dict's read
//! lock in `d.get(w, 0)` and its write lock in `d[w] = …`, two in all, in
//! both tiers.
//! Stats are process-global, so this is its own test target, and its tests
//! take one lock: no sibling test can count while a call runs.

use minipy::bytecode::{self, VmMode};
use minipy::stats::InterpStats;
use minipy::{Interp, Value};

const SOURCE: &str = "
def count_line(d, line):
    for w in line.split():
        d[w] = d.get(w, 0) + 1
";

const WORDS: u64 = 96;

fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The counters of one call of `count_line` over a line of `words` words,
/// with every key already present.
fn counters(mode: VmMode, words: u64) -> InterpStats {
    let prev = bytecode::set_mode(mode);
    let interp = Interp::new();
    interp.run(SOURCE).expect("source runs");
    let f = interp.get_global("count_line").expect("function defined");
    let words: Vec<String> = (0..words).map(|i| format!("w{}", i % 11)).collect();
    let line = Value::str(words.join(" "));
    let d = Value::dict();
    // Warm: every key inserted, every site quickened.
    interp
        .call(&f, vec![d.clone(), line.clone()])
        .expect("loop runs");
    minipy::stats::reset();
    minipy::stats::set_enabled(true);
    interp.call(&f, vec![d.clone(), line]).expect("loop runs");
    let stats = minipy::stats::snapshot();
    minipy::stats::set_enabled(false);
    bytecode::set_mode(prev);
    stats
}

#[test]
fn split_loop_takes_two_object_locks_per_word() {
    let _guard = lock();
    let vm = counters(VmMode::On, WORDS);
    assert_eq!(vm.vm_frames, 1, "the loop runs as a VM frame");
    assert_eq!(
        vm.obj_lock_acquisitions,
        2 * WORDS,
        "VM: object locks for {WORDS} words"
    );
    let tree = counters(VmMode::Off, WORDS);
    assert_eq!(tree.vm_frames, 0, "the loop runs on the tree-walker");
    assert_eq!(
        tree.obj_lock_acquisitions,
        2 * WORDS,
        "tree-walker: object locks for {WORDS} words"
    );
}

/// The loop's steady state, per word: the difference between a line of
/// `2 * WORDS` words and one of `WORDS` (each frame's first `d.get` fills
/// its inline cache, which the difference cancels). Seven ops (`IterNext`,
/// two argument copies, `CallMethod`, `Binary`, `SetItem`, the back-edge),
/// one inline-cache hit, no miss and two object locks: the counts the
/// generic handlers give, although the dict subscript, the iteration step
/// and the cached method call run inline.
#[test]
fn warm_loop_counts_seven_ops_one_cache_hit_two_locks_per_word() {
    let _guard = lock();
    let short = counters(VmMode::On, WORDS);
    let long = counters(VmMode::On, 2 * WORDS);
    assert_eq!(long.vm_ops - short.vm_ops, 7 * WORDS, "VM ops");
    assert_eq!(long.ic_hits - short.ic_hits, WORDS, "inline-cache hits");
    assert_eq!(long.ic_misses, short.ic_misses, "inline-cache misses");
    assert_eq!(
        long.obj_lock_acquisitions - short.obj_lock_acquisitions,
        2 * WORDS,
        "object locks"
    );
    assert_eq!(long.quicken_deopts, 0, "no guard fails on the warm loop");
}
