//! Object-lock acquisitions per word of the wordcount loop, counted by the
//! interpreter's own stats (`minipy.obj_lock.acquisitions`).
//!
//! `line.split()` returns a list only the loop holds, so the loop iterates
//! it owned: no lock per step. What is left per word is the dict's read
//! lock in `d.get(w, 0)` and its write lock in `d[w] = …`, two in all, in
//! both tiers.
//! Stats are process-global, so this is its own test target with one test:
//! no sibling test can take a counted lock while the call runs.

use minipy::bytecode::{self, VmMode};
use minipy::{Interp, Value};

const SOURCE: &str = "
def count_line(d, line):
    for w in line.split():
        d[w] = d.get(w, 0) + 1
";

const WORDS: u64 = 96;

/// Object-lock acquisitions while one call of `count_line` runs, with every
/// key already present.
fn locks_per_call(mode: VmMode) -> (u64, u64) {
    let prev = bytecode::set_mode(mode);
    let interp = Interp::new();
    interp.run(SOURCE).expect("source runs");
    let f = interp.get_global("count_line").expect("function defined");
    let words: Vec<String> = (0..WORDS).map(|i| format!("w{}", i % 11)).collect();
    let line = Value::str(words.join(" "));
    let d = Value::dict();
    // Warm: every key inserted, every site quickened and its cache filled.
    interp
        .call(&f, vec![d.clone(), line.clone()])
        .expect("loop runs");
    minipy::stats::reset();
    minipy::stats::set_enabled(true);
    interp.call(&f, vec![d.clone(), line]).expect("loop runs");
    let stats = minipy::stats::snapshot();
    minipy::stats::set_enabled(false);
    bytecode::set_mode(prev);
    (stats.obj_lock_acquisitions, stats.vm_frames)
}

#[test]
fn split_loop_takes_two_object_locks_per_word() {
    let (vm, frames) = locks_per_call(VmMode::On);
    assert_eq!(frames, 1, "the loop runs as a VM frame");
    assert_eq!(vm, 2 * WORDS, "VM: object locks for {WORDS} words");
    let (tree, frames) = locks_per_call(VmMode::Off);
    assert_eq!(frames, 0, "the loop runs on the tree-walker");
    assert_eq!(
        tree,
        2 * WORDS,
        "tree-walker: object locks for {WORDS} words"
    );
}
