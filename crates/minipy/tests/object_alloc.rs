//! Heap allocations per word of the wordcount loop, counted by a counting
//! global allocator.
//!
//! A `str` is one heap block (its reference counts and bytes together), a
//! built-in method call borrows its receiver and arguments from the VM's
//! registers, and a dict update through an existing key allocates nothing.
//! So with every key already present, `line.split()` makes one block per
//! word plus its list's growth, and a loop over words already split makes
//! none.
//! This binary has its own global allocator, so it is its own test target
//! with one test: no sibling test can allocate while a call is counted.
//!
//! Counted: every `alloc`, `alloc_zeroed` and `realloc` while one call of
//! the interpreted function runs, less the count of the same call on empty
//! input (the frame, the argument vector, the result).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use minipy::bytecode::{self, VmMode};
use minipy::{Interp, Value};

struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn note() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: forwards every call to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SOURCE: &str = "
def count_lines(d, lines):
    for line in lines:
        for w in line.split():
            d[w] = d.get(w, 0) + 1

def count_words(d, words):
    for w in words:
        d[w] = d.get(w, 0) + 1
";

/// Lines of the split loop, and words per line.
const LINES: usize = 250;
const WORDS_PER_LINE: usize = 16;
const WORDS: usize = LINES * WORDS_PER_LINE;

/// Allocations made while `f(d, input)` runs.
fn call_allocs(interp: &Interp, f: &Value, d: &Value, input: Vec<Value>) -> u64 {
    let args = vec![d.clone(), Value::list(input)];
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    interp.call(f, args).expect("loop runs");
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

/// Allocations per input word of `name`, with every key already counted
/// once.
fn allocs_per_word(interp: &Interp, name: &str, input: &[Value]) -> f64 {
    let f = interp.get_global(name).expect("function defined");
    let d = Value::dict();
    // Warm: every key inserted, every site quickened and its cache filled.
    call_allocs(interp, &f, &d, input.to_vec());
    let base = call_allocs(interp, &f, &d, Vec::new());
    let extra = call_allocs(interp, &f, &d, input.to_vec()).saturating_sub(base);
    let per_word = extra as f64 / WORDS as f64;
    println!("{name}: {per_word:.3} allocations per word ({extra} for {WORDS} words)");
    per_word
}

#[test]
fn wordcount_loop_allocations_per_word() {
    bytecode::set_mode(VmMode::On);
    let interp = Interp::new();
    interp.run(SOURCE).expect("source runs");

    let vocab: Vec<String> = (0..64).map(|i| format!("w{i}")).collect();
    let lines: Vec<Value> = (0..LINES)
        .map(|l| {
            let words: Vec<&str> = (0..WORDS_PER_LINE)
                .map(|k| vocab[(l * 7 + k * 13) % vocab.len()].as_str())
                .collect();
            Value::str(words.join(" "))
        })
        .collect();
    let words: Vec<Value> = (0..WORDS)
        .map(|i| Value::str(vocab[(i * 13) % vocab.len()].as_str()))
        .collect();

    // Both functions must run on the VM, or the bounds below say nothing
    // about it.
    minipy::stats::set_enabled(true);
    let frames0 = minipy::stats::snapshot().vm_frames;
    for name in ["count_lines", "count_words"] {
        let f = interp.get_global(name).expect("function defined");
        interp
            .call(&f, vec![Value::dict(), Value::list(Vec::new())])
            .expect("loop runs");
    }
    let frames = minipy::stats::snapshot().vm_frames - frames0;
    minipy::stats::set_enabled(false);
    assert_eq!(frames, 2, "both loops run as VM frames");

    // One block per word (its string), plus the split list: its `Arc`
    // block, and its buffer allocated at 4 items and grown to 8 and 16,
    // 0.25 per word.
    let split = allocs_per_word(&interp, "count_lines", &lines);
    assert!(split <= 1.3, "split loop: {split:.3} allocations per word");

    // Words already split: the method call, the lookup and the update
    // through an existing key allocate nothing.
    let iterate = allocs_per_word(&interp, "count_words", &words);
    assert!(
        iterate < 0.01,
        "word loop: {iterate:.3} allocations per word"
    );
}
