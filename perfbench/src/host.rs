//! Host probes: process CPU time, resource usage, steal ticks, the
//! environment-knob check, and the stamp every result carries.

use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `struct rusage` as laid out by 64-bit Linux: two `timeval`s, then
/// fourteen `long`s. Only the fields named below are read.
#[repr(C)]
#[derive(Default)]
#[allow(dead_code)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    ru_ixrss: i64,
    ru_idrss: i64,
    ru_isrss: i64,
    ru_minflt: i64,
    ru_majflt: i64,
    ru_nswap: i64,
    ru_inblock: i64,
    ru_oublock: i64,
    ru_msgsnd: i64,
    ru_msgrcv: i64,
    ru_nsignals: i64,
    ru_nvcsw: i64,
    ru_nivcsw: i64,
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads 64-bit Linux process accounting");

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const RUSAGE_SELF: i32 = 0;

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, checked by the `compile_error!` gate above).
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds (user + sys) consumed so far by every thread of this
/// process, including threads that have exited.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// Side of the yardstick's table: 8 MiB of `f64`, more than a core's L2,
/// so its sweep runs out of the last-level cache the host's neighbours
/// share.
const TABLE_SIDE: usize = 1024;

/// A host-speed yardstick: fixed single-threaded work that uses no
/// repository code, timed in the calling thread's CPU seconds. It counts
/// 200,000 words into a hash map and runs a 2,000,000-step float loop, both
/// cache-resident like the interpreter's work, then sweeps a stencil over a
/// table in the shared last-level cache, like the compiled task kernels.
///
/// On a shared host, neighbours' load moves the speed of CPU-bound timings
/// for minutes at a time; dividing a run's timings by its yardstick median
/// takes most of that out.
pub struct Yardstick {
    words: Vec<String>,
    table: Vec<f64>,
}

impl Yardstick {
    /// The yardstick's median CPU seconds on the host the benchmark was
    /// built on, at its typical neighbour load: the unit of the reported
    /// timings.
    pub const REFERENCE_S: f64 = 0.02;

    /// Build the yardstick's input (the same on every run).
    pub fn new() -> Yardstick {
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let words = (0..200_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                format!("w{}", (x >> 33) % 5_000)
            })
            .collect();
        let table = (0..TABLE_SIDE * TABLE_SIDE)
            .map(|i| (i % 97) as f64)
            .collect();
        Yardstick { words, table }
    }

    /// Run the yardstick once and return its CPU seconds.
    pub fn measure(&mut self) -> f64 {
        let start = cpu_clock_s(CLOCK_THREAD_CPUTIME_ID);
        let mut counts: std::collections::HashMap<&str, u32> = std::collections::HashMap::new();
        for w in &self.words {
            *counts.entry(w.as_str()).or_insert(0) += 1;
        }
        let mut acc = 0.0f64;
        for i in 0..2_000_000 {
            let x = (f64::from(i) + 0.5) * 1e-6;
            acc += 4.0 / (1.0 + x * x);
        }
        let (n, t) = (TABLE_SIDE, &mut self.table);
        for i in 1..n {
            for j in 1..n {
                t[i * n + j] = 0.5 * t[i * n + j] + 0.25 * (t[(i - 1) * n + j] + t[i * n + j - 1]);
            }
        }
        std::hint::black_box((counts.len(), acc, t[n * n - 1]));
        cpu_clock_s(CLOCK_THREAD_CPUTIME_ID) - start
    }
}

/// Resource usage of this process (all threads, no children).
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// Peak resident set, KiB.
    pub max_rss_kib: u64,
}

/// Read [`Usage`] for this process.
pub fn usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a valid, writable `struct rusage` with the 64-bit
    // Linux layout (16 `long`-sized words after two `timeval`s).
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    Usage {
        ctx_switches: (ru.ru_nvcsw + ru.ru_nivcsw) as u64,
        max_rss_kib: ru.ru_maxrss as u64,
    }
}

/// Host-wide CPU ticks from the aggregate `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ticks {
    /// Ticks stolen by the hypervisor.
    pub steal: u64,
    /// All ticks (user through steal).
    pub total: u64,
}

/// Read [`Ticks`]; zeros when `/proc/stat` is unreadable.
pub fn ticks() -> Ticks {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
        return Ticks::default();
    };
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    Ticks {
        steal: fields.get(7).copied().unwrap_or(0),
        total: fields.iter().sum(),
    }
}

/// Steal share of the host's CPU ticks between two readings.
pub fn steal_share(before: Ticks, after: Ticks) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// Environment prefixes of the runtime's tuning knobs (OpenMP ICVs, omp4rs
/// extensions, the minimpi retry policy).
const KNOB_PREFIXES: [&str; 3] = ["OMP_", "OMP4RS_", "MINIMPI_"];

/// Every knob variable in force, sorted by name.
pub fn knobs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| KNOB_PREFIXES.iter().any(|p| k.starts_with(p)))
        .collect();
    out.sort();
    out
}

/// Number of CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Today's UTC date as `YYYY-MM-DD`.
pub fn utc_date() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    // Civil-from-days (Howard Hinnant's algorithm).
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// The commit of the checkout, read from `.git` without running git;
/// `"none"` when the checkout is not a git repository.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_owned();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_owned())
            .or_else(|_| packed_ref(&git, reference).ok_or(()))
            .unwrap_or_else(|()| "unknown".to_owned()),
        None => head.to_owned(),
    }
}

fn packed_ref(git: &Path, reference: &str) -> Option<String> {
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name == reference).then(|| hash.to_owned())
    })
}

/// FNV-1a digest of every source file under `dir` (paths and contents, in
/// sorted path order): identifies the measured code where no commit exists.
pub fn source_digest(dir: &Path) -> String {
    let mut files = Vec::new();
    collect_files(dir, &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        if let Ok(rel) = f.strip_prefix(dir) {
            feed(rel.to_string_lossy().as_bytes());
        }
        feed(&std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_files(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}
