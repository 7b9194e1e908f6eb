//! omp4rs benchmark: three workloads, end-to-end metrics with tracing off,
//! per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload interp_numeric --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). The line before it
//! is the run's stamp. `perfbench/out/` receives the full record of each run,
//! spans included. See `perfbench/WORKLOADS.md` for what each workload and
//! metric is for.

mod host;
mod report;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use minipy::stats::InterpStats;
use omp4rs::ompt::{self, RegionMetrics};
use report::{median, ratio, Json, END_TO_END, PER_LAYER};
use trace::Tracer;
use workload::{Kind, Prepared, Reference, Size, FULL, TINY};

const USAGE: &str = "usage: perfbench --workload <interp_numeric|interp_objects|compiled_tasks> \
--seed <n> --seconds <n> --trace <0|1>\n       perfbench --self-test";

/// Set-up probes (fresh processes) per run; `setup_s` is their median.
const SETUP_PROBES: usize = 15;
/// Fewest measured rounds (one solve at each thread count per round).
const MIN_ROUNDS: usize = 5;
/// `peak_rss_mb` is read after this many rounds, a fixed count: some
/// workloads grow their resident set with every solve, and a count that
/// depends on host speed would make the peak depend on it too.
const RSS_ROUNDS: usize = MIN_ROUNDS;
/// Largest share of the set-up root span its child spans may leave
/// uncovered (median over the traced probes).
const SETUP_GAP_TOL: f64 = 0.05;
/// Largest share of a solve span its child spans may leave uncovered
/// (median over the traced solves).
const SOLVE_GAP_TOL: f64 = 0.05;
/// Largest relative difference between the summed solve spans and the
/// summed solve times of the benchmark's own timers.
const SOLVE_SUM_TOL: f64 = 0.02;
/// Per-thread OMPT ring capacity for traced solves, in events: a
/// `compiled_tasks` solve records about 100,000 events, more than the
/// default rings hold between flushes.
const TRACE_RING: usize = 1 << 16;

#[derive(Debug, Clone)]
struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    probe: bool,
}

impl Args {
    fn size(&self) -> Size {
        if self.tiny {
            TINY
        } else {
            FULL
        }
    }
}

enum Cmd {
    Run(Args),
    SelfTest,
}

fn parse_args(argv: &[String]) -> Result<Cmd, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut tiny = false;
    let mut probe = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Kind::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--tiny" => tiny = true,
            "--setup-probe" => probe = true,
            "--self-test" => return Ok(Cmd::SelfTest),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    // A set-up probe measures no window, so it takes no `--seconds`.
    let seconds = match (seconds, probe) {
        (Some(s), _) => s,
        (None, true) => 0.0,
        (None, false) => return Err("--seconds is required".to_owned()),
    };
    Ok(Cmd::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        tiny,
        probe,
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&argv) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let knobs = host::knobs();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to time with tuning knobs set (defaults are what is measured): {}",
            knobs
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        return ExitCode::from(3);
    }
    match cmd {
        Cmd::SelfTest => self_test(),
        Cmd::Run(args) if args.probe => {
            println!("{}", setup_probe(&args));
            ExitCode::SUCCESS
        }
        Cmd::Run(args) => match run(&args) {
            Ok(out) => {
                out.write_record(&args);
                println!("{{\"stamp\": {}}}", out.stamp);
                println!("{}", out.result_line());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

/// The checkout the benchmark was built in.
fn checkout_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits one directory below the checkout root")
        .to_path_buf()
}

// ---------------------------------------------------------------- set-up

/// One set-up probe: what a fresh process pays to get ready. Prints
/// `setup_s=<s>` plus, when traced, the front-end counts and
/// `span:<name>=<ns>` for every layer span.
fn setup_probe(args: &Args) -> String {
    let nproc = host::nproc();
    if !args.trace {
        let start = Instant::now();
        let prepared = workload::setup(args.workload, &args.size(), args.seed, nproc, None);
        let secs = start.elapsed().as_secs_f64();
        drop(prepared);
        return format!("setup_s={secs}");
    }
    let mut t = Tracer::default();
    t.begin("setup");
    let (prepared, counts) =
        workload::setup(args.workload, &args.size(), args.seed, nproc, Some(&mut t));
    let secs = t.end();
    drop(prepared);
    let mut line = format!(
        "setup_s={secs} tokens={} functions={} fallbacks={}",
        counts.tokens, counts.functions, counts.fallbacks
    );
    for s in t.spans() {
        line.push_str(&format!(" span:{}={}", s.name, s.dur_ns()));
    }
    line
}

/// A parsed set-up probe line.
#[derive(Debug, Default)]
struct Probe {
    setup_s: f64,
    fields: BTreeMap<String, f64>,
}

impl Probe {
    fn field(&self, key: &str) -> f64 {
        self.fields.get(key).copied().unwrap_or(0.0)
    }
}

fn spawn_probe(args: &Args, traced: bool) -> Result<Probe, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--setup-probe", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.tiny {
        cmd.arg("--tiny");
    }
    let out = cmd.output().map_err(|e| format!("set-up probe: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up probe failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    let mut probe = Probe::default();
    for tok in line.split_whitespace() {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| format!("bad probe field {tok:?}"))?;
        let v: f64 = v.parse().map_err(|e| format!("probe field {k}: {e}"))?;
        if k == "setup_s" {
            probe.setup_s = v;
        } else {
            probe.fields.insert(k.to_owned(), v);
        }
    }
    if probe.setup_s <= 0.0 {
        return Err(format!("probe printed no set-up time: {line:?}"));
    }
    Ok(probe)
}

/// Set-up probes spread over the measured window (one before a round when
/// its share of `--seconds` has passed), so they see the same host
/// conditions as the solves. Probes never overlap a solve.
struct Probes {
    untraced: Vec<f64>,
    traced: Vec<Probe>,
    with_traced: bool,
}

impl Probes {
    fn new(with_traced: bool) -> Probes {
        Probes {
            untraced: Vec::new(),
            traced: Vec::new(),
            with_traced,
        }
    }

    fn take(&mut self, args: &Args) -> Result<(), String> {
        self.untraced.push(spawn_probe(args, false)?.setup_s);
        if self.with_traced {
            self.traced.push(spawn_probe(args, true)?);
        }
        Ok(())
    }

    /// Take a probe if one is due `elapsed` seconds into the window.
    fn tick(&mut self, args: &Args, elapsed: f64) -> Result<(), String> {
        let done = self.untraced.len();
        if done < SETUP_PROBES && elapsed >= done as f64 * args.seconds / SETUP_PROBES as f64 {
            self.take(args)?;
        }
        Ok(())
    }

    /// Take the probes still missing when the window closes.
    fn finish(&mut self, args: &Args) -> Result<(), String> {
        while self.untraced.len() < SETUP_PROBES {
            self.take(args)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- solves

/// One untraced solve.
#[derive(Debug, Clone, Copy)]
struct Solve {
    wall: f64,
    cpu: f64,
    ok: bool,
}

fn timed_solve(prep: &Prepared, threads: usize, reference: &Reference) -> Solve {
    let cpu0 = host::process_cpu_s();
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| prep.solve(threads, None)));
    let wall = start.elapsed().as_secs_f64();
    let cpu = host::process_cpu_s() - cpu0;
    // The result is checked — and dropped — after the clocks stop.
    let ok = matches!(&out, Ok(Ok(raw)) if workload::check(raw, reference));
    Solve { wall, cpu, ok }
}

/// One traced solve: spans around the layer calls, interpreter counters,
/// pool and dependence counters, and the OMPT events of its regions.
struct TracedSolve {
    solve: Solve,
    span_s: f64,
    children_s: f64,
    vm: InterpStats,
    pool: [u64; 4],
    dep: [u64; 3],
    regions: Vec<RegionMetrics>,
    events: u64,
    dropped: u64,
}

fn stats_delta(a: &InterpStats, b: &InterpStats) -> InterpStats {
    InterpStats {
        gil_acquisitions: b.gil_acquisitions - a.gil_acquisitions,
        gil_hold_ns: b.gil_hold_ns - a.gil_hold_ns,
        obj_lock_acquisitions: b.obj_lock_acquisitions - a.obj_lock_acquisitions,
        obj_lock_contended: b.obj_lock_contended - a.obj_lock_contended,
        vm_compiles: b.vm_compiles - a.vm_compiles,
        vm_compile_ns: b.vm_compile_ns - a.vm_compile_ns,
        vm_fallbacks: b.vm_fallbacks - a.vm_fallbacks,
        vm_frames: b.vm_frames - a.vm_frames,
        vm_ops: b.vm_ops - a.vm_ops,
        quicken_rewrites: b.quicken_rewrites - a.quicken_rewrites,
        quicken_deopts: b.quicken_deopts - a.quicken_deopts,
        ic_hits: b.ic_hits - a.ic_hits,
        ic_misses: b.ic_misses - a.ic_misses,
    }
}

fn pool_counts() -> [u64; 4] {
    let p = omp4rs::pool::stats();
    [p.spawn, p.reuse, p.park, p.spin_exit]
}

fn dep_counts() -> [u64; 3] {
    let d = omp4rs::depgraph::counters();
    [d.edges, d.deferred, d.released]
}

fn diff<const N: usize>(a: [u64; N], b: [u64; N]) -> [u64; N] {
    std::array::from_fn(|i| b[i] - a[i])
}

fn traced_solve(
    prep: &Prepared,
    threads: usize,
    reference: &Reference,
    t: &mut Tracer,
) -> TracedSolve {
    ompt::reset();
    ompt::enable(ompt::ToolConfig {
        ring_capacity: TRACE_RING,
        ..ompt::ToolConfig::default()
    });
    minipy::stats::set_enabled(true);
    let (vm0, pool0, dep0) = (minipy::stats::snapshot(), pool_counts(), dep_counts());
    let depth = t.depth();
    t.begin("solve");
    let cpu0 = host::process_cpu_s();
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| prep.solve(threads, Some(&mut *t))));
    let wall = start.elapsed().as_secs_f64();
    let cpu = host::process_cpu_s() - cpu0;
    t.close_to(depth + 1);
    let span_s = t.end();
    let root = t.spans().last().expect("the solve span just closed").id;
    let children_s = t.children_ns(root) as f64 * 1e-9;
    let (vm1, pool1, dep1) = (minipy::stats::snapshot(), pool_counts(), dep_counts());
    minipy::stats::set_enabled(false);
    let events = ompt::events();
    let dropped = ompt::dropped_events();
    ompt::disable();
    let ok = matches!(&out, Ok(Ok(raw)) if workload::check(raw, reference));
    TracedSolve {
        solve: Solve { wall, cpu, ok },
        span_s,
        children_s,
        vm: stats_delta(&vm0, &vm1),
        pool: diff(pool0, pool1),
        dep: diff(dep0, dep1),
        regions: ompt::aggregate(&events)
            .into_iter()
            .filter(|r| r.region != 0)
            .collect(),
        events: events.len() as u64,
        dropped,
    }
}

// ---------------------------------------------------------------- runs

struct RunOutput {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    trace: bool,
    stamp: String,
    samples: String,
    spans: Option<String>,
}

impl RunOutput {
    fn result_line(&self) -> String {
        let registry = if self.trace { PER_LAYER } else { END_TO_END };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            report::metrics_json(registry, &self.metrics)
        )
    }

    fn write_record(&self, args: &Args) {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "{}-seed{}-trace{}.json",
            args.workload.name(),
            args.seed,
            u8::from(args.trace)
        ));
        let mut body = format!(
            "{{\"stamp\": {},\n\"result\": {},\n\"samples\": {}",
            self.stamp,
            self.result_line(),
            self.samples
        );
        if let Some(spans) = &self.spans {
            body.push_str(&format!(",\n\"spans\": {spans}"));
        }
        body.push_str("}\n");
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
}

/// Counts of checked solves.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

fn stamp(
    args: &Args,
    nproc: usize,
    ctx: u64,
    steal: (host::Ticks, host::Ticks),
    yardstick: (f64, f64),
) -> String {
    let root = checkout_root();
    let p = omp4rs_bench::calibrate::measure_primitives();
    let knobs: Vec<String> = host::knobs()
        .iter()
        .map(|(k, v)| format!("{}: {}", report::string(k), report::string(v)))
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
\"nproc\": {nproc}, \"threads\": [{nproc}, 1], \"commit\": {}, \"source_digest\": {}, \"date\": {}, \
\"knobs\": {{{}}}, \"steal_ticks\": {}, \"total_ticks\": {}, \"ctx_switches\": {ctx}, \
\"yardstick_s\": {}, \"yardstick_ref_s\": {}, \
\"primitives_ns\": {{\"mutex_claim\": {}, \"atomic_claim\": {}, \"barrier\": {}, \"task_round\": {}}}}}",
        report::string(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report::string(&host::commit(&root)),
        report::string(&host::source_digest(&root.join("crates"))),
        report::string(&host::utc_date()),
        knobs.join(", "),
        steal.1.steal - steal.0.steal,
        steal.1.total - steal.0.total,
        yardstick.0,
        yardstick.1,
        report::num(p.mutex_claim * 1e9),
        report::num(p.atomic_claim * 1e9),
        report::num(p.barrier * 1e9),
        report::num(p.task_round * 1e9),
    )
}

fn samples_json(series: &[(&str, &[f64])]) -> String {
    let fields: Vec<String> = series
        .iter()
        .map(|(name, v)| {
            let nums: Vec<String> = v.iter().map(|x| report::num(*x)).collect();
            format!("{}: [{}]", report::string(name), nums.join(", "))
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn run(args: &Args) -> Result<RunOutput, String> {
    if args.trace {
        run_traced(args)
    } else {
        run_plain(args)
    }
}

/// Thread counts of one round; the order alternates between rounds so
/// neither count always runs right after the other.
fn round_order(round: usize, nproc: usize) -> [usize; 2] {
    if round.is_multiple_of(2) {
        [nproc, 1]
    } else {
        [1, nproc]
    }
}

/// The end-to-end run: solves at `nproc` and at one thread, alternating,
/// for `--seconds`, with the set-up probes spread between rounds.
fn run_plain(args: &Args) -> Result<RunOutput, String> {
    let nproc = host::nproc();
    let mut probes = Probes::new(false);
    let mut yardstick = host::Yardstick::new();
    let mut yard_s = Vec::new();
    let (prep, _) = workload::setup(args.workload, &args.size(), args.seed, nproc, None);
    let reference = prep.reference();
    let mut tally = Tally::default();
    for threads in [nproc, 1] {
        tally.add(timed_solve(&prep, threads, &reference).ok);
    }
    let (mut wall_n, mut cpu_n, mut wall_1, mut cpu_1) = (vec![], vec![], vec![], vec![]);
    let (ticks0, usage0) = (host::ticks(), host::usage());
    let start = Instant::now();
    let mut round = 0;
    let mut peak_rss_kib = 0;
    while round < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        probes.tick(args, start.elapsed().as_secs_f64())?;
        yard_s.push(yardstick.measure());
        for threads in round_order(round, nproc) {
            let s = timed_solve(&prep, threads, &reference);
            tally.add(s.ok);
            if threads == nproc {
                wall_n.push(s.wall);
                cpu_n.push(s.cpu);
            } else {
                wall_1.push(s.wall);
                cpu_1.push(s.cpu);
            }
        }
        round += 1;
        if round == RSS_ROUNDS {
            peak_rss_kib = host::usage().max_rss_kib;
        }
    }
    let (ticks1, usage1) = (host::ticks(), host::usage());
    probes.finish(args)?;
    let setups = probes.untraced;
    // Host-scaled timings are reported in reference-host seconds (see
    // `Yardstick`).
    let scale = host::Yardstick::REFERENCE_S / median(&yard_s);
    let mut m = BTreeMap::new();
    for (name, samples) in [
        ("wall_s", &wall_n),
        ("cpu_s", &cpu_n),
        ("cpu_1t_s", &cpu_1),
        ("setup_s", &setups),
    ] {
        let factor = if args.workload.host_scaled(name) {
            scale
        } else {
            1.0
        };
        m.insert(name, median(samples) * factor);
    }
    m.insert("peak_rss_mb", peak_rss_kib as f64 / 1024.0);
    m.insert(
        "pass_ratio",
        (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
    );
    Ok(RunOutput {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
        trace: false,
        stamp: stamp(
            args,
            nproc,
            usage1.ctx_switches - usage0.ctx_switches,
            (ticks0, ticks1),
            (median(&yard_s), host::Yardstick::REFERENCE_S),
        ),
        samples: samples_json(&[
            ("wall_s", &wall_n),
            ("cpu_s", &cpu_n),
            ("wall_1t_s", &wall_1),
            ("cpu_1t_s", &cpu_1),
            ("setup_s", &setups),
            ("yardstick_s", &yard_s),
        ]),
        spans: None,
    })
}

/// Sums over the traced solves at one thread count.
#[derive(Default)]
struct LayerSums {
    vm: Vec<InterpStats>,
    pool: [u64; 4],
    dep: [u64; 3],
    regions: u64,
    chunks: u64,
    solve_chunks: Vec<u64>,
    imbalance: Vec<f64>,
    thread_ns: f64,
    barrier_wait_ns: f64,
    drain_ns: f64,
    lock_acquires: u64,
    lock_contended: u64,
    tasks: u64,
    steals: u64,
    events: u64,
    dropped: u64,
    wall: Vec<f64>,
    span_sum: f64,
    gaps: Vec<f64>,
}

impl LayerSums {
    fn add(&mut self, s: &TracedSolve) {
        self.vm.push(s.vm);
        for i in 0..4 {
            self.pool[i] += s.pool[i];
        }
        for i in 0..3 {
            self.dep[i] += s.dep[i];
        }
        self.solve_chunks
            .push(s.regions.iter().map(|r| r.chunks).sum());
        for r in &s.regions {
            self.regions += 1;
            self.chunks += r.chunks;
            if r.chunks > 0 {
                self.imbalance.push(r.imbalance);
            }
            self.thread_ns += r.span_ns as f64 * r.threads as f64;
            self.barrier_wait_ns += r.barrier_wait_ns.saturating_sub(r.barrier_drain_ns) as f64;
            self.drain_ns += r.barrier_drain_ns as f64;
            self.lock_acquires += r.lock_acquires;
            self.lock_contended += r.lock_contended;
            self.tasks += r.tasks_created;
            self.steals += r.task_steals;
        }
        self.events += s.events;
        self.dropped = self.dropped.max(s.dropped);
        self.wall.push(s.solve.wall);
        self.span_sum += s.span_s;
        self.gaps.push(ratio(s.span_s - s.children_s, s.span_s));
    }

    fn per_solve(&self, total: u64) -> f64 {
        ratio(total as f64, self.wall.len() as f64)
    }

    fn ops(&self) -> Vec<u64> {
        self.vm.iter().map(|v| v.vm_ops).collect()
    }

    fn vm_total(&self, f: impl Fn(&InterpStats) -> u64) -> u64 {
        self.vm.iter().map(f).sum()
    }
}

/// The traced run: rounds that pair each untraced solve with a traced one,
/// so tracing overhead is measured in the same run, and set-up probes —
/// untraced and traced layer by layer — spread between rounds.
fn run_traced(args: &Args) -> Result<RunOutput, String> {
    let nproc = host::nproc();
    let mut schedule = Probes::new(true);
    let mut yardstick = host::Yardstick::new();
    let mut yard_s = Vec::new();
    let mut t = Tracer::default();
    minipy::stats::set_enabled(true);
    let vm_setup0 = minipy::stats::snapshot();
    t.begin("setup");
    let (prep, _) = workload::setup(args.workload, &args.size(), args.seed, nproc, Some(&mut t));
    t.end();
    let vm_setup = stats_delta(&vm_setup0, &minipy::stats::snapshot());
    minipy::stats::set_enabled(false);
    let reference = prep.reference();
    let mut tally = Tally::default();
    for threads in [nproc, 1] {
        tally.add(timed_solve(&prep, threads, &reference).ok);
    }

    let (mut plain_n, mut plain_1) = (Vec::new(), Vec::new());
    let (mut traced_n, mut traced_1) = (LayerSums::default(), LayerSums::default());
    let (ticks0, usage0) = (host::ticks(), host::usage());
    let start = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        schedule.tick(args, start.elapsed().as_secs_f64())?;
        yard_s.push(yardstick.measure());
        for threads in round_order(round, nproc) {
            let plain = timed_solve(&prep, threads, &reference);
            tally.add(plain.ok);
            let traced = traced_solve(&prep, threads, &reference, &mut t);
            tally.add(traced.solve.ok);
            if threads == nproc {
                plain_n.push(plain);
                traced_n.add(&traced);
            } else {
                plain_1.push(plain);
                traced_1.add(&traced);
            }
        }
        round += 1;
    }
    let (ticks1, usage1) = (host::ticks(), host::usage());
    schedule.finish(args)?;
    let (untraced_setups, probes) = (schedule.untraced, schedule.traced);
    let solves = (plain_n.len() + plain_1.len()) as f64 * 2.0;

    // ---- invariants: fail loudly.
    let mut broken = Vec::new();
    for (sums, threads) in [(&traced_1, 1), (&traced_n, nproc)] {
        if !args.workload.ops_repeat(threads) {
            continue;
        }
        // Each chunk runs a few loop-setup ops, and the adaptive scheduler
        // may re-chunk a loop between solves: the input and the chunk count
        // together fix the count.
        let mut by_chunks: BTreeMap<u64, u64> = BTreeMap::new();
        for (&ops, &chunks) in sums.ops().iter().zip(&sums.solve_chunks) {
            let first = *by_chunks.entry(chunks).or_insert(ops);
            if first != ops {
                broken.push(format!(
                    "minipy.vm.ops differs across solves at {threads} thread(s) with {chunks} \
                     chunks: {first} then {ops}"
                ));
            }
        }
    }
    let all_vm: Vec<&InterpStats> = traced_n.vm.iter().chain(&traced_1.vm).collect();
    let rewrites =
        vm_setup.quicken_rewrites + all_vm.iter().map(|v| v.quicken_rewrites).sum::<u64>();
    let deopts = vm_setup.quicken_deopts + all_vm.iter().map(|v| v.quicken_deopts).sum::<u64>();
    if deopts > rewrites {
        broken.push(format!("quicken.deopts {deopts} > rewrites {rewrites}"));
    }
    let gil = vm_setup.gil_acquisitions + all_vm.iter().map(|v| v.gil_acquisitions).sum::<u64>();
    if gil != 0 {
        broken.push(format!("minipy.gil.acquisitions is {gil}, not 0"));
    }
    for sums in [&traced_n, &traced_1] {
        if sums.dep[1] != sums.dep[2] {
            broken.push(format!(
                "depgraph.deferred {} != released {}",
                sums.dep[1], sums.dep[2]
            ));
        }
    }

    // ---- closure.
    let setup_gaps: Vec<f64> = probes
        .iter()
        .map(|p| {
            let children: f64 = p
                .fields
                .iter()
                .filter(|(k, _)| k.starts_with("span:") && *k != "span:setup")
                .map(|(_, v)| v * 1e-9)
                .sum();
            (p.setup_s - children) / p.setup_s
        })
        .collect();
    let setup_gap = median(&setup_gaps);
    if setup_gap > SETUP_GAP_TOL {
        broken.push(format!(
            "set-up spans leave {:.1}% of set-up uncovered (tolerance {:.0}%)",
            setup_gap * 100.0,
            SETUP_GAP_TOL * 100.0
        ));
    }
    let traced_setup = median(&probes.iter().map(|p| p.setup_s).collect::<Vec<_>>());
    let setup_s = median(&untraced_setups);
    // Reported, not checked: the two medians come from different processes,
    // and a busy shared host moves millisecond set-ups by several times.
    let setup_ratio = traced_setup / setup_s;
    let solve_gap = median(&[traced_n.gaps.as_slice(), &traced_1.gaps].concat());
    if solve_gap > SOLVE_GAP_TOL {
        broken.push(format!(
            "solve spans leave {:.1}% of a solve uncovered (tolerance {:.0}%)",
            solve_gap * 100.0,
            SOLVE_GAP_TOL * 100.0
        ));
    }
    let span_sum = traced_n.span_sum + traced_1.span_sum;
    let wall_sum: f64 = traced_n.wall.iter().chain(&traced_1.wall).sum();
    let solve_sum_ratio = span_sum / wall_sum;
    if (solve_sum_ratio - 1.0).abs() > SOLVE_SUM_TOL {
        broken.push(format!(
            "solve spans sum to {span_sum:.4}s, solve timers to {wall_sum:.4}s"
        ));
    }
    for b in &broken {
        eprintln!("perfbench: invariant broken: {b}");
    }

    // ---- metrics.
    let probe_median = |key: &str| median(&probes.iter().map(|p| p.field(key)).collect::<Vec<_>>());
    let span_s = |name: &str| probe_median(&format!("span:{name}")) * 1e-9;
    let ops_1 = median(&traced_1.ops().iter().map(|&o| o as f64).collect::<Vec<_>>());
    let ops_n = median(&traced_n.ops().iter().map(|&o| o as f64).collect::<Vec<_>>());
    let wall = |v: &[Solve]| median(&v.iter().map(|s| s.wall).collect::<Vec<_>>());
    let cpu = |v: &[Solve]| median(&v.iter().map(|s| s.cpu).collect::<Vec<_>>());
    let (wall_n, wall_1) = (wall(&plain_n), wall(&plain_1));
    let ns_per_op = ratio(cpu(&plain_n) * 1e9, ops_n);
    let ns_per_op_1t = ratio(cpu(&plain_1) * 1e9, ops_1);
    let n = &traced_n;
    let hits = n.vm_total(|v| v.ic_hits);
    let misses = n.vm_total(|v| v.ic_misses);
    let speedup = wall_1 / wall_n;

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("pyfront.bridge.install_s", span_s("pyfront.bridge.install"));
    m.insert("minipy.lexer.s", span_s("minipy.lexer"));
    m.insert("minipy.lexer.tokens", probe_median("tokens"));
    m.insert("minipy.parser.s", span_s("minipy.parser"));
    m.insert("pyfront.transform.s", span_s("pyfront.transform"));
    m.insert("pyfront.transform.functions", probe_median("functions"));
    m.insert(
        "minipy.bytecode.compile.s",
        span_s("minipy.bytecode.compile"),
    );
    m.insert(
        "minipy.bytecode.compile.fallbacks",
        probe_median("fallbacks"),
    );
    m.insert("minipy.interp.module_s", span_s("minipy.interp.module"));
    m.insert("apps.input.s", span_s("apps.input"));
    m.insert("core.pool.cold_region_s", span_s("core.pool.cold_region"));

    m.insert("minipy.vm.ops", ops_1);
    m.insert("minipy.vm.ns_per_op_1t", ns_per_op_1t);
    m.insert("minipy.vm.ns_per_op", ns_per_op);
    m.insert("minipy.vm.contention", ratio(ns_per_op, ns_per_op_1t));
    m.insert("minipy.vm.quicken.rewrites", rewrites as f64);
    m.insert("minipy.vm.quicken.deopts", deopts as f64);
    m.insert(
        "minipy.vm.ic.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    m.insert("minipy.vm.frames", n.per_solve(n.vm_total(|v| v.vm_frames)));
    m.insert(
        "minipy.vm.fallbacks",
        (vm_setup.vm_fallbacks + all_vm.iter().map(|v| v.vm_fallbacks).sum::<u64>()) as f64,
    );
    let acq = n.vm_total(|v| v.obj_lock_acquisitions);
    m.insert("minipy.obj_lock.acquisitions", n.per_solve(acq));
    m.insert(
        "minipy.obj_lock.contended_ratio",
        ratio(n.vm_total(|v| v.obj_lock_contended) as f64, acq as f64),
    );
    m.insert("minipy.gil.acquisitions", gil as f64);

    m.insert("core.team.regions", n.per_solve(n.regions));
    m.insert("core.pool.spawn", n.per_solve(n.pool[0]));
    m.insert("core.pool.reuse", n.per_solve(n.pool[1]));
    m.insert("core.pool.park", n.per_solve(n.pool[2]));
    m.insert("core.pool.spin_exit", n.per_solve(n.pool[3]));
    m.insert("core.worksharing.chunks", n.per_solve(n.chunks));
    m.insert(
        "core.worksharing.imbalance",
        if n.imbalance.is_empty() {
            0.0
        } else {
            median(&n.imbalance)
        },
    );
    m.insert(
        "core.sync.barrier_wait_share",
        ratio(n.barrier_wait_ns, n.thread_ns),
    );
    m.insert(
        "core.sync.lock_contended_ratio",
        ratio(n.lock_contended as f64, n.lock_acquires as f64),
    );
    m.insert("core.tasks.created", n.per_solve(n.tasks));
    m.insert("core.tasks.stolen", n.per_solve(n.steals));
    m.insert("core.tasks.drain_share", ratio(n.drain_ns, n.thread_ns));
    m.insert(
        "core.tasks.us_per_task",
        ratio(n.thread_ns * 1e-3, n.tasks as f64),
    );
    m.insert("core.depgraph.edges", n.per_solve(n.dep[0]));
    m.insert("core.depgraph.deferred", n.per_solve(n.dep[1]));
    m.insert("core.depgraph.released", n.per_solve(n.dep[2]));
    m.insert("core.ompt.overhead", median(&n.wall) / wall_n);
    m.insert("core.ompt.events", n.per_solve(n.events));
    m.insert("core.ompt.dropped", n.dropped.max(traced_1.dropped) as f64);

    m.insert("scaling.wall_1t_s", wall_1);
    m.insert("scaling.speedup", speedup);
    m.insert("scaling.efficiency", speedup / nproc as f64);
    m.insert("host.steal_share", host::steal_share(ticks0, ticks1));
    m.insert("host.yardstick_s", median(&yard_s));
    m.insert(
        "host.ctx_switches",
        (usage1.ctx_switches - usage0.ctx_switches) as f64 / solves,
    );

    m.insert("trace.setup_s", traced_setup);
    m.insert("trace.setup_gap", setup_gap);
    m.insert("trace.setup_ratio", setup_ratio);
    m.insert("trace.solve_gap", solve_gap);
    m.insert("trace.solve_sum_ratio", solve_sum_ratio);

    let pick = |v: &[Solve], f: fn(&Solve) -> f64| v.iter().map(f).collect::<Vec<f64>>();
    Ok(RunOutput {
        correct: tally.failed == 0 && broken.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
        trace: true,
        stamp: stamp(
            args,
            nproc,
            usage1.ctx_switches - usage0.ctx_switches,
            (ticks0, ticks1),
            (median(&yard_s), host::Yardstick::REFERENCE_S),
        ),
        samples: samples_json(&[
            ("wall_s", &pick(&plain_n, |s| s.wall)),
            ("wall_1t_s", &pick(&plain_1, |s| s.wall)),
            ("traced_wall_s", &traced_n.wall),
            ("traced_wall_1t_s", &traced_1.wall),
            ("setup_s", &untraced_setups),
            (
                "traced_setup_s",
                &probes.iter().map(|p| p.setup_s).collect::<Vec<_>>(),
            ),
            ("setup_gap", &setup_gaps),
            ("yardstick_s", &yard_s),
        ]),
        spans: Some(t.to_json()),
    })
}

// ---------------------------------------------------------------- self-test

/// Tiny runs of every workload, traced and not, checking that every metric
/// is printed with its unit, that the names match `BENCHMARK.json`, and that
/// a wrong reference is counted as a failure.
fn self_test() -> ExitCode {
    let mut problems = Vec::new();
    let bench = std::fs::read_to_string(checkout_root().join("BENCHMARK.json"))
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text));
    match &bench {
        Ok(b) => problems.extend(check_definition(b)),
        Err(e) => problems.push(format!("BENCHMARK.json: {e}")),
    }
    for kind in Kind::ALL {
        for trace in [false, true] {
            let args = Args {
                workload: kind,
                seed: 7,
                seconds: 0.2,
                trace,
                tiny: true,
                probe: false,
            };
            match run(&args) {
                Ok(out) => {
                    let registry = if trace { PER_LAYER } else { END_TO_END };
                    problems.extend(check_result_line(&out.result_line(), registry));
                    if !out.correct {
                        problems.push(format!("{} trace={trace}: run not correct", kind.name()));
                    }
                    eprintln!(
                        "self-test: {} trace={trace}: {}",
                        kind.name(),
                        out.result_line()
                    );
                }
                Err(e) => problems.push(format!("{} trace={trace}: {e}", kind.name())),
            }
        }
        // Anti-vacuity: a wrong reference must count as a failed solve.
        let nproc = host::nproc();
        let (prep, _) = workload::setup(kind, &TINY, 7, nproc, None);
        let wrong = workload::spoil(&prep.reference());
        let mut tally = Tally::default();
        tally.add(timed_solve(&prep, nproc, &wrong).ok);
        if tally.failed != 1 {
            problems.push(format!(
                "{}: a wrong reference was not counted as a failure",
                kind.name()
            ));
        }
    }
    if problems.is_empty() {
        println!("self-test ok: 3 workloads x 2 modes, every metric printed with its unit");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("self-test: {p}");
        }
        ExitCode::FAILURE
    }
}

/// The printed result line: keys, counts, and every registered metric with
/// its unit.
fn check_result_line(line: &str, registry: &[(&str, &str)]) -> Vec<String> {
    let json = match Json::parse(line) {
        Ok(j) => j,
        Err(e) => return vec![format!("result line is not JSON: {e}")],
    };
    let mut problems = Vec::new();
    if let Json::Obj(fields) = &json {
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        if keys != ["correct", "attempted", "failed", "metrics"] {
            problems.push(format!("result keys are {keys:?}"));
        }
    }
    let Some(Json::Obj(metrics)) = json.get("metrics") else {
        return vec!["result line has no metrics object".to_owned()];
    };
    if metrics.len() != registry.len() {
        problems.push(format!(
            "{} metrics printed, {} registered",
            metrics.len(),
            registry.len()
        ));
    }
    for (name, unit) in registry {
        let m = json.get("metrics").and_then(|m| m.get(name));
        let printed_unit = m.and_then(|m| m.get("unit")).and_then(Json::as_str);
        let value = m.and_then(|m| m.get("value"));
        if printed_unit != Some(unit) || !matches!(value, Some(Json::Num(_))) {
            problems.push(format!("metric {name} not printed as a number in {unit}"));
        }
    }
    problems
}

/// `BENCHMARK.json` names exactly the workloads and metrics the benchmark
/// prints, with the same units.
fn check_definition(bench: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let names = |key: &str| -> Vec<(String, String)> {
        match bench.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|i| {
                    let field = |f| i.get(f).and_then(Json::as_str).unwrap_or("").to_owned();
                    (field("name"), field("unit"))
                })
                .collect(),
            _ => Vec::new(),
        }
    };
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    if workloads != ours {
        problems.push(format!(
            "BENCHMARK.json workloads {workloads:?} != {ours:?}"
        ));
    }
    for (key, registry) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared = names(key);
        let printed: Vec<(String, String)> = registry
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        if declared != printed {
            problems.push(format!(
                "BENCHMARK.json {key} does not match the printed metrics: \
                 declared {declared:?}, printed {printed:?}"
            ));
        }
    }
    problems
}
