//! Criterion microbenchmarks of the runtime primitives — the ablation axis
//! of the paper's dual-runtime design (§III): mutex- vs atomics-backed
//! counters, events, task queues, plus barrier and directive-parse costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use omp4rs::directive::Directive;
use omp4rs::sync::{Backend, ClaimFlag, OmpEvent, SharedCounter, WorkBag};
use omp4rs::Team;

fn bench_counters(c: &mut Criterion) {
    let mut group = c.benchmark_group("counter_fetch_add");
    for backend in [Backend::Mutex, Backend::Atomic] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{backend:?}")),
            &backend,
            |b, &backend| {
                let counter = SharedCounter::new(backend);
                b.iter(|| std::hint::black_box(counter.fetch_add(1)));
            },
        );
    }
    group.finish();
}

fn bench_claim_flags(c: &mut Criterion) {
    let mut group = c.benchmark_group("single_claim");
    for backend in [Backend::Mutex, Backend::Atomic] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{backend:?}")),
            &backend,
            |b, &backend| {
                b.iter_batched(
                    || ClaimFlag::new(backend),
                    |flag| std::hint::black_box(flag.try_claim()),
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

fn bench_events(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_set_and_check");
    for backend in [Backend::Mutex, Backend::Atomic] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{backend:?}")),
            &backend,
            |b, &backend| {
                b.iter_batched(
                    || OmpEvent::new(backend),
                    |event| {
                        event.set();
                        std::hint::black_box(event.is_set())
                    },
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

fn bench_task_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("task_submit_and_run");
    for backend in [Backend::Mutex, Backend::Atomic] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{backend:?}")),
            &backend,
            |b, &backend| {
                // Time the queue itself: a one-thread team would run the
                // task at once, included, with no task node.
                let team = Team::new(1, backend);
                let queue = team.tasks();
                b.iter(|| {
                    queue.submit(|| std::hint::black_box(()));
                    while queue.run_one() {}
                });
            },
        );
    }
    group.finish();
}

fn bench_work_bag(c: &mut Criterion) {
    let mut group = c.benchmark_group("work_bag_push_pop");
    for backend in [Backend::Mutex, Backend::Atomic] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{backend:?}")),
            &backend,
            |b, &backend| {
                let bag: WorkBag<u64> = WorkBag::new(backend);
                b.iter(|| {
                    bag.push(1);
                    std::hint::black_box(bag.pop())
                });
            },
        );
    }
    group.finish();
}

fn bench_barrier(c: &mut Criterion) {
    let mut group = c.benchmark_group("barrier_single_thread");
    for backend in [Backend::Mutex, Backend::Atomic] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{backend:?}")),
            &backend,
            |b, &backend| {
                let team = Team::new(1, backend);
                b.iter(|| team.barrier());
            },
        );
    }
    group.finish();
}

fn bench_directive_parse(c: &mut Criterion) {
    // The transform-time cost of the paper's parser front half.
    let mut group = c.benchmark_group("directive_parse");
    for text in [
        "parallel",
        "parallel for reduction(+:pi_value) num_threads(4)",
        "for schedule(dynamic, 300) nowait ordered collapse(2)",
        "task if(depth < 4) firstprivate(a, b, c) final(n < 2)",
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(text), &text, |b, text| {
            b.iter(|| Directive::parse(std::hint::black_box(text)).expect("valid"));
        });
    }
    group.finish();
}

fn bench_interpreter_statement(c: &mut Criterion) {
    // The Pure-mode overhead unit: one interpreted arithmetic statement.
    let interp = minipy::Interp::new();
    interp
        .run("def f(n):\n    acc = 0.0\n    for i in range(n):\n        acc += i * 0.5\n    return acc\n")
        .expect("program loads");
    let f = interp.get_global("f").expect("f defined");
    c.bench_function("interpreted_loop_1000_iters", |b| {
        b.iter(|| {
            interp
                .call(&f, vec![minipy::Value::Int(1000)])
                .expect("runs")
        });
    });
}

criterion_group!(
    name = primitives;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets =
        bench_counters,
        bench_claim_flags,
        bench_events,
        bench_task_queue,
        bench_work_bag,
        bench_barrier,
        bench_directive_parse,
        bench_interpreter_statement
);
criterion_main!(primitives);
