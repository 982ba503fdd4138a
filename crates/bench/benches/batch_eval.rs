//! Criterion bench: the fitness-evaluation inner loop — 100 stochastic
//! runs of one scenario, with fresh avoiders per run, serial with avoider
//! reuse, and batched across the shared worker pool. Results are
//! bit-identical across thread counts by construction; this bench exists
//! to show the wall-clock gap.

use criterion::{criterion_group, criterion_main, Criterion};

fn bench_repeated_runs(c: &mut Criterion) {
    use uavca_encounter::EncounterParams;
    use uavca_exec::Executor;
    use uavca_validation::BatchRunner;

    let runner = uavca_bench::coarse_runner();
    let params = EncounterParams::tail_approach_template();
    let equipage = runner.current_equipage();
    let mut group = c.benchmark_group("run_repeated_100");
    group.sample_size(10);
    // The pre-engine hot loop: two boxed avoiders + a world per run.
    group.bench_function("fresh_allocations_per_run", |b| {
        b.iter(|| {
            (0..100)
                .map(|k| runner.run_once_with(&params, k, equipage))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("serial_reused_avoiders", |b| {
        b.iter(|| runner.run_repeated(&params, 100, 0))
    });
    group.bench_function("batched_hardware_threads", |b| {
        let batch = BatchRunner::new(runner.clone(), Executor::default());
        b.iter(|| batch.run_repeated(&params, 100, 0))
    });
    group.finish();
}

criterion_group!(benches, bench_repeated_runs);
criterion_main!(benches);
