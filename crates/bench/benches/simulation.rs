//! Criterion bench: encounter simulation throughput (the denominator of
//! every search and Monte-Carlo budget; paper footnote 5's ~300 s search
//! is dominated by simulation time).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use uavca_acasx::{AcasConfig, LogicTable};
use uavca_encounter::EncounterParams;
use uavca_validation::{BatchRunner, EncounterRunner, Equipage};

fn table() -> Arc<LogicTable> {
    Arc::new(LogicTable::solve(&AcasConfig::coarse()))
}

fn bench_single_run(c: &mut Criterion) {
    let runner = EncounterRunner::new(table());
    let params = EncounterParams::head_on_template();
    c.bench_function("encounter_run_equipped_100s", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            runner.run_once(&params, seed)
        })
    });
}

fn bench_unequipped_run(c: &mut Criterion) {
    let runner = EncounterRunner::new(table()).equipage(Equipage::Neither);
    let params = EncounterParams::head_on_template();
    c.bench_function("encounter_run_unequipped_100s", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            runner.run_once(&params, seed)
        })
    });
}

fn bench_paper_evaluation(c: &mut Criterion) {
    // One fitness evaluation at paper scale = 100 stochastic runs.
    let runner = EncounterRunner::new(table());
    let params = EncounterParams::tail_approach_template();
    let mut group = c.benchmark_group("fitness_evaluation");
    group.sample_size(10);
    group.bench_function("100_runs_per_encounter", |b| {
        b.iter(|| runner.run_repeated(&params, 100, 0))
    });
    group.finish();
}

fn bench_serial_batch(c: &mut Criterion) {
    // A 64-job batch through `BatchRunner::run_batch` on the serial
    // backend, so the number measures the per-job path (warm-world reuse
    // included), not thread scheduling.
    let params = EncounterParams::head_on_template();
    let mut group = c.benchmark_group("serial_batch");
    group.sample_size(10);
    for (label, equipage) in [
        ("scalar_batch_64", Equipage::Both),
        ("scalar_unequipped_64", Equipage::Neither),
    ] {
        let jobs = BatchRunner::repeated_jobs(&params, equipage, 64, 0);
        let batch = BatchRunner::serial(EncounterRunner::new(table()));
        group.bench_function(label, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                // Fresh seeds per iteration so no run replays a
                // trajectory.
                seed = seed.wrapping_add(jobs.len() as u64);
                let shifted: Vec<_> = jobs
                    .iter()
                    .map(|j| uavca_validation::SimJob {
                        seed: j.seed.wrapping_add(seed),
                        ..*j
                    })
                    .collect();
                batch.run_batch(&shifted)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_single_run,
    bench_unequipped_run,
    bench_paper_evaluation,
    bench_serial_batch
);
criterion_main!(benches);
