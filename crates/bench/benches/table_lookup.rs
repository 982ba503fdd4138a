//! Criterion bench: online logic-table lookups — the per-decision cost of
//! the deployed system (multilinear interpolation over the kinematic grid
//! plus τ blending, then masked argmax).
//!
//! The `*_scalar_256` cases run 256 varied queries per iteration, so
//! dividing by 256 gives the per-lookup cost over a spread of grid cells.
//! Recorded runs live in `BENCH_table_lookup.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use uavca_acasx::{AcasConfig, Advisory, LogicTable};

/// Query-set size: roughly one Monte-Carlo campaign tick's worth of
/// per-aircraft decisions.
const BATCH: usize = 256;

/// A deterministic query set covering the grid box, τ range and all
/// previous advisories.
struct QuerySet {
    h: Vec<f64>,
    own: Vec<f64>,
    intr: Vec<f64>,
    tau: Vec<f64>,
    prev: Vec<Advisory>,
}

fn query_set() -> QuerySet {
    QuerySet {
        h: (0..BATCH)
            .map(|i| (i % 200) as f64 * 10.0 - 1000.0)
            .collect(),
        own: (0..BATCH).map(|i| (i % 17) as f64 - 8.0).collect(),
        intr: (0..BATCH).map(|i| 8.0 - (i % 19) as f64).collect(),
        tau: (0..BATCH).map(|i| (i % 12) as f64 + 0.5).collect(),
        prev: (0..BATCH)
            .map(|i| Advisory::from_index(i % Advisory::COUNT))
            .collect(),
    }
}

fn bench_q_lookup(c: &mut Criterion) {
    let table = LogicTable::solve(&AcasConfig::coarse());
    c.bench_function("logic_table_q_values", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let h = ((i % 200) as f64) * 10.0 - 1000.0;
            let tau = (i % 12) as f64 + 0.5;
            table.q_values(h, 5.0, -8.0, tau, Advisory::Coc)
        })
    });
}

fn bench_best_advisory(c: &mut Criterion) {
    let table = LogicTable::solve(&AcasConfig::coarse());
    c.bench_function("logic_table_best_advisory_masked", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let h = ((i % 200) as f64) * 10.0 - 1000.0;
            table.best_advisory(
                h,
                5.0,
                -8.0,
                6.5,
                Advisory::Cl1500,
                Some(uavca_sim::Sense::Down),
                3.0,
            )
        })
    });
}

fn bench_interp_weights(c: &mut Criterion) {
    // The raw 3-D interpolation kernel.
    let grid = AcasConfig::default().build_grid();
    c.bench_function("grid_interp_weights_3d", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let h = ((i % 300) as f64) * 7.0 - 1000.0;
            grid.interp_weights(&[h, 3.3, -12.7]).expect("3-D query")
        })
    });
}

fn bench_query_set(c: &mut Criterion) {
    let table = LogicTable::solve(&AcasConfig::coarse());
    let QuerySet {
        h,
        own,
        intr,
        tau,
        prev,
    } = query_set();

    c.bench_function("logic_table_q_values_scalar_256", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..BATCH {
                acc += table.q_values(h[i], own[i], intr[i], tau[i], prev[i])[0];
            }
            black_box(acc)
        })
    });

    c.bench_function("logic_table_best_advisory_scalar_256", |b| {
        b.iter(|| {
            let mut alerts = 0usize;
            for i in 0..BATCH {
                let adv = table.best_advisory(h[i], own[i], intr[i], tau[i], prev[i], None, 3.0);
                alerts += usize::from(adv.is_alert());
            }
            black_box(alerts)
        })
    });
}

criterion_group!(
    benches,
    bench_q_lookup,
    bench_best_advisory,
    bench_interp_weights,
    bench_query_set
);
criterion_main!(benches);
