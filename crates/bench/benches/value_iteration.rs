//! Criterion bench: dynamic-programming solve throughput (CLAIM-VI-TIME).
//!
//! Covers the toy 2-D model (value iteration to convergence) and the
//! 3-D vertical-logic model at several resolutions, solved both by the
//! generic backward induction and by the factored `LogicTable::solve`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use uavca_acasx::{AcasConfig, LogicTable, VerticalMdp};
use uavca_ca2d::{build_mdp, Ca2dConfig};
use uavca_mdp::{BackwardInduction, SweepOrder, ValueIteration};

fn bench_toy_value_iteration(c: &mut Criterion) {
    let mut group = c.benchmark_group("toy_2d_value_iteration");
    for (label, y, x) in [("paper_7x10x7", 3, 9), ("double_13x19x13", 6, 18)] {
        let config = Ca2dConfig {
            y_extent: y,
            x_extent: x,
            ..Ca2dConfig::default()
        };
        let mdp = build_mdp(&config).expect("model builds");
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                ValueIteration::new()
                    .tolerance(1e-6)
                    .skip_validation()
                    .solve(&mdp)
                    .expect("converges")
            })
        });
    }
    group.finish();
}

fn bench_toy_gauss_seidel(c: &mut Criterion) {
    let mdp = build_mdp(&Ca2dConfig::default()).expect("model builds");
    c.bench_function("toy_2d_gauss_seidel", |b| {
        b.iter(|| {
            ValueIteration::new()
                .tolerance(1e-6)
                .sweep_order(SweepOrder::GaussSeidel)
                .skip_validation()
                .solve(&mdp)
                .expect("converges")
        })
    });
}

/// The vertical-logic configurations both solvers are timed on.
fn acasx_configs() -> [(&'static str, AcasConfig); 2] {
    [
        ("coarse", AcasConfig::coarse()),
        // bench a 5-stage slice of the default model, not the whole horizon
        (
            "default_5stages",
            AcasConfig {
                tau_max_s: 5,
                ..AcasConfig::default()
            },
        ),
    ]
}

fn bench_acasx_backward_stage(c: &mut Criterion) {
    let mut group = c.benchmark_group("acasx_backward_induction");
    group.sample_size(10);
    for (label, config) in acasx_configs() {
        let model = VerticalMdp::new(config.clone());
        let terminal = model.terminal_values();
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                BackwardInduction::new()
                    .solve(&model, config.num_stages(), terminal.clone())
                    .expect("solves")
            })
        });
    }
    group.finish();
}

/// The factored solve `LogicTable::solve` on the same configurations as
/// the generic `acasx_backward_induction` cases, so the two read side by
/// side.
fn bench_acasx_table_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("acasx_table_solve");
    group.sample_size(10);
    for (label, config) in acasx_configs() {
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| LogicTable::solve(&config))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_toy_value_iteration,
    bench_toy_gauss_seidel,
    bench_acasx_backward_stage,
    bench_acasx_table_solve
);
criterion_main!(benches);
