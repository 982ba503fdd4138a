//! Shared helpers for the experiment binaries (see DESIGN.md's experiment
//! index and EXPERIMENTS.md for recorded outputs).
//!
//! Every binary accepts `--full` to run at paper scale (population 200 ×
//! 5 generations × 100 runs/eval, full-resolution logic table); the
//! default is a fast smoke scale with identical structure.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![allow(clippy::disallowed_methods, reason = "a harness reads the wall clock")]
use std::sync::Arc;

use uavca_acasx::{AcasConfig, LogicTable};
use uavca_validation::EncounterRunner;

/// Whether `--full` was passed: run at paper scale.
pub fn full_scale() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Parses `--seed N` (default 0).
pub fn seed_arg() -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|w| w[0] == "--seed")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(0)
}

/// Parses `--horizon N` (seconds): overrides the logic table's alerting
/// horizon τ_max. The horizon is the decisive robustness parameter the
/// search experiments expose (see the `horizon_ablation` binary).
pub fn horizon_arg() -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|w| w[0] == "--horizon")
        .and_then(|w| w[1].parse().ok())
}

/// Solves the logic table at the scale selected by `--full` and wraps it
/// in a runner. Prints the solve time (the paper's footnote 2 claims the
/// real model solves in under five minutes on a laptop).
pub fn runner_for_scale() -> EncounterRunner {
    let mut config = if full_scale() {
        AcasConfig::default()
    } else {
        AcasConfig::coarse()
    };
    if let Some(h) = horizon_arg() {
        config.tau_max_s = h;
    }
    let started = std::time::Instant::now();
    let table = Arc::new(LogicTable::solve(&config));
    eprintln!(
        "[setup] solved logic table ({} stages, {:.1} MiB) in {:.1} s",
        table.num_stages(),
        table.q_bytes() as f64 / (1024.0 * 1024.0),
        started.elapsed().as_secs_f64()
    );
    EncounterRunner::new(table)
}

/// A runner over the coarse logic table, for criterion benches that must
/// set up quickly regardless of `--full`.
pub fn coarse_runner() -> EncounterRunner {
    EncounterRunner::with_coarse_table()
}

/// A genome-derived seed identical to the one used by fitness evaluation.
pub fn genome_seed(genes: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in genes {
        h ^= x.to_bits();
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}
