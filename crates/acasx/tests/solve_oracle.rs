//! The factored `LogicTable::solve` against its oracle, the generic
//! `uavca_mdp::BackwardInduction` over `VerticalMdp`: every stage-Q value
//! must agree bit for bit.
//!
//! Both tables are compared as stage-Q JSON. The writer prints every
//! finite `f64` in shortest round-trip form and the parser reads it back
//! exactly, and it writes `NaN`, `Infinity` and `-Infinity` as distinct
//! literals, so distinct bit patterns (±0 included) print differently and
//! equal strings mean bit-identical tables (up to NaN payloads).

mod common;

use common::small_config;
use proptest::prelude::*;
use serde::Deserialize;
use uavca_acasx::{AcasConfig, LogicTable, VerticalMdp};
use uavca_mdp::{BackwardInduction, QTable};

/// The part of a saved table the comparison reads.
#[derive(Deserialize)]
struct SavedStages {
    stage_q: Vec<QTable>,
}

fn assert_solve_matches_oracle(config: &AcasConfig) {
    let mut saved = Vec::new();
    LogicTable::solve(config)
        .save(&mut saved)
        .expect("in-memory save");
    let factored: SavedStages = serde_json::from_reader(saved.as_slice()).expect("table parses");

    let model = VerticalMdp::new(config.clone());
    let oracle = BackwardInduction::new()
        .solve(&model, config.num_stages(), model.terminal_values())
        .expect("well-formed model");

    assert_eq!(factored.stage_q.len(), oracle.stage_q.len());
    for (k, (got, want)) in factored.stage_q.iter().zip(&oracle.stage_q).enumerate() {
        assert!(
            serde_json::to_string(got).unwrap() == serde_json::to_string(want).unwrap(),
            "stage {} differs from BackwardInduction for {config:?}",
            k + 1
        );
    }
}

#[test]
fn coarse_table_matches_backward_induction() {
    assert_solve_matches_oracle(&AcasConfig::coarse());
}

/// An infinite NMAC cost makes terminal values `−∞`: a solve that adds the
/// zero-weight corners as `0 · V` turns them into NaN.
#[test]
fn infinite_nmac_cost_matches_backward_induction() {
    let mut config = AcasConfig::coarse();
    config.costs.nmac = f64::INFINITY;
    assert_solve_matches_oracle(&config);
}

/// One-point axes have no upper corner to read.
#[test]
fn one_point_axes_match_backward_induction() {
    let mut config = AcasConfig::coarse();
    config.h_points = 1;
    config.rate_points = 1;
    assert_solve_matches_oracle(&config);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Small grids of odd and even size, both step lengths, and varied
    /// noise widths and cost weights.
    #[test]
    fn small_configs_match_backward_induction(config in small_config()) {
        assert_solve_matches_oracle(&config);
    }
}
