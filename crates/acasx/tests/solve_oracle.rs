//! The factored `LogicTable::solve` against its oracle, the generic
//! `uavca_mdp::BackwardInduction` over `VerticalMdp`: every stage-Q value
//! must agree bit for bit.
//!
//! Both tables are compared through `LogicTable::stage_q`, the Q rows the
//! factored storage rebuilds, value by value on their bit patterns, so ±0
//! and the infinities are told apart. Any two NaNs count as equal: their
//! payloads are not part of the table's contract.

mod common;

use common::small_config;
use proptest::prelude::*;
use uavca_acasx::{AcasConfig, LogicTable, VerticalMdp};
use uavca_mdp::BackwardInduction;

fn assert_solve_matches_oracle(config: &AcasConfig) {
    let factored = LogicTable::solve(config).stage_q();

    let model = VerticalMdp::new(config.clone());
    let oracle = BackwardInduction::new()
        .solve(&model, config.num_stages(), model.terminal_values())
        .expect("well-formed model");

    assert_eq!(factored.len(), oracle.stage_q.len());
    for (k, (got, want)) in factored.iter().zip(&oracle.stage_q).enumerate() {
        assert_eq!(
            (got.num_states(), got.num_actions()),
            (want.num_states(), want.num_actions()),
            "stage {} shape for {config:?}",
            k + 1
        );
        for s in 0..want.num_states() {
            let same = got
                .row(s)
                .iter()
                .zip(want.row(s))
                .all(|(a, b)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()));
            assert!(
                same,
                "stage {} state {s} differs from BackwardInduction ({:?} vs {:?}) for {config:?}",
                k + 1,
                got.row(s),
                want.row(s)
            );
        }
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
