//! The factored `LogicTable::solve` against its oracle, the generic
//! `uavca_mdp::BackwardInduction` over `VerticalMdp`: every stage-Q value
//! must agree bit for bit.
//!
//! Both tables are compared as stage-Q JSON. The writer prints every
//! finite `f64` in shortest round-trip form and the parser reads it back
//! exactly, so distinct bit patterns (±0 included) print differently and
//! equal strings mean bit-identical tables.

use proptest::prelude::*;
use serde::Deserialize;
use uavca_acasx::{AcasConfig, CostModel, LogicTable, VerticalDynamics, VerticalMdp};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Small grids of odd and even size, both step lengths, and varied
    /// noise widths and cost weights.
    #[test]
    fn small_configs_match_backward_induction(
        shape in (2usize..=9, 2usize..=5, 1usize..=6, 1usize..=2),
        noise in (0.5f64..6.0, 0.5f64..8.0, 2.0f64..12.0),
        weights in (1_000.0f64..20_000.0, 0.5f64..6.0, 2.0f64..10.0, 5.0f64..20.0),
        extras in (2.0f64..20.0, 5.0f64..30.0, 10.0f64..40.0),
        geometry in (300.0f64..1500.0, 50.0f64..200.0),
    ) {
        let (h_points, rate_points, tau_max_s, dt) = shape;
        let (own_noise_fps, intruder_noise_fps, own_accel_fps2) = noise;
        let (nmac, restriction, rate_advisory, strengthened_advisory) = weights;
        let (new_alert, strengthening, reversal) = extras;
        let (h_max_ft, nmac_half_height_ft) = geometry;
        let config = AcasConfig {
            h_max_ft,
            h_points,
            rate_points,
            tau_max_s,
            nmac_half_height_ft,
            dynamics: VerticalDynamics {
                dt_s: dt as f64,
                own_accel_fps2,
                own_noise_fps,
                intruder_noise_fps,
                ..VerticalDynamics::default()
            },
            costs: CostModel {
                nmac,
                restriction,
                rate_advisory,
                strengthened_advisory,
                new_alert,
                strengthening,
                reversal,
            },
        };
        assert_solve_matches_oracle(&config);
    }
}
