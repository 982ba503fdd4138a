//! Shared generators for the acasx integration tests.

use proptest::prelude::*;
use uavca_acasx::{AcasConfig, CostModel, VerticalDynamics};

/// Small grids of odd and even size, both step lengths, and varied noise
/// widths and cost weights: configurations that solve in milliseconds.
pub fn small_config() -> impl Strategy<Value = AcasConfig> {
    (
        (2usize..=9, 2usize..=5, 1usize..=6, 1usize..=2),
        (0.5f64..6.0, 0.5f64..8.0, 2.0f64..12.0),
        (
            1_000.0f64..20_000.0,
            0.5f64..6.0,
            2.0f64..10.0,
            5.0f64..20.0,
        ),
        (2.0f64..20.0, 5.0f64..30.0, 10.0f64..40.0),
        (300.0f64..1500.0, 50.0f64..200.0),
    )
        .prop_map(|(shape, noise, weights, extras, geometry)| {
            let (h_points, rate_points, tau_max_s, dt) = shape;
            let (own_noise_fps, intruder_noise_fps, own_accel_fps2) = noise;
            let (nmac, restriction, rate_advisory, strengthened_advisory) = weights;
            let (new_alert, strengthening, reversal) = extras;
            let (h_max_ft, nmac_half_height_ft) = geometry;
            AcasConfig {
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
            }
        })
}
