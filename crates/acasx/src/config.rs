use serde::{Deserialize, Serialize};
use uavca_mdp::{RectGrid, RectGridBuilder};

use crate::{CostModel, VerticalDynamics};

/// Full configuration of the offline table generation: state-space
/// discretization, dynamics, costs and the alerting horizon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcasConfig {
    /// Relative altitude axis bound, ft (grid spans ±this).
    pub h_max_ft: f64,
    /// Number of grid points on the relative-altitude axis (odd keeps 0 on
    /// the grid).
    pub h_points: usize,
    /// Number of grid points on each vertical-rate axis (odd keeps 0 on
    /// the grid); rates span the dynamics envelope.
    pub rate_points: usize,
    /// Alerting horizon: the table covers τ = 0 ..= `tau_max_s` seconds in
    /// `dynamics.dt_s` stages.
    pub tau_max_s: usize,
    /// Half-height of the NMAC band used for the terminal cost, ft.
    pub nmac_half_height_ft: f64,
    /// Encounter dynamics model.
    pub dynamics: VerticalDynamics,
    /// Cost model (preferences).
    pub costs: CostModel,
}

impl Default for AcasConfig {
    /// The full-resolution table used by the experiments: h ∈ ±1200 ft at
    /// 25 points, rates at 13 points, 40 s horizon.
    fn default() -> Self {
        Self {
            h_max_ft: 1200.0,
            h_points: 25,
            rate_points: 13,
            tau_max_s: 40,
            nmac_half_height_ft: 100.0,
            dynamics: VerticalDynamics::default(),
            costs: CostModel::default(),
        }
    }
}

impl AcasConfig {
    /// A deliberately coarse configuration for fast tests and doctests:
    /// h at 13 points, rates at 5, 12 s horizon. The qualitative structure
    /// of the logic (alert near conflict, coordinate senses) survives the
    /// coarseness.
    pub fn coarse() -> Self {
        Self {
            h_points: 13,
            rate_points: 5,
            tau_max_s: 12,
            ..Self::default()
        }
    }

    /// Builds the 3-D interpolation grid over `(h, ḣ_own, ḣ_int)`.
    ///
    /// # Panics
    ///
    /// Panics if `h_points` or `rate_points` is 0. One-point axes are
    /// legal: the table then holds the single point, and lookups clamp to
    /// it. Configurations are code, not user input.
    pub fn build_grid(&self) -> RectGrid {
        let vmax = self.dynamics.max_rate_fps;
        RectGridBuilder::new()
            .axis_linspace(-self.h_max_ft, self.h_max_ft, self.h_points)
            .axis_linspace(-vmax, vmax, self.rate_points)
            .axis_linspace(-vmax, vmax, self.rate_points)
            .build()
            .expect("h_points and rate_points are at least 1")
    }

    /// Number of decision stages (τ slices with decisions): `tau_max_s /
    /// dt`, rounded down, at least 1.
    pub fn num_stages(&self) -> usize {
        ((self.tau_max_s as f64 / self.dynamics.dt_s) as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_contains_origin_exactly() {
        let grid = AcasConfig::default().build_grid();
        let w = grid.interp_weights(&[0.0, 0.0, 0.0]).unwrap();
        assert_eq!(w.indices.len(), 1, "odd point counts keep (0,0,0) on-grid");
    }

    #[test]
    fn coarse_is_smaller_than_default() {
        let full = AcasConfig::default();
        let coarse = AcasConfig::coarse();
        assert!(coarse.build_grid().num_points() < full.build_grid().num_points());
        assert!(coarse.num_stages() < full.num_stages());
    }

    #[test]
    fn stage_count_follows_dt() {
        let mut c = AcasConfig::coarse();
        c.tau_max_s = 10;
        c.dynamics.dt_s = 1.0;
        assert_eq!(c.num_stages(), 10);
        c.dynamics.dt_s = 2.0;
        assert_eq!(c.num_stages(), 5);
    }

    #[test]
    fn serde_round_trip() {
        let c = AcasConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: AcasConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    #[should_panic(expected = "h_points and rate_points are at least 1")]
    fn zero_altitude_points_panic() {
        let c = AcasConfig {
            h_points: 0,
            ..AcasConfig::coarse()
        };
        c.build_grid();
    }
}
