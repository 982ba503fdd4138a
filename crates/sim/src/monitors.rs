use serde::{Deserialize, Serialize};

use crate::UavState;

/// Horizontal near-mid-air-collision threshold, ft (standard NMAC
/// definition used across the ACAS X safety literature).
pub const NMAC_HORIZONTAL_FT: f64 = 500.0;

/// Vertical near-mid-air-collision threshold, ft.
pub const NMAC_VERTICAL_FT: f64 = 100.0;

/// NMAC *severity* of a separation: the larger of the horizontal and
/// vertical separations measured in NMAC-cylinder radii. A point is
/// strictly inside the NMAC cylinder iff its severity is `< 1`, so the
/// nested sets `severity < t` for a descending ladder of thresholds
/// `t > 1` form the levels importance splitting branches on.
pub fn nmac_severity(horizontal_ft: f64, vertical_ft: f64) -> f64 {
    (horizontal_ft / NMAC_HORIZONTAL_FT).max(vertical_ft / NMAC_VERTICAL_FT)
}

/// The paper's *Proximity Measurer*: tracks per-step separations and the
/// minima experienced so far in a run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProximityMeasurer {
    min_horizontal_ft: f64,
    min_vertical_ft: f64,
    min_separation_ft: f64,
    /// Time at which the smallest 3-D separation was observed.
    time_of_min_s: f64,
    /// Smallest *simultaneous* NMAC severity seen at any observed point
    /// (unlike `min_horizontal_ft`/`min_vertical_ft`, which are minima of
    /// different observations and therefore not jointly attained).
    min_severity: f64,
}

impl Default for ProximityMeasurer {
    fn default() -> Self {
        Self::new()
    }
}

impl ProximityMeasurer {
    /// Creates a measurer with no observations yet.
    pub const fn new() -> Self {
        Self {
            min_horizontal_ft: f64::INFINITY,
            min_vertical_ft: f64::INFINITY,
            min_separation_ft: f64::INFINITY,
            time_of_min_s: 0.0,
            min_severity: f64::INFINITY,
        }
    }

    /// Records the separation between the two aircraft at time `time_s`.
    pub fn observe(&mut self, a: &UavState, b: &UavState, time_s: f64) {
        let horizontal = a.position.horizontal_distance(b.position);
        let vertical = (a.position.z - b.position.z).abs();
        let separation = a.position.distance(b.position);
        self.min_horizontal_ft = self.min_horizontal_ft.min(horizontal);
        self.min_vertical_ft = self.min_vertical_ft.min(vertical);
        if separation < self.min_separation_ft {
            self.min_separation_ft = separation;
            self.time_of_min_s = time_s;
        }
        self.min_severity = self.min_severity.min(nmac_severity(horizontal, vertical));
    }

    /// Smallest horizontal separation seen so far, ft.
    pub fn min_horizontal_ft(&self) -> f64 {
        self.min_horizontal_ft
    }

    /// Smallest vertical separation seen so far, ft.
    pub fn min_vertical_ft(&self) -> f64 {
        self.min_vertical_ft
    }

    /// Smallest 3-D separation seen so far, ft. This is the `d_k` of the
    /// paper's fitness function.
    pub fn min_separation_ft(&self) -> f64 {
        self.min_separation_ft
    }

    /// Time of the closest point of approach observed, s.
    pub fn time_of_min_s(&self) -> f64 {
        self.time_of_min_s
    }

    /// Smallest NMAC severity (see [`nmac_severity`]) attained at any
    /// observed point so far. Starts at `∞`; monotonically
    /// non-increasing over a run, which is what makes "first crossing of
    /// threshold `t`" a well-defined splitting checkpoint.
    pub fn min_severity(&self) -> f64 {
        self.min_severity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vec3;

    fn at(x: f64, y: f64, z: f64) -> UavState {
        UavState::new(Vec3::new(x, y, z), Vec3::ZERO)
    }

    #[test]
    fn proximity_tracks_minima() {
        let mut p = ProximityMeasurer::new();
        p.observe(&at(0.0, 0.0, 0.0), &at(1000.0, 0.0, 300.0), 0.0);
        p.observe(&at(0.0, 0.0, 0.0), &at(400.0, 0.0, 500.0), 1.0);
        p.observe(&at(0.0, 0.0, 0.0), &at(800.0, 0.0, 50.0), 2.0);
        assert!((p.min_horizontal_ft() - 400.0).abs() < 1e-9);
        assert!((p.min_vertical_ft() - 50.0).abs() < 1e-9);
        // min 3-D separation is the 400/500 observation: sqrt(400² + 500²)
        let expected = (400.0f64.powi(2) + 500.0f64.powi(2)).sqrt();
        assert!((p.min_separation_ft() - expected).abs() < 1e-9);
        assert_eq!(p.time_of_min_s(), 1.0);
    }

    #[test]
    fn severity_is_simultaneous_not_componentwise() {
        let mut p = ProximityMeasurer::new();
        // Horizontally close but vertically far: severity from the
        // vertical term, 400/100 = 4.
        p.observe(&at(0.0, 0.0, 0.0), &at(100.0, 0.0, 400.0), 0.0);
        assert!((p.min_severity() - 4.0).abs() < 1e-12);
        // Vertically close but horizontally far: 2000/500 = 4 again —
        // even though min_horizontal and min_vertical are now both tiny,
        // no single observation was jointly close.
        p.observe(&at(0.0, 0.0, 0.0), &at(2000.0, 0.0, 10.0), 1.0);
        assert!((p.min_severity() - 4.0).abs() < 1e-12);
        // A jointly close point: max(300/500, 50/100) = 0.6 < 1 ⇒ NMAC.
        p.observe(&at(0.0, 0.0, 0.0), &at(300.0, 0.0, 50.0), 2.0);
        assert!((p.min_severity() - 0.6).abs() < 1e-12);
        assert!(p.min_severity() < 1.0);
    }

    #[test]
    fn severity_below_one_iff_inside_cylinder() {
        assert!(nmac_severity(499.0, 99.0) < 1.0);
        assert!(nmac_severity(499.0, 100.0) >= 1.0);
        assert!(nmac_severity(500.0, 99.0) >= 1.0);
        assert!(nmac_severity(0.0, 0.0) == 0.0);
    }
}
