//! Aviation unit conversions.
//!
//! The simulation frame is feet / feet-per-second / seconds; encounter
//! descriptions use the aviation-customary knots (ground speed) and
//! feet-per-minute (vertical speed), as in the paper's Section VI-A.

/// Feet per second in one knot (international nautical mile / hour).
pub const FPS_PER_KNOT: f64 = 1.687_809_857_101_196;

/// Seconds per minute, for ft/min ↔ ft/s conversions.
pub const SECONDS_PER_MINUTE: f64 = 60.0;

/// Converts knots to feet per second.
pub fn knots_to_fps(kt: f64) -> f64 {
    kt * FPS_PER_KNOT
}

/// Converts feet per second to knots.
pub fn fps_to_knots(fps: f64) -> f64 {
    fps / FPS_PER_KNOT
}

/// Converts feet per minute to feet per second.
pub fn fpm_to_fps(fpm: f64) -> f64 {
    fpm / SECONDS_PER_MINUTE
}

/// Converts feet per second to feet per minute.
pub fn fps_to_fpm(fps: f64) -> f64 {
    fps * SECONDS_PER_MINUTE
}

/// Normalizes an angle in radians to `(-π, π]`.
pub fn wrap_angle(rad: f64) -> f64 {
    let two_pi = std::f64::consts::TAU;
    let mut a = rad % two_pi;
    if a <= -std::f64::consts::PI {
        a += two_pi;
    } else if a > std::f64::consts::PI {
        a -= two_pi;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn knot_round_trip() {
        for kt in [0.0, 1.0, 120.0, -35.0] {
            assert!((fps_to_knots(knots_to_fps(kt)) - kt).abs() < 1e-12);
        }
        // 100 kt ≈ 168.78 ft/s
        assert!((knots_to_fps(100.0) - 168.781).abs() < 0.01);
    }

    #[test]
    fn fpm_round_trip() {
        assert!((fpm_to_fps(1500.0) - 25.0).abs() < 1e-12);
        assert!((fps_to_fpm(fpm_to_fps(-2500.0)) + 2500.0).abs() < 1e-12);
    }

    #[test]
    fn wrap_angle_range() {
        for a in [-10.0, -PI, -0.5, 0.0, 0.5, PI, 10.0, 100.0] {
            let w = wrap_angle(a);
            assert!(w > -PI - 1e-12 && w <= PI + 1e-12, "{a} -> {w}");
            // Same direction: cos/sin must match.
            assert!((w.cos() - a.cos()).abs() < 1e-9);
            assert!((w.sin() - a.sin()).abs() < 1e-9);
        }
    }
}
