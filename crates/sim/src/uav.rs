use serde::{Deserialize, Serialize};

use crate::Vec3;

/// Kinematic state of one UAV: position (ft) and velocity (ft/s) in the
/// simulation frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UavState {
    /// Position in feet.
    pub position: Vec3,
    /// Velocity in feet per second.
    pub velocity: Vec3,
}

impl UavState {
    /// Creates a state from position and velocity.
    pub fn new(position: Vec3, velocity: Vec3) -> Self {
        Self { position, velocity }
    }

    /// Ground speed (horizontal speed), ft/s.
    pub fn ground_speed(&self) -> f64 {
        self.velocity.horizontal_norm()
    }

    /// Vertical rate, ft/s (positive climbing).
    pub fn vertical_rate(&self) -> f64 {
        self.velocity.z
    }

    /// Bearing of the horizontal velocity, radians in `(-π, π]`, measured
    /// from the +x axis toward +y (the paper's ψ).
    pub fn bearing(&self) -> f64 {
        self.velocity.y.atan2(self.velocity.x)
    }
}

/// Performance limits of a small UAV, used when tracking vertical-rate
/// commands.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UavPerformance {
    /// Maximum commanded climb/descend rate magnitude, ft/s.
    pub max_vertical_rate_fps: f64,
    /// Maximum vertical acceleration magnitude, ft/s² (how fast the vehicle
    /// can change its vertical rate when responding to an advisory).
    pub max_vertical_accel_fps2: f64,
    /// First-order delay before a new advisory takes effect, seconds
    /// (pilot/autopilot response latency).
    pub response_delay_s: f64,
}

impl Default for UavPerformance {
    /// Defaults follow the small-UAV assumptions of the ACAS XU reports:
    /// ±2500 ft/min vertical rate envelope, g/4 ≈ 8 ft/s² vertical
    /// acceleration, 1 s response delay.
    fn default() -> Self {
        Self {
            max_vertical_rate_fps: 2500.0 / 60.0,
            max_vertical_accel_fps2: 8.0,
            response_delay_s: 1.0,
        }
    }
}

/// A UAV agent body: state, performance, and the vertical-rate tracking
/// loop that executes avoidance maneuvers.
///
/// Horizontal motion is constant-velocity (plus disturbance): the paper's
/// encounters fix initial ground tracks and let the avoidance logic act only
/// vertically, like the ACAS XU vertical logic.
#[derive(Debug, Clone)]
pub struct UavBody {
    /// Current kinematic state.
    state: UavState,
    perf: UavPerformance,
    /// Commanded vertical rate, ft/s; `None` means "maintain current".
    commanded_vs: Option<f64>,
    /// Seconds remaining before the current command becomes effective.
    response_remaining_s: f64,
}

impl UavBody {
    /// Creates a body at `state` with `perf` limits.
    pub fn new(state: UavState, perf: UavPerformance) -> Self {
        Self {
            state,
            perf,
            commanded_vs: None,
            response_remaining_s: 0.0,
        }
    }

    /// Current kinematic state.
    pub fn state(&self) -> &UavState {
        &self.state
    }

    /// Performance limits.
    pub fn performance(&self) -> &UavPerformance {
        &self.perf
    }

    /// The vertical rate currently being tracked, if any.
    pub fn commanded_vertical_rate(&self) -> Option<f64> {
        self.commanded_vs
    }

    /// Issues a new vertical-rate command (ft/s). The command takes effect
    /// after the performance response delay and is clamped to the vehicle's
    /// vertical-rate envelope.
    pub fn command_vertical_rate(&mut self, vs_fps: f64) {
        let clamped = vs_fps.clamp(
            -self.perf.max_vertical_rate_fps,
            self.perf.max_vertical_rate_fps,
        );
        // Re-issuing the same command must not re-trigger the delay,
        // otherwise a logic that repeats its advisory every second would
        // never start the maneuver.
        if self.commanded_vs != Some(clamped) {
            self.commanded_vs = Some(clamped);
            self.response_remaining_s = self.perf.response_delay_s;
        }
    }

    /// Clears any vertical-rate command; the UAV maintains its current
    /// vertical rate (clear of conflict).
    pub fn clear_command(&mut self) {
        self.commanded_vs = None;
        self.response_remaining_s = 0.0;
    }

    /// Advances the body by `dt` seconds, applying command tracking and the
    /// environment disturbance `gust` (drawn by the world).
    pub(crate) fn step_with_gust(&mut self, dt: f64, gust: Vec3) {
        // Respond to the vertical command: after the response delay, move
        // the vertical rate toward the target under the acceleration limit.
        if let Some(target) = self.commanded_vs {
            if self.response_remaining_s > 0.0 {
                self.response_remaining_s = (self.response_remaining_s - dt).max(0.0);
            } else {
                let dv = target - self.state.velocity.z;
                let max_dv = self.perf.max_vertical_accel_fps2 * dt;
                self.state.velocity.z += dv.clamp(-max_dv, max_dv);
            }
        }

        // Environment disturbance: white-noise velocity perturbation (wind
        // gusts), per Section VI-C of the paper.
        let effective_velocity = self.state.velocity + gust;

        self.state.position += effective_velocity * dt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn level_uav() -> UavBody {
        UavBody::new(
            UavState::new(Vec3::ZERO, Vec3::new(150.0, 0.0, 0.0)),
            UavPerformance::default(),
        )
    }

    #[test]
    fn constant_velocity_without_commands() {
        let mut uav = level_uav();
        for _ in 0..10 {
            uav.step_with_gust(1.0, Vec3::ZERO);
        }
        assert!((uav.state().position.x - 1500.0).abs() < 1e-9);
        assert_eq!(uav.state().position.z, 0.0);
    }

    #[test]
    fn command_respects_response_delay_then_accel_limit() {
        let mut uav = level_uav();
        uav.command_vertical_rate(25.0); // 1500 fpm climb
                                         // First second: response delay, no vertical rate change.
        uav.step_with_gust(1.0, Vec3::ZERO);
        assert_eq!(uav.state().velocity.z, 0.0);
        // Then accelerate at <= 8 ft/s².
        uav.step_with_gust(1.0, Vec3::ZERO);
        assert!((uav.state().velocity.z - 8.0).abs() < 1e-9);
        uav.step_with_gust(1.0, Vec3::ZERO);
        assert!((uav.state().velocity.z - 16.0).abs() < 1e-9);
        uav.step_with_gust(1.0, Vec3::ZERO);
        assert!((uav.state().velocity.z - 24.0).abs() < 1e-9);
        uav.step_with_gust(1.0, Vec3::ZERO);
        assert!(
            (uav.state().velocity.z - 25.0).abs() < 1e-9,
            "converges to target"
        );
        uav.step_with_gust(1.0, Vec3::ZERO);
        assert!((uav.state().velocity.z - 25.0).abs() < 1e-9, "holds target");
    }

    #[test]
    fn command_is_clamped_to_envelope() {
        let mut uav = level_uav();
        uav.command_vertical_rate(10_000.0);
        assert!(
            (uav.commanded_vertical_rate().unwrap() - uav.performance().max_vertical_rate_fps)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn reissuing_same_command_does_not_reset_delay() {
        let mut uav = level_uav();
        uav.command_vertical_rate(25.0);
        uav.step_with_gust(1.0, Vec3::ZERO); // consumes the delay
        uav.command_vertical_rate(25.0); // same command re-issued
        uav.step_with_gust(1.0, Vec3::ZERO);
        assert!(uav.state().velocity.z > 0.0, "maneuver must have started");
    }

    #[test]
    fn clear_command_maintains_rate() {
        let mut uav = level_uav();
        uav.command_vertical_rate(25.0);
        for _ in 0..6 {
            uav.step_with_gust(1.0, Vec3::ZERO);
        }
        let vs = uav.state().velocity.z;
        uav.clear_command();
        uav.step_with_gust(1.0, Vec3::ZERO);
        assert!((uav.state().velocity.z - vs).abs() < 1e-9);
    }

    #[test]
    fn bearing_and_speed_helpers() {
        let s = UavState::new(Vec3::ZERO, Vec3::new(0.0, 100.0, -10.0));
        assert!((s.bearing() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((s.ground_speed() - 100.0).abs() < 1e-12);
        assert!((s.vertical_rate() + 10.0).abs() < 1e-12);
    }
}
