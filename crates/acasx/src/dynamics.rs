use serde::{Deserialize, Serialize};

use crate::Advisory;

/// The own-ship response and intruder disturbance model used when building
/// the MDP ("aircraft dynamics modelling" in the paper's list of
/// engineering techniques).
///
/// Both vertical rates evolve in discrete `dt` steps. The own-ship tracks
/// its advisory's target rate under an acceleration limit; the intruder's
/// rate performs a bounded random walk. Both are perturbed by three-point
/// sigma noise `{−w, 0, +w}` with probabilities `{0.25, 0.5, 0.25}` — the
/// sampling scheme that keeps the transition fan-out small (paper Section
/// IV's "sampling techniques").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VerticalDynamics {
    /// Decision/integration step, s.
    pub dt_s: f64,
    /// Own-ship maximum vertical acceleration when following an advisory,
    /// ft/s².
    pub own_accel_fps2: f64,
    /// Vertical-rate envelope (magnitude bound) for both aircraft, ft/s.
    pub max_rate_fps: f64,
    /// Own-ship rate noise half-width `w`, ft/s per step.
    pub own_noise_fps: f64,
    /// Intruder rate noise half-width `w`, ft/s per step.
    pub intruder_noise_fps: f64,
}

impl Default for VerticalDynamics {
    fn default() -> Self {
        Self {
            dt_s: 1.0,
            own_accel_fps2: 8.0,
            max_rate_fps: 2500.0 / 60.0,
            own_noise_fps: 2.0,
            intruder_noise_fps: 4.0,
        }
    }
}

/// The deterministic part of the own-ship's next vertical rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OwnResponse {
    /// Next vertical rate before noise, ft/s.
    pub next_rate_fps: f64,
}

impl VerticalDynamics {
    /// Deterministic own-ship response: move the current rate toward the
    /// advisory's target under the acceleration limit (COC drifts).
    pub fn own_response(&self, current_rate_fps: f64, advisory: Advisory) -> OwnResponse {
        let next = match advisory.target_rate_fps(current_rate_fps) {
            None => current_rate_fps,
            Some(target) => {
                let max_dv = self.own_accel_fps2 * self.dt_s;
                current_rate_fps + (target - current_rate_fps).clamp(-max_dv, max_dv)
            }
        };
        OwnResponse {
            next_rate_fps: next.clamp(-self.max_rate_fps, self.max_rate_fps),
        }
    }

    /// The three-point sigma noise kernel `{(-w, ¼), (0, ½), (+w, ¼)}`.
    pub fn noise_kernel(half_width: f64) -> [(f64, f64); 3] {
        [(-half_width, 0.25), (0.0, 0.5), (half_width, 0.25)]
    }

    /// Enumerates the stochastic successor kinematics of one step: given
    /// relative altitude `h` (ft) and the two vertical rates (ft/s), and
    /// the advisory commanded this step, yields
    /// `(h', own_rate', intruder_rate', probability)` tuples: the 3 × 3 own
    /// and intruder noise outcomes, own-major.
    ///
    /// Altitude integrates trapezoidally: the step uses the average of the
    /// old and new rates. `h' = h + Δh` with the `Δh` of
    /// [`rate_successors`](Self::rate_successors), so every outcome except
    /// `h'` is independent of `h`.
    pub fn successors(
        &self,
        h_ft: f64,
        own_rate_fps: f64,
        intruder_rate_fps: f64,
        advisory: Advisory,
    ) -> [(f64, f64, f64, f64); 9] {
        self.rate_successors(own_rate_fps, intruder_rate_fps, advisory)
            .map(|(own_next, intr_next, dh, p)| (h_ft + dh, own_next, intr_next, p))
    }

    /// The altitude-free part of [`successors`](Self::successors):
    /// `(own_rate', intruder_rate', Δh, probability)` per outcome, in the
    /// same order, with `Δh = ½ ((ḣ_int + ḣ_int') − (ḣ_own + ḣ_own')) · dt`.
    pub fn rate_successors(
        &self,
        own_rate_fps: f64,
        intruder_rate_fps: f64,
        advisory: Advisory,
    ) -> [(f64, f64, f64, f64); 9] {
        let response = self.own_response(own_rate_fps, advisory);
        let own_kernel = Self::noise_kernel(self.own_noise_fps);
        let intruder_kernel = Self::noise_kernel(self.intruder_noise_fps);
        std::array::from_fn(|k| {
            let (w0, p0) = own_kernel[k / 3];
            let (w1, p1) = intruder_kernel[k % 3];
            let own_next =
                (response.next_rate_fps + w0).clamp(-self.max_rate_fps, self.max_rate_fps);
            let intr_next = (intruder_rate_fps + w1).clamp(-self.max_rate_fps, self.max_rate_fps);
            let dh =
                0.5 * ((intruder_rate_fps + intr_next) - (own_rate_fps + own_next)) * self.dt_s;
            (own_next, intr_next, dh, p0 * p1)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coc_drifts_without_response() {
        let d = VerticalDynamics::default();
        assert_eq!(d.own_response(7.0, Advisory::Coc).next_rate_fps, 7.0);
    }

    #[test]
    fn advisory_tracking_is_accel_limited() {
        let d = VerticalDynamics::default();
        // From level toward 1500 fpm (25 ft/s): limited to 8 ft/s per step.
        assert!((d.own_response(0.0, Advisory::Cl1500).next_rate_fps - 8.0).abs() < 1e-12);
        assert!((d.own_response(20.0, Advisory::Cl1500).next_rate_fps - 25.0).abs() < 1e-12);
        // Descend advisory from a climb.
        assert!((d.own_response(10.0, Advisory::Des1500).next_rate_fps - 2.0).abs() < 1e-12);
    }

    #[test]
    fn restrictions_do_not_disturb_compliant_rates() {
        let d = VerticalDynamics::default();
        assert_eq!(d.own_response(-10.0, Advisory::Dnc).next_rate_fps, -10.0);
        assert!((d.own_response(10.0, Advisory::Dnc).next_rate_fps - 2.0).abs() < 1e-12);
    }

    #[test]
    fn envelope_is_enforced() {
        let d = VerticalDynamics::default();
        let r = d.own_response(41.0, Advisory::Scl2500).next_rate_fps;
        assert!(r <= d.max_rate_fps + 1e-12);
    }

    #[test]
    fn successor_probabilities_sum_to_one() {
        let d = VerticalDynamics::default();
        let succ = d.successors(500.0, 5.0, -10.0, Advisory::Cl1500);
        assert_eq!(succ.len(), 9);
        let mass: f64 = succ.iter().map(|s| s.3).sum();
        assert!((mass - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expected_altitude_change_matches_rates() {
        let d = VerticalDynamics::default();
        // Both level, COC: expected Δh = 0 (noise is symmetric).
        let succ = d.successors(100.0, 0.0, 0.0, Advisory::Coc);
        let eh: f64 = succ.iter().map(|s| s.0 * s.3).sum();
        assert!((eh - 100.0).abs() < 1e-9);
        // Intruder climbing at 10 ft/s, own level: Δh ≈ +10·dt.
        let succ = d.successors(0.0, 0.0, 10.0, Advisory::Coc);
        let eh: f64 = succ.iter().map(|s| s.0 * s.3).sum();
        assert!((eh - 10.0).abs() < 1e-9);
    }

    #[test]
    fn climb_advisory_reduces_relative_altitude_growth() {
        let d = VerticalDynamics::default();
        // Intruder level above us; climbing reduces h = z_int − z_own.
        let coc: f64 = d
            .successors(300.0, 0.0, 0.0, Advisory::Coc)
            .iter()
            .map(|s| s.0 * s.3)
            .sum();
        let climb: f64 = d
            .successors(300.0, 0.0, 0.0, Advisory::Cl1500)
            .iter()
            .map(|s| s.0 * s.3)
            .sum();
        assert!(
            climb < coc,
            "climbing closes toward an intruder above: {climb} vs {coc}"
        );
    }

    #[test]
    fn successors_mirror_under_vertical_flip() {
        let d = VerticalDynamics::default();
        let up = d.successors(200.0, 3.0, -6.0, Advisory::Cl1500);
        let down = d.successors(-200.0, -3.0, 6.0, Advisory::Des1500);
        // The flipped problem must produce mirrored outcomes with the same
        // probabilities (noise kernel is symmetric).
        let mut up_sorted: Vec<_> = up
            .iter()
            .map(|&(h, o, i, p)| {
                (
                    (h * 1e6) as i64,
                    (o * 1e6) as i64,
                    (i * 1e6) as i64,
                    (p * 1e6) as i64,
                )
            })
            .collect();
        let mut down_flipped: Vec<_> = down
            .iter()
            .map(|&(h, o, i, p)| {
                (
                    (-h * 1e6) as i64,
                    (-o * 1e6) as i64,
                    (-i * 1e6) as i64,
                    (p * 1e6) as i64,
                )
            })
            .collect();
        up_sorted.sort();
        down_flipped.sort();
        assert_eq!(up_sorted, down_flipped);
    }
}
