use serde::{Deserialize, Serialize};

use crate::{AdsbReport, Vec3};

/// An α-β track filter over ADS-B reports.
///
/// The paper's Section IV asks whether the MDP's "Markov state from clean
/// measurements" assumption survives sensor noise (and whether a POMDP
/// would be needed). Deployed ACAS X systems interpose *state estimation*
/// between surveillance and the logic; this filter is the standard
/// lightweight version: position is corrected by a gain `alpha`, velocity
/// by `beta` on the innovation divided by the report interval.
///
/// The filter is deliberately simple — the point is to let experiments
/// toggle smoothed vs raw tracking and measure the effect on alert timing
/// and accident rates (see the `noise_sweep` experiment).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlphaBetaTracker {
    /// Position correction gain in `(0, 1]`.
    pub alpha: f64,
    /// Velocity correction gain in `(0, alpha]`, per second.
    pub beta: f64,
    state: Option<TrackState>,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct TrackState {
    position: Vec3,
    velocity: Vec3,
    time_s: f64,
}

impl AlphaBetaTracker {
    /// Creates a tracker with the given gains.
    ///
    /// # Panics
    ///
    /// Panics if the gains are outside `(0, 1]` — gains are configuration
    /// constants, not runtime data.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&alpha) && alpha > 0.0,
            "alpha in (0, 1]"
        );
        assert!((0.0..=1.0).contains(&beta) && beta > 0.0, "beta in (0, 1]");
        Self {
            alpha,
            beta,
            state: None,
        }
    }

    /// A reasonable default for 1 Hz ADS-B: α = 0.6, β = 0.2.
    pub fn default_gains() -> Self {
        Self::new(0.6, 0.2)
    }

    /// Whether the tracker has been initialized by a first report.
    pub fn is_initialized(&self) -> bool {
        self.state.is_some()
    }

    /// Clears the track (new encounter).
    pub fn reset(&mut self) {
        self.state = None;
    }

    /// Ingests a report and returns the smoothed `(position, velocity)`
    /// estimate. The first report initializes the track verbatim.
    pub fn update(&mut self, report: &AdsbReport) -> (Vec3, Vec3) {
        match self.state {
            None => {
                let s = TrackState {
                    position: report.position,
                    velocity: report.velocity,
                    time_s: report.time_s,
                };
                self.state = Some(s);
                (s.position, s.velocity)
            }
            Some(prev) => {
                let dt = (report.time_s - prev.time_s).max(1e-6);
                // Predict.
                let predicted = prev.position + prev.velocity * dt;
                // Correct.
                let innovation = report.position - predicted;
                let position = predicted + innovation * self.alpha;
                let velocity = prev.velocity + innovation * (self.beta / dt);
                // Blend the reported velocity too: ADS-B carries a velocity
                // measurement, which a pure alpha-beta filter ignores.
                let velocity = velocity.lerp(report.velocity, 0.5);
                let s = TrackState {
                    position,
                    velocity,
                    time_s: report.time_s,
                };
                self.state = Some(s);
                (position, velocity)
            }
        }
    }

    /// The current estimate, if initialized.
    pub fn estimate(&self) -> Option<(Vec3, Vec3)> {
        self.state.map(|s| (s.position, s.velocity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdsbSensor, SensorNoise, UavState};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn report_at(t: f64, position: Vec3, velocity: Vec3) -> AdsbReport {
        AdsbReport {
            sender: 1,
            position,
            velocity,
            time_s: t,
        }
    }

    #[test]
    fn first_report_initializes_verbatim() {
        let mut tracker = AlphaBetaTracker::default_gains();
        assert!(!tracker.is_initialized());
        let r = report_at(0.0, Vec3::new(100.0, 0.0, 0.0), Vec3::new(10.0, 0.0, 0.0));
        let (p, v) = tracker.update(&r);
        assert_eq!(p, r.position);
        assert_eq!(v, r.velocity);
        assert!(tracker.is_initialized());
    }

    #[test]
    fn tracks_constant_velocity_exactly_after_convergence() {
        let mut tracker = AlphaBetaTracker::default_gains();
        let v = Vec3::new(100.0, -20.0, 5.0);
        for t in 0..30 {
            let pos = Vec3::new(0.0, 0.0, 1000.0) + v * t as f64;
            tracker.update(&report_at(t as f64, pos, v));
        }
        let (p, vel) = tracker.estimate().unwrap();
        let truth = Vec3::new(0.0, 0.0, 1000.0) + v * 29.0;
        assert!(p.distance(truth) < 1e-6, "position converges: {p:?}");
        assert!((vel - v).norm() < 1e-6, "velocity converges: {vel:?}");
    }

    #[test]
    fn smoothing_reduces_position_error_under_noise() {
        let noise = SensorNoise::default();
        let sensor = AdsbSensor::new(noise);
        let truth_v = Vec3::new(150.0, 0.0, -10.0);
        let mut rng = StdRng::seed_from_u64(11);
        let mut tracker = AlphaBetaTracker::default_gains();
        let mut raw_err = 0.0;
        let mut smooth_err = 0.0;
        let mut n = 0.0;
        for t in 0..200 {
            let truth_p = Vec3::new(0.0, 0.0, 5000.0) + truth_v * t as f64;
            let state = UavState::new(truth_p, truth_v);
            let report = crate::adsb::tests::observe(&sensor, 1, &state, t as f64, &mut rng);
            let (p, _) = tracker.update(&report);
            if t >= 10 {
                raw_err += report.position.distance(truth_p);
                smooth_err += p.distance(truth_p);
                n += 1.0;
            }
        }
        raw_err /= n;
        smooth_err /= n;
        assert!(
            smooth_err < raw_err * 0.8,
            "smoothing must cut position error: raw {raw_err:.1} vs smoothed {smooth_err:.1}"
        );
    }

    #[test]
    fn reset_forgets_the_track() {
        let mut tracker = AlphaBetaTracker::default_gains();
        tracker.update(&report_at(0.0, Vec3::ZERO, Vec3::ZERO));
        tracker.reset();
        assert!(!tracker.is_initialized());
        assert!(tracker.estimate().is_none());
    }

    #[test]
    #[should_panic(expected = "alpha in (0, 1]")]
    fn gains_are_validated() {
        AlphaBetaTracker::new(1.5, 0.2);
    }
}
