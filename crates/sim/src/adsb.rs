use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::config::rand_distr_shim::sample_standard_normal;
use crate::{UavState, Vec3};

/// White-noise model for the ADS-B datalink (paper Section VI-C: "we
/// explicitly model the sensor noise by adding white noise to the received
/// information").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensorNoise {
    /// Standard deviation of the reported horizontal position, ft.
    pub horizontal_position_sigma_ft: f64,
    /// Standard deviation of the reported altitude, ft.
    pub vertical_position_sigma_ft: f64,
    /// Standard deviation of the reported horizontal velocity, ft/s.
    pub horizontal_velocity_sigma_fps: f64,
    /// Standard deviation of the reported vertical rate, ft/s.
    pub vertical_velocity_sigma_fps: f64,
}

impl SensorNoise {
    /// A perfect (noise-free) datalink.
    pub fn none() -> Self {
        Self {
            horizontal_position_sigma_ft: 0.0,
            vertical_position_sigma_ft: 0.0,
            horizontal_velocity_sigma_fps: 0.0,
            vertical_velocity_sigma_fps: 0.0,
        }
    }
}

impl Default for SensorNoise {
    /// Representative ADS-B accuracy for cooperative UAV surveillance:
    /// σ = 50 ft horizontal / 25 ft vertical position, 1.5 ft/s velocity
    /// (GPS-derived velocity is accurate to roughly a knot).
    fn default() -> Self {
        Self {
            horizontal_position_sigma_ft: 50.0,
            vertical_position_sigma_ft: 25.0,
            horizontal_velocity_sigma_fps: 1.5,
            vertical_velocity_sigma_fps: 1.5,
        }
    }
}

/// One ADS-B state report as received (i.e. after sensor noise).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdsbReport {
    /// Id of the broadcasting aircraft (0 or 1 in two-ship encounters).
    pub sender: usize,
    /// Reported position, ft.
    pub position: Vec3,
    /// Reported velocity, ft/s.
    pub velocity: Vec3,
    /// Simulation time of the report, s.
    pub time_s: f64,
}

/// The broadcast side of the ADS-B channel: corrupts true state with white
/// noise per receiver.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct AdsbSensor {
    noise: SensorNoise,
}

impl AdsbSensor {
    /// Creates a sensor with the given noise model.
    pub fn new(noise: SensorNoise) -> Self {
        Self { noise }
    }

    /// The noise model in use.
    pub fn noise(&self) -> &SensorNoise {
        &self.noise
    }

    /// Draws one report's measurement noise: six standard normals, in
    /// the order position x, y, z, then velocity x, y, z, scaled by the
    /// model's sigmas. The draw count does not depend on the sigmas.
    pub(crate) fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> ReportNoise {
        let n = &self.noise;
        ReportNoise {
            position: Vec3::new(
                sample_standard_normal(rng) * n.horizontal_position_sigma_ft,
                sample_standard_normal(rng) * n.horizontal_position_sigma_ft,
                sample_standard_normal(rng) * n.vertical_position_sigma_ft,
            ),
            velocity: Vec3::new(
                sample_standard_normal(rng) * n.horizontal_velocity_sigma_fps,
                sample_standard_normal(rng) * n.horizontal_velocity_sigma_fps,
                sample_standard_normal(rng) * n.vertical_velocity_sigma_fps,
            ),
        }
    }

    /// The report of `sender`'s true `state` under an already drawn
    /// `noise`.
    pub(crate) fn apply(
        &self,
        sender: usize,
        state: &UavState,
        time_s: f64,
        noise: &ReportNoise,
    ) -> AdsbReport {
        AdsbReport {
            sender,
            position: state.position + noise.position,
            velocity: state.velocity + noise.velocity,
            time_s,
        }
    }
}

/// One report's scaled measurement noise, drawn by [`AdsbSensor::draw`]
/// and added to the true state by [`AdsbSensor::apply`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ReportNoise {
    position: Vec3,
    velocity: Vec3,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One report of `state` with freshly drawn noise.
    pub(crate) fn observe(
        sensor: &AdsbSensor,
        sender: usize,
        state: &UavState,
        time_s: f64,
        rng: &mut StdRng,
    ) -> AdsbReport {
        sensor.apply(sender, state, time_s, &sensor.draw(rng))
    }

    fn state() -> UavState {
        UavState::new(
            Vec3::new(1000.0, 2000.0, 4500.0),
            Vec3::new(100.0, 0.0, -10.0),
        )
    }

    #[test]
    fn noiseless_sensor_reports_truth() {
        let sensor = AdsbSensor::new(SensorNoise::none());
        let mut rng = StdRng::seed_from_u64(0);
        let r = observe(&sensor, 1, &state(), 12.0, &mut rng);
        assert_eq!(r.position, state().position);
        assert_eq!(r.velocity, state().velocity);
        assert_eq!(r.sender, 1);
        assert_eq!(r.time_s, 12.0);
    }

    #[test]
    fn noise_statistics_match_model() {
        let sensor = AdsbSensor::new(SensorNoise::default());
        let mut rng = StdRng::seed_from_u64(99);
        let n = 20_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let r = observe(&sensor, 0, &state(), 0.0, &mut rng);
            let err = r.position.z - state().position.z;
            sum += err;
            sum2 += err * err;
        }
        let mean = sum / n as f64;
        let sigma = (sum2 / n as f64 - mean * mean).sqrt();
        assert!(mean.abs() < 1.0, "bias {mean}");
        assert!((sigma - 25.0).abs() < 1.0, "sigma {sigma}");
    }

    #[test]
    fn reports_are_independent_draws() {
        let sensor = AdsbSensor::new(SensorNoise::default());
        let mut rng = StdRng::seed_from_u64(5);
        let a = observe(&sensor, 0, &state(), 0.0, &mut rng);
        let b = observe(&sensor, 0, &state(), 0.0, &mut rng);
        assert_ne!(a.position, b.position);
    }
}
