use rand::Rng;
use rand_distr_shim::sample_standard_normal;
use serde::{Deserialize, Serialize};

use crate::adsb::SensorNoise;
use crate::Vec3;

/// White-noise wind gust model perturbing each UAV's effective velocity
/// every step (the paper's "environment disturbance").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DisturbanceModel {
    /// Standard deviation of the horizontal gust components, ft/s.
    pub horizontal_sigma_fps: f64,
    /// Standard deviation of the vertical gust component, ft/s.
    pub vertical_sigma_fps: f64,
}

impl DisturbanceModel {
    /// No disturbance at all (deterministic dynamics).
    pub fn none() -> Self {
        Self {
            horizontal_sigma_fps: 0.0,
            vertical_sigma_fps: 0.0,
        }
    }

    /// Draws one gust velocity vector.
    pub fn sample_gust<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec3 {
        if self.horizontal_sigma_fps == 0.0 && self.vertical_sigma_fps == 0.0 {
            return Vec3::ZERO;
        }
        Vec3::new(
            sample_standard_normal(rng) * self.horizontal_sigma_fps,
            sample_standard_normal(rng) * self.horizontal_sigma_fps,
            sample_standard_normal(rng) * self.vertical_sigma_fps,
        )
    }
}

impl Default for DisturbanceModel {
    /// Moderate turbulence: σ = 5 ft/s horizontally, 3 ft/s vertically.
    fn default() -> Self {
        Self {
            horizontal_sigma_fps: 5.0,
            vertical_sigma_fps: 3.0,
        }
    }
}

/// Configuration of an encounter simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Simulation (and decision) step, seconds.
    pub dt_s: f64,
    /// Hard stop for the run, seconds.
    pub max_time_s: f64,
    /// Wind / turbulence model.
    pub disturbance: DisturbanceModel,
    /// ADS-B datalink noise model.
    pub sensor_noise: SensorNoise,
    /// Whether the two UAVs exchange maneuver coordination messages
    /// (Section VI-C: a climb commands the peer not to climb).
    pub coordination: bool,
    /// Whether to record a full [`crate::Trace`] of the run.
    pub record_trace: bool,
}

impl Default for SimConfig {
    /// 1 Hz decisions for 100 s with default noise, coordination on, no
    /// trace recording (headless search mode).
    fn default() -> Self {
        Self {
            dt_s: 1.0,
            max_time_s: 100.0,
            disturbance: DisturbanceModel::default(),
            sensor_noise: SensorNoise::default(),
            coordination: true,
            record_trace: false,
        }
    }
}

impl SimConfig {
    /// A deterministic configuration: no wind, no sensor noise. Useful in
    /// tests that need exact geometry.
    pub fn deterministic() -> Self {
        Self {
            disturbance: DisturbanceModel::none(),
            sensor_noise: SensorNoise::none(),
            ..Self::default()
        }
    }

    /// Number of steps implied by `max_time_s` and `dt_s`.
    pub fn num_steps(&self) -> usize {
        (self.max_time_s / self.dt_s).ceil() as usize
    }
}

/// Minimal standard-normal sampler built on `Rng` so the crate does not need
/// `rand_distr`. Implemented as a 128-layer Marsaglia–Tsang ziggurat: noise
/// sampling dominates the encounter tick (18 normals per simulated second),
/// and the ziggurat's fast path costs one `next_u64` plus two table reads
/// where Box–Muller paid a `ln`, a `sqrt` and a `cos` on every draw.
pub(crate) mod rand_distr_shim {
    use rand::Rng;
    use std::sync::OnceLock;

    /// Number of rectangular layers in the ziggurat.
    const LAYERS: usize = 128;
    /// Right edge of the base layer: x-coordinate where the tail begins.
    const R: f64 = 3.442_619_855_899;
    /// Common area of every layer (base rectangle + tail for layer 0).
    const V: f64 = 9.912_563_035_262_17e-3;

    /// Precomputed layer geometry: `x[i]` is the right edge of layer `i`
    /// (`x[0] = V / f(R) > R` spans the base-plus-tail box, `x[LAYERS] = 0`),
    /// and `f[i] = exp(-x[i]^2 / 2)`.
    struct Tables {
        x: [f64; LAYERS + 1],
        f: [f64; LAYERS + 1],
    }

    /// The layer edges `x` and densities `f`, for the reference sampler in
    /// the tests.
    #[cfg(test)]
    pub(super) fn tables_for_tests() -> (&'static [f64], &'static [f64]) {
        (&tables().x, &tables().f)
    }

    fn tables() -> &'static Tables {
        static TABLES: OnceLock<Tables> = OnceLock::new();
        TABLES.get_or_init(|| {
            let density = |x: f64| (-0.5 * x * x).exp();
            let mut x = [0.0; LAYERS + 1];
            let mut f = [0.0; LAYERS + 1];
            x[0] = V / density(R);
            x[1] = R;
            for i in 1..LAYERS {
                // Invert f at the top of layer i: each layer has area V, so
                // the next edge satisfies f(x[i+1]) = f(x[i]) + V / x[i].
                let y = density(x[i]) + V / x[i];
                x[i + 1] = if y >= 1.0 {
                    0.0
                } else {
                    (-2.0 * y.ln()).sqrt()
                };
            }
            // The chosen (R, V) make the recurrence land on 0 up to rounding;
            // pin it so the layer stack covers the density peak exactly.
            x[LAYERS] = 0.0;
            for i in 0..=LAYERS {
                f[i] = density(x[i]);
            }
            Tables { x, f }
        })
    }

    /// Uniform in `(0, 1]`; guards the logarithms in the slow paths against
    /// `ln(0)`.
    fn nonzero_uniform<R2: Rng + ?Sized>(rng: &mut R2) -> f64 {
        loop {
            let u: f64 = rng.gen::<f64>();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Samples one standard normal variate.
    ///
    /// Per-seed draw sequences changed when this switched from Box–Muller to
    /// the ziggurat (both the values and the number of `u64`s consumed per
    /// call), but the determinism contract is unchanged: a given seed still
    /// yields one stable stream.
    ///
    /// Only the rectangle test is inlined into callers; the rare tail and
    /// wedge cases continue out of line in [`finish_candidate`].
    #[inline]
    pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        let t = tables();
        let bits = rng.next_u64();
        let i = (bits & (LAYERS as u64 - 1)) as usize;
        let u = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        // Signed uniform in [-1, 1); the low 7 bits picking the layer are
        // disjoint from the 53 mantissa bits.
        let s = 2.0 * u - 1.0;
        let x = s * t.x[i];
        if x.abs() < t.x[i + 1] {
            // Strictly inside the layer's inscribed rectangle: accept
            // without evaluating the density (~98.5% of draws).
            return x;
        }
        finish_candidate(rng, i, s, x)
    }

    /// Accepts or rejects a candidate `x = s · x[i]` outside its layer's
    /// inscribed rectangle; a rejected candidate is replaced by a fresh
    /// [`sample_standard_normal`] draw, so the stream is consumed exactly
    /// as one rejection loop would consume it.
    #[cold]
    #[inline(never)]
    fn finish_candidate<R: Rng + ?Sized>(rng: &mut R, i: usize, s: f64, x: f64) -> f64 {
        let t = tables();
        if i == 0 {
            // Base layer overhang is the tail beyond R; Marsaglia's
            // exponential-majorant tail sampler.
            loop {
                let tail_x = -nonzero_uniform(rng).ln() / R;
                let tail_y = -nonzero_uniform(rng).ln();
                if tail_y + tail_y > tail_x * tail_x {
                    let mag = R + tail_x;
                    return if s < 0.0 { -mag } else { mag };
                }
            }
        }
        // Wedge between the inscribed rectangle and the density curve.
        let u2: f64 = rng.gen::<f64>();
        if t.f[i] + u2 * (t.f[i + 1] - t.f[i]) < (-0.5 * x * x).exp() {
            return x;
        }
        sample_standard_normal(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn none_disturbance_is_zero() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(DisturbanceModel::none().sample_gust(&mut rng), Vec3::ZERO);
    }

    #[test]
    fn gust_statistics_match_sigma() {
        let model = DisturbanceModel {
            horizontal_sigma_fps: 4.0,
            vertical_sigma_fps: 2.0,
        };
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let (mut sum_x, mut sum_x2, mut sum_z2) = (0.0, 0.0, 0.0);
        for _ in 0..n {
            let g = model.sample_gust(&mut rng);
            sum_x += g.x;
            sum_x2 += g.x * g.x;
            sum_z2 += g.z * g.z;
        }
        let mean_x = sum_x / n as f64;
        let var_x = sum_x2 / n as f64 - mean_x * mean_x;
        let var_z = sum_z2 / n as f64;
        assert!(mean_x.abs() < 0.15, "mean {mean_x}");
        assert!(
            (var_x.sqrt() - 4.0).abs() < 0.15,
            "sigma_x {}",
            var_x.sqrt()
        );
        assert!((var_z.sqrt() - 2.0).abs() < 0.1, "sigma_z {}", var_z.sqrt());
    }

    /// The ziggurat as one rejection loop, the form the split fast/slow
    /// path must reproduce variate for variate.
    fn reference_normal(rng: &mut StdRng) -> f64 {
        use rand::{Rng, RngCore};
        const R: f64 = 3.442_619_855_899;
        let (x, f) = rand_distr_shim::tables_for_tests();
        let uniform = |rng: &mut StdRng| loop {
            let u: f64 = rng.gen::<f64>();
            if u > 0.0 {
                return u;
            }
        };
        loop {
            let bits = rng.next_u64();
            let i = (bits & 127) as usize;
            let s = 2.0 * ((bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) - 1.0;
            let v = s * x[i];
            if v.abs() < x[i + 1] {
                return v;
            }
            if i == 0 {
                loop {
                    let tail_x = -uniform(rng).ln() / R;
                    let tail_y = -uniform(rng).ln();
                    if tail_y + tail_y > tail_x * tail_x {
                        return if s < 0.0 { -(R + tail_x) } else { R + tail_x };
                    }
                }
            }
            let u2: f64 = rng.gen::<f64>();
            if f[i] + u2 * (f[i + 1] - f[i]) < (-0.5 * v * v).exp() {
                return v;
            }
        }
    }

    #[test]
    fn split_sampler_matches_the_single_loop_bit_for_bit() {
        let mut fast = StdRng::seed_from_u64(3);
        let mut reference = StdRng::seed_from_u64(3);
        for n in 0..200_000 {
            let a = rand_distr_shim::sample_standard_normal(&mut fast);
            let b = reference_normal(&mut reference);
            assert_eq!(a.to_bits(), b.to_bits(), "draw {n}");
        }
    }

    #[test]
    fn num_steps_rounds_up() {
        let c = SimConfig {
            dt_s: 1.0,
            max_time_s: 10.5,
            ..SimConfig::default()
        };
        assert_eq!(c.num_steps(), 11);
    }

    #[test]
    fn deterministic_config_has_no_noise() {
        let c = SimConfig::deterministic();
        assert_eq!(c.disturbance, DisturbanceModel::none());
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(c.disturbance.sample_gust(&mut rng), Vec3::ZERO);
    }
}
