use serde::{Deserialize, Serialize};
use uavca_encounter::{EncounterParams, ParamRanges, NUM_PARAMS};
use uavca_evo::Bounds;

/// The searchable scenario space: the paper's 9-parameter encounter
/// encoding with box constraints, exposed as GA genome [`Bounds`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ScenarioSpace {
    ranges: ParamRanges,
}

impl ScenarioSpace {
    /// Wraps explicit parameter ranges.
    pub fn new(ranges: ParamRanges) -> Self {
        Self { ranges }
    }

    /// The underlying parameter ranges.
    pub fn ranges(&self) -> &ParamRanges {
        &self.ranges
    }

    /// The GA genome bounds (9 genes in the canonical parameter order).
    pub fn bounds(&self) -> Bounds {
        #[expect(
            clippy::expect_used,
            reason = "ranges were validated when the space was built"
        )]
        Bounds::new(self.ranges.bounds.to_vec()).expect("ranges are well-formed intervals")
    }

    /// Decodes a genome into encounter parameters.
    ///
    /// # Panics
    ///
    /// Panics if `genes.len() != 9` — genomes in this space always have 9
    /// genes by construction.
    pub fn decode(&self, genes: &[f64]) -> EncounterParams {
        EncounterParams::from_slice(genes)
    }

    /// Encodes parameters as a genome.
    pub fn encode(&self, params: &EncounterParams) -> [f64; NUM_PARAMS] {
        params.to_vector()
    }

    /// Normalizes a genome to the unit box (for clustering / distance
    /// computations where the heterogeneous units would otherwise dominate).
    pub fn normalize(&self, genes: &[f64]) -> Vec<f64> {
        genes
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let (lo, hi) = self.ranges.bound(i);
                if hi > lo {
                    (x - lo) / (hi - lo)
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Maps a unit-box vector back to parameter space.
    pub fn denormalize(&self, unit: &[f64]) -> Vec<f64> {
        unit.iter()
            .enumerate()
            .map(|(i, &u)| {
                let (lo, hi) = self.ranges.bound(i);
                lo + u.clamp(0.0, 1.0) * (hi - lo)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bounds_match_ranges() {
        let space = ScenarioSpace::default();
        let bounds = space.bounds();
        assert_eq!(bounds.len(), NUM_PARAMS);
        for i in 0..NUM_PARAMS {
            assert_eq!(bounds.interval(i), space.ranges().bound(i));
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let space = ScenarioSpace::default();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let p = space.ranges().sample_uniform(&mut rng);
            let genes = space.encode(&p);
            assert_eq!(space.decode(&genes), p);
        }
    }

    #[test]
    fn normalize_round_trip() {
        let space = ScenarioSpace::default();
        let mut rng = StdRng::seed_from_u64(2);
        let p = space.ranges().sample_uniform(&mut rng);
        let genes = space.encode(&p);
        let unit = space.normalize(&genes);
        assert!(unit.iter().all(|&u| (0.0..=1.0).contains(&u)), "{unit:?}");
        let back = space.denormalize(&unit);
        for (a, b) in genes.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
