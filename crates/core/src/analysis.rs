//! Post-search analysis: geometry classification summaries, k-means
//! clustering of found scenarios, and campaign convergence series.
//!
//! The paper's conclusion notes that the search "only directly identifies
//! discrete situations" and suggests data mining (clustering) to find
//! *areas* of the search space with high accident rates. This module
//! implements that extension: scenarios are normalized to the unit box and
//! clustered with k-means++, and each cluster is summarized by its
//! centroid, size and dominant geometry class. It also turns the
//! round-by-round [`RoundSummary`] stream of adaptive Monte-Carlo
//! campaigns into convergence series (CI half-width vs runs spent) and
//! runs-to-target readings — the quantities the uniform-vs-adaptive
//! efficiency comparison reports.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};
use uavca_encounter::{classify, EncounterParams, GeometryClass};

use crate::rate::{finite_or_null, float_or};
use crate::{RatioEstimate, RoundSummary, ScenarioSpace};

/// One cluster of scenarios in parameter space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioCluster {
    /// Centroid decoded back to parameter space.
    pub centroid: EncounterParams,
    /// Number of member scenarios.
    pub size: usize,
    /// Mean fitness of the members.
    pub mean_fitness: f64,
    /// The most common geometry class among members.
    pub dominant_class: GeometryClass,
    /// Member indices into the input slice.
    pub members: Vec<usize>,
}

/// K-means++ clustering of `(genome, fitness)` pairs in the normalized
/// scenario space.
///
/// Returns at most `k` clusters (fewer when there are fewer distinct
/// points). Deterministic for a given `seed`.
pub fn cluster_scenarios(
    space: &ScenarioSpace,
    scenarios: &[(Vec<f64>, f64)],
    k: usize,
    seed: u64,
) -> Vec<ScenarioCluster> {
    if scenarios.is_empty() || k == 0 {
        return Vec::new();
    }
    let points: Vec<Vec<f64>> = scenarios.iter().map(|(g, _)| space.normalize(g)).collect();
    let k = k.min(points.len());
    let mut rng = StdRng::seed_from_u64(seed);

    // k-means++ seeding.
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())].clone());
    while centroids.len() < k {
        let d2: Vec<f64> = points
            .iter()
            .map(|p| {
                centroids
                    .iter()
                    .map(|c| squared_distance(p, c))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let total: f64 = d2.iter().sum();
        if total <= 1e-18 {
            break; // all points coincide with existing centroids
        }
        let mut u = rng.gen::<f64>() * total;
        let mut chosen = points.len() - 1;
        for (i, w) in d2.iter().enumerate() {
            u -= w;
            if u <= 0.0 {
                chosen = i;
                break;
            }
        }
        centroids.push(points[chosen].clone());
    }

    // Lloyd iterations.
    let mut assignment = vec![0usize; points.len()];
    for _ in 0..50 {
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let best = centroids
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    squared_distance(p, a.1)
                        .partial_cmp(&squared_distance(p, b.1))
                        // audit: allow(panic_policy, squared distances of finite parameters always compare)
                        .expect("finite coordinates")
                })
                .map(|(j, _)| j)
                // audit: allow(panic_policy, min_by over k >= 1 centroids always yields one)
                .expect("at least one centroid");
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        // Recompute centroids.
        for (j, centroid) in centroids.iter_mut().enumerate() {
            let members: Vec<&Vec<f64>> = points
                .iter()
                .zip(&assignment)
                .filter(|(_, &a)| a == j)
                .map(|(p, _)| p)
                .collect();
            if members.is_empty() {
                continue;
            }
            for (d, slot) in centroid.iter_mut().enumerate() {
                *slot = members.iter().map(|m| m[d]).sum::<f64>() / members.len() as f64;
            }
        }
        if !changed {
            break;
        }
    }

    // Summarize.
    let mut clusters = Vec::new();
    for (j, centroid) in centroids.iter().enumerate() {
        let members: Vec<usize> = (0..points.len()).filter(|&i| assignment[i] == j).collect();
        if members.is_empty() {
            continue;
        }
        let mean_fitness =
            members.iter().map(|&i| scenarios[i].1).sum::<f64>() / members.len() as f64;
        let centroid_params = EncounterParams::from_slice(&space.denormalize(centroid));
        // BTreeMap, not HashMap: the counts feed `dominant_class`, and
        // any order-sensitive consumer of a per-instance-seeded map is
        // a silent nondeterminism (audit rule A1).
        let mut counts = std::collections::BTreeMap::new();
        for &i in &members {
            let params = EncounterParams::from_slice(&scenarios[i].0);
            *counts.entry(classify(&params)).or_insert(0usize) += 1;
        }
        let dominant_class = GeometryClass::ALL
            .iter()
            .copied()
            .max_by_key(|c| counts.get(c).copied().unwrap_or(0))
            // audit: allow(panic_policy, GeometryClass::ALL is a non-empty const)
            .expect("non-empty class list");
        clusters.push(ScenarioCluster {
            centroid: centroid_params,
            size: members.len(),
            mean_fitness,
            dominant_class,
            members,
        });
    }
    // audit: allow(panic_policy, mean fitness of a non-empty cluster is finite)
    clusters.sort_by(|a, b| b.mean_fitness.partial_cmp(&a.mean_fitness).expect("finite"));
    clusters
}

fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// One point of a campaign convergence series: budget spent vs estimate
/// precision after a round.
///
/// Half-widths here use the single campaign-wide semantics of
/// [`RatioEstimate::half_width`]: the **maximum one-sided width**
/// `max(hi − ratio, ratio − lo)` of the log-symmetric interval (infinite
/// while undefined) — the same reading the
/// [`crate::CampaignConfig::target_half_width`] early stop compares
/// against.
///
/// # Serialized form
///
/// An undefined (infinite) half-width serializes as JSON `null` and
/// deserializes back to `+∞` — the bare `Infinity` literal a derived
/// float serializer would emit is not valid JSON.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergencePoint {
    /// Round number (0 is the pilot).
    pub round: usize,
    /// Cumulative paired runs after this round.
    pub total_runs: usize,
    /// Paired (covariance-aware) risk ratio after this round.
    pub risk_ratio: RatioEstimate,
    /// Paired risk-ratio CI half-width (infinite while undefined).
    pub half_width: f64,
    /// Half-width of the covariance-free interval on the same tallies —
    /// never smaller than `half_width`; the gap is what exploiting the
    /// identical-seed pairing buys at this budget.
    pub unpaired_half_width: f64,
}

impl Serialize for ConvergencePoint {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("round".to_string(), self.round.serialize()),
            ("total_runs".to_string(), self.total_runs.serialize()),
            ("risk_ratio".to_string(), self.risk_ratio.serialize()),
            ("half_width".to_string(), finite_or_null(self.half_width)),
            (
                "unpaired_half_width".to_string(),
                finite_or_null(self.unpaired_half_width),
            ),
        ])
    }
}

impl Deserialize for ConvergencePoint {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        Ok(ConvergencePoint {
            round: usize::deserialize(v.field("round")?)?,
            total_runs: usize::deserialize(v.field("total_runs")?)?,
            risk_ratio: RatioEstimate::deserialize(v.field("risk_ratio")?)?,
            half_width: float_or(v.field("half_width")?, f64::INFINITY)?,
            unpaired_half_width: float_or(v.field("unpaired_half_width")?, f64::INFINITY)?,
        })
    }
}

/// The convergence series of a campaign's executed rounds, in order.
pub fn convergence_series(rounds: &[RoundSummary]) -> Vec<ConvergencePoint> {
    rounds
        .iter()
        .map(|r| ConvergencePoint {
            round: r.round,
            total_runs: r.total_runs,
            risk_ratio: r.risk_ratio,
            half_width: r.risk_ratio.half_width(),
            unpaired_half_width: r.risk_ratio_unpaired.half_width(),
        })
        .collect()
}

/// Cumulative runs after the first round whose paired risk-ratio CI
/// half-width (maximum one-sided width, see
/// [`RatioEstimate::half_width`]) is at most `target` — the
/// runs-to-target reading the uniform-vs-adaptive comparison is scored
/// on. `None` when no executed round got there.
pub fn runs_to_half_width(series: &[ConvergencePoint], target: f64) -> Option<usize> {
    series
        .iter()
        .find(|p| p.half_width <= target)
        .map(|p| p.total_runs)
}

/// Per-class fitness summary of a scenario batch: `(class, count, mean
/// fitness)` rows, the paper's Section VII analysis in table form.
pub fn class_summary(scenarios: &[(Vec<f64>, f64)]) -> Vec<(GeometryClass, usize, f64)> {
    GeometryClass::ALL
        .iter()
        .map(|&class| {
            let members: Vec<f64> = scenarios
                .iter()
                .filter(|(g, _)| classify(&EncounterParams::from_slice(g)) == class)
                .map(|(_, f)| *f)
                .collect();
            let mean = if members.is_empty() {
                0.0
            } else {
                members.iter().sum::<f64>() / members.len() as f64
            };
            (class, members.len(), mean)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uavca_encounter::EncounterParams;

    fn space() -> ScenarioSpace {
        ScenarioSpace::default()
    }

    fn batch() -> Vec<(Vec<f64>, f64)> {
        // Two tight groups: head-ons with high fitness, tail approaches
        // with low fitness (artificial, for clustering determinism).
        let mut out = Vec::new();
        for i in 0..10 {
            let mut p = EncounterParams::head_on_template();
            p.own_ground_speed_kt += i as f64 * 0.5;
            out.push((p.to_vector().to_vec(), 9000.0 + i as f64));
        }
        for i in 0..10 {
            let mut p = EncounterParams::tail_approach_template();
            p.own_ground_speed_kt += i as f64 * 0.5;
            out.push((p.to_vector().to_vec(), 100.0 + i as f64));
        }
        out
    }

    #[test]
    fn kmeans_separates_the_two_groups() {
        let clusters = cluster_scenarios(&space(), &batch(), 2, 0);
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0].size + clusters[1].size, 20);
        // The high-fitness cluster must be the head-on group.
        assert!(clusters[0].mean_fitness > clusters[1].mean_fitness);
        assert_eq!(clusters[0].dominant_class, GeometryClass::HeadOn);
        assert_eq!(clusters[1].dominant_class, GeometryClass::TailApproach);
        // Centroids decode to valid parameters near their group.
        assert!(
            clusters[0].centroid.intruder_bearing_rad.abs() > 2.0,
            "head-on bearing ~ ±π"
        );
    }

    #[test]
    fn clustering_is_deterministic() {
        let a = cluster_scenarios(&space(), &batch(), 3, 42);
        let b = cluster_scenarios(&space(), &batch(), 3, 42);
        assert_eq!(a, b);
    }

    /// Regression for the audit A1 fix: the class-count pass used a
    /// `HashMap`, which made any future order-sensitive consumer a
    /// latent nondeterminism. With `BTreeMap` + the `GeometryClass::ALL`
    /// scan, a dominant-class *tie* must resolve identically on every
    /// run — to the latest tied class in declaration order (the
    /// `max_by_key` contract).
    #[test]
    fn dominant_class_ties_resolve_in_declaration_order() {
        let mut scenarios = Vec::new();
        for i in 0..5 {
            let mut p = EncounterParams::head_on_template();
            p.own_ground_speed_kt += i as f64 * 0.25;
            scenarios.push((p.to_vector().to_vec(), 10.0));
            let mut q = EncounterParams::tail_approach_template();
            q.own_ground_speed_kt += i as f64 * 0.25;
            scenarios.push((q.to_vector().to_vec(), 10.0));
        }
        let first = cluster_scenarios(&space(), &scenarios, 1, 7);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].size, 10, "one cluster holds the 5-5 tie");
        // TailApproach is declared after HeadOn, so the tie resolves to
        // it — on this run and every other.
        assert_eq!(first[0].dominant_class, GeometryClass::TailApproach);
        for _ in 0..20 {
            let again = cluster_scenarios(&space(), &scenarios, 1, 7);
            assert_eq!(again, first, "tie-broken output must be run-stable");
        }
    }

    #[test]
    fn degenerate_inputs_are_handled() {
        assert!(cluster_scenarios(&space(), &[], 3, 0).is_empty());
        let one = vec![(
            EncounterParams::head_on_template().to_vector().to_vec(),
            5.0,
        )];
        let c = cluster_scenarios(&space(), &one, 5, 0);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].size, 1);
        assert!(cluster_scenarios(&space(), &one, 0, 0).is_empty());
    }

    #[test]
    fn convergence_series_and_runs_to_target() {
        use crate::WeightedRate;
        let rate = |r: f64| WeightedRate {
            rate: r,
            std_err: 0.01,
            ci_low: r - 0.02,
            ci_high: r + 0.02,
        };
        let ratio_with_hw = |hw: f64| RatioEstimate {
            ratio: 0.33,
            ci_low: if hw.is_finite() { 0.33 - hw } else { 0.0 },
            ci_high: if hw.is_finite() {
                0.33 + hw
            } else {
                f64::INFINITY
            },
            se_log: if hw.is_finite() { hw } else { f64::INFINITY },
        };
        let rounds: Vec<RoundSummary> = [(0, 120, f64::INFINITY), (1, 300, 0.4), (2, 600, 0.15)]
            .iter()
            .map(|&(round, total_runs, hw)| RoundSummary {
                round,
                allocated: vec![total_runs],
                runs_this_round: total_runs,
                total_runs,
                equipped_nmac: rate(0.1),
                unequipped_nmac: rate(0.3),
                risk_ratio: ratio_with_hw(hw),
                risk_ratio_unpaired: ratio_with_hw(hw * 2.0),
            })
            .collect();
        let series = convergence_series(&rounds);
        assert_eq!(series.len(), 3);
        assert!(series[0].half_width.is_infinite());
        assert!((series[2].half_width - 0.15).abs() < 1e-12);
        assert!((series[2].unpaired_half_width - 0.30).abs() < 1e-12);
        assert_eq!(runs_to_half_width(&series, 0.5), Some(300));
        assert_eq!(runs_to_half_width(&series, 0.15), Some(600));
        assert_eq!(runs_to_half_width(&series, 0.01), None);
    }

    #[test]
    fn class_summary_counts_and_averages() {
        let rows = class_summary(&batch());
        assert_eq!(rows.len(), 4);
        let head_on = rows.iter().find(|r| r.0 == GeometryClass::HeadOn).unwrap();
        assert_eq!(head_on.1, 10);
        assert!(head_on.2 > 8000.0);
        let crossing = rows
            .iter()
            .find(|r| r.0 == GeometryClass::Crossing)
            .unwrap();
        assert_eq!(crossing.1, 0);
        assert_eq!(crossing.2, 0.0);
    }
}
