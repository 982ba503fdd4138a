use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::engine::evaluate_batch;
use crate::{Bounds, EvaluationRecord, Individual};

/// Result of a budget-bounded baseline search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchResult {
    /// Best individual ever evaluated.
    pub best: Individual,
    /// Every evaluation performed, in order (`generation` is always 0).
    pub evaluations: Vec<EvaluationRecord>,
    /// Index of the first evaluation that reached `target_fitness`, if a
    /// target was set and reached. The headline metric when comparing
    /// search efficiency (paper Section V / ref \[7\]).
    pub first_hit: Option<usize>,
}

impl SearchResult {
    /// Number of evaluations performed.
    pub fn num_evaluations(&self) -> usize {
        self.evaluations.len()
    }
}

/// Uniform random search over the genome box — the baseline the paper's
/// earlier study compared the GA against.
#[derive(Debug, Clone)]
pub struct RandomSearch {
    bounds: Bounds,
    budget: usize,
    seed: u64,
    threads: usize,
    target_fitness: Option<f64>,
    batch: usize,
}

impl RandomSearch {
    /// Creates a random search drawing `budget` samples.
    pub fn new(bounds: Bounds, budget: usize) -> Self {
        Self {
            bounds,
            budget,
            seed: 0,
            threads: 1,
            target_fitness: None,
            batch: 64,
        }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets evaluation threads (0 = hardware parallelism).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Stops as soon as `target` is reached (the comparison metric).
    pub fn target_fitness(mut self, target: f64) -> Self {
        self.target_fitness = Some(target);
        self
    }

    /// Runs the search.
    pub fn run<F>(&self, fitness: F) -> SearchResult
    where
        F: Fn(&[f64]) -> f64 + Sync,
    {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut evaluations = Vec::with_capacity(self.budget);
        let mut best: Option<Individual> = None;
        let mut first_hit = None;
        'outer: while evaluations.len() < self.budget {
            let n = self.batch.min(self.budget - evaluations.len());
            let genomes: Vec<Vec<f64>> = (0..n)
                .map(|_| self.bounds.sample_uniform(&mut rng))
                .collect();
            let fits = evaluate_batch(&genomes, &fitness, self.threads);
            for (genes, fit) in genomes.into_iter().zip(fits) {
                let index = evaluations.len();
                evaluations.push(EvaluationRecord {
                    index,
                    generation: 0,
                    genes: genes.clone(),
                    fitness: fit,
                });
                if best.as_ref().is_none_or(|b| fit > b.fitness) {
                    best = Some(Individual::new(genes, fit));
                }
                if first_hit.is_none() && self.target_fitness.is_some_and(|t| fit >= t) {
                    first_hit = Some(index);
                    break 'outer;
                }
            }
        }
        SearchResult {
            best: best.expect("budget >= 1"),
            evaluations,
            first_hit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn neg_sphere(genes: &[f64]) -> f64 {
        -genes.iter().map(|x| x * x).sum::<f64>()
    }

    fn bounds() -> Bounds {
        Bounds::uniform(4, -5.0, 5.0).unwrap()
    }

    #[test]
    fn random_search_respects_budget_and_tracks_best() {
        let r = RandomSearch::new(bounds(), 200).seed(1).run(neg_sphere);
        assert_eq!(r.num_evaluations(), 200);
        let max = r
            .evaluations
            .iter()
            .map(|e| e.fitness)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(r.best.fitness, max);
        assert!(r.first_hit.is_none());
    }

    #[test]
    fn random_search_stops_at_target() {
        // Target is easy: any sample with fitness > -40 (most are).
        let r = RandomSearch::new(bounds(), 10_000)
            .seed(2)
            .target_fitness(-40.0)
            .run(neg_sphere);
        let hit = r.first_hit.expect("easy target must be found");
        assert!(r.num_evaluations() <= hit + 64, "stops soon after the hit");
        assert!(r.evaluations[hit].fitness >= -40.0);
    }

    #[test]
    fn random_search_is_deterministic() {
        let a = RandomSearch::new(bounds(), 100).seed(9).run(neg_sphere);
        let b = RandomSearch::new(bounds(), 100).seed(9).run(neg_sphere);
        assert_eq!(a.best, b.best);
    }

    #[test]
    fn baselines_keep_genomes_in_bounds() {
        let b = bounds();
        let r = RandomSearch::new(b.clone(), 100).seed(5).run(neg_sphere);
        assert!(r.evaluations.iter().all(|e| b.contains(&e.genes)));
    }
}
