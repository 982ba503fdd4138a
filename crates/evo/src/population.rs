use serde::{Deserialize, Serialize};

/// One evaluated candidate solution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Individual {
    /// The genome (scenario parameter vector).
    pub genes: Vec<f64>,
    /// The fitness assigned by evaluation (higher is better).
    pub fitness: f64,
}

impl Individual {
    /// Creates an evaluated individual.
    pub fn new(genes: Vec<f64>, fitness: f64) -> Self {
        Self { genes, fitness }
    }
}

/// A population of evaluated individuals plus summary statistics.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Population {
    members: Vec<Individual>,
}

impl Population {
    /// Creates a population from evaluated members.
    pub fn new(members: Vec<Individual>) -> Self {
        Self { members }
    }

    /// The members in their current order.
    pub fn members(&self) -> &[Individual] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The best individual (highest fitness), if any.
    pub fn best(&self) -> Option<&Individual> {
        self.members
            .iter()
            .max_by(|a, b| a.fitness.partial_cmp(&b.fitness).expect("finite fitness"))
    }

    /// Mean fitness, or NaN for an empty population.
    pub fn mean_fitness(&self) -> f64 {
        if self.members.is_empty() {
            return f64::NAN;
        }
        self.members.iter().map(|m| m.fitness).sum::<f64>() / self.members.len() as f64
    }

    /// Population standard deviation of fitness, or NaN if empty.
    pub fn std_fitness(&self) -> f64 {
        if self.members.is_empty() {
            return f64::NAN;
        }
        let mean = self.mean_fitness();
        let var = self
            .members
            .iter()
            .map(|m| (m.fitness - mean).powi(2))
            .sum::<f64>()
            / self.members.len() as f64;
        var.sqrt()
    }

    /// The `k` best members, highest fitness first.
    pub fn top_k(&self, k: usize) -> Vec<&Individual> {
        let mut refs: Vec<&Individual> = self.members.iter().collect();
        refs.sort_by(|a, b| b.fitness.partial_cmp(&a.fitness).expect("finite fitness"));
        refs.truncate(k);
        refs
    }
}

impl FromIterator<Individual> for Population {
    fn from_iter<T: IntoIterator<Item = Individual>>(iter: T) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

impl Extend<Individual> for Population {
    fn extend<T: IntoIterator<Item = Individual>>(&mut self, iter: T) {
        self.members.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop() -> Population {
        Population::new(vec![
            Individual::new(vec![0.0], 1.0),
            Individual::new(vec![1.0], 5.0),
            Individual::new(vec![2.0], 3.0),
        ])
    }

    #[test]
    fn best_and_stats() {
        let p = pop();
        assert_eq!(p.best().unwrap().fitness, 5.0);
        assert!((p.mean_fitness() - 3.0).abs() < 1e-12);
        let expected_std = ((4.0 + 4.0 + 0.0) / 3.0f64).sqrt();
        assert!((p.std_fitness() - expected_std).abs() < 1e-12);
    }

    #[test]
    fn top_k_sorted_desc() {
        let p = pop();
        let top = p.top_k(2);
        assert_eq!(top[0].fitness, 5.0);
        assert_eq!(top[1].fitness, 3.0);
        assert_eq!(p.top_k(10).len(), 3, "k larger than population is fine");
    }

    #[test]
    fn empty_population_stats_are_nan() {
        let p = Population::default();
        assert!(p.is_empty());
        assert!(p.best().is_none());
        assert!(p.mean_fitness().is_nan());
        assert!(p.std_fitness().is_nan());
    }

    #[test]
    fn collect_and_extend() {
        let mut p: Population = (0..3)
            .map(|i| Individual::new(vec![i as f64], i as f64))
            .collect();
        p.extend([Individual::new(vec![9.0], 9.0)]);
        assert_eq!(p.len(), 4);
        assert_eq!(p.best().unwrap().fitness, 9.0);
    }
}
