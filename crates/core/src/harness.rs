use serde::{Deserialize, Serialize};
use uavca_encounter::{classify, EncounterParams, GeometryClass};
use uavca_evo::{GaConfig, GaResult, GeneticAlgorithm, RandomSearch, SearchResult};

use crate::{EncounterRunner, FitnessFunction, FitnessKind, ScenarioSpace};

/// Configuration of a challenging-situation search (paper Section VII:
/// population 200, 5 generations, 100 simulations per evaluation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchConfig {
    /// GA population size.
    pub population_size: usize,
    /// GA generations.
    pub generations: usize,
    /// Simulations averaged per fitness evaluation.
    pub runs_per_eval: usize,
    /// RNG seed for the search (fitness noise is seeded per-genome).
    pub seed: u64,
    /// Worker threads for population evaluation (0 = hardware parallelism).
    pub threads: usize,
    /// The search objective.
    pub objective: FitnessKind,
}

impl Default for SearchConfig {
    /// The paper's experiment scale: 200 × 5 × 100.
    fn default() -> Self {
        Self {
            population_size: 200,
            generations: 5,
            runs_per_eval: 100,
            seed: 0,
            threads: 0,
            objective: FitnessKind::Proximity,
        }
    }
}

impl SearchConfig {
    /// A down-scaled configuration for tests and doctests (12 × 3 × 4).
    pub fn smoke() -> Self {
        Self {
            population_size: 12,
            generations: 3,
            runs_per_eval: 4,
            seed: 0,
            threads: 1,
            objective: FitnessKind::Proximity,
        }
    }

    /// Sets the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the evaluation thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the search objective.
    pub fn objective(mut self, objective: FitnessKind) -> Self {
        self.objective = objective;
        self
    }

    /// Total fitness evaluations of a GA run at this configuration.
    pub fn evaluation_budget(&self) -> usize {
        self.population_size * self.generations
    }
}

/// One found scenario with its score and geometry classification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FoundScenario {
    /// The encounter parameters.
    pub params: EncounterParams,
    /// The fitness it obtained.
    pub fitness: f64,
    /// Its geometry class.
    pub class: GeometryClass,
}

/// The result of a search: the raw GA output plus decoded top scenarios.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// Raw GA result (per-generation stats, every evaluation).
    pub result: GaResult,
    /// The best-scoring distinct scenarios, highest fitness first.
    pub top_scenarios: Vec<FoundScenario>,
}

impl SearchOutcome {
    /// Counts top scenarios per geometry class.
    pub fn class_histogram(&self) -> Vec<(GeometryClass, usize)> {
        GeometryClass::ALL
            .iter()
            .map(|&c| {
                (
                    c,
                    self.top_scenarios.iter().filter(|s| s.class == c).count(),
                )
            })
            .collect()
    }
}

/// The paper's Fig. 3 search loop: GA over encounter genomes, evaluated by
/// repeated stochastic simulation.
#[derive(Debug, Clone)]
pub struct SearchHarness {
    runner: EncounterRunner,
    space: ScenarioSpace,
    config: SearchConfig,
}

impl SearchHarness {
    /// Creates a harness over the default scenario space.
    pub fn new(runner: EncounterRunner, config: SearchConfig) -> Self {
        Self {
            runner,
            space: ScenarioSpace::default(),
            config,
        }
    }

    /// Overrides the scenario space.
    pub fn space(mut self, space: ScenarioSpace) -> Self {
        self.space = space;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    fn fitness(&self) -> FitnessFunction {
        // Per-genome evaluations go through a serial BatchRunner: the GA
        // fans out across genomes on the shared Executor pool, so the
        // inner per-evaluation batch must stay in-thread.
        FitnessFunction::with_batch(
            crate::BatchRunner::serial(self.runner.clone()),
            self.space.clone(),
            self.config.runs_per_eval,
        )
        .kind(self.config.objective)
    }

    /// Runs the GA search.
    pub fn run_ga(&self) -> SearchOutcome {
        let fitness = self.fitness();
        let ga_config = GaConfig::new(self.config.population_size, self.config.generations)
            .seed(self.config.seed)
            .threads(self.config.threads);
        let ga = GeneticAlgorithm::new(ga_config, self.space.bounds());
        let result = ga.run(|genes: &[f64]| fitness.evaluate(genes));
        let top_scenarios = self.extract_top(&result.evaluations, 20);
        SearchOutcome {
            result,
            top_scenarios,
        }
    }

    /// Runs uniform random search with the same evaluation budget — the
    /// baseline of the paper's earlier comparison study \[7\].
    pub fn run_random_search(&self) -> SearchResult {
        let fitness = self.fitness();
        RandomSearch::new(self.space.bounds(), self.config.evaluation_budget())
            .seed(self.config.seed)
            .threads(self.config.threads)
            .run(|genes: &[f64]| fitness.evaluate(genes))
    }

    /// Runs GA and random search until either reaches `target` fitness,
    /// returning the evaluation counts `(ga_evals, random_evals)` — `None`
    /// where the budget ran out first. The efficiency comparison metric.
    pub fn race_to_target(&self, target: f64) -> (Option<usize>, Option<usize>) {
        let fitness = self.fitness();
        let ga_config = GaConfig::new(self.config.population_size, self.config.generations)
            .seed(self.config.seed)
            .threads(self.config.threads)
            .target_fitness(target);
        let ga = GeneticAlgorithm::new(ga_config, self.space.bounds());
        let ga_result = ga.run(|genes: &[f64]| fitness.evaluate(genes));
        let ga_hit = ga_result
            .reached_target
            .then(|| {
                ga_result
                    .evaluations
                    .iter()
                    .position(|e| e.fitness >= target)
                    .map(|i| i + 1)
            })
            .flatten();

        let random = RandomSearch::new(self.space.bounds(), self.config.evaluation_budget())
            .seed(self.config.seed)
            .threads(self.config.threads)
            .target_fitness(target)
            .run(|genes: &[f64]| fitness.evaluate(genes));
        (ga_hit, random.first_hit.map(|i| i + 1))
    }

    fn extract_top(
        &self,
        evaluations: &[uavca_evo::EvaluationRecord],
        k: usize,
    ) -> Vec<FoundScenario> {
        let mut sorted: Vec<&uavca_evo::EvaluationRecord> = evaluations.iter().collect();
        // audit: allow(panic_policy, fitness values are finite by GA evaluation contract)
        sorted.sort_by(|a, b| b.fitness.partial_cmp(&a.fitness).expect("finite fitness"));
        let mut out: Vec<FoundScenario> = Vec::new();
        for rec in sorted {
            if out.len() >= k {
                break;
            }
            let params = self.space.decode(&rec.genes);
            // De-duplicate near-identical genomes (elites are re-evaluated
            // every generation).
            let unit = self.space.normalize(&rec.genes);
            let dup = out.iter().any(|s| {
                let u = self.space.normalize(&self.space.encode(&s.params));
                u.iter()
                    .zip(&unit)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max)
                    < 1e-6
            });
            if dup {
                continue;
            }
            out.push(FoundScenario {
                params,
                fitness: rec.fitness,
                class: classify(&params),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn harness() -> &'static SearchHarness {
        static H: OnceLock<SearchHarness> = OnceLock::new();
        H.get_or_init(|| {
            SearchHarness::new(EncounterRunner::with_coarse_table(), SearchConfig::smoke())
        })
    }

    #[test]
    fn ga_search_produces_full_budget_and_top_scenarios() {
        let outcome = harness().run_ga();
        assert_eq!(
            outcome.result.num_evaluations(),
            SearchConfig::smoke().evaluation_budget()
        );
        assert!(!outcome.top_scenarios.is_empty());
        // Top scenarios are sorted by fitness.
        for w in outcome.top_scenarios.windows(2) {
            assert!(w[0].fitness >= w[1].fitness);
        }
        // Histogram covers all classes.
        let hist = outcome.class_histogram();
        assert_eq!(hist.len(), 4);
        let total: usize = hist.iter().map(|(_, n)| n).sum();
        assert_eq!(total, outcome.top_scenarios.len());
    }

    #[test]
    fn random_search_uses_the_same_budget() {
        let result = harness().run_random_search();
        assert_eq!(
            result.num_evaluations(),
            SearchConfig::smoke().evaluation_budget()
        );
    }

    #[test]
    fn searches_are_deterministic() {
        let a = harness().run_ga();
        let b = harness().run_ga();
        assert_eq!(a.result.best, b.result.best);
    }

    #[test]
    fn race_reports_first_hits() {
        // An easy target every search will hit quickly: fitness > 0.
        let (ga, random) = harness().race_to_target(1.0);
        assert!(ga.is_some());
        assert!(random.is_some());
        assert!(ga.unwrap() >= 1 && random.unwrap() >= 1);
    }
}
