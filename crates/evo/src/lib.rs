//! Real-coded genetic algorithm engine — the ECJ-equivalent substrate of
//! Zou, Alexander & McDermid (DSN 2016), Section VI-B.
//!
//! The paper encodes encounter scenarios as fixed-length real-valued
//! genomes, evaluates each by simulation, and evolves the population toward
//! higher fitness (more challenging encounters). This crate provides that
//! machinery, problem-agnostically:
//!
//! * [`Bounds`] — per-gene box constraints (the scenario parameter ranges),
//! * [`Individual`] / [`Population`] — evaluated genomes and their stats,
//! * [`Selection`], [`Crossover`], [`Mutation`] — the classic operator
//!   palette (tournament / roulette / rank; one-point / two-point /
//!   uniform / BLX-α / SBX; gaussian / uniform-reset / polynomial),
//! * [`GeneticAlgorithm`] — the generational engine with elitism and
//!   parallel fitness evaluation, recording every evaluation (the paper's
//!   Fig. 6 plots fitness per *encounter*, not per generation), and
//! * the budget-matched baseline the paper compares against,
//!   [`RandomSearch`].
//!
//! # Example
//!
//! Maximize the negative sphere function (optimum at the center):
//!
//! ```
//! use uavca_evo::{Bounds, GaConfig, GeneticAlgorithm};
//!
//! let bounds = Bounds::uniform(4, -5.0, 5.0)?;
//! let config = GaConfig::new(40, 25).seed(7);
//! let ga = GeneticAlgorithm::new(config, bounds);
//! let result = ga.run(|genes: &[f64]| -genes.iter().map(|x| x * x).sum::<f64>());
//! assert!(result.best.fitness > -0.5, "GA should get close to the optimum");
//! # Ok::<(), uavca_evo::EvoError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod baselines;
mod bounds;
mod engine;
mod error;
mod operators;
mod population;

pub use baselines::{RandomSearch, SearchResult};
pub use bounds::Bounds;
pub use engine::{EvaluationRecord, GaConfig, GaResult, GenerationStats, GeneticAlgorithm};
pub use error::EvoError;
pub use operators::{Crossover, Mutation, Selection};
pub use population::{Individual, Population};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, EvoError>;
