//! `uavca` — validation tooling for UAV collision avoidance systems
//! developed by model-based optimization.
//!
//! A from-scratch Rust reproduction of Zou, Alexander & McDermid, *"On the
//! Validation of a UAV Collision Avoidance System Developed by Model-Based
//! Optimization: Challenges and a Tentative Partial Solution"* (DSN 2016).
//!
//! This facade crate re-exports the whole stack under stable module names:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`mdp`] | `uavca-mdp` | MDPs, value/policy iteration, backward induction, interpolation grids |
//! | [`sim`] | `uavca-sim` | agent-based 3-D encounter simulation, ADS-B noise, coordination, monitors |
//! | [`encounter`] | `uavca-encounter` | 9-parameter CPA encoding, scenario generation, geometry classes, statistical model, stratification |
//! | [`evo`] | `uavca-evo` | genetic algorithm engine and the random-search baseline |
//! | [`acasx`] | `uavca-acasx` | the ACAS XU-like vertical logic (offline solve + online lookup) |
//! | [`ca2d`] | `uavca-ca2d` | the paper's Section III 2-D teaching example |
//! | [`svo`] | `uavca-svo` | the Selective Velocity Obstacle baseline and its 2-D simulation |
//! | [`validation`] | `uavca-validation` | the GA search harness, fitness functions, Monte-Carlo estimation, adaptive stratified campaigns, clustering |
//! | [`serve`] | `uavca-serve` | the sharded campaign service: wire protocol, channel/TCP transports, shard fleet backend, server + client |
//!
//! # Quickstart
//!
//! Search a small budget of encounters for situations the avoidance logic
//! handles poorly:
//!
//! ```no_run
//! use uavca::validation::{EncounterRunner, SearchConfig, SearchHarness};
//!
//! let runner = EncounterRunner::with_default_table();
//! let outcome = SearchHarness::new(runner, SearchConfig::default()).run_ga();
//! for s in outcome.top_scenarios.iter().take(5) {
//!     println!("{} fitness={:.0}", s.class, s.fitness);
//! }
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `DESIGN.md` /
//! `EXPERIMENTS.md` for the experiment index.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use uavca_acasx as acasx;
pub use uavca_ca2d as ca2d;
pub use uavca_encounter as encounter;
pub use uavca_evo as evo;
pub use uavca_mdp as mdp;
pub use uavca_serve as serve;
pub use uavca_sim as sim;
pub use uavca_svo as svo;
pub use uavca_validation as validation;
