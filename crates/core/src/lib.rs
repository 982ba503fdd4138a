//! GA-based search for challenging UAV encounter situations — the core
//! contribution of Zou, Alexander & McDermid (DSN 2016).
//!
//! The validation problem: an ACAS XU-like logic is optimal *with respect
//! to its model*, but the model may misrepresent reality. Monte-Carlo
//! simulation can estimate event probabilities but burns enormous budgets
//! on rare events. This crate implements the paper's complementary
//! approach — **search** the scenario space for situations where undesired
//! events (mid-air collisions, false alarms) concentrate:
//!
//! * [`ScenarioSpace`]: the 9-parameter encounter encoding as a GA genome,
//! * [`EncounterRunner`]: wires a scenario into the 3-D simulation with a
//!   chosen equipage (ACAS XU both sides, one side, or none),
//! * [`BatchRunner`]: the batch-evaluation engine — every "run N
//!   simulations" site expressed as [`SimJob`]/[`PairedJob`] batches on a
//!   shared worker pool, deterministic across thread counts,
//! * [`FitnessFunction`]: the paper's Section VII fitness
//!   `mean(10000 / (1 + d_k))` over `K` stochastic runs, plus alternative
//!   objectives (alert-rate for false-alarm hunting),
//! * [`SearchHarness`]: the GA loop of Fig. 3 (scenario generator →
//!   simulation → fitness → evolve), with a budget-matched
//!   [`random search`](SearchHarness::run_random_search) baseline,
//! * [`CampaignPlanner`]: stratified Monte-Carlo over the statistical
//!   encounter model. [`run_uniform`](CampaignPlanner::run_uniform) at
//!   `target_half_width = ∞` is the paper's fixed-budget estimate (NMAC
//!   and alert rates with intervals, and a paired risk-ratio CI);
//!   [`run`](CampaignPlanner::run) is the adaptive variant — a pilot round
//!   over a geometry × CPA-band [`uavca_encounter::Stratification`], then
//!   Neyman reallocation of the remaining budget by each stratum's
//!   contribution to the *paired* log-risk-ratio variance (the arms replay
//!   identical seeds, so the estimator keeps the per-pair 2×2 table and
//!   exploits the between-arm covariance), with early stop on the paired
//!   risk-ratio CI half-width and a jackknife cross-check,
//! * [`RoundStepper`]: the one round loop — pilot, refinement rounds,
//!   early stop, checkpoint restore — that paired, k-aircraft
//!   ([`MultiCampaignPlanner`]) and multilevel-splitting
//!   ([`SplitPlanner`]) campaigns all run through their [`Family`] hooks,
//! * [`analysis`]: geometry classification of found scenarios and a
//!   k-means extension (the paper's "find *areas* of the search space"
//!   future work).
//!
//! # Example
//!
//! ```no_run
//! use uavca_validation::{EncounterRunner, SearchConfig, SearchHarness};
//!
//! let runner = EncounterRunner::with_coarse_table();
//! let config = SearchConfig::smoke(); // tiny budget for doc purposes
//! let outcome = SearchHarness::new(runner, config).run_ga();
//! println!("hardest encounter found: fitness {:.0}", outcome.result.best.fitness);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
// The panic policy: faults are typed values in these two crates, so a
// panic in library code needs a local `#[expect(…, reason = …)]` saying
// why it cannot fire or why crashing is the right response.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod analysis;
mod campaign;
mod engine;
mod fitness;
mod harness;
mod multi;
mod rate;
mod report;
mod rounds;
mod runner;
mod scenario;
mod splitting;

pub use campaign::{
    campaign_job_seed, jackknife_ratio, neyman_scores, paired_covariance, split_branch_seed,
    CampaignCheckpoint, CampaignConfig, CampaignConfigError, CampaignOutcome, CampaignPlanner,
    CampaignResumeError, CampaignStepper, PairSource, PairTable, Paired, RatioEstimate,
    RoundSummary, StratifiedEstimate, StratumEstimate, StratumTally, WeightedRate,
};
pub use engine::{BatchRunner, PairedJob, PairedOutcome, SimEngine, SimJob};
pub use fitness::{FitnessFunction, FitnessKind};
pub use harness::{SearchConfig, SearchHarness, SearchOutcome};
pub use multi::{
    DensityEstimate, Multi, MultiCampaignOutcome, MultiCampaignPlanner, MultiCampaignStepper,
    MultiJob, MultiPairedOutcome, MultiRoundSummary, MultiRunScratch, MultiSource,
    MultiStratifiedEstimate, MultiStratumEstimate, MultiStratumTally,
};
pub use rate::RateEstimate;
pub use report::{
    campaign_convergence_table, campaign_shard_table, campaign_stratum_table,
    split_convergence_table, split_stratum_table, ShardUsage, TextTable,
};
pub use rounds::{Family, PlannedRound, ResumeError, RoundStepper};
pub use runner::{EncounterRunner, Equipage, RunScratch};
pub use scenario::ScenarioSpace;
pub use splitting::{
    branch_schedule, split_neyman_scores, SplitCampaignOutcome, SplitCheckpoint, SplitConfig,
    SplitConfigError, SplitEstimate, SplitJob, SplitOutcome, SplitPlanner, SplitResumeError,
    SplitRoundSummary, SplitSource, SplitStepper, SplitStratumEstimate, SplitTally, Splitting,
};
