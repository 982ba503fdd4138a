//! The batch-evaluation engine: every "run N simulations" site in the
//! workspace, expressed as one declarative job pipeline.
//!
//! # Why an engine
//!
//! The paper's method is throughput-bound end to end: the Fig. 3 loop
//! evaluates 200 × 5 genomes at 100 stochastic simulations each, and the
//! Monte-Carlo baseline it complements burns even larger budgets chasing
//! rare events. Before this engine existed, each consumer looped on its
//! own — the Monte-Carlo estimate serially, the GA through its private
//! thread code — and every single run paid two boxed-avoider
//! constructions. The engine centralizes all of it:
//!
//! * **Jobs, not loops.** A [`SimJob`] is `(params, seed, equipage)`; a
//!   [`PairedJob`] is the equipped/unequipped pair on one seed from a
//!   *single* scenario generation. Consumers build job lists and submit.
//! * **One pool.** Execution fans out on [`uavca_exec::Executor`] — the
//!   same abstraction the GA's population evaluation and the MDP solver
//!   sweeps use — with work stealing for the uneven costs of alerting vs
//!   quiet encounters.
//! * **Determinism by construction.** Each job carries its seed, so it is
//!   a pure function; results are collected in job order. A batch returns
//!   bit-identical results for 1 thread or N (covered by tests in
//!   `tests/determinism.rs`).
//! * **Allocation reuse.** Each worker holds a [`RunScratch`](crate::RunScratch)
//!   — warm [`uavca_sim::MultiEncounterWorld`]s per aircraft count, mode
//!   and equipage — so steady-state
//!   batches run allocation-free and `AcasXu` construction stays out of
//!   the hot loop (the solved `LogicTable` is `Arc`-shared throughout, and
//!   its lookup path itself allocates nothing per decision).
//! * **One simulation path.** Every job flies the one
//!   [`uavca_sim::MultiEncounterWorld`] step (two-ship jobs at k = 2),
//!   the same path [`crate::EncounterRunner::run_once_with`] takes, so a
//!   batch outcome is the single-run outcome by construction.
//!
//! Consumers in this crate: [`crate::CampaignPlanner`] (paired
//! campaigns), [`crate::FitnessFunction`] (per-genome evaluation, used by
//! [`crate::SearchHarness`]), and [`crate::EncounterRunner::run_repeated`]
//! (the serial fast path over one warm scratch).

use serde::{Deserialize, Serialize};
use uavca_encounter::EncounterParams;
use uavca_exec::Executor;
use uavca_sim::EncounterOutcome;

use crate::splitting::{SplitJob, SplitOutcome};
use crate::{EncounterRunner, Equipage, RunScratch};

/// One simulation to run: scenario parameters, the seed that fully
/// determines its noise and disturbances, and the equipage to fly.
///
/// A job is its own complete description, so a batch's outcomes are a
/// pure function of its jobs whatever worker runs each one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimJob {
    /// The encounter to generate and fly.
    pub params: EncounterParams,
    /// Seed for every stochastic element of the run.
    pub seed: u64,
    /// What collision avoidance each aircraft carries.
    pub equipage: Equipage,
}

/// An equipped + unequipped run of the same scenario on the same seed,
/// generated once — the unit of paired risk-ratio estimation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairedJob {
    /// The encounter to generate and fly (twice).
    pub params: EncounterParams,
    /// Seed shared by both runs of the pair.
    pub seed: u64,
}

/// The two outcomes of a [`PairedJob`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairedOutcome {
    /// Outcome with the runner's configured equipage.
    pub equipped: EncounterOutcome,
    /// Outcome of the identical seed with no avoidance at all.
    pub unequipped: EncounterOutcome,
}

impl PairedOutcome {
    /// Whether the equipped run alerted although the unequipped replay
    /// stayed NMAC-free (the false-alert criterion).
    pub fn false_alert(&self) -> bool {
        self.equipped.false_alert(self.unequipped.nmac)
    }
}

/// How a [`BatchRunner`] advances its simulations — kept only as a
/// read-only label.
///
/// Every batch runs on the scalar path and
/// [`BatchRunner::current_engine`] always returns [`SimEngine::Scalar`].
/// The type survives because the benchmark harness still matches on it
/// to label its reports; nothing in the workspace constructs
/// [`SimEngine::Cohort`]. Both go once that label is retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEngine {
    /// One [`uavca_sim::MultiEncounterWorld`] per job, stepped to
    /// completion before the next job starts — the only engine.
    Scalar,
    /// A retired lockstep engine; never constructed.
    Cohort {
        /// Lockstep width of the retired engine.
        width: usize,
    },
}

/// Executes batches of simulation jobs on an [`Executor`] worker pool,
/// with deterministic (thread-count-independent) results and per-worker
/// allocation reuse.
///
/// Cross-process execution plugs in one layer up, at the job-level
/// [`crate::PairSource`] / [`crate::SplitSource`] contracts this runner
/// also satisfies: jobs and outcomes are plain data, closures are not.
#[derive(Debug, Clone)]
pub struct BatchRunner {
    runner: EncounterRunner,
    executor: Executor,
}

impl BatchRunner {
    /// A batch runner fanning out on `executor`.
    pub fn new(runner: EncounterRunner, executor: Executor) -> Self {
        Self { runner, executor }
    }

    /// A strictly in-thread batch runner (the right choice inside an
    /// already-parallel evaluation, e.g. per-genome fitness under the GA's
    /// population-level fan-out).
    pub fn serial(runner: EncounterRunner) -> Self {
        Self::new(runner, Executor::serial())
    }

    /// The executor in use.
    pub fn executor(&self) -> Executor {
        self.executor
    }

    /// The simulation engine batches run on: always
    /// [`SimEngine::Scalar`].
    pub fn current_engine(&self) -> SimEngine {
        SimEngine::Scalar
    }

    /// The wrapped runner.
    pub fn runner(&self) -> &EncounterRunner {
        &self.runner
    }

    /// Runs every job, returning outcomes in job order.
    pub fn run_batch(&self, jobs: &[SimJob]) -> Vec<EncounterOutcome> {
        self.executor
            .map_with(jobs, RunScratch::new, |scratch, job| {
                self.runner
                    .run_once_reusing(&job.params, job.seed, job.equipage, scratch)
            })
    }

    /// Runs every paired job (equipped + unequipped on one seed, one
    /// scenario generation each), in job order.
    pub fn run_paired(&self, jobs: &[PairedJob]) -> Vec<PairedOutcome> {
        self.executor
            .map_with(jobs, RunScratch::new, |scratch, job| {
                let (equipped, unequipped) =
                    self.runner.run_pair_reusing(&job.params, job.seed, scratch);
                PairedOutcome {
                    equipped,
                    unequipped,
                }
            })
    }

    /// Runs multilevel-splitting jobs in parallel, outcomes in job order.
    ///
    /// Each job is a pure function of its fields (root seed plus the
    /// [`crate::split_branch_seed`] rule), so batches stay bit-identical
    /// for any worker count.
    pub fn run_splits(&self, jobs: &[SplitJob]) -> Vec<SplitOutcome> {
        self.executor
            .map_with(jobs, RunScratch::new, |scratch, job| {
                self.runner.run_split_reusing(job, scratch)
            })
    }

    /// The batched equivalent of [`EncounterRunner::run_repeated`]: `runs`
    /// independent simulations of `params` with seeds `seed_base..`, with
    /// the runner's configured equipage.
    pub fn run_repeated(
        &self,
        params: &EncounterParams,
        runs: usize,
        seed_base: u64,
    ) -> Vec<EncounterOutcome> {
        let jobs =
            BatchRunner::repeated_jobs(params, self.runner.current_equipage(), runs, seed_base);
        self.run_batch(&jobs)
    }

    /// Builds the job list for `runs` repeats of one scenario.
    pub fn repeated_jobs(
        params: &EncounterParams,
        equipage: Equipage,
        runs: usize,
        seed_base: u64,
    ) -> Vec<SimJob> {
        (0..runs)
            .map(|k| SimJob {
                params: *params,
                seed: seed_base.wrapping_add(k as u64),
                equipage,
            })
            .collect()
    }

    /// Builds the paired job list for `runs` repeats of one scenario.
    pub fn repeated_paired_jobs(
        params: &EncounterParams,
        runs: usize,
        seed_base: u64,
    ) -> Vec<PairedJob> {
        (0..runs)
            .map(|k| PairedJob {
                params: *params,
                seed: seed_base.wrapping_add(k as u64),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runner() -> EncounterRunner {
        crate::runner::tests::runner().clone()
    }

    #[test]
    fn batch_matches_run_once_seed_for_seed() {
        let r = runner();
        let params = EncounterParams::head_on_template();
        let jobs: Vec<SimJob> = (0..12)
            .map(|k| SimJob {
                params,
                seed: 100 + k,
                equipage: Equipage::Both,
            })
            .collect();
        let batch = BatchRunner::new(r.clone(), Executor::new(4)).run_batch(&jobs);
        assert_eq!(batch.len(), jobs.len());
        for (job, out) in jobs.iter().zip(&batch) {
            assert_eq!(*out, r.run_once_with(&job.params, job.seed, job.equipage));
        }
    }

    #[test]
    fn paired_jobs_share_seed_and_scenario() {
        let r = runner();
        let params = EncounterParams::head_on_template();
        let jobs = BatchRunner::repeated_paired_jobs(&params, 6, 7);
        let outs = BatchRunner::new(r.clone(), Executor::new(3)).run_paired(&jobs);
        assert_eq!(outs.len(), 6);
        for (job, pair) in jobs.iter().zip(&outs) {
            assert_eq!(
                pair.equipped,
                r.run_once_with(&params, job.seed, Equipage::Both)
            );
            assert_eq!(
                pair.unequipped,
                r.run_once_with(&params, job.seed, Equipage::Neither)
            );
        }
        // A resolved head-on: the equipped run alerts, the unequipped run
        // collides; alerting on a real conflict is not a false alert.
        assert!(outs.iter().all(|p| p.unequipped.nmac && !p.false_alert()));
    }

    #[test]
    fn mixed_equipage_batches_keep_job_order() {
        let r = runner();
        let params = EncounterParams::tail_approach_template();
        let jobs: Vec<SimJob> = [Equipage::Both, Equipage::Neither, Equipage::OwnOnly]
            .into_iter()
            .cycle()
            .take(9)
            .enumerate()
            .map(|(k, equipage)| SimJob {
                params,
                seed: k as u64,
                equipage,
            })
            .collect();
        let serial = BatchRunner::serial(r.clone()).run_batch(&jobs);
        let parallel = BatchRunner::new(r, Executor::new(0)).run_batch(&jobs);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn run_repeated_agrees_with_runner() {
        let r = runner();
        let params = EncounterParams::tail_approach_template();
        let batched = BatchRunner::new(r.clone(), Executor::new(4)).run_repeated(&params, 10, 55);
        assert_eq!(batched, r.run_repeated(&params, 10, 55));
    }
}
