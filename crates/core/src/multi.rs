//! Multi-aircraft (k-body) campaign layer: jobs, the paired runner path,
//! batch fan-out, and the density × geometry stratified campaign planner.
//!
//! This is the n-body generalization of the paired pipeline in
//! [`crate::campaign`]: a [`MultiJob`] flies one k-aircraft scenario
//! twice on the same seed — every aircraft equipped, then every aircraft
//! unequipped — and the campaign tallies the **per-aircraft-pair** NMAC
//! indicators of the two arms into the same 2×2 [`PairTable`]s the
//! two-ship estimator uses. The unit of estimation is the aircraft pair:
//! a k-aircraft run contributes `k·(k−1)/2` matched indicator pairs, so
//! the combined risk ratio reads "by what factor does equipage scale the
//! per-pair NMAC probability", directly comparable across traffic
//! densities. Pairs within one run share an airspace and are therefore
//! positively correlated; the per-pair intervals treat them as
//! independent and are accordingly anti-conservative at high density,
//! though only slightly: on the coarse simulator the measured
//! per-encounter NMAC-count design effect is 1.00 / 1.05 / 1.12 at
//! k = 2 / 4 / 8, so the half-width is understated by at most ~6 % (see
//! DESIGN.md for the measurement). The rigged-source coverage tests in
//! `tests/multi_statistics.rs` pin the independent-pair baseline.
//!
//! The round loop is the shared [`crate::RoundStepper`]; this module
//! supplies the [`Multi`] family it runs.
//!
//! Determinism follows the exact pairwise discipline: every job derives
//! from `(campaign_seed, stratum, round, index)` via
//! [`crate::campaign_job_seed`], parameters come from the job's own
//! `StdRng` and the simulation seed from the domain-separated
//! `SIM_STREAM` split, so a campaign's every number is bit-identical
//! across thread counts, shard splits and scheduling (enforced by
//! `tests/multi_determinism.rs`).

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use uavca_encounter::{
    MultiEncounterModel, MultiEncounterParams, MultiScenarioGenerator, MultiStratum,
};
use uavca_exec::{Backend, Executor};
use uavca_sim::{MultiEncounterOutcome, MultiMode};

use crate::rounds::{Family, PlannedRound, RoundStepper};
use crate::{
    jackknife_ratio, neyman_scores, paired_covariance, BatchRunner, CampaignConfig,
    CampaignConfigError, EncounterRunner, Equipage, PairTable, RateEstimate, RatioEstimate,
    RunScratch, WeightedRate,
};

/// One multi-aircraft paired run: the k-aircraft scenario, the seed both
/// arms replay, and the equipage composition the equipped arm flies.
///
/// Like [`crate::PairedJob`], a job is its own complete description —
/// plain serializable data, pure per job — so batches cross process and
/// machine boundaries without losing determinism.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiJob {
    /// The k-aircraft encounter to generate and fly (twice).
    pub params: MultiEncounterParams,
    /// Seed shared by both arms of the pair.
    pub seed: u64,
    /// How the equipped arm composes its avoidance logics.
    pub mode: MultiMode,
}

/// The two arms of a [`MultiJob`]: the same scenario and seed with every
/// aircraft equipped, and with no avoidance at all.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiPairedOutcome {
    /// Outcome with every aircraft running the avoidance logic in the
    /// job's [`MultiMode`].
    pub equipped: MultiEncounterOutcome,
    /// Outcome of the identical seed with no avoidance at all.
    pub unequipped: MultiEncounterOutcome,
}

impl MultiPairedOutcome {
    /// Whether any equipped aircraft alerted at least once.
    pub fn alerted(&self) -> bool {
        self.equipped.alert_steps.iter().any(|&s| s > 0)
    }

    /// Whether the equipped arm alerted although the unequipped replay
    /// stayed NMAC-free on every pair (the multi false-alert criterion).
    pub fn false_alert(&self) -> bool {
        self.alerted() && !self.unequipped.nmac_any()
    }
}

/// Anything that can fly a batch of multi-aircraft paired jobs — the
/// k-body counterpart of [`crate::PairSource`]. [`BatchRunner`] is the
/// production source; the `uavca-serve` sharded backend implements the
/// same contract over the wire, and tests substitute rigged generators
/// with known per-pair joint rates.
pub trait MultiSource {
    /// Runs every job, returning outcomes in job order. Implementations
    /// must be pure per job (outcome a function of `params`, `seed` and
    /// `mode` only) for campaign determinism to hold.
    fn run_multis(&self, jobs: &[MultiJob]) -> Vec<MultiPairedOutcome>;
}

/// The scratch of multi-aircraft paired runs: [`RunScratch`] keeps one
/// warm world per aircraft count, mode and arm.
pub type MultiRunScratch = RunScratch;

impl EncounterRunner {
    /// Runs both arms of one multi-aircraft paired job from a **single**
    /// scenario generation — the k-body counterpart of
    /// [`EncounterRunner::run_pair_reusing`], flown as one job by
    /// [`uavca_sim::MultiEncounterWorld::run_paired`]. Outcomes are
    /// bit-identical to two solo runs, whatever the scratch previously
    /// held.
    pub fn run_multi_pair_reusing(
        &self,
        job: &MultiJob,
        scratch: &mut RunScratch,
    ) -> MultiPairedOutcome {
        let initial = MultiScenarioGenerator::default().generate(&job.params);
        let (world, twin) = self.fly_paired(&initial, job.mode, Equipage::Both, job.seed, scratch);
        MultiPairedOutcome {
            equipped: world.outcome(),
            unequipped: twin.outcome(),
        }
    }

    /// Runs one multi-aircraft paired job on a cold scratch.
    pub fn run_multi_pair(&self, job: &MultiJob) -> MultiPairedOutcome {
        self.run_multi_pair_reusing(job, &mut RunScratch::new())
    }
}

impl<B: Backend> BatchRunner<B> {
    /// Runs multi-aircraft paired jobs in parallel, outcomes in job
    /// order. Each job is a pure function of its fields, so batches are
    /// bit-identical for any worker count.
    pub fn run_multis(&self, jobs: &[MultiJob]) -> Vec<MultiPairedOutcome> {
        self.backend()
            .map_with(jobs, RunScratch::new, |scratch, job| {
                self.runner().run_multi_pair_reusing(job, scratch)
            })
    }
}

impl<B: Backend> MultiSource for BatchRunner<B> {
    fn run_multis(&self, jobs: &[MultiJob]) -> Vec<MultiPairedOutcome> {
        BatchRunner::run_multis(self, jobs)
    }
}

/// Per-stratum running counts of a multi campaign: the per-aircraft-pair
/// 2×2 joint table plus per-encounter alerting tallies.
///
/// Every cell is an integer count, the same shape that holds sharded
/// pairwise campaigns to bit-identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiStratumTally {
    /// Joint 2×2 table over **aircraft pairs** (a k-aircraft encounter
    /// contributes `k·(k−1)/2` entries).
    pub pairs: PairTable,
    /// Encounters (multi paired runs) absorbed.
    pub runs: usize,
    /// Encounters whose equipped arm alerted at least once.
    pub alerts: usize,
    /// Encounters alerting although the unequipped replay stayed
    /// NMAC-free on every pair.
    pub false_alerts: usize,
}

impl MultiStratumTally {
    /// Folds one multi paired outcome into the tally: each aircraft pair
    /// is matched between the two arms by its canonical
    /// [`uavca_sim::pair_index`] position and absorbed as one 2×2 entry.
    ///
    /// # Panics
    ///
    /// Panics if the two arms disagree on the pair count — a
    /// [`MultiSource`] bug that would silently corrupt the tally.
    pub fn absorb(&mut self, outcome: &MultiPairedOutcome) {
        assert_eq!(
            outcome.equipped.pairs.len(),
            outcome.unequipped.pairs.len(),
            "both arms of a multi pair fly the same aircraft"
        );
        for (e, u) in outcome.equipped.pairs.iter().zip(&outcome.unequipped.pairs) {
            self.pairs.absorb_flags(e.nmac, u.nmac);
        }
        self.runs += 1;
        if outcome.alerted() {
            self.alerts += 1;
        }
        if outcome.false_alert() {
            self.false_alerts += 1;
        }
    }

    /// Aircraft-pair samples recorded (the trials of the 2×2 table).
    pub fn pair_samples(&self) -> usize {
        self.pairs.runs()
    }
}

/// Per-stratum outcome counts of a multi campaign with Wilson intervals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiStratumEstimate {
    /// The density × geometry stratum.
    pub stratum: MultiStratum,
    /// Its probability mass under the model.
    pub weight: f64,
    /// Encounters spent here.
    pub runs: usize,
    /// Aircraft-pair samples recorded (`runs × k·(k−1)/2`).
    pub pair_samples: usize,
    /// The joint per-pair 2×2 table the rates below are marginals of.
    pub pairs: PairTable,
    /// Equipped per-pair NMAC rate.
    pub equipped_nmac: RateEstimate,
    /// Unequipped per-pair NMAC rate on identical seeds.
    pub unequipped_nmac: RateEstimate,
    /// Rate of pairs whose two arms disagree on NMAC.
    pub disagreement: RateEstimate,
    /// Fraction of encounters with at least one alert.
    pub alert: RateEstimate,
    /// Fraction of encounters alerting although the unequipped replay
    /// stayed NMAC-free.
    pub false_alert: RateEstimate,
}

/// The density-marginal slice of a multi campaign: per-pair rates and
/// the paired risk ratio over the geometry strata of one traffic
/// density — the row of the "does equipage still help at 10× density"
/// sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DensityEstimate {
    /// Aircraft per encounter in this density band.
    pub density: usize,
    /// Encounters spent in this band.
    pub runs: usize,
    /// Combined equipped per-pair NMAC rate over the band's geometry
    /// strata (weights renormalized within the band).
    pub equipped_nmac: WeightedRate,
    /// Combined unequipped per-pair NMAC rate of the band.
    pub unequipped_nmac: WeightedRate,
    /// The band's paired (covariance-aware) per-pair risk ratio.
    pub risk_ratio: RatioEstimate,
}

/// The stratified estimate of a multi campaign: per-stratum tables and
/// intervals, combined per-pair rates, the paired risk ratio with its
/// unpaired and jackknife companions, and the per-density marginals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiStratifiedEstimate {
    /// Per-stratum estimates, in canonical (density-major) order.
    pub strata: Vec<MultiStratumEstimate>,
    /// Total encounters across all strata.
    pub total_runs: usize,
    /// Total aircraft-pair samples across all strata.
    pub total_pair_samples: usize,
    /// Combined equipped per-pair NMAC rate.
    pub equipped_nmac: WeightedRate,
    /// Combined unequipped per-pair NMAC rate.
    pub unequipped_nmac: WeightedRate,
    /// Combined per-pair disagreement rate.
    pub disagreement: WeightedRate,
    /// Combined per-encounter alert rate.
    pub alert: WeightedRate,
    /// Combined per-encounter false-alert rate.
    pub false_alert: WeightedRate,
    /// Stratified between-arm covariance of the two per-pair rates.
    pub covariance: f64,
    /// `equipped / unequipped` per-pair NMAC risk ratio with the paired
    /// (covariance-aware) CI — the campaign's primary deliverable and
    /// the interval the early stop watches.
    pub risk_ratio: RatioEstimate,
    /// The covariance-free CI on the same rates (never tighter).
    pub risk_ratio_unpaired: RatioEstimate,
    /// The stratified delete-one-pair jackknife cross-check.
    pub risk_ratio_jackknife: RatioEstimate,
    /// Per-density marginal estimates, in the model's density order —
    /// the density-sweep table.
    pub densities: Vec<DensityEstimate>,
}

/// Convergence snapshot appended after every multi campaign round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiRoundSummary {
    /// Round number (0 is the pilot).
    pub round: usize,
    /// Encounters allocated to each stratum this round (canonical
    /// stratum order).
    pub allocated: Vec<usize>,
    /// Encounters executed this round.
    pub runs_this_round: usize,
    /// Cumulative encounters after this round.
    pub total_runs: usize,
    /// Combined equipped per-pair NMAC rate after this round.
    pub equipped_nmac: WeightedRate,
    /// Combined unequipped per-pair NMAC rate after this round.
    pub unequipped_nmac: WeightedRate,
    /// Combined paired risk ratio after this round (the early-stop
    /// interval).
    pub risk_ratio: RatioEstimate,
}

/// The result of a multi campaign: the final stratified estimate plus
/// the round-by-round convergence trail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiCampaignOutcome {
    /// The final stratified estimate.
    pub estimate: MultiStratifiedEstimate,
    /// One summary per executed round, in order.
    pub rounds: Vec<MultiRoundSummary>,
    /// Whether the risk-ratio CI reached the configured target
    /// half-width before exhausting `max_rounds`.
    pub reached_target: bool,
}

impl MultiCampaignOutcome {
    /// Total encounters spent.
    pub fn total_runs(&self) -> usize {
        self.estimate.total_runs
    }
}

/// The k-aircraft campaign family: [`MultiJob`]s sampled from the
/// density × geometry [`MultiEncounterModel`], tallied per aircraft pair
/// into [`MultiStratumTally`]s — the [`Family`] behind
/// [`MultiCampaignStepper`].
#[derive(Debug, Clone)]
pub struct Multi {
    model: MultiEncounterModel,
    mode: MultiMode,
    strata: Vec<MultiStratum>,
    weights: Vec<f64>,
}

impl Family for Multi {
    type Job = MultiJob;
    type Outcome = MultiPairedOutcome;
    type Tally = MultiStratumTally;
    type Estimate = MultiStratifiedEstimate;
    type Summary = MultiRoundSummary;
    type Report = MultiCampaignOutcome;

    fn empty_tallies(&self) -> Vec<MultiStratumTally> {
        vec![MultiStratumTally::default(); self.strata.len()]
    }

    fn scores(&mut self, tallies: &[MultiStratumTally], adaptive: bool) -> Vec<f64> {
        if adaptive {
            let tables: Vec<PairTable> = tallies.iter().map(|t| t.pairs).collect();
            neyman_scores(&self.weights, &tables)
        } else {
            self.weights.clone()
        }
    }

    fn job(&self, stratum: usize, rng: &mut StdRng, sim_seed: u64) -> MultiJob {
        MultiJob {
            params: self.model.sample_in(self.strata[stratum], rng),
            seed: sim_seed,
            mode: self.mode,
        }
    }

    fn absorb(tally: &mut MultiStratumTally, _job: &MultiJob, outcome: &MultiPairedOutcome) {
        tally.absorb(outcome);
    }

    fn runs(tally: &MultiStratumTally) -> usize {
        tally.runs
    }

    fn estimate(&self, tallies: &[MultiStratumTally]) -> MultiStratifiedEstimate {
        let (strata, weights) = (&self.strata, &self.weights);
        let per_stratum: Vec<MultiStratumEstimate> = strata
            .iter()
            .zip(weights)
            .zip(tallies)
            .map(|((&stratum, &weight), t)| MultiStratumEstimate {
                stratum,
                weight,
                runs: t.runs,
                pair_samples: t.pair_samples(),
                pairs: t.pairs,
                equipped_nmac: RateEstimate::wilson(t.pairs.equipped_nmac(), t.pair_samples()),
                unequipped_nmac: RateEstimate::wilson(t.pairs.unequipped_nmac(), t.pair_samples()),
                disagreement: RateEstimate::wilson(t.pairs.disagree(), t.pair_samples()),
                alert: RateEstimate::wilson(t.alerts, t.runs),
                false_alert: RateEstimate::wilson(t.false_alerts, t.runs),
            })
            .collect();
        let pair_cells = |pick: fn(&MultiStratumTally) -> usize| -> Vec<(f64, usize, usize)> {
            weights
                .iter()
                .zip(tallies)
                .map(|(&w, t)| (w, pick(t), t.pair_samples()))
                .collect()
        };
        let run_cells = |pick: fn(&MultiStratumTally) -> usize| -> Vec<(f64, usize, usize)> {
            weights
                .iter()
                .zip(tallies)
                .map(|(&w, t)| (w, pick(t), t.runs))
                .collect()
        };
        let tables: Vec<PairTable> = tallies.iter().map(|t| t.pairs).collect();
        let equipped_nmac = WeightedRate::combine(&pair_cells(|t| t.pairs.equipped_nmac()));
        let unequipped_nmac = WeightedRate::combine(&pair_cells(|t| t.pairs.unequipped_nmac()));
        let covariance = paired_covariance(weights, &tables);

        let densities = self
            .model
            .densities
            .iter()
            .enumerate()
            .map(|(di, &density)| {
                let in_band: Vec<usize> = (0..strata.len())
                    .filter(|&si| strata[si].density_index == di)
                    .collect();
                let band_weights: Vec<f64> = in_band.iter().map(|&si| weights[si]).collect();
                let band_tables: Vec<PairTable> =
                    in_band.iter().map(|&si| tallies[si].pairs).collect();
                let band_cells = |pick: fn(&PairTable) -> usize| -> Vec<(f64, usize, usize)> {
                    band_weights
                        .iter()
                        .zip(&band_tables)
                        .map(|(&w, t)| (w, pick(t), t.runs()))
                        .collect()
                };
                let e = WeightedRate::combine(&band_cells(PairTable::equipped_nmac));
                let u = WeightedRate::combine(&band_cells(PairTable::unequipped_nmac));
                let cov = paired_covariance(&band_weights, &band_tables);
                DensityEstimate {
                    density,
                    runs: in_band.iter().map(|&si| tallies[si].runs).sum(),
                    risk_ratio: RatioEstimate::paired(&e, &u, cov),
                    equipped_nmac: e,
                    unequipped_nmac: u,
                }
            })
            .collect();

        MultiStratifiedEstimate {
            total_runs: tallies.iter().map(|t| t.runs).sum(),
            total_pair_samples: tallies.iter().map(MultiStratumTally::pair_samples).sum(),
            covariance,
            risk_ratio: RatioEstimate::paired(&equipped_nmac, &unequipped_nmac, covariance),
            risk_ratio_unpaired: RatioEstimate::from_rates(&equipped_nmac, &unequipped_nmac),
            risk_ratio_jackknife: jackknife_ratio(weights, &tables),
            disagreement: WeightedRate::combine(&pair_cells(|t| t.pairs.disagree())),
            alert: WeightedRate::combine(&run_cells(|t| t.alerts)),
            false_alert: WeightedRate::combine(&run_cells(|t| t.false_alerts)),
            strata: per_stratum,
            equipped_nmac,
            unequipped_nmac,
            densities,
        }
    }

    fn risk_ratio(estimate: &MultiStratifiedEstimate) -> &RatioEstimate {
        &estimate.risk_ratio
    }

    fn summarize(
        planned: &PlannedRound<MultiJob>,
        estimate: &MultiStratifiedEstimate,
    ) -> MultiRoundSummary {
        MultiRoundSummary {
            round: planned.round,
            allocated: planned.allocated.clone(),
            runs_this_round: planned.jobs.len(),
            total_runs: estimate.total_runs,
            equipped_nmac: estimate.equipped_nmac,
            unequipped_nmac: estimate.unequipped_nmac,
            risk_ratio: estimate.risk_ratio,
        }
    }

    fn report(
        estimate: MultiStratifiedEstimate,
        rounds: Vec<MultiRoundSummary>,
        reached_target: bool,
    ) -> MultiCampaignOutcome {
        MultiCampaignOutcome {
            estimate,
            rounds,
            reached_target,
        }
    }
}

/// Plans and executes adaptive (or uniform-baseline) stratified
/// campaigns over the [`MultiEncounterModel`] — the k-body analogue of
/// [`crate::CampaignPlanner`], answering "does equipage still help as
/// traffic density scales, and does coordinated deconfliction beat
/// pairwise composition".
#[derive(Debug, Clone)]
pub struct MultiCampaignPlanner {
    runner: EncounterRunner,
    model: MultiEncounterModel,
    mode: MultiMode,
    config: CampaignConfig,
}

impl MultiCampaignPlanner {
    /// A planner with the default multi model and pairwise composition.
    pub fn new(runner: EncounterRunner, config: CampaignConfig) -> Self {
        Self {
            runner,
            model: MultiEncounterModel::default(),
            mode: MultiMode::Pairwise,
            config,
        }
    }

    /// Overrides the multi encounter model.
    pub fn model(mut self, model: MultiEncounterModel) -> Self {
        self.model = model;
        self
    }

    /// Selects the equipage composition the equipped arm flies.
    pub fn mode(mut self, mode: MultiMode) -> Self {
        self.mode = mode;
        self
    }

    /// Adjusts the campaign configuration in place (builder-style).
    pub fn config_with(mut self, adjust: impl FnOnce(&mut CampaignConfig)) -> Self {
        adjust(&mut self.config);
        self
    }

    /// The configured campaign parameters.
    pub fn current_config(&self) -> CampaignConfig {
        self.config
    }

    /// The configured multi model.
    pub fn current_model(&self) -> &MultiEncounterModel {
        &self.model
    }

    /// The configured equipage composition.
    pub fn current_mode(&self) -> MultiMode {
        self.mode
    }

    /// Runs the adaptive campaign on the shared worker pool.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignConfigError`] when the configuration is
    /// degenerate; no simulation runs in that case.
    pub fn run(&self) -> Result<MultiCampaignOutcome, CampaignConfigError> {
        let batch = BatchRunner::new(self.runner.clone(), Executor::new(self.config.threads));
        self.run_with(&batch)
    }

    /// Runs the adaptive campaign against a caller-supplied job source
    /// (the sharded backend, or rigged generators in tests).
    ///
    /// # Errors
    ///
    /// Returns [`CampaignConfigError`] when the configuration is
    /// degenerate; the source is never invoked in that case.
    pub fn run_with<S: MultiSource>(
        &self,
        source: &S,
    ) -> Result<MultiCampaignOutcome, CampaignConfigError> {
        self.drive(source, true)
    }

    /// Runs the *uniform* baseline against a caller-supplied source:
    /// identical schedule and seed rule, every round split
    /// proportionally to stratum mass.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignConfigError`] when the configuration is
    /// degenerate; the source is never invoked in that case.
    pub fn run_uniform_with<S: MultiSource>(
        &self,
        source: &S,
    ) -> Result<MultiCampaignOutcome, CampaignConfigError> {
        self.drive(source, false)
    }

    fn drive<S: MultiSource>(
        &self,
        source: &S,
        adaptive: bool,
    ) -> Result<MultiCampaignOutcome, CampaignConfigError> {
        Ok(self
            .stepper_with(adaptive)?
            .drive(|jobs| source.run_multis(jobs), |_| {}))
    }

    fn stepper_with(&self, adaptive: bool) -> Result<MultiCampaignStepper, CampaignConfigError> {
        self.config.validate()?;
        let strata = self.model.strata();
        let weights = strata.iter().map(|&s| self.model.weight(s)).collect();
        let family = Multi {
            model: self.model.clone(),
            mode: self.mode,
            strata,
            weights,
        };
        Ok(RoundStepper::new(family, self.config.schedule(), adaptive))
    }

    /// A fresh adaptive (Neyman-allocated) stepper for this planner —
    /// the resumable round-by-round equivalent of
    /// [`MultiCampaignPlanner::run`].
    ///
    /// # Errors
    ///
    /// Returns [`CampaignConfigError`] when the configuration is
    /// degenerate.
    pub fn stepper(&self) -> Result<MultiCampaignStepper, CampaignConfigError> {
        self.stepper_with(true)
    }
}

/// The round-by-round k-aircraft campaign executor: the shared
/// [`RoundStepper`] over the [`Multi`] family.
pub type MultiCampaignStepper = RoundStepper<Multi>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::splitmix64;
    use rand::SeedableRng;
    use uavca_sim::{pairs, PairOutcome};

    /// A deterministic fake source with rigged per-pair joint rates: the
    /// indicator pair of each aircraft pair derives from the job seed
    /// and the pair index alone, so campaigns over it are pure.
    struct Rigged;

    fn rigged_outcome(job: &MultiJob) -> MultiPairedOutcome {
        let n = job.params.num_aircraft();
        let arm = |equipped: bool| -> MultiEncounterOutcome {
            let pair_list: Vec<PairOutcome> = pairs(n)
                .enumerate()
                .map(|(pi, (a, b))| {
                    let h = splitmix64(job.seed ^ (pi as u64) << 8 ^ u64::from(equipped));
                    PairOutcome {
                        a,
                        b,
                        nmac: h.is_multiple_of(10),
                        first_nmac_time_s: None,
                        min_separation_ft: 1000.0,
                        min_horizontal_ft: 900.0,
                        min_vertical_ft: 400.0,
                        time_of_min_s: 40.0,
                    }
                })
                .collect();
            MultiEncounterOutcome {
                pairs: pair_list,
                alert_steps: vec![usize::from(equipped); n],
                reversals: vec![0; n],
                first_alert_time_s: equipped.then_some(10.0),
                duration_s: 100.0,
            }
        };
        MultiPairedOutcome {
            equipped: arm(true),
            unequipped: arm(false),
        }
    }

    impl MultiSource for Rigged {
        fn run_multis(&self, jobs: &[MultiJob]) -> Vec<MultiPairedOutcome> {
            jobs.iter().map(rigged_outcome).collect()
        }
    }

    fn planner() -> MultiCampaignPlanner {
        let runner = crate::runner::tests::runner().clone();
        MultiCampaignPlanner::new(
            runner,
            CampaignConfig {
                seed: 11,
                pilot_per_stratum: 4,
                round_runs: 18,
                max_rounds: 2,
                target_half_width: f64::INFINITY,
                ..CampaignConfig::default()
            },
        )
    }

    #[test]
    fn tally_absorb_counts_every_pair() {
        let job = MultiJob {
            params: MultiEncounterModel::default()
                .sample_in(MultiEncounterModel::default().strata()[4], &mut seeded(3)),
            seed: 9,
            mode: MultiMode::Pairwise,
        };
        let n = job.params.num_aircraft();
        let outcome = rigged_outcome(&job);
        let mut tally = MultiStratumTally::default();
        tally.absorb(&outcome);
        assert_eq!(tally.runs, 1);
        assert_eq!(tally.pair_samples(), n * (n - 1) / 2);
    }

    fn seeded(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn planned_rounds_are_pure_functions_of_the_tallies() {
        let p = planner();
        let mut a = p.stepper().unwrap();
        let mut b = p.stepper().unwrap();
        for _ in 0..3 {
            let ra = a.plan_round().unwrap();
            // Dropping a plan and re-planning replays it identically.
            let _ = b.plan_round().unwrap();
            let rb = b.plan_round();
            panic_on_mismatch(&ra, rb.as_ref().unwrap());
            let oa = Rigged.run_multis(&ra.jobs);
            a.complete_round(&ra, &oa);
            b.complete_round(rb.as_ref().unwrap(), &oa);
        }
        assert_eq!(a.outcome(), b.outcome());
    }

    fn panic_on_mismatch(a: &PlannedRound<MultiJob>, b: &PlannedRound<MultiJob>) {
        assert_eq!(a.round, b.round);
        assert_eq!(a.allocated, b.allocated);
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.owners, b.owners);
    }

    #[test]
    fn campaign_over_rigged_source_estimates_near_unity_ratio() {
        let outcome = planner().run_with(&Rigged).unwrap();
        assert_eq!(outcome.rounds.len(), 3);
        // Both rigged arms share the 10% per-pair NMAC rate, so the risk
        // ratio is near 1 and every density band is populated.
        let est = &outcome.estimate;
        assert!(est.total_pair_samples > est.total_runs);
        assert!(est.risk_ratio.ci_low < 1.0 && 1.0 < est.risk_ratio.ci_high);
        assert_eq!(est.densities.len(), 3);
        assert!(est.densities.iter().all(|d| d.runs > 0));
        // Pilot covers every stratum.
        assert!(est.strata.iter().all(|s| s.runs >= 4));
    }

    #[test]
    fn uniform_and_adaptive_share_the_pilot_round_plan() {
        let p = planner();
        let mut adaptive = p.stepper().unwrap();
        let mut uniform = p.stepper_with(false).unwrap();
        let ra = adaptive.plan_round().unwrap();
        let ru = uniform.plan_round().unwrap();
        panic_on_mismatch(&ra, &ru);
    }

    #[test]
    fn degenerate_config_is_rejected_before_any_run() {
        let p = planner().config_with(|c| c.max_rounds = 0);
        assert!(p.run_with(&Rigged).is_err());
    }

    #[test]
    fn job_and_outcome_round_trip_through_serde() {
        let p = planner();
        let mut stepper = p.stepper().unwrap();
        let planned = stepper.plan_round().unwrap();
        let job = &planned.jobs[0];
        let json = serde_json::to_string(job).unwrap();
        let back: MultiJob = serde_json::from_str(&json).unwrap();
        assert_eq!(*job, back);
        let outcome = rigged_outcome(job);
        let json = serde_json::to_string(&outcome).unwrap();
        let back: MultiPairedOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(outcome, back);
    }
}
