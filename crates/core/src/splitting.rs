//! Multilevel importance splitting for rare-event NMAC estimation.
//!
//! Crude (even adaptively stratified) Monte-Carlo needs on the order of
//! `100/p` simulations to pin a probability `p` to ±10% — hopeless at
//! the certification-grade equipped NMAC rates (~1e-6) the source
//! paper's validation question ultimately lives at. Multilevel splitting
//! attacks the `1/p` directly: a trajectory that drifts toward the NMAC
//! cylinder is *checkpointed* at nested severity thresholds and branched
//! into `K` continuations, so deep excursions are revisited `Π K_j`
//! times while their statistical weight is divided by the same product.
//! The NMAC probability becomes a product of per-level conditional
//! probabilities — each of moderate size, each cheap to estimate — and
//! the budget concentrates exactly where the rare event's probability
//! mass is decided.
//!
//! # The estimator
//!
//! Each **root** trajectory `i` (one [`SplitJob`]) yields an unbiased
//! per-root estimate `R_i ∈ [0, 1]`: the sum over NMAC leaves of its
//! branch tree of `Π_j 1/K_j` along the path (see
//! [`crate::EncounterRunner::run_split_reusing`]). Roots are i.i.d.
//! within a stratum, so the stratum estimate is the sample mean of
//! `R_i` with the usual `S²/n` variance — a delta-method CI that
//! composes into the existing stratified [`WeightedRate`] /
//! [`RatioEstimate`] machinery unchanged. When every root returns the
//! same value the sample variance degenerates; a smoothed Bernoulli
//! floor (`m̃(1−m̃)` with `m̃ = (ΣR + ½)/(n + 1)`, the same Anscombe
//! smoothing [`WeightedRate::combine`] uses) keeps the interval from
//! collapsing to zero width.
//!
//! # The unequipped arm and the control variate
//!
//! The unequipped arm needs no splitting (its NMAC rate is orders of
//! magnitude larger), but it rides the same root seeds, so each root
//! contributes a paired `(R_i, y_i)` observation whose sample covariance
//! feeds [`RatioEstimate::paired`] exactly as the 2×2 [`crate::PairTable`]
//! cells do for plain campaigns. On top of that, the sampled CPA miss
//! distance `x_i` is uniform within the stratum's CPA band by
//! construction ([`Stratification::sample`] redraws it), so its mean
//! `μ_s = (lo + hi)/2` is known *exactly* — a textbook regression
//! control variate. The adjusted rate
//! `p̂_u = ȳ − β̂(x̄ − μ_s)` with the closed-form least-squares slope
//! `β̂ = S_xy/S_xx` removes the variance component explained by *where
//! in the band* the roots happened to land; its variance is the
//! regression prediction variance
//! `σ̂²_res·(1/n + (μ_s − x̄)²/S_xx)` with
//! `σ̂²_res = (S_yy − β̂·S_xy)/(n − 2)` — the `(1 − ρ²)` shrinkage of
//! the raw binomial variance.
//!
//! # Determinism
//!
//! Root seeds derive from `(campaign_seed, stratum, round, index)` via
//! [`campaign_job_seed`] exactly like plain campaigns; branch seeds
//! derive from `(root_seed, level, node, branch)` via
//! [`crate::split_branch_seed`] with the branch tree walked depth-first.
//! Branch factors for round `r` are a pure function of the tallies
//! absorbed through round `r − 1` ([`branch_schedule`]), and outcomes
//! are absorbed serially in job order — so a splitting campaign's every
//! number is bit-identical for any worker-thread or shard count
//! (enforced by `tests/splitting_determinism.rs` and the serve-side
//! battery).

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize, Value};
use uavca_encounter::{EncounterParams, StatisticalEncounterModel, Stratification, Stratum};
use uavca_exec::Executor;
use uavca_sim::{EncounterOutcome, NMAC_HORIZONTAL_FT};

use crate::campaign::{RatioEstimate, WeightedRate, Z95};
use crate::rate::{finite_or_null, float_or};
use crate::rounds::{Family, PlannedRound, ResumeError, RoundStepper, Schedule};
use crate::{BatchRunner, EncounterRunner, RateEstimate};

/// One multilevel-splitting root: an encounter, its root simulation
/// seed, the descending severity ladder to branch at, and the branch
/// factor per rung.
///
/// Unlike [`crate::PairedJob`] this is not `Copy` — the ladder and the
/// branch schedule ride along so a job stays a pure, self-contained
/// description of its whole branch tree on any worker or shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitJob {
    /// Encounter geometry parameters.
    pub params: EncounterParams,
    /// Root simulation seed (the branch-seed rule hashes it per branch).
    pub seed: u64,
    /// Descending severity thresholds to checkpoint-and-branch at
    /// (empty = no splitting; the job degenerates to one plain run).
    pub levels: Vec<f64>,
    /// Branch factor `K_j` per rung of `levels` (parallel array).
    pub branches: Vec<usize>,
}

/// What one splitting root produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitOutcome {
    /// The per-root unbiased NMAC estimate `R ∈ [0, 1]`: the sum over
    /// NMAC leaves of `Π_j 1/K_j` along each leaf's branch path.
    pub weight: f64,
    /// Trajectory segments that *entered* each stage (rungs `0..L`,
    /// then the terminal run-to-NMAC stage at index `L`).
    pub level_trials: Vec<u64>,
    /// Segments that crossed each stage's threshold (an NMAC counts as
    /// crossing the stage it occurred in; index `L` counts NMAC leaves).
    pub level_crossings: Vec<u64>,
    /// Equipped simulation steps spent across the whole branch tree.
    pub equipped_steps: u64,
    /// Steps spent on the unequipped companion run.
    pub unequipped_steps: u64,
    /// The unequipped (no avoidance) outcome on the root seed.
    pub unequipped: EncounterOutcome,
}

/// Anything that can run splitting jobs: the in-process
/// [`BatchRunner`], a sharded backend, or a rigged source in tests.
pub trait SplitSource {
    /// Runs every job, returning outcomes **in job order**.
    fn run_splits(&self, jobs: &[SplitJob]) -> Vec<SplitOutcome>;
}

impl SplitSource for BatchRunner {
    fn run_splits(&self, jobs: &[SplitJob]) -> Vec<SplitOutcome> {
        self.run_splits(jobs)
    }
}

/// Adaptive branch factors from per-level tallies: `K_j` targets the
/// splitting sweet spot `K_j ≈ 1/p_j` (expected one surviving branch
/// per crossing, the classic fixed-effort optimum), with the
/// conditional crossing rate estimated by the Laplace-smoothed
/// `p̂_j = (crossings_j + 1)/(trials_j + 2)`.
///
/// The smoothing makes the schedule total — an unvisited level gets
/// `p̂ = ½` and the conservative cold-start fan `K = 2` — and the clamp
/// to `[1, max_branch]` bounds the tree's worst-case cost. The result
/// is a pure function of the tallies, which is what lets adaptive
/// schedules coexist with bit-identical campaigns: round `r`'s schedule
/// depends only on rounds `0..r`, never on execution order.
pub fn branch_schedule(
    level_trials: &[u64],
    level_crossings: &[u64],
    max_branch: usize,
) -> Vec<usize> {
    debug_assert_eq!(
        level_trials.len(),
        level_crossings.len(),
        "one crossing count per level-trial count"
    );
    level_trials
        .iter()
        .zip(level_crossings)
        .map(|(&n, &c)| {
            let p = (c as f64 + 1.0) / (n as f64 + 2.0);
            ((1.0 / p).round() as usize).clamp(1, max_branch.max(1))
        })
        .collect()
}

/// Configuration of a multilevel-splitting campaign.
///
/// # Serialized form
///
/// As with [`crate::CampaignConfig`], the disable-early-stop sentinel
/// `target_half_width = +∞` serializes as JSON `null`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitConfig {
    /// Master seed; every root and branch seed derives from it.
    pub seed: u64,
    /// Severity rungs requested per stratum ladder. Strata whose CPA
    /// band already touches the NMAC cylinder get an empty ladder (no
    /// splitting — NMACs are not rare there); 0 disables splitting
    /// everywhere, degenerating to crude per-root sampling.
    pub levels: usize,
    /// Upper clamp on adaptive branch factors (see [`branch_schedule`]).
    pub max_branch: usize,
    /// Roots per stratum in round 0 (the pilot).
    pub pilot_roots_per_stratum: usize,
    /// Total roots per refinement round, split by Neyman scores.
    pub round_roots: usize,
    /// Refinement rounds after the pilot.
    pub max_rounds: usize,
    /// Stop as soon as the paired risk-ratio CI half-width (maximum
    /// one-sided width) reaches this; `+∞` disables the early stop.
    pub target_half_width: f64,
    /// Worker threads (0 = all cores).
    pub threads: usize,
}

impl Default for SplitConfig {
    fn default() -> Self {
        SplitConfig {
            seed: 0,
            levels: 3,
            max_branch: 8,
            pilot_roots_per_stratum: 16,
            round_roots: 128,
            max_rounds: 8,
            target_half_width: f64::INFINITY,
            threads: 0,
        }
    }
}

impl Serialize for SplitConfig {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("seed".to_string(), self.seed.serialize()),
            ("levels".to_string(), self.levels.serialize()),
            ("max_branch".to_string(), self.max_branch.serialize()),
            (
                "pilot_roots_per_stratum".to_string(),
                self.pilot_roots_per_stratum.serialize(),
            ),
            ("round_roots".to_string(), self.round_roots.serialize()),
            ("max_rounds".to_string(), self.max_rounds.serialize()),
            (
                "target_half_width".to_string(),
                finite_or_null(self.target_half_width),
            ),
            ("threads".to_string(), self.threads.serialize()),
        ])
    }
}

impl Deserialize for SplitConfig {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        Ok(SplitConfig {
            seed: u64::deserialize(v.field("seed")?)?,
            levels: usize::deserialize(v.field("levels")?)?,
            max_branch: usize::deserialize(v.field("max_branch")?)?,
            pilot_roots_per_stratum: usize::deserialize(v.field("pilot_roots_per_stratum")?)?,
            round_roots: usize::deserialize(v.field("round_roots")?)?,
            max_rounds: usize::deserialize(v.field("max_rounds")?)?,
            target_half_width: float_or(v.field("target_half_width")?, f64::INFINITY)?,
            threads: usize::deserialize(v.field("threads")?)?,
        })
    }
}

impl SplitConfig {
    /// The round schedule this configuration fixes.
    pub(crate) fn schedule(&self) -> Schedule {
        Schedule {
            seed: self.seed,
            pilot: self.pilot_roots_per_stratum,
            round_budget: self.round_roots,
            max_rounds: self.max_rounds,
            target_half_width: self.target_half_width,
        }
    }

    /// Rejects degenerate configurations (see [`SplitConfigError`]).
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), SplitConfigError> {
        if self.pilot_roots_per_stratum == 0 {
            return Err(SplitConfigError::ZeroPilotBudget);
        }
        if self.round_roots == 0 {
            return Err(SplitConfigError::ZeroRoundRoots);
        }
        if self.max_rounds == 0 {
            return Err(SplitConfigError::ZeroRounds);
        }
        if self.max_branch == 0 {
            return Err(SplitConfigError::ZeroMaxBranch);
        }
        #[expect(
            clippy::neg_cmp_op_on_partial_ord,
            reason = "negated so a NaN target is rejected alongside non-positive ones"
        )]
        if !(self.target_half_width > 0.0) {
            return Err(SplitConfigError::NonPositiveTargetHalfWidth);
        }
        Ok(())
    }
}

/// Why a [`SplitConfig`] is degenerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitConfigError {
    /// `pilot_roots_per_stratum == 0`: no pilot, nothing to adapt from.
    ZeroPilotBudget,
    /// `round_roots == 0`: refinement rounds would simulate nothing.
    ZeroRoundRoots,
    /// `max_rounds == 0`: the campaign would end at the pilot.
    ZeroRounds,
    /// `max_branch == 0`: every branch tree would be empty.
    ZeroMaxBranch,
    /// `target_half_width ≤ 0` or NaN: the stop could never trigger
    /// meaningfully (use `+∞` to disable the early stop).
    NonPositiveTargetHalfWidth,
}

impl std::fmt::Display for SplitConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SplitConfigError::ZeroPilotBudget => {
                write!(f, "pilot_roots_per_stratum must be at least 1")
            }
            SplitConfigError::ZeroRoundRoots => {
                write!(f, "round_roots must be at least 1")
            }
            SplitConfigError::ZeroRounds => write!(f, "max_rounds must be at least 1"),
            SplitConfigError::ZeroMaxBranch => write!(f, "max_branch must be at least 1"),
            SplitConfigError::NonPositiveTargetHalfWidth => write!(
                f,
                "target_half_width must be positive (use +inf to disable the early stop)"
            ),
        }
    }
}

impl std::error::Error for SplitConfigError {}

/// Per-stratum accumulator of splitting outcomes: root moments for the
/// equipped arm, the paired cross moment, the per-level conditional
/// tallies the branch scheduler feeds on, the control-variate joint
/// moments of the unequipped arm, and the step meters.
///
/// Outcomes are absorbed serially **in job order** by the planner, so
/// even the floating-point sums are bit-identical regardless of which
/// worker or shard ran each job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitTally {
    /// Roots absorbed.
    pub roots: usize,
    /// `Σ R_i` — sum of per-root estimates.
    pub sum_weight: f64,
    /// `Σ R_i²` — for the sample variance.
    pub sum_weight_sq: f64,
    /// `Σ R_i·y_i` — the equipped/unequipped cross moment (`y_i` the
    /// unequipped NMAC indicator), for the paired covariance.
    pub sum_cross: f64,
    /// Unequipped NMACs (`Σ y_i`).
    pub unequipped_nmacs: usize,
    /// `Σ x_i` of the control `x` = sampled CPA horizontal miss, ft.
    pub sum_x: f64,
    /// `Σ x_i²`.
    pub sum_xx: f64,
    /// `Σ x_i·y_i`.
    pub sum_xy: f64,
    /// Segments entering each stage (rungs, then the terminal stage).
    pub level_trials: Vec<u64>,
    /// Segments crossing each stage (see [`SplitOutcome`]).
    pub level_crossings: Vec<u64>,
    /// Equipped steps simulated (all branch trees).
    pub equipped_steps: u64,
    /// Unequipped steps simulated.
    pub unequipped_steps: u64,
}

impl SplitTally {
    /// An empty tally for a ladder with `rungs` branching levels.
    pub fn new(rungs: usize) -> Self {
        SplitTally {
            roots: 0,
            sum_weight: 0.0,
            sum_weight_sq: 0.0,
            sum_cross: 0.0,
            unequipped_nmacs: 0,
            sum_x: 0.0,
            sum_xx: 0.0,
            sum_xy: 0.0,
            level_trials: vec![0; rungs + 1],
            level_crossings: vec![0; rungs + 1],
            equipped_steps: 0,
            unequipped_steps: 0,
        }
    }

    /// Folds one root's outcome in. `x` is the control value the job was
    /// sampled at (its CPA horizontal miss distance).
    pub fn absorb(&mut self, x: f64, outcome: &SplitOutcome) {
        self.roots += 1;
        let r = outcome.weight;
        self.sum_weight += r;
        self.sum_weight_sq += r * r;
        let y = f64::from(u8::from(outcome.unequipped.nmac));
        self.sum_cross += r * y;
        self.unequipped_nmacs += usize::from(outcome.unequipped.nmac);
        self.sum_x += x;
        self.sum_xx += x * x;
        self.sum_xy += x * y;
        debug_assert_eq!(
            self.level_trials.len(),
            outcome.level_trials.len(),
            "a stratum's ladder length is fixed for the whole campaign"
        );
        for (total, &fresh) in self.level_trials.iter_mut().zip(&outcome.level_trials) {
            *total += fresh;
        }
        for (total, &fresh) in self
            .level_crossings
            .iter_mut()
            .zip(&outcome.level_crossings)
        {
            *total += fresh;
        }
        self.equipped_steps += outcome.equipped_steps;
        self.unequipped_steps += outcome.unequipped_steps;
    }

    /// Roots absorbed, or `None` when no run could have produced the
    /// tally. This is how a checkpoint that crossed a trust boundary is
    /// vetted before resuming. The moment sums must be finite and
    /// non-negative, and those of the per-root estimates `R_i ∈ [0, 1]`
    /// at most the root count. Unequipped NMACs are at most the root
    /// count. The level counts must fit the branch tree: every root
    /// enters stage 0 once, a stage's crossings never exceed its trials,
    /// and each crossing fans out into at most `fan_cap` next-stage
    /// trials.
    pub(crate) fn checked_roots(&self, fan_cap: usize) -> Option<usize> {
        let n = self.roots as f64;
        let per_root = [self.sum_weight, self.sum_weight_sq, self.sum_cross];
        let controls = [self.sum_x, self.sum_xx, self.sum_xy];
        let moments_ok = per_root.iter().all(|&m| (0.0..=n).contains(&m))
            && controls.iter().all(|&m| m.is_finite() && m >= 0.0);
        let trials = &self.level_trials;
        let crossings = &self.level_crossings;
        let tree_ok = trials.first() == Some(&(self.roots as u64))
            && trials.iter().zip(crossings).all(|(t, c)| c <= t)
            && crossings.iter().zip(&trials[1..]).all(|(&c, &next)| {
                c.checked_mul(fan_cap as u64)
                    .is_some_and(|most| next <= most)
            });
        (moments_ok && tree_ok && self.unequipped_nmacs <= self.roots).then_some(self.roots)
    }

    /// The moment summaries both the estimator and the Neyman scores
    /// consume; `band` is the stratum's CPA band `(lo, hi)` in ft.
    fn stats(&self, band: (f64, f64)) -> SplitStats {
        let n = self.roots as f64;
        if self.roots == 0 {
            return SplitStats::default();
        }
        // Equipped arm: sample moments of the i.i.d. per-root R_i, with
        // the smoothed Bernoulli floor when the sample degenerates.
        let mean_e = self.sum_weight / n;
        let sample_var = if self.roots >= 2 {
            ((self.sum_weight_sq - self.sum_weight * self.sum_weight / n) / (n - 1.0)).max(0.0)
        } else {
            0.0
        };
        let var_e = if sample_var > 0.0 {
            sample_var
        } else {
            let m = (self.sum_weight + 0.5) / (n + 1.0);
            m * (1.0 - m)
        };
        // Unequipped arm: regression control variate on x with known
        // stratum mean μ = (lo + hi)/2 (x is redrawn uniform in band).
        let y_bar = self.unequipped_nmacs as f64 / n;
        let x_bar = self.sum_x / n;
        let mu = (band.0 + band.1) / 2.0;
        let s_xx = (self.sum_xx - n * x_bar * x_bar).max(0.0);
        let s_xy = self.sum_xy - n * x_bar * y_bar;
        // y is an indicator, so Σy² = Σy and S_yy = n·ȳ(1−ȳ) exactly.
        let s_yy = n * y_bar * (1.0 - y_bar);
        let smoothed_y = {
            let m = (self.unequipped_nmacs as f64 + 0.5) / (n + 1.0);
            m * (1.0 - m)
        };
        let usable = self.roots >= 3 && s_xx > 0.0;
        let beta = if usable { s_xy / s_xx } else { 0.0 };
        let rate_u_cv = (y_bar - beta * (x_bar - mu)).clamp(0.0, 1.0);
        let ss_res = (s_yy - beta * s_xy).max(0.0);
        // Prediction variance of the adjusted mean at the known μ; falls
        // back to the smoothed binomial variance when the regression is
        // degenerate (too few roots, all-equal x, or a perfect fit whose
        // zero residual would claim false certainty).
        let var_of_mean_u = if usable && ss_res > 0.0 {
            let resid = ss_res / (n - 2.0);
            resid * (1.0 / n + (mu - x_bar) * (mu - x_bar) / s_xx)
        } else {
            smoothed_y / n
        };
        // Paired cross moment: per-root covariance of (R_i, y_i).
        let cov = if self.roots >= 2 {
            ((self.sum_cross - n * mean_e * y_bar) / (n - 1.0)).max(0.0)
        } else {
            0.0
        };
        SplitStats {
            mean_e,
            var_e,
            rate_u_cv,
            beta,
            var_u: var_of_mean_u * n,
            var_of_mean_e: var_e / n,
            var_of_mean_u,
            cov,
        }
    }
}

/// Per-stratum moment summaries derived from a [`SplitTally`].
#[derive(Debug, Clone, Copy, Default)]
struct SplitStats {
    mean_e: f64,
    /// Per-root variance of `R_i` (floored when degenerate).
    var_e: f64,
    rate_u_cv: f64,
    beta: f64,
    /// Effective per-root variance of the CV-adjusted unequipped rate.
    var_u: f64,
    var_of_mean_e: f64,
    var_of_mean_u: f64,
    /// Per-root covariance of `(R_i, y_i)`, clamped non-negative.
    cov: f64,
}

/// Neyman scores for root reallocation across strata, on the paired
/// log-risk-ratio objective — the splitting analogue of
/// [`crate::neyman_scores`]: each stratum is scored
/// `w_s·√(σ²_{e,s}/p̂_e² + σ²_{u,s}/p̂_u² − 2·c_s/(p̂_e·p̂_u))` with the
/// per-root variances the splitting estimator itself reports (equipped:
/// sample variance of `R_i` with the smoothed floor; unequipped: the
/// control-variate residual variance) and pooled, Laplace-smoothed arm
/// rates. Pure function of the tallies, so reallocation preserves
/// bit-identity across thread and shard counts.
pub fn split_neyman_scores(
    weights: &[f64],
    tallies: &[SplitTally],
    bands: &[(f64, f64)],
) -> Vec<f64> {
    debug_assert!(
        weights.len() == tallies.len() && weights.len() == bands.len(),
        "one weight and CPA band per stratum tally"
    );
    let total_roots: usize = tallies.iter().map(|t| t.roots).sum();
    let n = total_roots as f64;
    let pooled_e: f64 = tallies.iter().map(|t| t.sum_weight).sum();
    let pooled_u: usize = tallies.iter().map(|t| t.unequipped_nmacs).sum();
    let pe = (pooled_e + 0.5) / (n + 1.0);
    let pu = (pooled_u as f64 + 1.0) / (n + 2.0);
    weights
        .iter()
        .zip(tallies)
        .zip(bands)
        .map(|((w, t), &band)| {
            let s = t.stats(band);
            let cov = s.cov.clamp(0.0, (s.var_e * s.var_u).sqrt());
            let objective = s.var_e / (pe * pe) + s.var_u / (pu * pu) - 2.0 * cov / (pe * pu);
            w * objective.max(0.0).sqrt()
        })
        .collect()
}

/// One stratum's splitting estimate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitStratumEstimate {
    /// The stratum.
    pub stratum: Stratum,
    /// Its exact probability mass under the model.
    pub weight: f64,
    /// Roots simulated.
    pub roots: usize,
    /// The severity ladder (descending thresholds; empty = no splitting).
    pub levels: Vec<f64>,
    /// The branch schedule the final round used.
    pub branches: Vec<usize>,
    /// Segments entering each stage (rungs, then terminal).
    pub level_trials: Vec<u64>,
    /// Segments crossing each stage.
    pub level_crossings: Vec<u64>,
    /// Splitting estimate of the equipped NMAC probability (mean `R_i`).
    pub equipped_mean: f64,
    /// Standard error of `equipped_mean`.
    pub equipped_std_err: f64,
    /// Raw (unadjusted) unequipped NMAC rate with its Wilson interval.
    pub unequipped: RateEstimate,
    /// Closed-form control-variate slope `β̂ = S_xy/S_xx`.
    pub cv_beta: f64,
    /// Control-variate-adjusted unequipped NMAC rate.
    pub unequipped_cv_rate: f64,
    /// Standard error of the adjusted rate.
    pub unequipped_cv_std_err: f64,
}

/// The combined splitting estimate across all strata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitEstimate {
    /// Per-stratum detail.
    pub strata: Vec<SplitStratumEstimate>,
    /// Total roots across strata and rounds.
    pub total_roots: usize,
    /// Stratified equipped NMAC probability from the splitting means.
    pub equipped_nmac: WeightedRate,
    /// Stratified unequipped NMAC probability, control-variate adjusted
    /// (the campaign's primary denominator).
    pub unequipped_nmac: WeightedRate,
    /// The same denominator without the control variate, for comparison.
    pub unequipped_nmac_raw: WeightedRate,
    /// Stratified between-arm covariance `Cov(p̂_e, p̂_u)` from the
    /// per-root `(R_i, y_i)` cross moments.
    pub covariance: f64,
    /// Paired risk ratio on the CV-adjusted denominator.
    pub risk_ratio: RatioEstimate,
    /// Paired risk ratio on the raw denominator.
    pub risk_ratio_raw: RatioEstimate,
    /// Equipped simulation steps spent (all branch trees).
    pub equipped_steps: u64,
    /// Unequipped simulation steps spent.
    pub unequipped_steps: u64,
}

impl SplitEstimate {
    /// Total simulated UAV-steps, both arms — the cost meter the
    /// rare-event benchmarks compare against crude sampling.
    pub fn total_steps(&self) -> u64 {
        self.equipped_steps + self.unequipped_steps
    }
}

/// One completed splitting round, streamed to observers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitRoundSummary {
    /// Round number (0 = pilot).
    pub round: usize,
    /// Roots allocated per stratum this round.
    pub allocated: Vec<usize>,
    /// Roots this round (sum of `allocated`).
    pub roots_this_round: usize,
    /// Cumulative roots.
    pub total_roots: usize,
    /// Cumulative simulated UAV-steps, both arms.
    pub total_steps: u64,
    /// Equipped estimate after this round.
    pub equipped_nmac: WeightedRate,
    /// CV-adjusted unequipped estimate after this round.
    pub unequipped_nmac: WeightedRate,
    /// Paired risk ratio after this round.
    pub risk_ratio: RatioEstimate,
}

/// The result of a splitting campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitCampaignOutcome {
    /// The final estimate.
    pub estimate: SplitEstimate,
    /// Every round in order.
    pub rounds: Vec<SplitRoundSummary>,
    /// Whether the early-stop target was reached before `max_rounds`.
    pub reached_target: bool,
}

impl SplitCampaignOutcome {
    /// Cumulative simulated UAV-steps at the first round whose paired
    /// risk-ratio CI half-width reached `target` (`None` if never).
    pub fn steps_to_half_width(&self, target: f64) -> Option<u64> {
        self.rounds
            .iter()
            .find(|r| r.risk_ratio.half_width() <= target)
            .map(|r| r.total_steps)
    }
}

/// The multilevel-splitting campaign family: [`SplitJob`] roots that
/// branch along each stratum's severity ladder, tallied into
/// [`SplitTally`]s — the [`Family`] behind [`SplitStepper`].
#[derive(Debug, Clone)]
pub struct Splitting {
    model: StatisticalEncounterModel,
    stratification: Stratification,
    max_branch: usize,
    strata: Vec<Stratum>,
    weights: Vec<f64>,
    bands: Vec<(f64, f64)>,
    ladders: Vec<Vec<f64>>,
    /// The branch schedule in force per stratum: the cold-start fan 2
    /// until the first refinement round is planned, then recomputed from
    /// the tallies whenever a round is.
    schedules: Vec<Vec<usize>>,
}

impl Family for Splitting {
    type Job = SplitJob;
    type Outcome = SplitOutcome;
    type Tally = SplitTally;
    type Estimate = SplitEstimate;
    type Summary = SplitRoundSummary;
    type Report = SplitCampaignOutcome;

    fn empty_tallies(&self) -> Vec<SplitTally> {
        self.ladders
            .iter()
            .map(|l| SplitTally::new(l.len()))
            .collect()
    }

    fn scores(&mut self, tallies: &[SplitTally], adaptive: bool) -> Vec<f64> {
        // Branch factors and root allocation both derive purely from
        // tallies absorbed in previous rounds.
        self.schedules = tallies
            .iter()
            .zip(&self.ladders)
            .map(|(t, ladder)| {
                let rungs = ladder.len();
                branch_schedule(
                    &t.level_trials[..rungs],
                    &t.level_crossings[..rungs],
                    self.max_branch,
                )
            })
            .collect();
        if adaptive {
            split_neyman_scores(&self.weights, tallies, &self.bands)
        } else {
            self.weights.clone()
        }
    }

    fn job(&self, stratum: usize, rng: &mut StdRng, sim_seed: u64) -> SplitJob {
        SplitJob {
            params: self
                .stratification
                .sample(&self.model, self.strata[stratum], rng),
            seed: sim_seed,
            levels: self.ladders[stratum].clone(),
            branches: self.schedules[stratum].clone(),
        }
    }

    fn absorb(tally: &mut SplitTally, job: &SplitJob, outcome: &SplitOutcome) {
        tally.absorb(job.params.cpa_horizontal_ft, outcome);
    }

    fn runs(tally: &SplitTally) -> usize {
        tally.roots
    }

    fn estimate(&self, tallies: &[SplitTally]) -> SplitEstimate {
        let weights = &self.weights;
        let stats: Vec<SplitStats> = tallies
            .iter()
            .zip(&self.bands)
            .map(|(t, &band)| t.stats(band))
            .collect();
        let per_stratum: Vec<SplitStratumEstimate> = self
            .strata
            .iter()
            .zip(weights)
            .zip(tallies)
            .zip(&stats)
            .enumerate()
            .map(|(si, (((&stratum, &weight), t), s))| SplitStratumEstimate {
                stratum,
                weight,
                roots: t.roots,
                levels: self.ladders[si].clone(),
                branches: self.schedules[si].clone(),
                level_trials: t.level_trials.clone(),
                level_crossings: t.level_crossings.clone(),
                equipped_mean: s.mean_e,
                equipped_std_err: s.var_of_mean_e.sqrt(),
                unequipped: RateEstimate::wilson(t.unequipped_nmacs, t.roots),
                cv_beta: s.beta,
                unequipped_cv_rate: s.rate_u_cv,
                unequipped_cv_std_err: s.var_of_mean_u.sqrt(),
            })
            .collect();
        let equipped_nmac = combine_means(
            weights
                .iter()
                .zip(tallies)
                .zip(&stats)
                .map(|((&w, t), s)| (w, t.roots, s.mean_e, s.var_of_mean_e)),
        );
        let unequipped_nmac = combine_means(
            weights
                .iter()
                .zip(tallies)
                .zip(&stats)
                .map(|((&w, t), s)| (w, t.roots, s.rate_u_cv, s.var_of_mean_u)),
        );
        let raw_cells: Vec<(f64, usize, usize)> = weights
            .iter()
            .zip(tallies)
            .map(|(&w, t)| (w, t.unequipped_nmacs, t.roots))
            .collect();
        let unequipped_nmac_raw = WeightedRate::combine(&raw_cells);
        let covariance = combined_covariance(
            weights
                .iter()
                .zip(tallies)
                .zip(&stats)
                .map(|((&w, t), s)| (w, t.roots, s.cov)),
        );
        SplitEstimate {
            total_roots: tallies.iter().map(|t| t.roots).sum(),
            equipped_steps: tallies.iter().map(|t| t.equipped_steps).sum(),
            unequipped_steps: tallies.iter().map(|t| t.unequipped_steps).sum(),
            covariance,
            risk_ratio: RatioEstimate::paired(&equipped_nmac, &unequipped_nmac, covariance),
            risk_ratio_raw: RatioEstimate::paired(&equipped_nmac, &unequipped_nmac_raw, covariance),
            strata: per_stratum,
            equipped_nmac,
            unequipped_nmac,
            unequipped_nmac_raw,
        }
    }

    fn risk_ratio(estimate: &SplitEstimate) -> &RatioEstimate {
        &estimate.risk_ratio
    }

    fn summarize(planned: &PlannedRound<SplitJob>, estimate: &SplitEstimate) -> SplitRoundSummary {
        SplitRoundSummary {
            round: planned.round,
            allocated: planned.allocated.clone(),
            roots_this_round: planned.jobs.len(),
            total_roots: estimate.total_roots,
            total_steps: estimate.total_steps(),
            equipped_nmac: estimate.equipped_nmac,
            unequipped_nmac: estimate.unequipped_nmac,
            risk_ratio: estimate.risk_ratio,
        }
    }

    fn report(
        estimate: SplitEstimate,
        rounds: Vec<SplitRoundSummary>,
        reached_target: bool,
    ) -> SplitCampaignOutcome {
        SplitCampaignOutcome {
            estimate,
            rounds,
            reached_target,
        }
    }
}

/// Plans and executes multilevel-splitting campaigns: the rare-event
/// counterpart of [`crate::CampaignPlanner`], sharing its seed rules,
/// stratification, Neyman-style reallocation and paired-ratio estimate.
#[derive(Debug, Clone)]
pub struct SplitPlanner {
    runner: EncounterRunner,
    model: StatisticalEncounterModel,
    stratification: Stratification,
    config: SplitConfig,
}

impl SplitPlanner {
    /// A planner with the default statistical model and stratification.
    pub fn new(runner: EncounterRunner, config: SplitConfig) -> Self {
        Self {
            runner,
            model: StatisticalEncounterModel::default(),
            stratification: Stratification::default(),
            config,
        }
    }

    /// Overrides the statistical encounter model.
    pub fn model(mut self, model: StatisticalEncounterModel) -> Self {
        self.model = model;
        self
    }

    /// Overrides the stratification.
    pub fn stratification(mut self, stratification: Stratification) -> Self {
        self.stratification = stratification;
        self
    }

    /// Adjusts the configuration in place (builder-style).
    pub fn config_with(mut self, adjust: impl FnOnce(&mut SplitConfig)) -> Self {
        adjust(&mut self.config);
        self
    }

    /// The configured campaign parameters.
    pub fn current_config(&self) -> SplitConfig {
        self.config
    }

    /// The configured stratification.
    pub fn current_stratification(&self) -> Stratification {
        self.stratification
    }

    /// The configured statistical model.
    pub fn current_model(&self) -> StatisticalEncounterModel {
        self.model
    }

    /// The per-stratum severity ladders the campaign will branch on.
    pub fn ladders(&self) -> Vec<Vec<f64>> {
        self.stratification
            .strata()
            .iter()
            .map(|&s| {
                self.stratification.severity_levels(
                    &self.model,
                    s,
                    self.config.levels,
                    NMAC_HORIZONTAL_FT,
                )
            })
            .collect()
    }

    /// Runs the splitting campaign on the shared worker pool.
    ///
    /// # Errors
    ///
    /// Returns [`SplitConfigError`] when the configuration is
    /// degenerate; no simulation runs in that case.
    pub fn run(&self) -> Result<SplitCampaignOutcome, SplitConfigError> {
        self.run_observed(|_| {})
    }

    /// Runs the campaign, streaming each [`SplitRoundSummary`] to
    /// `observer` as soon as its round completes.
    ///
    /// # Errors
    ///
    /// Returns [`SplitConfigError`] when the configuration is
    /// degenerate; the observer is never called in that case.
    pub fn run_observed<F: FnMut(&SplitRoundSummary)>(
        &self,
        observer: F,
    ) -> Result<SplitCampaignOutcome, SplitConfigError> {
        let batch = BatchRunner::new(self.runner.clone(), Executor::new(self.config.threads));
        self.run_with_observed(&batch, observer)
    }

    /// Runs the campaign against a caller-supplied job source (rigged
    /// generators in tests, sharded backends in production).
    ///
    /// # Errors
    ///
    /// Returns [`SplitConfigError`] when the configuration is
    /// degenerate; the source is never invoked in that case.
    pub fn run_with<S: SplitSource>(
        &self,
        source: &S,
    ) -> Result<SplitCampaignOutcome, SplitConfigError> {
        self.run_with_observed(source, |_| {})
    }

    /// [`run_with`](Self::run_with) plus a per-round observer.
    ///
    /// # Errors
    ///
    /// Returns [`SplitConfigError`] when the configuration is
    /// degenerate; neither the source nor the observer is invoked then.
    pub fn run_with_observed<S: SplitSource, F: FnMut(&SplitRoundSummary)>(
        &self,
        source: &S,
        observer: F,
    ) -> Result<SplitCampaignOutcome, SplitConfigError> {
        Ok(self
            .stepper()?
            .drive(|jobs| source.run_splits(jobs), observer))
    }

    /// A fresh stepper for this planner — the resumable equivalent of
    /// [`SplitPlanner::run`].
    ///
    /// # Errors
    ///
    /// Returns [`SplitConfigError`] when the configuration is degenerate
    /// (same validation as every run path).
    pub fn stepper(&self) -> Result<SplitStepper, SplitConfigError> {
        self.config.validate()?;
        let strata = self.stratification.strata();
        let weights = strata
            .iter()
            .map(|&s| self.stratification.weight(&self.model, s))
            .collect();
        let bands = strata
            .iter()
            .map(|s| self.stratification.cpa_bounds(&self.model, s.cpa_bin))
            .collect();
        let ladders = self.ladders();
        // Cold-start fan 2 everywhere — exactly what branch_schedule
        // returns on empty tallies, so round 0 follows the same rule.
        let schedules = ladders.iter().map(|l| vec![2; l.len()]).collect();
        let family = Splitting {
            model: self.model,
            stratification: self.stratification,
            max_branch: self.config.max_branch,
            strata,
            weights,
            bands,
            ladders,
            schedules,
        };
        Ok(RoundStepper::new(family, self.config.schedule(), true))
    }

    /// Rebuilds a stepper from a [`SplitCheckpoint`]. The resumed stepper
    /// replays the remaining rounds byte-identically to an uninterrupted
    /// run of the same planner.
    ///
    /// # Errors
    ///
    /// Returns [`SplitResumeError`] when the planner's config is
    /// degenerate, the checkpoint was taken under a different
    /// stratification or ladder design, or its trail or tallies are
    /// inconsistent.
    pub fn resume(&self, checkpoint: &SplitCheckpoint) -> Result<SplitStepper, SplitResumeError> {
        let mut stepper = self.stepper()?;
        let ladders = &stepper.family.ladders;
        if checkpoint.schedules.len() != ladders.len() {
            return Err(SplitResumeError::StratumCountMismatch {
                expected: ladders.len(),
                found: checkpoint.schedules.len(),
            });
        }
        // A schedule holds one entry per rung, a level vector one more
        // (the terminal run-to-NMAC stage).
        let recorded = ladders
            .iter()
            .zip(&checkpoint.schedules)
            .zip(&checkpoint.tallies);
        for (stratum, ((ladder, schedule), tally)) in recorded.enumerate() {
            let rungs = ladder.len();
            for (found, expected) in [
                (schedule.len(), rungs),
                (tally.level_trials.len(), rungs + 1),
                (tally.level_crossings.len(), rungs + 1),
            ] {
                if found != expected {
                    return Err(SplitResumeError::LadderMismatch {
                        stratum,
                        expected,
                        found,
                    });
                }
            }
        }
        // Every root flies one unequipped run to the horizon, and every
        // equipped segment (a stage trial) at most to the horizon.
        let horizon = self.runner.sim().num_steps() as u64;
        for (stratum, tally) in checkpoint.tallies.iter().enumerate() {
            let segments = tally
                .level_trials
                .iter()
                .try_fold(0u64, |sum, &t| sum.checked_add(t));
            let fits = (tally.roots as u64).checked_mul(horizon) == Some(tally.unequipped_steps)
                && segments
                    .and_then(|s| s.checked_mul(horizon))
                    .is_some_and(|most| tally.equipped_steps <= most);
            if !fits {
                return Err(SplitResumeError::InvalidTally {
                    stratum: Some(stratum),
                });
            }
        }
        stepper.family.schedules = checkpoint.schedules.clone();
        let last = checkpoint.rounds.last();
        // The cold-start schedule fans out 2 whatever `max_branch` is.
        let fan_cap = self.config.max_branch.max(2);
        let stepper = stepper.restore(
            &checkpoint.tallies,
            &checkpoint.rounds,
            checkpoint.next_round,
            checkpoint.reached_target,
            last.map_or(0, |r| r.total_roots),
            |t| t.checked_roots(fan_cap),
        )?;
        let steps = checkpoint.tallies.iter().try_fold(0u64, |sum, t| {
            sum.checked_add(t.equipped_steps)?
                .checked_add(t.unequipped_steps)
        });
        if steps != Some(last.map_or(0, |r| r.total_steps)) {
            return Err(SplitResumeError::InvalidTally { stratum: None });
        }
        Ok(stepper)
    }
}

/// The exact resumable state of a splitting campaign at a round boundary
/// — the rare-event counterpart of
/// [`crate::campaign::CampaignCheckpoint`], with one addition: the branch
/// **schedules** in force. Round `r ≥ 1` recomputes its schedules from
/// the tallies, so they are redundant for resuming *unfinished*
/// campaigns; but a finished campaign's estimate reports the schedules of
/// its *last executed* round, which were derived from the tallies as they
/// stood **before** that round's outcomes were absorbed and cannot be
/// recovered from the final tallies alone. Carrying them keeps
/// [`SplitStepper`]'s outcome byte-identical through a
/// checkpoint/restore of a finished campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitCheckpoint {
    /// The next round to execute (0 = the pilot has not run). Equals
    /// `rounds.len()` in any consistent checkpoint.
    pub next_round: usize,
    /// Merged per-stratum tallies in canonical stratum order.
    pub tallies: Vec<SplitTally>,
    /// The branch schedule in force per stratum (the last executed
    /// round's, or the cold-start fan-2 schedule before round 0).
    pub schedules: Vec<Vec<usize>>,
    /// Summaries of every completed round, in order.
    pub rounds: Vec<SplitRoundSummary>,
    /// Whether the early-stop target has been reached.
    pub reached_target: bool,
}

/// A [`SplitCheckpoint`] that cannot resume under the planner it was
/// handed to.
pub type SplitResumeError = ResumeError<SplitConfigError>;

/// The resumable round-by-round splitting-campaign executor: the shared
/// [`RoundStepper`] over the [`Splitting`] family, whose checkpoint
/// [`SplitPlanner::resume`] replays byte-identically.
pub type SplitStepper = RoundStepper<Splitting>;

impl SplitStepper {
    /// The campaign's exact state at the current round boundary —
    /// resumable byte-identically via [`SplitPlanner::resume`].
    pub fn checkpoint(&self) -> SplitCheckpoint {
        SplitCheckpoint {
            next_round: self.next_round(),
            tallies: self.tallies.clone(),
            schedules: self.family.schedules.clone(),
            rounds: self.rounds().to_vec(),
            reached_target: self.reached_target,
        }
    }
}

/// Stratified combination of per-stratum `(weight, roots, mean,
/// var_of_mean)` cells into a [`WeightedRate`] — the continuous-mean
/// analogue of [`WeightedRate::combine`], with the same renormalization
/// over covered (roots > 0) strata.
fn combine_means(cells: impl Iterator<Item = (f64, usize, f64, f64)>) -> WeightedRate {
    let cells: Vec<(f64, usize, f64, f64)> = cells.collect();
    let covered: f64 = cells
        .iter()
        .filter(|&&(_, n, _, _)| n > 0)
        .map(|&(w, _, _, _)| w)
        .sum();
    if covered <= 0.0 {
        return WeightedRate {
            rate: f64::NAN,
            std_err: f64::NAN,
            ci_low: 0.0,
            ci_high: 1.0,
        };
    }
    let mut rate = 0.0;
    let mut var = 0.0;
    for &(w, n, mean, var_of_mean) in &cells {
        if n == 0 {
            continue;
        }
        let w = w / covered;
        rate += w * mean;
        var += w * w * var_of_mean;
    }
    let rate = rate.clamp(0.0, 1.0);
    let std_err = var.sqrt();
    WeightedRate {
        rate,
        std_err,
        ci_low: (rate - Z95 * std_err).max(0.0),
        ci_high: (rate + Z95 * std_err).min(1.0),
    }
}

/// Stratified between-arm covariance from per-stratum `(weight, roots,
/// per-root covariance)` cells: `Σ w'_s²·c_s/n_s` with weights
/// renormalized over covered strata, mirroring [`crate::paired_covariance`].
fn combined_covariance(cells: impl Iterator<Item = (f64, usize, f64)>) -> f64 {
    let cells: Vec<(f64, usize, f64)> = cells.collect();
    let covered: f64 = cells
        .iter()
        .filter(|&&(_, n, _)| n > 0)
        .map(|&(w, _, _)| w)
        .sum();
    if covered <= 0.0 {
        return 0.0;
    }
    cells
        .iter()
        .filter(|&&(_, n, _)| n > 0)
        .map(|&(w, n, cov)| {
            let w = w / covered;
            w * w * cov / n as f64
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(weight: f64, nmac: bool, trials: &[u64], crossings: &[u64]) -> SplitOutcome {
        SplitOutcome {
            weight,
            level_trials: trials.to_vec(),
            level_crossings: crossings.to_vec(),
            equipped_steps: 100,
            unequipped_steps: 100,
            unequipped: EncounterOutcome {
                nmac,
                first_nmac_time_s: nmac.then_some(10.0),
                min_separation_ft: if nmac { 100.0 } else { 2000.0 },
                min_horizontal_ft: if nmac { 100.0 } else { 2000.0 },
                min_vertical_ft: 50.0,
                time_of_min_s: 10.0,
                own_alert_steps: 0,
                intruder_alert_steps: 0,
                first_alert_time_s: None,
                own_reversals: 0,
                duration_s: 100.0,
            },
        }
    }

    #[test]
    fn branch_schedule_targets_inverse_conditional_rate() {
        // Unvisited levels: p̂ = ½ → K = 2 (the cold-start fan).
        assert_eq!(branch_schedule(&[0, 0], &[0, 0], 8), vec![2, 2]);
        // p̂ ≈ 1/10 → K = 10, clamped at max_branch.
        assert_eq!(branch_schedule(&[98], &[9], 16), vec![10]);
        assert_eq!(branch_schedule(&[98], &[9], 6), vec![6]);
        // Certain crossing → no branching needed.
        assert_eq!(branch_schedule(&[50], &[50], 8), vec![1]);
        // max_branch = 0 is treated as 1, never 0.
        assert_eq!(branch_schedule(&[0], &[0], 0), vec![1]);
    }

    #[test]
    fn tally_absorb_accumulates_every_moment() {
        let mut t = SplitTally::new(1);
        t.absorb(100.0, &outcome(0.25, true, &[1, 2], &[1, 1]));
        t.absorb(300.0, &outcome(0.0, false, &[1, 0], &[0, 0]));
        assert_eq!(t.roots, 2);
        assert_eq!(t.sum_weight, 0.25);
        assert_eq!(t.sum_weight_sq, 0.0625);
        assert_eq!(t.sum_cross, 0.25);
        assert_eq!(t.unequipped_nmacs, 1);
        assert_eq!(t.sum_x, 400.0);
        assert_eq!(t.sum_xy, 100.0);
        assert_eq!(t.level_trials, vec![2, 2]);
        assert_eq!(t.level_crossings, vec![1, 1]);
        assert_eq!(t.equipped_steps, 200);
    }

    #[test]
    fn degenerate_samples_keep_positive_variance() {
        // All roots identical (R = 0): the Bernoulli floor kicks in.
        let mut t = SplitTally::new(0);
        for _ in 0..50 {
            t.absorb(500.0, &outcome(0.0, false, &[1], &[0]));
        }
        let s = t.stats((0.0, 1000.0));
        assert!(s.var_of_mean_e > 0.0);
        assert!(s.var_of_mean_u > 0.0);
        assert_eq!(s.mean_e, 0.0);
        assert_eq!(s.rate_u_cv, 0.0);
    }

    #[test]
    fn control_variate_shrinks_the_variance_on_band_uniform_controls() {
        // x at the 40 band midpoints (so x̄ = μ exactly), y a threshold
        // indicator on x: the regression explains part of y's variance
        // and the adjusted standard error drops below the binomial one.
        let mut t = SplitTally::new(0);
        for k in 0..40 {
            let x = 12.5 + 25.0 * k as f64;
            let y = x < 250.0; // rate 0.25, strongly correlated with x
            t.absorb(x, &outcome(0.0, y, &[1], &[0]));
        }
        let s = t.stats((0.0, 1000.0));
        let raw = t.unequipped_nmacs as f64 / t.roots as f64;
        assert_eq!(raw, 0.25);
        assert!(s.beta < 0.0);
        // x̄ sits on μ, so the adjustment leaves the rate in place…
        assert!((s.rate_u_cv - raw).abs() < 1e-9);
        // …and the CV variance is below the raw binomial variance.
        assert!(s.var_of_mean_u < raw * (1.0 - raw) / 40.0);
        assert!(s.var_of_mean_u > 0.0);
    }

    #[test]
    fn control_variate_recenters_toward_the_known_band_mean() {
        // Roots that happened to cluster in the low half of the band
        // overstate ȳ; the known band mean pulls the estimate back.
        let mut t = SplitTally::new(0);
        for k in 0..40 {
            let x = 12.5 * k as f64; // clustered in [0, 500)
            let y = x < 250.0; // true marginal rate over the band: 0.25
            t.absorb(x, &outcome(0.0, y, &[1], &[0]));
        }
        let s = t.stats((0.0, 1000.0));
        let raw = t.unequipped_nmacs as f64 / t.roots as f64;
        // Raw rate ≈ 0.5 (half the clustered draws), adjusted lower.
        assert!((raw - 0.5).abs() < 0.05);
        assert!(s.beta < 0.0);
        assert!(s.rate_u_cv < raw - 0.1);
        // Extrapolating to μ far from x̄ honestly inflates the variance
        // through the (μ − x̄)²/S_xx leverage term.
        assert!(s.var_of_mean_u > 0.0);
    }

    #[test]
    fn config_validation_rejects_degenerate_campaigns() {
        let ok = SplitConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        let cases = [
            (
                SplitConfig {
                    pilot_roots_per_stratum: 0,
                    ..ok
                },
                SplitConfigError::ZeroPilotBudget,
            ),
            (
                SplitConfig {
                    round_roots: 0,
                    ..ok
                },
                SplitConfigError::ZeroRoundRoots,
            ),
            (
                SplitConfig {
                    max_rounds: 0,
                    ..ok
                },
                SplitConfigError::ZeroRounds,
            ),
            (
                SplitConfig {
                    max_branch: 0,
                    ..ok
                },
                SplitConfigError::ZeroMaxBranch,
            ),
            (
                SplitConfig {
                    target_half_width: 0.0,
                    ..ok
                },
                SplitConfigError::NonPositiveTargetHalfWidth,
            ),
        ];
        for (config, expected) in cases {
            assert_eq!(config.validate(), Err(expected));
        }
    }

    #[test]
    fn split_config_roundtrips_including_infinite_target() {
        let config = SplitConfig::default();
        let json = serde_json::to_string(&config).expect("serializable");
        let back: SplitConfig = serde_json::from_str(&json).expect("roundtrip");
        assert_eq!(config, back);
    }

    #[test]
    fn combine_means_renormalizes_over_covered_strata() {
        let combined = combine_means(
            [
                (0.5, 10, 0.2, 0.001),
                (0.25, 0, 0.0, 0.0), // uncovered: excluded, weight renormalized
                (0.25, 10, 0.4, 0.001),
            ]
            .into_iter(),
        );
        // (0.5·0.2 + 0.25·0.4)/0.75
        assert!((combined.rate - 0.2666666666666667).abs() < 1e-12);
        assert!(combined.std_err > 0.0);
        assert!(combined.ci_low < combined.rate && combined.rate < combined.ci_high);
    }
}
