//! Adaptive stratified Monte-Carlo campaigns with importance splitting.
//!
//! Uniform Monte-Carlo wastes almost its entire budget on encounters
//! whose outcome is a foregone conclusion: either far outside any
//! conflict, or so deep inside the NMAC cylinder that equipped and
//! unequipped runs collide alike. The information for a *risk ratio*
//! lives where the two arms **disagree** — and under the statistical
//! encounter model that region concentrates in a few strata (small CPA
//! miss distances, specific geometries).
//!
//! [`CampaignPlanner`] exploits that structure:
//!
//! 1. **Stratify.** The [`StatisticalEncounterModel`] is partitioned by a
//!    [`Stratification`] (geometry class × CPA band) with exact
//!    per-stratum mass, so stratified estimates stay unbiased.
//! 2. **Pilot.** A fixed number of [`PairedJob`]s per stratum measures
//!    each stratum's joint equipped/unequipped outcome distribution (the
//!    per-pair 2×2 [`PairTable`]).
//! 3. **Reallocate.** Each refinement round splits its budget across
//!    strata by Neyman allocation on each stratum's contribution to the
//!    *paired* log-risk-ratio variance (see [`neyman_scores`]), so the
//!    budget chases the variance that actually bounds the CI.
//! 4. **Stop early.** After every round the combined paired risk-ratio CI
//!    is recomputed; the campaign ends as soon as its half-width reaches
//!    the configured target.
//!
//! With proportional allocation ([`CampaignPlanner::run_uniform`]) and
//! `target_half_width = ∞` the same loop is the paper's fixed-budget
//! Monte-Carlo estimate. Every job samples its own encounter, so the
//! runs are independent trials and the intervals price them as such.
//!
//! # The paired estimator
//!
//! The two arms of every pair replay the *same* encounter on the *same*
//! seed, so the per-pair NMAC indicators are strongly positively
//! correlated — an avoidance system mostly rescues a subset of the raw
//! conflicts. Each stratum therefore keeps the full 2×2 table of joint
//! outcomes (both-NMAC / equipped-only / unequipped-only / neither)
//! rather than just the two marginals: the marginals alone cannot
//! recover the between-arm covariance, and `disagree` alone loses which
//! arm disagreed. The combined log-ratio variance is the stratified
//! delta-method expression *including* the covariance term,
//! `Var(p̂_e)/p_e² + Var(p̂_u)/p_u² − 2·Cov(p̂_e,p̂_u)/(p_e·p_u)`
//! (see [`paired_covariance`] and [`RatioEstimate::paired`]), which is
//! never wider than the covariance-free interval. A stratified
//! delete-one-pair jackknife ([`jackknife_ratio`]) is computed alongside
//! as an independent cross-check of the delta-method interval.
//!
//! # Determinism
//!
//! Every job seed derives from `(campaign_seed, stratum, round, index)`
//! via [`campaign_job_seed`] — never from execution order — and batches
//! run on the deterministic [`BatchRunner`], so a campaign's every number
//! is bit-identical for any worker-thread count and reproducible from its
//! config alone (enforced by `tests/campaign_determinism.rs`).

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize, Value};
use uavca_encounter::{StatisticalEncounterModel, Stratification, Stratum};
use uavca_exec::Executor;

use crate::rate::{finite_or_null, float_or};
use crate::rounds::{Family, PlannedRound, ResumeError, RoundStepper, Schedule};
use crate::{BatchRunner, EncounterRunner, PairedJob, PairedOutcome, RateEstimate};

/// 97.5th percentile of the standard normal (95% two-sided intervals).
pub(crate) const Z95: f64 = 1.959_963_984_540_054;

/// Domain-separation tag for the simulation-seed stream (vs the
/// parameter-sampling stream) derived from one job seed.
pub(crate) const SIM_STREAM: u64 = 0x5349_4d5f_5354_5245; // "SIM_STRE"

pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The campaign seed-derivation rule: a job's base seed is a pure
/// function of `(campaign_seed, stratum_index, round, index_in_round)`.
///
/// This is what keeps adaptive campaigns bit-identical across thread
/// counts — reallocation changes *how many* jobs a stratum gets, but a
/// given `(stratum, round, index)` job always replays the same encounter
/// and noise, no matter which worker runs it or when.
pub fn campaign_job_seed(campaign_seed: u64, stratum: usize, round: usize, index: usize) -> u64 {
    let mut h = splitmix64(campaign_seed ^ 0x4341_4d50_4149_474e); // "CAMPAIGN"
    h = splitmix64(h ^ stratum as u64);
    h = splitmix64(h ^ round as u64);
    h ^ splitmix64(h ^ index as u64)
}

/// The splitting branch-seed rule: the RNG seed for branch `branch` taken
/// at the `node`-th checkpoint crossing level `level` of a splitting root
/// whose base seed is `root_seed`.
///
/// Like [`campaign_job_seed`], this is a pure function of its arguments,
/// which is what keeps multilevel-splitting campaigns bit-identical
/// across thread and shard counts: the branch tree is walked
/// depth-first, so `(level, node, branch)` identifies a branch uniquely
/// regardless of which worker replays the root. A distinct domain
/// constant separates the branch stream from the job-seed stream so a
/// branch seed can never collide with a sibling root's simulation seed.
pub fn split_branch_seed(root_seed: u64, level: usize, node: u64, branch: usize) -> u64 {
    let mut h = splitmix64(root_seed ^ 0x5350_4c49_545f_4252); // "SPLIT_BR"
    h = splitmix64(h ^ level as u64);
    h = splitmix64(h ^ node);
    h ^ splitmix64(h ^ branch as u64)
}

/// Configuration of an adaptive stratified campaign.
///
/// # Serialized form
///
/// The disable-early-stop sentinel `target_half_width = +∞` serializes
/// as JSON `null` (the bare `Infinity` literal is not valid JSON) and
/// deserializes back to `+∞`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Campaign seed: the single source of every job seed.
    pub seed: u64,
    /// Paired runs per stratum in the pilot round (round 0). Must be at
    /// least 1: a campaign with no pilot has no tallies to reallocate on.
    pub pilot_per_stratum: usize,
    /// Paired runs added by each refinement round. Must be at least 1.
    pub round_runs: usize,
    /// Maximum refinement rounds after the pilot. Must be at least 1.
    pub max_rounds: usize,
    /// Early-stop target on the risk-ratio CI half-width (the maximum
    /// one-sided width — see [`RatioEstimate::half_width`]). Must be
    /// positive; pass [`f64::INFINITY`] to disable early stopping and
    /// always run `max_rounds` rounds. Zero, negative and NaN targets are
    /// rejected by [`CampaignConfig::validate`].
    pub target_half_width: f64,
    /// Worker threads for the simulation batches (0 = hardware
    /// parallelism). Results are bit-identical for every setting.
    pub threads: usize,
}

impl Serialize for CampaignConfig {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("seed".to_string(), self.seed.serialize()),
            (
                "pilot_per_stratum".to_string(),
                self.pilot_per_stratum.serialize(),
            ),
            ("round_runs".to_string(), self.round_runs.serialize()),
            ("max_rounds".to_string(), self.max_rounds.serialize()),
            (
                "target_half_width".to_string(),
                finite_or_null(self.target_half_width),
            ),
            ("threads".to_string(), self.threads.serialize()),
        ])
    }
}

impl Deserialize for CampaignConfig {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        Ok(CampaignConfig {
            seed: u64::deserialize(v.field("seed")?)?,
            pilot_per_stratum: usize::deserialize(v.field("pilot_per_stratum")?)?,
            round_runs: usize::deserialize(v.field("round_runs")?)?,
            max_rounds: usize::deserialize(v.field("max_rounds")?)?,
            target_half_width: float_or(v.field("target_half_width")?, f64::INFINITY)?,
            threads: usize::deserialize(v.field("threads")?)?,
        })
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            pilot_per_stratum: 25,
            round_runs: 300,
            max_rounds: 10,
            target_half_width: 0.1,
            threads: 0,
        }
    }
}

impl CampaignConfig {
    /// Validates the configuration, rejecting the degenerate shapes that
    /// would otherwise silently produce an empty or meaningless
    /// [`CampaignOutcome`]: a zero pilot (no tallies to reallocate on),
    /// zero refinement rounds or zero runs per round (a "campaign" that
    /// never refines), and a zero/negative/NaN half-width target (use
    /// [`f64::INFINITY`] to disable early stopping explicitly).
    ///
    /// Every [`CampaignPlanner`] run path calls this up front.
    ///
    /// # Errors
    ///
    /// Returns the first [`CampaignConfigError`] violated, checked in
    /// field order.
    pub fn validate(&self) -> Result<(), CampaignConfigError> {
        if self.pilot_per_stratum == 0 {
            return Err(CampaignConfigError::ZeroPilotBudget);
        }
        if self.round_runs == 0 {
            return Err(CampaignConfigError::ZeroRoundRuns);
        }
        if self.max_rounds == 0 {
            return Err(CampaignConfigError::ZeroRounds);
        }
        if self.target_half_width.is_nan() || self.target_half_width <= 0.0 {
            return Err(CampaignConfigError::NonPositiveTargetHalfWidth);
        }
        Ok(())
    }

    /// The round schedule this configuration fixes.
    pub(crate) fn schedule(&self) -> Schedule {
        Schedule {
            seed: self.seed,
            pilot: self.pilot_per_stratum,
            round_budget: self.round_runs,
            max_rounds: self.max_rounds,
            target_half_width: self.target_half_width,
        }
    }
}

/// A degenerate [`CampaignConfig`] rejected by
/// [`CampaignConfig::validate`] before any simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CampaignConfigError {
    /// `pilot_per_stratum` is zero: the pilot round would sample nothing
    /// and every reallocation would run on empty tallies.
    ZeroPilotBudget,
    /// `round_runs` is zero: refinement rounds would execute no jobs.
    ZeroRoundRuns,
    /// `max_rounds` is zero: the campaign would never refine the pilot.
    ZeroRounds,
    /// `target_half_width` is zero, negative or NaN. A campaign cannot
    /// reach a non-positive CI width; pass [`f64::INFINITY`] to disable
    /// early stopping instead.
    NonPositiveTargetHalfWidth,
}

impl std::fmt::Display for CampaignConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignConfigError::ZeroPilotBudget => {
                write!(f, "campaign config: pilot_per_stratum must be at least 1")
            }
            CampaignConfigError::ZeroRoundRuns => {
                write!(f, "campaign config: round_runs must be at least 1")
            }
            CampaignConfigError::ZeroRounds => {
                write!(f, "campaign config: max_rounds must be at least 1")
            }
            CampaignConfigError::NonPositiveTargetHalfWidth => write!(
                f,
                "campaign config: target_half_width must be positive \
                 (use f64::INFINITY to disable early stopping)"
            ),
        }
    }
}

impl std::error::Error for CampaignConfigError {}

/// The per-stratum 2×2 table of joint paired outcomes: how often the
/// equipped and unequipped replays of the same seed each ended in NMAC.
///
/// The four cells are the sufficient statistic of the paired estimator:
/// the marginal rates are `(both + one-arm-only)/runs` and the per-pair
/// covariance is `p_both − p_e·p_u`, which the combined risk-ratio CI
/// ([`RatioEstimate::paired`]) and the allocation scores
/// ([`neyman_scores`]) both need. The old scalar `disagree` count loses
/// the split between the two single-arm cells and cannot recover it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairTable {
    /// Pairs where both arms ended in NMAC.
    pub both_nmac: usize,
    /// Pairs where only the equipped arm ended in NMAC (an *induced*
    /// collision: the avoidance system manufactured the NMAC).
    pub equipped_only: usize,
    /// Pairs where only the unequipped arm ended in NMAC (a *resolved*
    /// conflict: the avoidance system rescued it).
    pub unequipped_only: usize,
    /// Pairs where neither arm ended in NMAC.
    pub neither: usize,
}

impl PairTable {
    /// Total pairs recorded.
    pub fn runs(&self) -> usize {
        self.both_nmac + self.equipped_only + self.unequipped_only + self.neither
    }

    /// Equipped-arm NMAC count (marginal of the table).
    pub fn equipped_nmac(&self) -> usize {
        self.both_nmac + self.equipped_only
    }

    /// Unequipped-arm NMAC count (marginal of the table).
    pub fn unequipped_nmac(&self) -> usize {
        self.both_nmac + self.unequipped_only
    }

    /// Pairs whose two arms disagree on NMAC (the off-diagonal mass).
    pub fn disagree(&self) -> usize {
        self.equipped_only + self.unequipped_only
    }

    /// Adds every cell of `other` into this table — the table-level
    /// analogue of [`PairTable::absorb`], for pooling per-stratum tables
    /// into a campaign total without dropping any cell.
    pub fn merge(&mut self, other: &PairTable) {
        self.both_nmac += other.both_nmac;
        self.equipped_only += other.equipped_only;
        self.unequipped_only += other.unequipped_only;
        self.neither += other.neither;
    }

    /// Folds one paired outcome into the table.
    pub fn absorb(&mut self, pair: &PairedOutcome) {
        self.absorb_flags(pair.equipped.nmac, pair.unequipped.nmac);
    }

    /// Folds one `(equipped, unequipped)` NMAC indicator pair into the
    /// table — the cell rule behind [`PairTable::absorb`], exposed so the
    /// multi-aircraft campaign can tally per-aircraft-pair indicators
    /// that do not arrive as a scalar [`PairedOutcome`].
    pub fn absorb_flags(&mut self, equipped_nmac: bool, unequipped_nmac: bool) {
        match (equipped_nmac, unequipped_nmac) {
            (true, true) => self.both_nmac += 1,
            (true, false) => self.equipped_only += 1,
            (false, true) => self.unequipped_only += 1,
            (false, false) => self.neither += 1,
        }
    }

    /// Anscombe-smoothed `(p̃_e, p̃_u, c̃)` for variance work: a quarter
    /// pseudo-count in each of the four cells, so each marginal is the
    /// familiar `(events + ½)/(runs + 1)` and the joint cell is
    /// `(both + ¼)/(runs + 1)`. The per-pair covariance
    /// `c̃ = p̃_b − p̃_e·p̃_u` is clamped to `[0, √(ṽ_e·ṽ_u)]`: the lower
    /// clamp keeps a noisy negative sample covariance from *widening* the
    /// paired interval past the covariance-free one (identical-seed arms
    /// cannot be negatively correlated by construction), the upper is the
    /// Cauchy–Schwarz bound that keeps the paired variance non-negative.
    fn smoothed(&self) -> (f64, f64, f64) {
        let n = self.runs() as f64 + 1.0;
        let pe = (self.equipped_nmac() as f64 + 0.5) / n;
        let pu = (self.unequipped_nmac() as f64 + 0.5) / n;
        let pb = (self.both_nmac as f64 + 0.25) / n;
        let ve = pe * (1.0 - pe);
        let vu = pu * (1.0 - pu);
        let cov = (pb - pe * pu).clamp(0.0, (ve * vu).sqrt());
        (pe, pu, cov)
    }
}

/// A weighted (stratified) proportion with a normal-approximation 95% CI.
///
/// The point estimate is the exact stratified combination
/// `p̂ = Σ w_s·p̂_s`; the standard error uses the stratified variance
/// `Σ w_s²·p̃_s(1-p̃_s)/n_s` with Anscombe-smoothed per-stratum rates
/// (`p̃ = (e+½)/(n+1)`) so a stratum observed at 0 or 1 keeps a
/// non-degenerate variance contribution.
///
/// # Serialized form
///
/// With no sampled stratum the rate and standard error are undefined
/// (`NaN` in memory); they serialize as JSON `null` and deserialize back
/// to `NaN`, so emitted reports stay valid JSON.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedRate {
    /// Stratified point estimate (NaN when no stratum has trials).
    pub rate: f64,
    /// Stratified standard error (NaN when no stratum has trials).
    pub std_err: f64,
    /// Lower 95% bound, clamped to `[0, 1]`.
    pub ci_low: f64,
    /// Upper 95% bound, clamped to `[0, 1]`.
    pub ci_high: f64,
}

impl Serialize for WeightedRate {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("rate".to_string(), finite_or_null(self.rate)),
            ("std_err".to_string(), finite_or_null(self.std_err)),
            ("ci_low".to_string(), Value::Float(self.ci_low)),
            ("ci_high".to_string(), Value::Float(self.ci_high)),
        ])
    }
}

impl Deserialize for WeightedRate {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        Ok(WeightedRate {
            rate: float_or(v.field("rate")?, f64::NAN)?,
            std_err: float_or(v.field("std_err")?, f64::NAN)?,
            ci_low: f64::deserialize(v.field("ci_low")?)?,
            ci_high: f64::deserialize(v.field("ci_high")?)?,
        })
    }
}

/// Total weight of the *sampled* strata — those with at least one trial
/// in `(weight, trials)` cells — the single renormalization denominator
/// every stratified moment divides by.
///
/// [`WeightedRate::combine`], [`paired_covariance`] and
/// [`jackknife_ratio`] must all renormalize by this same mass over the
/// same coverage criterion: the Cauchy–Schwarz argument that nests the
/// paired CI inside the unpaired one compares per-stratum terms built on
/// identical weights, so a drift in any one site's filter would silently
/// void the nesting guarantee.
fn covered_weight(cells: impl Iterator<Item = (f64, usize)>) -> f64 {
    cells.filter(|&(_, n)| n > 0).map(|(w, _)| w).sum()
}

impl WeightedRate {
    /// Combines per-stratum `(weight, events, trials)` cells. Strata with
    /// zero trials are excluded and the remaining weights renormalized
    /// (only possible before the pilot covers every stratum).
    pub fn combine(cells: &[(f64, usize, usize)]) -> WeightedRate {
        let covered = covered_weight(cells.iter().map(|&(w, _, n)| (w, n)));
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
        for &(w, events, trials) in cells {
            if trials == 0 {
                continue;
            }
            let w = w / covered;
            let n = trials as f64;
            rate += w * events as f64 / n;
            let smoothed = (events as f64 + 0.5) / (n + 1.0);
            var += w * w * smoothed * (1.0 - smoothed) / n;
        }
        // The exact stratified combination of proportions lies in [0, 1];
        // clamp away float drift so the rate can never escape its own
        // (clamped) interval.
        let rate = rate.clamp(0.0, 1.0);
        let std_err = var.sqrt();
        WeightedRate {
            rate,
            std_err,
            ci_low: (rate - Z95 * std_err).max(0.0),
            ci_high: (rate + Z95 * std_err).min(1.0),
        }
    }

    /// Half the CI width.
    pub fn half_width(&self) -> f64 {
        (self.ci_high - self.ci_low) / 2.0
    }
}

impl std::fmt::Display for WeightedRate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The report tables' formatter, as for `RateEstimate`: a
        // 1e-6-scale rate renders in scientific notation instead of
        // flattening to `0.0000`.
        write!(
            f,
            "{} [95% CI {}, {}]",
            crate::report::fmt_rate(self.rate),
            crate::report::fmt_rate(self.ci_low),
            crate::report::fmt_rate(self.ci_high)
        )
    }
}

/// The stratified between-arm covariance `Cov(p̂_e, p̂_u)` of the two
/// marginal rates of paired (identical-seed) samples:
/// `Σ w_s²·c̃_s/n_s` over sampled strata, with `c̃_s` the smoothed,
/// clamped per-pair covariance of stratum `s` (see
/// [`PairTable`]'s smoothing note) and weights renormalized over the
/// sampled strata exactly as [`WeightedRate::combine`] does.
///
/// Returns 0 when no stratum has runs (the ratio CI is undefined there
/// anyway). The result is always non-negative and bounded by
/// Cauchy–Schwarz against the two arms' variance contributions, so the
/// paired interval built from it can never be wider than the unpaired
/// one.
pub fn paired_covariance(weights: &[f64], tables: &[PairTable]) -> f64 {
    debug_assert_eq!(
        weights.len(),
        tables.len(),
        "one weight per stratum table — a mismatch would silently truncate"
    );
    let covered = covered_weight(weights.iter().zip(tables).map(|(&w, t)| (w, t.runs())));
    if covered <= 0.0 {
        return 0.0;
    }
    weights
        .iter()
        .zip(tables)
        .filter(|(_, t)| t.runs() > 0)
        .map(|(w, t)| {
            let w = w / covered;
            let (_, _, cov) = t.smoothed();
            w * w * cov / t.runs() as f64
        })
        .sum()
}

/// A ratio of two [`WeightedRate`]s with a log-scale 95% CI.
///
/// # Serialized form
///
/// The undefined markers (`NaN` ratio on a zero denominator, infinite
/// `ci_high`/`se_log` while either arm is event-free) serialize as JSON
/// `null` so emitted reports stay valid JSON; `null` deserializes back to
/// `NaN` for the ratio and `+∞` for the upper bound and standard error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioEstimate {
    /// Point estimate `numerator / denominator` (NaN when the denominator
    /// is zero).
    pub ratio: f64,
    /// Lower 95% bound (0 when undefined).
    pub ci_low: f64,
    /// Upper 95% bound (infinite when undefined).
    pub ci_high: f64,
    /// Standard error of `ln(ratio)` — the log-scale spread the interval
    /// is built from (infinite when undefined).
    pub se_log: f64,
}

impl Serialize for RatioEstimate {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("ratio".to_string(), finite_or_null(self.ratio)),
            ("ci_low".to_string(), Value::Float(self.ci_low)),
            ("ci_high".to_string(), finite_or_null(self.ci_high)),
            ("se_log".to_string(), finite_or_null(self.se_log)),
        ])
    }
}

impl Deserialize for RatioEstimate {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        Ok(RatioEstimate {
            ratio: float_or(v.field("ratio")?, f64::NAN)?,
            ci_low: f64::deserialize(v.field("ci_low")?)?,
            ci_high: float_or(v.field("ci_high")?, f64::INFINITY)?,
            se_log: float_or(v.field("se_log")?, f64::INFINITY)?,
        })
    }
}

impl RatioEstimate {
    /// The covariance-free delta-method CI on the log scale:
    /// `exp(ln r ∓ z·√(se_n²/p_n² + se_d²/p_d²))`.
    ///
    /// This treats the two arms as independent. For paired (identical
    /// seed) arms it over-states the variance — use
    /// [`RatioEstimate::paired`] there; this construction is kept as the
    /// conservative baseline the paired interval is compared against.
    /// When either rate is zero the interval is `[0, ∞)`.
    pub fn from_rates(numerator: &WeightedRate, denominator: &WeightedRate) -> RatioEstimate {
        Self::with_covariance(numerator, denominator, 0.0)
    }

    /// The *paired* delta-method CI on the log scale: the variance of
    /// `ln r̂` subtracts the between-arm covariance term,
    /// `se_n²/p_n² + se_d²/p_d² − 2·cov/(p_n·p_d)`, where `cov` is the
    /// stratified `Cov(p̂_n, p̂_d)` from [`paired_covariance`].
    ///
    /// Identical-seed arms are positively correlated (the equipped run
    /// mostly rescues a subset of the unequipped NMACs), so exploiting
    /// the covariance tightens the interval; `cov` is clamped to
    /// `[0, se_n·se_d]` so the result is *never* wider than
    /// [`RatioEstimate::from_rates`] on the same rates, and an overlarge
    /// caller-supplied covariance (beyond the Cauchy–Schwarz bound the
    /// arms' standard errors permit) cannot collapse the interval to a
    /// zero-width false certainty. When either rate is zero the interval
    /// is `[0, ∞)`: no early stop until both arms have events.
    pub fn paired(
        numerator: &WeightedRate,
        denominator: &WeightedRate,
        covariance: f64,
    ) -> RatioEstimate {
        let cap = numerator.std_err * denominator.std_err;
        let covariance = if cap.is_finite() && cap >= 0.0 {
            covariance.clamp(0.0, cap)
        } else {
            // Undefined std errors (NaN on empty arms) make the interval
            // undefined downstream anyway; only sanitize the sign here.
            covariance.max(0.0)
        };
        Self::with_covariance(numerator, denominator, covariance)
    }

    fn with_covariance(
        numerator: &WeightedRate,
        denominator: &WeightedRate,
        covariance: f64,
    ) -> RatioEstimate {
        let ratio = if denominator.rate > 0.0 {
            numerator.rate / denominator.rate
        } else {
            f64::NAN
        };
        if !(numerator.rate > 0.0 && denominator.rate > 0.0) {
            return RatioEstimate {
                ratio,
                ci_low: 0.0,
                ci_high: f64::INFINITY,
                se_log: f64::INFINITY,
            };
        }
        let var_log = (numerator.std_err / numerator.rate).powi(2)
            + (denominator.std_err / denominator.rate).powi(2)
            - 2.0 * covariance / (numerator.rate * denominator.rate);
        // The per-stratum Cauchy–Schwarz clamp keeps the true expression
        // non-negative; the max(0) only absorbs float drift.
        Self::from_log(ratio, var_log.max(0.0).sqrt())
    }

    /// Builds the log-symmetric interval `exp(ln ratio ∓ z·se_log)`.
    pub fn from_log(ratio: f64, se_log: f64) -> RatioEstimate {
        if ratio.is_nan() || ratio <= 0.0 || !se_log.is_finite() {
            return RatioEstimate {
                ratio,
                ci_low: 0.0,
                ci_high: f64::INFINITY,
                se_log: f64::INFINITY,
            };
        }
        RatioEstimate {
            ratio,
            ci_low: ratio * (-Z95 * se_log).exp(),
            ci_high: ratio * (Z95 * se_log).exp(),
            se_log,
        }
    }

    /// The **maximum one-sided width** `max(hi − ratio, ratio − lo)`;
    /// infinite while the interval is undefined (the early-stop
    /// comparison then never triggers).
    ///
    /// A log-symmetric interval is arithmetically *asymmetric* — the
    /// upper side `r·(e^{z·se} − 1)` is always the wider one — so the
    /// naive `(hi − lo)/2` reading under-states how far the upper bound
    /// sits from the point estimate. Defining the stop criterion as the
    /// worse side guarantees that when a campaign stops at target `t`,
    /// *neither* bound is further than `t` from the reported ratio. This
    /// is the single half-width semantics used by the
    /// [`CampaignConfig::target_half_width`] early stop,
    /// [`crate::analysis::ConvergencePoint`] and
    /// [`crate::analysis::runs_to_half_width`].
    pub fn half_width(&self) -> f64 {
        if self.ratio.is_finite() && self.ci_low.is_finite() && self.ci_high.is_finite() {
            (self.ci_high - self.ratio).max(self.ratio - self.ci_low)
        } else {
            f64::INFINITY
        }
    }
}

impl std::fmt::Display for RatioEstimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.ci_high.is_finite() {
            write!(
                f,
                "{:.3} [95% CI {:.3}, {:.3}]",
                self.ratio, self.ci_low, self.ci_high
            )
        } else {
            write!(f, "{:.3} [95% CI undefined]", self.ratio)
        }
    }
}

/// A stratified delete-one-pair jackknife estimate of the log-risk-ratio
/// spread — the independent cross-check of the paired delta-method CI.
///
/// Within each sampled stratum every pair is left out in turn and the
/// full stratified log ratio recomputed (stratum weights stay fixed; the
/// held-out stratum's rates are re-averaged over `n_s − 1` pairs). A pair
/// only influences the estimate through which of the four [`PairTable`]
/// cells it occupies, so the `n_s` replicates collapse to at most four
/// distinct values with multiplicities and the whole jackknife costs
/// `O(strata)` instead of `O(total pairs)`. The variance is the
/// stratified jackknife sum `Σ_s (n_s−1)/n_s · Σ_{i∈s} (θ̂_(s,i) − θ̄_s)²`.
///
/// Being a resampling estimate of the *same* sampling distribution, it
/// automatically prices in the between-arm covariance — pairs move both
/// arms at once — without ever forming the covariance explicitly, which
/// is what makes it a genuine cross-check of [`RatioEstimate::paired`]
/// rather than a reformulation (property-tested agreement in
/// `tests/proptests.rs`).
///
/// The interval is undefined (`[0, ∞)`, infinite `se_log`) when any arm
/// is event-free, when a sampled stratum has fewer than two pairs, or
/// when deleting a pair would zero an arm entirely (the log replicate
/// diverges). A leave-one-*stratum*-out scheme is deliberately **not**
/// used: strata are fixed cells of the design, not exchangeable draws,
/// so deleting one estimates between-stratum heterogeneity instead of
/// sampling error (see DESIGN.md).
pub fn jackknife_ratio(weights: &[f64], tables: &[PairTable]) -> RatioEstimate {
    debug_assert_eq!(
        weights.len(),
        tables.len(),
        "one weight per stratum table — a mismatch would silently truncate"
    );
    let covered = covered_weight(weights.iter().zip(tables).map(|(&w, t)| (w, t.runs())));
    let undefined = |ratio: f64| RatioEstimate::from_log(ratio, f64::INFINITY);
    if covered <= 0.0 {
        return undefined(f64::NAN);
    }
    let sampled: Vec<(f64, &PairTable)> = weights
        .iter()
        .zip(tables)
        .filter(|(_, t)| t.runs() > 0)
        .map(|(w, t)| (w / covered, t))
        .collect();
    let pe: f64 = sampled
        .iter()
        .map(|(w, t)| w * t.equipped_nmac() as f64 / t.runs() as f64)
        .sum();
    let pu: f64 = sampled
        .iter()
        .map(|(w, t)| w * t.unequipped_nmac() as f64 / t.runs() as f64)
        .sum();
    let ratio = if pu > 0.0 { pe / pu } else { f64::NAN };
    if !(pe > 0.0 && pu > 0.0) || sampled.iter().any(|(_, t)| t.runs() < 2) {
        return undefined(ratio);
    }

    let mut var = 0.0;
    for &(w, t) in &sampled {
        let n = t.runs() as f64;
        let e = t.equipped_nmac() as f64;
        let u = t.unequipped_nmac() as f64;
        // Leave-out replicates by cell type: deleting a pair of type
        // (de, du) shifts only this stratum's marginal rates.
        let cells = [
            (t.both_nmac, 1.0, 1.0),
            (t.equipped_only, 1.0, 0.0),
            (t.unequipped_only, 0.0, 1.0),
            (t.neither, 0.0, 0.0),
        ];
        let mut thetas = [0.0f64; 4];
        let mut mean = 0.0;
        for (slot, &(count, de, du)) in thetas.iter_mut().zip(&cells) {
            if count == 0 {
                continue;
            }
            let pe_i = pe - w * e / n + w * (e - de) / (n - 1.0);
            let pu_i = pu - w * u / n + w * (u - du) / (n - 1.0);
            if !(pe_i > 0.0 && pu_i > 0.0) {
                return undefined(ratio);
            }
            *slot = pe_i.ln() - pu_i.ln();
            mean += count as f64 * *slot;
        }
        mean /= n;
        let ss: f64 = thetas
            .iter()
            .zip(&cells)
            .filter(|(_, (count, _, _))| *count > 0)
            .map(|(theta, (count, _, _))| *count as f64 * (theta - mean) * (theta - mean))
            .sum();
        var += (n - 1.0) / n * ss;
    }
    RatioEstimate::from_log(ratio, var.sqrt())
}

/// Per-stratum outcome counts with Wilson intervals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StratumEstimate {
    /// The stratum.
    pub stratum: Stratum,
    /// Its probability mass under the model.
    pub weight: f64,
    /// Paired runs spent here.
    pub runs: usize,
    /// The joint 2×2 outcome table the rates below are marginals of.
    pub pairs: PairTable,
    /// Equipped NMAC rate.
    pub equipped_nmac: RateEstimate,
    /// Unequipped NMAC rate on identical seeds.
    pub unequipped_nmac: RateEstimate,
    /// Rate of pairs whose two arms disagree on NMAC.
    pub disagreement: RateEstimate,
    /// Fraction of equipped runs with at least one alert.
    pub alert: RateEstimate,
    /// Fraction of runs alerting although the unequipped replay stayed
    /// NMAC-free.
    pub false_alert: RateEstimate,
}

/// A campaign's estimate of the paper's Monte-Carlo quantities (NMAC,
/// alert and false-alert rates, risk ratio): per-stratum
/// Wilson intervals and 2×2 joint tables, exactly-weighted combined
/// rates, the paired (covariance-aware) risk-ratio CI with its unpaired
/// and jackknife companions, and the stratified between-arm covariance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StratifiedEstimate {
    /// Per-stratum estimates, in canonical stratum order.
    pub strata: Vec<StratumEstimate>,
    /// Total paired runs across all strata.
    pub total_runs: usize,
    /// Combined NMAC rate with the configured equipage.
    pub equipped_nmac: WeightedRate,
    /// Combined NMAC rate of the identical-seed unequipped replays.
    pub unequipped_nmac: WeightedRate,
    /// Combined equipped/unequipped disagreement rate.
    pub disagreement: WeightedRate,
    /// Combined alert rate.
    pub alert: WeightedRate,
    /// Combined false-alert rate.
    pub false_alert: WeightedRate,
    /// Stratified between-arm covariance `Cov(p̂_e, p̂_u)` (see
    /// [`paired_covariance`]).
    pub covariance: f64,
    /// `equipped / unequipped` NMAC risk ratio with the **paired**
    /// (covariance-aware) CI — the campaign's primary deliverable and the
    /// interval the early stop watches.
    pub risk_ratio: RatioEstimate,
    /// The covariance-free delta-method CI on the same rates: never
    /// tighter than [`StratifiedEstimate::risk_ratio`], reported for the
    /// old-vs-new comparison.
    pub risk_ratio_unpaired: RatioEstimate,
    /// The stratified delete-one-pair jackknife CI (see
    /// [`jackknife_ratio`]) — an independent cross-check of the paired
    /// delta-method interval.
    pub risk_ratio_jackknife: RatioEstimate,
}

/// Convergence snapshot appended after every campaign round — the series
/// [`crate::analysis::convergence_series`] and the report tables render.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundSummary {
    /// Round number (0 is the pilot).
    pub round: usize,
    /// Paired runs allocated to each stratum this round (canonical
    /// stratum order).
    pub allocated: Vec<usize>,
    /// Paired runs executed this round.
    pub runs_this_round: usize,
    /// Cumulative paired runs after this round.
    pub total_runs: usize,
    /// Combined equipped NMAC rate after this round.
    pub equipped_nmac: WeightedRate,
    /// Combined unequipped NMAC rate after this round.
    pub unequipped_nmac: WeightedRate,
    /// Combined paired risk ratio after this round (the early-stop
    /// interval).
    pub risk_ratio: RatioEstimate,
    /// The covariance-free interval after this round, for convergence
    /// comparisons of the two constructions.
    pub risk_ratio_unpaired: RatioEstimate,
}

/// The result of a campaign: the final stratified estimate plus the full
/// round-by-round convergence trail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignOutcome {
    /// The final stratified estimate.
    pub estimate: StratifiedEstimate,
    /// One summary per executed round, in order.
    pub rounds: Vec<RoundSummary>,
    /// Whether the risk-ratio CI reached the configured target half-width
    /// (possibly before exhausting `max_rounds`).
    pub reached_target: bool,
}

impl CampaignOutcome {
    /// Total paired runs spent.
    pub fn total_runs(&self) -> usize {
        self.estimate.total_runs
    }

    /// Cumulative runs after the first round whose paired risk-ratio CI
    /// half-width (maximum one-sided width — see
    /// [`RatioEstimate::half_width`]) is at most `target`, if any round
    /// got there (delegates to [`crate::analysis::runs_to_half_width`] so
    /// there is a single definition of the runs-to-target reading).
    pub fn runs_to_half_width(&self, target: f64) -> Option<usize> {
        crate::analysis::runs_to_half_width(
            &crate::analysis::convergence_series(&self.rounds),
            target,
        )
    }
}

/// Anything that can fly a batch of paired jobs. [`BatchRunner`] is the
/// production source; tests substitute rigged generators with known
/// per-stratum rates to validate the estimator itself.
pub trait PairSource {
    /// Runs every job, returning outcomes in job order. Implementations
    /// must be pure per job (outcome a function of `params` and `seed`
    /// only) for campaign determinism to hold.
    fn run_pairs(&self, jobs: &[PairedJob]) -> Vec<PairedOutcome>;
}

impl PairSource for BatchRunner {
    fn run_pairs(&self, jobs: &[PairedJob]) -> Vec<PairedOutcome> {
        self.run_paired(jobs)
    }
}

/// Per-stratum running counts: the joint 2×2 outcome table plus the
/// alerting tallies the table does not cover.
///
/// Every cell is an integer count, and every statistic downstream is a
/// pure function of the cells — which is why sharded execution can be
/// held to bit-identity with a single process: shards return outcomes by
/// job index, and absorbing them in job order reproduces the same cells
/// however the round was partitioned (shard counts, scheduling,
/// mid-round requeues).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StratumTally {
    /// The joint 2×2 outcome table of the pairs absorbed so far.
    pub pairs: PairTable,
    /// Pairs whose equipped arm alerted at least once.
    pub alerts: usize,
    /// Pairs alerting although the unequipped replay stayed NMAC-free.
    pub false_alerts: usize,
}

impl StratumTally {
    /// Folds one paired outcome into the tally.
    pub fn absorb(&mut self, pair: &PairedOutcome) {
        self.pairs.absorb(pair);
        if pair.equipped.alerted() {
            self.alerts += 1;
        }
        if pair.false_alert() {
            self.false_alerts += 1;
        }
    }

    /// Total pairs recorded.
    pub fn runs(&self) -> usize {
        self.pairs.runs()
    }

    /// Total pairs recorded, or `None` when the tally is impossible: its
    /// cells overflow, or it counts more alerts than pairs. This is how a
    /// checkpoint that crossed a trust boundary is vetted before resuming.
    pub(crate) fn checked_runs(&self) -> Option<usize> {
        let p = &self.pairs;
        let runs = p
            .both_nmac
            .checked_add(p.equipped_only)?
            .checked_add(p.unequipped_only)?
            .checked_add(p.neither)?;
        (self.alerts <= runs && self.false_alerts <= runs).then_some(runs)
    }
}

/// Splits `budget` across strata proportionally to `scores` with
/// largest-remainder rounding (deterministic, ties broken by stratum
/// index), so every allocated total is exactly `budget`.
pub(crate) fn apportion(scores: &[f64], budget: usize) -> Vec<usize> {
    let total: f64 = scores.iter().sum();
    if total <= 0.0 {
        // Degenerate scores: spread evenly, first strata take the rest.
        let base = budget / scores.len().max(1);
        let extra = budget - base * scores.len();
        return (0..scores.len())
            .map(|i| base + usize::from(i < extra))
            .collect();
    }
    let quotas: Vec<f64> = scores.iter().map(|s| budget as f64 * s / total).collect();
    let mut alloc: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let assigned: usize = alloc.iter().sum();
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = quotas[a] - quotas[a].floor();
        let fb = quotas[b] - quotas[b].floor();
        #[expect(
            clippy::expect_used,
            reason = "fractional parts of finite quotas are finite"
        )]
        fb.partial_cmp(&fa).expect("finite quotas").then(a.cmp(&b))
    });
    for &i in order.iter().take(budget.saturating_sub(assigned)) {
        alloc[i] += 1;
    }
    alloc
}

/// Neyman scores for the **paired** log-risk-ratio objective.
///
/// Minimizing the paired delta-method variance of `ln r̂`,
/// `Σ_s w_s²/n_s · (σ²_{e,s}/p_e² + σ²_{u,s}/p_u² − 2·c_s/(p_e·p_u))`,
/// over allocations `{n_s}` at a fixed total gives
/// `n_s ∝ w_s·√(σ̃²_{e,s}/p̂_e² + σ̃²_{u,s}/p̂_u² − 2·c̃_s/(p̂_e·p̂_u))` —
/// each stratum scored by its contribution to the variance that actually
/// bounds the CI, covariance term included. A stratum whose events are
/// *concordant* (both arms collide on the same pairs) carries a large
/// positive `c̃_s` that cancels most of its marginal variance: those
/// pairs tell the ratio little, and the score correctly discounts them.
/// A *discordant* stratum (arms disagree) has `c̃_s ≈ 0` and keeps its
/// full marginal score — the paired objective is what makes
/// "disagreement-rich strata matter most" a theorem rather than a
/// heuristic.
///
/// Per-stratum cell rates are shrunk toward the pooled rates
/// (`(x_s + k·p̂)/(n_s + k)`, an empirical-Bayes prior worth `k = 4`
/// pooled pseudo-runs), so an all-agree stratum scores like the campaign
/// average instead of like `1/n_s` — rare-event strata with *observed*
/// events stand out, but no region is ever written off on a handful of
/// samples (the pooled rates themselves are Laplace-smoothed and
/// nonzero). The covariance is clamped to `[0, √(σ̃²_e·σ̃²_u)]` exactly
/// as in the estimator, so every score is real and non-negative.
pub fn neyman_scores(weights: &[f64], tables: &[PairTable]) -> Vec<f64> {
    debug_assert_eq!(
        weights.len(),
        tables.len(),
        "one weight per stratum table — a mismatch would silently truncate"
    );
    /// Pseudo-runs of pooled-rate prior mixed into each stratum's cells.
    const SHRINKAGE_RUNS: f64 = 4.0;
    let total_runs: usize = tables.iter().map(PairTable::runs).sum();
    let equipped: usize = tables.iter().map(PairTable::equipped_nmac).sum();
    let unequipped: usize = tables.iter().map(PairTable::unequipped_nmac).sum();
    let both: usize = tables.iter().map(|t| t.both_nmac).sum();
    let n = total_runs as f64;
    let pe = (equipped as f64 + 1.0) / (n + 2.0);
    let pu = (unequipped as f64 + 1.0) / (n + 2.0);
    // Pooled joint rate: a half pseudo-event keeps it strictly inside
    // (0, min(pe, pu)) since both ≤ min(equipped, unequipped).
    let pb = (both as f64 + 0.5) / (n + 2.0);
    let shrink = |events: usize, trials: usize, pooled: f64| -> f64 {
        (events as f64 + SHRINKAGE_RUNS * pooled) / (trials as f64 + SHRINKAGE_RUNS)
    };
    weights
        .iter()
        .zip(tables)
        .map(|(w, t)| {
            let n_s = t.runs();
            let pe_s = shrink(t.equipped_nmac(), n_s, pe);
            let pu_s = shrink(t.unequipped_nmac(), n_s, pu);
            let pb_s = shrink(t.both_nmac, n_s, pb);
            let ve = pe_s * (1.0 - pe_s);
            let vu = pu_s * (1.0 - pu_s);
            let cov = (pb_s - pe_s * pu_s).clamp(0.0, (ve * vu).sqrt());
            let objective = ve / (pe * pe) + vu / (pu * pu) - 2.0 * cov / (pe * pu);
            w * objective.max(0.0).sqrt()
        })
        .collect()
}

/// The paired campaign family: two-ship [`PairedJob`]s sampled from the
/// statistical encounter model, tallied into per-stratum 2×2
/// [`PairTable`]s ([`StratumTally`]) — the [`Family`] behind
/// [`CampaignStepper`].
#[derive(Debug, Clone)]
pub struct Paired {
    model: StatisticalEncounterModel,
    stratification: Stratification,
    strata: Vec<Stratum>,
    weights: Vec<f64>,
}

impl Family for Paired {
    type Job = PairedJob;
    type Outcome = PairedOutcome;
    type Tally = StratumTally;
    type Estimate = StratifiedEstimate;
    type Summary = RoundSummary;
    type Report = CampaignOutcome;

    fn empty_tallies(&self) -> Vec<StratumTally> {
        vec![StratumTally::default(); self.strata.len()]
    }

    fn scores(&mut self, tallies: &[StratumTally], adaptive: bool) -> Vec<f64> {
        if adaptive {
            let tables: Vec<PairTable> = tallies.iter().map(|t| t.pairs).collect();
            neyman_scores(&self.weights, &tables)
        } else {
            self.weights.clone()
        }
    }

    fn job(&self, stratum: usize, rng: &mut StdRng, sim_seed: u64) -> PairedJob {
        PairedJob {
            params: self
                .stratification
                .sample(&self.model, self.strata[stratum], rng),
            seed: sim_seed,
        }
    }

    fn absorb(tally: &mut StratumTally, _job: &PairedJob, outcome: &PairedOutcome) {
        tally.absorb(outcome);
    }

    fn runs(tally: &StratumTally) -> usize {
        tally.runs()
    }

    fn estimate(&self, tallies: &[StratumTally]) -> StratifiedEstimate {
        let weights = &self.weights;
        let per_stratum: Vec<StratumEstimate> = self
            .strata
            .iter()
            .zip(weights)
            .zip(tallies)
            .map(|((&stratum, &weight), t)| StratumEstimate {
                stratum,
                weight,
                runs: t.runs(),
                pairs: t.pairs,
                equipped_nmac: RateEstimate::wilson(t.pairs.equipped_nmac(), t.runs()),
                unequipped_nmac: RateEstimate::wilson(t.pairs.unequipped_nmac(), t.runs()),
                disagreement: RateEstimate::wilson(t.pairs.disagree(), t.runs()),
                alert: RateEstimate::wilson(t.alerts, t.runs()),
                false_alert: RateEstimate::wilson(t.false_alerts, t.runs()),
            })
            .collect();
        let cells = |pick: fn(&StratumTally) -> usize| -> Vec<(f64, usize, usize)> {
            weights
                .iter()
                .zip(tallies)
                .map(|(&w, t)| (w, pick(t), t.runs()))
                .collect()
        };
        let tables: Vec<PairTable> = tallies.iter().map(|t| t.pairs).collect();
        let equipped_nmac = WeightedRate::combine(&cells(|t| t.pairs.equipped_nmac()));
        let unequipped_nmac = WeightedRate::combine(&cells(|t| t.pairs.unequipped_nmac()));
        let covariance = paired_covariance(weights, &tables);
        StratifiedEstimate {
            total_runs: tallies.iter().map(StratumTally::runs).sum(),
            covariance,
            risk_ratio: RatioEstimate::paired(&equipped_nmac, &unequipped_nmac, covariance),
            risk_ratio_unpaired: RatioEstimate::from_rates(&equipped_nmac, &unequipped_nmac),
            risk_ratio_jackknife: jackknife_ratio(weights, &tables),
            disagreement: WeightedRate::combine(&cells(|t| t.pairs.disagree())),
            alert: WeightedRate::combine(&cells(|t| t.alerts)),
            false_alert: WeightedRate::combine(&cells(|t| t.false_alerts)),
            strata: per_stratum,
            equipped_nmac,
            unequipped_nmac,
        }
    }

    fn risk_ratio(estimate: &StratifiedEstimate) -> &RatioEstimate {
        &estimate.risk_ratio
    }

    fn summarize(planned: &PlannedRound<PairedJob>, estimate: &StratifiedEstimate) -> RoundSummary {
        RoundSummary {
            round: planned.round,
            allocated: planned.allocated.clone(),
            runs_this_round: planned.jobs.len(),
            total_runs: estimate.total_runs,
            equipped_nmac: estimate.equipped_nmac,
            unequipped_nmac: estimate.unequipped_nmac,
            risk_ratio: estimate.risk_ratio,
            risk_ratio_unpaired: estimate.risk_ratio_unpaired,
        }
    }

    fn report(
        estimate: StratifiedEstimate,
        rounds: Vec<RoundSummary>,
        reached_target: bool,
    ) -> CampaignOutcome {
        CampaignOutcome {
            estimate,
            rounds,
            reached_target,
        }
    }
}

/// Plans and executes adaptive (or uniform-baseline) stratified
/// Monte-Carlo campaigns over the statistical encounter model.
#[derive(Debug, Clone)]
pub struct CampaignPlanner {
    runner: EncounterRunner,
    model: StatisticalEncounterModel,
    stratification: Stratification,
    config: CampaignConfig,
}

impl CampaignPlanner {
    /// A planner with the default statistical model and stratification.
    pub fn new(runner: EncounterRunner, config: CampaignConfig) -> Self {
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

    /// Adjusts the campaign configuration in place (builder-style).
    pub fn config_with(mut self, adjust: impl FnOnce(&mut CampaignConfig)) -> Self {
        adjust(&mut self.config);
        self
    }

    /// The configured campaign parameters.
    pub fn current_config(&self) -> CampaignConfig {
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

    /// Runs the adaptive campaign on the shared worker pool.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignConfigError`] when the configuration is
    /// degenerate (see [`CampaignConfig::validate`]); no simulation runs
    /// in that case.
    pub fn run(&self) -> Result<CampaignOutcome, CampaignConfigError> {
        self.run_observed(|_| {})
    }

    /// Runs the adaptive campaign, streaming each [`RoundSummary`] to
    /// `observer` as soon as its round completes (progress displays,
    /// convergence logging).
    ///
    /// # Errors
    ///
    /// Returns [`CampaignConfigError`] when the configuration is
    /// degenerate; the observer is never called in that case.
    pub fn run_observed<F: FnMut(&RoundSummary)>(
        &self,
        observer: F,
    ) -> Result<CampaignOutcome, CampaignConfigError> {
        self.drive(&self.batch(), true, observer)
    }

    /// Runs the adaptive campaign against a caller-supplied job source
    /// (rigged generators in tests, remote backends later).
    ///
    /// # Errors
    ///
    /// Returns [`CampaignConfigError`] when the configuration is
    /// degenerate; the source is never invoked in that case.
    pub fn run_with<S: PairSource>(
        &self,
        source: &S,
    ) -> Result<CampaignOutcome, CampaignConfigError> {
        self.drive(source, true, |_| {})
    }

    /// Runs the adaptive campaign against a caller-supplied job source,
    /// streaming each [`RoundSummary`] as its round completes — the
    /// combination remote services need (a sharded backend as the
    /// source, round events forwarded over the wire as they happen).
    ///
    /// # Errors
    ///
    /// Returns [`CampaignConfigError`] when the configuration is
    /// degenerate; neither the source nor the observer is invoked in
    /// that case.
    pub fn run_with_observed<S: PairSource, F: FnMut(&RoundSummary)>(
        &self,
        source: &S,
        observer: F,
    ) -> Result<CampaignOutcome, CampaignConfigError> {
        self.drive(source, true, observer)
    }

    /// Runs the *uniform* baseline: identical schedule and seed rule, but
    /// every round splits its budget proportionally to stratum mass —
    /// stratified uniform Monte-Carlo, no adaptation.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignConfigError`] when the configuration is
    /// degenerate (same validation as [`CampaignPlanner::run`]).
    pub fn run_uniform(&self) -> Result<CampaignOutcome, CampaignConfigError> {
        self.drive(&self.batch(), false, |_| {})
    }

    /// [`run_uniform`](Self::run_uniform) against a caller-supplied source.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignConfigError`] when the configuration is
    /// degenerate; the source is never invoked in that case.
    pub fn run_uniform_with<S: PairSource>(
        &self,
        source: &S,
    ) -> Result<CampaignOutcome, CampaignConfigError> {
        self.drive(source, false, |_| {})
    }

    /// [`run_uniform_with`](Self::run_uniform_with) with per-round
    /// streaming — so services can report uniform-baseline progress
    /// exactly as they report adaptive progress.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignConfigError`] when the configuration is
    /// degenerate; neither the source nor the observer is invoked in
    /// that case.
    pub fn run_uniform_with_observed<S: PairSource, F: FnMut(&RoundSummary)>(
        &self,
        source: &S,
        observer: F,
    ) -> Result<CampaignOutcome, CampaignConfigError> {
        self.drive(source, false, observer)
    }

    fn batch(&self) -> BatchRunner {
        BatchRunner::new(self.runner.clone(), Executor::new(self.config.threads))
    }

    fn drive<S: PairSource, F: FnMut(&RoundSummary)>(
        &self,
        source: &S,
        adaptive: bool,
        observer: F,
    ) -> Result<CampaignOutcome, CampaignConfigError> {
        Ok(self
            .stepper_with(adaptive)?
            .drive(|jobs| source.run_pairs(jobs), observer))
    }

    fn stepper_with(&self, adaptive: bool) -> Result<CampaignStepper, CampaignConfigError> {
        self.config.validate()?;
        let strata = self.stratification.strata();
        let weights = strata
            .iter()
            .map(|&s| self.stratification.weight(&self.model, s))
            .collect();
        let family = Paired {
            model: self.model,
            stratification: self.stratification,
            strata,
            weights,
        };
        Ok(RoundStepper::new(family, self.config.schedule(), adaptive))
    }

    /// A fresh adaptive (Neyman-allocated) stepper for this planner — the
    /// resumable equivalent of [`CampaignPlanner::run`].
    ///
    /// # Errors
    ///
    /// Returns [`CampaignConfigError`] when the configuration is
    /// degenerate (same validation as every run path).
    pub fn stepper(&self) -> Result<CampaignStepper, CampaignConfigError> {
        self.stepper_with(true)
    }

    /// A fresh uniform-baseline (proportionally allocated) stepper — the
    /// resumable equivalent of [`CampaignPlanner::run_uniform`].
    ///
    /// # Errors
    ///
    /// Returns [`CampaignConfigError`] when the configuration is
    /// degenerate.
    pub fn uniform_stepper(&self) -> Result<CampaignStepper, CampaignConfigError> {
        self.stepper_with(false)
    }

    /// Rebuilds a stepper from a [`CampaignCheckpoint`], restoring the
    /// allocation rule recorded in it. The resumed stepper replays the
    /// remaining rounds byte-identically to an uninterrupted run of the
    /// same planner.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignResumeError`] when the planner's config is
    /// degenerate, the checkpoint was taken under a different
    /// stratification, or its trail or tallies are inconsistent.
    pub fn resume(
        &self,
        checkpoint: &CampaignCheckpoint,
    ) -> Result<CampaignStepper, CampaignResumeError> {
        self.stepper_with(checkpoint.adaptive)?.restore(
            &checkpoint.tallies,
            &checkpoint.rounds,
            checkpoint.next_round,
            checkpoint.reached_target,
            checkpoint.rounds.last().map_or(0, |r| r.total_runs),
            StratumTally::checked_runs,
        )
    }
}

/// The exact resumable state of a paired campaign at a round boundary.
///
/// The seed rule ([`campaign_job_seed`]) makes this checkpoint **tiny and
/// exact**: job parameters and simulation seeds are pure functions of
/// `(campaign_seed, stratum, round, index)`, each round's allocation is a
/// pure function of the merged tallies, and every estimate is a pure
/// function of the tallies. A campaign's entire between-round state is
/// therefore (config, next round index, merged [`StratumTally`]s) plus
/// the round summaries already emitted — and resuming from a checkpoint
/// replays the remaining rounds **byte-identically** to the uninterrupted
/// run (property-tested in `tests/checkpoint_resume.rs`). All fields
/// serialize to strict JSON, so checkpoints cross process and wire
/// boundaries unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignCheckpoint {
    /// The next round to execute (0 = the pilot has not run). Equals
    /// `rounds.len()` in any consistent checkpoint.
    pub next_round: usize,
    /// Whether refinement rounds use Neyman allocation (`true`) or the
    /// proportional uniform baseline (`false`).
    pub adaptive: bool,
    /// Merged per-stratum tallies in canonical stratum order.
    pub tallies: Vec<StratumTally>,
    /// Summaries of every completed round, in order.
    pub rounds: Vec<RoundSummary>,
    /// Whether the early-stop target has been reached (a finished
    /// campaign: resuming plans no further rounds).
    pub reached_target: bool,
}

/// A [`CampaignCheckpoint`] that cannot resume under the planner it was
/// handed to.
pub type CampaignResumeError = ResumeError<CampaignConfigError>;

/// The resumable round-by-round paired campaign executor: the shared
/// [`RoundStepper`] over the [`Paired`] family, whose
/// [`CampaignCheckpoint`] [`CampaignPlanner::resume`] replays
/// byte-identically.
pub type CampaignStepper = RoundStepper<Paired>;

impl CampaignStepper {
    /// The campaign's exact state at the current round boundary. Tiny —
    /// integer tallies and round summaries, no job or outcome data — and
    /// sufficient: [`CampaignPlanner::resume`] replays the rest of the
    /// campaign byte-identically.
    pub fn checkpoint(&self) -> CampaignCheckpoint {
        CampaignCheckpoint {
            next_round: self.next_round(),
            adaptive: self.adaptive,
            tallies: self.tallies.clone(),
            rounds: self.rounds().to_vec(),
            reached_target: self.reached_target,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table with the given cells, for estimator unit tests.
    fn table(both: usize, e_only: usize, u_only: usize, neither: usize) -> PairTable {
        PairTable {
            both_nmac: both,
            equipped_only: e_only,
            unequipped_only: u_only,
            neither,
        }
    }

    #[test]
    fn job_seeds_are_pure_and_component_sensitive() {
        let a = campaign_job_seed(7, 3, 2, 11);
        assert_eq!(a, campaign_job_seed(7, 3, 2, 11));
        assert_ne!(a, campaign_job_seed(8, 3, 2, 11));
        assert_ne!(a, campaign_job_seed(7, 4, 2, 11));
        assert_ne!(a, campaign_job_seed(7, 3, 3, 11));
        assert_ne!(a, campaign_job_seed(7, 3, 2, 12));
    }

    #[test]
    fn apportion_is_exact_and_deterministic() {
        let scores = [0.5, 0.25, 0.125, 0.125];
        let alloc = apportion(&scores, 17);
        assert_eq!(alloc.iter().sum::<usize>(), 17);
        assert_eq!(alloc, apportion(&scores, 17));
        // Largest score takes the largest share.
        assert!(alloc[0] >= alloc[1] && alloc[1] >= alloc[2]);
    }

    #[test]
    fn apportion_handles_degenerate_scores() {
        // All-zero scores spread evenly, first strata take the remainder.
        let even = apportion(&[0.0, 0.0, 0.0], 7);
        assert_eq!(even.iter().sum::<usize>(), 7);
        assert_eq!(even, vec![3, 2, 2]);
        // Negative-sum scores take the same even path.
        let neg = apportion(&[-1.0, -2.0], 5);
        assert_eq!(neg.iter().sum::<usize>(), 5);
        assert_eq!(neg, vec![3, 2]);
        // Zero budget allocates nothing, whatever the scores.
        assert_eq!(apportion(&[0.0, 0.0], 0), vec![0, 0]);
        assert_eq!(apportion(&[1.0, 3.0], 0), vec![0, 0]);
        // An empty stratification yields an empty (lossless) allocation.
        assert!(apportion(&[], 0).is_empty());
    }

    #[test]
    fn config_validation_rejects_degenerate_campaigns() {
        let ok = CampaignConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        // Infinite target = early stop disabled, still valid.
        let no_stop = CampaignConfig {
            target_half_width: f64::INFINITY,
            ..ok
        };
        assert_eq!(no_stop.validate(), Ok(()));

        let cases = [
            (
                CampaignConfig {
                    pilot_per_stratum: 0,
                    ..ok
                },
                CampaignConfigError::ZeroPilotBudget,
            ),
            (
                CampaignConfig {
                    round_runs: 0,
                    ..ok
                },
                CampaignConfigError::ZeroRoundRuns,
            ),
            (
                CampaignConfig {
                    max_rounds: 0,
                    ..ok
                },
                CampaignConfigError::ZeroRounds,
            ),
            (
                CampaignConfig {
                    target_half_width: 0.0,
                    ..ok
                },
                CampaignConfigError::NonPositiveTargetHalfWidth,
            ),
            (
                CampaignConfig {
                    target_half_width: -0.1,
                    ..ok
                },
                CampaignConfigError::NonPositiveTargetHalfWidth,
            ),
            (
                CampaignConfig {
                    target_half_width: f64::NAN,
                    ..ok
                },
                CampaignConfigError::NonPositiveTargetHalfWidth,
            ),
        ];
        for (config, expected) in cases {
            assert_eq!(config.validate(), Err(expected), "{config:?}");
            // Errors render a usable message.
            assert!(!expected.to_string().is_empty());
        }
    }

    #[test]
    fn pair_table_marginals_and_absorb() {
        let t = table(3, 2, 5, 90);
        assert_eq!(t.runs(), 100);
        assert_eq!(t.equipped_nmac(), 5);
        assert_eq!(t.unequipped_nmac(), 8);
        assert_eq!(t.disagree(), 7);
    }

    #[test]
    fn pair_table_merge_keeps_every_cell() {
        let mut total = table(3, 2, 5, 90);
        total.merge(&table(1, 4, 2, 13));
        assert_eq!(total, table(4, 6, 7, 103));
        assert_eq!(total.runs(), 120);
    }

    #[test]
    fn paired_caps_an_overlarge_covariance_at_cauchy_schwarz() {
        let num = WeightedRate::combine(&[(1.0, 20, 1000)]);
        let den = WeightedRate::combine(&[(1.0, 200, 1000)]);
        // A covariance far beyond what the arms' standard errors permit
        // must not collapse the interval to zero width.
        let absurd = RatioEstimate::paired(&num, &den, 1.0);
        let capped = RatioEstimate::paired(&num, &den, num.std_err * den.std_err);
        assert_eq!(absurd, capped);
        assert!(absurd.se_log > 0.0);
        assert!(absurd.ci_low < absurd.ratio && absurd.ratio < absurd.ci_high);
        // A negative covariance is sanitized to the unpaired interval.
        let neg = RatioEstimate::paired(&num, &den, -1.0);
        assert_eq!(neg, RatioEstimate::from_rates(&num, &den));
    }

    #[test]
    fn weighted_rate_combines_exactly() {
        // Two equal-mass strata: 10% and 50% event rates → 30% combined.
        let w = WeightedRate::combine(&[(0.5, 10, 100), (0.5, 50, 100)]);
        assert!((w.rate - 0.3).abs() < 1e-12);
        assert!(w.ci_low < w.rate && w.rate < w.ci_high);
        assert!(w.std_err > 0.0);
        // Zero-trial strata are renormalized away.
        let partial = WeightedRate::combine(&[(0.5, 10, 100), (0.5, 0, 0)]);
        assert!((partial.rate - 0.1).abs() < 1e-12);
        // No coverage at all stays NaN with the vacuous interval.
        let none = WeightedRate::combine(&[(1.0, 0, 0)]);
        assert!(none.rate.is_nan());
        assert_eq!((none.ci_low, none.ci_high), (0.0, 1.0));
    }

    #[test]
    fn ratio_estimate_handles_zero_rates() {
        let p = WeightedRate::combine(&[(1.0, 20, 100)]);
        let q = WeightedRate::combine(&[(1.0, 40, 100)]);
        let r = RatioEstimate::from_rates(&p, &q);
        assert!((r.ratio - 0.5).abs() < 1e-12);
        assert!(r.ci_low < r.ratio && r.ratio < r.ci_high);
        assert!(r.half_width().is_finite());
        let zero = WeightedRate::combine(&[(1.0, 0, 100)]);
        let undef = RatioEstimate::from_rates(&zero, &q);
        assert_eq!(undef.ratio, 0.0);
        assert!(undef.half_width().is_infinite());
        assert!(RatioEstimate::from_rates(&p, &zero).ratio.is_nan());
    }

    #[test]
    fn half_width_is_the_max_one_sided_width() {
        let r = RatioEstimate::from_log(0.5, 0.2);
        // Log-symmetric: the upper side is the wider one.
        let upper = r.ci_high - r.ratio;
        let lower = r.ratio - r.ci_low;
        assert!(upper > lower);
        assert!((r.half_width() - upper).abs() < 1e-12);
        // Strictly larger than the arithmetic (hi−lo)/2 reading it fixes.
        assert!(r.half_width() > (r.ci_high - r.ci_low) / 2.0);
    }

    #[test]
    fn paired_interval_is_nested_in_the_unpaired_one() {
        // One stratum, equipped ⊂ unequipped: strong positive covariance.
        let tables = [table(8, 0, 32, 160)];
        let weights = [1.0];
        let e = WeightedRate::combine(&[(1.0, 8, 200)]);
        let u = WeightedRate::combine(&[(1.0, 40, 200)]);
        let cov = paired_covariance(&weights, &tables);
        assert!(cov > 0.0);
        let paired = RatioEstimate::paired(&e, &u, cov);
        let unpaired = RatioEstimate::from_rates(&e, &u);
        assert_eq!(paired.ratio, unpaired.ratio);
        assert!(paired.se_log < unpaired.se_log);
        assert!(paired.ci_low >= unpaired.ci_low);
        assert!(paired.ci_high <= unpaired.ci_high);
        assert!(paired.half_width() < unpaired.half_width());
    }

    #[test]
    fn negative_sample_covariance_is_clamped_to_the_unpaired_interval() {
        // Purely discordant events: sample covariance would be negative,
        // but identical-seed arms cannot be anti-correlated — clamp to 0
        // and fall back to the unpaired interval exactly.
        let tables = [table(0, 10, 30, 160)];
        let cov = paired_covariance(&[1.0], &tables);
        assert_eq!(cov, 0.0);
        let e = WeightedRate::combine(&[(1.0, 10, 200)]);
        let u = WeightedRate::combine(&[(1.0, 30, 200)]);
        let paired = RatioEstimate::paired(&e, &u, cov);
        let unpaired = RatioEstimate::from_rates(&e, &u);
        assert_eq!(paired, unpaired);
    }

    #[test]
    fn jackknife_agrees_with_the_paired_delta_method() {
        // Two healthy strata with plenty of events in every cell.
        let weights = [0.5, 0.5];
        let tables = [table(20, 10, 40, 330), table(10, 5, 25, 160)];
        let e = WeightedRate::combine(&[(0.5, 30, 400), (0.5, 15, 200)]);
        let u = WeightedRate::combine(&[(0.5, 60, 400), (0.5, 35, 200)]);
        let delta = RatioEstimate::paired(&e, &u, paired_covariance(&weights, &tables));
        let jack = jackknife_ratio(&weights, &tables);
        assert!((jack.ratio - delta.ratio).abs() < 1e-12);
        assert!(jack.se_log.is_finite());
        let rel = (jack.se_log - delta.se_log).abs() / delta.se_log;
        assert!(
            rel < 0.2,
            "jackknife {} vs delta {}",
            jack.se_log,
            delta.se_log
        );
    }

    #[test]
    fn jackknife_is_undefined_on_degenerate_tallies() {
        // No coverage.
        assert!(jackknife_ratio(&[1.0], &[table(0, 0, 0, 0)])
            .se_log
            .is_infinite());
        // An arm would be zeroed by a deletion (single equipped event).
        let single = jackknife_ratio(&[1.0], &[table(0, 1, 10, 89)]);
        assert!(single.se_log.is_infinite());
        assert_eq!((single.ci_low, single.ci_high), (0.0, f64::INFINITY));
        // A sampled stratum with one pair cannot be jackknifed.
        let tiny = jackknife_ratio(&[0.5, 0.5], &[table(2, 2, 2, 94), table(1, 0, 0, 0)]);
        assert!(tiny.se_log.is_infinite());
    }

    // The discordant-outranks-concordant allocation property lives in
    // tests/campaign_statistics.rs (neyman_ranks_discordant_above_
    // concordant_at_equal_marginals) with the rest of the paired
    // estimator's statistical coverage.
}
