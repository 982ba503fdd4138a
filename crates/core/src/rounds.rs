//! The one round loop every stratified campaign runs.
//!
//! Paired ([`crate::CampaignPlanner`]), k-aircraft
//! ([`crate::MultiCampaignPlanner`]) and multilevel-splitting
//! ([`crate::SplitPlanner`]) campaigns follow one schedule: a pilot round
//! of a fixed size in every stratum, then refinement rounds that split a
//! fixed budget across strata by score, stopping early once the paired
//! risk-ratio CI half-width reaches the target. [`RoundStepper`] owns that
//! schedule, the per-stratum tallies and the round trail; each family
//! plugs in through the [`Family`] hooks — what a job is, how an outcome
//! folds into a tally, and how tallies become an estimate.
//!
//! # Determinism
//!
//! Job `index` of stratum `s` in round `r` draws its parameters from a
//! `StdRng` seeded with [`campaign_job_seed`]`(seed, s, r, index)` and
//! simulates under the domain-separated split of the same seed, and a
//! round's allocation is a pure function of the tallies — so a plan is a
//! pure function of (schedule, tallies). Outcomes are absorbed serially
//! in job order, so even floating-point tallies see one addition order
//! whichever worker or shard produced them.

use std::fmt::{self, Debug};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::campaign::{apportion, campaign_job_seed, splitmix64, SIM_STREAM};
use crate::RatioEstimate;

/// One campaign family's part of the round loop: its job, outcome,
/// tally, estimate, summary and result types, and the hooks
/// [`RoundStepper`] calls to plan rounds and absorb their outcomes.
pub trait Family {
    /// A self-contained job: everything a worker needs to run it.
    type Job;
    /// What a source returns for one job.
    type Outcome;
    /// Per-stratum running state, absorbed one outcome at a time.
    type Tally: Clone + Debug;
    /// The estimate the tallies support.
    type Estimate;
    /// The convergence snapshot recorded after every round.
    type Summary: Clone + Debug;
    /// The campaign result: final estimate, round trail and stop flag.
    type Report;

    /// One empty tally per stratum, in canonical stratum order.
    fn empty_tallies(&self) -> Vec<Self::Tally>;

    /// Per-stratum scores a refinement round's budget is apportioned by:
    /// Neyman scores from the tallies when `adaptive`, stratum mass
    /// otherwise. Takes `&mut self` so a family can refresh state that
    /// derives from the same tallies (splitting's branch schedules).
    fn scores(&mut self, tallies: &[Self::Tally], adaptive: bool) -> Vec<f64>;

    /// The job for `stratum`, its parameters drawn from `rng` (seeded by
    /// the job seed rule) and its simulations run under `sim_seed`.
    fn job(&self, stratum: usize, rng: &mut StdRng, sim_seed: u64) -> Self::Job;

    /// Folds one job's outcome into its stratum's tally.
    fn absorb(tally: &mut Self::Tally, job: &Self::Job, outcome: &Self::Outcome);

    /// Jobs absorbed into a tally.
    fn runs(tally: &Self::Tally) -> usize;

    /// The estimate from the per-stratum tallies.
    fn estimate(&self, tallies: &[Self::Tally]) -> Self::Estimate;

    /// The risk ratio whose CI half-width the early stop watches.
    fn risk_ratio(estimate: &Self::Estimate) -> &RatioEstimate;

    /// The summary of a completed round, given the estimate after it.
    fn summarize(planned: &PlannedRound<Self::Job>, estimate: &Self::Estimate) -> Self::Summary;

    /// The campaign result.
    fn report(
        estimate: Self::Estimate,
        rounds: Vec<Self::Summary>,
        reached_target: bool,
    ) -> Self::Report;
}

/// The round schedule a campaign configuration fixes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Schedule {
    /// Campaign seed: the single source of every job seed.
    pub seed: u64,
    /// Jobs per stratum in the pilot round (round 0).
    pub pilot: usize,
    /// Jobs per refinement round, apportioned across strata by score.
    pub round_budget: usize,
    /// Refinement rounds after the pilot.
    pub max_rounds: usize,
    /// Early-stop target on the risk-ratio CI half-width (`+∞` never
    /// stops early).
    pub target_half_width: f64,
}

/// One planned round: the jobs to execute plus the bookkeeping
/// [`RoundStepper::complete_round`] needs to absorb their outcomes. Jobs
/// may be partitioned, sharded or interleaved with other campaigns' work
/// arbitrarily — outcomes must simply come back in job order.
#[derive(Debug, Clone)]
pub struct PlannedRound<J> {
    /// The round these jobs belong to (0 = pilot).
    pub round: usize,
    /// Jobs allocated to each stratum (canonical order).
    pub allocated: Vec<usize>,
    /// The jobs, grouped by stratum in allocation order.
    pub jobs: Vec<J>,
    /// `owners[i]` is the stratum index that owns `jobs[i]`.
    pub owners: Vec<usize>,
}

/// A checkpoint that cannot resume under the planner it was handed to.
/// `C` is the family's configuration error; [`crate::CampaignResumeError`]
/// and [`crate::SplitResumeError`] name the two instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeError<C> {
    /// The planner's own configuration is degenerate.
    Config(C),
    /// The checkpoint's tally (or branch-schedule) count does not match
    /// the planner's stratification — it was taken under a different
    /// design.
    StratumCountMismatch {
        /// Strata in the planner's stratification.
        expected: usize,
        /// Tallies or schedules recorded in the checkpoint.
        found: usize,
    },
    /// A splitting stratum's recorded ladder disagrees with the planner's:
    /// its branch schedule needs one entry per rung, its level vectors
    /// one more (the terminal run-to-NMAC stage).
    LadderMismatch {
        /// The offending stratum index.
        stratum: usize,
        /// Entries the planner's ladder needs in the offending vector.
        expected: usize,
        /// Entries the checkpoint recorded.
        found: usize,
    },
    /// `next_round` disagrees with the recorded round trail.
    InconsistentTrail {
        /// The checkpoint's claimed next round.
        next_round: usize,
        /// Round summaries actually recorded.
        rounds: usize,
    },
    /// The trail records more rounds than the schedule ever runs (the
    /// pilot plus `max_rounds` refinement rounds).
    TrailTooLong {
        /// Round summaries recorded.
        rounds: usize,
        /// The most rounds the schedule runs.
        max: usize,
    },
    /// The trail's last recorded total is not the number of runs the
    /// schedule plans for that many rounds (`pilot` per stratum, then
    /// exactly `round_budget` per refinement round).
    UnplannedTotal {
        /// Round summaries recorded.
        rounds: usize,
        /// The cumulative runs the trail's last round recorded.
        recorded: usize,
    },
    /// The tallies are impossible: one stratum's tally could not have
    /// come from any run (`stratum` names it), or the tallies do not sum
    /// to the round trail's last recorded totals (`stratum` is `None`).
    InvalidTally {
        /// The offending stratum, if one tally is impossible on its own.
        stratum: Option<usize>,
    },
}

impl<C> From<C> for ResumeError<C> {
    fn from(e: C) -> Self {
        ResumeError::Config(e)
    }
}

impl<C: fmt::Display> fmt::Display for ResumeError<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Config(e) => write!(f, "{e}"),
            ResumeError::StratumCountMismatch { expected, found } => write!(
                f,
                "checkpoint: {found} tallies but the stratification has \
                 {expected} strata — checkpoint taken under a different design"
            ),
            ResumeError::LadderMismatch {
                stratum,
                expected,
                found,
            } => write!(
                f,
                "checkpoint: stratum {stratum} recorded {found} ladder entries \
                 where the planner's ladder needs {expected}"
            ),
            ResumeError::InconsistentTrail { next_round, rounds } => write!(
                f,
                "checkpoint: next_round {next_round} disagrees with {rounds} \
                 recorded round summaries"
            ),
            ResumeError::TrailTooLong { rounds, max } => write!(
                f,
                "checkpoint: {rounds} recorded rounds but the schedule runs at most {max}"
            ),
            ResumeError::UnplannedTotal { rounds, recorded } => write!(
                f,
                "checkpoint: {recorded} runs recorded after {rounds} rounds, \
                 which is not what the schedule plans"
            ),
            ResumeError::InvalidTally {
                stratum: Some(stratum),
            } => write!(
                f,
                "checkpoint: stratum {stratum}'s tally could not have come from any run"
            ),
            ResumeError::InvalidTally { stratum: None } => write!(
                f,
                "checkpoint: the tallies do not sum to the round trail's recorded totals"
            ),
        }
    }
}

impl<C: fmt::Debug + fmt::Display> std::error::Error for ResumeError<C> {}

/// A resumable round-by-round campaign executor — the engine under every
/// planner's run paths, exposed so coordinators can interleave many
/// campaigns over one fleet and checkpoint each at round boundaries.
///
/// The cycle is: [`plan_round`](Self::plan_round) → run the jobs on any
/// source → [`complete_round`](Self::complete_round), repeated until
/// `plan_round` returns `None`. Because planning is a pure function of
/// (schedule, tallies), a stepper driven to completion — interrupted and
/// resumed, or interleaved with other campaigns — produces a result
/// byte-identical to the planner's blocking `run`.
#[derive(Debug, Clone)]
pub struct RoundStepper<F: Family> {
    pub(crate) family: F,
    schedule: Schedule,
    pub(crate) adaptive: bool,
    pub(crate) tallies: Vec<F::Tally>,
    rounds: Vec<F::Summary>,
    pub(crate) reached_target: bool,
    next_round: usize,
}

impl<F: Family> RoundStepper<F> {
    /// A fresh stepper before its pilot round. `adaptive` selects Neyman
    /// refinement rounds; otherwise they are proportional to stratum
    /// mass (the uniform baseline).
    pub(crate) fn new(family: F, schedule: Schedule, adaptive: bool) -> Self {
        Self {
            tallies: family.empty_tallies(),
            family,
            schedule,
            adaptive,
            rounds: Vec::new(),
            reached_target: false,
            next_round: 0,
        }
    }

    /// Restores a checkpoint's round state onto this fresh stepper — the
    /// one check every family's resume runs. The checkpoint must hold one
    /// tally per stratum and a trail whose length is its next round and
    /// at most the schedule's `max_rounds + 1`; `recorded_total` — the
    /// cumulative runs the trail's last round recorded (0 before the
    /// pilot) — must be what the schedule plans for that many rounds,
    /// because `apportion` hands out each
    /// round's budget exactly; every tally must be possible
    /// (`checked_runs` returns its runs, or `None` for an impossible
    /// tally); and the runs must sum, without overflow, to
    /// `recorded_total`. Bounding the trail and its total bounds every
    /// count the resumed rounds add to.
    pub(crate) fn restore<C>(
        mut self,
        tallies: &[F::Tally],
        rounds: &[F::Summary],
        next_round: usize,
        reached_target: bool,
        recorded_total: usize,
        checked_runs: impl Fn(&F::Tally) -> Option<usize>,
    ) -> Result<Self, ResumeError<C>> {
        if tallies.len() != self.tallies.len() {
            return Err(ResumeError::StratumCountMismatch {
                expected: self.tallies.len(),
                found: tallies.len(),
            });
        }
        if next_round != rounds.len() {
            return Err(ResumeError::InconsistentTrail {
                next_round,
                rounds: rounds.len(),
            });
        }
        let max = self.schedule.max_rounds.saturating_add(1);
        if rounds.len() > max {
            return Err(ResumeError::TrailTooLong {
                rounds: rounds.len(),
                max,
            });
        }
        let planned = match rounds.len() {
            0 => Some(0),
            done => self
                .schedule
                .pilot
                .checked_mul(self.tallies.len())
                .zip(self.schedule.round_budget.checked_mul(done - 1))
                .and_then(|(pilot, refinement)| pilot.checked_add(refinement)),
        };
        if planned != Some(recorded_total) {
            return Err(ResumeError::UnplannedTotal {
                rounds: rounds.len(),
                recorded: recorded_total,
            });
        }
        let mut total = Some(0usize);
        for (stratum, tally) in tallies.iter().enumerate() {
            let runs = checked_runs(tally).ok_or(ResumeError::InvalidTally {
                stratum: Some(stratum),
            })?;
            total = total.and_then(|t| t.checked_add(runs));
        }
        if total != Some(recorded_total) {
            return Err(ResumeError::InvalidTally { stratum: None });
        }
        self.tallies = tallies.to_vec();
        self.rounds = rounds.to_vec();
        self.reached_target = reached_target;
        self.next_round = next_round;
        Ok(self)
    }

    /// Whether the campaign is over: the target was reached or every
    /// round has run. [`plan_round`](Self::plan_round) returns `None`.
    pub fn is_finished(&self) -> bool {
        self.reached_target || self.next_round > self.schedule.max_rounds
    }

    /// The next round to execute (0 = pilot).
    pub fn next_round(&self) -> usize {
        self.next_round
    }

    /// Summaries of the rounds completed so far, in order.
    pub fn rounds(&self) -> &[F::Summary] {
        &self.rounds
    }

    /// Total jobs absorbed so far.
    pub fn total_runs(&self) -> usize {
        self.tallies.iter().map(F::runs).sum()
    }

    /// Plans the next round's jobs, or `None` when the campaign is
    /// finished. Planning commits nothing: dropping the planned round and
    /// calling again replays the identical plan, because jobs derive from
    /// `(campaign_seed, stratum, round, index)` and the allocation from
    /// the tallies — never from wall-clock state.
    pub fn plan_round(&mut self) -> Option<PlannedRound<F::Job>> {
        if self.is_finished() {
            return None;
        }
        let round = self.next_round;
        let allocated = if round == 0 {
            vec![self.schedule.pilot; self.tallies.len()]
        } else {
            let scores = self.family.scores(&self.tallies, self.adaptive);
            apportion(&scores, self.schedule.round_budget)
        };
        let count: usize = allocated.iter().sum();
        let mut jobs = Vec::with_capacity(count);
        let mut owners = Vec::with_capacity(count);
        for (stratum, &count) in allocated.iter().enumerate() {
            for index in 0..count {
                let base = campaign_job_seed(self.schedule.seed, stratum, round, index);
                let mut rng = StdRng::seed_from_u64(base);
                jobs.push(
                    self.family
                        .job(stratum, &mut rng, splitmix64(base ^ SIM_STREAM)),
                );
                owners.push(stratum);
            }
        }
        Some(PlannedRound {
            round,
            allocated,
            jobs,
            owners,
        })
    }

    /// Absorbs a planned round's outcomes (in job order) and advances to
    /// the next round, returning the round's summary.
    ///
    /// # Panics
    ///
    /// Panics when `planned` is not the stepper's current round or the
    /// outcome count does not match the job count — both are caller bugs
    /// that would silently corrupt the campaign state if tolerated.
    pub fn complete_round(
        &mut self,
        planned: &PlannedRound<F::Job>,
        outcomes: &[F::Outcome],
    ) -> F::Summary {
        assert_eq!(
            planned.round, self.next_round,
            "complete_round fed a stale plan: round {} but the stepper is at round {}",
            planned.round, self.next_round
        );
        assert_eq!(
            outcomes.len(),
            planned.jobs.len(),
            "a source must return exactly one outcome per job"
        );
        for ((&stratum, job), outcome) in planned.owners.iter().zip(&planned.jobs).zip(outcomes) {
            F::absorb(&mut self.tallies[stratum], job, outcome);
        }
        let estimate = self.family.estimate(&self.tallies);
        let summary = F::summarize(planned, &estimate);
        self.rounds.push(summary.clone());
        // A finite target both enables the stop and defines it; an
        // infinite target means "never stop early" (validated > 0).
        let target = self.schedule.target_half_width;
        if target.is_finite() && F::risk_ratio(&estimate).half_width() <= target {
            self.reached_target = true;
        }
        self.next_round += 1;
        summary
    }

    /// The result as of the rounds completed so far (the final result
    /// once [`is_finished`](Self::is_finished)).
    pub fn outcome(&self) -> F::Report {
        F::report(
            self.family.estimate(&self.tallies),
            self.rounds.clone(),
            self.reached_target,
        )
    }

    /// Drives the campaign to completion, running every round's jobs
    /// through `run` and handing every round summary to `observer` —
    /// the loop under every planner `run_*` entry point.
    pub(crate) fn drive(
        mut self,
        mut run: impl FnMut(&[F::Job]) -> Vec<F::Outcome>,
        mut observer: impl FnMut(&F::Summary),
    ) -> F::Report {
        while let Some(planned) = self.plan_round() {
            let outcomes = run(&planned.jobs);
            observer(&self.complete_round(&planned, &outcomes));
        }
        self.outcome()
    }
}
