//! Checkpoint/resume exactness: killing a campaign at *any* round
//! boundary, serializing its checkpoint to JSON, and resuming from the
//! parsed checkpoint must be **byte-identical** to never having
//! stopped — for paired campaigns (adaptive and uniform) and for
//! multilevel-splitting campaigns. A checkpoint whose trail or tallies
//! no campaign could have produced is refused with a typed error, never
//! resumed into a panic.
//!
//! This is the property the control plane's crash recovery rests on:
//! a campaign's full state is (config, round index, merged tallies),
//! because every job is a pure function of those coordinates via the
//! deterministic seed rule. The assertions compare both the structural
//! outcome (`==`) and the serialized JSON (shortest-round-trip floats),
//! so "identical" means identical on the wire too.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use uavca_acasx::{AcasConfig, LogicTable};
use uavca_encounter::{StatisticalEncounterModel, Stratification};
use uavca_sim::EncounterOutcome;
use uavca_validation::{
    BatchRunner, CampaignCheckpoint, CampaignConfig, CampaignPlanner, CampaignResumeError,
    CampaignStepper, EncounterRunner, PairSource, PairedJob, PairedOutcome, SplitCheckpoint,
    SplitConfig, SplitJob, SplitOutcome, SplitPlanner, SplitResumeError, SplitSource, SplitStepper,
    SplitTally, StratumTally,
};

fn runner() -> EncounterRunner {
    static TABLE: OnceLock<Arc<LogicTable>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Arc::new(LogicTable::solve(&AcasConfig::coarse())));
    EncounterRunner::new(table.clone())
}

/// A conflict-enriched model so tiny test budgets still see NMACs.
fn enriched() -> StatisticalEncounterModel {
    StatisticalEncounterModel {
        max_cpa_horizontal_ft: 2500.0,
        max_cpa_vertical_ft: 500.0,
        ..StatisticalEncounterModel::default()
    }
}

/// A deterministic fake pair source: outcomes are pure hashes of the
/// job seed, so campaigns over it are exact without simulation cost —
/// what lets the property test sweep many (config, kill round) points.
struct RiggedPairs;

fn fake_outcome(h: u64) -> EncounterOutcome {
    let nmac = h.is_multiple_of(7);
    EncounterOutcome {
        nmac,
        first_nmac_time_s: nmac.then_some((h % 50) as f64),
        min_separation_ft: (h % 5000) as f64,
        min_horizontal_ft: (h % 4000) as f64,
        min_vertical_ft: (h % 900) as f64,
        time_of_min_s: (h % 40) as f64,
        own_alert_steps: (h % 3) as usize,
        intruder_alert_steps: (h % 2) as usize,
        first_alert_time_s: h.is_multiple_of(5).then_some((h % 20) as f64),
        own_reversals: h.is_multiple_of(11) as usize,
        duration_s: 40.0,
    }
}

impl PairSource for RiggedPairs {
    fn run_pairs(&self, jobs: &[PairedJob]) -> Vec<PairedOutcome> {
        jobs.iter()
            .map(|j| PairedOutcome {
                equipped: fake_outcome(j.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                unequipped: fake_outcome(j.seed.rotate_left(17) ^ 0x5DEE_CE66_D154_21C5),
            })
            .collect()
    }
}

/// Drives a paired stepper to completion against `source`.
fn finish_paired(stepper: &mut CampaignStepper, source: &impl PairSource) {
    while let Some(planned) = stepper.plan_round() {
        let outcomes = source.run_pairs(&planned.jobs);
        stepper.complete_round(&planned, &outcomes);
    }
}

/// Runs `planner` uninterrupted, then again with a kill at round
/// boundary `kill_after` (checkpoint → JSON → parse → resume), and
/// asserts the two outcomes are byte-identical.
fn paired_kill_equals_uninterrupted(
    planner: &CampaignPlanner,
    uniform: bool,
    source: &impl PairSource,
    kill_after: usize,
) {
    let fresh = |p: &CampaignPlanner| {
        if uniform {
            p.uniform_stepper().expect("valid config")
        } else {
            p.stepper().expect("valid config")
        }
    };
    let mut uninterrupted = fresh(planner);
    finish_paired(&mut uninterrupted, source);
    let reference = uninterrupted.outcome();

    let mut interrupted = fresh(planner);
    for _ in 0..kill_after {
        let Some(planned) = interrupted.plan_round() else {
            break;
        };
        let outcomes = source.run_pairs(&planned.jobs);
        interrupted.complete_round(&planned, &outcomes);
    }
    // The "kill": all that survives is the serialized checkpoint.
    let wire = serde_json::to_string(&interrupted.checkpoint()).expect("checkpoint serializes");
    let restored: CampaignCheckpoint = serde_json::from_str(&wire).expect("checkpoint parses");
    let mut resumed = planner.resume(&restored).expect("checkpoint resumes");
    finish_paired(&mut resumed, source);
    let outcome = resumed.outcome();

    // The byte-identity oracle: serialized JSON (shortest-round-trip
    // floats; NaN/∞ → null, so undefined pilot-round ratios — where
    // `NaN != NaN` would fail a structural compare spuriously — still
    // compare exactly).
    assert_eq!(
        serde_json::to_string(&outcome).unwrap(),
        serde_json::to_string(&reference).unwrap(),
        "outcome drifted after resume at round {kill_after}"
    );
}

#[test]
fn paired_kill_at_every_round_is_byte_identical_real_runner() {
    let config = CampaignConfig {
        seed: 11,
        pilot_per_stratum: 3,
        round_runs: 16,
        max_rounds: 2,
        target_half_width: f64::INFINITY,
        threads: 1,
    };
    let planner = CampaignPlanner::new(runner(), config).stratification(Stratification::new(2));
    let source = BatchRunner::new(runner(), uavca_exec::Executor::new(1));
    // 1 pilot + 2 refinement rounds: kill before, between, after each.
    for kill_after in 0..=3 {
        paired_kill_equals_uninterrupted(&planner, false, &source, kill_after);
    }
}

#[test]
fn resume_rejects_mismatched_stratification_and_inconsistent_trails() {
    let config = CampaignConfig {
        seed: 7,
        pilot_per_stratum: 2,
        round_runs: 8,
        max_rounds: 1,
        target_half_width: f64::INFINITY,
        threads: 1,
    };
    let planner = CampaignPlanner::new(runner(), config).stratification(Stratification::new(2));
    let mut stepper = planner.stepper().expect("valid config");
    let planned = stepper.plan_round().expect("pilot round plans");
    let outcomes = RiggedPairs.run_pairs(&planned.jobs);
    stepper.complete_round(&planned, &outcomes);
    let checkpoint = stepper.checkpoint();

    // Different stratification → different stratum count → typed error.
    let other = CampaignPlanner::new(runner(), config).stratification(Stratification::new(3));
    assert!(matches!(
        other.resume(&checkpoint),
        Err(CampaignResumeError::StratumCountMismatch { .. })
    ));

    // A corrupted trail (round index disagrees with the trail length)
    // is rejected instead of resuming into undefined territory.
    let mut corrupt = checkpoint.clone();
    corrupt.next_round = 5;
    assert!(matches!(
        planner.resume(&corrupt),
        Err(CampaignResumeError::InconsistentTrail { .. })
    ));
}

/// Drives a splitting stepper to completion against `source`.
fn finish_split(stepper: &mut SplitStepper, source: &impl SplitSource) {
    while let Some(planned) = stepper.plan_round() {
        let outcomes = source.run_splits(&planned.jobs);
        stepper.complete_round(&planned, &outcomes);
    }
}

#[test]
fn splitting_kill_at_every_round_is_byte_identical() {
    let config = SplitConfig {
        seed: 42,
        levels: 2,
        max_branch: 4,
        pilot_roots_per_stratum: 3,
        round_roots: 24,
        max_rounds: 2,
        target_half_width: f64::INFINITY,
        threads: 1,
    };
    let planner = SplitPlanner::new(runner(), config)
        .model(enriched())
        .stratification(Stratification::new(3));
    let reference = planner.run().expect("valid config");
    let source = BatchRunner::new(runner(), uavca_exec::Executor::new(1));

    for kill_after in 0..=3 {
        let mut interrupted = planner.stepper().expect("valid config");
        for _ in 0..kill_after {
            let Some(planned) = interrupted.plan_round() else {
                break;
            };
            let outcomes = source.run_splits(&planned.jobs);
            interrupted.complete_round(&planned, &outcomes);
        }
        let wire = serde_json::to_string(&interrupted.checkpoint()).expect("checkpoint serializes");
        let restored: SplitCheckpoint = serde_json::from_str(&wire).expect("checkpoint parses");
        let mut resumed = planner.resume(&restored).expect("checkpoint resumes");
        finish_split(&mut resumed, &source);
        let outcome = resumed.outcome();
        assert_eq!(outcome, reference, "kill at round {kill_after}");
        assert_eq!(
            serde_json::to_string(&outcome).unwrap(),
            serde_json::to_string(&reference).unwrap(),
            "serialized splitting outcome drifted after resume at round {kill_after}"
        );
    }
}

#[test]
fn splitting_resume_rejects_mismatched_ladders() {
    let config = SplitConfig {
        seed: 9,
        levels: 2,
        max_branch: 4,
        pilot_roots_per_stratum: 2,
        round_roots: 8,
        max_rounds: 1,
        target_half_width: f64::INFINITY,
        threads: 1,
    };
    let planner = SplitPlanner::new(runner(), config)
        .model(enriched())
        .stratification(Stratification::new(2));
    let source = BatchRunner::new(runner(), uavca_exec::Executor::new(1));
    let mut stepper = planner.stepper().expect("valid config");
    let planned = stepper.plan_round().expect("pilot round plans");
    let outcomes = source.run_splits(&planned.jobs);
    stepper.complete_round(&planned, &outcomes);
    let checkpoint = stepper.checkpoint();

    // A planner with a different ladder depth cannot adopt the tallies.
    let deeper = SplitPlanner::new(
        runner(),
        SplitConfig {
            levels: 3,
            ..config
        },
    )
    .model(enriched())
    .stratification(Stratification::new(2));
    assert!(matches!(
        deeper.resume(&checkpoint),
        Err(SplitResumeError::LadderMismatch { .. })
    ));

    let narrower = SplitPlanner::new(runner(), config)
        .model(enriched())
        .stratification(Stratification::new(3));
    assert!(matches!(
        narrower.resume(&checkpoint),
        Err(SplitResumeError::StratumCountMismatch { .. })
    ));

    // A corrupted trail (round index disagrees with the trail length)
    // is rejected exactly as for paired campaigns.
    let mut corrupt = checkpoint.clone();
    corrupt.next_round = 5;
    assert!(matches!(
        planner.resume(&corrupt),
        Err(SplitResumeError::InconsistentTrail { .. })
    ));
}

/// The shared stepper refuses a plan for another round: absorbing it
/// would file its outcomes under the wrong round.
#[test]
#[should_panic(expected = "complete_round fed a stale plan")]
fn complete_round_rejects_a_stale_plan() {
    let mut stepper = CampaignPlanner::new(runner(), CampaignConfig::default())
        .stepper()
        .expect("valid config");
    let mut planned = stepper.plan_round().expect("pilot round plans");
    planned.round = 1;
    stepper.complete_round(&planned, &[]);
}

/// The shared stepper refuses an outcome list shorter than the plan:
/// the missing jobs would silently drop out of the tallies.
#[test]
#[should_panic(expected = "exactly one outcome per job")]
fn complete_round_rejects_a_short_outcome_list() {
    let mut stepper = split_planner().stepper().expect("valid config");
    let planned = stepper.plan_round().expect("pilot round plans");
    let outcomes = RiggedSplits.run_splits(&planned.jobs[1..]);
    stepper.complete_round(&planned, &outcomes);
}

/// A deterministic fake splitting source whose level and step counts fit
/// the branch tree and the horizon (every root enters stage 0 once and
/// never crosses it; the unequipped run flies the whole horizon), so its
/// checkpoints resume, and campaigns over it cost no simulation.
struct RiggedSplits;

/// The default simulation horizon, in steps.
const HORIZON_STEPS: u64 = 100;

impl SplitSource for RiggedSplits {
    fn run_splits(&self, jobs: &[SplitJob]) -> Vec<SplitOutcome> {
        jobs.iter()
            .map(|j| {
                let h = j.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let stages = j.levels.len() + 1;
                let mut level_trials = vec![0; stages];
                level_trials[0] = 1;
                SplitOutcome {
                    weight: (h % 5) as f64 / 8.0,
                    level_trials,
                    level_crossings: vec![0; stages],
                    equipped_steps: 40 + h % 7,
                    unequipped_steps: HORIZON_STEPS,
                    unequipped: fake_outcome(h.rotate_left(17)),
                }
            })
            .collect()
    }
}

fn split_planner() -> SplitPlanner {
    let config = SplitConfig {
        seed: 5,
        levels: 2,
        max_branch: 4,
        pilot_roots_per_stratum: 2,
        round_roots: 12,
        max_rounds: 2,
        target_half_width: f64::INFINITY,
        threads: 1,
    };
    SplitPlanner::new(runner(), config)
        .model(enriched())
        .stratification(Stratification::new(2))
}

fn paired_planner() -> CampaignPlanner {
    let config = CampaignConfig {
        seed: 3,
        pilot_per_stratum: 2,
        round_runs: 12,
        max_rounds: 2,
        target_half_width: f64::INFINITY,
        threads: 1,
    };
    CampaignPlanner::new(runner(), config).stratification(Stratification::new(2))
}

/// The checkpoint after `rounds` rounds over the rigged source.
fn split_checkpoint(planner: &SplitPlanner, rounds: usize) -> SplitCheckpoint {
    let mut stepper = planner.stepper().expect("valid config");
    for _ in 0..rounds {
        let planned = stepper.plan_round().expect("round plans");
        let outcomes = RiggedSplits.run_splits(&planned.jobs);
        stepper.complete_round(&planned, &outcomes);
    }
    stepper.checkpoint()
}

/// The checkpoint after `rounds` rounds over the rigged source.
fn paired_checkpoint(planner: &CampaignPlanner, rounds: usize) -> CampaignCheckpoint {
    let mut stepper = planner.stepper().expect("valid config");
    for _ in 0..rounds {
        let planned = stepper.plan_round().expect("round plans");
        let outcomes = RiggedPairs.run_pairs(&planned.jobs);
        stepper.complete_round(&planned, &outcomes);
    }
    stepper.checkpoint()
}

#[test]
fn paired_resume_rejects_an_overflowing_count() {
    let planner = paired_planner();
    let mut corrupt = paired_checkpoint(&planner, 1);
    corrupt.tallies[0].pairs.neither = usize::MAX;
    assert!(matches!(
        planner.resume(&corrupt),
        Err(CampaignResumeError::InvalidTally { .. })
    ));
}

#[test]
fn paired_resume_rejects_a_forged_total_that_matches_its_tally() {
    // A near-`usize::MAX` count with the trail's total raised to match:
    // the tallies agree with the trail, but no schedule plans that many
    // runs, and the next round's tally sums would overflow.
    let planner = paired_planner();
    let mut corrupt = paired_checkpoint(&planner, 1);
    let raise = usize::MAX - 10 - corrupt.rounds[0].total_runs;
    corrupt.tallies[0].pairs.neither += raise;
    corrupt.rounds[0].total_runs += raise;
    assert!(matches!(
        planner.resume(&corrupt),
        Err(CampaignResumeError::UnplannedTotal { rounds: 1, .. })
    ));

    // One run too many, just as consistent, is refused the same way.
    let mut corrupt = paired_checkpoint(&planner, 2);
    corrupt.tallies[1].pairs.neither += 1;
    corrupt.rounds[1].total_runs += 1;
    assert!(matches!(
        planner.resume(&corrupt),
        Err(CampaignResumeError::UnplannedTotal { rounds: 2, .. })
    ));
}

#[test]
fn resume_rejects_a_trail_longer_than_the_schedule() {
    // The paired planner runs the pilot plus 2 refinement rounds; a
    // fourth, consistently recorded round is refused.
    let planner = paired_planner();
    let mut corrupt = paired_checkpoint(&planner, 3);
    let mut extra = corrupt.rounds[2].clone();
    extra.round = 3;
    extra.total_runs += 12;
    corrupt.rounds.push(extra);
    corrupt.next_round = 4;
    corrupt.tallies[0].pairs.neither += 12;
    assert!(matches!(
        planner.resume(&corrupt),
        Err(CampaignResumeError::TrailTooLong { rounds: 4, max: 3 })
    ));

    let planner = split_planner();
    let mut corrupt = split_checkpoint(&planner, 3);
    let mut extra = corrupt.rounds[2].clone();
    extra.total_roots += 12;
    corrupt.rounds.push(extra);
    corrupt.next_round = 4;
    assert!(matches!(
        planner.resume(&corrupt),
        Err(SplitResumeError::TrailTooLong { rounds: 4, max: 3 })
    ));
}

#[test]
fn splitting_resume_rejects_an_empty_ladder() {
    let planner = split_planner();
    let mut corrupt = split_checkpoint(&planner, 1);
    corrupt.tallies[0].level_trials.clear();
    assert!(matches!(
        planner.resume(&corrupt),
        Err(SplitResumeError::LadderMismatch { .. })
    ));
}

#[test]
fn splitting_resume_rejects_step_counts_the_horizon_cannot_produce() {
    let planner = split_planner();
    assert_eq!(runner().sim().num_steps() as u64, HORIZON_STEPS);
    // A near-`u64::MAX` equipped step count with the trail's total raised
    // to match: the tallies agree with the trail, but the next round's
    // step sum would overflow.
    let mut corrupt = split_checkpoint(&planner, 1);
    let raise = u64::MAX - 10 - corrupt.rounds[0].total_steps;
    corrupt.tallies[0].equipped_steps += raise;
    corrupt.rounds[0].total_steps += raise;
    assert!(matches!(
        planner.resume(&corrupt),
        Err(SplitResumeError::InvalidTally { stratum: Some(0) })
    ));

    // One unequipped step off the horizon, just as consistent.
    let mut corrupt = split_checkpoint(&planner, 2);
    corrupt.tallies[1].unequipped_steps += 1;
    corrupt.rounds[1].total_steps += 1;
    assert!(matches!(
        planner.resume(&corrupt),
        Err(SplitResumeError::InvalidTally { stratum: Some(1) })
    ));

    // The uncorrupted checkpoints resume.
    assert!(planner.resume(&split_checkpoint(&planner, 2)).is_ok());
}

#[test]
fn splitting_resume_rejects_a_nan_moment() {
    let planner = split_planner();
    let mut corrupt = split_checkpoint(&planner, 1);
    corrupt.tallies[0].sum_weight = f64::NAN;
    assert!(matches!(
        planner.resume(&corrupt),
        Err(SplitResumeError::InvalidTally { .. })
    ));
}

/// Sets one count of a paired tally to `usize::MAX`.
fn overflow_paired(tally: &mut StratumTally, field: usize) {
    let count = match field % 6 {
        0 => &mut tally.pairs.both_nmac,
        1 => &mut tally.pairs.equipped_only,
        2 => &mut tally.pairs.unequipped_only,
        3 => &mut tally.pairs.neither,
        4 => &mut tally.alerts,
        _ => &mut tally.false_alerts,
    };
    *count = usize::MAX;
}

/// Corrupts one field of a splitting tally: a count overflows, a moment
/// sum becomes non-finite or negative, or a level vector is resized to
/// any length from 0 to the ladder's rung count + 2.
fn corrupt_split(tally: &mut SplitTally, field: usize, pick: usize) {
    let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0][pick % 4];
    let stages = tally.level_trials.len();
    match field % 14 {
        0 => tally.roots = usize::MAX,
        1 => tally.unequipped_nmacs = usize::MAX,
        2 => tally.level_trials[pick % stages] = u64::MAX,
        3 => tally.level_crossings[pick % stages] = u64::MAX,
        4 => tally.equipped_steps = u64::MAX,
        5 => tally.unequipped_steps = u64::MAX,
        6 => tally.sum_weight = bad,
        7 => tally.sum_weight_sq = bad,
        8 => tally.sum_cross = bad,
        9 => tally.sum_x = bad,
        10 => tally.sum_xx = bad,
        11 => tally.sum_xy = bad,
        12 => tally.level_trials.resize(pick % (stages + 2), 0),
        _ => tally.level_crossings.resize(pick % (stages + 2), 0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A checkpoint with one corrupted tally field is either refused with
    /// a typed error or resumes into a campaign that runs to completion
    /// on the rigged source — never a panic (overflow, slice bounds, a
    /// NaN clamp).
    #[test]
    fn corrupted_tallies_are_refused_or_harmless(
        splitting in 0u8..2,
        rounds in 0usize..3,
        stratum in 0usize..8,
        field in 0usize..14,
        pick in 0usize..8,
    ) {
        if splitting == 1 {
            let planner = split_planner();
            let mut checkpoint = split_checkpoint(&planner, rounds);
            let stratum = stratum % checkpoint.tallies.len();
            corrupt_split(&mut checkpoint.tallies[stratum], field, pick);
            if let Ok(mut resumed) = planner.resume(&checkpoint) {
                finish_split(&mut resumed, &RiggedSplits);
                resumed.outcome();
            }
        } else {
            let planner = paired_planner();
            let mut checkpoint = paired_checkpoint(&planner, rounds);
            let stratum = stratum % checkpoint.tallies.len();
            overflow_paired(&mut checkpoint.tallies[stratum], field);
            if let Ok(mut resumed) = planner.resume(&checkpoint) {
                finish_paired(&mut resumed, &RiggedPairs);
                resumed.outcome();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: for random small configs (including ones
    /// that stop early on a finite CI target) and a random kill point,
    /// resume-and-replay equals uninterrupted — adaptive and uniform.
    #[test]
    fn kill_at_any_round_equals_uninterrupted(
        seed in 0u64..1_000_000,
        pilot in 1usize..4,
        round_runs in 4usize..32,
        max_rounds in 1usize..5,
        kill_after in 0usize..6,
        // The stand-in proptest has no bool strategy; derive from bits.
        mode_bits in 0u8..4,
    ) {
        let uniform = mode_bits & 1 != 0;
        let early_stop = mode_bits & 2 != 0;
        let config = CampaignConfig {
            seed,
            pilot_per_stratum: pilot,
            round_runs,
            max_rounds,
            // A loose finite target exercises resume across (and past)
            // the reached-target state; infinity never stops early.
            target_half_width: if early_stop { 2.0 } else { f64::INFINITY },
            threads: 1,
        };
        let planner =
            CampaignPlanner::new(runner(), config).stratification(Stratification::new(2));
        paired_kill_equals_uninterrupted(&planner, uniform, &RiggedPairs, kill_after);
    }
}
