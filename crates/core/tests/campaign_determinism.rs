//! Campaign determinism: the adaptive campaign's every number — final
//! stratified estimate, per-round allocations, convergence trail — must
//! be bit-identical for any worker-thread count and across repeated runs
//! with the same campaign seed. This is the contract that lets adaptive
//! campaigns shard across cores (and later machines) while staying
//! replayable from their config alone.

use std::sync::{Arc, OnceLock};

use uavca_acasx::{AcasConfig, LogicTable};
use uavca_encounter::Stratification;
use uavca_validation::{CampaignConfig, CampaignPlanner, EncounterRunner};

fn runner() -> EncounterRunner {
    static TABLE: OnceLock<Arc<LogicTable>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Arc::new(LogicTable::solve(&AcasConfig::coarse())));
    EncounterRunner::new(table.clone())
}

fn config(threads: usize) -> CampaignConfig {
    CampaignConfig {
        seed: 42,
        pilot_per_stratum: 6,
        round_runs: 60,
        max_rounds: 3,
        // Never stop early (every round must match): an infinite target
        // is the validated way to disable the early stop.
        target_half_width: f64::INFINITY,
        threads,
    }
}

#[test]
fn adaptive_campaign_is_identical_across_thread_counts() {
    let reference = CampaignPlanner::new(runner(), config(1))
        .run()
        .expect("valid config");
    assert_eq!(reference.rounds.len(), 4, "pilot + 3 refinement rounds");
    for threads in [2, 8] {
        let outcome = CampaignPlanner::new(runner(), config(threads))
            .run()
            .expect("valid config");
        assert_eq!(outcome, reference, "threads = {threads}");
    }
}

#[test]
fn adaptive_campaign_is_identical_across_repeated_runs() {
    let planner = CampaignPlanner::new(runner(), config(0));
    let a = planner.run().expect("valid config");
    let b = planner.run().expect("valid config");
    assert_eq!(a, b);
    // The estimate is fully reconstructible: the convergence trail's last
    // round agrees with the final estimate.
    let last = a.rounds.last().expect("at least the pilot round ran");
    assert_eq!(last.total_runs, a.estimate.total_runs);
    assert_eq!(last.risk_ratio, a.estimate.risk_ratio);
}

#[test]
fn uniform_baseline_is_identical_across_thread_counts() {
    let reference = CampaignPlanner::new(runner(), config(1))
        .run_uniform()
        .expect("valid config");
    let parallel = CampaignPlanner::new(runner(), config(8))
        .run_uniform()
        .expect("valid config");
    assert_eq!(parallel, reference);
}

/// The sharded service's oracle: a campaign executed across N shard
/// workers (each with its own worker pool) must serialize to the *same
/// bytes* as `CampaignPlanner::run` in one process — shard count and
/// per-shard thread count are pure deployment choices.
#[test]
fn sharded_campaign_matches_in_process_byte_for_byte() {
    use uavca_serve::ShardedBackend;

    let planner = CampaignPlanner::new(runner(), config(1));
    let reference = planner.run().expect("valid config");
    let reference_estimate =
        serde_json::to_string(&reference.estimate).expect("serializable estimate");

    for shards in [1, 2, 8] {
        for threads_per_shard in [1, 2] {
            let backend = ShardedBackend::spawn_local(runner(), shards, threads_per_shard);
            let outcome = planner.run_with(&backend).expect("valid config");
            // Full outcome equality (rounds, allocations, estimate) ...
            assert_eq!(
                outcome, reference,
                "shards = {shards}, threads/shard = {threads_per_shard}"
            );
            // ... and byte-identity of the serialized estimate, the
            // strongest form the artifact-level comparison can take.
            let sharded_estimate =
                serde_json::to_string(&outcome.estimate).expect("serializable estimate");
            assert_eq!(
                sharded_estimate, reference_estimate,
                "serialized bytes must match at shards = {shards}, threads/shard = {threads_per_shard}"
            );
            // A clean run records no faults: nothing was requeued,
            // duplicated or dropped on the way to identity.
            assert!(backend.take_faults().is_empty());
            let usage = backend.usage();
            assert_eq!(usage.len(), shards);
            let completed: usize = usage.iter().map(|u| u.jobs_completed).sum();
            assert_eq!(completed, outcome.total_runs());
        }
    }
}

/// The full client/server stack (wire protocol + framing + sharding)
/// returns the same bytes too, with rounds streamed in the same order
/// the in-process observer sees them.
#[test]
fn served_campaign_over_the_wire_matches_in_process() {
    use uavca_serve::{spawn_in_process, CampaignRequest};

    let planner = CampaignPlanner::new(runner(), config(1));
    let reference = planner.run().expect("valid config");

    let (client, server) = spawn_in_process(runner(), 2, 1);
    let request = CampaignRequest {
        config: config(1),
        model: planner.current_model(),
        cpa_bins: 3,
        uniform: false,
    };
    // The default stratification must match what the planner used.
    assert_eq!(
        CampaignPlanner::new(runner(), config(1))
            .stratification(uavca_encounter::Stratification::new(3))
            .current_stratification(),
        planner.current_stratification(),
        "test premise: Stratification::new(3) is the default"
    );
    let mut streamed = Vec::new();
    let outcome = client
        .run_campaign(&request, |round| streamed.push(round.clone()))
        .expect("campaign accepted");
    assert_eq!(outcome, reference);
    assert_eq!(streamed, reference.rounds);
    assert_eq!(
        serde_json::to_string(&outcome.estimate).unwrap(),
        serde_json::to_string(&reference.estimate).unwrap()
    );
    client.shutdown().expect("orderly shutdown");
    server.join().expect("server session ends cleanly");
}

#[test]
fn campaign_seed_changes_every_round_not_just_the_pilot() {
    let planner = |seed| {
        CampaignPlanner::new(runner(), CampaignConfig { seed, ..config(0) })
            .stratification(Stratification::new(2))
    };
    let a = planner(1).run().expect("valid config");
    let b = planner(2).run().expect("valid config");
    assert_ne!(a.estimate, b.estimate, "different seeds, different draws");
    assert_eq!(
        a.rounds.len(),
        b.rounds.len(),
        "same schedule, different outcomes"
    );
}

#[test]
fn observer_streams_the_same_rounds_the_outcome_records() {
    let planner = CampaignPlanner::new(runner(), config(2));
    let mut streamed = Vec::new();
    let outcome = planner
        .run_observed(|round| streamed.push(round.clone()))
        .expect("valid config");
    assert_eq!(streamed, outcome.rounds);
}

#[test]
fn degenerate_configs_are_rejected_before_any_simulation() {
    use uavca_validation::CampaignConfigError;
    let planner =
        CampaignPlanner::new(runner(), config(1)).config_with(|c| c.target_half_width = 0.0);
    assert_eq!(
        planner.run().unwrap_err(),
        CampaignConfigError::NonPositiveTargetHalfWidth
    );
    assert_eq!(
        planner.run_uniform().unwrap_err(),
        CampaignConfigError::NonPositiveTargetHalfWidth
    );
    let mut observed = 0usize;
    let err = planner
        .run_observed(|_| observed += 1)
        .expect_err("invalid config must not run");
    assert_eq!(err, CampaignConfigError::NonPositiveTargetHalfWidth);
    assert_eq!(observed, 0, "no round may execute on a rejected config");
}
