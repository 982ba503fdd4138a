//! Fault injection against the sharded merge layer: shards that die
//! mid-round, shards that deliver results out of order or duplicated,
//! and fleets that lose every member.
//!
//! The contract under test is the strong one the crate documents:
//! faults affect *bookkeeping only*. Jobs from a lost shard are
//! requeued (same seeds, same bits), duplicates are rejected with a
//! typed [`ShardFault`], stale re-deliveries are ignored — and the
//! final [`StratifiedEstimate`] stays **byte-identical** to the
//! in-process run through all of it.

use std::sync::{Arc, OnceLock};

use uavca_acasx::{AcasConfig, LogicTable};
use uavca_serve::{
    channel_pair, recv_msg, send_msg, ChannelTransport, ServeError, ShardEvent, ShardFault,
    ShardRequest, ShardedBackend, Transport,
};
use uavca_validation::{
    BatchRunner, CampaignConfig, CampaignPlanner, EncounterRunner, PairedJob, PairedOutcome,
};

fn runner() -> EncounterRunner {
    static TABLE: OnceLock<Arc<LogicTable>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Arc::new(LogicTable::solve(&AcasConfig::coarse())));
    EncounterRunner::new(table.clone())
}

fn config() -> CampaignConfig {
    CampaignConfig {
        seed: 42,
        pilot_per_stratum: 6,
        round_runs: 60,
        max_rounds: 3,
        target_half_width: f64::INFINITY,
        threads: 1,
    }
}

/// How a rigged shard misbehaves.
enum Rig {
    /// Compute every job, then deliver the results reversed, with an
    /// extra duplicate of the first delivery injected mid-stream and a
    /// trailing duplicate of the last delivery left to straggle into
    /// the next round.
    ReverseAndDuplicate,
    /// Deliver only the first `n` results of the first batch, then
    /// close the transport (a crash mid-round). Subsequent requests are
    /// never served.
    DieAfter(usize),
    /// Accept the request, then go silent *without closing the
    /// transport* — a wedged process behind a healthy socket. Invisible
    /// to closure-based loss detection; only a coordinator armed with
    /// [`ShardedBackend::with_loss_timeout`] can write this shard off.
    Hang,
}

/// A shard endpoint with full control over its delivery schedule: runs
/// jobs on a real [`BatchRunner`] (outcomes must be the true ones — the
/// point is that *delivery* faults cannot corrupt the merge) but
/// delivers them according to the rig, one single-job chunk per result.
fn rigged_shard(mut transport: ChannelTransport, rig: Rig) {
    let batch = BatchRunner::serial(runner());
    loop {
        let request = match recv_msg::<ShardRequest>(&mut transport) {
            Ok(Some(request)) => request,
            _ => return,
        };
        let ShardRequest::RunPaired { batch: id, jobs } = request else {
            return;
        };
        let plain: Vec<PairedJob> = jobs.iter().map(|j| j.job).collect();
        let outcomes = batch.run_paired(&plain);
        let mut events: Vec<ShardEvent> = jobs
            .iter()
            .zip(outcomes)
            .map(|(job, outcome)| ShardEvent::PairedChunk {
                batch: id,
                indices: vec![job.index],
                outcomes: vec![outcome],
            })
            .collect();
        match &rig {
            Rig::ReverseAndDuplicate => {
                events.reverse();
                if events.len() >= 2 {
                    // Mid-stream duplicate: rejected inside this round.
                    events.insert(1, events[0].clone());
                    // Trailing duplicate: straggles into the next round
                    // and must be rejected as stale there.
                    events.push(events.last().expect("non-empty").clone());
                }
                for event in &events {
                    if send_msg(&mut transport, event).is_err() {
                        return;
                    }
                }
            }
            Rig::DieAfter(n) => {
                for event in events.iter().take(*n) {
                    if send_msg(&mut transport, event).is_err() {
                        return;
                    }
                }
                return; // drop the transport: the shard is gone
            }
            Rig::Hang => {
                // Say nothing, but keep both channel ends alive so the
                // coordinator never sees a closed transport; block on
                // further requests until the coordinator drops its end.
                drop(events);
                loop {
                    match recv_msg::<ShardRequest>(&mut transport) {
                        Ok(Some(_)) => continue,
                        _ => return,
                    }
                }
            }
        }
    }
}

/// Spawns one honest local shard and one rigged shard, returning the
/// backend over both.
fn backend_with_rig(rig: Rig) -> ShardedBackend {
    // Shard 0 is rigged; shard 1 is an honest worker.
    let (coord0, shard0) = channel_pair();
    std::thread::spawn(move || rigged_shard(shard0, rig));
    let (coord1, shard1) = channel_pair();
    std::thread::spawn(move || {
        let _ = uavca_serve::serve_shard(shard1, BatchRunner::serial(runner()));
    });
    ShardedBackend::from_transports(vec![
        Box::new(coord0) as Box<dyn Transport>,
        Box::new(coord1) as Box<dyn Transport>,
    ])
}

#[test]
fn shard_lost_mid_round_requeues_and_stays_bit_identical() {
    let planner = CampaignPlanner::new(runner(), config());
    let reference = planner.run().expect("valid config");

    let backend = backend_with_rig(Rig::DieAfter(3));
    let outcome = planner.run_with(&backend).expect("valid config");

    assert_eq!(outcome, reference, "shard loss must not change a number");
    assert_eq!(
        serde_json::to_string(&outcome.estimate).unwrap(),
        serde_json::to_string(&reference.estimate).unwrap(),
        "byte-identical serialized estimate across a mid-round shard loss"
    );

    let faults = backend.take_faults();
    let requeued: usize = faults
        .iter()
        .filter_map(|f| match f {
            ShardFault::ShardLost {
                shard: 0, requeued, ..
            } => Some(*requeued),
            _ => None,
        })
        .sum();
    assert!(
        requeued > 0,
        "the dead shard had unfinished jobs to requeue: {faults:?}"
    );

    let usage = backend.usage();
    assert!(usage[0].lost, "shard 0 is recorded lost");
    assert_eq!(usage[0].jobs_completed, 3, "only the pre-crash deliveries");
    assert_eq!(usage[0].jobs_requeued, requeued);
    // Work conservation: everything the campaign ran was completed by
    // exactly one shard.
    let completed: usize = usage.iter().map(|u| u.jobs_completed).sum();
    assert_eq!(completed, outcome.total_runs());
}

#[test]
fn out_of_order_and_duplicated_deliveries_are_rejected_and_bit_identical() {
    let planner = CampaignPlanner::new(runner(), config());
    let reference = planner.run().expect("valid config");

    let backend = backend_with_rig(Rig::ReverseAndDuplicate);
    let outcome = planner.run_with(&backend).expect("valid config");

    assert_eq!(outcome, reference);
    assert_eq!(
        serde_json::to_string(&outcome.estimate).unwrap(),
        serde_json::to_string(&reference.estimate).unwrap(),
        "byte-identical serialized estimate under reordering + duplication"
    );

    let faults = backend.take_faults();
    let duplicates = faults
        .iter()
        .filter(|f| matches!(f, ShardFault::DuplicateResult { shard: 0, .. }))
        .count();
    let stale = faults
        .iter()
        .filter(|f| matches!(f, ShardFault::StaleBatch { shard: 0, .. }))
        .count();
    assert!(
        duplicates > 0,
        "mid-stream duplicates must be rejected with the typed error: {faults:?}"
    );
    assert!(
        stale > 0,
        "trailing duplicates straggling into the next round must be \
         rejected as stale: {faults:?}"
    );
    assert!(
        !faults
            .iter()
            .any(|f| matches!(f, ShardFault::ShardLost { .. })),
        "no shard was lost in this rig: {faults:?}"
    );
    let usage = backend.usage();
    assert_eq!(usage[0].duplicates_rejected, duplicates);
    // Every duplicate renders a usable message (it is an error type).
    for fault in &faults {
        assert!(!fault.to_string().is_empty());
    }
}

#[test]
fn hung_shard_times_out_is_requeued_and_stays_bit_identical() {
    let planner = CampaignPlanner::new(runner(), config());
    let reference = planner.run().expect("valid config");

    // The rigged shard wedges with its transport open: without the
    // timeout this campaign would block forever on its silence.
    let backend = backend_with_rig(Rig::Hang).with_loss_timeout(std::time::Duration::from_secs(2));
    let outcome = planner.run_with(&backend).expect("valid config");

    assert_eq!(outcome, reference, "a hung shard must not change a number");
    assert_eq!(
        serde_json::to_string(&outcome.estimate).unwrap(),
        serde_json::to_string(&reference.estimate).unwrap(),
        "byte-identical serialized estimate across a hung-shard write-off"
    );

    let faults = backend.take_faults();
    let requeued: usize = faults
        .iter()
        .filter_map(|f| match f {
            ShardFault::ShardTimedOut {
                shard: 0, requeued, ..
            } => Some(*requeued),
            _ => None,
        })
        .sum();
    assert!(
        requeued > 0,
        "the hung shard's entire assignment is requeued: {faults:?}"
    );
    assert!(
        !faults
            .iter()
            .any(|f| matches!(f, ShardFault::ShardLost { .. })),
        "silence is a timeout fault, not a closure fault: {faults:?}"
    );

    let usage = backend.usage();
    assert!(usage[0].lost, "the timed-out shard is written off");
    assert_eq!(usage[0].jobs_completed, 0, "it never delivered anything");
    assert_eq!(usage[0].jobs_requeued, requeued);
    // Work conservation: the honest shard completed the whole campaign.
    assert_eq!(usage[1].jobs_completed, outcome.total_runs());
}

#[test]
fn losing_every_shard_is_a_typed_error_not_a_hang() {
    // Both ends of both transports dropped: the fleet is dead on
    // arrival, and dispatch must say so instead of blocking.
    let (coord0, shard0) = channel_pair();
    let (coord1, shard1) = channel_pair();
    drop(shard0);
    drop(shard1);
    let backend = ShardedBackend::from_transports(vec![
        Box::new(coord0) as Box<dyn Transport>,
        Box::new(coord1) as Box<dyn Transport>,
    ]);
    let jobs = BatchRunner::repeated_paired_jobs(
        &uavca_encounter::EncounterParams::head_on_template(),
        4,
        7,
    );
    let err = backend.try_run_pairs(&jobs).unwrap_err();
    assert_eq!(err, ServeError::AllShardsLost { outstanding: 4 });
    // The faults log documents both losses.
    let faults = backend.take_faults();
    assert!(faults.len() >= 2, "{faults:?}");
}

#[test]
fn empty_batches_complete_without_touching_shards() {
    let (coord0, shard0) = channel_pair();
    drop(shard0); // even a dead fleet serves the empty batch
    let backend = ShardedBackend::from_transports(vec![Box::new(coord0) as Box<dyn Transport>]);
    let outcomes: Vec<PairedOutcome> = backend.try_run_pairs(&[]).expect("empty batch is trivial");
    assert!(outcomes.is_empty());
    assert!(backend.take_faults().is_empty());
}

#[test]
fn malformed_and_wrong_family_chunks_are_recorded_and_ignored() {
    // A single shard that first answers with a chunk whose indices and
    // outcomes disagree in length, then with a chunk of the wrong job
    // family, and only then with the true results.
    let (coord, mut shard) = channel_pair();
    std::thread::spawn(move || {
        let batch = BatchRunner::serial(runner());
        let Ok(Some(ShardRequest::RunPaired { batch: id, jobs })) =
            recv_msg::<ShardRequest>(&mut shard)
        else {
            return;
        };
        let plain: Vec<PairedJob> = jobs.iter().map(|j| j.job).collect();
        let outcomes = batch.run_paired(&plain);
        let indices: Vec<usize> = jobs.iter().map(|j| j.index).collect();
        let garbage = [
            ShardEvent::PairedChunk {
                batch: id,
                indices: indices.clone(),
                outcomes: outcomes[..1].to_vec(),
            },
            ShardEvent::SplitChunk {
                batch: id,
                indices: Vec::new(),
                outcomes: Vec::new(),
            },
            ShardEvent::PairedChunk {
                batch: id,
                indices,
                outcomes,
            },
        ];
        for event in &garbage {
            if send_msg(&mut shard, event).is_err() {
                return;
            }
        }
        // Hold the channel open until the coordinator shuts down.
        let _ = recv_msg::<ShardRequest>(&mut shard);
    });
    let backend = ShardedBackend::from_transports(vec![Box::new(coord) as Box<dyn Transport>]);
    let jobs = BatchRunner::repeated_paired_jobs(
        &uavca_encounter::EncounterParams::head_on_template(),
        3,
        11,
    );
    let outcomes = backend
        .try_run_pairs(&jobs)
        .expect("the true chunk completes the batch");
    assert_eq!(outcomes, BatchRunner::serial(runner()).run_paired(&jobs));
    assert_eq!(
        backend.take_faults(),
        vec![
            ShardFault::MalformedEvent { shard: 0 },
            ShardFault::MalformedEvent { shard: 0 },
        ],
        "both bad chunks are faulted and merge nothing"
    );
    assert_eq!(backend.usage()[0].jobs_completed, jobs.len());
}
