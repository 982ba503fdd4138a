//! End-to-end service behaviour through the campaign lifecycle API:
//! degenerate campaign configurations are rejected at `Create` with the
//! same validation error the in-process planner returns, as are specs
//! with no CPA band and checkpoints no campaign could have produced;
//! uniform campaigns stream every round, and a campaign on a dead fleet
//! fails as a typed server error while the session survives.

use std::sync::{Arc, OnceLock};

use uavca_acasx::{AcasConfig, LogicTable};
use uavca_encounter::Stratification;
use uavca_serve::{
    channel_pair, CampaignClient, CampaignRequest, CampaignResult, CampaignServer, CampaignSpec,
    CampaignState, Checkpoint, RoundEvent, ServeError, SessionEnd, ShardedBackend,
    SplitCampaignRequest, Transport,
};
use uavca_validation::{
    BatchRunner, CampaignConfig, CampaignConfigError, CampaignPlanner, EncounterRunner,
    SplitConfig, SplitPlanner,
};

fn runner() -> EncounterRunner {
    static TABLE: OnceLock<Arc<LogicTable>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Arc::new(LogicTable::solve(&AcasConfig::coarse())));
    EncounterRunner::new(table.clone())
}

/// A server over `backend` serving one channel session on its own
/// thread: the server handle (for fleet usage), the client, and the
/// session's join handle.
fn serve_one(
    backend: ShardedBackend,
) -> (
    CampaignServer,
    CampaignClient,
    std::thread::JoinHandle<Result<SessionEnd, ServeError>>,
) {
    let server = CampaignServer::new(runner(), backend);
    let server_for_thread = server.clone();
    let (client_end, mut server_end) = channel_pair();
    let handle = std::thread::spawn(move || server_for_thread.serve(&mut server_end));
    (server, CampaignClient::new(client_end), handle)
}

#[test]
fn degenerate_campaign_config_returns_the_typed_error_over_the_wire() {
    let (server, client, handle) = serve_one(ShardedBackend::spawn_local(runner(), 1, 1));
    let request = CampaignRequest {
        config: CampaignConfig {
            max_rounds: 0,
            ..CampaignConfig::default()
        },
        model: Default::default(),
        cpa_bins: 2,
        uniform: false,
    };
    let err = client
        .create_campaign(&CampaignSpec::Paired { request }, None)
        .expect_err("a degenerate config must be rejected at Create");
    assert_eq!(
        err,
        ServeError::Server(CampaignConfigError::ZeroRounds.to_string()),
        "the rejection carries the planner's own validation error"
    );
    client.shutdown().expect("the session survives a rejection");
    assert_eq!(
        handle.join().expect("server thread must not panic"),
        Ok(SessionEnd::ShutdownRequested)
    );
    let completed: usize = server
        .backend()
        .usage()
        .iter()
        .map(|u| u.jobs_completed)
        .sum();
    assert_eq!(completed, 0, "no shard job may run on a rejected config");
}

#[test]
fn zero_cpa_bands_return_an_error_reply_for_both_families() {
    let (_server, client, handle) = serve_one(ShardedBackend::spawn_local(runner(), 1, 1));
    let paired = CampaignSpec::Paired {
        request: CampaignRequest {
            config: CampaignConfig::default(),
            model: Default::default(),
            cpa_bins: 0,
            uniform: false,
        },
    };
    let splitting = CampaignSpec::Splitting {
        request: SplitCampaignRequest {
            config: SplitConfig::default(),
            model: Default::default(),
            cpa_bins: 0,
        },
    };
    for spec in [paired, splitting] {
        let err = client
            .create_campaign(&spec, None)
            .expect_err("a spec with no CPA band must be rejected at Create");
        assert!(matches!(err, ServeError::Server(_)), "{err:?}");
    }
    client.shutdown().expect("the session survives a rejection");
    assert_eq!(
        handle.join().expect("server thread must not panic"),
        Ok(SessionEnd::ShutdownRequested)
    );
}

#[test]
fn a_nan_splitting_checkpoint_gets_an_error_reply_and_the_session_keeps_serving() {
    let (_server, client, handle) = serve_one(ShardedBackend::spawn_local(runner(), 1, 1));
    let request = SplitCampaignRequest {
        config: SplitConfig {
            seed: 4,
            levels: 2,
            pilot_roots_per_stratum: 1,
            round_roots: 8,
            max_rounds: 1,
            threads: 1,
            ..SplitConfig::default()
        },
        model: Default::default(),
        cpa_bins: 1,
    };
    let mut stepper = SplitPlanner::new(runner(), request.config)
        .model(request.model)
        .stratification(Stratification::new(request.cpa_bins))
        .stepper()
        .expect("valid config");
    let planned = stepper.plan_round().expect("pilot round plans");
    let outcomes =
        BatchRunner::new(runner(), uavca_exec::Executor::new(1)).run_splits(&planned.jobs);
    stepper.complete_round(&planned, &outcomes);
    let mut checkpoint = stepper.checkpoint();
    checkpoint.tallies[0].sum_weight = f64::NAN;

    let spec = CampaignSpec::Splitting { request };
    let err = client
        .create_campaign(&spec, Some(&Checkpoint::Splitting { checkpoint }))
        .expect_err("a NaN tally must be rejected at Create");
    assert!(matches!(err, ServeError::Server(_)), "{err:?}");
    client
        .create_campaign(&spec, None)
        .expect("the session keeps serving after the rejection");
    client.shutdown().expect("the session survives a rejection");
    assert_eq!(
        handle.join().expect("server thread must not panic"),
        Ok(SessionEnd::ShutdownRequested)
    );
}

#[test]
fn uniform_campaigns_stream_rounds_like_adaptive_ones() {
    let (_server, client, handle) = serve_one(ShardedBackend::spawn_local(runner(), 2, 1));
    let config = CampaignConfig {
        seed: 11,
        pilot_per_stratum: 3,
        round_runs: 16,
        max_rounds: 2,
        target_half_width: f64::INFINITY,
        threads: 1,
    };
    let request = CampaignRequest {
        config,
        model: Default::default(),
        cpa_bins: 2,
        uniform: true,
    };
    let id = client
        .create_campaign(&CampaignSpec::Paired { request }, None)
        .expect("uniform campaign creates");
    let mut streamed = Vec::new();
    let result = client
        .stream_campaign(id, |round| match round {
            RoundEvent::Paired { summary } => streamed.push(summary.clone()),
            RoundEvent::Splitting { .. } => panic!("a paired campaign streams paired rounds"),
        })
        .expect("uniform campaign runs");
    let CampaignResult::Paired { outcome } = result else {
        panic!("a paired campaign yields a paired result, got {result:?}");
    };
    assert_eq!(
        streamed, outcome.rounds,
        "every uniform round is streamed, in order"
    );
    assert_eq!(streamed.len(), config.max_rounds + 1, "pilot + rounds");
    // Same numbers as the in-process uniform baseline.
    let reference = CampaignPlanner::new(runner(), config)
        .stratification(uavca_encounter::Stratification::new(2))
        .run_uniform()
        .expect("valid config");
    assert_eq!(outcome, reference);
    client.shutdown().expect("orderly shutdown");
    assert_eq!(
        handle.join().expect("server thread must not panic"),
        Ok(SessionEnd::ShutdownRequested)
    );
}

#[test]
fn campaign_on_a_dead_fleet_is_a_typed_server_error_and_the_session_survives() {
    // A fleet that is dead on arrival: the campaign cannot run. The
    // supervisor spends its restart budget, then the stream must end
    // with CampaignFailed (ServeError::Server on the client) and the
    // session keep serving — not unwind the server thread.
    let (coordinator_end, shard_end) = channel_pair();
    drop(shard_end);
    let backend =
        ShardedBackend::from_transports(vec![Box::new(coordinator_end) as Box<dyn Transport>]);
    let (_server, client, handle) = serve_one(backend);

    let request = CampaignRequest {
        config: CampaignConfig {
            pilot_per_stratum: 2,
            round_runs: 8,
            max_rounds: 1,
            ..CampaignConfig::default()
        },
        model: Default::default(),
        cpa_bins: 2,
        uniform: false,
    };
    let id = client
        .create_campaign(&CampaignSpec::Paired { request }, None)
        .expect("a valid spec creates even on a dead fleet");
    let err = client
        .stream_campaign(id, |_| {})
        .expect_err("a dead fleet cannot run a campaign");
    let ServeError::Server(message) = &err else {
        panic!("fleet loss must surface as a typed server error, got {err:?}");
    };
    assert!(
        message.contains("every shard was lost"),
        "the typed fault survives to the client: {message}"
    );
    // The session is still alive and answers further requests.
    let status = client.campaign_status(id).expect("status answers");
    assert_eq!(status.state, CampaignState::Failed);
    assert_eq!(status.restarts, 3, "the default restart budget was spent");
    client
        .shutdown()
        .expect("session survives the failed campaign");
    assert_eq!(
        handle.join().expect("server thread must not panic"),
        Ok(SessionEnd::ShutdownRequested)
    );
}
