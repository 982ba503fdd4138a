//! Control-plane battery: concurrent campaigns of mixed families over
//! one shared shard fleet must be **byte-identical** to serial runs —
//! through fair-share interleaving, cancel + resume-from-checkpoint
//! over the wire, and supervisor restarts after backend faults — and
//! the event log must surface the session incidents the old blocking
//! server silently swallowed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use uavca_acasx::{AcasConfig, LogicTable};
use uavca_encounter::{StatisticalEncounterModel, Stratification};
use uavca_serve::{
    channel_pair, recv_msg, send_msg, spawn_in_process, CampaignBackend, CampaignClient,
    CampaignId, CampaignNotice, CampaignRequest, CampaignResult, CampaignServer, CampaignSpec,
    CampaignState, ChannelTransport, Checkpoint, ControlEvent, ControlPlane, Event, RecvOutcome,
    Request, ServeError, SessionEnd, ShardedBackend, SplitCampaignRequest, TcpTransport, Transport,
    TransportError,
};
use uavca_validation::{
    BatchRunner, CampaignConfig, CampaignOutcome, CampaignPlanner, EncounterRunner, PairSource,
    PairedJob, PairedOutcome, SplitCampaignOutcome, SplitConfig, SplitJob, SplitOutcome,
    SplitPlanner,
};

fn runner() -> EncounterRunner {
    static TABLE: OnceLock<Arc<LogicTable>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Arc::new(LogicTable::solve(&AcasConfig::coarse())));
    EncounterRunner::new(table.clone())
}

/// A conflict-enriched model so tiny splitting budgets still see NMACs.
fn enriched() -> StatisticalEncounterModel {
    StatisticalEncounterModel {
        max_cpa_horizontal_ft: 2500.0,
        max_cpa_vertical_ft: 500.0,
        ..StatisticalEncounterModel::default()
    }
}

/// The byte-identity oracle: serialized JSON, where every float is
/// shortest-round-trip and the undefined markers (`NaN`/`∞`) are exact.
fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serializes")
}

fn adaptive_request() -> CampaignRequest {
    CampaignRequest {
        config: CampaignConfig {
            seed: 11,
            pilot_per_stratum: 3,
            round_runs: 16,
            max_rounds: 2,
            target_half_width: f64::INFINITY,
            threads: 1,
        },
        model: Default::default(),
        cpa_bins: 2,
        uniform: false,
    }
}

fn uniform_request() -> CampaignRequest {
    CampaignRequest {
        config: CampaignConfig {
            seed: 23,
            pilot_per_stratum: 2,
            round_runs: 12,
            max_rounds: 2,
            target_half_width: f64::INFINITY,
            threads: 1,
        },
        model: Default::default(),
        cpa_bins: 3,
        uniform: true,
    }
}

fn split_request() -> SplitCampaignRequest {
    SplitCampaignRequest {
        config: SplitConfig {
            seed: 42,
            levels: 2,
            max_branch: 3,
            pilot_roots_per_stratum: 2,
            round_roots: 9,
            max_rounds: 1,
            target_half_width: f64::INFINITY,
            threads: 1,
        },
        model: enriched(),
        cpa_bins: 3,
    }
}

/// The serial (single-campaign, in-process) baseline for a paired spec.
fn paired_reference(request: &CampaignRequest) -> CampaignOutcome {
    let planner = CampaignPlanner::new(runner(), request.config)
        .model(request.model)
        .stratification(Stratification::new(request.cpa_bins));
    if request.uniform {
        planner.run_uniform().expect("valid config")
    } else {
        planner.run().expect("valid config")
    }
}

/// The serial baseline for a splitting spec.
fn split_reference(request: &SplitCampaignRequest) -> SplitCampaignOutcome {
    SplitPlanner::new(runner(), request.config)
        .model(request.model)
        .stratification(Stratification::new(request.cpa_bins))
        .run()
        .expect("valid config")
}

#[test]
fn three_mixed_campaigns_over_one_fleet_match_their_serial_runs() {
    let (client, server) = spawn_in_process(runner(), 2, 1);

    let adaptive = adaptive_request();
    let uniform = uniform_request();
    let splitting = split_request();
    let a = client
        .create_campaign(&CampaignSpec::Paired { request: adaptive }, None)
        .expect("adaptive campaign creates");
    let b = client
        .create_campaign(&CampaignSpec::Paired { request: uniform }, None)
        .expect("uniform campaign creates");
    let c = client
        .create_campaign(&CampaignSpec::Splitting { request: splitting }, None)
        .expect("splitting campaign creates");
    assert!(a != b && b != c, "ids are distinct: {a} {b} {c}");

    // Stream in reverse creation order: whatever completed while we
    // were not subscribed arrives as replay, the rest live — the
    // subscriber cannot tell, and the totals must be exact either way.
    let mut streamed = 0usize;
    let c_result = client
        .stream_campaign(c, |_| streamed += 1)
        .expect("splitting campaign finishes");
    let CampaignResult::Splitting { outcome } = &c_result else {
        panic!("a splitting campaign yields a splitting result, got {c_result:?}");
    };
    assert_eq!(streamed, outcome.rounds.len(), "every round streams once");
    assert_eq!(json(outcome), json(&split_reference(&splitting)));

    for (id, request) in [(b, &uniform), (a, &adaptive)] {
        let mut streamed = 0usize;
        let result = client
            .stream_campaign(id, |_| streamed += 1)
            .expect("paired campaign finishes");
        let CampaignResult::Paired { outcome } = &result else {
            panic!("a paired campaign yields a paired result, got {result:?}");
        };
        assert_eq!(streamed, outcome.rounds.len(), "every round streams once");
        assert_eq!(json(outcome), json(&paired_reference(request)));

        let status = client.campaign_status(id).expect("status answers");
        assert_eq!(status.state, CampaignState::Finished);
        assert_eq!(status.rounds_completed, outcome.rounds.len());
        assert_eq!(status.restarts, 0);
        assert_eq!(status.last_error, None);
    }

    client.shutdown().expect("orderly shutdown");
    assert_eq!(
        server.join().expect("clean session end"),
        SessionEnd::ShutdownRequested
    );
}

#[test]
fn cancel_mid_campaign_then_resume_from_the_checkpoint_is_byte_identical() {
    let server = CampaignServer::new(runner(), ShardedBackend::spawn_local(runner(), 2, 1));
    let log = server.log();
    let server_thread = server.clone();
    let (mut client_end, mut server_end) = channel_pair();
    let handle = std::thread::spawn(move || server_thread.serve(&mut server_end));

    let config = CampaignConfig {
        seed: 7,
        pilot_per_stratum: 4,
        round_runs: 96,
        max_rounds: 6,
        target_half_width: f64::INFINITY,
        threads: 1,
    };
    let request = CampaignRequest {
        config,
        model: Default::default(),
        cpa_bins: 2,
        uniform: false,
    };
    let spec = CampaignSpec::Paired { request };

    // Queue Create and Pause back to back. The readiness loop reads one
    // request per session per sweep and dispatches at most 16 quanta
    // (16 × 32 = 512 paired jobs) in between; the campaign totals
    // 8 + 6×96 = 584 pairs, so the pause lands while it is live — the
    // kill point is mid-flight by construction, not by luck. The first
    // campaign of a session is always id 0 (dense assignment).
    send_msg(
        &mut client_end,
        &Request::Create {
            spec: Box::new(spec.clone()),
            checkpoint: None,
        },
    )
    .unwrap();
    send_msg(&mut client_end, &Request::Pause { id: CampaignId(0) }).unwrap();

    let id = match recv_msg::<Event>(&mut client_end).unwrap().unwrap() {
        Event::CampaignCreated { id } => id,
        other => panic!("expected CampaignCreated, got {other:?}"),
    };
    assert_eq!(id, CampaignId(0));
    match recv_msg::<Event>(&mut client_end).unwrap().unwrap() {
        Event::CampaignPaused { id: got } => assert_eq!(got, id),
        other => panic!("expected CampaignPaused, got {other:?}"),
    }

    send_msg(&mut client_end, &Request::Status { id }).unwrap();
    let status = match recv_msg::<Event>(&mut client_end).unwrap().unwrap() {
        Event::CampaignStatus { status } => status,
        other => panic!("expected CampaignStatus, got {other:?}"),
    };
    assert_eq!(status.state, CampaignState::Paused);
    assert!(
        status.rounds_completed >= 1 && status.rounds_completed < 7,
        "paused mid-campaign, got {} completed rounds",
        status.rounds_completed
    );

    send_msg(&mut client_end, &Request::Cancel { id }).unwrap();
    let checkpoint = match recv_msg::<Event>(&mut client_end).unwrap().unwrap() {
        Event::CampaignCancelled {
            id: got,
            checkpoint,
        } => {
            assert_eq!(got, id);
            checkpoint
        }
        other => panic!("expected CampaignCancelled, got {other:?}"),
    };
    let Checkpoint::Paired { checkpoint: inner } = &checkpoint else {
        panic!("a paired campaign yields a paired checkpoint");
    };
    assert!(
        !inner.rounds.is_empty(),
        "the kill point is at round ≥ 1, so the checkpoint carries rounds"
    );

    // Resume: a fresh campaign created *from the returned checkpoint*
    // replays the round trail and finishes exactly where the serial
    // run does.
    send_msg(
        &mut client_end,
        &Request::Create {
            spec: Box::new(spec),
            checkpoint: Some(checkpoint),
        },
    )
    .unwrap();
    let resumed = match recv_msg::<Event>(&mut client_end).unwrap().unwrap() {
        Event::CampaignCreated { id } => id,
        other => panic!("expected CampaignCreated, got {other:?}"),
    };
    send_msg(&mut client_end, &Request::Stream { id: resumed }).unwrap();
    let mut rounds = 0usize;
    let result = loop {
        match recv_msg::<Event>(&mut client_end).unwrap().unwrap() {
            Event::CampaignRound { id: got, .. } => {
                assert_eq!(got, resumed);
                rounds += 1;
            }
            Event::CampaignFinished { id: got, result } => {
                assert_eq!(got, resumed);
                break result;
            }
            other => panic!("expected a stream event, got {other:?}"),
        }
    };
    assert_eq!(rounds, 7, "pilot + 6 rounds, replayed trail included");
    let CampaignResult::Paired { outcome } = &result else {
        panic!("a paired campaign yields a paired result");
    };
    assert_eq!(
        json(outcome),
        json(&paired_reference(&request)),
        "kill + resume must not move a single bit of the estimate"
    );

    send_msg(&mut client_end, &Request::Shutdown).unwrap();
    match recv_msg::<Event>(&mut client_end).unwrap().unwrap() {
        Event::ShutdownAck => {}
        other => panic!("expected ShutdownAck, got {other:?}"),
    }
    assert_eq!(
        handle.join().expect("server thread must not panic"),
        Ok(SessionEnd::ShutdownRequested)
    );

    let events = log.snapshot();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ControlEvent::CampaignPaused { id: got } if *got == id)),
        "{events:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ControlEvent::CampaignCancelled { id: got } if *got == id)),
        "{events:?}"
    );
}

#[test]
fn fair_share_interleaves_rounds_and_stays_byte_identical_to_serial() {
    let backend = Arc::new(ShardedBackend::spawn_local(runner(), 2, 1));
    let mut plane = ControlPlane::new(runner(), backend);

    let adaptive = adaptive_request();
    let uniform = uniform_request();
    let splitting = split_request();
    let a = plane
        .create(CampaignSpec::Paired { request: adaptive }, None, true)
        .unwrap();
    let b = plane
        .create(CampaignSpec::Paired { request: uniform }, None, true)
        .unwrap();
    let c = plane
        .create(CampaignSpec::Splitting { request: splitting }, None, true)
        .unwrap();

    let mut order = Vec::new();
    for _ in 0..10_000 {
        if !plane.has_runnable() {
            break;
        }
        for notice in plane.tick() {
            if let CampaignNotice::Round { id, .. } = notice {
                order.push(id);
            }
        }
    }
    assert!(
        !plane.has_runnable(),
        "every campaign must run to completion"
    );
    for id in [a, b, c] {
        assert_eq!(
            plane.status(id).expect("known campaign").state,
            CampaignState::Finished
        );
    }

    // Fair share means the round completions of different campaigns
    // interleave rather than running each campaign to exhaustion.
    let transitions = order.windows(2).filter(|w| w[0] != w[1]).count();
    assert!(
        transitions >= 3,
        "rounds must interleave across campaigns, got {order:?}"
    );

    let CampaignResult::Paired { outcome } = plane.result(a).expect("finished") else {
        panic!("paired result expected");
    };
    assert_eq!(json(outcome), json(&paired_reference(&adaptive_request())));
    let CampaignResult::Paired { outcome } = plane.result(b).expect("finished") else {
        panic!("paired result expected");
    };
    assert_eq!(json(outcome), json(&paired_reference(&uniform_request())));
    let CampaignResult::Splitting { outcome } = plane.result(c).expect("finished") else {
        panic!("splitting result expected");
    };
    assert_eq!(json(outcome), json(&split_reference(&splitting)));
}

/// A backend that reports a typed fleet-loss fault for the first
/// `failures_left` batches, then executes locally — the supervisor's
/// sparring partner.
struct FlakyBackend {
    inner: BatchRunner,
    failures_left: AtomicUsize,
}

impl FlakyBackend {
    fn new(failures: usize) -> Self {
        FlakyBackend {
            inner: BatchRunner::serial(runner()),
            failures_left: AtomicUsize::new(failures),
        }
    }

    fn fault<T>(&self, outstanding: usize) -> Option<Result<T, ServeError>> {
        let left = self.failures_left.load(Ordering::SeqCst);
        if left > 0 {
            self.failures_left.store(left - 1, Ordering::SeqCst);
            Some(Err(ServeError::AllShardsLost { outstanding }))
        } else {
            None
        }
    }
}

impl CampaignBackend for FlakyBackend {
    fn run_pair_jobs(&self, jobs: &[PairedJob]) -> Result<Vec<PairedOutcome>, ServeError> {
        self.fault(jobs.len())
            .unwrap_or_else(|| Ok(self.inner.run_pairs(jobs)))
    }

    fn run_split_jobs(&self, jobs: &[SplitJob]) -> Result<Vec<SplitOutcome>, ServeError> {
        self.fault(jobs.len())
            .unwrap_or_else(|| Ok(self.inner.run_splits(jobs)))
    }
}

#[test]
fn the_supervisor_restarts_a_faulting_campaign_without_moving_a_bit() {
    let mut plane = ControlPlane::new(runner(), Arc::new(FlakyBackend::new(2)));
    let log = plane.log();
    let adaptive = adaptive_request();
    let id = plane
        .create(CampaignSpec::Paired { request: adaptive }, None, true)
        .unwrap();

    let mut restarts_seen = 0usize;
    for _ in 0..10_000 {
        if !plane.has_runnable() {
            break;
        }
        for notice in plane.tick() {
            if matches!(notice, CampaignNotice::Restarted { .. }) {
                restarts_seen += 1;
            }
        }
    }
    let status = plane.status(id).expect("known campaign");
    assert_eq!(status.state, CampaignState::Finished);
    assert_eq!(status.restarts, 2, "both faults consumed restart budget");
    assert_eq!(restarts_seen, 2);
    let CampaignResult::Paired { outcome } = plane.result(id).expect("finished") else {
        panic!("paired result expected");
    };
    assert_eq!(
        json(outcome),
        json(&paired_reference(&adaptive_request())),
        "crash recovery replays the identical jobs — the estimate cannot move"
    );
    // Satellite fix: the event log carries the *typed* fault detail, not
    // a generic "campaign execution panicked".
    let events = log.snapshot();
    assert!(
        events.iter().any(|e| matches!(
            e,
            ControlEvent::CampaignFailed { error, .. } if error.contains("every shard was lost")
        )),
        "{events:?}"
    );
    assert!(events
        .iter()
        .any(|e| matches!(e, ControlEvent::CampaignRestarted { attempt: 2, .. })));
}

#[test]
fn a_persistent_fault_exhausts_the_restart_budget_and_fails_terminally() {
    let mut plane =
        ControlPlane::new(runner(), Arc::new(FlakyBackend::new(usize::MAX))).with_max_restarts(2);
    let adaptive = adaptive_request();
    let id = plane
        .create(CampaignSpec::Paired { request: adaptive }, None, true)
        .unwrap();

    let mut terminal_failures = Vec::new();
    for _ in 0..100 {
        if !plane.has_runnable() {
            break;
        }
        for notice in plane.tick() {
            if let CampaignNotice::Failed { id: got, error } = notice {
                assert_eq!(got, id);
                terminal_failures.push(error);
            }
        }
    }
    assert!(
        !plane.has_runnable(),
        "a dead campaign must stop dispatching"
    );
    assert_eq!(
        terminal_failures.len(),
        1,
        "exactly one terminal failure notice"
    );
    assert!(
        terminal_failures[0].contains("every shard was lost"),
        "the typed fault survives to the terminal notice: {terminal_failures:?}"
    );
    let status = plane.status(id).expect("known campaign");
    assert_eq!(status.state, CampaignState::Failed);
    assert_eq!(status.restarts, 2, "the whole budget was spent");
    assert!(!plane.restart_pending(id));
    assert!(status.last_error.is_some());
}

#[test]
fn a_garbage_request_is_logged_and_the_other_session_keeps_working() {
    let server = CampaignServer::new(runner(), ShardedBackend::spawn_local(runner(), 1, 1));
    let log = server.log();
    let (good_client_end, good_server_end) = channel_pair();
    let (mut bad_client_end, bad_server_end) = channel_pair();
    let server_thread = server.clone();
    let handle = std::thread::spawn(move || {
        server_thread.serve_sessions(vec![Box::new(good_server_end), Box::new(bad_server_end)])
    });

    // Session 1 breaches the protocol and vanishes.
    bad_client_end
        .send("this is not a protocol message")
        .unwrap();
    drop(bad_client_end);

    // Session 0 creates and streams a full campaign, undisturbed.
    let client = CampaignClient::new(good_client_end);
    let request = adaptive_request();
    let id = client
        .create_campaign(&CampaignSpec::Paired { request }, None)
        .expect("the healthy session is unaffected");
    let result = client
        .stream_campaign(id, |_| {})
        .expect("the healthy session's campaign finishes");
    let CampaignResult::Paired { outcome } = &result else {
        panic!("paired result expected");
    };
    assert_eq!(json(outcome), json(&paired_reference(&request)));
    client.shutdown().expect("orderly shutdown");
    handle
        .join()
        .expect("server thread must not panic")
        .expect("the loop survives a bad session");

    let events = log.snapshot();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ControlEvent::SessionError { session: 1, .. })),
        "the protocol breach must be in the event log, got {events:?}"
    );
    assert!(events
        .iter()
        .any(|e| matches!(e, ControlEvent::SessionOpened { session: 0 })));
    assert!(events
        .iter()
        .any(|e| matches!(e, ControlEvent::SessionOpened { session: 1 })));
}

#[test]
fn the_tcp_server_survives_a_garbage_client_and_logs_the_incident() {
    let server = CampaignServer::new(runner(), ShardedBackend::spawn_local(runner(), 1, 1));
    let log = server.log();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server_thread = server.clone();
    let handle = std::thread::spawn(move || server_thread.serve_tcp(listener));

    // A client that speaks garbage and hangs up before the reply.
    {
        let mut bad = TcpTransport::connect(addr).unwrap();
        bad.send("garbage over tcp").unwrap();
    }

    // A well-behaved client multiplexed on the same loop.
    let client = CampaignClient::connect_tcp(addr).expect("tcp connect");
    let request = uniform_request();
    let id = client
        .create_campaign(&CampaignSpec::Paired { request }, None)
        .expect("campaign creates over tcp");
    let result = client
        .stream_campaign(id, |_| {})
        .expect("campaign finishes over tcp");
    let CampaignResult::Paired { outcome } = &result else {
        panic!("paired result expected");
    };
    assert_eq!(json(outcome), json(&paired_reference(&uniform_request())));
    client.shutdown().expect("orderly shutdown");
    handle
        .join()
        .expect("server thread must not panic")
        .expect("the accept loop survives a bad client");

    let events = log.snapshot();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ControlEvent::SessionError { .. })),
        "the garbage line must be in the event log, got {events:?}"
    );
}

/// What the server side of one session did, in order: each poll's
/// deadline, interleaved with each line the server sent.
#[derive(Debug, Clone, PartialEq)]
enum SessionStep {
    Poll(Duration),
    Sent(String),
}

/// A channel session that records every poll deadline and every sent
/// line into a shared journal.
struct RecordingSession {
    inner: ChannelTransport,
    journal: Arc<Mutex<Vec<SessionStep>>>,
}

impl Transport for RecordingSession {
    fn send(&mut self, line: &str) -> Result<(), TransportError> {
        self.journal
            .lock()
            .unwrap()
            .push(SessionStep::Sent(line.to_string()));
        self.inner.send(line)
    }

    fn recv(&mut self) -> Result<Option<String>, TransportError> {
        self.inner.recv()
    }

    fn recv_deadline(&mut self, timeout: Duration) -> Result<RecvOutcome, TransportError> {
        self.journal
            .lock()
            .unwrap()
            .push(SessionStep::Poll(timeout));
        self.inner.recv_deadline(timeout)
    }
}

/// Creates and streams one campaign on a recording session and returns
/// the deadlines of every session poll made between the
/// `CampaignCreated` reply and the terminal event.
fn polls_while_the_campaign_runs(spec: CampaignSpec) -> Vec<Duration> {
    let server = CampaignServer::new(runner(), ShardedBackend::spawn_local(runner(), 2, 1));
    let (mut client_end, server_end) = channel_pair();
    let journal = Arc::new(Mutex::new(Vec::new()));
    let session = RecordingSession {
        inner: server_end,
        journal: journal.clone(),
    };
    // Queue Create and Stream back to back: the loop reads Stream one
    // sweep after Create, at most 16 quanta later, so a campaign longer
    // than that is still running when it is subscribed and its terminal
    // event comes from the stream itself.
    send_msg(
        &mut client_end,
        &Request::Create {
            spec: Box::new(spec),
            checkpoint: None,
        },
    )
    .unwrap();
    send_msg(&mut client_end, &Request::Stream { id: CampaignId(0) }).unwrap();
    let handle = std::thread::spawn(move || server.serve_sessions(vec![Box::new(session)]));
    loop {
        match recv_msg::<Event>(&mut client_end).unwrap().unwrap() {
            Event::CampaignCreated { .. } | Event::CampaignRound { .. } => {}
            Event::CampaignFinished { .. } => break,
            other => panic!("unexpected event {other:?}"),
        }
    }
    drop(client_end);
    handle.join().unwrap().unwrap();

    let journal = journal.lock().unwrap();
    let sent = |prefix: &str| {
        journal
            .iter()
            .position(|step| matches!(step, SessionStep::Sent(line) if line.contains(prefix)))
            .unwrap_or_else(|| panic!("no {prefix} line was sent"))
    };
    let created = sent("CampaignCreated");
    let finished = sent("CampaignFinished");
    let rounds = journal[created..finished]
        .iter()
        .filter(|step| matches!(step, SessionStep::Sent(line) if line.contains("CampaignRound")))
        .count();
    assert!(rounds > 0, "the campaign was streamed while it ran");
    journal[created..finished]
        .iter()
        .filter_map(|step| match step {
            SessionStep::Poll(timeout) => Some(*timeout),
            SessionStep::Sent(_) => None,
        })
        .collect()
}

#[test]
fn the_server_never_waits_on_a_session_while_campaign_work_is_runnable() {
    // 32 pilot + 6 × 96 pairs = 19 paired quanta.
    let paired = CampaignSpec::Paired {
        request: CampaignRequest {
            config: CampaignConfig {
                seed: 7,
                pilot_per_stratum: 4,
                round_runs: 96,
                max_rounds: 6,
                target_half_width: f64::INFINITY,
                threads: 1,
            },
            model: Default::default(),
            cpa_bins: 2,
            uniform: false,
        },
    };
    // 24 pilot + 3 × 64 roots = 27 splitting quanta.
    let mut request = split_request();
    request.config.round_roots = 64;
    request.config.max_rounds = 3;
    let splitting = CampaignSpec::Splitting { request };
    for spec in [paired, splitting] {
        let polls = polls_while_the_campaign_runs(spec);
        assert!(!polls.is_empty(), "the session was polled mid-campaign");
        assert!(
            polls.iter().all(|t| t.is_zero()),
            "every poll while work was runnable must be zero-wait, got {polls:?}"
        );
    }
}
