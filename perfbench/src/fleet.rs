//! `fleet_mixed`: two client sessions on loopback TCP drive one
//! `CampaignServer`, which fronts two TCP shard workers of one executor
//! thread each. Each session creates and streams, back to back, a fixed
//! mix of adaptive paired, uniform paired and multilevel-splitting
//! campaigns on the coarse table. The serve layers (JSON codec,
//! transport, fair-share control plane) do most of the work here.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use uavca_acasx::{AcasConfig, LogicTable};
use uavca_exec::Executor;
use uavca_serve::{
    decode, encode, serve_shard_tcp, CampaignBackend, CampaignClient, CampaignNotice,
    CampaignRequest, CampaignResult, CampaignServer, CampaignSpec, ControlPlane, IndexedPairedJob,
    IndexedSplitJob, ShardEvent, ShardRequest, ShardedBackend, SplitCampaignRequest,
};
use uavca_validation::{
    BatchRunner, CampaignConfig, CampaignPlanner, EncounterRunner, PairedJob, SplitCampaignOutcome,
    SplitConfig, SplitJob, SplitPlanner,
};

use crate::common::{
    campaign_seed, digest, engine_label, fnv1a, gaps_ms, median, peak_rss_mib, serial_batch,
    time_setups, CampaignRecord, CountingPairs, WorkloadRun,
};
use crate::goldens::FIXED_CAMPAIGNS;
use crate::oracle::{check_trail, Trail};
use crate::paired::{check_paired, drive_stepper, enriched};
use crate::trace::{campaign_span, close_span, in_span, Tracer};
use crate::{core_layers, probes, Args};

const SETUP_REPS: usize = 5;
const SESSIONS: usize = 2;
const SHARDS: usize = 2;
const CPA_BINS: usize = 3;

/// Campaign `index` of session `session`: adaptive paired, uniform
/// paired and splitting in turn.
fn spec(seed: u64, session: usize, index: usize) -> CampaignSpec {
    let seed = campaign_seed(seed, 2 + session as u64, index);
    let paired = |uniform| CampaignSpec::Paired {
        request: CampaignRequest {
            config: CampaignConfig {
                seed,
                pilot_per_stratum: 8,
                round_runs: 64,
                max_rounds: 30,
                target_half_width: 0.15,
                threads: 1,
            },
            model: enriched(),
            cpa_bins: CPA_BINS,
            uniform,
        },
    };
    match index % 3 {
        0 => paired(false),
        1 => paired(true),
        _ => CampaignSpec::Splitting {
            request: SplitCampaignRequest {
                config: SplitConfig {
                    seed,
                    levels: 2,
                    max_branch: 3,
                    pilot_roots_per_stratum: 4,
                    round_roots: 24,
                    max_rounds: 20,
                    target_half_width: 1.0,
                    threads: 1,
                },
                model: enriched(),
                cpa_bins: CPA_BINS,
            },
        },
    }
}

fn kind(spec: &CampaignSpec) -> &'static str {
    match spec {
        CampaignSpec::Paired { request } if request.uniform => "uniform",
        CampaignSpec::Paired { .. } => "adaptive",
        CampaignSpec::Splitting { .. } => "splitting",
    }
}

/// A running fleet: shard workers, the server and the client sessions.
struct Fleet {
    server: CampaignServer,
    server_thread: JoinHandle<()>,
    shard_threads: Vec<JoinHandle<()>>,
    clients: Vec<CampaignClient>,
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Binds and spawns `SHARDS` TCP shard workers of one executor thread.
fn spawn_shards(
    runner: &EncounterRunner,
) -> Result<(Vec<SocketAddr>, Vec<JoinHandle<()>>), String> {
    let mut addrs = Vec::new();
    let mut threads = Vec::new();
    for _ in 0..SHARDS {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(io_err("binding a shard"))?;
        addrs.push(listener.local_addr().map_err(io_err("shard address"))?);
        let batch = BatchRunner::new(runner.clone(), Executor::new(1));
        threads.push(std::thread::spawn(move || {
            let _ = serve_shard_tcp(listener, batch);
        }));
    }
    Ok((addrs, threads))
}

fn spin_up(runner: &EncounterRunner) -> Result<Fleet, String> {
    let (addrs, shard_threads) = spawn_shards(runner)?;
    let backend = ShardedBackend::connect_tcp(&addrs).map_err(io_err("connecting the shards"))?;
    let server = CampaignServer::new(runner.clone(), backend);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io_err("binding the server"))?;
    let addr = listener.local_addr().map_err(io_err("server address"))?;
    let serving = server.clone();
    let server_thread = std::thread::spawn(move || {
        let _ = serving.serve_tcp(listener);
    });
    let clients = (0..SESSIONS)
        .map(|_| CampaignClient::connect_tcp(addr).map_err(io_err("connecting a session")))
        .collect::<Result<_, _>>()?;
    Ok(Fleet {
        server,
        server_thread,
        shard_threads,
        clients,
    })
}

/// Shuts the fleet down in order and waits for every thread.
fn tear_down(fleet: Fleet) -> Result<(), String> {
    let Fleet {
        server,
        server_thread,
        shard_threads,
        mut clients,
    } = fleet;
    let first = clients.remove(0);
    drop(clients);
    first
        .shutdown()
        .map_err(|e| format!("server shutdown: {e}"))?;
    server_thread.join().map_err(|_| "server thread panicked")?;
    drop(server);
    for t in shard_threads {
        t.join().map_err(|_| "shard thread panicked")?;
    }
    Ok(())
}

/// One campaign as a session saw it over the wire.
struct Streamed {
    key: usize,
    spec: CampaignSpec,
    /// Digest of the encoded result: holding every result until the
    /// oracle runs would make peak memory grow with the campaign count.
    result: Result<String, String>,
    time_to_target_s: f64,
    marks: Vec<Instant>,
    queue_wait_ms: Option<f64>,
}

/// What one client session ran.
struct SessionRun {
    streamed: Vec<Streamed>,
    /// Peak process memory when the session finished its share of the
    /// fixed set, MiB.
    fixed_rss_mib: Result<f64, String>,
    tracer: Option<Tracer>,
}

/// A closed-loop session: create a campaign, stream it to its result,
/// then the next, until the deadline.
fn session(
    client: &CampaignClient,
    s: usize,
    seed: u64,
    t0: Instant,
    seconds: f64,
    mut tr: Option<Tracer>,
) -> SessionRun {
    let tr = &mut tr;
    let mut out = Vec::new();
    let mut fixed_rss_mib = Err("the session never finished its fixed share".to_string());
    for index in 0.. {
        if index * SESSIONS >= FIXED_CAMPAIGNS && t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let key = index * SESSIONS + s;
        let spec = spec(seed, s, index);
        let mut marks = Vec::new();
        let span = campaign_span(tr, key);
        let c0 = Instant::now();
        let created = in_span(tr, "serve.client.create", || {
            client.create_campaign(&spec, None)
        });
        let result = created.and_then(|id| {
            in_span(tr, "serve.client.stream", || {
                client.stream_campaign(id, |_| marks.push(Instant::now()))
            })
        });
        let time_to_target_s = c0.elapsed().as_secs_f64();
        if let Some(id) = span {
            close_span(tr, id);
        }
        out.push(Streamed {
            key,
            spec,
            result: result
                .map(|r| fnv1a(&encode(&r)))
                .map_err(|e| e.to_string()),
            time_to_target_s,
            queue_wait_ms: marks.first().map(|m| (*m - c0).as_secs_f64() * 1e3),
            marks,
        });
        if (index + 1) * SESSIONS == FIXED_CAMPAIGNS {
            fixed_rss_mib = peak_rss_mib();
        }
    }
    SessionRun {
        streamed: out,
        fixed_rss_mib,
        tracer: tr.take(),
    }
}

/// The serial in-process result of a spec, with the UAV-steps and jobs
/// it simulated; driven through the public steppers (in spans when
/// traced) for paired specs.
fn reference(
    runner: &EncounterRunner,
    spec: &CampaignSpec,
    tr: &mut Option<Tracer>,
    keep: &mut Vec<PairedJob>,
) -> (CampaignResult, usize, u64, Option<String>) {
    match spec {
        CampaignSpec::Paired { request } => {
            let planner = CampaignPlanner::new(runner.clone(), request.config)
                .model(request.model)
                .stratification(uavca_encounter::Stratification::new(request.cpa_bins));
            let source = CountingPairs::new(serial_batch(runner));
            let outcome = drive_stepper(
                &planner,
                !request.uniform,
                &source,
                &mut Vec::new(),
                tr,
                keep,
            );
            let (jobs, steps) = source.take();
            let failure = check_paired(&outcome, &request.config);
            (CampaignResult::Paired { outcome }, jobs, steps, failure)
        }
        CampaignSpec::Splitting { request } => {
            let planner = SplitPlanner::new(runner.clone(), request.config)
                .model(request.model)
                .stratification(uavca_encounter::Stratification::new(request.cpa_bins));
            let batch = serial_batch(runner);
            let mut stepper = planner.stepper().expect("valid splitting config");
            while let Some(planned) = in_span(tr, "core.plan_round", || stepper.plan_round()) {
                let outcomes = in_span(tr, "core.batch.run_splits", || {
                    batch.run_splits(&planned.jobs)
                });
                in_span(tr, "core.complete_round", || {
                    stepper.complete_round(&planned, &outcomes)
                });
            }
            let outcome = stepper.outcome();
            let failure = check_split(&outcome, &request.config);
            let roots = outcome.estimate.total_roots;
            let steps = 2 * outcome.estimate.total_steps();
            (CampaignResult::Splitting { outcome }, roots, steps, failure)
        }
    }
}

fn check_split(outcome: &SplitCampaignOutcome, config: &SplitConfig) -> Option<String> {
    check_trail(&Trail {
        round_runs: outcome.rounds.iter().map(|r| r.roots_this_round).collect(),
        half_widths: outcome
            .rounds
            .iter()
            .map(|r| r.risk_ratio.half_width())
            .collect(),
        total_runs: outcome.estimate.total_roots,
        reached_target: outcome.reached_target,
        max_rounds: config.max_rounds,
        target_half_width: config.target_half_width,
        risk_ratio: &outcome.estimate.risk_ratio,
    })
}

fn runs_of(result: &CampaignResult) -> usize {
    match result {
        CampaignResult::Paired { outcome } => outcome.total_runs(),
        CampaignResult::Splitting { outcome } => outcome.estimate.total_roots,
    }
}

pub fn run(args: &Args, process_start: Instant) -> Result<WorkloadRun, String> {
    let mut tr = args.trace.then(|| Tracer::new(process_start));
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (setup_s, (runner, fleet)) = time_setups(
        reps,
        process_start,
        || {
            let table = in_span(&mut tr, "acasx.solve", || {
                LogicTable::solve(&AcasConfig::coarse())
            });
            let runner = EncounterRunner::new(Arc::new(table));
            let fleet = in_span(&mut tr, "serve.spin_up", || spin_up(&runner))?;
            Ok((runner, fleet))
        },
        |(_, fleet)| tear_down(fleet),
    )?;

    // The timed phase: both sessions in closed loops until the deadline.
    let t0 = Instant::now();
    let traced = args.trace;
    let sessions: Vec<SessionRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = fleet
            .clients
            .iter()
            .enumerate()
            .map(|(s, client)| {
                scope.spawn(move || {
                    let tr = traced.then(|| Tracer::new(process_start));
                    session(client, s, args.seed, t0, args.seconds, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread"))
            .collect()
    });
    let timed_s = t0.elapsed().as_secs_f64();

    let mut failures = Vec::new();
    let faults = fleet.server.backend().take_faults();
    for f in &faults {
        failures.push(format!("shard fault: {f}"));
    }
    let requeued: usize = fleet
        .server
        .backend()
        .usage()
        .iter()
        .map(|u| u.jobs_requeued)
        .sum();
    let mut checks = 1;

    // The oracle: every streamed result must be byte-identical to the
    // serial planner on the same spec.
    let mut all: Vec<Streamed> = Vec::new();
    // VmHWM only grows, so the later session's reading covers both.
    let mut fixed_rss_mib: f64 = 0.0;
    for run in sessions {
        all.extend(run.streamed);
        fixed_rss_mib = fixed_rss_mib.max(run.fixed_rss_mib?);
        if let (Some(t), Some(st)) = (tr.as_mut(), run.tracer) {
            t.absorb(st);
        }
    }
    all.sort_by_key(|s| s.key);
    let mut records = Vec::new();
    let mut sample = Vec::new();
    let mut split_outcomes = Vec::new();
    for s in &all {
        let span = campaign_span(&mut tr, s.key);
        let ref_span = tr.as_mut().map(|t| t.enter("reference"));
        let (want, jobs, uav_steps, check) = reference(&runner, &s.spec, &mut tr, &mut sample);
        if let (Some(t), Some(id)) = (tr.as_mut(), ref_span) {
            t.exit(id);
        }
        if let Some(id) = span {
            close_span(&mut tr, id);
        }
        let failure = match &s.result {
            Err(e) => Some(format!("campaign error: {e}")),
            Ok(got) if *got != fnv1a(&encode(&want)) => {
                Some("served result differs from the serial planner".to_string())
            }
            Ok(_) => check,
        };
        if let (Some(_), CampaignResult::Splitting { outcome }) = (&tr, &want) {
            split_outcomes.push(outcome.clone());
        }
        records.push(CampaignRecord {
            key: s.key,
            kind: kind(&s.spec),
            time_to_target_s: s.time_to_target_s,
            runs: runs_of(&want),
            jobs,
            uav_steps,
            round_gaps_ms: gaps_ms(&s.marks),
            queue_wait_ms: s.queue_wait_ms,
            digest: digest(&want),
            failure,
        });
    }

    let mut layers = Vec::new();
    if let Some(tracer) = tr.as_mut() {
        checks += 1;
        layers.extend(fleet_layers(
            &runner,
            tracer,
            &all,
            &sample,
            &split_outcomes,
            &mut failures,
        )?);
        layers.push(("serve.requeued_jobs", requeued as f64));
        layers.push(("serve.faults", faults.len() as f64));
        let waits: Vec<f64> = records.iter().filter_map(|r| r.queue_wait_ms).collect();
        layers.push(("serve.queue_wait_ms", median(&waits)));
    }

    let engine = format!(
        "{} on {SHARDS} TCP shards",
        engine_label(serial_batch(&runner).current_engine())
    );
    // The sessions stay connected until the probes are done; the
    // orderly shutdown then also proves the server still answers.
    tear_down(fleet)?;
    Ok(WorkloadRun {
        fixed_rss_mib,
        setup_s,
        records,
        timed_s,
        checks,
        failures,
        layers,
        tracer: tr,
        engine,
    })
}

/// The traced run's per-layer metrics of the fleet workload.
fn fleet_layers(
    runner: &EncounterRunner,
    tr: &mut Tracer,
    all: &[Streamed],
    sample: &[PairedJob],
    splits: &[SplitCampaignOutcome],
    failures: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut layers = Vec::new();
    let table = runner.table().clone();
    layers.push(("acasx.solve_s", tr.total_ns("acasx.solve") * 1e-9));
    layers.push(("acasx.table_mib", table.q_bytes() as f64 / 1048576.0));
    match tr.span("probe.lookup", || probes::record_paired(runner, sample)) {
        Ok(rec) => {
            let ns = tr.span("probe.lookup", || probes::lookup_ns(&table, &rec.states));
            layers.push(("acasx.lookup_ns", ns));
            layers.push((
                "acasx.lookups_per_uav_step",
                rec.states.len() as f64 / rec.uav_steps.max(1) as f64,
            ));
        }
        Err(e) => failures.push(e),
    }
    let strat = uavca_encounter::Stratification::new(CPA_BINS);
    let sample_ns = tr.span("probe.sample", || {
        probes::paired_sample_ns(&enriched(), &strat)
    });
    layers.push(("encounter.sample_ns", sample_ns));
    let (eq, un, per_step) = tr.span("probe.arms", || probes::paired_arms(runner, sample));
    layers.push(("sim.arm_us.equipped", eq));
    layers.push(("sim.arm_us.unequipped", un));
    layers.push(("sim.ns_per_uav_step", per_step));
    layers.extend(core_layers(tr));
    layers.extend(split_layers(splits));
    let speedup = tr.span("probe.pool", || {
        probes::pool_speedup(runner, |b| {
            b.run_paired(sample);
        })
    });
    layers.push(("exec.pool_speedup", speedup));

    let split_jobs = first_split_jobs(runner, all);
    let codec = tr.span("probe.codec", || codec_probe(runner, sample, &split_jobs));
    match codec {
        Ok(c) => layers.extend(c),
        Err(e) => failures.push(e),
    }
    let served = tr.span("probe.shards", || shard_probes(runner, sample, all));
    match served {
        Ok(s) => layers.extend(s),
        Err(e) => failures.push(e),
    }
    Ok(layers)
}

/// Branch trajectories per root, the share of launched branches that
/// reach the next level, and UAV-steps per root, over every splitting
/// campaign.
fn split_layers(splits: &[SplitCampaignOutcome]) -> Vec<(&'static str, f64)> {
    let (mut trials, mut crossings, mut roots, mut steps) = (0u64, 0u64, 0usize, 0u64);
    for o in splits {
        for s in &o.estimate.strata {
            trials += s.level_trials.iter().sum::<u64>();
            crossings += s.level_crossings.iter().sum::<u64>();
        }
        roots += o.estimate.total_roots;
        steps += 2 * o.estimate.total_steps();
    }
    let roots = roots.max(1) as f64;
    vec![
        ("core.split.branch_jobs_per_root", trials as f64 / roots),
        (
            "core.split.level_pass_ratio",
            crossings as f64 / trials.max(1) as f64,
        ),
        ("core.split.steps_per_root", steps as f64 / roots),
    ]
}

/// The pilot jobs of the first splitting campaign the sessions ran.
fn first_split_jobs(runner: &EncounterRunner, all: &[Streamed]) -> Vec<SplitJob> {
    let Some(CampaignSpec::Splitting { request }) = all
        .iter()
        .map(|s| &s.spec)
        .find(|s| matches!(s, CampaignSpec::Splitting { .. }))
    else {
        return Vec::new();
    };
    SplitPlanner::new(runner.clone(), request.config)
        .model(request.model)
        .stratification(uavca_encounter::Stratification::new(request.cpa_bins))
        .stepper()
        .expect("valid splitting config")
        .plan_round()
        .map_or(Vec::new(), |p| p.jobs)
}

/// Wire bytes, encode and decode time per job of the shard requests
/// and result chunks a round of the workload's jobs travels as.
fn codec_probe(
    runner: &EncounterRunner,
    paired: &[PairedJob],
    splits: &[SplitJob],
) -> Result<Vec<(&'static str, f64)>, String> {
    let batch = serial_batch(runner);
    let requests = vec![
        ShardRequest::RunPaired {
            batch: 1,
            jobs: paired
                .iter()
                .enumerate()
                .map(|(index, &job)| IndexedPairedJob { index, job })
                .collect(),
        },
        ShardRequest::RunSplits {
            batch: 2,
            jobs: splits
                .iter()
                .enumerate()
                .map(|(index, job)| IndexedSplitJob {
                    index,
                    job: job.clone(),
                })
                .collect(),
        },
    ];
    let events = vec![
        ShardEvent::PairedChunk {
            batch: 1,
            indices: (0..paired.len()).collect(),
            outcomes: batch.run_paired(paired),
        },
        ShardEvent::SplitChunk {
            batch: 2,
            indices: (0..splits.len()).collect(),
            outcomes: batch.run_splits(splits),
        },
    ];
    let jobs = (paired.len() + splits.len()).max(1) as f64;
    let lines: (Vec<String>, Vec<String>) = (
        requests.iter().map(encode).collect(),
        events.iter().map(encode).collect(),
    );
    let bytes: usize = lines.0.iter().chain(&lines.1).map(|l| l.len() + 1).sum();
    let encode_s = time_repeated(|| {
        for r in &requests {
            std::hint::black_box(encode(r));
        }
        for e in &events {
            std::hint::black_box(encode(e));
        }
    });
    let decode_s = time_repeated(|| {
        for l in &lines.0 {
            std::hint::black_box(decode::<ShardRequest>(l).expect("decodes"));
        }
        for l in &lines.1 {
            std::hint::black_box(decode::<ShardEvent>(l).expect("decodes"));
        }
    });
    let round_trips = lines
        .0
        .iter()
        .zip(&requests)
        .all(|(l, r)| decode::<ShardRequest>(l).is_ok_and(|d| d == *r))
        && lines
            .1
            .iter()
            .zip(&events)
            .all(|(l, e)| decode::<ShardEvent>(l).is_ok_and(|d| d == *e));
    if !round_trips {
        return Err("a shard message did not survive encode/decode".into());
    }
    Ok(vec![
        ("serve.wire_bytes_per_job", bytes as f64 / jobs),
        ("serve.encode_us_per_job", encode_s * 1e6 / jobs),
        ("serve.decode_us_per_job", decode_s * 1e6 / jobs),
    ])
}

/// Median seconds of `f` over at least 5 calls and 0.15 s.
fn time_repeated(mut f: impl FnMut()) -> f64 {
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 5 || start.elapsed().as_secs_f64() < 0.15 {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

/// On a fresh two-shard TCP fleet: the sharded paired path's cost over
/// the in-process one with the same worker count, and the control
/// plane's tick driven directly over the same backend on the first
/// campaigns of session 0.
fn shard_probes(
    runner: &EncounterRunner,
    sample: &[PairedJob],
    all: &[Streamed],
) -> Result<Vec<(&'static str, f64)>, String> {
    let (addrs, threads) = spawn_shards(runner)?;
    let backend =
        Arc::new(ShardedBackend::connect_tcp(&addrs).map_err(io_err("connecting the shards"))?);
    let local = BatchRunner::new(runner.clone(), Executor::new(SHARDS));
    let (mut sharded_s, mut local_s) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        let got = backend
            .try_run_pairs(sample)
            .map_err(|e| format!("sharded batch: {e}"))?;
        sharded_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let want = local.run_paired(sample);
        local_s.push(t.elapsed().as_secs_f64());
        if encode(&got) != encode(&want) {
            return Err("sharded batch differs from the in-process one".into());
        }
    }
    let overhead = (median(&sharded_s) - median(&local_s)) * 1e6 / sample.len().max(1) as f64;

    let mut plane = ControlPlane::new(runner.clone(), backend.clone() as Arc<dyn CampaignBackend>);
    let mut expected = Vec::new();
    for s in all.iter().filter(|s| s.key % SESSIONS == 0).take(3) {
        let id = plane.create(s.spec.clone(), None, true)?;
        expected.push((id, s.result.as_ref().ok().cloned()));
    }
    let (mut ticks, mut notices) = (Vec::new(), 0usize);
    let mut results = Vec::new();
    while plane.has_runnable() {
        let t = Instant::now();
        let got = plane.tick();
        ticks.push(t.elapsed().as_secs_f64());
        notices += got.len();
        for n in got {
            if let CampaignNotice::Finished { id, result } = n {
                results.push((id, fnv1a(&encode(&result))));
            }
        }
    }
    for (id, want) in &expected {
        let got = results
            .iter()
            .find(|(i, _)| i == id)
            .map(|(_, r)| r.clone());
        if want.is_some() && got != *want {
            return Err(format!(
                "control-plane result of {id} differs from the served one"
            ));
        }
    }
    if !backend.take_faults().is_empty() {
        return Err("the probe fleet reported faults".into());
    }
    drop(plane);
    drop(backend);
    for t in threads {
        t.join().map_err(|_| "probe shard thread panicked")?;
    }
    Ok(vec![
        ("serve.shard_overhead_us_per_job", overhead),
        ("serve.control_tick_us", median(&ticks) * 1e6),
        (
            "serve.notices_per_tick",
            notices as f64 / ticks.len().max(1) as f64,
        ),
    ])
}
