//! The campaign control plane, end to end: three mixed campaigns
//! (adaptive paired, uniform paired, multilevel splitting) multiplexed
//! over **one** shared shard fleet, plus a fourth long campaign that is
//! killed mid-flight, resumed from its returned checkpoint, and still
//! required to finish **byte-identical** to an uninterrupted serial run.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example multi_campaign -- [--shards N] [--tcp] [--smoke]
//! ```
//!
//! * `--shards N` — shard workers behind the control plane (default 2).
//! * `--tcp`      — shards, server and both clients on loopback TCP
//!   instead of in-process channels (same protocol either way).
//! * `--smoke`    — tiny budgets (the CI shard-matrix configuration).
//!
//! Two client sessions share the server: a control session that creates
//! and steers every campaign, and a viewer session that streams a
//! campaign it did not create. Exits nonzero unless **every** result —
//! including the killed-and-resumed one — is byte-identical to its
//! serial planner run, so CI smoke runs are a real oracle, not a demo.

#![allow(clippy::disallowed_methods, reason = "examples time their own runs")]
use std::time::Instant;

use uavca::encounter::{StatisticalEncounterModel, Stratification};
use uavca::serve::{
    serve_shard_tcp, CampaignClient, CampaignRequest, CampaignResult, CampaignServer, CampaignSpec,
    CampaignState, ShardedBackend, SplitCampaignRequest,
};
use uavca::validation::{
    campaign_shard_table, BatchRunner, CampaignConfig, CampaignPlanner, EncounterRunner,
    SplitConfig, SplitPlanner,
};

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
}

/// The conflict-enriched model from the campaign benchmarks: risk
/// concentrated in the inner CPA bands, where both adaptation and
/// splitting pay.
fn enriched() -> StatisticalEncounterModel {
    StatisticalEncounterModel {
        max_cpa_horizontal_ft: 2500.0,
        max_cpa_vertical_ft: 500.0,
        ..StatisticalEncounterModel::default()
    }
}

/// Serial (single-planner, in-process) reference for a paired spec.
fn paired_reference(runner: &EncounterRunner, request: &CampaignRequest) -> CampaignResult {
    let planner = CampaignPlanner::new(runner.clone(), request.config)
        .model(request.model)
        .stratification(Stratification::new(request.cpa_bins));
    let outcome = if request.uniform {
        planner.run_uniform().expect("valid uniform config")
    } else {
        planner.run().expect("valid adaptive config")
    };
    CampaignResult::Paired { outcome }
}

/// Serial reference for a splitting spec.
fn split_reference(runner: &EncounterRunner, request: &SplitCampaignRequest) -> CampaignResult {
    let outcome = SplitPlanner::new(runner.clone(), request.config)
        .model(request.model)
        .stratification(Stratification::new(request.cpa_bins))
        .run()
        .expect("valid splitting config");
    CampaignResult::Splitting { outcome }
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serializes")
}

fn main() {
    let shards: usize = flag_value("--shards")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
        .max(1);
    let tcp = flag("--tcp");
    let smoke = flag("--smoke");

    let runner = EncounterRunner::with_coarse_table();

    // --- the four campaign specs ----------------------------------------
    // A: adaptive paired, B: uniform paired, C: multilevel splitting —
    // the three interleaved survivors. K: a long adaptive campaign that
    // gets killed mid-flight and resumed from its checkpoint.
    let adaptive = CampaignRequest {
        config: CampaignConfig {
            seed: 11,
            pilot_per_stratum: if smoke { 3 } else { 6 },
            round_runs: if smoke { 16 } else { 48 },
            max_rounds: if smoke { 2 } else { 3 },
            target_half_width: f64::INFINITY,
            threads: 1,
        },
        model: StatisticalEncounterModel::default(),
        cpa_bins: 2,
        uniform: false,
    };
    let uniform = CampaignRequest {
        config: CampaignConfig {
            seed: 23,
            pilot_per_stratum: if smoke { 2 } else { 5 },
            round_runs: if smoke { 12 } else { 40 },
            max_rounds: if smoke { 2 } else { 3 },
            target_half_width: f64::INFINITY,
            threads: 1,
        },
        model: StatisticalEncounterModel::default(),
        cpa_bins: 3,
        uniform: true,
    };
    let splitting = SplitCampaignRequest {
        config: SplitConfig {
            seed: 42,
            levels: 2,
            max_branch: 3,
            pilot_roots_per_stratum: if smoke { 2 } else { 3 },
            round_roots: if smoke { 9 } else { 18 },
            max_rounds: if smoke { 1 } else { 2 },
            target_half_width: f64::INFINITY,
            threads: 1,
        },
        model: enriched(),
        cpa_bins: 3,
    };
    let victim = CampaignRequest {
        config: CampaignConfig {
            seed: 7,
            pilot_per_stratum: 4,
            round_runs: if smoke { 96 } else { 160 },
            max_rounds: if smoke { 6 } else { 8 },
            target_half_width: f64::INFINITY,
            threads: 1,
        },
        model: StatisticalEncounterModel::default(),
        cpa_bins: 2,
        uniform: false,
    };

    println!(
        "multi_campaign: {shards} shard(s), transport = {}, {} budgets",
        if tcp { "tcp" } else { "channel" },
        if smoke { "smoke" } else { "default" },
    );

    // --- serial baseline (timed, for the throughput comparison) ---------
    let serial_start = Instant::now();
    let reference_a = paired_reference(&runner, &adaptive);
    let reference_b = paired_reference(&runner, &uniform);
    let reference_c = split_reference(&runner, &splitting);
    let reference_k = paired_reference(&runner, &victim);
    let serial_elapsed = serial_start.elapsed();

    // --- the shared shard fleet ------------------------------------------
    let backend = if tcp {
        let mut addrs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a shard port");
            addrs.push(listener.local_addr().expect("shard address"));
            let batch = BatchRunner::serial(runner.clone());
            std::thread::spawn(move || {
                let _ = serve_shard_tcp(listener, batch);
            });
        }
        ShardedBackend::connect_tcp(&addrs).expect("connect to the shard fleet")
    } else {
        ShardedBackend::spawn_local(runner.clone(), shards, 1)
    };

    // --- the multiplexed server + two client sessions --------------------
    let server = CampaignServer::new(runner.clone(), backend);
    let server_for_thread = server.clone();
    let (ctl, viewer) = if tcp {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind the server port");
        let addr = listener.local_addr().expect("server address");
        std::thread::spawn(move || {
            let _ = server_for_thread.serve_tcp(listener);
        });
        (
            CampaignClient::connect_tcp(addr).expect("connect the control session"),
            CampaignClient::connect_tcp(addr).expect("connect the viewer session"),
        )
    } else {
        let (ctl_end, server_end) = uavca::serve::channel_pair();
        let (viewer_end, viewer_server_end) = uavca::serve::channel_pair();
        std::thread::spawn(move || {
            let _ = server_for_thread
                .serve_sessions(vec![Box::new(server_end), Box::new(viewer_server_end)]);
        });
        (
            CampaignClient::new(ctl_end),
            CampaignClient::new(viewer_end),
        )
    };

    let concurrent_start = Instant::now();

    // --- create all four, then kill the victim mid-flight ----------------
    let id_a = ctl
        .create_campaign(&CampaignSpec::Paired { request: adaptive }, None)
        .expect("create the adaptive campaign");
    let id_b = ctl
        .create_campaign(&CampaignSpec::Paired { request: uniform }, None)
        .expect("create the uniform campaign");
    let id_c = ctl
        .create_campaign(&CampaignSpec::Splitting { request: splitting }, None)
        .expect("create the splitting campaign");
    let id_k = ctl
        .create_campaign(&CampaignSpec::Paired { request: victim }, None)
        .expect("create the victim campaign");
    println!("created {id_a} (adaptive), {id_b} (uniform), {id_c} (splitting), {id_k} (victim)");

    // Pause the victim while it is provably mid-flight (its budget is
    // several times what the fair-share dispatcher can hand it between
    // two requests on the same session), then make sure the kill lands
    // after at least one completed round so the checkpoint is nontrivial.
    ctl.pause_campaign(id_k).expect("pause the victim");
    let mut status = ctl.campaign_status(id_k).expect("victim status");
    for _ in 0..200 {
        if status.rounds_completed >= 1 {
            break;
        }
        ctl.resume_campaign(id_k).expect("resume the victim");
        std::thread::sleep(std::time::Duration::from_millis(20));
        ctl.pause_campaign(id_k).expect("re-pause the victim");
        status = ctl.campaign_status(id_k).expect("victim status");
    }
    assert_eq!(status.state, CampaignState::Paused, "victim paused");
    let checkpoint = ctl.cancel_campaign(id_k).expect("cancel the victim");
    println!(
        "killed {id_k} after {} round(s) / {} runs; checkpoint = {} bytes of JSON",
        status.rounds_completed,
        status.jobs_done,
        json(&checkpoint).len(),
    );

    // Resurrect it from nothing but the checkpoint.
    let id_r = ctl
        .create_campaign(&CampaignSpec::Paired { request: victim }, Some(&checkpoint))
        .expect("resume the victim from its checkpoint");
    println!("resumed {id_k} as {id_r} from the checkpoint");

    // --- stream everything to completion ---------------------------------
    // The viewer session streams a campaign the control session created —
    // campaigns are server-owned, not session-owned.
    let viewer_thread = std::thread::spawn(move || {
        let mut rounds = 0usize;
        let result = viewer
            .stream_campaign(id_a, |_| rounds += 1)
            .expect("stream the adaptive campaign from the viewer session");
        (rounds, result)
    });
    let mut collected = Vec::new();
    for (label, id) in [("uniform", id_b), ("splitting", id_c), ("resumed", id_r)] {
        let mut rounds = 0usize;
        let result = ctl
            .stream_campaign(id, |_| rounds += 1)
            .expect("stream a campaign from the control session");
        println!("  {id} ({label}): finished after {rounds} streamed round(s)");
        collected.push((label, id, result));
    }
    let (viewer_rounds, result_a) = viewer_thread.join().expect("viewer session thread");
    println!("  {id_a} (adaptive): finished after {viewer_rounds} streamed round(s) [viewer]");
    let concurrent_elapsed = concurrent_start.elapsed();

    // --- throughput / fairness -------------------------------------------
    let mut total_jobs = 0usize;
    for id in [id_a, id_b, id_c, id_r] {
        let s = ctl.campaign_status(id).expect("final status");
        assert_eq!(s.state, CampaignState::Finished, "{id} finished");
        println!(
            "  {id}: {} round(s), {} jobs, {} restart(s)",
            s.rounds_completed, s.jobs_done, s.restarts
        );
        total_jobs += s.jobs_done;
    }
    println!(
        "multiplexed: {total_jobs} jobs in {:.2?} ({:.0} jobs/s) vs serial back-to-back {:.2?}",
        concurrent_elapsed,
        total_jobs as f64 / concurrent_elapsed.as_secs_f64(),
        serial_elapsed,
    );
    println!("shard usage (shared across all campaigns):");
    println!("{}", campaign_shard_table(&server.backend().usage()));
    let log = server.log().snapshot();
    println!("control-plane event log: {} event(s) recorded", log.len());

    // --- the oracle: byte-identity with the serial planners ---------------
    let mut identical = true;
    let mut check = |label: &str, got: &CampaignResult, want: &CampaignResult| {
        let ok = json(got) == json(want);
        println!("  {label}: byte-identical = {ok}");
        identical &= ok;
    };
    check("adaptive  (streamed by viewer)", &result_a, &reference_a);
    check("uniform", &collected[0].2, &reference_b);
    check("splitting", &collected[1].2, &reference_c);
    check("killed + resumed", &collected[2].2, &reference_k);

    ctl.shutdown().expect("orderly shutdown");
    if !identical {
        eprintln!("multi_campaign: MISMATCH between multiplexed and serial results");
        std::process::exit(1);
    }
}
