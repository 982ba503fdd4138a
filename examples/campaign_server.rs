//! The sharded campaign service, end to end: spawn a shard fleet and a
//! campaign server, create a full adaptive campaign through the client
//! (`Create`), stream its rounds as they complete (`Stream`), and verify
//! the result is **byte-identical** to running the same campaign
//! in-process.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example campaign_server -- [--shards N] [--tcp] [--smoke] [--full]
//! ```
//!
//! * `--shards N` — shard workers (default 2).
//! * `--tcp`      — shards and server on loopback TCP instead of
//!   in-process channels (same protocol either way).
//! * `--smoke`    — tiny run cap (the CI shard-matrix configuration).
//! * `--full`     — full-resolution logic table and a real budget.
//!
//! Exits nonzero if the sharded estimate is not byte-identical to the
//! in-process one, so CI smoke runs are a real oracle, not a demo.

use uavca::encounter::{StatisticalEncounterModel, Stratification};
use uavca::serve::{
    serve_shard_tcp, CampaignClient, CampaignRequest, CampaignResult, CampaignServer, CampaignSpec,
    RoundEvent, ShardedBackend,
};
use uavca::validation::{
    campaign_convergence_table, campaign_shard_table, BatchRunner, CampaignConfig, CampaignPlanner,
    EncounterRunner,
};

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
}

fn main() {
    let shards: usize = flag_value("--shards")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
        .max(1);
    let tcp = flag("--tcp");
    let smoke = flag("--smoke");
    let full = flag("--full");

    let runner = if full {
        EncounterRunner::with_default_table()
    } else {
        EncounterRunner::with_coarse_table()
    };
    let config = if smoke {
        CampaignConfig {
            seed: 7,
            pilot_per_stratum: 5,
            round_runs: 60,
            max_rounds: 2,
            target_half_width: f64::INFINITY,
            threads: 1,
        }
    } else {
        CampaignConfig {
            seed: 7,
            pilot_per_stratum: 30,
            round_runs: 400,
            max_rounds: if full { 40 } else { 8 },
            target_half_width: if full { 0.02 } else { 0.05 },
            threads: 0,
        }
    };
    // The conflict-enriched model from the campaign benchmarks: risk
    // concentrated in the inner CPA bands, where adaptation pays.
    let model = StatisticalEncounterModel {
        max_cpa_horizontal_ft: 2500.0,
        max_cpa_vertical_ft: 500.0,
        ..StatisticalEncounterModel::default()
    };
    let request = CampaignRequest {
        config,
        model,
        cpa_bins: 3,
        uniform: false,
    };

    println!(
        "campaign_server: {shards} shard(s), transport = {}, {} table",
        if tcp { "tcp" } else { "channel" },
        if full { "full" } else { "coarse" },
    );

    // --- the shard fleet -------------------------------------------------
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

    // --- the server + client --------------------------------------------
    let server = CampaignServer::new(runner.clone(), backend);
    let server_for_thread = server.clone();
    let client = if tcp {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind the server port");
        let addr = listener.local_addr().expect("server address");
        std::thread::spawn(move || {
            let _ = server_for_thread.serve_tcp(listener);
        });
        CampaignClient::connect_tcp(addr).expect("connect to the campaign server")
    } else {
        let (client_end, mut server_end) = uavca::serve::channel_pair();
        std::thread::spawn(move || {
            let _ = server_for_thread.serve(&mut server_end);
        });
        CampaignClient::new(client_end)
    };

    // --- the campaign, rounds streamed as the server finishes them ------
    let id = client
        .create_campaign(&CampaignSpec::Paired { request }, None)
        .expect("the campaign is accepted");
    let mut rounds = Vec::new();
    let result = client
        .stream_campaign(id, |round| {
            if let RoundEvent::Paired { summary } = round {
                println!(
                    "  round {:>2}: {:>6} runs, risk ratio {}",
                    summary.round, summary.total_runs, summary.risk_ratio
                );
                rounds.push(summary.clone());
            }
        })
        .expect("the campaign runs");
    let CampaignResult::Paired { outcome } = result else {
        panic!("a paired campaign yields a paired result");
    };

    println!("\nconvergence (as streamed):");
    println!("{}", campaign_convergence_table(&rounds));
    println!("shard usage:");
    println!("{}", campaign_shard_table(&server.backend().usage()));

    // --- the oracle: byte-identity with the in-process planner ----------
    let reference = CampaignPlanner::new(runner, config)
        .model(model)
        .stratification(Stratification::new(request.cpa_bins))
        .run()
        .expect("valid config");
    let served = serde_json::to_string(&outcome.estimate).expect("serializable");
    let local = serde_json::to_string(&reference.estimate).expect("serializable");
    let identical = served == local && outcome == reference && rounds == reference.rounds;
    println!(
        "sharded vs in-process: byte-identical = {identical} \
         ({} runs, risk ratio {})",
        outcome.total_runs(),
        outcome.estimate.risk_ratio
    );

    client.shutdown().expect("orderly shutdown");
    if !identical {
        eprintln!("campaign_server: MISMATCH between sharded and in-process estimates");
        std::process::exit(1);
    }
}
