//! Multi-aircraft integrated-airspace campaign: k-aircraft encounters
//! across density strata, with per-pair risk-ratio estimates.
//!
//! Runs a density-stratified [`MultiCampaignPlanner`] end to end on the
//! real simulator: corridor / crossing-streams / converging geometries
//! at 2, 4 and 8 aircraft per encounter, every aircraft pair tallied as
//! one matched 2×2 sample, in both equipage compositions (independent
//! pairwise resolution and globally coordinated deconfliction).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example multi_aircraft -- [--smoke] [--full] [--shards N] [--tcp]
//! ```
//!
//! * `--smoke`    — tiny budget (the CI configuration).
//! * `--full`     — full-resolution logic table and a real budget.
//! * `--shards N` — additionally re-run the identical campaign over an
//!   N-shard fleet and require the sharded estimate to be
//!   **byte-identical** to the local one. With this flag the example is
//!   an oracle, not a demo: it exits nonzero on any divergence.
//! * `--tcp`      — put the shard fleet on loopback TCP instead of
//!   in-process channels, so the oracle crosses the real wire.
//!
//! [`MultiCampaignPlanner`]: uavca::validation::MultiCampaignPlanner

#![allow(clippy::disallowed_methods, reason = "examples time their own runs")]
use uavca::encounter::MultiEncounterModel;
use uavca::serve::{serve_shard_tcp, ShardedBackend};
use uavca::sim::MultiMode;
use uavca::validation::{
    BatchRunner, CampaignConfig, EncounterRunner, MultiCampaignOutcome, MultiCampaignPlanner,
};

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
}

/// Spawns the shard fleet on the requested transport.
fn fleet(runner: &EncounterRunner, shards: usize, tcp: bool) -> ShardedBackend {
    if tcp {
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
    }
}

fn print_outcome(label: &str, outcome: &MultiCampaignOutcome) {
    let est = &outcome.estimate;
    println!("\n== {label}: density sweep ==");
    println!(
        "{:>8} {:>7} {:>8} {:>24} {:>24} {:>26}",
        "density", "runs", "pairs", "unequipped NMAC", "equipped NMAC", "risk ratio"
    );
    for (band_index, band) in est.densities.iter().enumerate() {
        let pair_samples: usize = est
            .strata
            .iter()
            .filter(|s| s.stratum.density_index == band_index)
            .map(|s| s.pair_samples)
            .sum();
        println!(
            "{:>8} {:>7} {:>8} {:>24} {:>24} {:>26}",
            band.density,
            band.runs,
            pair_samples,
            band.unequipped_nmac.to_string(),
            band.equipped_nmac.to_string(),
            band.risk_ratio.to_string(),
        );
    }
    println!(
        "combined: {} encounters, {} pair samples, risk ratio {}",
        est.total_runs, est.total_pair_samples, est.risk_ratio
    );
}

fn main() {
    let smoke = flag("--smoke");
    let full = flag("--full");
    let tcp = flag("--tcp");
    let shards: Option<usize> = flag_value("--shards").and_then(|v| v.parse().ok());

    let runner = if full {
        EncounterRunner::with_default_table()
    } else {
        EncounterRunner::with_coarse_table()
    };
    let config = if smoke {
        CampaignConfig {
            seed: 42,
            pilot_per_stratum: 2,
            round_runs: 18,
            max_rounds: 1,
            target_half_width: f64::INFINITY,
            threads: 1,
        }
    } else {
        CampaignConfig {
            seed: 42,
            pilot_per_stratum: 8,
            round_runs: 180,
            max_rounds: if full { 12 } else { 6 },
            target_half_width: f64::INFINITY,
            threads: 0,
        }
    };
    let model = MultiEncounterModel::default();
    println!(
        "multi_aircraft: densities {:?}, {} strata, pilot {}/stratum, {} runs/round, {} table",
        model.densities,
        model.num_strata(),
        config.pilot_per_stratum,
        config.round_runs,
        if full { "full" } else { "coarse" },
    );

    let started = std::time::Instant::now();
    let mut outcomes = Vec::new();
    for mode in [MultiMode::Pairwise, MultiMode::Coordinated] {
        let planner = MultiCampaignPlanner::new(runner.clone(), config)
            .model(model.clone())
            .mode(mode);
        let outcome = planner.run().expect("valid multi campaign config");
        print_outcome(&format!("{mode:?}"), &outcome);
        outcomes.push((mode, planner, outcome));
    }
    println!("\nlocal runs took {:.2} s", started.elapsed().as_secs_f64());

    if let Some(shards) = shards {
        let shards = shards.max(1);
        println!(
            "\n== oracle: identical campaigns over {shards} {} shard(s) ==",
            if tcp { "tcp" } else { "channel" }
        );
        for (mode, planner, local) in &outcomes {
            let backend = fleet(&runner, shards, tcp);
            let sharded = planner
                .run_with(&backend)
                .expect("valid multi campaign config");
            let local_json = serde_json::to_string(&local.estimate).expect("serializable");
            let sharded_json = serde_json::to_string(&sharded.estimate).expect("serializable");
            if local_json != sharded_json {
                eprintln!("FAIL: sharded {mode:?} estimate diverged from the local one");
                eprintln!("local:   {local_json}");
                eprintln!("sharded: {sharded_json}");
                std::process::exit(1);
            }
            let faults = backend.take_faults();
            if !faults.is_empty() {
                eprintln!("FAIL: clean fleet reported faults: {faults:?}");
                std::process::exit(1);
            }
            println!("{mode:?}: sharded estimate byte-identical to local ✓");
        }
    }
}
