//! Rare-event risk-ratio campaign via multilevel importance splitting.
//!
//! Runs the splitting planner end to end on the real simulator: a pilot
//! round calibrates each stratum's CPA-severity ladder and branch
//! schedule, then budget rounds branch every threshold-crossing
//! trajectory into seeded continuations, so NMAC mass that crude
//! sampling would observe once per ~1/p roots arrives as products of
//! per-level conditional rates. The unequipped arm keeps its regression
//! control variate on the sampled CPA miss distance.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example rare_event_campaign -- [--smoke] [--full] [--shards N]
//! ```
//!
//! * `--smoke`    — tiny budget (the CI configuration).
//! * `--full`     — full-resolution logic table and a real budget.
//! * `--shards N` — additionally re-run the identical campaign over an
//!   in-process N-shard fleet and require the sharded estimate to be
//!   **byte-identical** to the local one. With this flag the example is
//!   an oracle, not a demo: it exits nonzero on any divergence.

#![allow(clippy::disallowed_methods, reason = "examples time their own runs")]
use uavca::encounter::{StatisticalEncounterModel, Stratification};
use uavca::serve::ShardedBackend;
use uavca::validation::{
    split_convergence_table, split_stratum_table, EncounterRunner, SplitConfig, SplitPlanner,
};

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
}

fn main() {
    let smoke = flag("--smoke");
    let full = flag("--full");
    let shards: Option<usize> = flag_value("--shards").and_then(|v| v.parse().ok());

    let runner = if full {
        EncounterRunner::with_default_table()
    } else {
        EncounterRunner::with_coarse_table()
    };
    let config = if smoke {
        SplitConfig {
            seed: 42,
            levels: 2,
            max_branch: 4,
            pilot_roots_per_stratum: 3,
            round_roots: 24,
            max_rounds: 1,
            target_half_width: f64::INFINITY,
            threads: 1,
        }
    } else {
        SplitConfig {
            seed: 42,
            levels: 3,
            max_branch: 6,
            pilot_roots_per_stratum: 8,
            round_roots: 200,
            max_rounds: if full { 12 } else { 6 },
            target_half_width: f64::INFINITY,
            threads: 1,
        }
    };
    // The conflict-enriched model from the campaign benchmarks: the
    // tighter CPA envelope keeps every band under the ladder entry gate,
    // so each stratum gets a real severity ladder to split through.
    let model = StatisticalEncounterModel {
        max_cpa_horizontal_ft: 2500.0,
        max_cpa_vertical_ft: 500.0,
        ..StatisticalEncounterModel::default()
    };
    let planner = SplitPlanner::new(runner.clone(), config)
        .model(model)
        .stratification(Stratification::new(3));

    let ladders = planner.ladders();
    println!(
        "Splitting campaign: {} strata, ladders of {} rungs, fan cap {}, pilot {}/stratum, {} roots/round",
        ladders.len(),
        ladders.iter().map(Vec::len).max().unwrap_or(0),
        config.max_branch,
        config.pilot_roots_per_stratum,
        config.round_roots,
    );

    let started = std::time::Instant::now();
    let outcome = planner
        .run_observed(|round| {
            println!(
                "round {:>2}: +{:<4} roots (total {:>5}, {:>8} steps)  risk ratio {}",
                round.round,
                round.roots_this_round,
                round.total_roots,
                round.total_steps,
                round.risk_ratio
            );
        })
        .expect("valid splitting config");
    let local_time = started.elapsed();

    println!("\n== per-stratum splitting estimates ==");
    print!("{}", split_stratum_table(&outcome.estimate));
    println!("\n== convergence trail ==");
    print!("{}", split_convergence_table(&outcome.rounds));
    println!(
        "\nunequipped NMAC  {}\nequipped NMAC    {}\nrisk ratio       {}\ntotal steps      {} ({:.2} s local)",
        outcome.estimate.unequipped_nmac,
        outcome.estimate.equipped_nmac,
        outcome.estimate.risk_ratio,
        outcome.estimate.total_steps(),
        local_time.as_secs_f64(),
    );

    if let Some(shards) = shards {
        let shards = shards.max(1);
        println!("\n== oracle: identical campaign over {shards} in-process shards ==");
        let backend = ShardedBackend::spawn_local(runner, shards, 1);
        let sharded = planner.run_with(&backend).expect("valid splitting config");
        let local_json = serde_json::to_string(&outcome.estimate).expect("serializable");
        let sharded_json = serde_json::to_string(&sharded.estimate).expect("serializable");
        if local_json != sharded_json {
            eprintln!("FAIL: sharded splitting estimate diverged from the local one");
            eprintln!("local:   {local_json}");
            eprintln!("sharded: {sharded_json}");
            std::process::exit(1);
        }
        let faults = backend.take_faults();
        if !faults.is_empty() {
            eprintln!("FAIL: clean fleet reported faults: {faults:?}");
            std::process::exit(1);
        }
        println!("sharded estimate byte-identical to local across {shards} shards ✓");
    }
}
