//! Adaptive stratified Monte-Carlo campaign — importance splitting over
//! the statistical encounter model.
//!
//! Runs the same risk-ratio estimation twice: once with uniform
//! (mass-proportional) stratified sampling and once with the adaptive
//! planner that reallocates each round's budget by each stratum's
//! contribution to the *paired* log-risk-ratio variance (Neyman
//! allocation on the 2×2 joint outcome tables), then compares how many
//! paired simulations each needed to reach the target CI half-width.
//! The final estimate prints the paired (covariance-aware) CI next to
//! the covariance-free one and the jackknife cross-check.
//!
//! Run with `cargo run --release --example adaptive_campaign [--full]`.

#![allow(clippy::disallowed_methods, reason = "examples time their own runs")]
use uavca::encounter::{StatisticalEncounterModel, Stratification};
use uavca::validation::{
    campaign_convergence_table, campaign_stratum_table, CampaignConfig, CampaignPlanner,
    EncounterRunner,
};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let (runner, config) = if full {
        (
            EncounterRunner::with_default_table(),
            CampaignConfig {
                seed: 0,
                pilot_per_stratum: 50,
                round_runs: 600,
                max_rounds: 60,
                target_half_width: 0.015,
                threads: 0,
            },
        )
    } else {
        (
            EncounterRunner::with_coarse_table(),
            CampaignConfig {
                seed: 0,
                pilot_per_stratum: 30,
                round_runs: 400,
                max_rounds: 60,
                target_half_width: 0.02,
                threads: 0,
            },
        )
    };
    // The conflict-enriched benchmark scenario (see EXPERIMENTS.md):
    // a tighter CPA envelope concentrates the risk — and the
    // equipped/unequipped disagreement — in the inner CPA bands, which
    // is the structure importance splitting exploits.
    let model = StatisticalEncounterModel {
        max_cpa_horizontal_ft: 2500.0,
        max_cpa_vertical_ft: 500.0,
        ..StatisticalEncounterModel::default()
    };
    let planner = CampaignPlanner::new(runner, config)
        .model(model)
        .stratification(Stratification::new(5));
    println!(
        "Adaptive campaign: {} strata, pilot {}/stratum, {} runs/round, target half-width {}",
        planner.current_stratification().num_strata(),
        config.pilot_per_stratum,
        config.round_runs,
        config.target_half_width,
    );

    println!("\n== adaptive (Neyman on the paired log-ratio objective) ==");
    let started = std::time::Instant::now();
    let adaptive = planner
        .run_observed(|round| {
            println!(
                "round {:>2}: +{:<4} runs (total {:>5})  risk ratio {}",
                round.round, round.runs_this_round, round.total_runs, round.risk_ratio
            );
        })
        .expect("valid campaign config");
    let adaptive_time = started.elapsed();

    println!("\n== uniform baseline (mass-proportional) ==");
    let started = std::time::Instant::now();
    let uniform = planner.run_uniform().expect("valid campaign config");
    let uniform_time = started.elapsed();
    print!("{}", campaign_convergence_table(&uniform.rounds));

    println!("\n== final adaptive estimate ==");
    print!("{}", campaign_stratum_table(&adaptive.estimate));
    println!(
        "\nunequipped NMAC  {}\nequipped NMAC    {}\nrisk ratio       {}  (paired, Cov(p̂_e,p̂_u) = {:.3e})\n  unpaired CI    {}\n  jackknife CI   {}",
        adaptive.estimate.unequipped_nmac,
        adaptive.estimate.equipped_nmac,
        adaptive.estimate.risk_ratio,
        adaptive.estimate.covariance,
        adaptive.estimate.risk_ratio_unpaired,
        adaptive.estimate.risk_ratio_jackknife
    );

    let target = config.target_half_width;
    let to_target =
        |outcome: &uavca::validation::CampaignOutcome| outcome.runs_to_half_width(target);
    println!("\n== runs to half-width <= {target} ==");
    match (to_target(&adaptive), to_target(&uniform)) {
        (Some(a), Some(u)) => println!(
            "adaptive: {a} paired runs ({:.2} s)   uniform: {u} paired runs ({:.2} s)   saving {:.0}%",
            adaptive_time.as_secs_f64(),
            uniform_time.as_secs_f64(),
            100.0 * (1.0 - a as f64 / u as f64)
        ),
        (a, u) => println!("adaptive: {a:?}   uniform: {u:?} (target not reached by one side)"),
    }
}
