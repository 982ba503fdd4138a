//! PIPE-MC — the Monte-Carlo evaluation loop of the development process
//! (paper Fig. 1 "Simulation Evaluation" + Section IV): NMAC probability,
//! alert rate and risk ratio over the statistical encounter model, with
//! confidence intervals, plus the cost accounting that motivates guided
//! search for rare events.
//!
//! The estimate is a uniform stratified campaign at a fixed budget:
//! `target_half_width = ∞` switches the early stop off, so it spends
//! exactly `pilot × strata + round_runs × max_rounds` paired runs, one
//! per sampled encounter.
//!
//! `cargo run --release -p uavca-bench --bin monte_carlo_eval [--full] [--seed N]`

// Experiment binary: wall-clock timing is the point (audit rule A2
// carves the bench crate out the same way).
#![allow(clippy::disallowed_methods)]
use uavca_bench::{full_scale, runner_for_scale, seed_arg};
use uavca_validation::{CampaignConfig, CampaignPlanner, TextTable};

fn main() {
    let runner = runner_for_scale();
    let (pilot_per_stratum, round_runs, max_rounds) = if full_scale() {
        (1_000, 19_000, 2)
    } else {
        (50, 500, 2)
    };
    let planner = CampaignPlanner::new(
        runner,
        CampaignConfig {
            seed: seed_arg(),
            pilot_per_stratum,
            round_runs,
            max_rounds,
            target_half_width: f64::INFINITY,
            threads: 0,
        },
    );
    let strata = planner.current_stratification().num_strata();
    let budget = pilot_per_stratum * strata + round_runs * max_rounds;
    println!(
        "== PIPE-MC: uniform Monte-Carlo campaign, {budget} paired runs \
         ({strata} strata x {pilot_per_stratum} pilot + {max_rounds} rounds x {round_runs}) ==\n"
    );

    let started = std::time::Instant::now();
    let outcome = planner.run_uniform().expect("valid config");
    let wall = started.elapsed().as_secs_f64();
    assert_eq!(outcome.total_runs(), budget);
    assert!(!outcome.reached_target);
    let estimate = &outcome.estimate;

    let mut table = TextTable::new(["metric", "estimate"]);
    table.row([
        "unequipped NMAC rate",
        &estimate.unequipped_nmac.to_string(),
    ]);
    table.row(["equipped NMAC rate", &estimate.equipped_nmac.to_string()]);
    table.row([
        "risk ratio (equipped/unequipped, paired)",
        &estimate.risk_ratio.to_string(),
    ]);
    table.row(["alert rate", &estimate.alert.to_string()]);
    table.row(["false alert rate", &estimate.false_alert.to_string()]);
    println!("{table}");

    let sims = 2 * budget;
    println!(
        "{sims} simulations in {wall:.2} s ({:.0} sims/s)",
        sims as f64 / wall
    );
    println!(
        "\nshape check (paper Sections II & IV): the equipped system cuts the NMAC rate \
         (risk ratio {:.3} « 1), but the CI on the equipped rate is still {:.4} wide — \
         rare-event estimation is what makes Monte-Carlo costly and guided search attractive.",
        estimate.risk_ratio.ratio,
        estimate.equipped_nmac.ci_high - estimate.equipped_nmac.ci_low
    );
    assert!(
        estimate.risk_ratio.ratio < 0.5,
        "the generated logic must cut risk substantially"
    );
}
