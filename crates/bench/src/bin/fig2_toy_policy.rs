//! FIG2-POLICY — regenerates the Section III walk-through artifacts:
//! the toy 2-D MDP's optimal policy (the "logic table"), its value
//! structure, and the simulated collision probabilities with and without
//! the generated logic.
//!
//! `cargo run --release -p uavca-bench --bin fig2_toy_policy`

#![allow(clippy::disallowed_methods, reason = "wall-clock timing is the point")]
use rand::rngs::StdRng;
use rand::SeedableRng;
use uavca_ca2d::{estimate_collision_probability, Ca2dConfig, Ca2dSystem};
use uavca_mdp::{Mdp, PolicyIteration};
use uavca_validation::TextTable;

fn main() {
    let config = Ca2dConfig::default();
    println!("== FIG2-POLICY: Section III toy collision avoidance MDP ==");
    println!(
        "state space: {} states ({} altitudes x {} distances x {} altitudes), 3 actions\n",
        config.num_states(),
        config.num_altitudes(),
        config.num_distances(),
        config.num_altitudes()
    );

    let started = std::time::Instant::now();
    let system = Ca2dSystem::solve(&config).expect("toy model solves");
    println!(
        "value iteration solved the model in {:.3} s\n",
        started.elapsed().as_secs_f64()
    );

    for x_r in [1, 2, 4, 8] {
        println!("{}", system.render_policy_slice(x_r).expect("x_r on grid"));
    }

    // Cross-check: policy iteration agrees with value iteration.
    let mdp = uavca_ca2d::build_mdp(&config).expect("model builds");
    let (pi_solution, pi_stats) = PolicyIteration::new().solve(&mdp).expect("PI converges");
    let mut disagreements = 0;
    for s in 0..mdp.num_states() {
        let vi_v = system
            .value_of(config.decode(s).0, config.decode(s).1, config.decode(s).2)
            .unwrap();
        if (vi_v - pi_solution.values[s]).abs() > 1e-3 {
            disagreements += 1;
        }
    }
    println!(
        "policy iteration cross-check: {} improvement rounds, {} value disagreements",
        pi_stats.improvement_rounds, disagreements
    );

    // Collision probabilities by start state (the evaluation loop of Fig. 1).
    let policy = system.policy();
    let mut rng = StdRng::seed_from_u64(7);
    let mut table = TextTable::new([
        "start (y_o, x_r, y_i)",
        "unequipped P(col)",
        "equipped P(col)",
    ]);
    for (y_o, x_r, y_i) in [(0, 9, 0), (0, 9, 2), (2, 9, -2), (0, 5, 0), (0, 3, 0)] {
        let without = estimate_collision_probability(&config, None, y_o, x_r, y_i, 4000, &mut rng);
        let with =
            estimate_collision_probability(&config, Some(&policy), y_o, x_r, y_i, 4000, &mut rng);
        table.row([
            format!("({y_o}, {x_r}, {y_i})"),
            format!("{without:.3}"),
            format!("{with:.3}"),
        ]);
    }
    println!("\n{table}");
    println!(
        "series: the generated logic cuts collision probability in every conflict start state"
    );
}
