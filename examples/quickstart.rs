//! Quickstart: the paper's development process end to end, in miniature.
//!
//! 1. Build and solve the Section III 2-D toy MDP (model-based
//!    optimization), inspect the generated logic table, and estimate its
//!    collision probability by simulation.
//! 2. Solve an ACAS XU-like vertical logic table and fly one coordinated
//!    head-on encounter with it.
//!
//! Run with `cargo run --release --example quickstart`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use uavca::acasx::{AcasConfig, AcasXu, LogicTable};
use uavca::ca2d::{estimate_collision_probability, Ca2dConfig, Ca2dSystem};
use uavca::encounter::{EncounterParams, ScenarioGenerator};
use uavca::sim::{EncounterWorld, SimConfig};

fn main() {
    // ---- Part 1: the 2-D teaching example -------------------------------
    println!("== Section III toy model: solve by value iteration ==");
    let config = Ca2dConfig::default();
    let system = Ca2dSystem::solve(&config).expect("toy model solves");
    println!("{}", system.render_policy_slice(2).expect("x_r=2 on grid"));

    let policy = system.policy();
    let mut rng = StdRng::seed_from_u64(1);
    let p_without = estimate_collision_probability(&config, None, 0, 9, 0, 2000, &mut rng);
    let p_with = estimate_collision_probability(&config, Some(&policy), 0, 9, 0, 2000, &mut rng);
    println!(
        "collision probability from (0, 9, 0): unequipped {p_without:.3}, equipped {p_with:.3}"
    );

    // ---- Part 2: the 3-D ACAS XU-like logic -----------------------------
    println!("\n== ACAS XU-like logic: offline solve + one encounter ==");
    let table = Arc::new(LogicTable::solve(&AcasConfig::coarse()));
    println!(
        "solved logic table: {} stages, {:.1} MiB stored",
        table.num_stages(),
        table.q_bytes() as f64 / (1024.0 * 1024.0)
    );

    let params = EncounterParams::head_on_template();
    let encounter = ScenarioGenerator::default().generate(&params);
    let mut world = EncounterWorld::new(
        SimConfig::default(),
        [encounter.own, encounter.intruder],
        [
            Box::new(AcasXu::new(table.clone())),
            Box::new(AcasXu::new(table)),
        ],
        42,
    );
    let outcome = world.run();
    println!(
        "head-on encounter: NMAC = {}, min separation {:.0} ft, first alert at {:?} s",
        outcome.nmac, outcome.min_separation_ft, outcome.first_alert_time_s
    );
    assert!(
        !outcome.nmac,
        "the coordinated pair should resolve a plain head-on"
    );
    println!("quickstart OK");
}
