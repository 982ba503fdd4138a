//! Evolutionary search against the simpler SVO algorithm in 2-D — the
//! setting of the authors' earlier study ([7] in the paper), which first
//! demonstrated that GA search finds collision situations faster than
//! random search.
//!
//! Searches the 6-parameter planar scenario space for encounters where
//! cooperative SVO still ends in a collision, and compares the GA against
//! budget-matched random search.
//!
//! Run with `cargo run --release --example svo_search_2d`.

#![allow(clippy::disallowed_methods, reason = "examples time their own runs")]
use uavca::evo::{Bounds, GaConfig, GeneticAlgorithm, RandomSearch};
use uavca::svo::{run_encounter_2d, Scenario2d, Sim2dConfig, SCENARIO_2D_BOUNDS};
use uavca::validation::TextTable;

fn fitness(genes: &[f64]) -> f64 {
    let scenario = Scenario2d::from_slice(genes);
    let config = Sim2dConfig::default();
    let runs = 20;
    let mut total = 0.0;
    for k in 0..runs {
        // Seed derived from the genome so fitness is pure.
        let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
        for g in genes {
            seed ^= g.to_bits();
            seed = seed.wrapping_mul(0x1000_0000_01b3);
        }
        let outcome = run_encounter_2d(&config, &scenario, [true, true], seed.wrapping_add(k));
        total += 10_000.0 / (1.0 + outcome.min_separation_ft);
    }
    total / runs as f64
}

fn main() {
    let bounds = Bounds::new(SCENARIO_2D_BOUNDS.to_vec()).expect("static bounds are valid");
    let budget = 600usize;
    let ga_config = GaConfig::new(60, 10).seed(7).threads(0);
    println!("searching for SVO failures: GA (60 x 10) vs random search ({budget} evals)\n");

    let started = std::time::Instant::now();
    let ga = GeneticAlgorithm::new(ga_config, bounds.clone()).run(fitness);
    let ga_time = started.elapsed();

    let started = std::time::Instant::now();
    let random = RandomSearch::new(bounds, budget)
        .seed(7)
        .threads(0)
        .run(fitness);
    let random_time = started.elapsed();

    let mut table = TextTable::new(["search", "best fitness", "wall time (s)"]);
    table.row([
        "GA",
        &format!("{:.0}", ga.best.fitness),
        &format!("{:.1}", ga_time.as_secs_f64()),
    ]);
    table.row([
        "random",
        &format!("{:.0}", random.best.fitness),
        &format!("{:.1}", random_time.as_secs_f64()),
    ]);
    println!("{table}");

    let best = Scenario2d::from_slice(&ga.best.genes);
    println!(
        "hardest scenario found by GA: own {:.0} ft/s, intruder {:.0} ft/s heading {:.0} deg, \
         T = {:.0} s, CPA offset {:.0} ft",
        best.own_speed_fps,
        best.intruder_speed_fps,
        best.intruder_heading_rad.to_degrees(),
        best.time_to_cpa_s,
        best.cpa_distance_ft,
    );
    let verify = run_encounter_2d(&Sim2dConfig::default(), &best, [true, true], 99);
    println!(
        "replay of the best scenario: min separation {:.0} ft, collided: {}",
        verify.min_separation_ft, verify.collided
    );
}
