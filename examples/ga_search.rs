//! The paper's core experiment in miniature: GA search for challenging
//! encounter situations (Sections V–VII, Fig. 6).
//!
//! Evolves encounter scenarios toward high fitness
//! `mean(10000 / (1 + d_k))`, prints per-generation statistics and the top
//! found scenarios with their geometry class. At paper scale
//! (`--full`: population 200 × 5 generations × 100 runs/eval) this is the
//! Fig. 6 experiment; the default is a quick demonstration budget.
//!
//! Run with `cargo run --release --example ga_search [--full]`.

#![allow(clippy::disallowed_methods, reason = "examples time their own runs")]
use uavca::validation::{EncounterRunner, SearchConfig, SearchHarness, TextTable};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let (runner, config) = if full {
        (
            EncounterRunner::with_default_table(),
            SearchConfig::default(),
        )
    } else {
        (
            EncounterRunner::with_coarse_table(),
            SearchConfig {
                population_size: 30,
                generations: 4,
                runs_per_eval: 10,
                seed: 0,
                threads: 0,
                objective: uavca::validation::FitnessKind::Proximity,
            },
        )
    };
    println!(
        "GA search: population {}, generations {}, {} sims/eval ({} simulations total)",
        config.population_size,
        config.generations,
        config.runs_per_eval,
        config.evaluation_budget() * config.runs_per_eval
    );

    let started = std::time::Instant::now();
    let outcome = SearchHarness::new(runner, config).run_ga();
    let elapsed = started.elapsed();

    let mut table = TextTable::new(["generation", "best fitness", "mean fitness", "std"]);
    for g in &outcome.result.generations {
        table.row([
            g.generation.to_string(),
            format!("{:.0}", g.best_fitness),
            format!("{:.0}", g.mean_fitness),
            format!("{:.0}", g.std_fitness),
        ]);
    }
    println!("\n{table}");

    println!("top found scenarios:");
    let mut top = TextTable::new([
        "fitness",
        "class",
        "T (s)",
        "Gs_o (kt)",
        "Vs_o (fpm)",
        "Gs_i (kt)",
        "psi_i (deg)",
        "Vs_i (fpm)",
    ]);
    for s in outcome.top_scenarios.iter().take(8) {
        top.row([
            format!("{:.0}", s.fitness),
            s.class.to_string(),
            format!("{:.0}", s.params.time_to_cpa_s),
            format!("{:.0}", s.params.own_ground_speed_kt),
            format!("{:.0}", s.params.own_vertical_speed_fpm),
            format!("{:.0}", s.params.intruder_ground_speed_kt),
            format!("{:.0}", s.params.intruder_bearing_rad.to_degrees()),
            format!("{:.0}", s.params.intruder_vertical_speed_fpm),
        ]);
    }
    println!("{top}");

    println!("search wall time: {:.1} s", elapsed.as_secs_f64());
    let first = outcome.result.generations.first().unwrap().mean_fitness;
    let last = outcome.result.generations.last().unwrap().mean_fitness;
    println!(
        "mean fitness moved {first:.0} -> {last:.0} over {} generations (paper Fig. 6: \
         later generations concentrate on challenging situations)",
        outcome.result.generations.len()
    );
}
