//! FIG6-GA — regenerates the paper's Fig. 6: fitness of every evaluated
//! encounter, in evaluation order, across the GA generations. The paper
//! runs population 200 × 5 generations with 100 simulations per
//! evaluation; `--full` reproduces that scale, the default is a smoke
//! scale with the same structure.
//!
//! Prints the Fig. 6 series (one fitness value per encounter) in compact
//! per-generation histograms plus the generation summary, and writes the
//! raw series to `fig6_series.json` for external plotting.
//!
//! `cargo run --release -p uavca-bench --bin fig6_ga_fitness [--full]`

#![allow(clippy::disallowed_methods, reason = "wall-clock timing is the point")]
use uavca_bench::{full_scale, runner_for_scale, seed_arg};
use uavca_validation::{FitnessKind, SearchConfig, SearchHarness, TextTable};

fn main() {
    let runner = runner_for_scale();
    let config = if full_scale() {
        SearchConfig::default().seed(seed_arg())
    } else {
        SearchConfig {
            population_size: 40,
            generations: 5,
            runs_per_eval: 20,
            seed: seed_arg(),
            threads: 0,
            objective: FitnessKind::Proximity,
        }
    };
    println!(
        "== FIG6-GA: fitness per encounter over {} generations x {} encounters ({} sims/eval) ==\n",
        config.generations, config.population_size, config.runs_per_eval
    );

    let started = std::time::Instant::now();
    let outcome = SearchHarness::new(runner, config).run_ga();
    let wall = started.elapsed().as_secs_f64();

    // Per-generation fitness histogram: the textual analogue of the
    // scatter in Fig. 6.
    let buckets = [
        0.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
    ];
    let mut table = TextTable::new([
        "generation",
        "<25",
        "<50",
        "<100",
        "<250",
        "<500",
        "<1k",
        "<2.5k",
        "<5k",
        "<=10k",
        "best",
        "mean",
    ]);
    for g in 0..config.generations {
        let fits: Vec<f64> = outcome
            .result
            .evaluations
            .iter()
            .filter(|e| e.generation == g)
            .map(|e| e.fitness)
            .collect();
        let mut counts = vec![0usize; buckets.len() - 1];
        for &f in &fits {
            for b in 0..buckets.len() - 1 {
                if f >= buckets[b] && f < buckets[b + 1] {
                    counts[b] += 1;
                    break;
                }
            }
        }
        let best = fits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mean = fits.iter().sum::<f64>() / fits.len().max(1) as f64;
        let mut row: Vec<String> = vec![g.to_string()];
        row.extend(counts.iter().map(|c| c.to_string()));
        row.push(format!("{best:.0}"));
        row.push(format!("{mean:.0}"));
        table.row(row);
    }
    println!("{table}");

    // The Fig. 6 claim: later generations concentrate on higher fitness.
    let first_mean = outcome.result.generations.first().unwrap().mean_fitness;
    let last_mean = outcome.result.generations.last().unwrap().mean_fitness;
    let first_best = outcome.result.generations.first().unwrap().best_fitness;
    let last_best = outcome
        .result
        .generations
        .iter()
        .map(|g| g.best_fitness)
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "mean fitness {first_mean:.0} -> {last_mean:.0}, best fitness {first_best:.0} -> {last_best:.0}"
    );
    println!("search wall time: {wall:.1} s (paper footnote 5: ~300 s at paper scale on a laptop)");

    let series: Vec<(usize, usize, f64)> = outcome
        .result
        .evaluations
        .iter()
        .map(|e| (e.index, e.generation, e.fitness))
        .collect();
    std::fs::write(
        "fig6_series.json",
        serde_json::to_string(&series).expect("series serializes"),
    )
    .expect("write fig6_series.json");
    println!("raw per-encounter series written to fig6_series.json");

    assert!(
        last_mean > first_mean,
        "Fig. 6 shape: the GA must concentrate the population on higher fitness"
    );
}
