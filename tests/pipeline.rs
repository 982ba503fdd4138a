//! Integration test: the full development-and-validation pipeline of the
//! paper's Fig. 1 + Fig. 3, across every crate.
//!
//! Model (MDP) → optimization (logic table) → simulation evaluation →
//! GA search for challenging situations → analysis.

use uavca::encounter::{EncounterParams, GeometryClass};
use uavca::validation::{
    analysis, EncounterRunner, Equipage, FitnessFunction, RunScratch, ScenarioSpace, SearchConfig,
    SearchHarness,
};

fn coarse_runner() -> EncounterRunner {
    EncounterRunner::with_coarse_table()
}

#[test]
fn generated_logic_outperforms_unequipped_across_geometries() {
    let runner = coarse_runner();
    let templates = [EncounterParams::head_on_template(), {
        let mut p = EncounterParams::head_on_template();
        p.intruder_bearing_rad = std::f64::consts::FRAC_PI_2; // crossing
        p
    }];
    for params in templates {
        let mut equipped_nmacs = 0;
        let mut unequipped_nmacs = 0;
        for seed in 0..12 {
            if runner.run_once_with(&params, seed, Equipage::Both).nmac {
                equipped_nmacs += 1;
            }
            if runner.run_once_with(&params, seed, Equipage::Neither).nmac {
                unequipped_nmacs += 1;
            }
        }
        assert!(
            equipped_nmacs < unequipped_nmacs,
            "equipage must reduce NMACs: {equipped_nmacs} vs {unequipped_nmacs} for {params:?}"
        );
        assert!(
            unequipped_nmacs >= 9,
            "zero-miss template should almost always collide"
        );
    }
}

#[test]
fn ga_smoke_search_finds_higher_fitness_than_population_start() {
    let outcome = SearchHarness::new(coarse_runner(), SearchConfig::smoke().seed(5)).run_ga();
    let gen0_best = outcome.result.generations[0].best_fitness;
    let overall_best = outcome.result.best.fitness;
    assert!(
        overall_best >= gen0_best,
        "evolution must not lose the best: {overall_best} vs {gen0_best}"
    );
    assert!(!outcome.top_scenarios.is_empty());
    // The searched scenarios must decode into the search space.
    let space = ScenarioSpace::default();
    for s in &outcome.top_scenarios {
        assert!(space.ranges().contains(&s.params), "{:?}", s.params);
    }
}

#[test]
fn analysis_clusters_search_output() {
    let outcome = SearchHarness::new(coarse_runner(), SearchConfig::smoke().seed(9)).run_ga();
    let space = ScenarioSpace::default();
    let scenarios: Vec<(Vec<f64>, f64)> = outcome
        .result
        .evaluations
        .iter()
        .map(|e| (e.genes.clone(), e.fitness))
        .collect();
    let clusters = analysis::cluster_scenarios(&space, &scenarios, 3, 0);
    assert!(!clusters.is_empty() && clusters.len() <= 3);
    let total: usize = clusters.iter().map(|c| c.size).sum();
    assert_eq!(
        total,
        scenarios.len(),
        "every scenario lands in exactly one cluster"
    );
    // Clusters are sorted by mean fitness.
    for w in clusters.windows(2) {
        assert!(w[0].mean_fitness >= w[1].mean_fitness);
    }
    let rows = analysis::class_summary(&scenarios);
    assert_eq!(rows.len(), GeometryClass::ALL.len());
    assert_eq!(rows.iter().map(|r| r.1).sum::<usize>(), scenarios.len());
}

#[test]
fn paired_runs_share_scenario_and_match_single_arm_runs() {
    // `run_pair_reusing` is the unit of paired risk-ratio estimation:
    // one scenario generation, two equipages, one seed. Each arm must be
    // bit-identical to the standalone `run_once_with` of that equipage,
    // for every configured "equipped" arm and through warm-scratch reuse.
    let base = coarse_runner();
    let params = [
        EncounterParams::head_on_template(),
        EncounterParams::tail_approach_template(),
    ];
    for equipage in [Equipage::Both, Equipage::OwnOnly] {
        let runner = base.clone().equipage(equipage);
        let mut scratch = RunScratch::new();
        for params in &params {
            for seed in 0..4 {
                let (equipped, unequipped) = runner.run_pair_reusing(params, seed, &mut scratch);
                assert_eq!(
                    equipped,
                    runner.run_once_with(params, seed, equipage),
                    "{equipage:?} arm, seed {seed}"
                );
                assert_eq!(
                    unequipped,
                    runner.run_once_with(params, seed, Equipage::Neither),
                    "unequipped arm, seed {seed}"
                );
            }
        }
    }
    // The pair differs only in equipage: on the zero-miss head-on the
    // unequipped replay collides while the equipped arm alerts, maneuvers
    // and buys separation.
    let runner = base.clone();
    let mut scratch = RunScratch::new();
    let (equipped, unequipped) =
        runner.run_pair_reusing(&EncounterParams::head_on_template(), 7, &mut scratch);
    assert!(unequipped.nmac && !unequipped.alerted());
    assert!(equipped.alerted() && !equipped.nmac);
    assert!(equipped.min_separation_ft > unequipped.min_separation_ft);
}

#[test]
fn fitness_reflects_simulation_proximity() {
    // Evaluate unequipped so the score reflects the raw geometry: with
    // avoidance active both scenarios get resolved and the comparison
    // would be dominated by sensor/disturbance noise draws.
    let runner = coarse_runner().equipage(Equipage::Neither);
    let fitness = FitnessFunction::new(runner, ScenarioSpace::default(), 6);
    // A scenario with a guaranteed large miss (R at the box edge, Y at the
    // box edge) must score below a zero-miss scenario.
    let mut far = EncounterParams::head_on_template();
    far.cpa_horizontal_ft = 500.0;
    far.cpa_vertical_ft = 100.0;
    let near = EncounterParams::head_on_template();
    let f_far = fitness.evaluate_params(&far);
    let f_near = fitness.evaluate_params(&near);
    assert!(
        f_near > f_far,
        "closer unmitigated geometry must score higher: {f_near} vs {f_far}"
    );
}
