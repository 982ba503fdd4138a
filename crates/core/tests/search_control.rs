//! A positive control for the search instrument: the GA must find the
//! hazard when there is one to find.
//!
//! With neither aircraft equipped, head-on and crossing geometries fly
//! straight into each other, so the proximity objective has easy peaks.
//! With both aircraft equipped, the logic resolves them and the same
//! search finds only near misses. A search that scored the two the same
//! would be measuring its own noise, not the avoider.

use std::sync::{Arc, OnceLock};

use uavca_acasx::{AcasConfig, LogicTable};
use uavca_validation::{EncounterRunner, Equipage, SearchConfig, SearchHarness};

/// The seeds, fixed in advance. At smoke scale the GA's best fitness
/// against `Neither` read 226–787 on these seeds, against `Both` 26–45.
const SEEDS: [u64; 5] = [0, 1, 2, 3, 4];

/// The fitness that separates an unresolved encounter from a resolved
/// one.
const HAZARD: f64 = 100.0;

fn runner(equipage: Equipage) -> EncounterRunner {
    static TABLE: OnceLock<Arc<LogicTable>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Arc::new(LogicTable::solve(&AcasConfig::coarse())));
    EncounterRunner::new(table.clone()).equipage(equipage)
}

fn best_fitness(equipage: Equipage, seed: u64) -> f64 {
    let config = SearchConfig::smoke().seed(seed);
    SearchHarness::new(runner(equipage), config)
        .run_ga()
        .result
        .best
        .fitness
}

#[test]
fn ga_finds_the_hazard_of_unequipped_aircraft_on_every_seed() {
    for seed in SEEDS {
        let best = best_fitness(Equipage::Neither, seed);
        assert!(
            best >= HAZARD,
            "seed {seed}: best fitness {best} < {HAZARD}"
        );
    }
}

#[test]
fn ga_finds_no_hazard_when_both_aircraft_are_equipped() {
    for seed in SEEDS {
        let best = best_fitness(Equipage::Both, seed);
        assert!(
            best < HAZARD,
            "seed {seed}: best fitness {best} >= {HAZARD}"
        );
    }
}
