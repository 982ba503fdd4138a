//! Engine determinism: every batch-evaluated result must be bit-identical
//! for any worker-thread count. This is the contract that lets the
//! validation campaigns scale across cores without losing replayability.

use std::sync::{Arc, OnceLock};

use uavca_acasx::{AcasConfig, LogicTable};
use uavca_exec::Executor;
use uavca_validation::{
    BatchRunner, EncounterRunner, Equipage, SearchConfig, SearchHarness, SimJob,
};

fn runner() -> EncounterRunner {
    static TABLE: OnceLock<Arc<LogicTable>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Arc::new(LogicTable::solve(&AcasConfig::coarse())));
    EncounterRunner::new(table.clone())
}

#[test]
fn ga_search_outcome_is_identical_across_thread_counts() {
    let smoke = SearchConfig::smoke();
    let reference = SearchHarness::new(runner(), smoke.threads(1)).run_ga();
    for threads in [4, 0] {
        let outcome = SearchHarness::new(runner(), smoke.threads(threads)).run_ga();
        assert_eq!(
            outcome.result.best, reference.result.best,
            "threads = {threads}"
        );
        assert_eq!(
            outcome.result.evaluations, reference.result.evaluations,
            "threads = {threads}"
        );
        assert_eq!(
            outcome.top_scenarios, reference.top_scenarios,
            "threads = {threads}"
        );
    }
}

#[test]
fn random_search_is_identical_across_thread_counts() {
    let smoke = SearchConfig::smoke();
    let reference = SearchHarness::new(runner(), smoke.threads(1)).run_random_search();
    let parallel = SearchHarness::new(runner(), smoke.threads(4)).run_random_search();
    assert_eq!(parallel.best, reference.best);
    assert_eq!(parallel.evaluations, reference.evaluations);
}

#[test]
fn batch_runner_matches_serial_run_once_seed_for_seed() {
    let r = runner();
    let params = uavca_encounter::EncounterParams::tail_approach_template();
    let jobs: Vec<SimJob> = (0..20)
        .map(|k| SimJob {
            params,
            seed: 1000 + k,
            equipage: if k % 2 == 0 {
                Equipage::Both
            } else {
                Equipage::Neither
            },
        })
        .collect();
    let batched = BatchRunner::new(r.clone(), Executor::new(0)).run_batch(&jobs);
    let serial: Vec<_> = jobs
        .iter()
        .map(|j| r.run_once_with(&j.params, j.seed, j.equipage))
        .collect();
    assert_eq!(batched, serial);
}

#[test]
fn warm_scratch_reuse_cannot_leak_state_between_jobs() {
    // Alternate a hard (alerting, maneuvering) and an easy (far-apart)
    // scenario through the same batch: any advisory/tracker state leaking
    // across a reset would desynchronize against the cold-start reference.
    let r = runner();
    let hard = uavca_encounter::EncounterParams::tail_approach_template();
    let mut easy = uavca_encounter::EncounterParams::head_on_template();
    easy.cpa_horizontal_ft = 500.0;
    easy.cpa_vertical_ft = 100.0;
    let jobs: Vec<SimJob> = (0..16)
        .map(|k| SimJob {
            params: if k % 2 == 0 { hard } else { easy },
            seed: k,
            equipage: Equipage::Both,
        })
        .collect();
    // Serial executor: one scratch serves every job in sequence.
    let reused = BatchRunner::serial(r.clone()).run_batch(&jobs);
    for (job, out) in jobs.iter().zip(&reused) {
        let mut cold = uavca_validation::RunScratch::new();
        let fresh = r.run_once_reusing(&job.params, job.seed, job.equipage, &mut cold);
        assert_eq!(*out, fresh, "seed {}", job.seed);
    }
}
