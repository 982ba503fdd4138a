//! Identity of a cohort — one batch of mixed jobs flown through
//! [`BatchRunner`] — with the single-run oracle
//! [`EncounterRunner::run_once_with`], for configurations that take
//! a special path inside the simulator.

use std::sync::{Arc, OnceLock};

use uavca_acasx::{AcasConfig, LogicTable};
use uavca_encounter::EncounterParams;
use uavca_exec::Executor;
use uavca_validation::{BatchRunner, EncounterRunner, Equipage, SimEngine, SimJob};

fn runner() -> EncounterRunner {
    static TABLE: OnceLock<Arc<LogicTable>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Arc::new(LogicTable::solve(&AcasConfig::coarse())));
    EncounterRunner::new(table.clone())
}

fn mixed_jobs(count: usize) -> Vec<SimJob> {
    let templates = [
        EncounterParams::head_on_template(),
        EncounterParams::tail_approach_template(),
    ];
    [Equipage::Both, Equipage::Neither, Equipage::OwnOnly]
        .into_iter()
        .cycle()
        .take(count)
        .enumerate()
        .map(|(k, equipage)| SimJob {
            params: templates[k % templates.len()],
            seed: 300 + k as u64,
            equipage,
        })
        .collect()
}

/// Trace recording runs on the scalar per-encounter path: the batch
/// keeps job order and every outcome equals the single-run oracle.
#[test]
fn trace_recording_configs_fall_back_to_scalar() {
    let sim = uavca_sim::SimConfig {
        record_trace: true,
        ..Default::default()
    };
    let r = runner().sim_config(sim);
    let jobs = mixed_jobs(4);
    for threads in [1, 2] {
        let br = BatchRunner::new(r.clone(), Executor::new(threads));
        assert_eq!(br.current_engine(), SimEngine::Scalar);
        let batch = br.run_batch(&jobs);
        assert_eq!(batch.len(), jobs.len());
        for (job, out) in jobs.iter().zip(&batch) {
            assert_eq!(*out, r.run_once_with(&job.params, job.seed, job.equipage));
        }
    }
}
