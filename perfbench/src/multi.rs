//! `multi_density`: k-aircraft campaigns over the density strata
//! {2, 4, 8}, alternating pairwise and coordinated equipage, on the
//! coarse logic table with one executor thread. The k-aircraft path is
//! scalar only, with O(k²) per-pair monitors and a coordination board.

use std::time::Instant;

use uavca_acasx::{AcasConfig, LogicTable};
use uavca_encounter::MultiEncounterModel;
use uavca_sim::MultiMode;
use uavca_validation::{
    CampaignConfig, EncounterRunner, MultiCampaignOutcome, MultiCampaignPlanner, MultiJob,
    MultiSource,
};

use crate::common::{
    campaign_seed, digest, gaps_ms, peak_rss_mib, serial_batch, time_setups, CampaignRecord,
    CountingMultis, WorkloadRun,
};
use crate::goldens::FIXED_CAMPAIGNS;
use crate::oracle::{check_trail, Trail};
use crate::trace::{campaign_span, close_span, in_span, Tracer};
use crate::{core_layers, probes, Args};

const SETUP_REPS: usize = 5;
/// Workload jobs kept for the per-layer probes.
const PROBE_JOBS: usize = 120;
/// The density strata of the default model.
const DENSITIES: [usize; 3] = [2, 4, 8];

/// The density strata {2, 4, 8} of the default model with the focus
/// miss distances tightened, so per-pair NMACs are common enough for a
/// campaign to reach its target in tens of rounds.
pub fn enriched() -> MultiEncounterModel {
    MultiEncounterModel {
        max_miss_horizontal_ft: 1500.0,
        max_miss_vertical_ft: 300.0,
        ..MultiEncounterModel::default()
    }
}

/// Campaign `index`: even indices pairwise, odd ones coordinated.
fn campaign(runner: &EncounterRunner, seed: u64, index: usize) -> MultiCampaignPlanner {
    let config = CampaignConfig {
        seed: campaign_seed(seed, 1, index),
        pilot_per_stratum: 4,
        round_runs: 36,
        max_rounds: 40,
        target_half_width: 0.2,
        threads: 1,
    };
    let mode = if index.is_multiple_of(2) {
        MultiMode::Pairwise
    } else {
        MultiMode::Coordinated
    };
    MultiCampaignPlanner::new(runner.clone(), config)
        .model(enriched())
        .mode(mode)
}

/// Drives a campaign round by round through its public stepper (the
/// k-aircraft family has no observed entry point), each step in its own
/// span when traced; keeps up to [`PROBE_JOBS`] jobs.
fn drive_stepper<S: MultiSource>(
    planner: &MultiCampaignPlanner,
    source: &S,
    marks: &mut Vec<Instant>,
    tr: &mut Option<Tracer>,
    keep: &mut Vec<MultiJob>,
) -> MultiCampaignOutcome {
    let mut stepper = planner.stepper().expect("valid campaign config");
    while let Some(planned) = in_span(tr, "core.plan_round", || stepper.plan_round()) {
        let outcomes = in_span(tr, "core.batch.run_multis", || {
            source.run_multis(&planned.jobs)
        });
        in_span(tr, "core.complete_round", || {
            stepper.complete_round(&planned, &outcomes)
        });
        marks.push(Instant::now());
        let room = PROBE_JOBS.saturating_sub(keep.len());
        keep.extend(planned.jobs.iter().take(room).cloned());
    }
    stepper.outcome()
}

fn check_multi(outcome: &MultiCampaignOutcome, config: &CampaignConfig) -> Option<String> {
    check_trail(&Trail {
        round_runs: outcome.rounds.iter().map(|r| r.runs_this_round).collect(),
        half_widths: outcome
            .rounds
            .iter()
            .map(|r| r.risk_ratio.half_width())
            .collect(),
        total_runs: outcome.total_runs(),
        reached_target: outcome.reached_target,
        max_rounds: config.max_rounds,
        target_half_width: config.target_half_width,
        risk_ratio: &outcome.estimate.risk_ratio,
    })
}

pub fn run(args: &Args, process_start: Instant) -> Result<WorkloadRun, String> {
    let mut tr = args.trace.then(|| Tracer::new(process_start));
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (setup_s, runner) = time_setups(
        reps,
        process_start,
        || {
            let table = in_span(&mut tr, "acasx.solve", || {
                LogicTable::solve(&AcasConfig::coarse())
            });
            Ok(EncounterRunner::new(std::sync::Arc::new(table)))
        },
        |_| Ok(()),
    )?;
    let source = CountingMultis::new(serial_batch(&runner));

    let mut records = Vec::new();
    let mut fixed_rss_mib = f64::NAN;
    let mut sample = Vec::new();
    let t0 = Instant::now();
    while records.len() < FIXED_CAMPAIGNS || t0.elapsed().as_secs_f64() < args.seconds {
        let key = records.len();
        let planner = campaign(&runner, args.seed, key);
        let mut marks = Vec::new();
        let c0 = Instant::now();
        let span = campaign_span(&mut tr, key);
        let outcome = drive_stepper(&planner, &source, &mut marks, &mut tr, &mut sample);
        if let Some(id) = span {
            close_span(&mut tr, id);
        }
        let time_to_target_s = c0.elapsed().as_secs_f64();
        let (jobs, uav_steps) = source.take();
        records.push(CampaignRecord {
            key,
            kind: planner.current_mode().label(),
            time_to_target_s,
            runs: outcome.total_runs(),
            jobs,
            uav_steps,
            round_gaps_ms: gaps_ms(&marks),
            queue_wait_ms: None,
            digest: digest(&outcome),
            failure: check_multi(&outcome, &planner.current_config()),
        });
        if records.len() == FIXED_CAMPAIGNS {
            fixed_rss_mib = peak_rss_mib()?;
        }
    }
    let timed_s = t0.elapsed().as_secs_f64();

    // Replay campaign 0 through the planner's monolithic entry point.
    let mut failures = Vec::new();
    let replay = campaign(&runner, args.seed, 0)
        .run_with(&source)
        .expect("valid campaign config");
    if digest(&replay) != records[0].digest {
        failures.push("campaign 0 replayed through run_with differs".to_string());
    }
    let mut checks = 1;

    let mut layers = Vec::new();
    if let Some(tracer) = tr.as_mut() {
        checks += 1;
        let table = runner.table().clone();
        layers.push(("acasx.solve_s", tracer.total_ns("acasx.solve") * 1e-9));
        layers.push(("acasx.table_mib", table.q_bytes() as f64 / 1048576.0));
        match tracer.span("probe.lookup", || probes::record_multi(&runner, &sample)) {
            Ok(rec) => {
                let ns = tracer.span("probe.lookup", || probes::lookup_ns(&table, &rec.states));
                layers.push(("acasx.lookup_ns", ns));
                layers.push((
                    "acasx.lookups_per_uav_step",
                    rec.states.len() as f64 / rec.uav_steps.max(1) as f64,
                ));
            }
            Err(e) => failures.push(e),
        }
        let sample_ns = tracer.span("probe.sample", || probes::multi_sample_ns(&enriched()));
        layers.push(("encounter.sample_ns", sample_ns));
        let (per_k, per_step) = tracer.span("probe.multi", || {
            probes::multi_arms(&runner, &sample, &DENSITIES)
        });
        layers.push(("sim.multi_us_per_aircraft.k2", per_k[0]));
        layers.push(("sim.multi_us_per_aircraft.k4", per_k[1]));
        layers.push(("sim.multi_us_per_aircraft.k8", per_k[2]));
        layers.push(("sim.ns_per_uav_step", per_step));
        layers.extend(core_layers(tracer));
        let speedup = tracer.span("probe.pool", || {
            probes::pool_speedup(&runner, |b| {
                b.run_multis(&sample);
            })
        });
        layers.push(("exec.pool_speedup", speedup));
    }

    Ok(WorkloadRun {
        fixed_rss_mib,
        setup_s,
        records,
        timed_s,
        checks,
        failures,
        layers,
        tracer: tr,
        engine: "scalar (the k-aircraft path has no cohort engine)".to_string(),
    })
}
