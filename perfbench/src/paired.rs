//! `paired_full`: adaptive and uniform-baseline paired campaigns, one at
//! a time in-process, on the full-resolution logic table with one
//! executor thread — the paper-scale validation question.

use std::sync::Arc;
use std::time::Instant;

use uavca_acasx::{AcasConfig, LogicTable};
use uavca_encounter::{StatisticalEncounterModel, Stratification};
use uavca_validation::{
    CampaignConfig, CampaignOutcome, CampaignPlanner, EncounterRunner, PairSource, PairedJob,
};

use crate::common::{
    campaign_seed, digest, engine_label, gaps_ms, peak_rss_mib, serial_batch, time_setups,
    CampaignRecord, CountingPairs, WorkloadRun,
};
use crate::goldens::FIXED_CAMPAIGNS;
use crate::oracle::{check_trail, Trail};
use crate::trace::{campaign_span, close_span, in_span, Tracer};
use crate::{core_layers, probes, Args};

/// Set-ups per untraced run; each solves the full table (about 10 s),
/// and `setup_s` is their median.
const SETUP_REPS: usize = 2;
/// Workload jobs kept for the per-layer probes.
const PROBE_JOBS: usize = 200;

/// The conflict-enriched model of the campaign benchmarks: risk
/// concentrated in the inner CPA bands.
pub fn enriched() -> StatisticalEncounterModel {
    StatisticalEncounterModel {
        max_cpa_horizontal_ft: 2500.0,
        max_cpa_vertical_ft: 500.0,
        ..StatisticalEncounterModel::default()
    }
}

pub fn stratification() -> Stratification {
    Stratification::new(5)
}

/// Campaign `index` of the workload: even indices adaptive, odd ones
/// the uniform baseline.
fn campaign(runner: &EncounterRunner, seed: u64, index: usize) -> (CampaignPlanner, bool) {
    let config = CampaignConfig {
        seed: campaign_seed(seed, 0, index),
        pilot_per_stratum: 10,
        round_runs: 50,
        max_rounds: 80,
        target_half_width: 0.15,
        threads: 1,
    };
    let planner = CampaignPlanner::new(runner.clone(), config)
        .model(enriched())
        .stratification(stratification());
    (planner, index.is_multiple_of(2))
}

/// Drives a campaign through the monolithic observed entry points.
fn drive_observed<S: PairSource>(
    planner: &CampaignPlanner,
    adaptive: bool,
    source: &S,
    marks: &mut Vec<Instant>,
) -> CampaignOutcome {
    let observe = |_: &_| marks.push(Instant::now());
    if adaptive {
        planner.run_with_observed(source, observe)
    } else {
        planner.run_uniform_with_observed(source, observe)
    }
    .expect("valid campaign config")
}

/// Drives a campaign round by round through its public stepper, each
/// step in its own span when traced; keeps up to [`PROBE_JOBS`] jobs.
pub fn drive_stepper<S: PairSource>(
    planner: &CampaignPlanner,
    adaptive: bool,
    source: &S,
    marks: &mut Vec<Instant>,
    tr: &mut Option<Tracer>,
    keep: &mut Vec<PairedJob>,
) -> CampaignOutcome {
    let mut stepper = if adaptive {
        planner.stepper()
    } else {
        planner.uniform_stepper()
    }
    .expect("valid campaign config");
    while let Some(planned) = in_span(tr, "core.plan_round", || stepper.plan_round()) {
        let outcomes = in_span(tr, "core.batch.run_paired", || {
            source.run_pairs(&planned.jobs)
        });
        in_span(tr, "core.complete_round", || {
            stepper.complete_round(&planned, &outcomes)
        });
        marks.push(Instant::now());
        let room = PROBE_JOBS.saturating_sub(keep.len());
        keep.extend(planned.jobs.iter().take(room).copied());
    }
    stepper.outcome()
}

pub fn check_paired(outcome: &CampaignOutcome, config: &CampaignConfig) -> Option<String> {
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
                LogicTable::solve(&AcasConfig::default())
            });
            Ok(EncounterRunner::new(Arc::new(table)))
        },
        |_| Ok(()),
    )?;
    let source = CountingPairs::new(serial_batch(&runner));

    let mut records = Vec::new();
    let mut fixed_rss_mib = f64::NAN;
    let mut sample = Vec::new();
    let t0 = Instant::now();
    while records.len() < FIXED_CAMPAIGNS || t0.elapsed().as_secs_f64() < args.seconds {
        let key = records.len();
        let (planner, adaptive) = campaign(&runner, args.seed, key);
        let mut marks = Vec::new();
        let c0 = Instant::now();
        let outcome = match campaign_span(&mut tr, key) {
            None => drive_observed(&planner, adaptive, &source, &mut marks),
            Some(id) => {
                let o = drive_stepper(
                    &planner,
                    adaptive,
                    &source,
                    &mut marks,
                    &mut tr,
                    &mut sample,
                );
                close_span(&mut tr, id);
                o
            }
        };
        let time_to_target_s = c0.elapsed().as_secs_f64();
        let (jobs, uav_steps) = source.take();
        records.push(CampaignRecord {
            key,
            kind: if adaptive { "adaptive" } else { "uniform" },
            time_to_target_s,
            runs: outcome.total_runs(),
            jobs,
            uav_steps,
            round_gaps_ms: gaps_ms(&marks),
            queue_wait_ms: None,
            digest: digest(&outcome),
            failure: check_paired(&outcome, &planner.current_config()),
        });
        if records.len() == FIXED_CAMPAIGNS {
            fixed_rss_mib = peak_rss_mib()?;
        }
    }
    let timed_s = t0.elapsed().as_secs_f64();

    // Replay campaign 0 through the other driving path: the stepper and
    // the observed entry point must produce the same bytes.
    let mut failures = Vec::new();
    let (planner, adaptive) = campaign(&runner, args.seed, 0);
    let replay = if args.trace {
        drive_observed(&planner, adaptive, &source, &mut Vec::new())
    } else {
        drive_stepper(
            &planner,
            adaptive,
            &source,
            &mut Vec::new(),
            &mut None,
            &mut sample,
        )
    };
    if digest(&replay) != records[0].digest {
        failures.push("campaign 0 replayed through the other entry point differs".to_string());
    }
    let mut checks = 1;

    let mut layers = Vec::new();
    if let Some(tracer) = tr.as_mut() {
        checks += 1;
        let table = runner.table().clone();
        layers.push(("acasx.solve_s", tracer.total_ns("acasx.solve") * 1e-9));
        layers.push(("acasx.table_mib", table.q_bytes() as f64 / 1048576.0));
        let recorded = tracer.span("probe.lookup", || probes::record_paired(&runner, &sample));
        match recorded {
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
        let sample_ns = tracer.span("probe.sample", || {
            probes::paired_sample_ns(&enriched(), &stratification())
        });
        layers.push(("encounter.sample_ns", sample_ns));
        let (eq, un, per_step) =
            tracer.span("probe.arms", || probes::paired_arms(&runner, &sample));
        layers.push(("sim.arm_us.equipped", eq));
        layers.push(("sim.arm_us.unequipped", un));
        layers.push(("sim.ns_per_uav_step", per_step));
        layers.extend(core_layers(tracer));
        let speedup = tracer.span("probe.pool", || {
            probes::pool_speedup(&runner, |b| {
                b.run_paired(&sample);
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
        engine: engine_label(source.batch.current_engine()),
    })
}
