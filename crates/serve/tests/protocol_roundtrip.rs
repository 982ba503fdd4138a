//! Property-based round trips of **every** wire-protocol message,
//! through the same line framing the sockets use.
//!
//! The oracle is the serialized fixed-point: for a message `m`,
//! `encode(decode(encode(m))) == encode(m)` byte for byte. Comparing
//! serialized forms (rather than values) is deliberate — the undefined
//! statistics markers are `NaN` in memory, where `PartialEq` cannot see
//! that a round trip preserved them, but their serialized form (`null`)
//! is exact. The generated messages are biased to include the PR-4
//! undefined-estimate cases: event-free arms (NaN rates, infinite
//! `ci_high`/`se_log`), infinite half-widths, and the `INFINITY`
//! no-early-stop sentinel in `CampaignConfig`. Every encoded line is
//! also checked to be *strict* JSON — no bare `NaN`/`Infinity` literal
//! may reach the wire.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use serde::{Deserialize, Serialize};
use uavca_acasx::{AcasConfig, LogicTable};
use uavca_encounter::{EncounterParams, MultiEncounterModel, Stratification};
use uavca_serve::{
    encode, read_frame, write_frame, CampaignId, CampaignRequest, CampaignResult, CampaignSpec,
    CampaignState, CampaignStatus, Checkpoint, Event, IndexedMultiJob, IndexedPairedJob,
    IndexedSplitJob, Request, RoundEvent, ShardEvent, ShardRequest, SplitCampaignRequest,
    TcpTransport, Transport,
};
use uavca_sim::{EncounterOutcome, MultiEncounterOutcome, MultiMode, PairOutcome};
use uavca_validation::{
    jackknife_ratio, paired_covariance, CampaignCheckpoint, CampaignConfig, CampaignConfigError,
    CampaignOutcome, EncounterRunner, MultiJob, MultiPairedOutcome, PairTable, PairedJob,
    PairedOutcome, RateEstimate, RatioEstimate, RoundSummary, SplitConfig, SplitJob, SplitOutcome,
    SplitPlanner, SplitSource, StratifiedEstimate, StratumEstimate, StratumTally, WeightedRate,
};

fn runner() -> EncounterRunner {
    static TABLE: OnceLock<Arc<LogicTable>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Arc::new(LogicTable::solve(&AcasConfig::coarse())));
    EncounterRunner::new(table.clone())
}

/// No bare extended float literal may cross the wire: strict-JSON
/// consumers on the other end would reject the whole line.
fn assert_strict_json(line: &str) {
    assert!(!line.contains("NaN"), "bare NaN in wire line: {line}");
    assert!(
        !line.contains("Infinity"),
        "bare Infinity in wire line: {line}"
    );
}

/// The round-trip oracle: through the byte-stream framing and back,
/// the serialized form is a fixed point.
fn roundtrip<T: Serialize + Deserialize>(msg: &T) {
    let line = encode(msg);
    assert_strict_json(&line);
    let mut buf = Vec::new();
    write_frame(&mut buf, msg).expect("in-memory framing");
    let mut reader = buf.as_slice();
    let back: T = read_frame(&mut reader)
        .expect("framed message reads back")
        .expect("stream did not end early");
    assert_eq!(
        encode(&back),
        line,
        "serialized form must be a round-trip fixed point"
    );
}

/// Encounter parameters from six draws (the remaining three fields
/// reuse draws — coverage of the *protocol* does not need nine degrees
/// of freedom).
fn params(d: (f64, f64, f64, f64, f64, f64)) -> EncounterParams {
    EncounterParams {
        own_ground_speed_kt: 40.0 + d.0,
        own_vertical_speed_fpm: d.1,
        time_to_cpa_s: 10.0 + d.2,
        cpa_horizontal_ft: d.3,
        cpa_angle_rad: d.4,
        cpa_vertical_ft: d.5,
        intruder_ground_speed_kt: 40.0 + d.1,
        intruder_bearing_rad: d.4 * 0.5,
        intruder_vertical_speed_fpm: d.2,
    }
}

fn outcome(d: (f64, f64, f64, usize, usize, u64)) -> EncounterOutcome {
    let nmac = d.3.is_multiple_of(2);
    EncounterOutcome {
        nmac,
        first_nmac_time_s: if nmac { Some(d.0) } else { None },
        min_separation_ft: d.1,
        min_horizontal_ft: d.1 * 0.9,
        min_vertical_ft: d.2,
        time_of_min_s: d.0,
        own_alert_steps: d.3,
        intruder_alert_steps: d.4,
        first_alert_time_s: if d.4.is_multiple_of(3) {
            None
        } else {
            Some(d.2)
        },
        own_reversals: d.4 % 3,
        duration_s: 60.0 + d.0,
    }
}

/// A stratified estimate built from drawn per-stratum 2×2 cells through
/// the real estimator stack, so every statistical field (including the
/// undefined ones on event-free draws) is a value the campaign can
/// actually emit.
fn estimate(cells: &[(usize, usize, usize, usize)]) -> StratifiedEstimate {
    let strata = Stratification::default().strata();
    let tables: Vec<PairTable> = strata
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let (b, e, u, n) = cells[i % cells.len()];
            PairTable {
                both_nmac: b,
                equipped_only: e,
                unequipped_only: u,
                neither: n,
            }
        })
        .collect();
    let weights: Vec<f64> = vec![1.0 / strata.len() as f64; strata.len()];
    let combine = |pick: &dyn Fn(&PairTable) -> usize| {
        WeightedRate::combine(
            &weights
                .iter()
                .zip(&tables)
                .map(|(&w, t)| (w, pick(t), t.runs()))
                .collect::<Vec<_>>(),
        )
    };
    let equipped = combine(&|t| t.equipped_nmac());
    let unequipped = combine(&|t| t.unequipped_nmac());
    let covariance = paired_covariance(&weights, &tables);
    StratifiedEstimate {
        strata: strata
            .iter()
            .zip(&weights)
            .zip(&tables)
            .map(|((&stratum, &weight), &pairs)| StratumEstimate {
                stratum,
                weight,
                runs: pairs.runs(),
                pairs,
                equipped_nmac: RateEstimate::wilson(pairs.equipped_nmac(), pairs.runs()),
                unequipped_nmac: RateEstimate::wilson(pairs.unequipped_nmac(), pairs.runs()),
                disagreement: RateEstimate::wilson(pairs.disagree(), pairs.runs()),
                alert: RateEstimate::wilson(pairs.both_nmac, pairs.runs()),
                false_alert: RateEstimate::wilson(pairs.equipped_only, pairs.runs()),
            })
            .collect(),
        total_runs: tables.iter().map(PairTable::runs).sum(),
        equipped_nmac: equipped,
        unequipped_nmac: unequipped,
        disagreement: combine(&|t| t.disagree()),
        alert: combine(&|t| t.both_nmac),
        false_alert: combine(&|t| t.equipped_only),
        covariance,
        risk_ratio: RatioEstimate::paired(&equipped, &unequipped, covariance),
        risk_ratio_unpaired: RatioEstimate::from_rates(&equipped, &unequipped),
        risk_ratio_jackknife: jackknife_ratio(&weights, &tables),
    }
}

fn round_summary(est: &StratifiedEstimate, round: usize) -> RoundSummary {
    RoundSummary {
        round,
        allocated: est.strata.iter().map(|s| s.runs).collect(),
        runs_this_round: est.total_runs,
        total_runs: est.total_runs,
        equipped_nmac: est.equipped_nmac,
        unequipped_nmac: est.unequipped_nmac,
        risk_ratio: est.risk_ratio,
        risk_ratio_unpaired: est.risk_ratio_unpaired,
    }
}

/// Deterministic fake splitting outcomes: pure hashes of the root seed
/// with ladder-consistent stage vectors, so real steppers can emit
/// checkpoint/round/result values for the wire without simulation cost.
struct RiggedSplits;

impl SplitSource for RiggedSplits {
    fn run_splits(&self, jobs: &[SplitJob]) -> Vec<SplitOutcome> {
        jobs.iter()
            .map(|j| {
                let h = j.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let stages = j.levels.len() + 1;
                SplitOutcome {
                    weight: (h % 5) as f64 / 8.0,
                    level_trials: (0..stages).map(|s| 1 + (h >> s) % 7).collect(),
                    level_crossings: (0..stages)
                        .map(|s| ((h >> (s + 3)) % 3).min(1 + (h >> s) % 7))
                        .collect(),
                    equipped_steps: h % 1000,
                    unequipped_steps: h % 800,
                    unequipped: outcome((
                        (h % 60) as f64,
                        (h % 5000) as f64,
                        (h % 900) as f64,
                        (h % 5) as usize,
                        (h % 4) as usize,
                        h % 97,
                    )),
                }
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn job_batch_requests_round_trip(
        draw in (
            (0.0f64..500.0, -2000.0f64..2000.0, 0.0f64..60.0,
             0.0f64..20_000.0, -3.1f64..3.1, -800.0f64..800.0),
            0u64..u64::MAX,
            0usize..64,
        )
    ) {
        let (p, seed, k) = draw;
        let paired_jobs: Vec<PairedJob> = (0..k % 5)
            .map(|i| PairedJob { params: params(p), seed: seed.wrapping_add(i as u64) })
            .collect();
        roundtrip(&Request::Shutdown);

        // The shard-level framing of paired jobs.
        roundtrip(&ShardRequest::RunPaired {
            batch: seed,
            jobs: paired_jobs
                .iter()
                .enumerate()
                .map(|(index, &job)| IndexedPairedJob { index, job })
                .collect(),
        });
        roundtrip(&ShardRequest::Shutdown);
    }

    /// The k-aircraft shard dialect: [`ShardRequest::RunMultis`] with
    /// real sampled per-aircraft parameter vectors, and the chunked
    /// [`ShardEvent::MultiChunk`] flush with per-pair records that
    /// exercise the `Option` time fields (`None` serializes as `null`).
    #[test]
    fn multi_batch_messages_round_trip(
        draw in (0u64..u64::MAX, 0usize..5, 0usize..6)
    ) {
        let (seed, count, stratum_shift) = draw;
        let model = MultiEncounterModel::default();
        let strata = model.strata();
        let jobs: Vec<MultiJob> = (0..count)
            .map(|i| {
                let stratum = strata[(i + stratum_shift) % strata.len()];
                let base = seed.wrapping_add(i as u64);
                MultiJob {
                    params: model.sample_in(stratum, &mut StdRng::seed_from_u64(base)),
                    seed: base,
                    mode: if (i + stratum_shift) % 2 == 0 {
                        MultiMode::Pairwise
                    } else {
                        MultiMode::Coordinated
                    },
                }
            })
            .collect();
        roundtrip(&ShardRequest::RunMultis {
            batch: seed,
            jobs: jobs
                .iter()
                .enumerate()
                .map(|(index, job)| IndexedMultiJob { index, job: job.clone() })
                .collect(),
        });

        // Rigged outcomes shaped by the jobs themselves, biased to cover
        // NMAC/no-NMAC pairs and present/absent alert times.
        let rig = |job: &MultiJob, salt: u64| -> MultiEncounterOutcome {
            let k = job.params.num_aircraft();
            let h = job.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
            let mut pair_records = Vec::new();
            for a in 0..k {
                for b in (a + 1)..k {
                    let nmac = (h >> (a + b)).is_multiple_of(3);
                    pair_records.push(PairOutcome {
                        a,
                        b,
                        nmac,
                        first_nmac_time_s: nmac.then_some((h % 60) as f64),
                        min_separation_ft: (h % 5000) as f64,
                        min_horizontal_ft: (h % 4000) as f64,
                        min_vertical_ft: (h % 900) as f64,
                        time_of_min_s: (h % 120) as f64,
                    });
                }
            }
            MultiEncounterOutcome {
                pairs: pair_records,
                alert_steps: (0..k).map(|i| (h >> i) as usize % 40).collect(),
                reversals: (0..k).map(|i| (h >> i) as usize % 3).collect(),
                first_alert_time_s: h.is_multiple_of(2).then_some((h % 30) as f64),
                duration_s: 60.0 + (h % 60) as f64,
            }
        };
        roundtrip(&ShardEvent::MultiChunk {
            batch: seed,
            indices: (0..jobs.len()).map(|i| i * 3 + 1).collect(),
            outcomes: jobs
                .iter()
                .map(|job| MultiPairedOutcome {
                    equipped: rig(job, 1),
                    unequipped: rig(job, 2),
                })
                .collect(),
        });
    }

    #[test]
    fn campaign_requests_round_trip_including_the_no_early_stop_sentinel(
        draw in (0u64..u64::MAX, 1usize..200, 1usize..2000, 1usize..50, 0.0f64..1.0, 0usize..4)
    ) {
        let (seed, pilot, round_runs, rounds, target, bins) = draw;
        // Finite target and the documented INFINITY sentinel both cross
        // the wire; the sentinel must become `null`, not `Infinity`.
        for target in [target + 1e-6, f64::INFINITY] {
            let request = CampaignRequest {
                config: CampaignConfig {
                    seed,
                    pilot_per_stratum: pilot,
                    round_runs,
                    max_rounds: rounds,
                    target_half_width: target,
                    threads: bins,
                },
                model: Default::default(),
                cpa_bins: bins + 1,
                uniform: seed % 2 == 0,
            };
            let create = Request::Create {
                spec: Box::new(CampaignSpec::Paired { request }),
                checkpoint: None,
            };
            let line = encode(&create);
            if target.is_infinite() {
                prop_assert!(line.contains("\"target_half_width\":null"), "{line}");
            }
            roundtrip(&create);
        }
    }

    #[test]
    fn outcome_events_round_trip(
        draw in (
            (0.0f64..120.0, 0.0f64..5000.0, 0.0f64..2000.0, 0usize..7, 0usize..9, 0u64..1000),
            0usize..6,
        )
    ) {
        let (d, k) = draw;
        let outcomes: Vec<EncounterOutcome> = (0..k)
            .map(|i| outcome((d.0, d.1, d.2, d.3 + i, d.4, d.5)))
            .collect();
        let paired: Vec<PairedOutcome> = outcomes
            .iter()
            .map(|&equipped| PairedOutcome {
                equipped,
                unequipped: outcome((d.0, d.1 * 0.5, d.2, d.3 + 1, d.4, d.5)),
            })
            .collect();
        roundtrip(&Event::Error { message: "shard fleet \"lost\"\nentirely".to_string() });
        roundtrip(&Event::ShutdownAck);
        if let Some(&first) = paired.first() {
            // A single-job chunk, as a shard delivering one result at a
            // time sends it.
            roundtrip(&ShardEvent::PairedChunk { batch: d.5, indices: vec![k], outcomes: vec![first] });
        }
        // The per-chunk flush, non-contiguous indices included
        // (round-robin partitioning strides a shard's slice).
        roundtrip(&ShardEvent::PairedChunk {
            batch: d.5,
            indices: (0..k).map(|i| i * 2).collect(),
            outcomes: paired.clone(),
        });
    }

    #[test]
    fn campaign_events_round_trip_with_undefined_estimates(
        draw in ((0usize..3, 0usize..3, 0usize..3, 0usize..40), 0usize..20)
    ) {
        let (cell, round) = draw;
        // A healthy table, the drawn table, and the all-zero table that
        // forces every undefined marker (NaN rates, [0, ∞) ratio CIs,
        // infinite se_log) through the wire.
        for cells in [[(3, 1, 4, 40)], [cell], [(0, 0, 0, 0)]] {
            let est = estimate(&cells);
            let summary = round_summary(&est, round);
            let id = CampaignId(round as u64);
            let event = Event::CampaignRound {
                id,
                round: RoundEvent::Paired { summary: summary.clone() },
            };
            let line = encode(&event);
            if cells[0] == (0, 0, 0, 0) {
                prop_assert!(line.contains("null"), "undefined markers must be null: {line}");
            }
            roundtrip(&event);
            roundtrip(&Event::CampaignFinished {
                id,
                result: CampaignResult::Paired {
                    outcome: CampaignOutcome {
                        estimate: est,
                        rounds: vec![summary],
                        reached_target: round % 2 == 0,
                    },
                },
            });
        }
    }

    /// `Create` rejects a degenerate configuration with an
    /// [`Event::Error`] carrying the validation error's rendering.
    #[test]
    fn rejection_events_round_trip(draw in 0usize..4) {
        let error = [
            CampaignConfigError::ZeroPilotBudget,
            CampaignConfigError::ZeroRoundRuns,
            CampaignConfigError::ZeroRounds,
            CampaignConfigError::NonPositiveTargetHalfWidth,
        ][draw];
        roundtrip(&Event::Error { message: error.to_string() });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every lifecycle message of the control-plane API round-trips
    /// through the framing: campaign-addressed requests, checkpoints of
    /// both families (the splitting ones emitted by a *real* stepper,
    /// kill point included), tagged round/terminal events, and statuses
    /// in every lifecycle state.
    #[test]
    fn lifecycle_messages_round_trip(
        draw in (
            0u64..u64::MAX,
            (1usize..3, 4usize..16, 1usize..3),
            0usize..4,
            (0usize..3, 0usize..3, 0usize..3, 0usize..40),
            0usize..5,
        )
    ) {
        let (seed, (pilot, round_roots, max_rounds), kill, cell, state_ix) = draw;
        let id = CampaignId(seed);

        roundtrip(&Request::Status { id });
        roundtrip(&Request::Stream { id });
        roundtrip(&Request::Pause { id });
        roundtrip(&Request::Resume { id });
        roundtrip(&Request::Cancel { id });

        // Splitting roots through the shard-level framing, and the
        // chunked flush of their outcomes — non-contiguous indices, as
        // round-robin partitioning strides a shard's slice.
        let jobs: Vec<SplitJob> = (0..kill)
            .map(|i| SplitJob {
                params: params((100.0, 0.0, 30.0, 500.0, 1.0, 100.0)),
                seed: seed.wrapping_add(i as u64),
                levels: vec![2000.0, 900.0],
                branches: vec![2, 3],
            })
            .collect();
        roundtrip(&ShardRequest::RunSplits {
            batch: seed,
            jobs: jobs
                .iter()
                .enumerate()
                .map(|(index, job)| IndexedSplitJob { index, job: job.clone() })
                .collect(),
        });
        roundtrip(&ShardEvent::SplitChunk {
            batch: seed,
            indices: (0..jobs.len()).map(|i| i * 3 + 2).collect(),
            outcomes: RiggedSplits.run_splits(&jobs),
        });

        // A paired checkpoint from the drawn cells through the real
        // estimator stack — all-zero draws push the NaN/∞ markers
        // (serialized `null`) through every nested field.
        let est = estimate(&[cell]);
        let summary = round_summary(&est, kill);
        let paired_request = CampaignRequest {
            config: CampaignConfig {
                seed,
                pilot_per_stratum: pilot,
                round_runs: round_roots,
                max_rounds,
                target_half_width: f64::INFINITY,
                threads: 1,
            },
            model: Default::default(),
            cpa_bins: 2,
            uniform: seed % 2 == 0,
        };
        let paired_ckpt = Checkpoint::Paired {
            checkpoint: CampaignCheckpoint {
                next_round: kill,
                adaptive: seed % 2 != 0,
                tallies: (0..2)
                    .map(|_| StratumTally {
                        pairs: PairTable {
                            both_nmac: cell.0,
                            equipped_only: cell.1,
                            unequipped_only: cell.2,
                            neither: cell.3,
                        },
                        alerts: cell.0 + cell.1,
                        false_alerts: cell.1,
                    })
                    .collect(),
                rounds: vec![summary.clone()],
                reached_target: kill % 2 == 0,
            },
        };
        roundtrip(&Request::Create {
            spec: Box::new(CampaignSpec::Paired { request: paired_request }),
            checkpoint: Some(paired_ckpt.clone()),
        });
        roundtrip(&Event::CampaignRound {
            id,
            round: RoundEvent::Paired { summary: summary.clone() },
        });
        roundtrip(&Event::CampaignFinished {
            id,
            result: CampaignResult::Paired {
                outcome: CampaignOutcome {
                    estimate: est,
                    rounds: vec![summary],
                    reached_target: false,
                },
            },
        });

        // Splitting checkpoint/rounds/result emitted by a real stepper
        // over rigged outcomes, checkpointed at the drawn kill point.
        let split_request = SplitCampaignRequest {
            config: SplitConfig {
                seed,
                levels: 2,
                max_branch: 3,
                pilot_roots_per_stratum: pilot,
                round_roots,
                max_rounds,
                target_half_width: f64::INFINITY,
                threads: 1,
            },
            model: Default::default(),
            cpa_bins: 2,
        };
        let planner = SplitPlanner::new(runner(), split_request.config)
            .stratification(Stratification::new(2));
        let mut stepper = planner.stepper().expect("valid config");
        for _ in 0..kill {
            let Some(planned) = stepper.plan_round() else { break };
            let outcomes = RiggedSplits.run_splits(&planned.jobs);
            stepper.complete_round(&planned, &outcomes);
        }
        let split_ckpt = Checkpoint::Splitting { checkpoint: stepper.checkpoint() };
        roundtrip(&Request::Create {
            spec: Box::new(CampaignSpec::Splitting { request: split_request }),
            checkpoint: Some(split_ckpt.clone()),
        });
        while let Some(planned) = stepper.plan_round() {
            let outcomes = RiggedSplits.run_splits(&planned.jobs);
            let summary = stepper.complete_round(&planned, &outcomes);
            roundtrip(&Event::CampaignRound {
                id,
                round: RoundEvent::Splitting { summary },
            });
        }
        roundtrip(&Event::CampaignFinished {
            id,
            result: CampaignResult::Splitting { outcome: stepper.outcome() },
        });

        let state = [
            CampaignState::Running,
            CampaignState::Paused,
            CampaignState::Failed,
            CampaignState::Finished,
            CampaignState::Cancelled,
        ][state_ix];
        roundtrip(&Event::CampaignStatus {
            status: CampaignStatus {
                id,
                state,
                rounds_completed: kill,
                jobs_done: round_roots * max_rounds,
                restarts: state_ix,
                last_error: (state_ix % 2 == 0)
                    .then(|| String::from("every shard was lost with 3 jobs outstanding")),
                checkpoint: split_ckpt,
            },
        });
        roundtrip(&Event::CampaignCreated { id });
        roundtrip(&Event::CampaignPaused { id });
        roundtrip(&Event::CampaignResumed { id });
        roundtrip(&Event::CampaignFailed {
            id,
            message: "fleet \"lost\"\nmid-round".to_string(),
        });
        roundtrip(&Event::CampaignCancelled { id, checkpoint: paired_ckpt });
    }
}

/// The same fixed-point oracle through a real TCP socket: what the
/// framing writes, a socket peer reads back byte-identically.
#[test]
fn every_message_kind_survives_a_real_socket() {
    let est = estimate(&[(2, 1, 3, 30), (0, 0, 0, 0)]);
    // A splitting campaign checkpointed after its pilot round — real
    // stepper state for the lifecycle messages below.
    let split_request = SplitCampaignRequest {
        config: SplitConfig {
            seed: 17,
            levels: 2,
            max_branch: 3,
            pilot_roots_per_stratum: 2,
            round_roots: 6,
            max_rounds: 1,
            target_half_width: f64::INFINITY,
            threads: 1,
        },
        model: Default::default(),
        cpa_bins: 2,
    };
    let mut stepper = SplitPlanner::new(runner(), split_request.config)
        .stratification(Stratification::new(2))
        .stepper()
        .expect("valid config");
    let planned = stepper.plan_round().expect("pilot round plans");
    let outcomes = RiggedSplits.run_splits(&planned.jobs);
    let split_summary = stepper.complete_round(&planned, &outcomes);
    let split_ckpt = Checkpoint::Splitting {
        checkpoint: stepper.checkpoint(),
    };
    let lines: Vec<String> = vec![
        encode(&ShardRequest::RunPaired {
            batch: 6,
            jobs: vec![IndexedPairedJob {
                index: 0,
                job: PairedJob {
                    params: params((100.0, 0.0, 30.0, 500.0, 1.0, 100.0)),
                    seed: u64::MAX,
                },
            }],
        }),
        encode(&Request::Create {
            spec: Box::new(CampaignSpec::Paired {
                request: CampaignRequest {
                    config: CampaignConfig {
                        target_half_width: f64::INFINITY,
                        ..CampaignConfig::default()
                    },
                    model: Default::default(),
                    cpa_bins: 3,
                    uniform: false,
                },
            }),
            checkpoint: None,
        }),
        encode(&Event::CampaignRound {
            id: CampaignId(2),
            round: RoundEvent::Paired {
                summary: round_summary(&est, 0),
            },
        }),
        encode(&Event::CampaignFinished {
            id: CampaignId(2),
            result: CampaignResult::Paired {
                outcome: CampaignOutcome {
                    estimate: est,
                    rounds: Vec::new(),
                    reached_target: false,
                },
            },
        }),
        encode(&Event::Error {
            message: CampaignConfigError::ZeroRounds.to_string(),
        }),
        encode(&ShardRequest::Shutdown),
        encode(&ShardEvent::PairedChunk {
            batch: 7,
            indices: vec![0],
            outcomes: vec![PairedOutcome {
                equipped: outcome((1.0, 2.0, 3.0, 4, 5, 6)),
                unequipped: outcome((0.5, 0.0, 9.0, 1, 0, 2)),
            }],
        }),
        encode(&ShardEvent::PairedChunk {
            batch: 8,
            indices: vec![1, 4, 7],
            outcomes: vec![
                PairedOutcome {
                    equipped: outcome((1.0, 2.0, 3.0, 4, 5, 6)),
                    unequipped: outcome((0.5, 0.0, 9.0, 1, 0, 2)),
                },
                PairedOutcome {
                    equipped: outcome((0.5, 0.0, 9.0, 1, 0, 2)),
                    unequipped: outcome((7.0, 1.5, 0.25, 0, 3, 1)),
                },
                PairedOutcome {
                    equipped: outcome((7.0, 1.5, 0.25, 0, 3, 1)),
                    unequipped: outcome((1.0, 2.0, 3.0, 4, 5, 6)),
                },
            ],
        }),
        // The control-plane lifecycle dialect.
        encode(&Request::Create {
            spec: Box::new(CampaignSpec::Splitting {
                request: split_request,
            }),
            checkpoint: Some(split_ckpt.clone()),
        }),
        encode(&Request::Stream { id: CampaignId(3) }),
        encode(&Request::Cancel { id: CampaignId(3) }),
        encode(&Event::CampaignCreated { id: CampaignId(3) }),
        encode(&Event::CampaignRound {
            id: CampaignId(3),
            round: RoundEvent::Splitting {
                summary: split_summary,
            },
        }),
        encode(&Event::CampaignCancelled {
            id: CampaignId(3),
            checkpoint: split_ckpt,
        }),
        encode(&Event::CampaignStatus {
            status: CampaignStatus {
                id: CampaignId(3),
                state: CampaignState::Paused,
                rounds_completed: 1,
                jobs_done: 4,
                restarts: 1,
                last_error: Some(String::from("every shard was lost with 4 jobs outstanding")),
                checkpoint: Checkpoint::Paired {
                    checkpoint: CampaignCheckpoint {
                        next_round: 0,
                        adaptive: true,
                        tallies: Vec::new(),
                        rounds: Vec::new(),
                        reached_target: false,
                    },
                },
            },
        }),
    ];

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let sent = lines.clone();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut t = TcpTransport::from_stream(stream).unwrap();
        for line in &sent {
            t.send(line).unwrap();
        }
    });
    let mut client = TcpTransport::connect(addr).unwrap();
    for expected in &lines {
        assert_strict_json(expected);
        let got = client.recv().unwrap().expect("line arrives");
        assert_eq!(&got, expected, "socket framing is byte-transparent");
    }
    assert_eq!(
        client.recv().unwrap(),
        None,
        "clean close after the last line"
    );
    server.join().unwrap();
}
