//! Oracle for [`MultiEncounterWorld::run_paired`] at every k: flying an
//! equipped k-aircraft world and its unequipped twin as one job must give,
//! bit for bit, the outcomes and traces of two independent
//! [`MultiEncounterWorld::run`]s on the same seed — for k = 2, 4 and 8,
//! both coordination modes, coordination on and off, and default,
//! deterministic and gust-free noise.

use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::SeedableRng;
use uavca_acasx::{AcasConfig, AcasXu, LogicTable};
use uavca_encounter::{MultiEncounterModel, MultiScenarioGenerator};
use uavca_sim::{
    CollisionAvoider, DisturbanceModel, MultiEncounterWorld, MultiMode, SensorNoise, SimConfig,
    UavState, Unequipped, Vec3,
};

fn table() -> Arc<LogicTable> {
    static TABLE: OnceLock<Arc<LogicTable>> = OnceLock::new();
    TABLE
        .get_or_init(|| Arc::new(LogicTable::solve(&AcasConfig::coarse())))
        .clone()
}

fn avoiders(equipped: bool, k: usize) -> Vec<Box<dyn CollisionAvoider>> {
    (0..k)
        .map(|_| -> Box<dyn CollisionAvoider> {
            if equipped {
                Box::new(AcasXu::new(table()))
            } else {
                Box::new(Unequipped::new())
            }
        })
        .collect()
}

/// Default noise, none at all, noisy sensors without gusts (no gust
/// draws), and coordination off.
fn configs() -> [SimConfig; 4] {
    let zero_gusts = SimConfig {
        disturbance: DisturbanceModel::none(),
        sensor_noise: SensorNoise::default(),
        ..SimConfig::default()
    };
    let uncoordinated = SimConfig {
        coordination: false,
        ..SimConfig::default()
    };
    [
        SimConfig::default(),
        SimConfig::deterministic(),
        zero_gusts,
        uncoordinated,
    ]
}

const MODES: [MultiMode; 2] = [MultiMode::Pairwise, MultiMode::Coordinated];

/// `k` aircraft on a circle of radius `radius_ft`, each flying at
/// 150 ft/s toward the centre (`inward`) or away from it, with small
/// altitude offsets.
fn ring(k: usize, radius_ft: f64, inward: bool) -> Vec<UavState> {
    let sign = if inward { -1.0 } else { 1.0 };
    (0..k)
        .map(|i| {
            let th = i as f64 * std::f64::consts::TAU / k as f64;
            let (sin, cos) = th.sin_cos();
            UavState::new(
                Vec3::new(radius_ft * cos, radius_ft * sin, 4000.0 + 15.0 * i as f64),
                Vec3::new(sign * 150.0 * cos, sign * 150.0 * sin, 0.0),
            )
        })
        .collect()
}

/// Encounters of `k` aircraft sampled from the default k-aircraft model.
fn sampled(k: usize, cases: u64) -> Vec<Vec<UavState>> {
    let model = MultiEncounterModel::default();
    let strata: Vec<_> = model
        .strata()
        .into_iter()
        .filter(|s| model.densities[s.density_index] == k)
        .collect();
    assert!(!strata.is_empty(), "the default model flies k = {k}");
    (0..cases)
        .map(|case| {
            let stratum = strata[case as usize % strata.len()];
            let params = model.sample_in(stratum, &mut StdRng::seed_from_u64(case));
            MultiScenarioGenerator::default().generate(&params)
        })
        .collect()
}

/// Flies `initial` both ways and asserts bit-identity of outcomes and
/// traces, then of one more step of each world; returns the equipped
/// outcome's first alert time.
///
/// The twin starts from another geometry and seed and is dirtied by a
/// few steps, because `run_paired` must ignore its prior state.
fn check(sim: SimConfig, mode: MultiMode, initial: &[UavState], seed: u64) -> Option<f64> {
    let k = initial.len();
    let world = |equipped: bool, initial: &[UavState], seed: u64| {
        MultiEncounterWorld::new(sim, mode, initial, avoiders(equipped, k), seed)
    };
    let mut solo_equipped = world(true, initial, seed);
    let want_equipped = solo_equipped.run();
    let mut solo_unequipped = world(false, initial, seed);
    let want_unequipped = solo_unequipped.run();

    let mut paired = world(true, initial, seed);
    let mut twin = world(false, &ring(k, 30_000.0, true), seed ^ 0x5eed);
    for _ in 0..3 {
        twin.step();
    }
    paired.run_paired(&mut twin);

    let ctx = format!("k={k} {mode:?} seed={seed} sim={sim:?}");
    let same = |a: &dyn std::fmt::Debug, b: &dyn std::fmt::Debug, what: &str| {
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}: {ctx}");
    };
    same(&paired.outcome(), &want_equipped, "equipped outcome");
    same(&twin.outcome(), &want_unequipped, "unequipped outcome");
    same(paired.trace(), solo_equipped.trace(), "equipped trace");
    same(twin.trace(), solo_unequipped.trace(), "unequipped trace");
    // Both worlds end where their own runs end, RNG included.
    for (mine, solo) in [
        (&mut paired, &mut solo_equipped),
        (&mut twin, &mut solo_unequipped),
    ] {
        mine.step();
        solo.step();
        same(
            &mine.outcome(),
            &solo.outcome(),
            "one step past the horizon",
        );
    }
    want_equipped.first_alert_time_s
}

#[test]
fn sampled_encounters_match_two_solo_runs_at_every_k() {
    for k in [2, 4, 8] {
        for (case, initial) in sampled(k, 4).iter().enumerate() {
            for sim in configs() {
                for mode in MODES {
                    check(sim, mode, initial, 100 + case as u64);
                }
            }
        }
    }
}

#[test]
fn traced_runs_match_two_solo_runs_at_every_k() {
    for k in [2, 4, 8] {
        for mut sim in configs() {
            sim.record_trace = true;
            for mode in MODES {
                check(sim, mode, &sampled(k, 1)[0], 7);
            }
        }
    }
}

#[test]
fn alerts_at_step_zero_late_and_never_all_match_at_every_k() {
    for k in [2, 4, 8] {
        for sim in [SimConfig::default(), SimConfig::deterministic()] {
            for mode in MODES {
                // Already converging inside the alerting range.
                let at_once = check(sim, mode, &ring(k, 1_500.0, true), 11);
                assert_eq!(at_once, Some(0.0), "k={k}: a tight ring alerts at once");
                // A wide ring alerts only after a long shared prefix.
                let late = check(sim, mode, &ring(k, 12_000.0, true), 12);
                assert!(
                    late.is_some_and(|t| t >= 30.0),
                    "k={k}: late alert, got {late:?}"
                );
                // Diverging traffic never alerts: the twin is the equipped arm.
                assert_eq!(check(sim, mode, &ring(k, 6_000.0, false), 13), None);
            }
        }
    }
}

#[test]
fn warm_worlds_reused_across_jobs_match_solo_runs() {
    // The batch-runner pattern at k = 4: one equipped world and one twin,
    // reset and re-flown job after job.
    let sim = SimConfig::default();
    let jobs = sampled(4, 4);
    let mut world =
        MultiEncounterWorld::new(sim, MultiMode::Coordinated, &jobs[0], avoiders(true, 4), 0);
    let mut twin =
        MultiEncounterWorld::new(sim, MultiMode::Coordinated, &jobs[0], avoiders(false, 4), 0);
    for (job, initial) in jobs.iter().enumerate() {
        let seed = 200 + job as u64;
        world.reset(initial, seed);
        world.run_paired(&mut twin);
        let solo = |equipped| {
            MultiEncounterWorld::new(
                sim,
                MultiMode::Coordinated,
                initial,
                avoiders(equipped, 4),
                seed,
            )
            .run()
        };
        assert_eq!(world.outcome(), solo(true), "job {job} equipped");
        assert_eq!(twin.outcome(), solo(false), "job {job} unequipped");
    }
}
