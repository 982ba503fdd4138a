//! Oracle for [`EncounterWorld::run_paired`]: flying an equipped world and
//! its unequipped twin as one job must give, bit for bit, the outcomes and
//! traces of two independent [`EncounterWorld::run`]s on the same seed.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use uavca_acasx::{AcasConfig, AcasXu, LogicTable};
use uavca_encounter::{ParamRanges, ScenarioGenerator};
use uavca_sim::{
    AlphaBetaTracker, CollisionAvoider, DisturbanceModel, EncounterWorld, SensorNoise, SimConfig,
    UavState, Unequipped, Vec3,
};

fn table() -> Arc<LogicTable> {
    static TABLE: OnceLock<Arc<LogicTable>> = OnceLock::new();
    TABLE
        .get_or_init(|| Arc::new(LogicTable::solve(&AcasConfig::coarse())))
        .clone()
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Equip {
    Both,
    OwnOnly,
    Neither,
}

const EQUIPAGES: [Equip; 3] = [Equip::Both, Equip::OwnOnly, Equip::Neither];

fn avoiders(equip: Equip, tracking: bool) -> [Box<dyn CollisionAvoider>; 2] {
    let acas = || -> Box<dyn CollisionAvoider> {
        let logic = AcasXu::new(table());
        if tracking {
            Box::new(logic.with_tracking(AlphaBetaTracker::default_gains()))
        } else {
            Box::new(logic)
        }
    };
    let none = || -> Box<dyn CollisionAvoider> { Box::new(Unequipped::new()) };
    match equip {
        Equip::Both => [acas(), acas()],
        Equip::OwnOnly => [acas(), none()],
        Equip::Neither => [none(), none()],
    }
}

/// The four noise models of the oracle: default noise, none at all,
/// noisy sensors without gusts (no gust draws), and coordination off.
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

/// Two aircraft closing head-on over `distance_ft` at 150 ft/s each, the
/// intruder `dz_ft` above.
fn head_on(distance_ft: f64, dz_ft: f64) -> [UavState; 2] {
    [
        UavState::new(Vec3::new(0.0, 0.0, 4000.0), Vec3::new(150.0, 0.0, 0.0)),
        UavState::new(
            Vec3::new(distance_ft, 0.0, 4000.0 + dz_ft),
            Vec3::new(-150.0, 0.0, 0.0),
        ),
    ]
}

/// Runs one pair both ways and asserts bit-identity on outcomes and
/// traces; returns the equipped reference outcome's first alert time.
///
/// The twin starts from a different geometry and seed and is dirtied by
/// a few steps, because `run_paired` must ignore its prior state.
fn check(
    sim: SimConfig,
    initial: [UavState; 2],
    equip: Equip,
    tracking: bool,
    seed: u64,
) -> Option<f64> {
    let mut solo_equipped = EncounterWorld::new(sim, initial, avoiders(equip, tracking), seed);
    let want_equipped = solo_equipped.run();
    let mut solo_unequipped =
        EncounterWorld::new(sim, initial, avoiders(Equip::Neither, false), seed);
    let want_unequipped = solo_unequipped.run();

    let mut world = EncounterWorld::new(sim, initial, avoiders(equip, tracking), seed);
    let mut twin = EncounterWorld::new(
        sim,
        head_on(20_000.0, 300.0),
        avoiders(Equip::Neither, false),
        seed ^ 0x5eed,
    );
    for _ in 0..3 {
        twin.step();
    }
    let (equipped, unequipped) = world.run_paired(&mut twin);

    let ctx = format!("{equip:?} tracking={tracking} seed={seed} sim={sim:?}");
    assert_eq!(
        format!("{equipped:?}"),
        format!("{want_equipped:?}"),
        "{ctx}"
    );
    assert_eq!(
        format!("{unequipped:?}"),
        format!("{want_unequipped:?}"),
        "{ctx}"
    );
    assert_eq!(
        format!("{:?}", world.trace()),
        format!("{:?}", solo_equipped.trace()),
        "{ctx}"
    );
    assert_eq!(
        format!("{:?}", twin.trace()),
        format!("{:?}", solo_unequipped.trace()),
        "{ctx}"
    );
    // Both worlds end where their own runs end, RNG included: one more
    // step of each matches one more step of the solo worlds.
    assert_eq!(format!("{:?}", twin.outcome()), format!("{unequipped:?}"));
    solo_unequipped.step();
    twin.step();
    assert_eq!(
        format!("{:?}", twin.outcome()),
        format!("{:?}", solo_unequipped.outcome()),
        "{ctx}"
    );
    want_equipped.first_alert_time_s
}

#[test]
fn every_equipage_and_noise_model_matches_two_solo_runs() {
    for sim in configs() {
        for equip in EQUIPAGES {
            for seed in [1, 7, 42] {
                check(sim, head_on(9_000.0, 20.0), equip, false, seed);
            }
        }
    }
}

#[test]
fn recorded_traces_match_two_solo_runs() {
    for mut sim in configs() {
        sim.record_trace = true;
        for equip in EQUIPAGES {
            check(sim, head_on(9_000.0, 20.0), equip, false, 3);
        }
    }
}

/// FNV-1a over `text` and a newline terminator.
fn fnv1a(hash: &mut u64, text: &str) {
    for byte in text.bytes().chain([b'\n']) {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The traced solo runs of `recorded_traces_match_two_solo_runs` are the
/// bits the retired two-ship step produced: the digest of their
/// serialized outcomes and traces was computed with that step, before
/// the two-ship world became a view of the k-aircraft world.
#[test]
fn recorded_traces_match_the_frozen_two_ship_digest() {
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut steps = 0;
    for mut sim in configs() {
        sim.record_trace = true;
        for equip in EQUIPAGES {
            for arm in [equip, Equip::Neither] {
                let mut world =
                    EncounterWorld::new(sim, head_on(9_000.0, 20.0), avoiders(arm, false), 3);
                let outcome = world.run();
                fnv1a(&mut digest, &serde_json::to_string(&outcome).unwrap());
                fnv1a(&mut digest, &serde_json::to_string(world.trace()).unwrap());
                steps += world.trace().len();
            }
        }
    }
    assert_eq!(steps, 2400);
    assert_eq!(digest, 0x0902_e69d_9371_ef0e, "got {digest:#018x}");
}

#[test]
fn tracking_avoiders_match_two_solo_runs() {
    for sim in configs() {
        for equip in [Equip::Both, Equip::OwnOnly] {
            for seed in [5, 6] {
                let alert = check(sim, head_on(9_000.0, 20.0), equip, true, seed);
                assert!(alert.is_some(), "the head-on must alert");
            }
        }
    }
}

#[test]
fn alerts_at_step_zero_late_and_never_all_match() {
    let traced = SimConfig {
        record_trace: true,
        ..SimConfig::default()
    };
    for sim in [SimConfig::default(), SimConfig::deterministic(), traced] {
        for equip in [Equip::Both, Equip::OwnOnly] {
            // Already in conflict: the first decision alerts.
            let at_once = check(sim, head_on(1_500.0, 10.0), equip, false, 11);
            assert_eq!(at_once, Some(0.0), "close head-on alerts at step 0");
            // A distant head-on alerts only after a long shared prefix.
            let late = check(sim, head_on(24_000.0, 0.0), equip, false, 12);
            assert!(late.is_some_and(|t| t >= 30.0), "late alert, got {late:?}");
            // Diverging aircraft never alert: the twin is the equipped arm.
            let mut apart = head_on(6_000.0, 0.0);
            apart[1].velocity = Vec3::new(150.0, 0.0, 0.0);
            apart[0].velocity = Vec3::new(-150.0, 0.0, 0.0);
            assert_eq!(check(sim, apart, equip, false, 13), None);
        }
    }
}

#[test]
fn warm_worlds_reused_across_jobs_match_solo_runs() {
    // The batch-runner pattern: one equipped world and one twin, reset
    // and re-flown job after job.
    let sim = SimConfig::default();
    let mut world =
        EncounterWorld::new(sim, head_on(9_000.0, 0.0), avoiders(Equip::Both, false), 0);
    let mut twin = EncounterWorld::new(
        sim,
        head_on(9_000.0, 0.0),
        avoiders(Equip::Neither, false),
        0,
    );
    for (job, distance) in [9_000.0, 1_500.0, 30_000.0, 7_000.0]
        .into_iter()
        .enumerate()
    {
        let initial = head_on(distance, 30.0);
        let seed = 100 + job as u64;
        world.reset(initial, seed);
        let got = world.run_paired(&mut twin);
        let want = (
            EncounterWorld::new(sim, initial, avoiders(Equip::Both, false), seed).run(),
            EncounterWorld::new(sim, initial, avoiders(Equip::Neither, false), seed).run(),
        );
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "job {job}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random encounters from the experiments' parameter box, random
    /// seeds, equipages, noise models and tracking.
    #[test]
    fn random_encounters_match_two_solo_runs(
        params_seed in 0u64..u64::MAX,
        sim_seed in 0u64..u64::MAX,
        equip in 0usize..3,
        config in 0usize..4,
        tracking in 0usize..2,
    ) {
        let params = ParamRanges::default().sample_uniform(&mut StdRng::seed_from_u64(params_seed));
        let enc = ScenarioGenerator::default().generate(&params);
        check(
            configs()[config],
            [enc.own, enc.intruder],
            EQUIPAGES[equip],
            tracking == 1,
            sim_seed,
        );
    }
}
