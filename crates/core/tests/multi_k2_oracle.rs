//! The k = 2 regression oracle: the encounter world at two aircraft, and
//! its two-ship view [`EncounterWorld`], must reproduce **byte for byte**
//! the outcomes of the two-ship step the paper's estimates were first
//! built on — same solved logic table, same simulation configuration,
//! same seeds, both equipages — over a sweep of sampled encounters.
//!
//! That step is retired, so its bits are frozen here: each test folds
//! the serialized outcomes of its sweep into an FNV-1a digest that was
//! computed with the retired step, and demands the same digest from
//! every path that flies a two-ship encounter today ([`EncounterWorld`],
//! [`MultiEncounterWorld`] projected with
//! [`uavca_sim::MultiEncounterOutcome::to_pairwise`], and the production
//! job paths). At k = 2 nothing is merely "close": a change to the draw
//! order, the threat selection or the monitors shows up as a digest
//! mismatch.

use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::SeedableRng;
use uavca_acasx::{AcasConfig, AcasXu, LogicTable};
use uavca_encounter::{ScenarioGenerator, StatisticalEncounterModel};
use uavca_sim::{
    CollisionAvoider, EncounterOutcome, EncounterWorld, MultiEncounterWorld, MultiMode, UavState,
    Unequipped,
};
use uavca_validation::EncounterRunner;

fn table() -> &'static Arc<LogicTable> {
    static TABLE: OnceLock<Arc<LogicTable>> = OnceLock::new();
    TABLE.get_or_init(|| Arc::new(LogicTable::solve(&AcasConfig::coarse())))
}

fn avoiders(equipped: bool) -> [Box<dyn CollisionAvoider>; 2] {
    let one = || -> Box<dyn CollisionAvoider> {
        if equipped {
            Box::new(AcasXu::new(table().clone()))
        } else {
            Box::new(Unequipped::new())
        }
    };
    [one(), one()]
}

/// FNV-1a over the serialized outcomes of a sweep, one JSON line each.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn absorb(&mut self, outcome: &EncounterOutcome) {
        let json = serde_json::to_string(outcome).unwrap();
        for byte in json.bytes().chain([b'\n']) {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn assert_frozen(&self, frozen: u64, what: &str) {
        assert_eq!(
            self.0, frozen,
            "{what}: digest {:#018x} differs from the two-ship step's bits",
            self.0
        );
    }
}

/// Flies one two-ship encounter through the two-ship view and through
/// the k = 2 world in `mode`; both must agree exactly, and the shared
/// outcome goes into `digest`.
fn absorb_both_paths(
    digest: &mut Digest,
    initial: [UavState; 2],
    seed: u64,
    equipped: bool,
    mode: MultiMode,
) {
    let sim = *EncounterRunner::new(table().clone()).sim();
    let view = EncounterWorld::new(sim, initial, avoiders(equipped), seed).run();
    let world = MultiEncounterWorld::new(sim, mode, &initial, avoiders(equipped).into(), seed)
        .run()
        .to_pairwise();
    assert_eq!(
        serde_json::to_string(&view).unwrap(),
        serde_json::to_string(&world).unwrap(),
        "two-ship view and k = 2 {mode:?} world disagree at seed {seed}"
    );
    digest.absorb(&view);
}

/// One sampled scenario per case seed, through the runner's default
/// scenario generator.
fn sampled_initial(case: u64) -> [UavState; 2] {
    let params = StatisticalEncounterModel::default().sample(&mut StdRng::seed_from_u64(case));
    let enc = ScenarioGenerator::default().generate(&params);
    [enc.own, enc.intruder]
}

#[test]
fn k2_pairwise_multi_reproduces_the_scalar_world_equipped() {
    let mut digest = Digest::new();
    for case in 0..24u64 {
        let initial = sampled_initial(case);
        absorb_both_paths(&mut digest, initial, case ^ 0xA5, true, MultiMode::Pairwise);
    }
    digest.assert_frozen(0x77ec_37c6_c6bd_cdd1, "equipped sweep");
}

#[test]
fn k2_pairwise_multi_reproduces_the_scalar_world_unequipped() {
    let mut digest = Digest::new();
    for case in 0..24u64 {
        let initial = sampled_initial(case);
        absorb_both_paths(
            &mut digest,
            initial,
            case ^ 0x5A,
            false,
            MultiMode::Pairwise,
        );
    }
    digest.assert_frozen(0x864b_ce20_2b57_1ff4, "unequipped sweep");
}

/// At two aircraft the coordinated read-out degenerates to the pairwise
/// rule (at most one other clearance exists, and the same-sense tie is
/// won by the lower id either way), so coordinated k = 2 must *also*
/// reproduce the two-ship bits.
#[test]
fn k2_coordinated_multi_also_reproduces_the_scalar_world() {
    let mut digest = Digest::new();
    for case in 0..12u64 {
        let initial = sampled_initial(case.wrapping_mul(7));
        absorb_both_paths(&mut digest, initial, case, true, MultiMode::Coordinated);
        absorb_both_paths(&mut digest, initial, case, false, MultiMode::Coordinated);
    }
    digest.assert_frozen(0x4e35_531a_f8f6_d169, "coordinated sweep");
}

/// The same oracle through the production job path: a [`MultiJob`]
/// whose parameter vector holds exactly two aircraft runs both arms as
/// one paired job through [`EncounterRunner::run_multi_pair`]; each arm
/// projects to the frozen two-ship outcome that solo runs of the same
/// initial states reproduce.
#[test]
fn k2_multi_job_arms_project_onto_scalar_runs() {
    use uavca_encounter::{MultiEncounterModel, MultiScenarioGenerator};
    use uavca_validation::MultiJob;

    let runner = EncounterRunner::new(table().clone());
    let model = MultiEncounterModel::default();
    let pair_strata: Vec<_> = model
        .strata()
        .into_iter()
        .filter(|s| model.densities[s.density_index] == 2)
        .collect();
    assert!(
        !pair_strata.is_empty(),
        "the default model must keep a k = 2 density band for this oracle"
    );
    let mut jobs = Digest::new();
    let mut solo = Digest::new();
    for (case, &stratum) in (0..).zip(pair_strata.iter().cycle().take(12)) {
        let params = model.sample_in(stratum, &mut StdRng::seed_from_u64(case));
        let initial = MultiScenarioGenerator::default().generate(&params);
        let initial: [UavState; 2] = [initial[0], initial[1]];
        let job = MultiJob {
            params,
            seed: case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            mode: MultiMode::Pairwise,
        };
        let outcome = runner.run_multi_pair(&job);
        jobs.absorb(&outcome.equipped.to_pairwise());
        jobs.absorb(&outcome.unequipped.to_pairwise());
        for equipped in [true, false] {
            solo.absorb(
                &EncounterWorld::new(*runner.sim(), initial, avoiders(equipped), job.seed).run(),
            );
        }
    }
    jobs.assert_frozen(0xbca7_1079_c44d_cfda, "k = 2 multi jobs");
    solo.assert_frozen(0xbca7_1079_c44d_cfda, "solo runs of the same jobs");
}
