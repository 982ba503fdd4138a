use std::sync::Arc;

use serde::{Deserialize, Serialize};
use uavca_acasx::{AcasConfig, AcasXu, LogicTable};
use uavca_encounter::{EncounterParams, ScenarioGenerator};
use uavca_sim::{
    CollisionAvoider, EncounterOutcome, EncounterWorld, SimConfig, Trace, UavState, Unequipped,
};

use crate::campaign::split_branch_seed;
use crate::splitting::{SplitJob, SplitOutcome};

/// Reusable per-worker simulation state: warm [`EncounterWorld`]s, one
/// per equipage, each rearmed by the run that uses it — so repeated
/// batches pay zero steady-state allocation.
///
/// Create one scratch per worker thread (never share across runners — the
/// warmed worlds embed the owning runner's logic table and simulation
/// configuration). [`crate::BatchRunner`] does this automatically.
#[derive(Debug, Default)]
pub struct RunScratch {
    worlds: [Option<EncounterWorld>; 3],
}

impl RunScratch {
    /// An empty (cold) scratch.
    pub fn new() -> Self {
        Self::default()
    }

    fn world(&mut self, equipage: Equipage) -> &mut Option<EncounterWorld> {
        let idx = match equipage {
            Equipage::Both => 0,
            Equipage::OwnOnly => 1,
            Equipage::Neither => 2,
        };
        &mut self.worlds[idx]
    }
}

/// What collision avoidance each aircraft carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Equipage {
    /// Both aircraft run the ACAS XU-like logic (the paper's setting:
    /// coordinated, both maneuver).
    Both,
    /// Only the own-ship is equipped.
    OwnOnly,
    /// Neither aircraft is equipped (baseline for risk ratios and for
    /// verifying that a scenario would actually collide unmitigated).
    Neither,
}

/// Wires encounter parameters into full 3-D simulation runs: the
/// "Scenario ⇒ Simulation ⇒ result" segment of the paper's Fig. 3 loop.
///
/// The runner owns the solved [`LogicTable`] (shared across all runs and
/// threads), the simulation configuration and the scenario generator. It
/// is cheap to clone (the table is reference-counted) and `Sync`, so GA
/// populations can be evaluated in parallel.
#[derive(Debug, Clone)]
pub struct EncounterRunner {
    table: Arc<LogicTable>,
    sim: SimConfig,
    generator: ScenarioGenerator,
    equipage: Equipage,
}

impl EncounterRunner {
    /// Creates a runner around a solved logic table, defaulting to both
    /// aircraft equipped and the default simulation configuration.
    pub fn new(table: Arc<LogicTable>) -> Self {
        Self {
            table,
            sim: SimConfig::default(),
            generator: ScenarioGenerator::default(),
            equipage: Equipage::Both,
        }
    }

    /// Convenience constructor that solves the full-resolution table first
    /// (about 0.2 s in release builds; cache the table for repeated use).
    pub fn with_default_table() -> Self {
        Self::new(Arc::new(LogicTable::solve(&AcasConfig::default())))
    }

    /// Convenience constructor with the coarse table — fast enough for
    /// unit tests and doctests while preserving qualitative behaviour.
    pub fn with_coarse_table() -> Self {
        Self::new(Arc::new(LogicTable::solve(&AcasConfig::coarse())))
    }

    /// Sets the simulation configuration.
    pub fn sim_config(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Sets the equipage.
    pub fn equipage(mut self, equipage: Equipage) -> Self {
        self.equipage = equipage;
        self
    }

    /// Sets the scenario generator (own-ship anchor).
    pub fn generator(mut self, generator: ScenarioGenerator) -> Self {
        self.generator = generator;
        self
    }

    /// The shared logic table.
    pub fn table(&self) -> &Arc<LogicTable> {
        &self.table
    }

    /// The simulation configuration.
    pub fn sim(&self) -> &SimConfig {
        &self.sim
    }

    /// The configured equipage.
    pub fn current_equipage(&self) -> Equipage {
        self.equipage
    }

    fn avoiders(&self, equipage: Equipage) -> [Box<dyn CollisionAvoider>; 2] {
        let acas = || -> Box<dyn CollisionAvoider> { Box::new(AcasXu::new(self.table.clone())) };
        let none = || -> Box<dyn CollisionAvoider> { Box::new(Unequipped::new()) };
        match equipage {
            Equipage::Both => [acas(), acas()],
            Equipage::OwnOnly => [acas(), none()],
            Equipage::Neither => [none(), none()],
        }
    }

    /// Runs one stochastic simulation of `params` with the configured
    /// equipage. `seed` fully determines noise and disturbance.
    pub fn run_once(&self, params: &EncounterParams, seed: u64) -> EncounterOutcome {
        self.run_once_with(params, seed, self.equipage)
    }

    /// Runs one simulation with an explicit equipage (used for equipped vs
    /// unequipped comparisons on identical seeds).
    pub fn run_once_with(
        &self,
        params: &EncounterParams,
        seed: u64,
        equipage: Equipage,
    ) -> EncounterOutcome {
        self.run_once_reusing(params, seed, equipage, &mut RunScratch::new())
    }

    /// Runs one simulation reusing `scratch`'s warm simulation worlds.
    ///
    /// Outcomes are bit-identical to [`run_once_with`](Self::run_once_with)
    /// — reuse only skips the avoider/world allocations. `scratch` must
    /// only ever be used with the runner that warmed it (the worlds embed
    /// this runner's logic table and simulation config); the batch engine
    /// owns that invariant by keeping scratch worker-local.
    pub fn run_once_reusing(
        &self,
        params: &EncounterParams,
        seed: u64,
        equipage: Equipage,
        scratch: &mut RunScratch,
    ) -> EncounterOutcome {
        let enc = self.generator.generate(params);
        self.run_generated(&[enc.own, enc.intruder], seed, equipage, scratch)
    }

    /// Runs the equipped/unequipped pair on one seed from a **single**
    /// scenario generation — the unit of paired Monte-Carlo estimation.
    /// Returns `(equipped, unequipped)` where "equipped" is this runner's
    /// configured equipage.
    pub fn run_pair_reusing(
        &self,
        params: &EncounterParams,
        seed: u64,
        scratch: &mut RunScratch,
    ) -> (EncounterOutcome, EncounterOutcome) {
        let enc = self.generator.generate(params);
        let initial = [enc.own, enc.intruder];
        let equipped = self.run_generated(&initial, seed, self.equipage, scratch);
        let unequipped = self.run_generated(&initial, seed, Equipage::Neither, scratch);
        (equipped, unequipped)
    }

    fn run_generated(
        &self,
        initial: &[UavState; 2],
        seed: u64,
        equipage: Equipage,
        scratch: &mut RunScratch,
    ) -> EncounterOutcome {
        let world = scratch.world(equipage).get_or_insert_with(|| {
            EncounterWorld::new(self.sim, *initial, self.avoiders(equipage), seed)
        });
        world.reset(*initial, seed);
        world.run()
    }

    /// Runs one multilevel-splitting root (see [`crate::SplitJob`]): a
    /// plain unequipped companion run on the root seed, then the equipped
    /// run driven as a depth-first branch tree — whenever the trajectory's
    /// tracked minimum severity first drops below the next ladder rung
    /// the world is checkpointed ([`EncounterWorld::snapshot`]) and
    /// re-branched `K` times ([`EncounterWorld::restore_branch`]) with
    /// seeds from [`crate::split_branch_seed`].
    ///
    /// The returned weight `R = Σ_{NMAC leaves} Π_j 1/K_j` is an
    /// unbiased estimate of the equipped NMAC probability for this
    /// encounter/seed distribution: each rung's branching multiplies the
    /// leaf count by `K_j` and divides each leaf's weight by the same
    /// factor. Checkpoints are taken at *first* crossings only (severity
    /// is monotone non-increasing, so crossings are well-ordered); a
    /// trajectory that plunges through several rungs in one advance
    /// re-branches at each rung in turn, zero steps apart. The walk is
    /// strictly depth-first with a per-root node counter, so the
    /// `(level, node, branch)` seed coordinates — and therefore every
    /// simulated number — are a pure function of the job.
    pub fn run_split_reusing(&self, job: &SplitJob, scratch: &mut RunScratch) -> SplitOutcome {
        let enc = self.generator.generate(&job.params);
        let initial = [enc.own, enc.intruder];
        let unequipped = self.run_generated(&initial, job.seed, Equipage::Neither, scratch);
        let world = scratch.world(self.equipage).get_or_insert_with(|| {
            EncounterWorld::new(self.sim, initial, self.avoiders(self.equipage), job.seed)
        });
        world.reset(initial, job.seed);
        world.begin();
        let stages = job.levels.len() + 1;
        let mut walk = SplitWalk {
            weight: 0.0,
            level_trials: vec![0; stages],
            level_crossings: vec![0; stages],
            equipped_steps: 0,
            next_node: 0,
        };
        split_descend(world, job, 0, 1.0, &mut walk);
        SplitOutcome {
            weight: walk.weight,
            level_trials: walk.level_trials,
            level_crossings: walk.level_crossings,
            equipped_steps: walk.equipped_steps,
            unequipped_steps: self.sim.num_steps() as u64,
            unequipped,
        }
    }

    /// Runs `runs` independent simulations with seeds `seed_base..`,
    /// returning all outcomes (the paper evaluates every encounter over
    /// 100 runs). One warm world serves all runs; use
    /// [`crate::BatchRunner::run_repeated`] for the multi-threaded variant.
    pub fn run_repeated(
        &self,
        params: &EncounterParams,
        runs: usize,
        seed_base: u64,
    ) -> Vec<EncounterOutcome> {
        let mut scratch = RunScratch::new();
        (0..runs)
            .map(|k| {
                self.run_once_reusing(
                    params,
                    seed_base.wrapping_add(k as u64),
                    self.equipage,
                    &mut scratch,
                )
            })
            .collect()
    }

    /// Runs one simulation with trace recording enabled and returns the
    /// trace alongside the outcome (the "visualization mode" replacement).
    pub fn run_traced(&self, params: &EncounterParams, seed: u64) -> (EncounterOutcome, Trace) {
        let mut sim = self.sim;
        sim.record_trace = true;
        let enc = self.generator.generate(params);
        let mut world = EncounterWorld::new(
            sim,
            [enc.own, enc.intruder],
            self.avoiders(self.equipage),
            seed,
        );
        let outcome = world.run();
        (outcome, world.trace().clone())
    }

    /// A stable seed derived from the genome bits, so fitness is a pure
    /// function of the scenario (identical genomes always replay the same
    /// noise sequences).
    pub fn seed_for(params: &EncounterParams) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for x in params.to_vector() {
            h ^= x.to_bits();
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

/// Accumulator of one splitting root's depth-first walk.
struct SplitWalk {
    weight: f64,
    level_trials: Vec<u64>,
    level_crossings: Vec<u64>,
    equipped_steps: u64,
    /// Next checkpoint index, pre-order over the branch tree — the
    /// `node` coordinate of [`split_branch_seed`].
    next_node: u64,
}

/// One stage of the depth-first splitting walk: advance the world to the
/// stage's severity threshold (the terminal stage runs to NMAC or
/// horizon), then either record the exit or checkpoint-and-branch.
fn split_descend(
    world: &mut EncounterWorld,
    job: &SplitJob,
    stage: usize,
    leaf_weight: f64,
    walk: &mut SplitWalk,
) {
    let terminal = stage == job.levels.len();
    let threshold = if terminal { 0.0 } else { job.levels[stage] };
    walk.equipped_steps += world.advance_to_severity(threshold) as u64;
    walk.level_trials[stage] += 1;
    if world.nmac() {
        // An NMAC crossed this stage (and implicitly every deeper rung);
        // the leaf contributes its full accumulated weight.
        walk.level_crossings[stage] += 1;
        walk.weight += leaf_weight;
        return;
    }
    if terminal || world.min_severity() >= threshold {
        // Horizon exhausted before the threshold: a zero-weight leaf.
        return;
    }
    walk.level_crossings[stage] += 1;
    let fan = job.branches.get(stage).copied().unwrap_or(1).max(1);
    let node = walk.next_node;
    walk.next_node += 1;
    let snap = world.snapshot();
    for branch in 0..fan {
        world.restore_branch(&snap, split_branch_seed(job.seed, stage, node, branch));
        split_descend(world, job, stage + 1, leaf_weight / fan as f64, walk);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::OnceLock;

    pub(crate) fn runner() -> &'static EncounterRunner {
        static RUNNER: OnceLock<EncounterRunner> = OnceLock::new();
        RUNNER.get_or_init(EncounterRunner::with_coarse_table)
    }

    #[test]
    fn head_on_is_resolved_by_equipped_pair_but_not_unequipped() {
        let r = runner();
        let params = EncounterParams::head_on_template();
        let equipped = r.run_once_with(&params, 7, Equipage::Both);
        let unequipped = r.run_once_with(&params, 7, Equipage::Neither);
        assert!(!equipped.nmac, "coordinated ACAS XU resolves a head-on");
        assert!(equipped.alerted());
        assert!(unequipped.nmac, "the same seed without avoidance collides");
        assert!(equipped.min_separation_ft > unequipped.min_separation_ft);
    }

    #[test]
    fn own_only_equipage_still_avoids_head_on() {
        let r = runner();
        let params = EncounterParams::head_on_template();
        let mut nmacs = 0;
        for seed in 0..10 {
            if r.run_once_with(&params, seed, Equipage::OwnOnly).nmac {
                nmacs += 1;
            }
        }
        assert!(
            nmacs <= 2,
            "one-sided avoidance handles most head-ons: {nmacs}/10"
        );
    }

    #[test]
    fn outcomes_are_deterministic_per_seed() {
        let r = runner();
        let params = EncounterParams::head_on_template();
        assert_eq!(r.run_once(&params, 3), r.run_once(&params, 3));
        let many = r.run_repeated(&params, 5, 100);
        assert_eq!(many.len(), 5);
        assert_eq!(many[2], r.run_once(&params, 102));
    }

    #[test]
    fn seed_for_is_stable_and_discriminating() {
        let a = EncounterParams::head_on_template();
        let b = EncounterParams::tail_approach_template();
        assert_eq!(EncounterRunner::seed_for(&a), EncounterRunner::seed_for(&a));
        assert_ne!(EncounterRunner::seed_for(&a), EncounterRunner::seed_for(&b));
    }

    #[test]
    fn traced_run_matches_outcome() {
        let r = runner();
        let params = EncounterParams::head_on_template();
        let (outcome, trace) = r.run_traced(&params, 5);
        assert!(!trace.is_empty());
        assert_eq!(trace.len(), r.sim().num_steps());
        // Trace min separation is endpoint-sampled, so it can only be ≥ the
        // continuously-monitored outcome minimum.
        assert!(trace.min_separation_ft() >= outcome.min_separation_ft - 1e-6);
    }
}
