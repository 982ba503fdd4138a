//! Per-layer probes of the traced run: each calls one layer's public
//! functions on inputs taken from the workload's own campaigns and
//! times them from outside.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use uavca_acasx::{estimate_tau, AcasXu, Advisory, LogicTable};
use uavca_encounter::{
    MultiEncounterModel, MultiScenarioGenerator, ScenarioGenerator, StatisticalEncounterModel,
    Stratification,
};
use uavca_exec::Executor;
use uavca_sim::{
    AvoiderContext, CollisionAvoider, EncounterWorld, ManeuverCommand, MultiEncounterWorld, Sense,
    SenseSet,
};
use uavca_validation::{
    BatchRunner, EncounterRunner, Equipage, MultiJob, MultiRunScratch, PairedJob, RunScratch,
};

use crate::common::{arm_steps, median, multi_arm_steps};

/// Defaults of [`AcasXu::new`]: the alerting entry criteria the
/// recorder replays.
const HMD_THRESHOLD_FT: f64 = 1500.0;
const DMOD_FT: f64 = 3000.0;
const HYSTERESIS_BONUS: f64 = 3.0;

/// Minimum wall time each timed loop accumulates, s.
const MIN_PROBE_S: f64 = 0.15;

/// One logic-table query as the online logic would issue it.
#[derive(Debug, Clone, Copy)]
pub struct LookupState {
    h_ft: f64,
    own_rate_fps: f64,
    intruder_rate_fps: f64,
    tau_s: f64,
    previous: Advisory,
    forbidden: Option<Sense>,
}

/// Wraps the online logic and records every table query it makes,
/// replaying its alerting entry test on the same inputs before
/// delegating the decision unchanged.
#[derive(Clone)]
struct Recorder {
    inner: AcasXu,
    horizon_s: f64,
    log: Arc<Mutex<Vec<LookupState>>>,
}

impl Recorder {
    fn record(&self, ctx: &AvoiderContext<'_>, forbidden: SenseSet) {
        let rel_pos = ctx.intruder.position - ctx.own.position;
        let rel_vel = ctx.intruder.velocity - ctx.own.velocity;
        let tau = estimate_tau(rel_pos.x, rel_pos.y, rel_vel.x, rel_vel.y, DMOD_FT);
        let eligible = tau.tau_s <= self.horizon_s
            && (tau.hmd_ft <= HMD_THRESHOLD_FT || tau.range_ft <= DMOD_FT);
        if eligible {
            self.log.lock().expect("recorder log").push(LookupState {
                h_ft: rel_pos.z,
                own_rate_fps: ctx.own.velocity.z,
                intruder_rate_fps: ctx.intruder.velocity.z,
                tau_s: tau.tau_s,
                previous: self.inner.current_advisory(),
                forbidden: forbidden.to_single(),
            });
        }
    }
}

impl CollisionAvoider for Recorder {
    fn decide(&mut self, ctx: &AvoiderContext<'_>) -> Option<ManeuverCommand> {
        self.record(ctx, SenseSet::from_option(ctx.forbidden_sense));
        self.inner.decide(ctx)
    }

    fn decide_multi(
        &mut self,
        ctx: &AvoiderContext<'_>,
        forbidden: SenseSet,
    ) -> Option<ManeuverCommand> {
        self.record(ctx, forbidden);
        self.inner.decide_multi(ctx, forbidden)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn clone_boxed(&self) -> Box<dyn CollisionAvoider> {
        Box::new(self.clone())
    }
}

fn recorder(
    table: &Arc<LogicTable>,
    log: &Arc<Mutex<Vec<LookupState>>>,
) -> Box<dyn CollisionAvoider> {
    Box::new(Recorder {
        inner: AcasXu::new(table.clone()),
        horizon_s: table.horizon_s(),
        log: log.clone(),
    })
}

/// Table queries recorded from the equipped arms of the workload's own
/// jobs, with the UAV-steps of both arms. Errors when a recorded arm
/// differs from the runner's own outcome (the recorder must not change
/// behaviour).
pub struct Recorded {
    pub states: Vec<LookupState>,
    pub uav_steps: u64,
}

pub fn record_paired(runner: &EncounterRunner, jobs: &[PairedJob]) -> Result<Recorded, String> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let generator = ScenarioGenerator::default();
    let mut uav_steps = 0;
    for job in jobs {
        let enc = generator.generate(&job.params);
        let mut world = EncounterWorld::new(
            *runner.sim(),
            [enc.own, enc.intruder],
            [
                recorder(runner.table(), &log),
                recorder(runner.table(), &log),
            ],
            job.seed,
        );
        let recorded = world.run();
        let (equipped, unequipped) =
            runner.run_pair_reusing(&job.params, job.seed, &mut RunScratch::new());
        if recorded != equipped {
            return Err("lookup recorder changed a paired outcome".into());
        }
        uav_steps += arm_steps(&equipped) + arm_steps(&unequipped);
    }
    let states = std::mem::take(&mut *log.lock().expect("recorder log"));
    Ok(Recorded { states, uav_steps })
}

pub fn record_multi(runner: &EncounterRunner, jobs: &[MultiJob]) -> Result<Recorded, String> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let generator = MultiScenarioGenerator::default();
    let mut uav_steps = 0;
    for job in jobs {
        let initial = generator.generate(&job.params);
        let avoiders = (0..initial.len())
            .map(|_| recorder(runner.table(), &log))
            .collect();
        let mut world =
            MultiEncounterWorld::new(*runner.sim(), job.mode, &initial, avoiders, job.seed);
        let recorded = world.run();
        let pair = runner.run_multi_pair(job);
        if recorded != pair.equipped {
            return Err("lookup recorder changed a k-aircraft outcome".into());
        }
        uav_steps += multi_arm_steps(&pair.equipped) + multi_arm_steps(&pair.unequipped);
    }
    let states = std::mem::take(&mut *log.lock().expect("recorder log"));
    Ok(Recorded { states, uav_steps })
}

/// Repeats `pass` until [`MIN_PROBE_S`] has elapsed (at least 5
/// passes); returns the median seconds per pass.
fn time_passes(mut pass: impl FnMut()) -> f64 {
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 5 || start.elapsed().as_secs_f64() < MIN_PROBE_S {
        let t = Instant::now();
        pass();
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

/// `LogicTable::best_advisory` per recorded state, ns.
pub fn lookup_ns(table: &LogicTable, states: &[LookupState]) -> f64 {
    if states.is_empty() {
        return 0.0;
    }
    let per_pass = time_passes(|| {
        for s in states {
            let bonus = if s.previous.is_alert() {
                HYSTERESIS_BONUS
            } else {
                0.0
            };
            black_box(table.best_advisory(
                black_box(s.h_ft),
                s.own_rate_fps,
                s.intruder_rate_fps,
                s.tau_s,
                s.previous,
                s.forbidden,
                bonus,
            ));
        }
    });
    per_pass * 1e9 / states.len() as f64
}

/// Stratum draw plus scenario generation of the paired model, ns.
pub fn paired_sample_ns(model: &StatisticalEncounterModel, strat: &Stratification) -> f64 {
    let generator = ScenarioGenerator::default();
    let strata = strat.strata();
    const DRAWS: usize = 2000;
    time_passes(|| {
        for i in 0..DRAWS {
            let mut rng = StdRng::seed_from_u64(i as u64);
            let params = strat.sample(model, strata[i % strata.len()], &mut rng);
            black_box(generator.generate(&params));
        }
    }) * 1e9
        / DRAWS as f64
}

/// Stratum draw plus scenario generation of the k-aircraft model, ns.
pub fn multi_sample_ns(model: &MultiEncounterModel) -> f64 {
    let generator = MultiScenarioGenerator::default();
    let strata = model.strata();
    const DRAWS: usize = 1000;
    time_passes(|| {
        for i in 0..DRAWS {
            let mut rng = StdRng::seed_from_u64(i as u64);
            let params = model.sample_in(strata[i % strata.len()], &mut rng);
            black_box(generator.generate(&params));
        }
    }) * 1e9
        / DRAWS as f64
}

/// `run_once_reusing` per arm (equipped, unequipped), µs, and ns per
/// UAV-step over both arms.
pub fn paired_arms(runner: &EncounterRunner, jobs: &[PairedJob]) -> (f64, f64, f64) {
    let mut scratch = RunScratch::new();
    let mut steps = [0u64; 2];
    let mut per_pass = [0.0f64; 2];
    for (arm, equipage) in [Equipage::Both, Equipage::Neither].into_iter().enumerate() {
        steps[arm] = jobs
            .iter()
            .map(|j| arm_steps(&runner.run_once_reusing(&j.params, j.seed, equipage, &mut scratch)))
            .sum();
        per_pass[arm] = time_passes(|| {
            for j in jobs {
                black_box(runner.run_once_reusing(&j.params, j.seed, equipage, &mut scratch));
            }
        });
    }
    let n = jobs.len().max(1) as f64;
    (
        per_pass[0] * 1e6 / n,
        per_pass[1] * 1e6 / n,
        (per_pass[0] + per_pass[1]) * 1e9 / (steps[0] + steps[1]).max(1) as f64,
    )
}

/// `run_multi_pair_reusing` per aircraft, µs, for each of `ks`
/// (0 where the jobs hold no encounter of that size), and ns per
/// UAV-step over all of them.
pub fn multi_arms(runner: &EncounterRunner, jobs: &[MultiJob], ks: &[usize]) -> (Vec<f64>, f64) {
    let mut scratch = MultiRunScratch::new();
    let mut per_k = Vec::new();
    let (mut total_s, mut total_steps) = (0.0, 0u64);
    for &k in ks {
        let of_k: Vec<&MultiJob> = jobs
            .iter()
            .filter(|j| j.params.num_aircraft() == k)
            .collect();
        if of_k.is_empty() {
            per_k.push(0.0);
            continue;
        }
        let steps: u64 = of_k
            .iter()
            .map(|j| {
                let p = runner.run_multi_pair_reusing(j, &mut scratch);
                multi_arm_steps(&p.equipped) + multi_arm_steps(&p.unequipped)
            })
            .sum();
        let per_pass = time_passes(|| {
            for j in &of_k {
                black_box(runner.run_multi_pair_reusing(j, &mut scratch));
            }
        });
        total_s += per_pass;
        total_steps += steps;
        per_k.push(per_pass * 1e6 / (of_k.len() * k) as f64);
    }
    (per_k, total_s * 1e9 / total_steps.max(1) as f64)
}

/// Wall time of `run` at one executor thread over that at two, on
/// identical jobs (interleaved, median of 3 each).
pub fn pool_speedup(runner: &EncounterRunner, run: impl Fn(&BatchRunner)) -> f64 {
    let one = BatchRunner::new(runner.clone(), Executor::new(1));
    let two = BatchRunner::new(runner.clone(), Executor::new(2));
    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        run(&one);
        t1.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        run(&two);
        t2.push(t.elapsed().as_secs_f64());
    }
    median(&t1) / median(&t2)
}
