use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adsb::ReportNoise;
use crate::{
    AdsbSensor, AvoiderContext, CollisionAvoider, CoordinationBoard, EncounterOutcome,
    ManeuverCommand, ProximityMeasurer, Sense, SimConfig, Trace, UavBody, UavPerformance, UavState,
    Vec3, NMAC_HORIZONTAL_FT, NMAC_VERTICAL_FT,
};

/// The two-UAV encounter world: the headless agent-based simulation loop
/// of the paper's Section VI-C.
///
/// Each step the world (1) broadcasts noisy ADS-B reports, (2) asks both
/// [`CollisionAvoider`]s for a decision under the coordination restrictions
/// in force, (3) commits new coordination messages, (4) advances the UAV
/// dynamics under wind disturbance, and (5) updates the proximity/accident
/// monitors, checking the NMAC condition *continuously* along each step's
/// straight-line motion so fast crossings cannot slip between samples.
#[derive(Debug)]
pub struct EncounterWorld {
    config: SimConfig,
    uavs: [UavBody; 2],
    avoiders: [Box<dyn CollisionAvoider>; 2],
    board: CoordinationBoard,
    sensor: AdsbSensor,
    proximity: ProximityMeasurer,
    nmac: bool,
    first_nmac_time_s: Option<f64>,
    trace: Trace,
    rng: StdRng,
    time_s: f64,
    steps_done: usize,
    alert_steps: [usize; 2],
    first_alert_time_s: Option<f64>,
    reversals: [usize; 2],
    last_sense: [Option<Sense>; 2],
}

impl std::fmt::Debug for Box<dyn CollisionAvoider> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CollisionAvoider({})", self.name())
    }
}

/// Every random variate of one [`EncounterWorld`] step, scaled: the two
/// ADS-B reports' measurement noise (`[of aircraft 1, of aircraft 0]`)
/// and the two gusts (`[aircraft 0, aircraft 1]`).
#[derive(Debug, Clone, Copy)]
struct StepNoise {
    reports: [ReportNoise; 2],
    gusts: [Vec3; 2],
}

/// A point-in-time copy of an [`EncounterWorld`]'s complete mutable
/// state: UAV bodies, avoider advisory memory (via
/// [`CollisionAvoider::clone_boxed`]), coordination board, sensor, RNG
/// stream position, monitors and bookkeeping counters.
///
/// Taken with [`EncounterWorld::snapshot`] and reinstated with
/// [`EncounterWorld::restore`] / [`EncounterWorld::restore_branch`],
/// this is the checkpoint importance splitting branches from: `K`
/// restores of one snapshot with `K` distinct branch seeds yield `K`
/// continuation trajectories that share their history bit-for-bit and
/// diverge only through future noise draws.
///
/// A snapshot does not carry the [`SimConfig`]: restoring into a world
/// with a different config than the one the snapshot was taken from is
/// a logic error (the horizon and noise model would disagree with the
/// recorded counters).
#[derive(Debug)]
pub struct WorldSnapshot {
    uavs: [UavBody; 2],
    avoiders: [Box<dyn CollisionAvoider>; 2],
    board: CoordinationBoard,
    sensor: AdsbSensor,
    proximity: ProximityMeasurer,
    nmac: bool,
    first_nmac_time_s: Option<f64>,
    trace: Trace,
    rng: StdRng,
    time_s: f64,
    steps_done: usize,
    alert_steps: [usize; 2],
    first_alert_time_s: Option<f64>,
    reversals: [usize; 2],
    last_sense: [Option<Sense>; 2],
}

impl Clone for WorldSnapshot {
    fn clone(&self) -> Self {
        Self {
            uavs: self.uavs.clone(),
            avoiders: [
                self.avoiders[0].clone_boxed(),
                self.avoiders[1].clone_boxed(),
            ],
            board: self.board,
            sensor: self.sensor,
            proximity: self.proximity,
            nmac: self.nmac,
            first_nmac_time_s: self.first_nmac_time_s,
            trace: self.trace.clone(),
            rng: self.rng.clone(),
            time_s: self.time_s,
            steps_done: self.steps_done,
            alert_steps: self.alert_steps,
            first_alert_time_s: self.first_alert_time_s,
            reversals: self.reversals,
            last_sense: self.last_sense,
        }
    }
}

impl EncounterWorld {
    /// Creates a world with default UAV performance for both aircraft.
    ///
    /// `initial` holds the initial states of aircraft 0 (own-ship) and 1
    /// (intruder); `avoiders` the corresponding avoidance logics; `seed`
    /// drives every stochastic element of the run (noise, disturbance).
    pub fn new(
        config: SimConfig,
        initial: [UavState; 2],
        avoiders: [Box<dyn CollisionAvoider>; 2],
        seed: u64,
    ) -> Self {
        Self::with_performance(
            config,
            initial,
            [UavPerformance::default(); 2],
            avoiders,
            seed,
        )
    }

    /// Creates a world with per-aircraft performance limits.
    pub fn with_performance(
        config: SimConfig,
        initial: [UavState; 2],
        performance: [UavPerformance; 2],
        avoiders: [Box<dyn CollisionAvoider>; 2],
        seed: u64,
    ) -> Self {
        let sensor = AdsbSensor::new(config.sensor_noise);
        Self {
            config,
            uavs: [
                UavBody::new(initial[0], performance[0]),
                UavBody::new(initial[1], performance[1]),
            ],
            avoiders,
            board: CoordinationBoard::new(),
            sensor,
            proximity: ProximityMeasurer::new(),
            nmac: false,
            first_nmac_time_s: None,
            trace: Trace::new(),
            rng: StdRng::seed_from_u64(seed),
            time_s: 0.0,
            steps_done: 0,
            alert_steps: [0, 0],
            first_alert_time_s: None,
            reversals: [0, 0],
            last_sense: [None, None],
        }
    }

    /// Rearms the world for a fresh encounter, reusing the avoider
    /// allocations (and whatever solved tables they share).
    ///
    /// After `reset`, the world behaves exactly as a newly constructed one
    /// with the same `config`, per-aircraft performance, `initial` states
    /// and `seed`: every monitor, counter, coordination slot and RNG is
    /// reinitialized, and each avoider's [`CollisionAvoider::reset`] clears
    /// its advisory memory. This is the allocation-free hot path batch
    /// evaluation engines loop on — constructing a world per run costs two
    /// boxed avoiders (and, for table-driven logics, their setup) per
    /// encounter, which dominates small-encounter throughput.
    pub fn reset(&mut self, initial: [UavState; 2], seed: u64) {
        for avoider in &mut self.avoiders {
            avoider.reset();
        }
        self.uavs = [
            UavBody::new(initial[0], *self.uavs[0].performance()),
            UavBody::new(initial[1], *self.uavs[1].performance()),
        ];
        self.board.reset();
        self.proximity = ProximityMeasurer::new();
        self.nmac = false;
        self.first_nmac_time_s = None;
        self.trace = Trace::new();
        self.rng = StdRng::seed_from_u64(seed);
        self.time_s = 0.0;
        self.steps_done = 0;
        self.alert_steps = [0, 0];
        self.first_alert_time_s = None;
        self.reversals = [0, 0];
        self.last_sense = [None, None];
    }

    /// Captures the world's complete mutable state as a [`WorldSnapshot`].
    pub fn snapshot(&self) -> WorldSnapshot {
        WorldSnapshot {
            uavs: self.uavs.clone(),
            avoiders: [
                self.avoiders[0].clone_boxed(),
                self.avoiders[1].clone_boxed(),
            ],
            board: self.board,
            sensor: self.sensor,
            proximity: self.proximity,
            nmac: self.nmac,
            first_nmac_time_s: self.first_nmac_time_s,
            trace: self.trace.clone(),
            rng: self.rng.clone(),
            time_s: self.time_s,
            steps_done: self.steps_done,
            alert_steps: self.alert_steps,
            first_alert_time_s: self.first_alert_time_s,
            reversals: self.reversals,
            last_sense: self.last_sense,
        }
    }

    /// Reinstates a snapshot taken from a world with the same
    /// [`SimConfig`] and per-aircraft performance. After `restore` the
    /// world continues bit-identically to the world the snapshot was
    /// taken from, including the RNG stream position.
    pub fn restore(&mut self, snap: &WorldSnapshot) {
        self.uavs = snap.uavs.clone();
        self.avoiders = [
            snap.avoiders[0].clone_boxed(),
            snap.avoiders[1].clone_boxed(),
        ];
        self.board = snap.board;
        self.sensor = snap.sensor;
        self.proximity = snap.proximity;
        self.nmac = snap.nmac;
        self.first_nmac_time_s = snap.first_nmac_time_s;
        self.trace = snap.trace.clone();
        self.rng = snap.rng.clone();
        self.time_s = snap.time_s;
        self.steps_done = snap.steps_done;
        self.alert_steps = snap.alert_steps;
        self.first_alert_time_s = snap.first_alert_time_s;
        self.reversals = snap.reversals;
        self.last_sense = snap.last_sense;
    }

    /// [`restore`](Self::restore)s a snapshot, then replaces the RNG
    /// with a fresh stream seeded by `branch_seed` — the importance
    /// splitting branch operation. Two restores with the same branch
    /// seed replay identically; distinct branch seeds give trajectories
    /// that share history up to the snapshot and diverge after it.
    pub fn restore_branch(&mut self, snap: &WorldSnapshot, branch_seed: u64) {
        self.restore(snap);
        self.rng = StdRng::seed_from_u64(branch_seed);
    }

    /// Current simulation time, s.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Steps taken so far (equals `time_s / config.dt_s`).
    pub fn steps_done(&self) -> usize {
        self.steps_done
    }

    /// Steps left until the configured horizon `config.max_time_s`.
    pub fn steps_remaining(&self) -> usize {
        self.config.num_steps().saturating_sub(self.steps_done)
    }

    /// Whether an NMAC has latched so far in this run.
    pub fn nmac(&self) -> bool {
        self.nmac
    }

    /// Smallest NMAC severity observed so far (see
    /// [`crate::nmac_severity`]); `∞` before [`begin`](Self::begin).
    pub fn min_severity(&self) -> f64 {
        self.proximity.min_severity()
    }

    /// The current state of aircraft `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not 0 or 1.
    pub fn uav_state(&self, id: usize) -> &UavState {
        self.uavs[id].state()
    }

    /// The recorded trace (empty unless `config.record_trace` was set).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Advances the world by one step: draws the step's noise, then
    /// applies it.
    pub fn step(&mut self) {
        let noise = self.draw_noise();
        self.apply(&noise);
    }

    /// Draws every random variate of one step, in the order the step
    /// consumes them: the ADS-B report of aircraft 1 (received by 0), the
    /// report of aircraft 0 (received by 1), then the gusts of aircraft 0
    /// and 1. No draw depends on a decision, which is what lets
    /// [`run_paired`](Self::run_paired) feed one draw to two worlds.
    fn draw_noise(&mut self) -> StepNoise {
        let report_of_1 = self.sensor.draw(&mut self.rng);
        let report_of_0 = self.sensor.draw(&mut self.rng);
        let gust_0 = self.config.disturbance.sample_gust(&mut self.rng);
        let gust_1 = self.config.disturbance.sample_gust(&mut self.rng);
        StepNoise {
            reports: [report_of_1, report_of_0],
            gusts: [gust_0, gust_1],
        }
    }

    /// Senses, decides and advances one step under an already drawn
    /// `noise`.
    fn apply(&mut self, noise: &StepNoise) {
        let commands = self.decide(noise);
        self.advance(commands, noise);
    }

    /// Phases 1–2: each aircraft receives the noisy report of the other
    /// and decides under the coordination restriction in force. Changes
    /// nothing but the avoiders' advisory memory.
    fn decide(&mut self, noise: &StepNoise) -> [Option<ManeuverCommand>; 2] {
        let dt = self.config.dt_s;
        let reports = [
            self.sensor
                .apply(1, self.uavs[1].state(), self.time_s, &noise.reports[0]),
            self.sensor
                .apply(0, self.uavs[0].state(), self.time_s, &noise.reports[1]),
        ];
        let mut commands = [None; 2];
        for (id, command) in commands.iter_mut().enumerate() {
            let forbidden = if self.config.coordination {
                self.board.restriction_for(id)
            } else {
                None
            };
            let ctx = AvoiderContext {
                own: self.uavs[id].state(),
                intruder: &reports[id],
                forbidden_sense: forbidden,
                time_s: self.time_s,
                dt_s: dt,
            };
            *command = self.avoiders[id].decide(&ctx);
        }
        commands
    }

    /// Phases 3–5: commits the decisions, records the trace, moves both
    /// aircraft under the drawn gusts and updates the monitors.
    fn advance(&mut self, commands: [Option<ManeuverCommand>; 2], noise: &StepNoise) {
        let dt = self.config.dt_s;
        let mut advisories: [&'static str; 2] = ["COC", "COC"];
        for (id, command) in commands.into_iter().enumerate() {
            match command {
                Some(cmd) => {
                    self.uavs[id].command_vertical_rate(cmd.target_vertical_rate_fps);
                    self.board.post(id, Some(cmd.sense));
                    advisories[id] = cmd.label;
                    self.alert_steps[id] += 1;
                    if self.first_alert_time_s.is_none() {
                        self.first_alert_time_s = Some(self.time_s);
                    }
                    if let Some(prev) = self.last_sense[id] {
                        if prev == cmd.sense.opposite() {
                            self.reversals[id] += 1;
                        }
                    }
                    self.last_sense[id] = Some(cmd.sense);
                }
                None => {
                    self.uavs[id].clear_command();
                    self.board.post(id, None);
                    self.last_sense[id] = None;
                }
            }
        }

        // 3. Coordination messages posted this step bind from next step.
        self.board.commit();

        if self.config.record_trace {
            let own = *self.uavs[0].state();
            let intr = *self.uavs[1].state();
            self.trace
                .record(self.time_s, &own, &intr, advisories[0], advisories[1]);
        }

        // 4. Dynamics under disturbance.
        let before = [self.uavs[0].state().position, self.uavs[1].state().position];
        self.uavs[0].step_with_gust(dt, noise.gusts[0]);
        self.uavs[1].step_with_gust(dt, noise.gusts[1]);
        let after = [self.uavs[0].state().position, self.uavs[1].state().position];

        // 5. Continuous monitoring along the step's straight-line motion.
        let rel0 = before[0] - before[1];
        let rel1 = after[0] - after[1];
        let (s_min, d_min) = segment_min_separation(rel0, rel1);
        let t_at_min = self.time_s + s_min * dt;
        // Feed the proximity measurer with the interpolated closest states.
        let own_interp = UavState::new(
            before[0].lerp(after[0], s_min),
            self.uavs[0].state().velocity,
        );
        let intr_interp = UavState::new(
            before[1].lerp(after[1], s_min),
            self.uavs[1].state().velocity,
        );
        debug_assert!((own_interp.position.distance(intr_interp.position) - d_min).abs() < 1e-6);
        self.proximity.observe(&own_interp, &intr_interp, t_at_min);
        self.proximity
            .observe(self.uavs[0].state(), self.uavs[1].state(), self.time_s + dt);
        if !self.nmac {
            if let Some(s) = segment_nmac(rel0, rel1) {
                self.nmac = true;
                self.first_nmac_time_s = Some(self.time_s + s * dt);
            }
        }

        self.time_s += dt;
        self.steps_done += 1;
    }

    /// Records the `t = 0` observation and instant-NMAC check that
    /// [`run`](Self::run) performs before its first step. Incremental
    /// drivers (importance splitting) call this once after
    /// construction/[`reset`](Self::reset), then advance with
    /// [`step`](Self::step) / [`advance_to_severity`](Self::advance_to_severity).
    pub fn begin(&mut self) {
        // Observe the initial geometry so instant conflicts are counted.
        self.proximity
            .observe(self.uavs[0].state(), self.uavs[1].state(), 0.0);
        let rel = self.uavs[0].state().position - self.uavs[1].state().position;
        if rel.horizontal_norm() < NMAC_HORIZONTAL_FT && rel.z.abs() < NMAC_VERTICAL_FT {
            self.nmac = true;
            self.first_nmac_time_s = Some(0.0);
        }
    }

    /// Steps until the tracked minimum severity drops strictly below
    /// `threshold`, an NMAC latches, or the horizon is exhausted —
    /// whichever comes first. Returns the number of steps taken.
    ///
    /// Severity is monotonically non-increasing, so for a descending
    /// threshold ladder each call resumes where the previous crossing
    /// stopped; `threshold = 0.0` never matches (severity is
    /// non-negative) and therefore means "run until NMAC or horizon".
    pub fn advance_to_severity(&mut self, threshold: f64) -> usize {
        let total = self.config.num_steps();
        let mut taken = 0;
        while self.steps_done < total && !self.nmac && self.proximity.min_severity() >= threshold {
            self.step();
            taken += 1;
        }
        taken
    }

    /// Runs the encounter to `config.max_time_s` and returns the outcome.
    pub fn run(&mut self) -> EncounterOutcome {
        self.begin();
        let steps = self.config.num_steps();
        while self.steps_done < steps {
            self.step();
        }
        self.outcome()
    }

    /// Runs this world and its unequipped `twin` as one paired job:
    /// returns what [`run`](Self::run) on each world would return,
    /// `(self, twin)`, bit for bit, with both worlds left in the state
    /// their own `run` would leave them in.
    ///
    /// The pair is flown on this world's seed and initial states; the
    /// twin's own state, seed and RNG are ignored. Until some decision
    /// first alerts, both worlds would step identically (every decision
    /// is "clear of conflict"), so only this world steps. At the step
    /// where a decision first alerts, the twin takes this world's
    /// pre-decision state (bodies, board, sensor, monitors, RNG,
    /// counters and trace). From then on one noise draw per step, made
    /// by this world, drives both: the draw count of a step does not
    /// depend on any decision, so the twin's own RNG would have drawn the
    /// same variates. If nothing ever alerts, the twin's outcome is this
    /// world's.
    ///
    /// `twin` must share this world's [`SimConfig`], and its avoiders
    /// must never alert ([`crate::Unequipped`]); the per-aircraft
    /// performance travels with the copied bodies.
    pub fn run_paired(
        &mut self,
        twin: &mut EncounterWorld,
    ) -> (EncounterOutcome, EncounterOutcome) {
        debug_assert_eq!(self.config, twin.config, "the twin must share the config");
        self.begin();
        let steps = self.config.num_steps();
        while self.steps_done < steps {
            let noise = self.draw_noise();
            let commands = self.decide(&noise);
            if commands.iter().any(Option::is_some) {
                twin.copy_state_from(self);
                twin.apply(&noise);
                self.advance(commands, &noise);
                while self.steps_done < steps {
                    let noise = self.draw_noise();
                    self.apply(&noise);
                    twin.apply(&noise);
                }
                twin.rng.clone_from(&self.rng);
                debug_assert_eq!(twin.alert_steps, [0, 0], "the twin must not alert");
                return (self.outcome(), twin.outcome());
            }
            self.advance(commands, &noise);
        }
        twin.copy_state_from(self);
        let outcome = self.outcome();
        (outcome, outcome)
    }

    /// Takes `other`'s complete simulation state except its config and
    /// avoiders.
    fn copy_state_from(&mut self, other: &EncounterWorld) {
        self.uavs.clone_from(&other.uavs);
        self.board = other.board;
        self.sensor = other.sensor;
        self.proximity = other.proximity;
        self.nmac = other.nmac;
        self.first_nmac_time_s = other.first_nmac_time_s;
        self.trace.clone_from(&other.trace);
        self.rng.clone_from(&other.rng);
        self.time_s = other.time_s;
        self.steps_done = other.steps_done;
        self.alert_steps = other.alert_steps;
        self.first_alert_time_s = other.first_alert_time_s;
        self.reversals = other.reversals;
        self.last_sense = other.last_sense;
    }

    /// The outcome so far (valid mid-run as well as after [`run`](Self::run)).
    pub fn outcome(&self) -> EncounterOutcome {
        EncounterOutcome {
            nmac: self.nmac,
            first_nmac_time_s: self.first_nmac_time_s,
            min_separation_ft: self.proximity.min_separation_ft(),
            min_horizontal_ft: self.proximity.min_horizontal_ft(),
            min_vertical_ft: self.proximity.min_vertical_ft(),
            time_of_min_s: self.proximity.time_of_min_s(),
            own_alert_steps: self.alert_steps[0],
            intruder_alert_steps: self.alert_steps[1],
            first_alert_time_s: self.first_alert_time_s,
            own_reversals: self.reversals[0],
            duration_s: self.time_s,
        }
    }
}

/// Minimum separation along the straight-line relative motion from `rel0`
/// to `rel1` (parametrized `s ∈ [0, 1]`). Returns `(s_at_min, distance)`.
pub(crate) fn segment_min_separation(rel0: Vec3, rel1: Vec3) -> (f64, f64) {
    let d = rel1 - rel0;
    let dd = d.dot(d);
    let s = if dd < 1e-12 {
        0.0
    } else {
        (-rel0.dot(d) / dd).clamp(0.0, 1.0)
    };
    let at = rel0 + d * s;
    (s, at.norm())
}

/// Whether the NMAC cylinder (horizontal < 500 ft AND vertical < 100 ft)
/// is entered anywhere along the relative motion `rel0 → rel1`; returns the
/// earliest such `s ∈ [0, 1]`.
pub(crate) fn segment_nmac(rel0: Vec3, rel1: Vec3) -> Option<f64> {
    // Vertical window: |z0 + s dz| < 100.
    let z0 = rel0.z;
    let dz = rel1.z - rel0.z;
    let (v_lo, v_hi) = interval_abs_lt(z0, dz, NMAC_VERTICAL_FT)?;
    // Horizontal window: |h0 + s dh|^2 < 500^2, a quadratic in s.
    let h0x = rel0.x;
    let h0y = rel0.y;
    let dhx = rel1.x - rel0.x;
    let dhy = rel1.y - rel0.y;
    let a = dhx * dhx + dhy * dhy;
    let b = 2.0 * (h0x * dhx + h0y * dhy);
    let c = h0x * h0x + h0y * h0y - NMAC_HORIZONTAL_FT * NMAC_HORIZONTAL_FT;
    let (h_lo, h_hi) = interval_quadratic_lt_zero(a, b, c)?;
    let lo = v_lo.max(h_lo).max(0.0);
    let hi = v_hi.min(h_hi).min(1.0);
    if lo <= hi {
        Some(lo)
    } else {
        None
    }
}

/// Solves `|z0 + s*dz| < bound` for `s`, intersected with `[0, 1]`.
fn interval_abs_lt(z0: f64, dz: f64, bound: f64) -> Option<(f64, f64)> {
    if dz.abs() < 1e-12 {
        return if z0.abs() < bound {
            Some((0.0, 1.0))
        } else {
            None
        };
    }
    let s1 = (-bound - z0) / dz;
    let s2 = (bound - z0) / dz;
    let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
    let lo = lo.max(0.0);
    let hi = hi.min(1.0);
    if lo <= hi {
        Some((lo, hi))
    } else {
        None
    }
}

/// Solves `a s² + b s + c < 0` for `s`, intersected with `[0, 1]`.
fn interval_quadratic_lt_zero(a: f64, b: f64, c: f64) -> Option<(f64, f64)> {
    if a.abs() < 1e-12 {
        // Linear: b s + c < 0.
        if b.abs() < 1e-12 {
            return if c < 0.0 { Some((0.0, 1.0)) } else { None };
        }
        let root = -c / b;
        let (lo, hi) = if b > 0.0 {
            (f64::NEG_INFINITY, root)
        } else {
            (root, f64::INFINITY)
        };
        let lo = lo.max(0.0);
        let hi = hi.min(1.0);
        return if lo <= hi { Some((lo, hi)) } else { None };
    }
    let disc = b * b - 4.0 * a * c;
    if disc <= 0.0 {
        // No real roots: the parabola never crosses zero. For a > 0 it is
        // always positive (never < 0); relative horizontal motion always
        // has a >= 0 here.
        return if a < 0.0 { Some((0.0, 1.0)) } else { None };
    }
    let sq = disc.sqrt();
    let r1 = (-b - sq) / (2.0 * a);
    let r2 = (-b + sq) / (2.0 * a);
    let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
    let lo = lo.max(0.0);
    let hi = hi.min(1.0);
    if lo <= hi {
        Some((lo, hi))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Unequipped;

    fn head_on(distance_ft: f64, speed_fps: f64) -> [UavState; 2] {
        [
            UavState::new(Vec3::ZERO, Vec3::new(speed_fps, 0.0, 0.0)),
            UavState::new(
                Vec3::new(distance_ft, 0.0, 0.0),
                Vec3::new(-speed_fps, 0.0, 0.0),
            ),
        ]
    }

    fn unequipped_pair() -> [Box<dyn CollisionAvoider>; 2] {
        [Box::new(Unequipped::new()), Box::new(Unequipped::new())]
    }

    #[test]
    fn head_on_without_avoidance_is_nmac() {
        let mut w = EncounterWorld::new(
            SimConfig::deterministic(),
            head_on(8000.0, 150.0),
            unequipped_pair(),
            1,
        );
        let o = w.run();
        assert!(o.nmac);
        assert!(o.min_separation_ft < 1.0);
        // CPA is at ~26.7 s (8000 / 300).
        assert!((o.first_nmac_time_s.unwrap() - 8000.0 / 300.0).abs() < 2.0);
        assert_eq!(o.own_alert_steps, 0);
        assert!(!o.alerted());
    }

    #[test]
    fn fast_crossing_is_detected_between_samples() {
        // Relative speed 2000 ft/s crosses the whole NMAC cylinder inside
        // one 1-second step; endpoint sampling alone would miss it.
        let mut w = EncounterWorld::new(
            SimConfig::deterministic(),
            head_on(10_000.0, 1000.0),
            unequipped_pair(),
            2,
        );
        let o = w.run();
        assert!(o.nmac, "continuous NMAC check must catch the crossing");
        assert!(o.min_separation_ft < 1.0, "min sep {}", o.min_separation_ft);
    }

    #[test]
    fn vertically_separated_paths_are_safe() {
        let mut init = head_on(8000.0, 150.0);
        init[1].position.z = 1000.0;
        let mut w = EncounterWorld::new(SimConfig::deterministic(), init, unequipped_pair(), 3);
        let o = w.run();
        assert!(!o.nmac);
        assert!((o.min_separation_ft - 1000.0).abs() < 1.0);
        assert!((o.min_vertical_ft - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn outcome_is_deterministic_for_a_seed() {
        let run = |seed| {
            let mut w = EncounterWorld::new(
                SimConfig::default(),
                head_on(8000.0, 150.0),
                unequipped_pair(),
                seed,
            );
            w.run()
        };
        let a = run(77);
        let b = run(77);
        let c = run(78);
        assert_eq!(a, b, "same seed, same outcome");
        assert_ne!(
            a.min_separation_ft, c.min_separation_ft,
            "different seeds should differ under noise"
        );
    }

    #[test]
    fn trace_is_recorded_when_enabled() {
        let mut cfg = SimConfig::deterministic();
        cfg.record_trace = true;
        cfg.max_time_s = 20.0;
        let mut w = EncounterWorld::new(cfg, head_on(8000.0, 150.0), unequipped_pair(), 4);
        w.run();
        assert_eq!(w.trace().len(), 20);
    }

    /// An avoider that flips its commanded sense every step — for
    /// exercising the reversal bookkeeping.
    #[derive(Debug)]
    struct Flapper {
        up: bool,
    }

    impl crate::CollisionAvoider for Flapper {
        fn decide(&mut self, _ctx: &crate::AvoiderContext<'_>) -> Option<crate::ManeuverCommand> {
            self.up = !self.up;
            Some(crate::ManeuverCommand {
                target_vertical_rate_fps: if self.up { 10.0 } else { -10.0 },
                sense: if self.up {
                    crate::Sense::Up
                } else {
                    crate::Sense::Down
                },
                label: if self.up { "UP" } else { "DOWN" },
            })
        }
        fn reset(&mut self) {
            self.up = false;
        }
        fn name(&self) -> &'static str {
            "flapper"
        }
        fn clone_boxed(&self) -> Box<dyn crate::CollisionAvoider> {
            Box::new(Flapper { up: self.up })
        }
    }

    #[test]
    fn reversals_and_alert_steps_are_counted() {
        let mut cfg = SimConfig::deterministic();
        cfg.max_time_s = 10.0;
        let mut w = EncounterWorld::new(
            cfg,
            head_on(50_000.0, 150.0),
            [Box::new(Flapper { up: false }), Box::new(Unequipped::new())],
            1,
        );
        let o = w.run();
        assert_eq!(o.own_alert_steps, 10, "flapper alerts every step");
        // Every step after the first flips the sense: 9 reversals.
        assert_eq!(o.own_reversals, 9);
        assert_eq!(o.intruder_alert_steps, 0);
        assert_eq!(o.first_alert_time_s, Some(0.0));
    }

    #[test]
    fn reset_world_matches_fresh_world_bit_for_bit() {
        let init_a = head_on(8000.0, 150.0);
        let mut init_b = head_on(9000.0, 170.0);
        init_b[1].position.z = 80.0;
        // Fresh worlds for reference outcomes.
        let fresh = |init: [UavState; 2], seed| {
            EncounterWorld::new(SimConfig::default(), init, unequipped_pair(), seed).run()
        };
        // One world, reset between runs — including after a mid-run abort
        // and with an avoider carrying advisory state.
        let mut w = EncounterWorld::new(
            SimConfig::default(),
            init_a,
            [Box::new(Flapper { up: false }), Box::new(Unequipped::new())],
            7,
        );
        for _ in 0..3 {
            w.step(); // dirty every piece of internal state
        }
        w.reset(init_a, 41);
        let flapper_outcome = w.run();
        let fresh_flapper = EncounterWorld::new(
            SimConfig::default(),
            init_a,
            [Box::new(Flapper { up: false }), Box::new(Unequipped::new())],
            41,
        )
        .run();
        assert_eq!(flapper_outcome, fresh_flapper, "avoider state must reset");

        let mut w = EncounterWorld::new(SimConfig::default(), init_a, unequipped_pair(), 7);
        w.run();
        w.reset(init_b, 99);
        assert_eq!(w.run(), fresh(init_b, 99), "reset must equal construction");
        w.reset(init_a, 7);
        assert_eq!(w.run(), fresh(init_a, 7), "reset back to the first case");
    }

    #[test]
    fn restored_branch_is_bit_identical_to_first_continuation() {
        // Noisy config and a stateful avoider: every piece of snapshot
        // state (RNG position, advisory memory, counters) matters here.
        let mut w = EncounterWorld::new(
            SimConfig::default(),
            head_on(8000.0, 150.0),
            [Box::new(Flapper { up: false }), Box::new(Unequipped::new())],
            7,
        );
        w.begin();
        for _ in 0..5 {
            w.step();
        }
        let snap = w.snapshot();

        // Continuation A from the snapshot under branch seed 1234.
        w.restore_branch(&snap, 1234);
        while w.steps_remaining() > 0 {
            w.step();
        }
        let a = w.outcome();

        // Thoroughly dirty the world (full fresh run), then replay the
        // same branch: must match A bit-for-bit.
        w.reset(head_on(9000.0, 170.0), 999);
        w.run();
        w.restore_branch(&snap, 1234);
        while w.steps_remaining() > 0 {
            w.step();
        }
        assert_eq!(w.outcome(), a, "same snapshot + branch seed must replay");

        // A different branch seed shares the history but diverges after
        // the checkpoint under disturbance noise.
        w.restore_branch(&snap, 1235);
        while w.steps_remaining() > 0 {
            w.step();
        }
        let b = w.outcome();
        assert_ne!(
            a.min_separation_ft, b.min_separation_ft,
            "distinct branch seeds should diverge under noise"
        );
    }

    #[test]
    fn plain_restore_resumes_the_original_stream() {
        // Run a world straight through; then replay it from a mid-run
        // snapshot with restore() (same RNG stream, not a branch): the
        // final outcome must equal the uninterrupted run.
        let mut reference = EncounterWorld::new(
            SimConfig::default(),
            head_on(8000.0, 150.0),
            unequipped_pair(),
            21,
        );
        let expected = reference.run();

        let mut w = EncounterWorld::new(
            SimConfig::default(),
            head_on(8000.0, 150.0),
            unequipped_pair(),
            21,
        );
        w.begin();
        for _ in 0..7 {
            w.step();
        }
        let snap = w.snapshot();
        w.run(); // dirty: runs the remaining horizon
        w.restore(&snap);
        while w.steps_remaining() > 0 {
            w.step();
        }
        assert_eq!(w.outcome(), expected);
    }

    #[test]
    fn advance_to_severity_stops_at_first_crossing() {
        let mut w = EncounterWorld::new(
            SimConfig::deterministic(),
            head_on(8000.0, 150.0),
            unequipped_pair(),
            1,
        );
        w.begin();
        let before = w.min_severity();
        assert!(before > 4.0, "head-on at 8000 ft starts far outside");
        let taken = w.advance_to_severity(4.0);
        assert!(taken > 0);
        assert!(w.min_severity() < 4.0, "crossed the requested threshold");
        assert!(
            w.min_severity() >= 1.0 || w.nmac(),
            "should not silently overshoot into the cylinder without latching"
        );
        // threshold 0.0 = run until NMAC or horizon; head-on unequipped
        // reaches NMAC.
        w.advance_to_severity(0.0);
        assert!(w.nmac());
        // Finishing the horizon afterwards reproduces the plain-run
        // outcome for this deterministic config.
        while w.steps_remaining() > 0 {
            w.step();
        }
        let full = EncounterWorld::new(
            SimConfig::deterministic(),
            head_on(8000.0, 150.0),
            unequipped_pair(),
            1,
        )
        .run();
        assert_eq!(w.outcome(), full);
    }

    #[test]
    fn outcome_is_queryable_mid_run() {
        let mut w = EncounterWorld::new(
            SimConfig::deterministic(),
            head_on(8000.0, 150.0),
            unequipped_pair(),
            1,
        );
        for _ in 0..5 {
            w.step();
        }
        let mid = w.outcome();
        assert_eq!(mid.duration_s, 5.0);
        assert!(!mid.nmac, "no NMAC after only 5 s");
        assert!(mid.min_separation_ft < 8000.0, "closing already");
        assert_eq!(w.time_s(), 5.0);
        assert!(w.uav_state(0).position.x > 0.0);
    }

    #[test]
    fn segment_min_separation_midpoint() {
        // Relative motion passes through the origin at s = 0.5.
        let (s, d) =
            segment_min_separation(Vec3::new(-100.0, 0.0, 0.0), Vec3::new(100.0, 0.0, 0.0));
        assert!((s - 0.5).abs() < 1e-12);
        assert!(d < 1e-9);
    }

    #[test]
    fn segment_min_separation_endpoint() {
        // Moving away: minimum at s = 0.
        let (s, d) = segment_min_separation(Vec3::new(100.0, 0.0, 0.0), Vec3::new(300.0, 0.0, 0.0));
        assert_eq!(s, 0.0);
        assert!((d - 100.0).abs() < 1e-12);
    }

    #[test]
    fn segment_nmac_requires_cylinder_overlap() {
        // Passes 600 ft abeam: no NMAC even though vertical is 0.
        let r = segment_nmac(
            Vec3::new(-5000.0, 600.0, 0.0),
            Vec3::new(5000.0, 600.0, 0.0),
        );
        assert!(r.is_none());
        // Passes 300 ft abeam at 0 vertical: NMAC.
        let r = segment_nmac(
            Vec3::new(-5000.0, 300.0, 0.0),
            Vec3::new(5000.0, 300.0, 0.0),
        );
        assert!(r.is_some());
        // Passes 300 ft abeam but 150 ft above: no NMAC.
        let r = segment_nmac(
            Vec3::new(-5000.0, 300.0, 150.0),
            Vec3::new(5000.0, 300.0, 150.0),
        );
        assert!(r.is_none());
    }

    #[test]
    fn segment_nmac_stationary_inside() {
        assert_eq!(
            segment_nmac(Vec3::new(10.0, 0.0, 5.0), Vec3::new(10.0, 0.0, 5.0)),
            Some(0.0)
        );
    }
}
