//! The encounter world: n aircraft sharing one airspace volume, with
//! per-pair proximity/NMAC monitoring and two selectable coordination
//! configurations. [`EncounterWorld`] is its two-ship view.
//!
//! # Equipage configurations
//!
//! * [`MultiMode::Pairwise`] — pairwise composition: each aircraft runs
//!   its unmodified [`CollisionAvoider`] against the single most urgent
//!   threat among the reports it receives, coordinating only with that
//!   threat ([`MultiCoordinationBoard::restriction_between`]). This is
//!   the "compose the certified two-ship logic" deployment model, and at
//!   k = 2 it is the paper's two-ship engine.
//! * [`MultiMode::Coordinated`] — coordinated deconfliction: each
//!   aircraft still resolves against its most urgent threat, but the
//!   restriction it honors is the union of every clearance in force
//!   across the airspace ([`MultiCoordinationBoard::forbidden_set`]),
//!   delivered through [`CollisionAvoider::decide_multi`]. With ≥ 3
//!   aircraft both senses can be forbidden at once.
//!
//! # One step, one draw order
//!
//! A step draws first and then applies what it drew:
//!
//! 1. *draw:* the k(k−1) ADS-B report noises, receiver-major (each
//!    receiver's senders in id order, six normals per report whatever
//!    the sigmas), then the k gusts in id order (none when both gust
//!    sigmas are 0);
//! 2. *decide:* each aircraft senses its traffic, selects its most urgent
//!    threat and decides under the restriction in force (decisions draw
//!    nothing);
//! 3. *advance:* the decisions are committed to the bodies and the board,
//!    the trace records aircraft 0 and 1, the bodies move under the drawn
//!    gusts, and every pair's monitor checks the step's straight-line
//!    motion.
//!
//! Because no draw depends on a decision, two worlds that differ only in
//! their avoiders consume the same variates step for step. That is what
//! lets [`MultiEncounterWorld::run_paired`] fly an equipped world and its
//! unequipped twin on one draw per step.
//!
//! At k = 2 the draw order is the one the retired two-ship step used
//! (report of 1, report of 0, gust of 0, gust of 1), so the paper's
//! paired estimates keep their bits; `multi_k2_oracle` in
//! `uavca-validation` pins them to frozen digests.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::adsb::ReportNoise;
use crate::world::{segment_min_separation, segment_nmac};
use crate::{
    AdsbReport, AdsbSensor, AvoiderContext, CollisionAvoider, EncounterOutcome, ManeuverCommand,
    MultiCoordinationBoard, ProximityMeasurer, Sense, SenseSet, SimConfig, Trace, UavBody,
    UavPerformance, UavState, Vec3, NMAC_HORIZONTAL_FT, NMAC_VERTICAL_FT,
};

#[cfg(doc)]
use crate::EncounterWorld;

/// How the k aircraft compose their avoidance logics (see the module
/// docs for the two deployment models).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MultiMode {
    /// Each aircraft coordinates only with its selected threat, exactly
    /// like the two-ship engine.
    Pairwise,
    /// Each aircraft honors every sense clearance in force across the
    /// airspace (global deconfliction).
    Coordinated,
}

impl MultiMode {
    /// A short stable label for reports and seeds.
    pub fn label(self) -> &'static str {
        match self {
            MultiMode::Pairwise => "pairwise",
            MultiMode::Coordinated => "coordinated",
        }
    }
}

/// Canonical index of the unordered aircraft pair `(a, b)` (`a < b`)
/// among the `n·(n−1)/2` pairs of an `n`-aircraft world, in
/// lexicographic order: (0,1), (0,2), …, (0,n−1), (1,2), ….
///
/// # Panics
///
/// Panics if `a >= b` or `b >= n`.
pub fn pair_index(a: usize, b: usize, n: usize) -> usize {
    assert!(a < b && b < n, "pair ({a}, {b}) out of range for n = {n}");
    a * n - a * (a + 1) / 2 + (b - a - 1)
}

/// All unordered pairs of `0..n` in the canonical lexicographic order of
/// [`pair_index`].
pub fn pairs(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n).flat_map(move |a| (a + 1..n).map(move |b| (a, b)))
}

/// Proximity/NMAC record for one aircraft pair over a multi-aircraft
/// run — the per-pair slice of what [`EncounterOutcome`] reports for the
/// single pair of a two-ship run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairOutcome {
    /// Lower aircraft id of the pair.
    pub a: usize,
    /// Higher aircraft id of the pair.
    pub b: usize,
    /// Whether this pair entered the NMAC cylinder.
    pub nmac: bool,
    /// Time of this pair's first NMAC, s (if any).
    pub first_nmac_time_s: Option<f64>,
    /// Minimum 3-D separation of the pair over the run, ft.
    pub min_separation_ft: f64,
    /// Minimum horizontal separation of the pair, ft.
    pub min_horizontal_ft: f64,
    /// Minimum vertical separation of the pair, ft.
    pub min_vertical_ft: f64,
    /// Time of the pair's closest point of approach, s.
    pub time_of_min_s: f64,
}

/// Aggregated result of one k-aircraft encounter run: per-pair
/// proximity records plus per-aircraft alerting statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiEncounterOutcome {
    /// One record per unordered aircraft pair, in [`pair_index`] order.
    pub pairs: Vec<PairOutcome>,
    /// Steps at which each aircraft had an active maneuver command.
    pub alert_steps: Vec<usize>,
    /// Sense reversals commanded by each aircraft.
    pub reversals: Vec<usize>,
    /// Time of the first alert issued by any aircraft, s.
    pub first_alert_time_s: Option<f64>,
    /// Total simulated duration, s.
    pub duration_s: f64,
}

impl MultiEncounterOutcome {
    /// Number of aircraft in the run.
    pub fn num_aircraft(&self) -> usize {
        self.alert_steps.len()
    }

    /// Whether any pair experienced an NMAC.
    pub fn nmac_any(&self) -> bool {
        self.pairs.iter().any(|p| p.nmac)
    }

    /// Number of pairs that experienced an NMAC.
    pub fn nmac_count(&self) -> usize {
        self.pairs.iter().filter(|p| p.nmac).count()
    }

    /// The record for the unordered pair `{a, b}`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either id is out of range.
    pub fn pair(&self, a: usize, b: usize) -> &PairOutcome {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        &self.pairs[pair_index(lo, hi, self.num_aircraft())]
    }

    /// Projects a k = 2 outcome onto the two-ship [`EncounterOutcome`],
    /// field for field what [`MultiEncounterWorld::pairwise_outcome`]
    /// reports for the same run.
    ///
    /// # Panics
    ///
    /// Panics unless the run had exactly two aircraft.
    pub fn to_pairwise(&self) -> EncounterOutcome {
        assert_eq!(self.num_aircraft(), 2, "pairwise projection needs k = 2");
        project(
            &self.pairs[0],
            [self.alert_steps[0], self.alert_steps[1]],
            self.reversals[0],
            self.first_alert_time_s,
            self.duration_s,
        )
    }
}

/// The two-ship outcome of pair (0, 1) and the two aircraft's alerting.
fn project(
    pair: &PairOutcome,
    alert_steps: [usize; 2],
    own_reversals: usize,
    first_alert_time_s: Option<f64>,
    duration_s: f64,
) -> EncounterOutcome {
    EncounterOutcome {
        nmac: pair.nmac,
        first_nmac_time_s: pair.first_nmac_time_s,
        min_separation_ft: pair.min_separation_ft,
        min_horizontal_ft: pair.min_horizontal_ft,
        min_vertical_ft: pair.min_vertical_ft,
        time_of_min_s: pair.time_of_min_s,
        own_alert_steps: alert_steps[0],
        intruder_alert_steps: alert_steps[1],
        first_alert_time_s,
        own_reversals,
        duration_s,
    }
}

/// One aircraft: its body and its alerting record.
#[derive(Debug, Clone)]
struct Aircraft {
    body: UavBody,
    alert_steps: usize,
    reversals: usize,
    last_sense: Option<Sense>,
}

impl Aircraft {
    fn new(state: UavState) -> Self {
        Self {
            body: UavBody::new(state, UavPerformance::default()),
            alert_steps: 0,
            reversals: 0,
            last_sense: None,
        }
    }

    /// Commits this step's decision; returns whether it alerted.
    fn commit(&mut self, command: Option<&ManeuverCommand>) -> bool {
        let Some(cmd) = command else {
            self.body.clear_command();
            self.last_sense = None;
            return false;
        };
        self.body
            .command_vertical_rate(cmd.target_vertical_rate_fps);
        self.alert_steps += 1;
        if self.last_sense == Some(cmd.sense.opposite()) {
            self.reversals += 1;
        }
        self.last_sense = Some(cmd.sense);
        true
    }
}

/// The proximity monitor and NMAC latch of one aircraft pair.
#[derive(Debug, Clone, Copy)]
struct PairMonitor {
    proximity: ProximityMeasurer,
    first_nmac_time_s: Option<f64>,
}

impl PairMonitor {
    const NEW: Self = Self {
        proximity: ProximityMeasurer::new(),
        first_nmac_time_s: None,
    };

    /// The `t = 0` observation and instant-NMAC check.
    fn begin(&mut self, a: &UavState, b: &UavState) {
        self.proximity.observe(a, b, 0.0);
        let rel = a.position - b.position;
        if rel.horizontal_norm() < NMAC_HORIZONTAL_FT && rel.z.abs() < NMAC_VERTICAL_FT {
            self.first_nmac_time_s = Some(0.0);
        }
    }

    /// Continuous monitoring along one step's straight-line motion from
    /// the positions `before` to the states `a` and `b`, starting at
    /// `time_s`.
    fn observe_step(
        &mut self,
        before: [Vec3; 2],
        a: &UavState,
        b: &UavState,
        time_s: f64,
        dt: f64,
    ) {
        let rel0 = before[0] - before[1];
        let rel1 = a.position - b.position;
        let (s_min, d_min) = segment_min_separation(rel0, rel1);
        let a_interp = UavState::new(before[0].lerp(a.position, s_min), a.velocity);
        let b_interp = UavState::new(before[1].lerp(b.position, s_min), b.velocity);
        debug_assert!((a_interp.position.distance(b_interp.position) - d_min).abs() < 1e-6);
        self.proximity
            .observe(&a_interp, &b_interp, time_s + s_min * dt);
        self.proximity.observe(a, b, time_s + dt);
        if self.first_nmac_time_s.is_none() {
            if let Some(s) = segment_nmac(rel0, rel1) {
                self.first_nmac_time_s = Some(time_s + s * dt);
            }
        }
    }

    fn outcome(&self, a: usize, b: usize) -> PairOutcome {
        PairOutcome {
            a,
            b,
            nmac: self.first_nmac_time_s.is_some(),
            first_nmac_time_s: self.first_nmac_time_s,
            min_separation_ft: self.proximity.min_separation_ft(),
            min_horizontal_ft: self.proximity.min_horizontal_ft(),
            min_vertical_ft: self.proximity.min_vertical_ft(),
            time_of_min_s: self.proximity.time_of_min_s(),
        }
    }
}

/// Everything a step changes apart from the avoiders' advisory memory:
/// bodies and alerting records, coordination board, pair monitors,
/// trace, RNG stream position and clock.
#[derive(Debug, Clone)]
struct WorldState {
    aircraft: Vec<Aircraft>,
    board: MultiCoordinationBoard,
    /// Per-pair monitors, [`pair_index`] order.
    pairs: Vec<PairMonitor>,
    trace: Trace,
    rng: StdRng,
    time_s: f64,
    steps_done: usize,
    first_alert_time_s: Option<f64>,
}

impl WorldState {
    /// Takes `other`'s values, reusing this state's buffers.
    fn assign(&mut self, other: &WorldState) {
        self.aircraft.clone_from(&other.aircraft);
        self.board.clone_from(&other.board);
        self.pairs.clone_from(&other.pairs);
        self.trace.clone_from(&other.trace);
        self.rng.clone_from(&other.rng);
        self.time_s = other.time_s;
        self.steps_done = other.steps_done;
        self.first_alert_time_s = other.first_alert_time_s;
    }
}

/// Every random variate of one step, scaled: the k(k−1) report noises
/// receiver-major (receiver `r`'s senders in id order, skipping `r`),
/// then the k gusts in id order.
#[derive(Debug, Default)]
struct StepDraws {
    reports: Vec<ReportNoise>,
    gusts: Vec<Vec3>,
}

/// A point-in-time copy of a [`MultiEncounterWorld`]'s complete mutable
/// state: bodies, avoider advisory memory (via
/// [`CollisionAvoider::clone_boxed`]), coordination board, RNG stream
/// position, monitors, trace and counters.
///
/// Taken with [`MultiEncounterWorld::snapshot`] and reinstated with
/// [`MultiEncounterWorld::restore`] /
/// [`MultiEncounterWorld::restore_branch`], this is the checkpoint
/// importance splitting branches from: `K` restores of one snapshot with
/// `K` distinct branch seeds yield `K` continuation trajectories that
/// share their history bit-for-bit and diverge only through future noise
/// draws.
///
/// A snapshot does not carry the [`SimConfig`] or the mode: restoring
/// into a world with a different config, mode or aircraft count than the
/// one the snapshot was taken from is a logic error.
#[derive(Debug)]
pub struct WorldSnapshot {
    state: WorldState,
    avoiders: Vec<Box<dyn CollisionAvoider>>,
}

/// The encounter world: the headless agent-based simulation loop of the
/// paper's Section VI-C for any number of aircraft (see the module docs
/// for the step's phases and draw order).
#[derive(Debug)]
pub struct MultiEncounterWorld {
    config: SimConfig,
    mode: MultiMode,
    sensor: AdsbSensor,
    avoiders: Vec<Box<dyn CollisionAvoider>>,
    state: WorldState,
    /// Scratch: this step's draws, decisions and pre-step positions.
    draws: StepDraws,
    commands: Vec<Option<ManeuverCommand>>,
    before: Vec<Vec3>,
}

impl MultiEncounterWorld {
    /// Creates a world with default UAV performance for all aircraft.
    ///
    /// # Panics
    ///
    /// Panics unless `initial` and `avoiders` have the same length ≥ 2.
    pub fn new(
        config: SimConfig,
        mode: MultiMode,
        initial: &[UavState],
        avoiders: Vec<Box<dyn CollisionAvoider>>,
        seed: u64,
    ) -> Self {
        let n = initial.len();
        assert!(n >= 2, "a multi-aircraft world needs at least two aircraft");
        assert_eq!(n, avoiders.len(), "one avoider per aircraft");
        Self {
            config,
            mode,
            sensor: AdsbSensor::new(config.sensor_noise),
            avoiders,
            state: WorldState {
                aircraft: initial.iter().map(|&s| Aircraft::new(s)).collect(),
                board: MultiCoordinationBoard::new(n),
                pairs: vec![PairMonitor::NEW; n * (n - 1) / 2],
                trace: Trace::new(),
                rng: StdRng::seed_from_u64(seed),
                time_s: 0.0,
                steps_done: 0,
                first_alert_time_s: None,
            },
            draws: StepDraws {
                reports: vec![ReportNoise::default(); n * (n - 1)],
                gusts: vec![Vec3::ZERO; n],
            },
            commands: vec![None; n],
            before: vec![Vec3::ZERO; n],
        }
    }

    /// Rearms the world for a fresh encounter with the same aircraft
    /// count, reusing every allocation (and whatever solved tables the
    /// avoiders share).
    ///
    /// After `reset`, the world behaves exactly as a newly constructed
    /// one with the same config, mode, `initial` states and `seed`: every
    /// monitor, counter, coordination slot and RNG is reinitialized, and
    /// each avoider's [`CollisionAvoider::reset`] clears its advisory
    /// memory. This is the hot path batch evaluation loops on.
    ///
    /// # Panics
    ///
    /// Panics if `initial.len()` differs from the world's aircraft count.
    pub fn reset(&mut self, initial: &[UavState], seed: u64) {
        assert_eq!(
            initial.len(),
            self.num_aircraft(),
            "aircraft count is fixed"
        );
        for avoider in &mut self.avoiders {
            avoider.reset();
        }
        let state = &mut self.state;
        for (aircraft, &s) in state.aircraft.iter_mut().zip(initial) {
            *aircraft = Aircraft::new(s);
        }
        state.board.reset();
        state.pairs.fill(PairMonitor::NEW);
        state.trace = Trace::new();
        state.rng = StdRng::seed_from_u64(seed);
        state.time_s = 0.0;
        state.steps_done = 0;
        state.first_alert_time_s = None;
    }

    /// Captures the world's complete mutable state as a [`WorldSnapshot`].
    pub fn snapshot(&self) -> WorldSnapshot {
        WorldSnapshot {
            state: self.state.clone(),
            avoiders: self.avoiders.iter().map(|a| a.clone_boxed()).collect(),
        }
    }

    /// Reinstates a snapshot taken from a world with the same config,
    /// mode and aircraft count. After `restore` the world continues
    /// bit-identically to the world the snapshot was taken from,
    /// including the RNG stream position. Only the avoiders' boxes are
    /// reallocated.
    pub fn restore(&mut self, snap: &WorldSnapshot) {
        self.state.assign(&snap.state);
        for (avoider, saved) in self.avoiders.iter_mut().zip(&snap.avoiders) {
            *avoider = saved.clone_boxed();
        }
    }

    /// [`restore`](Self::restore)s a snapshot, then replaces the RNG
    /// with a fresh stream seeded by `branch_seed` — the importance
    /// splitting branch operation. Two restores with the same branch
    /// seed replay identically; distinct branch seeds give trajectories
    /// that share history up to the snapshot and diverge after it.
    pub fn restore_branch(&mut self, snap: &WorldSnapshot, branch_seed: u64) {
        self.restore(snap);
        self.state.rng = StdRng::seed_from_u64(branch_seed);
    }

    /// Number of aircraft.
    pub fn num_aircraft(&self) -> usize {
        self.state.aircraft.len()
    }

    /// The equipage configuration in force.
    pub fn mode(&self) -> MultiMode {
        self.mode
    }

    /// Current simulation time, s.
    pub fn time_s(&self) -> f64 {
        self.state.time_s
    }

    /// Steps taken so far.
    pub fn steps_done(&self) -> usize {
        self.state.steps_done
    }

    /// Steps left until the configured horizon `config.max_time_s`.
    pub fn steps_remaining(&self) -> usize {
        self.config
            .num_steps()
            .saturating_sub(self.state.steps_done)
    }

    /// Whether any pair has latched an NMAC so far.
    pub fn nmac_any(&self) -> bool {
        self.state
            .pairs
            .iter()
            .any(|p| p.first_nmac_time_s.is_some())
    }

    /// Smallest NMAC severity (see [`crate::nmac_severity`]) observed so
    /// far over every pair; `∞` before [`begin`](Self::begin).
    pub fn min_severity(&self) -> f64 {
        self.state
            .pairs
            .iter()
            .map(|p| p.proximity.min_severity())
            .fold(f64::INFINITY, f64::min)
    }

    /// The current state of aircraft `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn uav_state(&self, id: usize) -> &UavState {
        self.state.aircraft[id].body.state()
    }

    /// The recorded trace of aircraft 0 and 1 (empty unless
    /// `config.record_trace` was set).
    pub fn trace(&self) -> &Trace {
        &self.state.trace
    }

    /// Advances the world by one step: draws the step's noise, then
    /// applies it.
    pub fn step(&mut self) {
        let mut draws = std::mem::take(&mut self.draws);
        self.draw(&mut draws);
        self.decide(&draws);
        self.advance(&draws);
        self.draws = draws;
    }

    /// Draws every random variate of one step into `draws`, in the
    /// order of [`StepDraws`]. No draw depends on a decision.
    fn draw(&mut self, draws: &mut StepDraws) {
        let rng = &mut self.state.rng;
        for noise in &mut draws.reports {
            *noise = self.sensor.draw(rng);
        }
        for gust in &mut draws.gusts {
            *gust = self.config.disturbance.sample_gust(rng);
        }
    }

    /// Senses, selects threats and decides, in id order, into
    /// `self.commands`. Changes nothing but the avoiders' advisory
    /// memory.
    fn decide(&mut self, draws: &StepDraws) {
        let n = self.num_aircraft();
        let time_s = self.state.time_s;
        for id in 0..n {
            let row = &draws.reports[id * (n - 1)..][..n - 1];
            let (threat, slot) = self.select_threat(id, row);
            let report = self.report(threat, &row[slot]);
            let mut ctx = AvoiderContext {
                own: self.state.aircraft[id].body.state(),
                intruder: &report,
                forbidden_sense: None,
                time_s,
                dt_s: self.config.dt_s,
            };
            let board = &self.state.board;
            let coordination = self.config.coordination;
            self.commands[id] = match self.mode {
                MultiMode::Pairwise => {
                    if coordination {
                        ctx.forbidden_sense = board.restriction_between(id, threat);
                    }
                    self.avoiders[id].decide(&ctx)
                }
                MultiMode::Coordinated => {
                    let forbidden = if coordination {
                        board.forbidden_set(id)
                    } else {
                        SenseSet::NONE
                    };
                    self.avoiders[id].decide_multi(&ctx, forbidden)
                }
            };
        }
    }

    /// The report of `sender`'s true state under the drawn `noise`.
    fn report(&self, sender: usize, noise: &ReportNoise) -> AdsbReport {
        let state = self.state.aircraft[sender].body.state();
        self.sensor.apply(sender, state, self.state.time_s, noise)
    }

    /// The most urgent threat for aircraft `own` among the reports it
    /// receives under its drawn `row` of noises, and the threat's slot in
    /// that row: smallest horizontal τ (time to CPA; diverging or
    /// relatively static traffic scores `∞`), range as the tie-break,
    /// sender id as the final deterministic tie-break.
    fn select_threat(&self, own: usize, row: &[ReportNoise]) -> (usize, usize) {
        if row.len() == 1 {
            return (1 - own, 0);
        }
        let own_state = self.state.aircraft[own].body.state();
        let mut best = (f64::INFINITY, f64::INFINITY, usize::MAX);
        for (slot, noise) in row.iter().enumerate() {
            let sender = slot + usize::from(slot >= own);
            let report = self.report(sender, noise);
            let rel = report.position - own_state.position;
            let relv = report.velocity - own_state.velocity;
            let range2 = rel.x * rel.x + rel.y * rel.y;
            let closure = rel.x * relv.x + rel.y * relv.y;
            let v2 = relv.x * relv.x + relv.y * relv.y;
            let tau = if v2 < 1e-9 || closure >= 0.0 {
                f64::INFINITY
            } else {
                -closure / v2
            };
            let better = best.2 == usize::MAX
                || match tau.total_cmp(&best.0) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Greater => false,
                    std::cmp::Ordering::Equal => range2.total_cmp(&best.1).is_lt(),
                };
            if better {
                best = (tau, range2, slot);
            }
        }
        let slot = best.2;
        (slot + usize::from(slot >= own), slot)
    }

    /// Commits `self.commands`, records the trace, moves every aircraft
    /// under the drawn gusts and updates the pair monitors.
    fn advance(&mut self, draws: &StepDraws) {
        let dt = self.config.dt_s;
        let state = &mut self.state;
        let time_s = state.time_s;
        for (id, (aircraft, command)) in state.aircraft.iter_mut().zip(&self.commands).enumerate() {
            if aircraft.commit(command.as_ref()) && state.first_alert_time_s.is_none() {
                state.first_alert_time_s = Some(time_s);
            }
            state.board.post(id, command.map(|c| c.sense));
        }
        // Coordination messages posted this step bind from next step.
        state.board.commit();

        if self.config.record_trace {
            let label = |c: &Option<ManeuverCommand>| c.map_or("COC", |c| c.label);
            state.trace.record(
                time_s,
                state.aircraft[0].body.state(),
                state.aircraft[1].body.state(),
                label(&self.commands[0]),
                label(&self.commands[1]),
            );
        }

        // Dynamics under the drawn gusts, id order.
        for ((aircraft, before), &gust) in state
            .aircraft
            .iter_mut()
            .zip(&mut self.before)
            .zip(&draws.gusts)
        {
            *before = aircraft.body.state().position;
            aircraft.body.step_with_gust(dt, gust);
        }

        // Continuous per-pair monitoring, pair_index order.
        let n = state.aircraft.len();
        let mut pair = 0;
        for a in 0..n {
            for b in a + 1..n {
                state.pairs[pair].observe_step(
                    [self.before[a], self.before[b]],
                    state.aircraft[a].body.state(),
                    state.aircraft[b].body.state(),
                    time_s,
                    dt,
                );
                pair += 1;
            }
        }

        state.time_s += dt;
        state.steps_done += 1;
    }

    /// Records the `t = 0` observation and instant-NMAC check for every
    /// pair that [`run`](Self::run) performs before its first step.
    /// Incremental drivers (importance splitting) call this once after
    /// construction/[`reset`](Self::reset), then advance with
    /// [`step`](Self::step) /
    /// [`advance_to_severity`](Self::advance_to_severity).
    pub fn begin(&mut self) {
        let state = &mut self.state;
        let n = state.aircraft.len();
        let mut pair = 0;
        for a in 0..n {
            for b in a + 1..n {
                let uav = |id: usize| state.aircraft[id].body.state();
                state.pairs[pair].begin(uav(a), uav(b));
                pair += 1;
            }
        }
    }

    /// Steps until the minimum severity over every pair drops strictly
    /// below `threshold`, an NMAC latches, or the horizon is exhausted —
    /// whichever comes first. Returns the number of steps taken.
    ///
    /// Severity is monotonically non-increasing, so for a descending
    /// threshold ladder each call resumes where the previous crossing
    /// stopped; `threshold = 0.0` never matches (severity is
    /// non-negative) and therefore means "run until NMAC or horizon".
    pub fn advance_to_severity(&mut self, threshold: f64) -> usize {
        let steps = self.config.num_steps();
        let mut taken = 0;
        while self.state.steps_done < steps && !self.nmac_any() && self.min_severity() >= threshold
        {
            self.step();
            taken += 1;
        }
        taken
    }

    /// [`begin`](Self::begin)s and steps to the horizon; read the result
    /// with [`outcome`](Self::outcome) or
    /// [`pairwise_outcome`](Self::pairwise_outcome).
    pub fn run_to_horizon(&mut self) {
        self.begin();
        let steps = self.config.num_steps();
        while self.state.steps_done < steps {
            self.step();
        }
    }

    /// Runs the encounter to `config.max_time_s` and returns the outcome.
    pub fn run(&mut self) -> MultiEncounterOutcome {
        self.run_to_horizon();
        self.outcome()
    }

    /// Flies this world and its unequipped `twin` as one paired job:
    /// afterwards each world holds, bit for bit, what its own
    /// [`run`](Self::run) would leave it holding (read them with
    /// [`outcome`](Self::outcome)).
    ///
    /// The pair is flown on this world's seed and initial states; the
    /// twin's own state, seed and RNG are ignored. Until some aircraft
    /// first alerts, both worlds would step identically, so only this
    /// world steps. At the step where a decision first alerts, the twin
    /// takes this world's pre-decision state (bodies, board, monitors,
    /// RNG, counters and trace). From then on one draw per step, made by
    /// this world, drives both: the draws of a step do not depend on any
    /// decision, so the twin's own RNG would have drawn the same
    /// variates. The twin flies the unequipped arm, so it makes no
    /// decisions: every one of its aircraft is clear of conflict at every
    /// step, as [`crate::Unequipped`] would decide. If nothing ever
    /// alerts, the twin takes the final state.
    ///
    /// # Panics
    ///
    /// Panics if the twin flies a different number of aircraft. The twin
    /// must also share this world's [`SimConfig`]; its avoiders are never
    /// consulted.
    pub fn run_paired(&mut self, twin: &mut MultiEncounterWorld) {
        assert_eq!(
            self.num_aircraft(),
            twin.num_aircraft(),
            "the twin flies the same aircraft"
        );
        debug_assert_eq!(self.config, twin.config, "the twin must share the config");
        self.begin();
        let steps = self.config.num_steps();
        let mut draws = std::mem::take(&mut self.draws);
        let mut forked = false;
        while !forked && self.state.steps_done < steps {
            self.draw(&mut draws);
            self.decide(&draws);
            if self.commands.iter().any(Option::is_some) {
                twin.state.assign(&self.state);
                twin.commands.fill(None);
                twin.advance(&draws);
                forked = true;
            }
            self.advance(&draws);
        }
        while self.state.steps_done < steps {
            self.draw(&mut draws);
            self.decide(&draws);
            self.advance(&draws);
            twin.advance(&draws);
        }
        self.draws = draws;
        if forked {
            twin.state.rng.clone_from(&self.state.rng);
        } else {
            twin.state.assign(&self.state);
        }
    }

    /// The outcome so far (valid mid-run as well as after
    /// [`run`](Self::run)).
    pub fn outcome(&self) -> MultiEncounterOutcome {
        let n = self.num_aircraft();
        let aircraft = &self.state.aircraft;
        MultiEncounterOutcome {
            pairs: pairs(n)
                .zip(&self.state.pairs)
                .map(|((a, b), monitor)| monitor.outcome(a, b))
                .collect(),
            alert_steps: aircraft.iter().map(|a| a.alert_steps).collect(),
            reversals: aircraft.iter().map(|a| a.reversals).collect(),
            first_alert_time_s: self.state.first_alert_time_s,
            duration_s: self.state.time_s,
        }
    }

    /// The outcome so far as a two-ship [`EncounterOutcome`]: what
    /// [`MultiEncounterOutcome::to_pairwise`] makes of
    /// [`outcome`](Self::outcome), without building the k-aircraft record.
    ///
    /// # Panics
    ///
    /// Panics unless the world has exactly two aircraft.
    pub fn pairwise_outcome(&self) -> EncounterOutcome {
        assert_eq!(self.num_aircraft(), 2, "pairwise projection needs k = 2");
        let [own, intruder] = [&self.state.aircraft[0], &self.state.aircraft[1]];
        project(
            &self.state.pairs[0].outcome(0, 1),
            [own.alert_steps, intruder.alert_steps],
            own.reversals,
            self.state.first_alert_time_s,
            self.state.time_s,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EncounterWorld, Unequipped, Vec3};

    fn head_on(distance_ft: f64, speed_fps: f64) -> Vec<UavState> {
        vec![
            UavState::new(Vec3::ZERO, Vec3::new(speed_fps, 0.0, 0.0)),
            UavState::new(
                Vec3::new(distance_ft, 0.0, 0.0),
                Vec3::new(-speed_fps, 0.0, 0.0),
            ),
        ]
    }

    fn unequipped(n: usize) -> Vec<Box<dyn CollisionAvoider>> {
        (0..n)
            .map(|_| Box::new(Unequipped::new()) as Box<dyn CollisionAvoider>)
            .collect()
    }

    #[test]
    fn pair_index_is_lexicographic_and_dense() {
        for n in 2..9 {
            for (idx, (a, b)) in pairs(n).enumerate() {
                assert_eq!(pair_index(a, b, n), idx, "n={n} pair=({a},{b})");
            }
            assert_eq!(pairs(n).count(), n * (n - 1) / 2);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pair_index_rejects_unordered_pair() {
        pair_index(2, 1, 4);
    }

    #[test]
    fn k2_head_on_without_avoidance_is_nmac() {
        let mut w = MultiEncounterWorld::new(
            SimConfig::deterministic(),
            MultiMode::Pairwise,
            &head_on(8000.0, 150.0),
            unequipped(2),
            1,
        );
        let o = w.run();
        assert!(o.nmac_any());
        assert_eq!(o.nmac_count(), 1);
        assert_eq!(o.pair(0, 1).a, 0);
        assert_eq!(o.pair(1, 0).b, 1, "pair lookup is order-normalized");
    }

    #[test]
    fn k2_matches_scalar_world_exactly() {
        // The two-ship view projects the k = 2 world field for field (the
        // seed sweep pinned to the retired two-ship step's bits lives in
        // uavca-validation's multi_k2_oracle tests).
        for seed in 0..20u64 {
            let initial = head_on(8000.0, 150.0);
            let mut view = EncounterWorld::new(
                SimConfig::default(),
                [initial[0], initial[1]],
                [Box::new(Unequipped::new()), Box::new(Unequipped::new())],
                seed,
            );
            let mut multi = MultiEncounterWorld::new(
                SimConfig::default(),
                MultiMode::Pairwise,
                &initial,
                unequipped(2),
                seed,
            );
            assert_eq!(view.run(), multi.run().to_pairwise(), "seed {seed}");
        }
    }

    #[test]
    fn k2_coordinated_mode_also_matches_scalar() {
        // At k = 2 the coordinated read-out equals the pairwise one for
        // every board state, so the whole run must match the two-ship
        // (pairwise) view too.
        for seed in [3u64, 17, 99] {
            let initial = head_on(6000.0, 120.0);
            let mut view = EncounterWorld::new(
                SimConfig::default(),
                [initial[0], initial[1]],
                [Box::new(Unequipped::new()), Box::new(Unequipped::new())],
                seed,
            );
            let mut multi = MultiEncounterWorld::new(
                SimConfig::default(),
                MultiMode::Coordinated,
                &initial,
                unequipped(2),
                seed,
            );
            assert_eq!(view.run(), multi.run().to_pairwise(), "seed {seed}");
        }
    }

    #[test]
    fn three_converging_aircraft_record_three_pairs() {
        // Three aircraft converging on the origin at the same altitude.
        let r = 6000.0;
        let v = 150.0;
        let initial: Vec<UavState> = (0..3)
            .map(|i| {
                let th = i as f64 * 2.0 * std::f64::consts::PI / 3.0;
                UavState::new(
                    Vec3::new(r * th.cos(), r * th.sin(), 4000.0),
                    Vec3::new(-v * th.cos(), -v * th.sin(), 0.0),
                )
            })
            .collect();
        let mut w = MultiEncounterWorld::new(
            SimConfig::deterministic(),
            MultiMode::Pairwise,
            &initial,
            unequipped(3),
            5,
        );
        let o = w.run();
        assert_eq!(o.pairs.len(), 3);
        assert_eq!(o.nmac_count(), 3, "all three meet at the origin");
        assert_eq!(o.alert_steps, vec![0, 0, 0]);
    }

    #[test]
    fn reset_equals_fresh_world() {
        let initial = head_on(7000.0, 140.0);
        let mut w = MultiEncounterWorld::new(
            SimConfig::default(),
            MultiMode::Pairwise,
            &initial,
            unequipped(2),
            11,
        );
        let first = w.run();
        w.reset(&initial, 11);
        let again = w.run();
        assert_eq!(first, again, "reset world replays bit-identically");
    }

    #[test]
    fn instant_nmac_is_latched_by_begin() {
        let initial = vec![
            UavState::new(Vec3::ZERO, Vec3::new(100.0, 0.0, 0.0)),
            UavState::new(Vec3::new(100.0, 0.0, 10.0), Vec3::new(100.0, 0.0, 0.0)),
        ];
        let mut w = MultiEncounterWorld::new(
            SimConfig::deterministic(),
            MultiMode::Pairwise,
            &initial,
            unequipped(2),
            0,
        );
        w.begin();
        assert!(w.nmac_any());
        assert_eq!(w.outcome().pair(0, 1).first_nmac_time_s, Some(0.0));
    }

    #[test]
    #[should_panic(expected = "at least two aircraft")]
    fn rejects_single_aircraft() {
        MultiEncounterWorld::new(
            SimConfig::default(),
            MultiMode::Pairwise,
            &[UavState::new(Vec3::ZERO, Vec3::ZERO)],
            unequipped(1),
            0,
        );
    }

    #[test]
    fn serde_round_trip_of_outcome() {
        let mut w = MultiEncounterWorld::new(
            SimConfig::deterministic(),
            MultiMode::Coordinated,
            &head_on(8000.0, 150.0),
            unequipped(2),
            1,
        );
        let o = w.run();
        let json = serde_json::to_string(&o).unwrap();
        let back: MultiEncounterOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(o, back);
    }
}
