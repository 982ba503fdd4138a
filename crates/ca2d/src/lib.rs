//! The paper's Section III walk-through: a fictional two-dimensional
//! collision avoidance system developed by model-based optimization.
//!
//! Two UAVs meet in a 2-D vertical plane (the paper's Fig. 2). The state is
//! `{y_o, x_r, y_i}` — own altitude, relative horizontal distance, intruder
//! altitude. Each step the intruder moves one cell left (deterministic
//! horizontal closure) and drifts vertically by white noise; the own-ship
//! chooses *level off / move up / move down*, each with stochastic effect.
//! A collision (`x_r = 0` and `y_o = y_i`) costs 10 000; maneuvering costs
//! 100; leveling off is rewarded with 50 — exactly the paper's numbers.
//!
//! Dynamic programming over this MDP yields the optimal look-up-table
//! policy, which [`Ca2dPolicy`] wraps, and [`simulate_encounter`] rolls out
//! stochastic episodes to estimate collision probabilities with and
//! without the generated logic.
//!
//! # Example
//!
//! ```
//! use uavca_ca2d::{Ca2dConfig, Ca2dSystem};
//!
//! let system = Ca2dSystem::solve(&Ca2dConfig::default())?;
//! // Intruder dead ahead at the same altitude, two cells away: maneuver!
//! let action = system.policy().action_for(0, 2, 0)?;
//! assert_ne!(action, uavca_ca2d::OwnAction::Level);
//! # Ok::<(), uavca_mdp::MdpError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use rand::Rng;
use serde::{Deserialize, Serialize};
use uavca_mdp::{DenseMdp, DenseMdpBuilder, MdpError, Policy, Solution, ValueIteration};

/// The own-ship's action set (paper: `{level off (0), move up (+1), move
/// down (−1)}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OwnAction {
    /// Maintain altitude.
    Level,
    /// Move up one grid cell.
    Up,
    /// Move down one grid cell.
    Down,
}

impl OwnAction {
    /// All actions in action-index order.
    pub const ALL: [OwnAction; 3] = [OwnAction::Level, OwnAction::Up, OwnAction::Down];

    /// Action index of this action.
    pub fn index(self) -> usize {
        match self {
            OwnAction::Level => 0,
            OwnAction::Up => 1,
            OwnAction::Down => 2,
        }
    }

    /// The intended altitude change of the action.
    pub fn intended_dy(self) -> i32 {
        match self {
            OwnAction::Level => 0,
            OwnAction::Up => 1,
            OwnAction::Down => -1,
        }
    }
}

/// Configuration of the 2-D model: grid extents, the paper's stochastic
/// kernels and preference values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ca2dConfig {
    /// Altitudes span `-y_extent ..= y_extent`.
    pub y_extent: i32,
    /// Initial/maximum relative horizontal distance (the intruder starts
    /// `x_extent` cells away and closes by one per step).
    pub x_extent: i32,
    /// Collision cost (paper: 10 000).
    pub collision_cost: f64,
    /// Maneuver (up/down) cost (paper: 100).
    pub maneuver_cost: f64,
    /// Level-off reward (paper: 50).
    pub level_reward: f64,
    /// Own-ship action effect distribution `(intended, stay, opposite)`
    /// (paper: 0.7 / 0.2 / 0.1 for maneuvers).
    pub own_effect: (f64, f64, f64),
    /// Level-off effect distribution `(stay, up, down)`.
    pub level_effect: (f64, f64, f64),
    /// Intruder vertical drift: probabilities of `{0, −1, +1, −2, +2}`
    /// (paper: 0.5 / 0.15 / 0.15 / 0.1 / 0.1).
    pub intruder_drift: [f64; 5],
    /// Discount factor for value iteration.
    pub discount: f64,
}

impl Default for Ca2dConfig {
    /// The paper's exact numbers on the Fig. 2 grid (y ∈ [−3, 3],
    /// x ∈ [0, 9]).
    fn default() -> Self {
        Self {
            y_extent: 3,
            x_extent: 9,
            collision_cost: 10_000.0,
            maneuver_cost: 100.0,
            level_reward: 50.0,
            own_effect: (0.7, 0.2, 0.1),
            level_effect: (0.7, 0.15, 0.15),
            intruder_drift: [0.5, 0.15, 0.15, 0.1, 0.1],
            discount: 0.95,
        }
    }
}

impl Ca2dConfig {
    /// Number of altitude levels per aircraft.
    pub fn num_altitudes(&self) -> usize {
        (2 * self.y_extent + 1) as usize
    }

    /// Number of horizontal distances (0 ..= x_extent).
    pub fn num_distances(&self) -> usize {
        (self.x_extent + 1) as usize
    }

    /// Total state count.
    pub fn num_states(&self) -> usize {
        self.num_altitudes() * self.num_distances() * self.num_altitudes()
    }

    fn y_index(&self, y: i32) -> Option<usize> {
        if y.abs() > self.y_extent {
            None
        } else {
            Some((y + self.y_extent) as usize)
        }
    }

    fn clamp_y(&self, y: i32) -> i32 {
        y.clamp(-self.y_extent, self.y_extent)
    }

    /// Flat state index of `{y_o, x_r, y_i}`.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::StateOutOfRange`] if any coordinate is outside
    /// the grid.
    pub fn state_index(&self, y_o: i32, x_r: i32, y_i: i32) -> Result<usize, MdpError> {
        let yo = self.y_index(y_o).ok_or(MdpError::StateOutOfRange {
            state: 0,
            num_states: self.num_states(),
        })?;
        let yi = self.y_index(y_i).ok_or(MdpError::StateOutOfRange {
            state: 0,
            num_states: self.num_states(),
        })?;
        if x_r < 0 || x_r > self.x_extent {
            return Err(MdpError::StateOutOfRange {
                state: 0,
                num_states: self.num_states(),
            });
        }
        Ok((yo * self.num_distances() + x_r as usize) * self.num_altitudes() + yi)
    }

    /// Decodes a flat state index back into `{y_o, x_r, y_i}`.
    pub fn decode(&self, state: usize) -> (i32, i32, i32) {
        let na = self.num_altitudes();
        let nd = self.num_distances();
        let yi = (state % na) as i32 - self.y_extent;
        let xr = ((state / na) % nd) as i32;
        let yo = (state / (na * nd)) as i32 - self.y_extent;
        (yo, xr, yi)
    }
}

/// Builds the paper's MDP as an explicit [`DenseMdp`].
///
/// States with `x_r = 0` are absorbing (the encounter is over); the
/// collision penalty is charged on *entering* a collision state.
///
/// # Errors
///
/// Propagates [`MdpError`] if the configured distributions do not sum to
/// one.
pub fn build_mdp(config: &Ca2dConfig) -> Result<DenseMdp, MdpError> {
    let mut b = DenseMdpBuilder::new(config.num_states(), 3, config.discount);
    for state in 0..config.num_states() {
        let (y_o, x_r, y_i) = config.decode(state);
        for action in OwnAction::ALL {
            let a = action.index();
            if x_r == 0 {
                // Absorbing: encounter over, no further cost or reward.
                b.transition(state, a, state, 1.0);
                b.reward(state, a, 0.0);
                continue;
            }
            // Own-ship movement distribution for this action.
            let own_moves: [(i32, f64); 3] = match action {
                OwnAction::Level => {
                    let (stay, up, down) = config.level_effect;
                    [(0, stay), (1, up), (-1, down)]
                }
                OwnAction::Up => {
                    let (intended, stay, opposite) = config.own_effect;
                    [(1, intended), (0, stay), (-1, opposite)]
                }
                OwnAction::Down => {
                    let (intended, stay, opposite) = config.own_effect;
                    [(-1, intended), (0, stay), (1, opposite)]
                }
            };
            let intruder_moves: [(i32, f64); 5] = [
                (0, config.intruder_drift[0]),
                (-1, config.intruder_drift[1]),
                (1, config.intruder_drift[2]),
                (-2, config.intruder_drift[3]),
                (2, config.intruder_drift[4]),
            ];
            let x_next = x_r - 1;
            let mut expected_collision = 0.0;
            for (dy_o, p_o) in own_moves {
                for (dy_i, p_i) in intruder_moves {
                    let p = p_o * p_i;
                    if p == 0.0 {
                        continue;
                    }
                    let ny_o = config.clamp_y(y_o + dy_o);
                    let ny_i = config.clamp_y(y_i + dy_i);
                    let next = config
                        .state_index(ny_o, x_next, ny_i)
                        .expect("clamped coordinates are in range");
                    if x_next == 0 && ny_o == ny_i {
                        expected_collision += p;
                    }
                    b.transition(state, a, next, p);
                }
            }
            let action_reward = match action {
                OwnAction::Level => config.level_reward,
                _ => -config.maneuver_cost,
            };
            b.reward(
                state,
                a,
                action_reward - config.collision_cost * expected_collision,
            );
        }
    }
    b.build()
}

/// The generated look-up-table logic for the 2-D system.
#[derive(Debug, Clone)]
pub struct Ca2dPolicy {
    config: Ca2dConfig,
    policy: Policy,
}

impl Ca2dPolicy {
    /// The action prescribed in state `{y_o, x_r, y_i}`.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::StateOutOfRange`] for coordinates outside the
    /// grid.
    pub fn action_for(&self, y_o: i32, x_r: i32, y_i: i32) -> Result<OwnAction, MdpError> {
        let idx = self.config.state_index(y_o, x_r, y_i)?;
        Ok(OwnAction::ALL[self.policy.action(idx)])
    }
}

/// The solved 2-D collision avoidance system: model + optimal solution.
#[derive(Debug, Clone)]
pub struct Ca2dSystem {
    config: Ca2dConfig,
    solution: Solution,
}

impl Ca2dSystem {
    /// Builds the MDP and solves it by value iteration (the paper's DP
    /// step).
    ///
    /// # Errors
    ///
    /// Propagates model-construction and convergence errors.
    pub fn solve(config: &Ca2dConfig) -> Result<Ca2dSystem, MdpError> {
        let mdp = build_mdp(config)?;
        let solution = ValueIteration::new()
            .tolerance(1e-9)
            .skip_validation()
            .solve(&mdp)?;
        Ok(Ca2dSystem {
            config: config.clone(),
            solution,
        })
    }

    /// The generated logic table.
    pub fn policy(&self) -> Ca2dPolicy {
        Ca2dPolicy {
            config: self.config.clone(),
            policy: self.solution.policy.clone(),
        }
    }

    /// The optimal value of state `{y_o, x_r, y_i}`.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::StateOutOfRange`] for off-grid coordinates.
    pub fn value_of(&self, y_o: i32, x_r: i32, y_i: i32) -> Result<f64, MdpError> {
        Ok(self.solution.values[self.config.state_index(y_o, x_r, y_i)?])
    }

    /// The configuration this system was generated from.
    pub fn config(&self) -> &Ca2dConfig {
        &self.config
    }

    /// Renders the policy slice at distance `x_r` as an ASCII matrix
    /// (rows: own altitude top-down; columns: intruder altitude), using
    /// `-` for level, `^` for up, `v` for down.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::StateOutOfRange`] if `x_r` is off-grid.
    pub fn render_policy_slice(&self, x_r: i32) -> Result<String, MdpError> {
        let policy = self.policy();
        let mut out = String::new();
        out.push_str(&format!(
            "policy at x_r = {x_r} (rows y_o top-down, cols y_i)\n"
        ));
        for y_o in (-self.config.y_extent..=self.config.y_extent).rev() {
            for y_i in -self.config.y_extent..=self.config.y_extent {
                let ch = match policy.action_for(y_o, x_r, y_i)? {
                    OwnAction::Level => '-',
                    OwnAction::Up => '^',
                    OwnAction::Down => 'v',
                };
                out.push(ch);
            }
            out.push('\n');
        }
        Ok(out)
    }
}

/// Result of one simulated 2-D encounter rollout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RolloutOutcome {
    /// Whether the rollout ended in a collision.
    pub collided: bool,
    /// Number of up/down maneuvers the own-ship performed.
    pub maneuvers: usize,
}

/// Rolls out one stochastic episode from `{y_o0, x_r0, y_i0}` using
/// `policy` (or pure leveling-off when `policy` is `None` — the unequipped
/// baseline), drawing dynamics noise from `rng`.
pub fn simulate_encounter<R: Rng + ?Sized>(
    config: &Ca2dConfig,
    policy: Option<&Ca2dPolicy>,
    y_o0: i32,
    x_r0: i32,
    y_i0: i32,
    rng: &mut R,
) -> RolloutOutcome {
    let mut y_o = config.clamp_y(y_o0);
    let mut y_i = config.clamp_y(y_i0);
    let mut x_r = x_r0.clamp(0, config.x_extent);
    let mut maneuvers = 0;
    while x_r > 0 {
        let action = match policy {
            Some(p) => p
                .action_for(y_o, x_r, y_i)
                .expect("coordinates stay on-grid"),
            None => OwnAction::Level,
        };
        if action != OwnAction::Level {
            maneuvers += 1;
        }
        // Own-ship stochastic effect.
        let u: f64 = rng.gen();
        let dy_o = match action {
            OwnAction::Level => {
                let (stay, up, _down) = config.level_effect;
                if u < stay {
                    0
                } else if u < stay + up {
                    1
                } else {
                    -1
                }
            }
            OwnAction::Up | OwnAction::Down => {
                let (intended, stay, _opposite) = config.own_effect;
                let dir = action.intended_dy();
                if u < intended {
                    dir
                } else if u < intended + stay {
                    0
                } else {
                    -dir
                }
            }
        };
        // Intruder drift.
        let v: f64 = rng.gen();
        let d = &config.intruder_drift;
        let dy_i = if v < d[0] {
            0
        } else if v < d[0] + d[1] {
            -1
        } else if v < d[0] + d[1] + d[2] {
            1
        } else if v < d[0] + d[1] + d[2] + d[3] {
            -2
        } else {
            2
        };
        y_o = config.clamp_y(y_o + dy_o);
        y_i = config.clamp_y(y_i + dy_i);
        x_r -= 1;
    }
    RolloutOutcome {
        collided: y_o == y_i,
        maneuvers,
    }
}

/// Estimates the collision probability over `runs` rollouts from the given
/// start state.
pub fn estimate_collision_probability<R: Rng + ?Sized>(
    config: &Ca2dConfig,
    policy: Option<&Ca2dPolicy>,
    y_o0: i32,
    x_r0: i32,
    y_i0: i32,
    runs: usize,
    rng: &mut R,
) -> f64 {
    let collisions = (0..runs)
        .filter(|_| simulate_encounter(config, policy, y_o0, x_r0, y_i0, rng).collided)
        .count();
    collisions as f64 / runs.max(1) as f64
}

/// Rolls out one episode where the policy observes the intruder's altitude
/// **with noise**: with probability `observation_error_p` the observed
/// `y_i` is off by ±1 (clamped). The dynamics themselves are unchanged.
///
/// This quantifies the paper's Section IV model-structure question — "or
/// should another model (e.g. a POMDP) be used?" — by measuring how much
/// of the MDP policy's performance survives when the full-observability
/// assumption it was optimized under is violated.
pub fn simulate_encounter_noisy_observation<R: Rng + ?Sized>(
    config: &Ca2dConfig,
    policy: &Ca2dPolicy,
    y_o0: i32,
    x_r0: i32,
    y_i0: i32,
    observation_error_p: f64,
    rng: &mut R,
) -> RolloutOutcome {
    let mut y_o = config.clamp_y(y_o0);
    let mut y_i = config.clamp_y(y_i0);
    let mut x_r = x_r0.clamp(0, config.x_extent);
    let mut maneuvers = 0;
    while x_r > 0 {
        // Corrupt the observation of the intruder's altitude.
        let observed_y_i = if rng.gen::<f64>() < observation_error_p {
            let delta = if rng.gen::<bool>() { 1 } else { -1 };
            config.clamp_y(y_i + delta)
        } else {
            y_i
        };
        let action = policy
            .action_for(y_o, x_r, observed_y_i)
            .expect("coordinates stay on-grid");
        if action != OwnAction::Level {
            maneuvers += 1;
        }
        let u: f64 = rng.gen();
        let dy_o = match action {
            OwnAction::Level => {
                let (stay, up, _down) = config.level_effect;
                if u < stay {
                    0
                } else if u < stay + up {
                    1
                } else {
                    -1
                }
            }
            OwnAction::Up | OwnAction::Down => {
                let (intended, stay, _opposite) = config.own_effect;
                let dir = action.intended_dy();
                if u < intended {
                    dir
                } else if u < intended + stay {
                    0
                } else {
                    -dir
                }
            }
        };
        let v: f64 = rng.gen();
        let d = &config.intruder_drift;
        let dy_i = if v < d[0] {
            0
        } else if v < d[0] + d[1] {
            -1
        } else if v < d[0] + d[1] + d[2] {
            1
        } else if v < d[0] + d[1] + d[2] + d[3] {
            -2
        } else {
            2
        };
        y_o = config.clamp_y(y_o + dy_o);
        y_i = config.clamp_y(y_i + dy_i);
        x_r -= 1;
    }
    RolloutOutcome {
        collided: y_o == y_i,
        maneuvers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    fn system() -> &'static Ca2dSystem {
        static SYS: OnceLock<Ca2dSystem> = OnceLock::new();
        SYS.get_or_init(|| Ca2dSystem::solve(&Ca2dConfig::default()).unwrap())
    }

    #[test]
    fn state_indexing_round_trips() {
        let c = Ca2dConfig::default();
        for y_o in -3..=3 {
            for x_r in 0..=9 {
                for y_i in -3..=3 {
                    let s = c.state_index(y_o, x_r, y_i).unwrap();
                    assert_eq!(c.decode(s), (y_o, x_r, y_i));
                }
            }
        }
        assert!(c.state_index(4, 0, 0).is_err());
        assert!(c.state_index(0, 10, 0).is_err());
        assert!(c.state_index(0, -1, 0).is_err());
    }

    #[test]
    fn mdp_is_well_formed() {
        // DenseMdpBuilder::build validates distributions; just confirm it
        // constructs at the paper's size.
        let c = Ca2dConfig::default();
        let m = build_mdp(&c).unwrap();
        use uavca_mdp::Mdp;
        assert_eq!(m.num_states(), 7 * 10 * 7);
        assert_eq!(m.num_actions(), 3);
    }

    #[test]
    fn head_on_state_commands_a_maneuver() {
        let policy = system().policy();
        // Same altitude, intruder 2 cells out: leveling is suicidal.
        let action = policy.action_for(0, 2, 0).unwrap();
        assert_ne!(action, OwnAction::Level);
    }

    #[test]
    fn far_apart_states_level_off() {
        let policy = system().policy();
        // Own at +3, intruder at -3, far out: no reason to maneuver.
        assert_eq!(policy.action_for(3, 9, -3).unwrap(), OwnAction::Level);
    }

    #[test]
    fn values_prefer_separation() {
        let s = system();
        // At the same distance, being co-altitude is worse than being
        // separated.
        let v_same = s.value_of(0, 3, 0).unwrap();
        let v_apart = s.value_of(3, 3, -3).unwrap();
        assert!(v_apart > v_same, "{v_apart} vs {v_same}");
    }

    #[test]
    fn policy_cuts_collision_probability_dramatically() {
        let s = system();
        let policy = s.policy();
        let mut rng = StdRng::seed_from_u64(2024);
        let p_unequipped =
            estimate_collision_probability(s.config(), None, 0, 9, 0, 4000, &mut rng);
        let p_equipped =
            estimate_collision_probability(s.config(), Some(&policy), 0, 9, 0, 4000, &mut rng);
        assert!(
            p_unequipped > 0.08,
            "head-on drift should collide often: {p_unequipped}"
        );
        // The theoretical floor (min-collision DP, ignoring maneuver costs)
        // is ≈ 3.6% from this start state — the intruder's ±2 drift and the
        // clamped grid put a hard limit on what any policy can do. The
        // cost-optimal policy additionally trades maneuvers against risk,
        // so expect roughly a 2–3× reduction, not a miracle.
        assert!(
            p_equipped < 0.6 * p_unequipped,
            "policy must cut collisions: {p_equipped} vs {p_unequipped}"
        );
        assert!(p_equipped < 0.09, "close to the ≈3.6% floor: {p_equipped}");
    }

    #[test]
    fn policy_is_roughly_symmetric() {
        // Starting above the intruder should be as safe as starting below.
        let s = system();
        let v_above = s.value_of(2, 5, -2).unwrap();
        let v_below = s.value_of(-2, 5, 2).unwrap();
        assert!((v_above - v_below).abs() < 1.0, "{v_above} vs {v_below}");
    }

    #[test]
    fn rollouts_are_deterministic_per_seed() {
        let s = system();
        let policy = s.policy();
        let a = simulate_encounter(
            s.config(),
            Some(&policy),
            0,
            9,
            0,
            &mut StdRng::seed_from_u64(7),
        );
        let b = simulate_encounter(
            s.config(),
            Some(&policy),
            0,
            9,
            0,
            &mut StdRng::seed_from_u64(7),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn render_policy_slice_shape() {
        let art = system().render_policy_slice(2).unwrap();
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 8, "caption + 7 altitude rows");
        assert!(lines[1..].iter().all(|l| l.len() == 7));
        // The diagonal (co-altitude) near x_r=2 should show maneuvers.
        assert!(art.contains('^') || art.contains('v'));
    }

    #[test]
    fn observation_noise_degrades_but_does_not_destroy_the_policy() {
        // The Section IV POMDP question, quantified: the MDP policy under
        // perfect observation beats the same policy under 40% observation
        // error, which still beats doing nothing.
        let s = system();
        let policy = s.policy();
        let runs = 4000;
        let mut rng = StdRng::seed_from_u64(99);
        let clean =
            estimate_collision_probability(s.config(), Some(&policy), 0, 9, 0, runs, &mut rng);
        let noisy = (0..runs)
            .filter(|_| {
                simulate_encounter_noisy_observation(s.config(), &policy, 0, 9, 0, 0.4, &mut rng)
                    .collided
            })
            .count() as f64
            / runs as f64;
        let unequipped = estimate_collision_probability(s.config(), None, 0, 9, 0, runs, &mut rng);
        assert!(
            noisy >= clean - 0.01,
            "noise must not help: {noisy} vs {clean}"
        );
        assert!(
            noisy < unequipped,
            "even a noisy policy beats no policy: {noisy} vs {unequipped}"
        );
    }

    #[test]
    fn absorbing_states_have_zero_value() {
        let s = system();
        // x_r = 0 with separation: encounter over, value 0.
        assert_eq!(s.value_of(3, 0, -3).unwrap(), 0.0);
    }
}
