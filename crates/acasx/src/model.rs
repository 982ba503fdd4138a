use uavca_mdp::{Mdp, RectGrid, Transition};

use crate::{AcasConfig, Advisory};

/// The encounter-evolution MDP of the vertical logic (paper Fig. 1, "MDP
/// model" box).
///
/// A state is `(previous advisory, h, ḣ_own, ḣ_int)` where the kinematic
/// part lives on the configuration's interpolation grid; flat indexing is
/// `sRA * grid_points + grid_flat`. Actions are the 7 advisories. Each
/// continuous stochastic successor from [`crate::VerticalDynamics`] is
/// projected back onto the grid by multilinear interpolation — the
/// "discretized state space + interpolation" construction whose accuracy
/// risks Section IV discusses.
///
/// τ is *not* part of the state: the model is solved stage-by-stage by
/// backward induction, so the decision index is the time to CPA.
///
/// # Factored structure
///
/// [`crate::LogicTable::solve`] relies on two facts about this model, each
/// guarded by a test of the same name in this module:
///
/// 1. `transitions_do_not_depend_on_the_previous_advisory`: the
///    transitions of state `previous * grid_points + g` under action `a`
///    are the same for all 7 previous advisories — the dynamics see only
///    the kinematics and the action, and the next state's previous
///    advisory is the action itself;
/// 2. `rewards_do_not_depend_on_the_grid_point`: the reward of that state
///    under `a` is `−CostModel::action_cost(previous, a)`, the same at
///    every grid point `g`.
///
/// A model change that breaks either fact must change that solve too.
#[derive(Debug, Clone)]
pub struct VerticalMdp {
    config: AcasConfig,
    grid: RectGrid,
}

impl VerticalMdp {
    /// Builds the model from a configuration.
    pub fn new(config: AcasConfig) -> Self {
        let grid = config.build_grid();
        Self { config, grid }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AcasConfig {
        &self.config
    }

    /// The kinematic interpolation grid.
    pub fn grid(&self) -> &RectGrid {
        &self.grid
    }

    /// Number of kinematic grid points.
    pub fn grid_points(&self) -> usize {
        self.grid.num_points()
    }

    /// Flat state index of `(previous advisory, kinematic grid point)`.
    pub fn state_index(&self, previous: Advisory, grid_flat: usize) -> usize {
        previous.index() * self.grid_points() + grid_flat
    }

    /// Decodes a flat state index into `(previous advisory, grid point)`.
    pub fn decode_state(&self, state: usize) -> (Advisory, usize) {
        let gp = self.grid_points();
        (Advisory::from_index(state / gp), state % gp)
    }

    /// Coordinates `[h, ḣ_own, ḣ_int]` of kinematic grid point
    /// `grid_flat`, read straight off the axes (the last axis varies
    /// fastest in the flat index).
    fn grid_coords(&self, grid_flat: usize) -> [f64; 3] {
        let (h, own, intr) = (self.grid.axis(0), self.grid.axis(1), self.grid.axis(2));
        let per_h = own.len() * intr.len();
        [
            h[grid_flat / per_h],
            own[grid_flat % per_h / intr.len()],
            intr[grid_flat % intr.len()],
        ]
    }

    /// Terminal values at τ = 0 for every state: −NMAC cost inside the
    /// vertical NMAC band (the horizontal miss is zero at the CPA by
    /// construction of the stage indexing).
    pub fn terminal_values(&self) -> Vec<f64> {
        let gp = self.grid_points();
        let mut grid_terminal = Vec::with_capacity(gp);
        for (_, point) in self.grid.iter_points() {
            let h = point[0];
            grid_terminal.push(
                -self
                    .config
                    .costs
                    .terminal_cost(h, self.config.nmac_half_height_ft),
            );
        }
        let mut out = Vec::with_capacity(gp * Advisory::COUNT);
        for _ in 0..Advisory::COUNT {
            out.extend_from_slice(&grid_terminal);
        }
        out
    }
}

impl Mdp for VerticalMdp {
    fn num_states(&self) -> usize {
        self.grid_points() * Advisory::COUNT
    }

    fn num_actions(&self) -> usize {
        Advisory::COUNT
    }

    fn discount(&self) -> f64 {
        1.0
    }

    fn transitions_into(&self, state: usize, action: usize, out: &mut Vec<Transition>) {
        let (_previous, grid_flat) = self.decode_state(state);
        let [h, own, intr] = self.grid_coords(grid_flat);
        let advisory = Advisory::from_index(action);
        let successors = self.config.dynamics.successors(h, own, intr, advisory);
        let next_sra_offset = advisory.index() * self.grid_points();
        let mut corners = uavca_mdp::InterpCorners::empty();
        for (h, own, intr, p) in successors {
            self.grid
                .interp_weights_into(&[h, own, intr], &mut corners)
                .expect("query arity matches grid");
            for (idx, w) in corners.iter() {
                if w > 0.0 {
                    out.push(Transition::new(next_sra_offset + idx, p * w));
                }
            }
        }
    }

    fn reward(&self, state: usize, action: usize) -> f64 {
        let (previous, _) = self.decode_state(state);
        -self
            .config
            .costs
            .action_cost(previous, Advisory::from_index(action))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> VerticalMdp {
        VerticalMdp::new(AcasConfig::coarse())
    }

    #[test]
    fn state_index_round_trip() {
        let m = model();
        for adv in Advisory::ALL {
            for gf in [0, 1, m.grid_points() - 1] {
                let s = m.state_index(adv, gf);
                assert_eq!(m.decode_state(s), (adv, gf));
            }
        }
        assert_eq!(m.num_states(), m.grid_points() * 7);
    }

    #[test]
    fn transition_mass_sums_to_one_everywhere_sampled() {
        let m = model();
        let mut buf = Vec::new();
        // Sample a spread of states and all actions.
        for s in (0..m.num_states()).step_by(97) {
            for a in 0..m.num_actions() {
                buf.clear();
                m.transitions_into(s, a, &mut buf);
                let mass: f64 = buf.iter().map(|t| t.probability).sum();
                assert!((mass - 1.0).abs() < 1e-9, "state {s} action {a}: {mass}");
                assert!(buf.iter().all(|t| t.next_state < m.num_states()));
            }
        }
    }

    #[test]
    fn successors_carry_the_action_as_next_sra() {
        let m = model();
        let s = m.state_index(Advisory::Coc, m.grid_points() / 2);
        let gp = m.grid_points();
        for a in 0..7 {
            let ts = m.transitions(s, a);
            for t in ts {
                assert_eq!(t.next_state / gp, a, "next sRA must equal the action taken");
            }
        }
    }

    #[test]
    fn grid_coords_match_the_grid_points() {
        let m = model();
        for (flat, point) in m.grid().iter_points() {
            assert_eq!(m.grid_coords(flat).to_vec(), point);
        }
    }

    #[test]
    fn transitions_do_not_depend_on_the_previous_advisory() {
        let m = model();
        let gp = m.grid_points();
        let bits = |ts: &[Transition]| -> Vec<(usize, u64)> {
            ts.iter()
                .map(|t| (t.next_state, t.probability.to_bits()))
                .collect()
        };
        let mut buf = Vec::new();
        for g in 0..gp {
            for a in 0..m.num_actions() {
                buf.clear();
                m.transitions_into(g, a, &mut buf);
                let from_coc = bits(&buf);
                for p in 1..Advisory::COUNT {
                    buf.clear();
                    m.transitions_into(p * gp + g, a, &mut buf);
                    assert_eq!(
                        bits(&buf),
                        from_coc,
                        "grid point {g} action {a} previous {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn rewards_do_not_depend_on_the_grid_point() {
        let m = model();
        let gp = m.grid_points();
        for p in 0..Advisory::COUNT {
            for a in 0..m.num_actions() {
                let at_first = m.reward(p * gp, a).to_bits();
                for g in 1..gp {
                    assert_eq!(
                        m.reward(p * gp + g, a).to_bits(),
                        at_first,
                        "previous {p} action {a} grid point {g}"
                    );
                }
            }
        }
    }

    #[test]
    fn rewards_are_negative_costs() {
        let m = model();
        let s_coc = m.state_index(Advisory::Coc, 0);
        assert_eq!(m.reward(s_coc, Advisory::Coc.index()), 0.0);
        assert!(m.reward(s_coc, Advisory::Cl1500.index()) < 0.0);
        let s_cl = m.state_index(Advisory::Cl1500, 0);
        // Reversal costs more than continuing.
        assert!(
            m.reward(s_cl, Advisory::Des1500.index()) < m.reward(s_cl, Advisory::Cl1500.index())
        );
    }

    #[test]
    fn terminal_values_penalize_the_nmac_band_only() {
        let m = model();
        let tv = m.terminal_values();
        assert_eq!(tv.len(), m.num_states());
        for (flat, point) in m.grid().iter_points() {
            let v = tv[m.state_index(Advisory::Coc, flat)];
            if point[0].abs() <= m.config().nmac_half_height_ft {
                assert!(v < 0.0, "h={} must be terminal-penalized", point[0]);
            } else {
                assert_eq!(v, 0.0, "h={} must be safe", point[0]);
            }
        }
    }

    #[test]
    fn model_validates_as_a_proper_mdp() {
        // Run the generic validator over a coarse model (it checks every
        // state-action pair's distribution).
        let mut cfg = AcasConfig::coarse();
        cfg.h_points = 7;
        cfg.rate_points = 3;
        let m = VerticalMdp::new(cfg);
        let vi = uavca_mdp::ValueIteration::new();
        // validate happens inside solve; tolerance loose, horizon via gamma<1
        // is not what we use in production, but validation is the point here.
        // Use a gamma hack: the model has gamma=1, so full VI may not
        // converge; instead validate directly through a 1-stage backward
        // induction which also exercises every backup.
        let bi = uavca_mdp::BackwardInduction::new();
        let sol = bi.solve(&m, 1, m.terminal_values()).unwrap();
        assert_eq!(sol.stage_values[1].len(), m.num_states());
        let _ = vi; // silence unused in case of refactor
    }
}
