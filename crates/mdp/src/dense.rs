use crate::model::validate_model;
use crate::{Mdp, MdpError, Result, Transition};

/// A tabular MDP with explicitly stored transitions and rewards.
///
/// Suitable for small models such as the 2-D teaching example of the paper's
/// Section III, where every `(state, action)` pair enumerates a handful of
/// successor states. Large discretized models should implement [`Mdp`]
/// directly over an implicit representation.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMdp {
    num_states: usize,
    num_actions: usize,
    discount: f64,
    /// `transitions[state * num_actions + action]` lists the outcomes.
    transitions: Vec<Vec<Transition>>,
    /// `rewards[state * num_actions + action]`.
    rewards: Vec<f64>,
}

impl DenseMdp {
    fn index(&self, state: usize, action: usize) -> usize {
        state * self.num_actions + action
    }
}

impl Mdp for DenseMdp {
    fn num_states(&self) -> usize {
        self.num_states
    }

    fn num_actions(&self) -> usize {
        self.num_actions
    }

    fn discount(&self) -> f64 {
        self.discount
    }

    fn transitions_into(&self, state: usize, action: usize, out: &mut Vec<Transition>) {
        out.extend_from_slice(&self.transitions[self.index(state, action)]);
    }

    fn reward(&self, state: usize, action: usize) -> f64 {
        self.rewards[self.index(state, action)]
    }
}

/// Incremental builder for [`DenseMdp`].
///
/// Unspecified `(state, action)` pairs default to a deterministic self-loop
/// with reward 0, so absorbing states need no boilerplate.
///
/// # Example
///
/// ```
/// use uavca_mdp::DenseMdpBuilder;
///
/// let mut b = DenseMdpBuilder::new(2, 1, 0.95);
/// b.transition(0, 0, 1, 1.0).reward(0, 0, -1.0);
/// let mdp = b.build()?;
/// # Ok::<(), uavca_mdp::MdpError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DenseMdpBuilder {
    num_states: usize,
    num_actions: usize,
    discount: f64,
    transitions: Vec<Vec<Transition>>,
    rewards: Vec<f64>,
}

impl DenseMdpBuilder {
    /// Starts a model with the given dimensions and discount factor.
    pub fn new(num_states: usize, num_actions: usize, discount: f64) -> Self {
        Self {
            num_states,
            num_actions,
            discount,
            transitions: vec![Vec::new(); num_states * num_actions],
            rewards: vec![0.0; num_states * num_actions],
        }
    }

    /// Adds one stochastic outcome: taking `action` in `state` reaches
    /// `next_state` with probability `p`.
    ///
    /// Outcomes accumulate; add one call per successor. Duplicate successors
    /// are merged at [`build`](Self::build) time.
    ///
    /// # Panics
    ///
    /// Panics if `state`, `action` or `next_state` are out of range — these
    /// are programming errors in model construction code, not runtime
    /// conditions.
    pub fn transition(
        &mut self,
        state: usize,
        action: usize,
        next_state: usize,
        p: f64,
    ) -> &mut Self {
        assert!(state < self.num_states, "state {state} out of range");
        assert!(action < self.num_actions, "action {action} out of range");
        assert!(
            next_state < self.num_states,
            "next_state {next_state} out of range"
        );
        let idx = state * self.num_actions + action;
        self.transitions[idx].push(Transition::new(next_state, p));
        self
    }

    /// Sets the expected immediate reward of `(state, action)`.
    ///
    /// # Panics
    ///
    /// Panics if `state` or `action` are out of range.
    pub fn reward(&mut self, state: usize, action: usize, r: f64) -> &mut Self {
        assert!(state < self.num_states, "state {state} out of range");
        assert!(action < self.num_actions, "action {action} out of range");
        self.rewards[state * self.num_actions + action] = r;
        self
    }

    /// Finalizes the model.
    ///
    /// Pairs with no recorded outcome become deterministic self-loops.
    /// Duplicate successors are merged and distributions validated.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::InvalidDistribution`] if any recorded distribution
    /// does not sum to one, [`MdpError::InvalidDiscount`] for a discount
    /// outside `(0, 1]`, or [`MdpError::EmptyModel`] for zero states/actions.
    pub fn build(mut self) -> Result<DenseMdp> {
        if self.num_states == 0 || self.num_actions == 0 {
            return Err(MdpError::EmptyModel);
        }
        for (idx, outs) in self.transitions.iter_mut().enumerate() {
            if outs.is_empty() {
                let state = idx / self.num_actions;
                outs.push(Transition::new(state, 1.0));
                continue;
            }
            outs.sort_by_key(|t| t.next_state);
            let mut merged: Vec<Transition> = Vec::with_capacity(outs.len());
            for t in outs.iter() {
                match merged.last_mut() {
                    Some(last) if last.next_state == t.next_state => {
                        last.probability += t.probability
                    }
                    _ => merged.push(*t),
                }
            }
            *outs = merged;
        }
        let mdp = DenseMdp {
            num_states: self.num_states,
            num_actions: self.num_actions,
            discount: self.discount,
            transitions: self.transitions,
            rewards: self.rewards,
        };
        validate_model(&mdp)?;
        Ok(mdp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unspecified_pairs_become_self_loops() {
        let mdp = DenseMdpBuilder::new(3, 2, 0.9).build().unwrap();
        for s in 0..3 {
            for a in 0..2 {
                assert_eq!(mdp.transitions(s, a), vec![Transition::new(s, 1.0)]);
                assert_eq!(mdp.reward(s, a), 0.0);
            }
        }
    }

    #[test]
    fn duplicate_successors_merge() {
        let mut b = DenseMdpBuilder::new(2, 1, 0.9);
        b.transition(0, 0, 1, 0.25);
        b.transition(0, 0, 1, 0.25);
        b.transition(0, 0, 0, 0.5);
        let mdp = b.build().unwrap();
        let ts = mdp.transitions(0, 0);
        assert_eq!(ts.len(), 2);
        assert!((ts.iter().map(|t| t.probability).sum::<f64>() - 1.0).abs() < 1e-12);
        let to1 = ts.iter().find(|t| t.next_state == 1).unwrap();
        assert!((to1.probability - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bad_mass_is_rejected() {
        let mut b = DenseMdpBuilder::new(2, 1, 0.9);
        b.transition(0, 0, 1, 0.7);
        assert!(matches!(
            b.build(),
            Err(MdpError::InvalidDistribution { .. })
        ));
    }

    #[test]
    fn bad_discount_is_rejected() {
        let b = DenseMdpBuilder::new(1, 1, 0.0);
        assert!(matches!(b.build(), Err(MdpError::InvalidDiscount(_))));
        let b = DenseMdpBuilder::new(1, 1, 1.5);
        assert!(matches!(b.build(), Err(MdpError::InvalidDiscount(_))));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_state_panics() {
        DenseMdpBuilder::new(1, 1, 0.9).transition(5, 0, 0, 1.0);
    }

    #[test]
    fn empty_model_is_rejected() {
        assert!(matches!(
            DenseMdpBuilder::new(0, 1, 0.9).build(),
            Err(MdpError::EmptyModel)
        ));
        assert!(matches!(
            DenseMdpBuilder::new(1, 0, 0.9).build(),
            Err(MdpError::EmptyModel)
        ));
    }
}
