use serde::{Deserialize, Serialize};

use crate::{Mdp, MdpError, Result, Transition};

/// A deterministic stationary policy: one action index per state.
///
/// This is the "logic table" of the model-based optimization process — the
/// artifact that, for ACAS XU, maps each discretized encounter state to an
/// advisory.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Policy {
    actions: Vec<usize>,
}

impl Policy {
    /// Wraps a per-state action table.
    pub fn from_actions(actions: Vec<usize>) -> Self {
        Self { actions }
    }

    /// The action prescribed in `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn action(&self, state: usize) -> usize {
        self.actions[state]
    }

    /// Number of states the policy covers.
    pub fn num_states(&self) -> usize {
        self.actions.len()
    }

    /// Iterates over `(state, action)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.actions.iter().copied().enumerate()
    }

    /// Read-only view of the underlying action table.
    pub fn as_slice(&self) -> &[usize] {
        &self.actions
    }

    /// Fraction of states on which `self` and `other` prescribe the same
    /// action — a quick structural similarity metric between two logic
    /// tables (e.g. before and after a model revision).
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::DimensionMismatch`] if the policies cover a
    /// different number of states.
    pub fn agreement(&self, other: &Policy) -> Result<f64> {
        if self.num_states() != other.num_states() {
            return Err(MdpError::DimensionMismatch {
                expected: self.num_states(),
                got: other.num_states(),
            });
        }
        if self.actions.is_empty() {
            return Ok(1.0);
        }
        let same = self
            .actions
            .iter()
            .zip(&other.actions)
            .filter(|(a, b)| a == b)
            .count();
        Ok(same as f64 / self.actions.len() as f64)
    }
}

/// State-action value table `Q(s, a)` produced by the solvers.
///
/// Exposes both the raw values and greedy extraction; the online logic keeps
/// the full Q-table (not just the argmax) so it can apply coordination
/// masking at lookup time, exactly as ACAS X interrogates its cost table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QTable {
    num_states: usize,
    num_actions: usize,
    values: Vec<f64>,
}

impl QTable {
    /// Creates a zero-initialized table.
    pub fn zeros(num_states: usize, num_actions: usize) -> Self {
        Self {
            num_states,
            num_actions,
            values: vec![0.0; num_states * num_actions],
        }
    }

    /// Wraps a row-major `num_states × num_actions` value buffer.
    ///
    /// # Errors
    ///
    /// Returns [`MdpError::DimensionMismatch`] if the buffer length is not
    /// `num_states * num_actions`.
    pub fn from_values(num_states: usize, num_actions: usize, values: Vec<f64>) -> Result<Self> {
        if values.len() != num_states * num_actions {
            return Err(MdpError::DimensionMismatch {
                expected: num_states * num_actions,
                got: values.len(),
            });
        }
        Ok(Self {
            num_states,
            num_actions,
            values,
        })
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of actions.
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    /// `Q(state, action)`.
    #[inline]
    pub fn get(&self, state: usize, action: usize) -> f64 {
        self.values[state * self.num_actions + action]
    }

    /// Sets `Q(state, action)`.
    #[inline]
    pub fn set(&mut self, state: usize, action: usize, value: f64) {
        self.values[state * self.num_actions + action] = value;
    }

    /// The Q-values of one state as a slice.
    #[inline]
    pub fn row(&self, state: usize) -> &[f64] {
        &self.values[state * self.num_actions..(state + 1) * self.num_actions]
    }

    /// Greedy action in `state`, restricted to actions where `allowed`
    /// returns `true`. Returns `None` if no action is allowed.
    ///
    /// Ties break toward the lowest action index, which by convention is the
    /// "do nothing" / clear-of-conflict action in avoidance models, biasing
    /// the logic away from spurious alerts.
    pub fn greedy_masked(
        &self,
        state: usize,
        mut allowed: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        let row = self.row(state);
        let mut best: Option<(usize, f64)> = None;
        for (a, &q) in row.iter().enumerate() {
            if !allowed(a) {
                continue;
            }
            match best {
                Some((_, bq)) if q <= bq => {}
                _ => best = Some((a, q)),
            }
        }
        best.map(|(a, _)| a)
    }

    /// Greedy action in `state` over all actions.
    pub fn greedy(&self, state: usize) -> usize {
        self.greedy_masked(state, |_| true)
            .expect("num_actions >= 1")
    }

    /// Extracts the greedy deterministic policy.
    pub fn to_policy(&self) -> Policy {
        Policy::from_actions((0..self.num_states).map(|s| self.greedy(s)).collect())
    }

    /// State values `V(s) = max_a Q(s, a)`.
    pub fn to_state_values(&self) -> Vec<f64> {
        (0..self.num_states)
            .map(|s| {
                self.row(s)
                    .iter()
                    .copied()
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect()
    }
}

/// Evaluates `policy` on `model` by iterative policy evaluation, returning
/// the per-state value function.
///
/// Runs until the sup-norm change is below `tolerance` or `max_iterations`
/// sweeps have been performed (whichever is first); the latter bound makes
/// the function total even for γ = 1 models.
pub fn evaluate_policy<M: Mdp + ?Sized>(
    model: &M,
    policy: &Policy,
    tolerance: f64,
    max_iterations: usize,
) -> Vec<f64> {
    let n = model.num_states();
    let gamma = model.discount();
    let mut values = vec![0.0; n];
    let mut scratch = Vec::new();
    for _ in 0..max_iterations {
        let mut delta: f64 = 0.0;
        for s in 0..n {
            let a = policy.action(s);
            scratch.clear();
            model.transitions_into(s, a, &mut scratch);
            let v = backup(model.reward(s, a), gamma, &scratch, &values);
            delta = delta.max((v - values[s]).abs());
            values[s] = v;
        }
        if delta < tolerance {
            break;
        }
    }
    values
}

#[inline]
pub(crate) fn backup(reward: f64, gamma: f64, transitions: &[Transition], values: &[f64]) -> f64 {
    let mut acc = 0.0;
    for t in transitions {
        acc += t.probability * values[t.next_state];
    }
    reward + gamma * acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DenseMdpBuilder;

    #[test]
    fn greedy_ties_break_low() {
        let mut q = QTable::zeros(1, 3);
        q.set(0, 0, 5.0);
        q.set(0, 2, 5.0);
        assert_eq!(q.greedy(0), 0);
    }

    #[test]
    fn greedy_masked_skips_disallowed() {
        let mut q = QTable::zeros(1, 3);
        q.set(0, 0, 10.0);
        q.set(0, 1, 5.0);
        q.set(0, 2, 1.0);
        assert_eq!(q.greedy_masked(0, |a| a != 0), Some(1));
        assert_eq!(q.greedy_masked(0, |_| false), None);
    }

    #[test]
    fn state_values_are_row_maxima() {
        let mut q = QTable::zeros(2, 2);
        q.set(0, 0, 1.0);
        q.set(0, 1, 3.0);
        q.set(1, 0, -2.0);
        q.set(1, 1, -5.0);
        assert_eq!(q.to_state_values(), vec![3.0, -2.0]);
    }

    #[test]
    fn agreement_counts_matches() {
        let p = Policy::from_actions(vec![0, 1, 2, 0]);
        let q = Policy::from_actions(vec![0, 1, 0, 0]);
        assert!((p.agreement(&q).unwrap() - 0.75).abs() < 1e-12);
        let r = Policy::from_actions(vec![0]);
        assert!(p.agreement(&r).is_err());
    }

    #[test]
    fn policy_evaluation_matches_closed_form() {
        // Single state, self-loop, reward 1, gamma 0.5 => V = 1 / (1 - 0.5) = 2.
        let mut b = DenseMdpBuilder::new(1, 1, 0.5);
        b.transition(0, 0, 0, 1.0).reward(0, 0, 1.0);
        let m = b.build().unwrap();
        let v = evaluate_policy(&m, &Policy::from_actions(vec![0]), 1e-12, 10_000);
        assert!((v[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn qtable_from_values_validates_len() {
        assert!(QTable::from_values(2, 2, vec![0.0; 3]).is_err());
        assert!(QTable::from_values(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn serde_round_trip() {
        let p = Policy::from_actions(vec![0, 2, 1]);
        let json = serde_json::to_string(&p).unwrap();
        let back: Policy = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
