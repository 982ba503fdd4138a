use std::error::Error;
use std::fmt;

/// Errors produced while constructing or solving an MDP.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MdpError {
    /// A state index was outside `0..num_states`.
    StateOutOfRange {
        /// The offending state index.
        state: usize,
        /// The number of states in the model.
        num_states: usize,
    },
    /// An action index was outside `0..num_actions`.
    ActionOutOfRange {
        /// The offending action index.
        action: usize,
        /// The number of actions in the model.
        num_actions: usize,
    },
    /// The outgoing transition probabilities of a state/action pair do not
    /// sum to one (within tolerance), or a probability was negative/NaN.
    InvalidDistribution {
        /// State whose distribution is invalid.
        state: usize,
        /// Action whose distribution is invalid.
        action: usize,
        /// The probability mass that was found.
        mass: f64,
    },
    /// The discount factor was not in `(0, 1]`.
    InvalidDiscount(f64),
    /// The model has zero states or zero actions.
    EmptyModel,
    /// An iterative solver exhausted its iteration budget before reaching
    /// the requested tolerance.
    NotConverged {
        /// Number of iterations performed.
        iterations: usize,
        /// Bellman residual when the solver gave up.
        residual: f64,
        /// Residual the caller asked for.
        tolerance: f64,
    },
    /// A grid axis was empty or not strictly increasing.
    InvalidGridAxis {
        /// Index of the offending axis.
        axis: usize,
    },
    /// A query point or index had the wrong number of dimensions.
    DimensionMismatch {
        /// Dimensions expected by the grid.
        expected: usize,
        /// Dimensions supplied by the caller.
        got: usize,
    },
}

impl fmt::Display for MdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MdpError::StateOutOfRange { state, num_states } => {
                write!(
                    f,
                    "state index {state} out of range (model has {num_states} states)"
                )
            }
            MdpError::ActionOutOfRange {
                action,
                num_actions,
            } => {
                write!(
                    f,
                    "action index {action} out of range (model has {num_actions} actions)"
                )
            }
            MdpError::InvalidDistribution {
                state,
                action,
                mass,
            } => write!(
                f,
                "transition probabilities for state {state}, action {action} sum to {mass}, not 1"
            ),
            MdpError::InvalidDiscount(gamma) => {
                write!(f, "discount factor {gamma} is not in (0, 1]")
            }
            MdpError::EmptyModel => write!(f, "model has no states or no actions"),
            MdpError::NotConverged {
                iterations,
                residual,
                tolerance,
            } => write!(
                f,
                "solver stopped after {iterations} iterations with residual {residual:.3e} \
                 (tolerance {tolerance:.3e})"
            ),
            MdpError::InvalidGridAxis { axis } => {
                write!(f, "grid axis {axis} is empty or not strictly increasing")
            }
            MdpError::DimensionMismatch { expected, got } => {
                write!(f, "expected {expected} dimensions, got {got}")
            }
        }
    }
}

impl Error for MdpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MdpError::StateOutOfRange {
            state: 7,
            num_states: 3,
        };
        assert!(e.to_string().contains('7'));
        assert!(e.to_string().contains('3'));
        let e = MdpError::NotConverged {
            iterations: 10,
            residual: 0.5,
            tolerance: 1e-6,
        };
        assert!(e.to_string().contains("10"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MdpError>();
    }
}
