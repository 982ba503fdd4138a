//! Finite Markov decision processes and the dynamic-programming machinery
//! used to synthesize collision avoidance logic by model-based optimization.
//!
//! The ACAS X development process described by Zou, Alexander & McDermid
//! (DSN 2016) — and by the MIT-LL reports it builds on — casts the evolution
//! of a two-aircraft encounter as a [Markov decision process](Mdp) and lets a
//! computer derive the avoidance logic as the *optimal policy* of that MDP.
//! This crate provides that substrate:
//!
//! * the [`Mdp`] trait describing a finite MDP (states, actions, stochastic
//!   transitions, rewards, discounting),
//! * a concrete tabular model, [`DenseMdp`],
//! * solvers: [`ValueIteration`], [`PolicyIteration`] and the finite-horizon
//!   [`BackwardInduction`] used for τ-indexed collision avoidance tables,
//! * the resulting [`Policy`] / [`QTable`] artifacts, and
//! * [`RectGrid`], an N-dimensional rectilinear grid with multilinear
//!   interpolation, used to discretize continuous encounter state spaces.
//!
//! # Example
//!
//! Solve a tiny two-state MDP where action 1 is clearly better:
//!
//! ```
//! use uavca_mdp::{DenseMdpBuilder, ValueIteration};
//!
//! let mut b = DenseMdpBuilder::new(2, 2, 0.9);
//! // state 0: action 0 stays (reward 0), action 1 moves to state 1 (reward 1)
//! b.transition(0, 0, 0, 1.0).reward(0, 0, 0.0);
//! b.transition(0, 1, 1, 1.0).reward(0, 1, 1.0);
//! // state 1 is absorbing with reward 0
//! b.transition(1, 0, 1, 1.0);
//! b.transition(1, 1, 1, 1.0);
//! let mdp = b.build().expect("valid MDP");
//!
//! let solution = ValueIteration::new().tolerance(1e-9).solve(&mdp).expect("converges");
//! assert_eq!(solution.policy.action(0), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod backward;
mod dense;
mod error;
mod grid;
mod model;
mod policy;
mod policy_iteration;
mod value_iteration;

pub use backward::{BackwardInduction, StagedSolution};
pub use dense::{DenseMdp, DenseMdpBuilder};
pub use error::MdpError;
pub use grid::{
    InterpCorners, InterpWeights, RectGrid, RectGridBuilder, MAX_INTERP_CORNERS, MAX_INTERP_DIMS,
};
pub use model::{Mdp, Transition};
pub use policy::{Policy, QTable};
pub use policy_iteration::{PolicyIteration, PolicyIterationStats};
pub use value_iteration::{Solution, SweepOrder, ValueIteration, ValueIterationStats};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MdpError>;
