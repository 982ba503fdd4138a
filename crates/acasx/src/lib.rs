//! An ACAS XU-style vertical collision avoidance logic generated by
//! model-based optimization.
//!
//! There is no public source for the real ACAS XU. Like Zou, Alexander &
//! McDermid (DSN 2016) — who re-implemented it in Java from the MIT-LL
//! technical reports ATC-360/371 — this crate builds an avoidance logic
//! with the same *structure* and development process:
//!
//! 1. model the vertical encounter as an MDP over
//!    `(h, ḣ_own, ḣ_int, previous advisory)` with time-to-CPA τ as the
//!    decision stage ([`VerticalMdp`]),
//! 2. assign costs to NMACs, alerts, strengthenings and reversals
//!    ([`CostModel`]),
//! 3. solve offline by dynamic programming ([`LogicTable::solve`], a
//!    backward induction factored by the model's structure and
//!    bit-identical to the generic [`uavca_mdp::BackwardInduction`]) into
//!    a state → advisory cost table,
//! 4. fly the table online ([`AcasXu`], a [`uavca_sim::CollisionAvoider`]):
//!    estimate τ from the ADS-B geometry, interpolate the Q-table
//!    multilinearly over `(h, ḣ_own, ḣ_int)` and bilinearly over τ, apply
//!    advisory hysteresis, and honor maneuver-coordination restrictions.
//!
//! The same caveat as the paper applies: this captures the behavioural
//! properties of the ACAS XU algorithm well enough to exercise validation
//! tooling; it is not a certified implementation.
//!
//! # Example
//!
//! ```
//! use uavca_acasx::{AcasConfig, LogicTable};
//!
//! // A deliberately coarse table so the doctest stays fast.
//! let table = LogicTable::solve(&AcasConfig::coarse());
//! // Co-altitude, both level, 10 s to impact: the logic must alert.
//! let q = table.q_values(0.0, 0.0, 0.0, 10.0, uavca_acasx::Advisory::Coc);
//! let best = uavca_acasx::Advisory::ALL[q
//!     .iter()
//!     .enumerate()
//!     .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
//!     .map(|(i, _)| i)
//!     .unwrap()];
//! assert_ne!(best, uavca_acasx::Advisory::Coc);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod advisory;
mod config;
mod cost;
mod dynamics;
mod model;
mod online;
mod table;

pub use advisory::{Advisory, AdvisorySet};
pub use config::AcasConfig;
pub use cost::CostModel;
pub use dynamics::{OwnResponse, VerticalDynamics};
pub use model::VerticalMdp;
pub use online::{estimate_tau, AcasXu, TauEstimate};
pub use table::LogicTable;
