//! Agent-based 3-D multi-UAV encounter simulation.
//!
//! This crate is the Rust equivalent of the MASON-based simulation layer of
//! Zou, Alexander & McDermid (DSN 2016), Section VI-C. It provides:
//!
//! * [`Vec3`] and aviation [unit conversions](units) (feet, knots, ft/min),
//! * [`UavBody`]: point-mass UAV dynamics with commanded-vertical-rate
//!   tracking under an acceleration limit, plus wind disturbance,
//! * [`AdsbSensor`]: the ADS-B broadcast channel with white sensor noise,
//! * [`CollisionAvoider`]: the trait that plugs an avoidance logic (ACAS
//!   XU-like, SVO, or nothing) into a UAV,
//! * maneuver [`coordination`](MultiCoordinationBoard) between the aircraft,
//! * monitors — the paper's *Proximity Measurer* and *Accident Detector*
//!   (an NMAC latch checked along each step's straight-line motion) —
//!   aggregated into an [`EncounterOutcome`], and
//! * [`MultiEncounterWorld`]: the headless step loop for any number of
//!   aircraft, with the paired twin run, snapshot/branch for importance
//!   splitting and an optional [`Trace`] recorder replacing the paper's
//!   visualization mode; [`EncounterWorld`] is its two-ship view.
//!
//! # Example
//!
//! Run an unequipped head-on encounter and observe that it ends in a
//! near mid-air collision:
//!
//! ```
//! use uavca_sim::{EncounterWorld, SimConfig, UavState, Unequipped, Vec3, units};
//!
//! let own = UavState::new(Vec3::ZERO, Vec3::new(units::knots_to_fps(100.0), 0.0, 0.0));
//! let intruder = UavState::new(
//!     Vec3::new(8000.0, 0.0, 0.0),
//!     Vec3::new(-units::knots_to_fps(100.0), 0.0, 0.0),
//! );
//! let mut world = EncounterWorld::new(
//!     SimConfig::default(),
//!     [own, intruder],
//!     [Box::new(Unequipped::new()), Box::new(Unequipped::new())],
//!     42,
//! );
//! let outcome = world.run();
//! assert!(outcome.nmac, "head-on with no avoidance should end in NMAC");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod adsb;
mod avoider;
mod config;
mod coordination;
mod monitors;
mod multi;
mod outcome;
mod trace;
mod tracker;
mod uav;
pub mod units;
mod vector;
mod world;

pub use adsb::{AdsbReport, AdsbSensor, SensorNoise};
pub use avoider::{AvoiderContext, CollisionAvoider, ManeuverCommand, Sense, SenseSet, Unequipped};
pub use config::{DisturbanceModel, SimConfig};
pub use coordination::MultiCoordinationBoard;
pub use multi::{
    pair_index, pairs, MultiEncounterOutcome, MultiEncounterWorld, MultiMode, PairOutcome,
    WorldSnapshot,
};

pub use monitors::{nmac_severity, ProximityMeasurer, NMAC_HORIZONTAL_FT, NMAC_VERTICAL_FT};
pub use outcome::EncounterOutcome;
pub use trace::{Trace, TraceStep};
pub use tracker::AlphaBetaTracker;
pub use uav::{UavBody, UavPerformance, UavState};
pub use vector::Vec3;
pub use world::EncounterWorld;
