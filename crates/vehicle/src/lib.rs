//! Vehicle modelling for the Crossroads reproduction.
//!
//! This crate provides every vehicle-side ingredient of the paper:
//!
//! - [`spec`] — static vehicle parameters (`VehicleInfo` in the paper's
//!   request packets): dimensions, acceleration limits, top speed, and the
//!   two testbeds' constants (the 1/10-scale TRAXXAS platform and a
//!   full-scale sedan for the Matlab-style simulations).
//! - [`trajectory`] — piecewise-constant-acceleration longitudinal speed
//!   profiles and the planning constructions of Fig. 6.2 (`T_Acc`, `ΔX`,
//!   `D_E`, `EToA`) used by all three intersection managers.
//! - [`analytic`] — closed-form progress kernels for the AIM trajectory
//!   simulator: exact distance/time inversion of the box-entry motions,
//!   replacing the stepped march (which remains as the test oracle).
//! - [`dynamics`] — the bicycle model of eq. 7.1 with an RK4 integrator,
//!   used by the AIM trajectory simulator and to validate that planned
//!   profiles are dynamically feasible.
//! - [`controller`] — a discrete-time speed controller with injected
//!   sensor/actuator error, reproducing the Ch. 3 safety-buffer calibration
//!   experiment (Fig. 3.1).
//! - [`error`] — the uncertainty model (encoder/GPS noise, control error,
//!   clock-sync residual) feeding both the controller and the IM-side
//!   buffer computation.
//! - [`state`] — the protocol machine each vehicle runs from the
//!   transmission line on (Sync → Request → Follow, Ch. 2).
//! - [`steering`] — pure-pursuit lateral control, backing the thesis'
//!   assumption that vehicles "maintain proper lateral position"
//!   (Ch. 3.2) on every intersection path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod controller;
pub mod dynamics;
pub mod error;
pub mod interval;
pub mod spec;
pub mod state;
pub mod steering;
pub mod trajectory;

pub use analytic::EntryProgress;
pub use controller::{track_profile, ControllerConfig, TrackingOutcome};
pub use dynamics::{integrate_bicycle, BicycleState};
pub use error::ErrorModel;
pub use interval::first_gap_violation;
pub use spec::{VehicleId, VehicleSpec};
pub use state::{ProtocolEvent, ProtocolState, VehicleProtocol};
pub use steering::{track_path, PurePursuit, TrackingError};
pub use trajectory::{Phase, PlanError, SpeedProfile};
