//! Crossroads — time-sensitive autonomous intersection management.
//!
//! This crate implements the paper's contribution and both baselines:
//!
//! - [`policy::CrossroadsPolicy`] — the time-sensitive VT-IM: responses
//!   carry a fixed actuation time `T_E = T_T + WC-RTD`, making the
//!   vehicle's position at actuation deterministic and the RTD buffer
//!   unnecessary (Ch. 6).
//! - [`policy::VtPolicy`] — the naive velocity-transaction IM: the vehicle
//!   executes the commanded speed on receipt, so the worst-case RTD must
//!   be absorbed as extra safety buffer (Ch. 3–4).
//! - [`policy::AimPolicy`] — the query-based AIM baseline (Dresner &
//!   Stone): the vehicle proposes an arrival, the IM simulates the
//!   trajectory over a space-time tile grid and answers yes/no (Ch. 5.2).
//!
//! [`sim`] couples the policies with the DES kernel, vehicle dynamics,
//! the lossy radio and per-node clocks into the closed-loop experiment
//! platform behind every figure of the paper.
//!
//! # Quickstart
//!
//! ```
//! use crossroads_core::sim::{SimConfig, run_simulation};
//! use crossroads_core::policy::PolicyKind;
//! use crossroads_traffic::{ScenarioId, scale_model_scenario};
//!
//! let workload = scale_model_scenario(ScenarioId(1), 0);
//! let config = SimConfig::scale_model(PolicyKind::Crossroads).with_seed(7);
//! let outcome = run_simulation(&config, &workload);
//! assert_eq!(outcome.metrics.completed(), workload.len());
//! assert!(outcome.safety.is_safe());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod buffer;
pub mod policy;
pub mod request;
pub mod sim;

pub use batch::{BatchPlanner, BatchSchedule, PlannedCrossing};
pub use buffer::BufferModel;
pub use policy::{IntersectionPolicy, PolicyKind};
pub use request::{CrossingCommand, CrossingRequest};
pub use sim::{
    run_corridor, run_corridor_traced, run_simulation, run_simulation_traced, CorridorConfig,
    CorridorOutcome, PlatoonConfig, SimConfig, SimOutcome, AIM_ANALYTIC_ENV, PLATOON_ENV,
    SAFETY_FILTER_ENV,
};
