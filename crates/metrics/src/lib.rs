//! Metrics for evaluating intersection managers.
//!
//! The paper reports three families of numbers:
//!
//! - **Average wait time** per vehicle (Fig. 7.1) — how much longer a
//!   vehicle took from the transmission line to clearing the box than it
//!   would have unimpeded.
//! - **Throughput** (Fig. 7.2) — "number of managed vehicles divided by
//!   total wait time".
//! - **Overheads** (Ch. 7.2) — IM computation (AIM up to 16× Crossroads)
//!   and network traffic (up to 20×).
//!
//! [`VehicleRecord`] captures one vehicle's life; [`RunMetrics`]
//! aggregates a run; [`Counters`] tracks compute/network load.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod hist;
#[cfg(test)]
mod json;
mod record;
mod stats;

pub use export::{counters_to_json, records_to_csv, records_to_json, run_to_json};
pub use hist::Histogram;
pub use record::{Counters, RunMetrics, VehicleRecord};
pub use stats::{Percentiles, Summary};
