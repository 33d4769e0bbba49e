//! Power time-series substrate for solar harvested-energy prediction.
//!
//! This crate provides the data layer that every other crate in the
//! workspace builds on:
//!
//! * [`PowerTrace`] — an owned, validated sequence of equally spaced
//!   instantaneous power samples (e.g. solar irradiance in W/m² or panel
//!   output in W) together with its sampling [`Resolution`].
//! * [`SlotView`] — a zero-copy discretization of a trace into `N` equal
//!   slots per day, exposing exactly the three per-slot quantities the
//!   DATE'10 paper's evaluation needs: the *slot-start sample* `e(i, j)`,
//!   the *mean slot power* `ē`, and the *slot energy* `ē × T`.
//! * [`stats`] — summary statistics (peak, daily energy, variability
//!   indices) used to characterise data sets (Table I context).
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use solar_trace::{PowerTrace, Resolution, SlotsPerDay, SlotView};
//!
//! // Two days of 1-hour samples: a crude "solar" profile.
//! let day: Vec<f64> = (0..24)
//!     .map(|h| (((h as f64 - 12.0) / 6.0).cos().max(0.0)) * 800.0)
//!     .collect();
//! let mut samples = day.clone();
//! samples.extend_from_slice(&day);
//!
//! let trace = PowerTrace::new("toy", Resolution::from_minutes(60)?, samples)?;
//! assert_eq!(trace.days(), 2);
//!
//! // Discretize into N = 12 slots per day (2-hour slots).
//! let view = SlotView::new(&trace, SlotsPerDay::new(12)?)?;
//! let noon = view.mean_power(0, 6);
//! assert!(noon > 0.0);
//! # Ok(())
//! # }
//! ```

mod error;
pub mod hash;
mod slotting;
pub mod stats;
mod time;
mod trace;

pub use error::TraceError;
pub use slotting::{SlotId, SlotView};
pub use time::{Resolution, SlotsPerDay, SECONDS_PER_DAY};
pub use trace::PowerTrace;
