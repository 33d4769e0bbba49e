//! Synthetic solar-irradiance substrate.
//!
//! The DATE'10 paper evaluates its predictor on measured NREL MIDC
//! irradiance traces from six US sites. Those traces are not
//! redistributable here, so this crate synthesizes physically grounded
//! replacements that preserve every property the prediction study depends
//! on:
//!
//! 1. the deterministic 24-hour / seasonal envelope — from real solar
//!    [`geometry`] and a [`clearsky`] model,
//! 2. day-to-day persistence of conditions — from a Markov chain over
//!    day conditions in [`weather`],
//! 3. intra-day cloud noise at minute scale — AR(1) attenuation plus
//!    discrete cloud transits, which is what separates the paper's MAPE
//!    from MAPE′,
//! 4. per-site variability ordering — six [`site`](Site) presets spanning
//!    the paper's desert (NPCS, PFCI) to humid/continental (ORNL, SPMD)
//!    climates.
//!
//! Everything is seeded and deterministic: the same [`TraceGenerator`]
//! seed always yields the same [`solar_trace::PowerTrace`].
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use solar_synth::{Site, TraceGenerator};
//!
//! let generator = TraceGenerator::new(Site::Pfci.config(), 42);
//! let trace = generator.generate_days(30)?;
//! assert_eq!(trace.days(), 30);
//! // Daylight exists: the trace carries energy.
//! assert!(trace.total_energy_j() > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod clearsky;
mod generator;
pub mod geometry;
mod lanes;
pub mod sampling;
mod site;
mod site_builder;
mod stream;
pub mod weather;

pub use clearsky::ClearSkyModel;
pub use generator::{SynthCheckpoint, TraceGenerator};
pub use lanes::SynthCounters;
pub use site::{Site, SiteConfig};
pub use site_builder::SiteConfigBuilder;
pub use stream::{SlotStream, StreamedSlot};
pub use weather::{DayCondition, StreamVersion, WeatherModel};
