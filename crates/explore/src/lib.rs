//! Design-space exploration for the WCMA prediction parameters.
//!
//! The paper's evaluation (§IV) is a grid optimization: for each data set
//! and each sampling rate `N`, find the (α, D, K) minimizing the average
//! prediction error, then study the trends. Done naively this costs one
//! full predictor run per grid point (11 × 19 × 6 = 1254 runs per
//! data set per `N`). The [`sweep`] engine here does it in **one pass**
//! over the shared [`solar_predict::EtaPlane`] — the same observation
//! half the tuner's `CandidateBank` and the dynamic studies ride:
//!
//! * `μ_D` for every `D ∈ [2, 20]` comes from per-slot prefix sums
//!   (`O(D_max)` per slot, `O(1)` per `D`),
//! * `Φ_K` for every `K ∈ [1, 6]` comes from the plane's `S1/Sw` ratio
//!   sums (`O(K_max)` per (slot, D)),
//! * every α is then a single multiply-add per configuration.
//!
//! A test asserts the sweep is *numerically identical* to running the
//! streaming predictor per configuration under the paper's protocol.
//!
//! The [`dynamic`] module evaluates the paper's §IV-C clairvoyant
//! dynamic-parameter selection, and [`report`] renders paper-style tables
//! and CSV files.
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use param_explore::{sweep, ParamGrid};
//! use pred_metrics::EvalProtocol;
//! use solar_trace::{PowerTrace, Resolution, SlotsPerDay, SlotView};
//!
//! // One sample per slot: the slot mean equals the boundary sample, so
//! // the optimizer finds the paper's degenerate α = 1 optimum (Table
//! // III's N = 288 rows on 5-minute data).
//! let day: Vec<f64> = (0..24).map(|h| if (6..18).contains(&h) { 700.0 } else { 0.0 }).collect();
//! let samples: Vec<f64> = (0..40).flat_map(|_| day.clone()).collect();
//! let trace = PowerTrace::new("p", Resolution::from_minutes(60)?, samples)?;
//! let view = SlotView::new(&trace, SlotsPerDay::new(24)?)?;
//!
//! let grid = ParamGrid::builder().alphas(vec![0.0, 0.5, 1.0]).days(vec![2, 5]).ks(vec![1, 2]).build()?;
//! let result = sweep(&view, &grid, &EvalProtocol::paper());
//! let best = result.best_by_mape();
//! assert_eq!(best.alpha, 1.0);
//! assert!(best.mape < 1e-12);
//! # Ok(())
//! # }
//! ```

pub mod dynamic;
mod grid;
pub mod guidelines;
pub mod report;
mod sweep;

pub use grid::{GridError, ParamGrid, ParamGridBuilder};
pub use sweep::{sweep, OptimalConfig, SweepResult};
