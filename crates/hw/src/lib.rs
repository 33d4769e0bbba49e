//! MSP430F1611 energy and cycle cost model for harvested-power sampling
//! and prediction.
//!
//! The paper measures, on an MSP-TS430PM64 board (TI MSP430F1611,
//! 3 V @ 5 MHz), the energy of the Fig. 5 duty sequence: wake → enable
//! the ADC voltage reference and sleep through its settling → convert →
//! run the prediction → deep sleep. Its Table IV anchors:
//!
//! | activity | energy |
//! |---|---|
//! | A/D conversion | 55 µJ |
//! | + prediction (K=1, α=0.7) | 58.6 µJ |
//! | + prediction (K=7, α=0.7) | 63.4 µJ |
//! | + prediction (K=7, α=0.0) | 61.5 µJ |
//! | sleep (1.4 µA @ 3 V) | ≈356 mJ/day |
//!
//! This crate substitutes the physical board with a two-level model:
//!
//! * [`CalibratedCycleModel`] — cycles(K, α) fitted exactly to the three
//!   prediction anchors (a base cost, a per-K cost, and a persistence-path
//!   cost paid only when α > 0).
//! * [`kernel`] — *analytic operation counts* of the incremental WCMA
//!   kernel (what firmware actually executes per prediction), priced by
//!   per-operation software-float or Q16.16 cycle costs, cross-checked
//!   against a runtime-counting shadow implementation. This exposes the
//!   *structure* behind the calibrated numbers and supports design
//!   exploration (fixed-point ablation).
//!
//! [`SamplingSchedule`] combines either model with the [`Supply`] and
//! [`AdcModel`] into per-day budgets ([`DailyBudget`]) and the overhead-%
//! figures of the paper's Fig. 6.
//!
//! # Example
//!
//! ```
//! use msp430_energy::{AdcModel, CalibratedCycleModel, PredictionKernel, Supply};
//!
//! let supply = Supply::msp430f1611();
//! let adc = AdcModel::msp430_paper();
//! let model = CalibratedCycleModel::paper();
//! let kernel = PredictionKernel::new(1, 0.7);
//! let pred_j = model.cycles(&kernel) * supply.energy_per_cycle_j();
//! // The paper's 3.6 µJ anchor.
//! assert!((pred_j - 3.6e-6).abs() < 1e-8);
//! assert!((adc.energy_j(&supply) - 55e-6).abs() < 1e-6);
//! ```

pub mod kernel;
pub mod memory;
mod schedule;
mod supply;

pub use kernel::{CalibratedCycleModel, OpCostModel, OpCounts, PredictionKernel};
pub use memory::{MemoryFootprint, SampleFormat};
pub use schedule::{DailyBudget, SamplingSchedule};
pub use supply::{AdcModel, Supply};
