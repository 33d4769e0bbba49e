//! Prediction-error evaluation methodology from the DATE'10 paper (§III).
//!
//! The paper's central methodological point is *what to compare against
//! and how to average*:
//!
//! * A prediction for slot `t` should be compared to the **mean power of
//!   slot `t`** (`ē`, Eq. 7) because that is what determines harvested
//!   energy — not to the single sample at the slot boundary (Eq. 6).
//!   This crate computes both: [`ErrorSummary::mape`] over mean-power
//!   references and [`ErrorSummary::mape_prime`] over start samples.
//!   [`EvalProtocol::evaluate`] and [`StreamingEval`] fold one set of
//!   accumulators into those fields.
//! * The average should be **MAPE** (scale-free, robust to outliers), not
//!   RMSE (outlier-dominated) or MAE (scale-dependent); [`ErrorSummary`]
//!   carries all of them (and the mean bias) for comparison.
//! * Only slots in the **region of interest** count: mean power at least
//!   10% of the trace peak ([`RoiFilter`]), evaluated from day 21 onward
//!   so the D=20 history is full ([`EvalProtocol`]).
//!
//! # Example
//!
//! ```
//! use pred_metrics::{EvalProtocol, PredictionLog, PredictionRecord};
//!
//! let mut log = PredictionLog::with_capacity(4, 120);
//! for day in 0..30u32 {
//!     for slot in 0..4u32 {
//!         log.push(PredictionRecord {
//!             day,
//!             slot,
//!             predicted: 100.0,
//!             actual_start: 110.0,
//!             actual_mean: 105.0,
//!         });
//!     }
//! }
//! let protocol = EvalProtocol::new(0.10, 20);
//! let summary = protocol.evaluate(&log);
//! assert!((summary.mape - 5.0 / 105.0).abs() < 1e-12);
//! assert!(summary.mape_prime > summary.mape);
//! ```

mod aggregate;
mod cost;
mod diurnal;
mod error_fn;
mod record;
mod roi;
mod summary;

pub use aggregate::SummaryAggregate;
pub use cost::{CostAggregate, RunCost};
pub use diurnal::DiurnalProfile;
pub use error_fn::{MaeAccumulator, MapeAccumulator, MbeAccumulator, RmseAccumulator};
pub use record::{PredictionLog, PredictionRecord};
pub use roi::RoiFilter;
pub use summary::{ErrorSummary, EvalProtocol, RecordSink, StreamingEval};
