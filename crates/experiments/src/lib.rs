//! Experiment harness regenerating every table and figure of the DATE'10
//! paper *Evaluation and Design Exploration of Solar Harvested-Energy
//! Prediction Algorithm* (Ali, Al-Hashimi, Recas, Atienza).
//!
//! Each experiment is a library function producing paper-style
//! [`param_explore::report::TextTable`]s; the `repro` binary prints them
//! and saves CSVs under `target/experiments/`. Each experiment module's
//! doc names the paper table or figure it regenerates, or the ablation
//! or extension it adds, and `repro list` prints the experiment ids.
//!
//! # Example
//!
//! ```no_run
//! use paper_repro::{Context, experiments};
//!
//! // The paper's full year; tests and quick runs pass fewer days.
//! let ctx = Context::with_days(365);
//! let output = experiments::table1::run(&ctx);
//! println!("{}", output.tables[0].1);
//! ```

mod context;
pub mod datasets;
pub mod experiments;

pub use context::{Context, ExperimentOutput};
