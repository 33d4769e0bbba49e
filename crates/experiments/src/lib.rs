//! Experiment harness regenerating every table and figure of the DATE'10
//! paper *Evaluation and Design Exploration of Solar Harvested-Energy
//! Prediction Algorithm* (Ali, Al-Hashimi, Recas, Atienza).
//!
//! Each experiment is a library function producing paper-style
//! [`param_explore::report::TextTable`]s; the `repro` binary prints them
//! and saves CSVs under `target/experiments/`. The per-experiment mapping
//! to the paper is catalogued in DESIGN.md §4 and the measured-vs-paper
//! comparison lives in EXPERIMENTS.md.
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
