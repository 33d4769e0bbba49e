//! Error type for trace construction and slotting.

use std::fmt;

/// Errors produced by the `solar-trace` crate.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// The sample period is zero or does not divide a day evenly.
    InvalidResolution {
        /// Offending period in seconds.
        seconds: u32,
    },
    /// The slot count `N` is below 2 or does not divide a day evenly.
    InvalidSlots {
        /// Offending slot count.
        n: u32,
    },
    /// A trace must contain at least one complete day of samples.
    TooShort {
        /// Number of samples provided.
        provided: usize,
        /// Samples required for one day at the given resolution.
        required: usize,
    },
    /// The trace length is not a whole number of days.
    PartialDay {
        /// Number of samples provided.
        provided: usize,
        /// Samples per day at the trace resolution.
        samples_per_day: usize,
    },
    /// A sample is negative (power cannot be negative).
    NegativeSample {
        /// Index of the offending sample.
        index: usize,
        /// Its value.
        value: f64,
    },
    /// A sample is NaN or infinite.
    NonFiniteSample {
        /// Index of the offending sample.
        index: usize,
    },
    /// The slot duration is not a multiple of the trace resolution, so
    /// slots cannot be formed from whole samples.
    IncompatibleSlots {
        /// Requested slot count.
        n: u32,
        /// Trace resolution in seconds.
        resolution_seconds: u32,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::InvalidResolution { seconds } => {
                write!(
                    f,
                    "invalid resolution: {seconds} s must be positive and divide 86400"
                )
            }
            TraceError::InvalidSlots { n } => {
                write!(
                    f,
                    "invalid slot count: N={n} must be at least 2 and divide 86400"
                )
            }
            TraceError::TooShort { provided, required } => {
                write!(f, "trace too short: {provided} samples provided, at least {required} (one day) required")
            }
            TraceError::PartialDay {
                provided,
                samples_per_day,
            } => {
                write!(f, "trace length {provided} is not a whole number of days ({samples_per_day} samples/day)")
            }
            TraceError::NegativeSample { index, value } => {
                write!(f, "negative power sample {value} at index {index}")
            }
            TraceError::NonFiniteSample { index } => {
                write!(f, "non-finite power sample at index {index}")
            }
            TraceError::IncompatibleSlots {
                n,
                resolution_seconds,
            } => {
                write!(
                    f,
                    "slot duration for N={n} is not a multiple of the {resolution_seconds} s resolution"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let cases: Vec<TraceError> = vec![
            TraceError::InvalidResolution { seconds: 7 },
            TraceError::InvalidSlots { n: 1 },
            TraceError::TooShort {
                provided: 3,
                required: 24,
            },
            TraceError::PartialDay {
                provided: 30,
                samples_per_day: 24,
            },
            TraceError::NegativeSample {
                index: 2,
                value: -1.0,
            },
            TraceError::NonFiniteSample { index: 9 },
            TraceError::IncompatibleSlots {
                n: 7,
                resolution_seconds: 300,
            },
        ];
        for err in cases {
            let msg = err.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase(), "{msg}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceError>();
    }
}
