//! The validated power time-series container.

use crate::error::TraceError;
use crate::time::Resolution;
use std::fmt;

/// An owned sequence of equally spaced instantaneous power samples covering
/// a whole number of days.
///
/// Samples are non-negative, finite `f64` values in a caller-chosen power
/// unit (W, W/m², mW — the prediction pipeline is scale-free, see the
/// paper's MAPE discussion). The first sample of the trace is the sample at
/// local midnight of day 0.
///
/// Construction validates every sample once so the rest of the workspace
/// can rely on the invariants without re-checking.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use solar_trace::{PowerTrace, Resolution};
///
/// let res = Resolution::from_minutes(60)?;
/// let trace = PowerTrace::new("flat", res, vec![100.0; 48])?;
/// assert_eq!(trace.days(), 2);
/// assert_eq!(trace.total_energy_j(), 100.0 * 3600.0 * 48.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PowerTrace {
    label: String,
    resolution: Resolution,
    samples: Vec<f64>,
}

impl PowerTrace {
    /// Creates a trace from raw samples, validating that the sample count
    /// is a non-zero whole number of days and that every sample is finite
    /// and non-negative.
    ///
    /// # Errors
    ///
    /// * [`TraceError::TooShort`] if fewer than one day of samples is given.
    /// * [`TraceError::PartialDay`] if the length is not a multiple of
    ///   `resolution.samples_per_day()`.
    /// * [`TraceError::NegativeSample`] / [`TraceError::NonFiniteSample`]
    ///   for invalid sample values.
    pub fn new(
        label: impl Into<String>,
        resolution: Resolution,
        samples: Vec<f64>,
    ) -> Result<Self, TraceError> {
        let spd = resolution.samples_per_day();
        if samples.len() < spd {
            return Err(TraceError::TooShort {
                provided: samples.len(),
                required: spd,
            });
        }
        if !samples.len().is_multiple_of(spd) {
            return Err(TraceError::PartialDay {
                provided: samples.len(),
                samples_per_day: spd,
            });
        }
        for (index, &value) in samples.iter().enumerate() {
            if !value.is_finite() {
                return Err(TraceError::NonFiniteSample { index });
            }
            if value < 0.0 {
                return Err(TraceError::NegativeSample { index, value });
            }
        }
        Ok(PowerTrace {
            label: label.into(),
            resolution,
            samples,
        })
    }

    /// The human-readable label of this trace (e.g. the site code).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The sampling resolution.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// All samples, oldest first.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Total number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if the trace holds no samples. Note that construction
    /// guarantees at least one full day, so this is only `false` for
    /// constructed traces; it exists for API completeness.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Number of samples in one day of this trace.
    pub fn samples_per_day(&self) -> usize {
        self.resolution.samples_per_day()
    }

    /// Number of complete days covered.
    pub fn days(&self) -> usize {
        self.samples.len() / self.samples_per_day()
    }

    /// The samples of day `day` (0-based), or `None` past the end.
    pub fn day(&self, day: usize) -> Option<&[f64]> {
        let spd = self.samples_per_day();
        let start = day.checked_mul(spd)?;
        self.samples.get(start..start + spd)
    }

    /// The sample at (`day`, `index_in_day`), or `None` out of range.
    pub fn get(&self, day: usize, index_in_day: usize) -> Option<f64> {
        if index_in_day >= self.samples_per_day() {
            return None;
        }
        self.samples
            .get(day * self.samples_per_day() + index_in_day)
            .copied()
    }

    /// Iterates over whole days as sample slices.
    pub fn iter_days(&self) -> impl Iterator<Item = &[f64]> {
        self.samples.chunks_exact(self.samples_per_day())
    }

    /// Total energy of the trace in joules (power unit × seconds):
    /// `Σ sample × resolution_seconds`.
    pub fn total_energy_j(&self) -> f64 {
        self.samples.iter().sum::<f64>() * self.resolution.as_seconds_f64()
    }

    /// The largest sample in the trace.
    pub fn peak_power(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }
}

impl fmt::Display for PowerTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} days @ {}, {} samples)",
            self.label,
            self.days(),
            self.resolution,
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hourly() -> Resolution {
        Resolution::from_minutes(60).unwrap()
    }

    #[test]
    fn new_accepts_whole_days() {
        let t = PowerTrace::new("t", hourly(), vec![1.0; 24]).unwrap();
        assert_eq!(t.days(), 1);
        assert_eq!(t.len(), 24);
        assert!(!t.is_empty());
    }

    #[test]
    fn new_rejects_partial_day() {
        let err = PowerTrace::new("t", hourly(), vec![1.0; 25]).unwrap_err();
        assert!(matches!(err, TraceError::PartialDay { .. }));
    }

    #[test]
    fn new_rejects_short_trace() {
        let err = PowerTrace::new("t", hourly(), vec![1.0; 3]).unwrap_err();
        assert!(matches!(err, TraceError::TooShort { .. }));
    }

    #[test]
    fn new_rejects_negative_and_non_finite() {
        let mut s = vec![1.0; 24];
        s[5] = -0.1;
        assert!(matches!(
            PowerTrace::new("t", hourly(), s).unwrap_err(),
            TraceError::NegativeSample { index: 5, .. }
        ));
        let mut s = vec![1.0; 24];
        s[7] = f64::NAN;
        assert!(matches!(
            PowerTrace::new("t", hourly(), s).unwrap_err(),
            TraceError::NonFiniteSample { index: 7 }
        ));
    }

    #[test]
    fn day_accessors() {
        let mut s = vec![0.0; 48];
        s[24] = 42.0;
        let t = PowerTrace::new("t", hourly(), s).unwrap();
        assert_eq!(t.day(1).unwrap()[0], 42.0);
        assert_eq!(t.get(1, 0), Some(42.0));
        assert_eq!(t.get(1, 24), None);
        assert_eq!(t.get(2, 0), None);
        assert!(t.day(2).is_none());
        assert_eq!(t.iter_days().count(), 2);
    }

    #[test]
    fn energy_and_peak() {
        let t = PowerTrace::new("t", hourly(), vec![2.0; 24]).unwrap();
        assert_eq!(t.total_energy_j(), 2.0 * 3600.0 * 24.0);
        assert_eq!(t.peak_power(), 2.0);
    }

    #[test]
    fn display_mentions_label_and_days() {
        let t = PowerTrace::new("site-x", hourly(), vec![0.0; 24]).unwrap();
        let s = t.to_string();
        assert!(s.contains("site-x"));
        assert!(s.contains("1 days") || s.contains("1 day"));
    }
}
