//! Time quantities used throughout the workspace.
//!
//! Two newtypes keep the two easily confused "per-day" quantities apart:
//! [`Resolution`] is the spacing between raw samples, while [`SlotsPerDay`]
//! is the prediction discretization `N` from the paper. Both are validated
//! at construction so downstream code never has to re-check divisibility.

use crate::error::TraceError;
use std::fmt;

/// Number of seconds in one day.
pub const SECONDS_PER_DAY: u32 = 86_400;

/// Sampling resolution of a trace: the number of seconds between two
/// consecutive samples.
///
/// A valid resolution is positive and divides a day evenly, so every trace
/// day contains a whole number of samples. The paper's data sets use 1- and
/// 5-minute resolutions ([`Resolution::ONE_MINUTE`],
/// [`Resolution::FIVE_MINUTES`]).
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use solar_trace::Resolution;
///
/// let res = Resolution::from_minutes(5)?;
/// assert_eq!(res.as_seconds(), 300);
/// assert_eq!(res.samples_per_day(), 288);
/// # Ok(())
/// # }
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Resolution(u32);

impl Resolution {
    /// One-minute resolution (1440 samples/day), as in the paper's ORNL,
    /// HSU, NPCS and PFCI data sets.
    pub const ONE_MINUTE: Resolution = Resolution(60);
    /// Five-minute resolution (288 samples/day), as in the paper's SPMD and
    /// ECSU data sets.
    pub const FIVE_MINUTES: Resolution = Resolution(300);

    /// Creates a resolution from a period in seconds.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidResolution`] if `seconds` is zero or
    /// does not divide 86 400 (the number of seconds in a day).
    pub fn from_seconds(seconds: u32) -> Result<Self, TraceError> {
        if seconds == 0 || !SECONDS_PER_DAY.is_multiple_of(seconds) {
            return Err(TraceError::InvalidResolution { seconds });
        }
        Ok(Resolution(seconds))
    }

    /// Creates a resolution from a period in minutes.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidResolution`] if the period is zero or
    /// does not divide a day evenly.
    pub fn from_minutes(minutes: u32) -> Result<Self, TraceError> {
        minutes
            .checked_mul(60)
            .ok_or(TraceError::InvalidResolution { seconds: u32::MAX })
            .and_then(Self::from_seconds)
    }

    /// The sample period in seconds.
    pub const fn as_seconds(self) -> u32 {
        self.0
    }

    /// The sample period in seconds as an `f64`, convenient for energy
    /// integration (`energy = power × seconds`).
    pub const fn as_seconds_f64(self) -> f64 {
        self.0 as f64
    }

    /// Number of samples in one complete day at this resolution.
    pub const fn samples_per_day(self) -> usize {
        (SECONDS_PER_DAY / self.0) as usize
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(60) {
            write!(f, "{} min", self.0 / 60)
        } else {
            write!(f, "{} s", self.0)
        }
    }
}

/// The prediction discretization `N`: the number of equal-duration slots a
/// day is divided into.
///
/// The paper evaluates `N ∈ {288, 96, 72, 48, 24}`; the slot length
/// `T = 86 400 / N` seconds is the *prediction horizon*.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use solar_trace::SlotsPerDay;
///
/// let n = SlotsPerDay::new(48)?;
/// assert_eq!(n.slot_seconds(), 1800); // 30-minute horizon
/// # Ok(())
/// # }
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotsPerDay(u32);

impl SlotsPerDay {
    /// The paper's evaluated sampling rates, highest first.
    pub const PAPER_VALUES: [u32; 5] = [288, 96, 72, 48, 24];

    /// Creates a slot count, validating that it is at least 2 and divides a
    /// day evenly.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidSlots`] if `n < 2` or `86 400 % n != 0`.
    pub fn new(n: u32) -> Result<Self, TraceError> {
        if n < 2 || !SECONDS_PER_DAY.is_multiple_of(n) {
            return Err(TraceError::InvalidSlots { n });
        }
        Ok(SlotsPerDay(n))
    }

    /// The number of slots per day.
    pub const fn get(self) -> usize {
        self.0 as usize
    }

    /// The slot duration (prediction horizon) in seconds.
    pub const fn slot_seconds(self) -> u32 {
        SECONDS_PER_DAY / self.0
    }

    /// The slot duration in seconds as `f64`.
    pub const fn slot_seconds_f64(self) -> f64 {
        (SECONDS_PER_DAY / self.0) as f64
    }
}

impl fmt::Display for SlotsPerDay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N={}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_validates_divisibility() {
        assert!(Resolution::from_seconds(60).is_ok());
        assert!(Resolution::from_seconds(300).is_ok());
        assert!(Resolution::from_seconds(0).is_err());
        assert!(Resolution::from_seconds(7).is_err()); // 86400 % 7 != 0
    }

    #[test]
    fn resolution_samples_per_day() {
        assert_eq!(Resolution::ONE_MINUTE.samples_per_day(), 1440);
        assert_eq!(Resolution::FIVE_MINUTES.samples_per_day(), 288);
        assert_eq!(Resolution::from_minutes(30).unwrap().samples_per_day(), 48);
    }

    #[test]
    fn resolution_from_minutes_overflow_is_error() {
        assert!(Resolution::from_minutes(u32::MAX).is_err());
    }

    #[test]
    fn resolution_display() {
        assert_eq!(Resolution::ONE_MINUTE.to_string(), "1 min");
        assert_eq!(Resolution::from_seconds(30).unwrap().to_string(), "30 s");
    }

    #[test]
    fn slots_per_day_validates() {
        for n in SlotsPerDay::PAPER_VALUES {
            assert!(SlotsPerDay::new(n).is_ok(), "N={n} should be valid");
        }
        assert!(SlotsPerDay::new(0).is_err());
        assert!(SlotsPerDay::new(1).is_err());
        assert!(SlotsPerDay::new(7).is_err());
    }

    #[test]
    fn slot_seconds_matches_paper_horizons() {
        assert_eq!(SlotsPerDay::new(288).unwrap().slot_seconds(), 300);
        assert_eq!(SlotsPerDay::new(48).unwrap().slot_seconds(), 1800);
        assert_eq!(SlotsPerDay::new(24).unwrap().slot_seconds(), 3600);
    }

    #[test]
    fn ordering_is_by_value() {
        assert!(Resolution::ONE_MINUTE < Resolution::FIVE_MINUTES);
        assert!(SlotsPerDay::new(24).unwrap() < SlotsPerDay::new(288).unwrap());
    }
}
