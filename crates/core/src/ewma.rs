//! The EWMA per-slot predictor of Kansal et al. (ACM TECS 2007) — the
//! classic baseline the paper's §I cites as the first solar predictor.

use crate::error::ParamError;
use crate::predictor::Predictor;

/// Exponentially Weighted Moving-Average predictor.
///
/// Kansal's observation: energy in a given slot is similar to the energy
/// in the *same slot on previous days*. The predictor keeps one smoothed
/// estimate per slot:
///
/// ```text
/// est(j) ← γ · ẽ(j) + (1 − γ) · est(j)      (on observing slot j)
/// ê(n+1) = est(n+1)                         (yesterday's smoothed value)
/// ```
///
/// During the first day, slots without an estimate fall back to
/// persistence.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use solar_predict::{EwmaPredictor, Predictor};
///
/// let mut ewma = EwmaPredictor::new(0.5, 24)?;
/// let day: Vec<f64> = (0..24).map(|h| (h as f64) * 10.0).collect();
/// for _ in 0..10 {
///     for &s in &day {
///         ewma.observe_and_predict(s);
///     }
/// }
/// // On identical days the estimate converges to the day itself:
/// let pred = ewma.observe_and_predict(day[0]);
/// assert!((pred - day[1]).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct EwmaPredictor {
    gamma: f64,
    slots_per_day: usize,
    estimates: Vec<f64>,
    seen: Vec<bool>,
    cursor: usize,
}

impl EwmaPredictor {
    /// Kansal's canonical smoothing factor.
    pub const DEFAULT_GAMMA: f64 = 0.5;

    /// Creates an EWMA predictor with smoothing factor `gamma` for
    /// `slots_per_day` slots.
    ///
    /// # Errors
    ///
    /// * [`ParamError::InvalidGamma`] unless `0 < γ ≤ 1` and finite.
    /// * [`ParamError::InvalidSlots`] unless `slots_per_day ≥ 2`.
    pub fn new(gamma: f64, slots_per_day: usize) -> Result<Self, ParamError> {
        if !gamma.is_finite() || gamma <= 0.0 || gamma > 1.0 {
            return Err(ParamError::InvalidGamma { gamma });
        }
        if slots_per_day < 2 {
            return Err(ParamError::InvalidSlots { slots_per_day });
        }
        Ok(EwmaPredictor {
            gamma,
            slots_per_day,
            estimates: vec![0.0; slots_per_day],
            seen: vec![false; slots_per_day],
            cursor: 0,
        })
    }

    /// The smoothing factor γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }
}

impl Predictor for EwmaPredictor {
    fn observe_and_predict(&mut self, measured: f64) -> f64 {
        let slot = self.cursor;
        if self.seen[slot] {
            self.estimates[slot] =
                self.gamma * measured + (1.0 - self.gamma) * self.estimates[slot];
        } else {
            self.estimates[slot] = measured;
            self.seen[slot] = true;
        }
        self.cursor = (self.cursor + 1) % self.slots_per_day;
        let next = self.cursor;
        if self.seen[next] {
            self.estimates[next]
        } else {
            measured
        }
    }

    fn slots_per_day(&self) -> usize {
        self.slots_per_day
    }

    fn reset(&mut self) {
        self.estimates.fill(0.0);
        self.seen.fill(false);
        self.cursor = 0;
    }

    fn name(&self) -> &str {
        "ewma"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_gamma_and_slots() {
        assert!(EwmaPredictor::new(0.0, 24).is_err());
        assert!(EwmaPredictor::new(1.1, 24).is_err());
        assert!(EwmaPredictor::new(f64::NAN, 24).is_err());
        assert!(EwmaPredictor::new(0.5, 1).is_err());
        assert!(EwmaPredictor::new(1.0, 24).is_ok());
    }

    #[test]
    fn first_day_is_persistence() {
        let mut p = EwmaPredictor::new(0.5, 4).unwrap();
        assert_eq!(p.observe_and_predict(10.0), 10.0);
        assert_eq!(p.observe_and_predict(20.0), 20.0);
    }

    #[test]
    fn converges_on_identical_days() {
        let mut p = EwmaPredictor::new(0.5, 4).unwrap();
        let day = [5.0, 10.0, 15.0, 20.0];
        for _ in 0..20 {
            for &s in &day {
                p.observe_and_predict(s);
            }
        }
        // Prediction at slot 0 targets slot 1.
        let pred = p.observe_and_predict(day[0]);
        assert!((pred - day[1]).abs() < 1e-4);
    }

    #[test]
    fn gamma_one_tracks_yesterday_exactly() {
        let mut p = EwmaPredictor::new(1.0, 3).unwrap();
        for &s in &[1.0, 2.0, 3.0] {
            p.observe_and_predict(s);
        }
        // Day two: estimates hold yesterday's values.
        let pred = p.observe_and_predict(100.0); // slot 0 observed, targets slot 1
        assert_eq!(pred, 2.0);
    }

    #[test]
    fn reset_clears_estimates() {
        let mut p = EwmaPredictor::new(0.5, 3).unwrap();
        p.observe_and_predict(8.0);
        p.reset();
        assert_eq!(p.observe_and_predict(3.0), 3.0);
    }

    #[test]
    fn smoothing_dampens_outliers() {
        let mut p = EwmaPredictor::new(0.3, 2).unwrap();
        for _ in 0..50 {
            p.observe_and_predict(100.0);
            p.observe_and_predict(100.0);
        }
        // One dark day barely moves the estimate with small gamma: the
        // day's last slot predicts tomorrow's first from it.
        p.observe_and_predict(0.0);
        let est = p.observe_and_predict(100.0);
        assert!(est > 60.0, "estimate {est}");
    }
}
