//! Degenerate baselines: persistence and plain moving average.
//!
//! These are the two corners of the WCMA formula — α = 1, and α = 0 with
//! Φ ≡ 1 — implemented standalone so comparisons don't pay WCMA's
//! bookkeeping and so tests can cross-check the corners.

use crate::error::ParamError;
use crate::history::DayHistory;
use crate::predictor::Predictor;

/// Predicts the next slot as the just-measured value: `ê(n+1) = ẽ(n)`.
///
/// This is what the paper observes WCMA converges to as `N → 288`
/// (α → 1): at short horizons the current sample is the best estimate.
///
/// # Example
///
/// ```
/// use solar_predict::{PersistencePredictor, Predictor};
///
/// let mut p = PersistencePredictor::new(48);
/// assert_eq!(p.observe_and_predict(640.0), 640.0);
/// ```
#[derive(Clone, Debug)]
pub struct PersistencePredictor {
    slots_per_day: usize,
}

impl PersistencePredictor {
    /// Creates a persistence predictor (the slot count only labels the
    /// configuration; the prediction rule does not use it).
    pub fn new(slots_per_day: usize) -> Self {
        PersistencePredictor { slots_per_day }
    }
}

impl Predictor for PersistencePredictor {
    fn observe_and_predict(&mut self, measured: f64) -> f64 {
        measured
    }

    fn slots_per_day(&self) -> usize {
        self.slots_per_day
    }

    fn reset(&mut self) {}

    fn name(&self) -> &str {
        "persistence"
    }
}

/// Predicts the next slot as its mean over the last `D` days:
/// `ê(n+1) = μ_D(n+1)` — WCMA with α = 0 and the conditioning factor
/// disabled.
///
/// Falls back to persistence until one day of history exists.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use solar_predict::{MovingAveragePredictor, Predictor};
///
/// let mut p = MovingAveragePredictor::new(3, 4)?;
/// for _ in 0..3 {
///     for &v in &[0.0, 10.0, 20.0, 10.0] {
///         p.observe_and_predict(v);
///     }
/// }
/// // Identical days: the average of slot 1 is exactly slot 1.
/// assert_eq!(p.observe_and_predict(0.0), 10.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct MovingAveragePredictor {
    days: usize,
    history: DayHistory,
    current: Vec<f64>,
    cursor: usize,
}

impl MovingAveragePredictor {
    /// Creates a moving-average predictor over `days` past days.
    ///
    /// # Errors
    ///
    /// * [`ParamError::InvalidDays`] if `days == 0`.
    /// * [`ParamError::InvalidSlots`] if `slots_per_day < 2`.
    pub fn new(days: usize, slots_per_day: usize) -> Result<Self, ParamError> {
        if days == 0 {
            return Err(ParamError::InvalidDays { days });
        }
        if slots_per_day < 2 {
            return Err(ParamError::InvalidSlots { slots_per_day });
        }
        Ok(MovingAveragePredictor {
            days,
            history: DayHistory::new(slots_per_day, days),
            current: vec![0.0; slots_per_day],
            cursor: 0,
        })
    }

    /// The history depth D.
    pub fn days(&self) -> usize {
        self.days
    }
}

impl Predictor for MovingAveragePredictor {
    fn observe_and_predict(&mut self, measured: f64) -> f64 {
        let n = self.history.slots();
        self.current[self.cursor] = measured;
        let target = (self.cursor + 1) % n;
        if self.cursor + 1 == n {
            let finished = std::mem::replace(&mut self.current, vec![0.0; n]);
            self.history.push_day(&finished);
            self.cursor = 0;
        } else {
            self.cursor += 1;
        }
        self.history.mean(target, self.days).unwrap_or(measured)
    }

    fn slots_per_day(&self) -> usize {
        self.history.slots()
    }

    fn reset(&mut self) {
        self.history.clear();
        self.current.fill(0.0);
        self.cursor = 0;
    }

    fn name(&self) -> &str {
        "moving-average"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persistence_echoes_input() {
        let mut p = PersistencePredictor::new(24);
        for v in [0.0, 1.5, 900.0] {
            assert_eq!(p.observe_and_predict(v), v);
        }
        p.reset();
        assert_eq!(p.name(), "persistence");
        assert_eq!(p.slots_per_day(), 24);
    }

    #[test]
    fn moving_average_validates() {
        assert!(MovingAveragePredictor::new(0, 24).is_err());
        assert!(MovingAveragePredictor::new(3, 1).is_err());
    }

    #[test]
    fn moving_average_averages_past_days() {
        let mut p = MovingAveragePredictor::new(2, 2).unwrap();
        // Day 1: [10, 20]; day 2: [30, 40].
        p.observe_and_predict(10.0);
        p.observe_and_predict(20.0);
        p.observe_and_predict(30.0);
        // Observing slot 1 of day 2 completes the day; prediction targets
        // slot 0 of day 3: mean of {10, 30} = 20.
        let pred = p.observe_and_predict(40.0);
        assert_eq!(pred, 20.0);
        // Next: slot 0 observed, targets slot 1: mean of {20, 40} = 30.
        let pred = p.observe_and_predict(99.0);
        assert_eq!(pred, 30.0);
    }

    #[test]
    fn moving_average_warmup_is_persistence() {
        let mut p = MovingAveragePredictor::new(3, 4).unwrap();
        assert_eq!(p.observe_and_predict(7.0), 7.0);
        assert_eq!(p.observe_and_predict(8.0), 8.0);
    }

    #[test]
    fn moving_average_reset() {
        let mut p = MovingAveragePredictor::new(2, 2).unwrap();
        for v in [1.0, 2.0, 3.0, 4.0] {
            p.observe_and_predict(v);
        }
        p.reset();
        assert_eq!(p.observe_and_predict(5.0), 5.0); // warm-up again
        assert_eq!(p.days(), 2);
        assert_eq!(p.name(), "moving-average");
    }
}
