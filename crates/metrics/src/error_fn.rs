//! Average error functions and their streaming accumulators.
//!
//! The paper discusses why MAPE is the right average for harvested-energy
//! prediction (§III): RMSE is outlier-dominated and scale-dependent, MAE
//! is scale-dependent; MAPE is scale-free and therefore comparable across
//! data sets. All four (plus the mean bias) are implemented so the
//! comparison itself can be reproduced.

/// The average error functions discussed in the paper.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorFunction {
    /// Mean Absolute Percentage Error — the paper's choice (Eq. 8).
    Mape,
    /// Root Mean Squared Error.
    Rmse,
    /// Mean Absolute Error.
    Mae,
    /// Mean Bias Error (signed mean of `actual − predicted`).
    Mbe,
}

impl ErrorFunction {
    /// Evaluates the error function over `(actual, predicted)` pairs.
    ///
    /// Pairs with `actual == 0` are skipped for MAPE (percentage of zero
    /// is undefined); the paper's region of interest removes these anyway.
    ///
    /// Returns `0.0` for an empty input.
    ///
    /// # Example
    ///
    /// ```
    /// use pred_metrics::ErrorFunction;
    ///
    /// let pairs = [(100.0, 90.0), (200.0, 220.0)];
    /// let mape = ErrorFunction::Mape.evaluate(pairs.iter().copied());
    /// assert!((mape - 0.10).abs() < 1e-12); // (10% + 10%) / 2
    /// ```
    pub fn evaluate(self, pairs: impl IntoIterator<Item = (f64, f64)>) -> f64 {
        match self {
            ErrorFunction::Mape => {
                let mut acc = MapeAccumulator::new();
                for (actual, predicted) in pairs {
                    acc.add(actual, predicted);
                }
                acc.value()
            }
            ErrorFunction::Rmse => {
                let mut acc = RmseAccumulator::new();
                for (actual, predicted) in pairs {
                    acc.add(actual, predicted);
                }
                acc.value()
            }
            ErrorFunction::Mae => {
                let mut acc = MaeAccumulator::new();
                for (actual, predicted) in pairs {
                    acc.add(actual, predicted);
                }
                acc.value()
            }
            ErrorFunction::Mbe => {
                let mut acc = MbeAccumulator::new();
                for (actual, predicted) in pairs {
                    acc.add(actual, predicted);
                }
                acc.value()
            }
        }
    }
}

impl std::fmt::Display for ErrorFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErrorFunction::Mape => write!(f, "MAPE"),
            ErrorFunction::Rmse => write!(f, "RMSE"),
            ErrorFunction::Mae => write!(f, "MAE"),
            ErrorFunction::Mbe => write!(f, "MBE"),
        }
    }
}

/// Streaming MAPE: `mean(|actual − predicted| / actual)`.
///
/// Pairs with `actual == 0` are ignored (see [`ErrorFunction::evaluate`]).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct MapeAccumulator {
    sum: f64,
    count: usize,
}

impl MapeAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one `(actual, predicted)` pair.
    pub fn add(&mut self, actual: f64, predicted: f64) {
        if actual != 0.0 {
            self.sum += ((actual - predicted) / actual).abs();
            self.count += 1;
        }
    }

    /// Adds a pre-computed absolute percentage error.
    pub fn add_abs_pct(&mut self, abs_pct: f64) {
        self.sum += abs_pct;
        self.count += 1;
    }

    /// Number of accumulated pairs.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The MAPE as a fraction (multiply by 100 for percent); `0.0` when
    /// empty.
    pub fn value(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Streaming RMSE: `sqrt(mean((actual − predicted)²))`.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct RmseAccumulator {
    sum_sq: f64,
    count: usize,
}

impl RmseAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one `(actual, predicted)` pair.
    pub fn add(&mut self, actual: f64, predicted: f64) {
        let e = actual - predicted;
        self.sum_sq += e * e;
        self.count += 1;
    }

    /// Number of accumulated pairs.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The RMSE; `0.0` when empty.
    pub fn value(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.sum_sq / self.count as f64).sqrt()
        }
    }
}

/// Streaming MAE: `mean(|actual − predicted|)`.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct MaeAccumulator {
    sum: f64,
    count: usize,
}

impl MaeAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one `(actual, predicted)` pair.
    pub fn add(&mut self, actual: f64, predicted: f64) {
        self.sum += (actual - predicted).abs();
        self.count += 1;
    }

    /// Number of accumulated pairs.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The MAE; `0.0` when empty.
    pub fn value(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Streaming mean bias error: `mean(actual − predicted)`. Positive means
/// systematic under-prediction.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct MbeAccumulator {
    sum: f64,
    count: usize,
}

impl MbeAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one `(actual, predicted)` pair.
    pub fn add(&mut self, actual: f64, predicted: f64) {
        self.sum += actual - predicted;
        self.count += 1;
    }

    /// Number of accumulated pairs.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The MBE; `0.0` when empty.
    pub fn value(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAIRS: [(f64, f64); 4] = [(100.0, 90.0), (100.0, 110.0), (50.0, 50.0), (200.0, 100.0)];

    #[test]
    fn mape_matches_hand_computation() {
        let mape = ErrorFunction::Mape.evaluate(PAIRS);
        // (0.1 + 0.1 + 0 + 0.5) / 4
        assert!((mape - 0.175).abs() < 1e-12);
    }

    #[test]
    fn mape_skips_zero_actuals() {
        let mape = ErrorFunction::Mape.evaluate([(0.0, 10.0), (100.0, 90.0)]);
        assert!((mape - 0.10).abs() < 1e-12);
    }

    #[test]
    fn rmse_matches_hand_computation() {
        let rmse = ErrorFunction::Rmse.evaluate(PAIRS);
        let expect = ((100.0_f64 + 100.0 + 0.0 + 10_000.0) / 4.0).sqrt();
        assert!((rmse - expect).abs() < 1e-12);
    }

    #[test]
    fn mae_and_mbe_match_hand_computation() {
        let mae = ErrorFunction::Mae.evaluate(PAIRS);
        assert!((mae - (10.0 + 10.0 + 0.0 + 100.0) / 4.0).abs() < 1e-12);
        let mbe = ErrorFunction::Mbe.evaluate(PAIRS);
        assert!((mbe - (10.0 - 10.0 + 0.0 + 100.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_give_zero() {
        for f in [
            ErrorFunction::Mape,
            ErrorFunction::Rmse,
            ErrorFunction::Mae,
            ErrorFunction::Mbe,
        ] {
            assert_eq!(f.evaluate(std::iter::empty()), 0.0);
        }
    }

    #[test]
    fn perfect_prediction_gives_zero() {
        let pairs = [(10.0, 10.0), (42.0, 42.0)];
        for f in [
            ErrorFunction::Mape,
            ErrorFunction::Rmse,
            ErrorFunction::Mae,
            ErrorFunction::Mbe,
        ] {
            assert_eq!(f.evaluate(pairs), 0.0, "{f}");
        }
    }

    #[test]
    fn mape_is_scale_invariant_others_are_not() {
        let scaled: Vec<(f64, f64)> = PAIRS.iter().map(|&(a, p)| (a * 7.0, p * 7.0)).collect();
        let m1 = ErrorFunction::Mape.evaluate(PAIRS);
        let m2 = ErrorFunction::Mape.evaluate(scaled.iter().copied());
        assert!((m1 - m2).abs() < 1e-12);
        let r1 = ErrorFunction::Rmse.evaluate(PAIRS);
        let r2 = ErrorFunction::Rmse.evaluate(scaled.iter().copied());
        assert!((r2 - 7.0 * r1).abs() < 1e-9);
    }

    #[test]
    fn rmse_is_outlier_dominated_relative_to_mae() {
        // One huge outlier: RMSE blows past MAE, the paper's argument
        // against RMSE for spiky solar errors.
        let pairs = [(100.0, 100.0); 9]
            .iter()
            .copied()
            .chain(std::iter::once((100.0, 1100.0)))
            .collect::<Vec<_>>();
        let rmse = ErrorFunction::Rmse.evaluate(pairs.iter().copied());
        let mae = ErrorFunction::Mae.evaluate(pairs.iter().copied());
        assert!(rmse > 3.0 * mae);
    }

    #[test]
    fn accumulator_counts() {
        let mut acc = MapeAccumulator::new();
        acc.add(10.0, 9.0);
        acc.add(0.0, 9.0); // skipped
        acc.add_abs_pct(0.5);
        assert_eq!(acc.count(), 2);
        assert!((acc.value() - (0.1 + 0.5) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn display_names() {
        assert_eq!(ErrorFunction::Mape.to_string(), "MAPE");
        assert_eq!(ErrorFunction::Rmse.to_string(), "RMSE");
    }
}
