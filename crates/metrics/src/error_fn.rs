//! Streaming accumulators for the average error functions.
//!
//! The paper discusses why MAPE is the right average for harvested-energy
//! prediction (§III): RMSE is outlier-dominated and scale-dependent, MAE
//! is scale-dependent; MAPE is scale-free and therefore comparable across
//! data sets. All three (plus the mean bias) are folded here so the
//! comparison itself can be reproduced: they are
//! [`ErrorSummary`](crate::ErrorSummary)'s `mape`, `rmse`, `mae` and `mbe`
//! fields, which [`EvalProtocol::evaluate`](crate::EvalProtocol::evaluate)
//! and [`StreamingEval`](crate::StreamingEval) fill.

/// Streaming MAPE: `mean(|actual − predicted| / actual)`.
///
/// Pairs with `actual == 0` are skipped (percentage of zero is
/// undefined); the paper's region of interest removes these anyway.
///
/// # Example
///
/// ```
/// use pred_metrics::MapeAccumulator;
///
/// let mut mape = MapeAccumulator::new();
/// mape.add(100.0, 90.0);
/// mape.add(200.0, 220.0);
/// assert!((mape.value() - 0.10).abs() < 1e-12); // (10% + 10%) / 2
/// ```
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

    /// Folds `(actual, predicted)` pairs into a fresh accumulator.
    macro_rules! fold {
        ($acc:ty, $pairs:expr) => {{
            let mut acc = <$acc>::new();
            for (actual, predicted) in $pairs {
                acc.add(actual, predicted);
            }
            acc.value()
        }};
    }

    /// The four error functions over the same pairs.
    fn all(pairs: &[(f64, f64)]) -> [f64; 4] {
        [
            fold!(MapeAccumulator, pairs.iter().copied()),
            fold!(RmseAccumulator, pairs.iter().copied()),
            fold!(MaeAccumulator, pairs.iter().copied()),
            fold!(MbeAccumulator, pairs.iter().copied()),
        ]
    }

    #[test]
    fn mape_matches_hand_computation() {
        let mape = fold!(MapeAccumulator, PAIRS);
        // (0.1 + 0.1 + 0 + 0.5) / 4
        assert!((mape - 0.175).abs() < 1e-12);
    }

    #[test]
    fn mape_skips_zero_actuals() {
        let mape = fold!(MapeAccumulator, [(0.0, 10.0), (100.0, 90.0)]);
        assert!((mape - 0.10).abs() < 1e-12);
    }

    #[test]
    fn rmse_matches_hand_computation() {
        let rmse = fold!(RmseAccumulator, PAIRS);
        let expect = ((100.0_f64 + 100.0 + 0.0 + 10_000.0) / 4.0).sqrt();
        assert!((rmse - expect).abs() < 1e-12);
    }

    #[test]
    fn mae_and_mbe_match_hand_computation() {
        let mae = fold!(MaeAccumulator, PAIRS);
        assert!((mae - (10.0 + 10.0 + 0.0 + 100.0) / 4.0).abs() < 1e-12);
        let mbe = fold!(MbeAccumulator, PAIRS);
        assert!((mbe - (10.0 - 10.0 + 0.0 + 100.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_give_zero() {
        assert_eq!(all(&[]), [0.0; 4]);
    }

    #[test]
    fn perfect_prediction_gives_zero() {
        assert_eq!(all(&[(10.0, 10.0), (42.0, 42.0)]), [0.0; 4]);
    }

    #[test]
    fn mape_is_scale_invariant_others_are_not() {
        let scaled: Vec<(f64, f64)> = PAIRS.iter().map(|&(a, p)| (a * 7.0, p * 7.0)).collect();
        let m1 = fold!(MapeAccumulator, PAIRS);
        let m2 = fold!(MapeAccumulator, scaled.iter().copied());
        assert!((m1 - m2).abs() < 1e-12);
        let r1 = fold!(RmseAccumulator, PAIRS);
        let r2 = fold!(RmseAccumulator, scaled.iter().copied());
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
        let rmse = fold!(RmseAccumulator, pairs.iter().copied());
        let mae = fold!(MaeAccumulator, pairs.iter().copied());
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
}
