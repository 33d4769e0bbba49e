//! Region-of-interest masking (§III).
//!
//! Night-time slots (zero power: trivially predicted, irrelevant to
//! management) and dawn/dusk slivers (tiny power: percentage errors
//! meaningless) must not influence the average error. The paper keeps
//! only samples whose value is at least 10% of the data set's peak.

/// A relative-threshold region-of-interest filter.
///
/// # Example
///
/// ```
/// use pred_metrics::RoiFilter;
///
/// let roi = RoiFilter::paper(); // 10% of peak
/// assert!(roi.includes(120.0, 1000.0));
/// assert!(!roi.includes(50.0, 1000.0));
/// ```
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RoiFilter {
    threshold_fraction: f64,
}

impl RoiFilter {
    /// Creates a filter keeping values at least `threshold_fraction` of
    /// the peak.
    ///
    /// # Panics
    ///
    /// Panics if `threshold_fraction` is not a finite value in `[0, 1]`.
    pub fn new(threshold_fraction: f64) -> Self {
        assert!(
            threshold_fraction.is_finite() && (0.0..=1.0).contains(&threshold_fraction),
            "threshold fraction must be in [0, 1], got {threshold_fraction}"
        );
        RoiFilter { threshold_fraction }
    }

    /// The paper's 10%-of-peak filter.
    pub fn paper() -> Self {
        RoiFilter::new(0.10)
    }

    /// The configured fraction.
    pub fn threshold_fraction(&self) -> f64 {
        self.threshold_fraction
    }

    /// The absolute threshold for a given peak.
    pub fn threshold(&self, peak: f64) -> f64 {
        self.threshold_fraction * peak
    }

    /// Whether `value` is inside the region of interest for a given peak.
    pub fn includes(&self, value: f64, peak: f64) -> bool {
        value >= self.threshold(peak)
    }
}

impl Default for RoiFilter {
    fn default() -> Self {
        RoiFilter::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_ten_percent() {
        assert_eq!(RoiFilter::paper().threshold_fraction(), 0.10);
        assert_eq!(RoiFilter::default(), RoiFilter::paper());
    }

    #[test]
    fn threshold_scales_with_peak() {
        let roi = RoiFilter::new(0.2);
        assert_eq!(roi.threshold(500.0), 100.0);
        assert!(roi.includes(100.0, 500.0));
        assert!(!roi.includes(99.9, 500.0));
    }

    #[test]
    fn zero_threshold_keeps_everything() {
        let roi = RoiFilter::new(0.0);
        assert!([0.0, 1.0, 2.0].iter().all(|&v| roi.includes(v, 2.0)));
    }

    #[test]
    #[should_panic(expected = "threshold fraction")]
    fn invalid_fraction_panics() {
        let _ = RoiFilter::new(1.5);
    }
}
