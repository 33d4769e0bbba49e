//! Aggregation of [`ErrorSummary`]s across runs — the metric layer under
//! fleet scorecards.
//!
//! A fleet evaluation produces one [`ErrorSummary`] per (predictor,
//! scenario) pair; ranking predictors needs those collapsed across
//! scenarios. The aggregate keeps the three views that matter for a
//! robust ranking: the prediction-count-weighted mean (overall
//! accuracy), the unweighted mean (every scenario counts equally, so a
//! short arctic winter is not drowned out by a year of desert sun), and
//! the worst case (tail behaviour).

use crate::summary::ErrorSummary;

/// Collapsed error figures over a set of runs.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct SummaryAggregate {
    /// Number of summaries aggregated (zero-count summaries are skipped).
    pub runs: usize,
    /// Total prediction count across runs.
    pub predictions: usize,
    /// Prediction-count-weighted mean MAPE (fraction).
    pub weighted_mape: f64,
    /// Unweighted mean MAPE across runs (fraction).
    pub mean_mape: f64,
    /// Largest per-run MAPE (fraction).
    pub worst_mape: f64,
    /// Unweighted mean MAPE′ across runs (fraction).
    pub mean_mape_prime: f64,
}

impl SummaryAggregate {
    /// Aggregates summaries, ignoring runs with zero evaluated
    /// predictions (a scenario whose ROI filtered everything out — e.g.
    /// polar night — carries no error information).
    pub fn of<'a>(summaries: impl IntoIterator<Item = &'a ErrorSummary>) -> Self {
        let mut agg = SummaryAggregate::default();
        let mut mape_sum = 0.0;
        let mut mape_prime_sum = 0.0;
        let mut weighted_sum = 0.0;
        for s in summaries {
            if s.count == 0 {
                continue;
            }
            agg.runs += 1;
            agg.predictions += s.count;
            mape_sum += s.mape;
            mape_prime_sum += s.mape_prime;
            weighted_sum += s.mape * s.count as f64;
            if s.mape > agg.worst_mape {
                agg.worst_mape = s.mape;
            }
        }
        if agg.runs > 0 {
            agg.mean_mape = mape_sum / agg.runs as f64;
            agg.mean_mape_prime = mape_prime_sum / agg.runs as f64;
        }
        if agg.predictions > 0 {
            agg.weighted_mape = weighted_sum / agg.predictions as f64;
        }
        agg
    }
}

impl std::fmt::Display for SummaryAggregate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mean MAPE {:.2}% (weighted {:.2}%, worst {:.2}%) over {} runs",
            self.mean_mape * 100.0,
            self.weighted_mape * 100.0,
            self.worst_mape * 100.0,
            self.runs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(mape: f64, count: usize) -> ErrorSummary {
        ErrorSummary {
            mape,
            mape_prime: mape * 2.0,
            count,
            ..Default::default()
        }
    }

    #[test]
    fn empty_input_gives_zeros() {
        let agg = SummaryAggregate::of([]);
        assert_eq!(agg.runs, 0);
        assert_eq!(agg.mean_mape, 0.0);
        assert_eq!(agg.weighted_mape, 0.0);
    }

    #[test]
    fn zero_count_runs_are_skipped() {
        let runs = [summary(0.5, 0), summary(0.1, 100)];
        let agg = SummaryAggregate::of(&runs);
        assert_eq!(agg.runs, 1);
        assert!((agg.mean_mape - 0.1).abs() < 1e-12);
        assert!((agg.worst_mape - 0.1).abs() < 1e-12);
    }

    #[test]
    fn weighted_and_unweighted_differ_as_expected() {
        let runs = [summary(0.10, 900), summary(0.30, 100)];
        let agg = SummaryAggregate::of(&runs);
        assert!((agg.mean_mape - 0.20).abs() < 1e-12);
        assert!((agg.weighted_mape - 0.12).abs() < 1e-12);
        assert!((agg.worst_mape - 0.30).abs() < 1e-12);
        assert!((agg.mean_mape_prime - 0.40).abs() < 1e-12);
        assert_eq!(agg.predictions, 1000);
        assert!(!agg.to_string().is_empty());
    }
}
