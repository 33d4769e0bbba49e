//! The paper's full evaluation protocol (§III–§IV-A) and its result type.

use crate::error_fn::{MaeAccumulator, MapeAccumulator, MbeAccumulator, RmseAccumulator};
use crate::record::{PredictionLog, PredictionRecord};
use crate::roi::RoiFilter;

/// Aggregated error figures of one predictor run under one protocol.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct ErrorSummary {
    /// MAPE against mean slot power (the paper's headline metric), as a
    /// fraction.
    pub mape: f64,
    /// MAPE against slot-start samples (the paper's MAPE′), as a fraction.
    pub mape_prime: f64,
    /// RMSE against mean slot power.
    pub rmse: f64,
    /// MAE against mean slot power.
    pub mae: f64,
    /// Mean bias against mean slot power.
    pub mbe: f64,
    /// Number of predictions that passed the filters.
    pub count: usize,
}

impl ErrorSummary {
    /// MAPE in percent, as printed in the paper's tables.
    pub fn mape_pct(&self) -> f64 {
        self.mape * 100.0
    }

    /// MAPE′ in percent.
    pub fn mape_prime_pct(&self) -> f64 {
        self.mape_prime * 100.0
    }
}

impl std::fmt::Display for ErrorSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MAPE {:.2}% / MAPE' {:.2}% over {} predictions",
            self.mape_pct(),
            self.mape_prime_pct(),
            self.count
        )
    }
}

/// The paper's evaluation protocol: region-of-interest filter + warm-up
/// day cut-off.
///
/// Evaluation keeps a record when **both** hold:
///
/// * `record.day >= first_eval_day` — the paper evaluates days 21–365
///   (1-based) so the `D = 20` history matrix is full and every `D` sees
///   identical evaluation points; `first_eval_day` is 0-based, so the
///   paper value is 20.
/// * `record.actual_mean` is at least `roi` of the log's peak mean power.
///   The same mask (based on mean slot power) is used for MAPE and MAPE′
///   so both average over identical sample points, as §IV-A requires.
///
/// # Example
///
/// ```
/// use pred_metrics::EvalProtocol;
///
/// let protocol = EvalProtocol::paper();
/// assert_eq!(protocol.first_eval_day(), 20);
/// assert_eq!(protocol.roi().threshold_fraction(), 0.10);
/// ```
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct EvalProtocol {
    roi: RoiFilter,
    first_eval_day: u32,
}

impl EvalProtocol {
    /// Creates a protocol with a custom ROI fraction and warm-up.
    ///
    /// # Panics
    ///
    /// Panics if `roi_fraction` is outside `[0, 1]` (see
    /// [`RoiFilter::new`]).
    pub fn new(roi_fraction: f64, first_eval_day: u32) -> Self {
        EvalProtocol {
            roi: RoiFilter::new(roi_fraction),
            first_eval_day,
        }
    }

    /// The paper's protocol: 10% ROI, evaluate from (0-based) day 20.
    pub fn paper() -> Self {
        EvalProtocol {
            roi: RoiFilter::paper(),
            first_eval_day: 20,
        }
    }

    /// The region-of-interest filter.
    pub fn roi(&self) -> RoiFilter {
        self.roi
    }

    /// First 0-based day included in averages.
    pub fn first_eval_day(&self) -> u32 {
        self.first_eval_day
    }

    /// Whether a record at `day` with reference mean `actual_mean`
    /// participates, given the log peak.
    pub fn includes(&self, day: u32, actual_mean: f64, peak: f64) -> bool {
        day >= self.first_eval_day && self.roi.includes(actual_mean, peak)
    }

    /// Evaluates a prediction log under this protocol.
    ///
    /// The ROI peak is the largest mean slot power *in the log*, matching
    /// the paper's per-data-set peak. Delegates to [`StreamingEval`]
    /// (one record at a time with the peak known up front), so log-based
    /// and streaming evaluation are bit-identical by construction.
    pub fn evaluate(&self, log: &PredictionLog) -> ErrorSummary {
        let mut eval = StreamingEval::new(*self, log.peak_actual_mean());
        for r in log {
            eval.push_record(*r);
        }
        eval.finish()
    }
}

/// A sink for completed [`PredictionRecord`]s — what a metrics pass
/// feeds, whether it materializes the log ([`PredictionLog`]) or folds
/// each record straight into protocol accumulators ([`StreamingEval`]).
pub trait RecordSink {
    /// Accepts the next record (records arrive in time order).
    fn push_record(&mut self, record: PredictionRecord);
}

impl RecordSink for PredictionLog {
    fn push_record(&mut self, record: PredictionRecord) {
        self.push(record);
    }
}

/// [`EvalProtocol::evaluate`] as a one-record-at-a-time fold: O(1)
/// memory instead of a horizon-proportional log.
///
/// The paper's ROI filter needs the *global* peak mean power before any
/// record can be judged, so the peak must be supplied up front. For a
/// fleet scenario that is cheap: `actual_mean` is a property of the
/// trace (and its climate dimming), identical for every job, so one
/// scan of the scenario's slot means yields the peak all of its jobs
/// share. Folding records in time order with that peak reproduces
/// [`EvalProtocol::evaluate`] bit-for-bit (the log path delegates here;
/// a test pins the equality).
#[derive(Clone, Debug)]
pub struct StreamingEval {
    protocol: EvalProtocol,
    peak: f64,
    mape: MapeAccumulator,
    mape_prime: MapeAccumulator,
    rmse: RmseAccumulator,
    mae: MaeAccumulator,
    mbe: MbeAccumulator,
}

impl StreamingEval {
    /// Starts an evaluation with the ROI peak known up front.
    pub fn new(protocol: EvalProtocol, peak_actual_mean: f64) -> Self {
        StreamingEval {
            protocol,
            peak: peak_actual_mean,
            mape: MapeAccumulator::new(),
            mape_prime: MapeAccumulator::new(),
            rmse: RmseAccumulator::new(),
            mae: MaeAccumulator::new(),
            mbe: MbeAccumulator::new(),
        }
    }

    /// Judges every later record against `peak_actual_mean` instead.
    /// The records already folded keep their verdicts, so the result
    /// equals an evaluation started at the new peak only if each of
    /// those records is judged the same under both peaks; the caller
    /// must know that it is.
    pub fn rejudge(&mut self, peak_actual_mean: f64) {
        self.peak = peak_actual_mean;
    }

    /// Closes the evaluation.
    pub fn finish(self) -> ErrorSummary {
        ErrorSummary {
            mape: self.mape.value(),
            mape_prime: self.mape_prime.value(),
            rmse: self.rmse.value(),
            mae: self.mae.value(),
            mbe: self.mbe.value(),
            count: self.mape.count(),
        }
    }
}

impl RecordSink for StreamingEval {
    fn push_record(&mut self, r: PredictionRecord) {
        if !self.protocol.includes(r.day, r.actual_mean, self.peak) {
            return;
        }
        self.mape.add(r.actual_mean, r.predicted);
        // MAPE′: same sample points, error against the slot-start
        // sample, normalized by the same reference power so the two
        // numbers differ only in the error definition (Eq. 6 vs 7).
        if r.actual_mean != 0.0 {
            self.mape_prime
                .add_abs_pct(((r.actual_start - r.predicted) / r.actual_mean).abs());
        }
        self.rmse.add(r.actual_mean, r.predicted);
        self.mae.add(r.actual_mean, r.predicted);
        self.mbe.add(r.actual_mean, r.predicted);
    }
}

impl Default for EvalProtocol {
    fn default() -> Self {
        EvalProtocol::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::PredictionRecord;

    fn make_log() -> PredictionLog {
        let mut log = PredictionLog::with_capacity(2, 0);
        // Day 0: should be excluded by warm-up.
        log.push(PredictionRecord {
            day: 0,
            slot: 0,
            predicted: 0.0,
            actual_start: 1000.0,
            actual_mean: 1000.0,
        });
        // Day 30, in ROI.
        log.push(PredictionRecord {
            day: 30,
            slot: 0,
            predicted: 900.0,
            actual_start: 950.0,
            actual_mean: 1000.0,
        });
        // Day 31, below ROI (5% of peak).
        log.push(PredictionRecord {
            day: 31,
            slot: 1,
            predicted: 10.0,
            actual_start: 50.0,
            actual_mean: 50.0,
        });
        log
    }

    #[test]
    fn warmup_and_roi_filter_records() {
        let summary = EvalProtocol::paper().evaluate(&make_log());
        assert_eq!(summary.count, 1);
        assert!((summary.mape - 0.10).abs() < 1e-12);
        assert!((summary.mape_prime - 0.05).abs() < 1e-12);
        assert!((summary.rmse - 100.0).abs() < 1e-12);
        assert!((summary.mae - 100.0).abs() < 1e-12);
        assert!((summary.mbe - 100.0).abs() < 1e-12);
    }

    #[test]
    fn zero_roi_and_zero_warmup_keep_all() {
        let protocol = EvalProtocol::new(0.0, 0);
        let summary = protocol.evaluate(&make_log());
        assert_eq!(summary.count, 3);
    }

    #[test]
    fn empty_log_gives_zeros() {
        let summary = EvalProtocol::paper().evaluate(&PredictionLog::with_capacity(48, 0));
        assert_eq!(summary.count, 0);
        assert_eq!(summary.mape, 0.0);
    }

    #[test]
    fn percent_helpers() {
        let s = ErrorSummary {
            mape: 0.158,
            mape_prime: 0.42,
            ..Default::default()
        };
        assert!((s.mape_pct() - 15.8).abs() < 1e-12);
        assert!((s.mape_prime_pct() - 42.0).abs() < 1e-12);
        assert!(!s.to_string().is_empty());
    }

    #[test]
    fn streaming_eval_with_precomputed_peak_matches_log_evaluation() {
        let log = make_log();
        let protocol = EvalProtocol::paper();
        let from_log = protocol.evaluate(&log);
        let mut streaming = StreamingEval::new(protocol, log.peak_actual_mean());
        for r in &log {
            streaming.push_record(*r);
        }
        assert_eq!(streaming.finish(), from_log);
    }

    #[test]
    fn rejudged_eval_matches_one_started_at_the_new_peak() {
        // The log's records are judged alike at peaks 1000 and 1500; a
        // later record of mean 120 is in the ROI at 1000 only, so it
        // must be judged at the peak in force when it arrives.
        let mut log = make_log();
        log.push(PredictionRecord {
            day: 32,
            slot: 0,
            predicted: 100.0,
            actual_start: 120.0,
            actual_mean: 120.0,
        });
        let protocol = EvalProtocol::paper();
        let mut at_new_peak = StreamingEval::new(protocol, 1500.0);
        let mut rejudged = StreamingEval::new(protocol, 1000.0);
        for (idx, r) in log.iter().enumerate() {
            if idx == 3 {
                rejudged.rejudge(1500.0);
            }
            at_new_peak.push_record(*r);
            rejudged.push_record(*r);
        }
        let expected = at_new_peak.finish();
        assert_eq!(expected.count, 1);
        assert_eq!(rejudged.finish(), expected);
    }

    #[test]
    fn includes_matches_evaluate_semantics() {
        let p = EvalProtocol::paper();
        assert!(p.includes(20, 100.0, 1000.0));
        assert!(!p.includes(19, 100.0, 1000.0));
        assert!(!p.includes(20, 99.0, 1000.0));
    }
}
