//! Prediction logs: the raw material of every error evaluation.

/// One prediction outcome: what was predicted at a slot boundary and what
/// the slot actually delivered.
///
/// Index semantics follow the paper's Fig. 4: the prediction `ê(n+1)` is
/// made at the boundary of slot `n` and estimates the energy of slot `n`
/// itself (the interval between boundaries `n` and `n+1`), so the record
/// is keyed by slot `n`.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PredictionRecord {
    /// 0-based day of the slot being estimated.
    pub day: u32,
    /// 0-based index of the slot within its day.
    pub slot: u32,
    /// The predicted power `ê(n+1)`.
    pub predicted: f64,
    /// The measured sample at the *next* boundary — `e(n+1)`, the
    /// reference of the paper's Eq. 6 / MAPE′.
    pub actual_start: f64,
    /// The mean power over the slot — `ē_n`, the reference of Eq. 7 /
    /// MAPE.
    pub actual_mean: f64,
}

impl PredictionRecord {
    /// Signed error against the mean-power reference (Eq. 7):
    /// `ē − ê`.
    pub fn error(&self) -> f64 {
        self.actual_mean - self.predicted
    }
}

/// An append-only log of prediction outcomes for one run of a predictor
/// over one trace at one `N`.
///
/// # Example
///
/// ```
/// use pred_metrics::{PredictionLog, PredictionRecord};
///
/// let mut log = PredictionLog::with_capacity(48, 1);
/// log.push(PredictionRecord {
///     day: 21, slot: 30, predicted: 410.0, actual_start: 400.0, actual_mean: 402.0,
/// });
/// assert_eq!(log.len(), 1);
/// assert_eq!(log.slots_per_day(), 48);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PredictionLog {
    slots_per_day: usize,
    records: Vec<PredictionRecord>,
}

impl PredictionLog {
    /// Creates an empty log with pre-allocated capacity.
    pub fn with_capacity(slots_per_day: usize, capacity: usize) -> Self {
        PredictionLog {
            slots_per_day,
            records: Vec::with_capacity(capacity),
        }
    }

    /// The slot count per day this log was produced at.
    pub fn slots_per_day(&self) -> usize {
        self.slots_per_day
    }

    /// Appends one record.
    pub fn push(&mut self, record: PredictionRecord) {
        self.records.push(record);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records in insertion order.
    pub fn records(&self) -> &[PredictionRecord] {
        &self.records
    }

    /// Iterates over records.
    pub fn iter(&self) -> std::slice::Iter<'_, PredictionRecord> {
        self.records.iter()
    }

    /// The largest `actual_mean` in the log — the peak used by the region
    /// of interest.
    pub fn peak_actual_mean(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.actual_mean)
            .fold(0.0, f64::max)
    }
}

impl Extend<PredictionRecord> for PredictionLog {
    fn extend<T: IntoIterator<Item = PredictionRecord>>(&mut self, iter: T) {
        self.records.extend(iter);
    }
}

impl<'a> IntoIterator for &'a PredictionLog {
    type Item = &'a PredictionRecord;
    type IntoIter = std::slice::Iter<'a, PredictionRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(day: u32, mean: f64) -> PredictionRecord {
        PredictionRecord {
            day,
            slot: 0,
            predicted: 1.0,
            actual_start: 2.0,
            actual_mean: mean,
        }
    }

    #[test]
    fn errors_have_paper_sign_convention() {
        let r = PredictionRecord {
            day: 0,
            slot: 0,
            predicted: 10.0,
            actual_start: 12.0,
            actual_mean: 11.0,
        };
        assert_eq!(r.error(), 1.0);
    }

    #[test]
    fn log_grows_and_iterates() {
        let mut log = PredictionLog::with_capacity(24, 3);
        assert!(log.is_empty());
        log.push(record(0, 5.0));
        log.extend([record(1, 7.0), record(2, 3.0)]);
        assert_eq!(log.len(), 3);
        assert_eq!(log.peak_actual_mean(), 7.0);
        let days: Vec<u32> = (&log).into_iter().map(|r| r.day).collect();
        assert_eq!(days, vec![0, 1, 2]);
    }

    #[test]
    fn with_capacity_preallocates() {
        let log = PredictionLog::with_capacity(48, 1000);
        assert_eq!(log.slots_per_day(), 48);
        assert!(log.is_empty());
    }
}
