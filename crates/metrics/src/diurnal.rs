//! Diurnal (time-of-day) error profiles.
//!
//! The paper's region-of-interest argument (§III) is about *where in the
//! day* errors matter: night is trivially predicted, dawn/dusk
//! percentages are meaningless, and energy arrives in mid-day bursts.
//! This module resolves a prediction log by slot-of-day so that claim can
//! be inspected directly — and it is what motivates the time-of-day
//! bucketing in the causal dynamic selector.

use crate::error_fn::MapeAccumulator;
use crate::record::PredictionLog;
use crate::summary::EvalProtocol;

/// Per-slot-of-day MAPE profile of one prediction log.
///
/// # Example
///
/// ```
/// use pred_metrics::{DiurnalProfile, EvalProtocol, PredictionLog, PredictionRecord};
///
/// let mut log = PredictionLog::with_capacity(4, 160);
/// for day in 20..60u32 {
///     for slot in 0..4u32 {
///         log.push(PredictionRecord {
///             day, slot,
///             predicted: 90.0,
///             actual_start: 100.0,
///             actual_mean: if slot == 2 { 100.0 } else { 120.0 },
///         });
///     }
/// }
/// let profile = DiurnalProfile::of(&log, &EvalProtocol::new(0.0, 20));
/// // Slot 2's reference is closer to the prediction: lower MAPE there.
/// assert!(profile.mape(2).unwrap() < profile.mape(1).unwrap());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DiurnalProfile {
    slots_per_day: usize,
    mape: Vec<f64>,
    counts: Vec<usize>,
}

impl DiurnalProfile {
    /// Computes the per-slot profile of `log` under `protocol` (same
    /// inclusion rules as [`EvalProtocol::evaluate`]).
    pub fn of(log: &PredictionLog, protocol: &EvalProtocol) -> DiurnalProfile {
        let n = log.slots_per_day();
        let peak = log.peak_actual_mean();
        let mut accs = vec![MapeAccumulator::new(); n];
        for r in log {
            if protocol.includes(r.day, r.actual_mean, peak) {
                accs[r.slot as usize].add(r.actual_mean, r.predicted);
            }
        }
        DiurnalProfile {
            slots_per_day: n,
            mape: accs.iter().map(MapeAccumulator::value).collect(),
            counts: accs.iter().map(MapeAccumulator::count).collect(),
        }
    }

    /// Slots per day of the underlying log.
    pub fn slots_per_day(&self) -> usize {
        self.slots_per_day
    }

    /// MAPE of a slot-of-day, `None` if no prediction for that slot
    /// passed the filters (e.g. night slots).
    pub fn mape(&self, slot: usize) -> Option<f64> {
        if slot < self.slots_per_day && self.counts[slot] > 0 {
            Some(self.mape[slot])
        } else {
            None
        }
    }

    /// Number of evaluated predictions per slot-of-day.
    pub fn count(&self, slot: usize) -> usize {
        self.counts.get(slot).copied().unwrap_or(0)
    }

    /// Iterates `(slot, mape)` over slots with data.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        (0..self.slots_per_day).filter_map(|s| self.mape(s).map(|m| (s, m)))
    }

    /// The slot with the worst MAPE, if any slot has data.
    pub fn worst_slot(&self) -> Option<(usize, f64)> {
        self.iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("mape values are finite"))
    }

    /// The evaluated fraction of the day: slots with at least one
    /// included prediction over all slots. For solar data this is the
    /// daylight window inside the region of interest.
    pub fn coverage(&self) -> f64 {
        self.counts.iter().filter(|&&c| c > 0).count() as f64 / self.slots_per_day as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::PredictionRecord;

    fn log_with_day_structure() -> PredictionLog {
        // 8 slots: 0-1 and 6-7 "night" (zero mean), 2-5 "day" with slot 3
        // badly predicted.
        let mut log = PredictionLog::with_capacity(8, 480);
        for day in 20..80u32 {
            for slot in 0..8u32 {
                let mean = match slot {
                    0 | 1 | 6 | 7 => 0.0,
                    3 => 100.0,
                    _ => 100.0,
                };
                let predicted = if slot == 3 { 50.0 } else { 95.0 };
                log.push(PredictionRecord {
                    day,
                    slot,
                    predicted,
                    actual_start: mean,
                    actual_mean: mean,
                });
            }
        }
        log
    }

    #[test]
    fn night_slots_have_no_data() {
        let profile = DiurnalProfile::of(&log_with_day_structure(), &EvalProtocol::paper());
        for night in [0usize, 1, 6, 7] {
            assert_eq!(profile.mape(night), None);
            assert_eq!(profile.count(night), 0);
        }
        assert!((profile.coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn worst_slot_is_the_bad_one() {
        let profile = DiurnalProfile::of(&log_with_day_structure(), &EvalProtocol::paper());
        let (slot, mape) = profile.worst_slot().unwrap();
        assert_eq!(slot, 3);
        assert!((mape - 0.5).abs() < 1e-12);
        // Good slots are at 5%.
        assert!((profile.mape(2).unwrap() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn iter_covers_only_populated_slots() {
        let profile = DiurnalProfile::of(&log_with_day_structure(), &EvalProtocol::paper());
        let slots: Vec<usize> = profile.iter().map(|(s, _)| s).collect();
        assert_eq!(slots, vec![2, 3, 4, 5]);
        assert_eq!(profile.slots_per_day(), 8);
    }

    #[test]
    fn empty_log_profile() {
        let profile =
            DiurnalProfile::of(&PredictionLog::with_capacity(4, 0), &EvalProtocol::paper());
        assert_eq!(profile.coverage(), 0.0);
        assert!(profile.worst_slot().is_none());
    }
}
