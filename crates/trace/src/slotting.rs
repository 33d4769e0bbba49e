//! Discretization of a trace into `N` equal prediction slots per day.
//!
//! This module implements the slot semantics of the paper's Fig. 4: each
//! slot contains `M` raw samples; the sample at the slot boundary is the
//! value the predictor observes (`e(i, j)` / `ẽ(j)`), the mean over the
//! slot's samples is `ē`, and the slot energy is `ē × T`.

use crate::error::TraceError;
use crate::time::SlotsPerDay;
use crate::trace::PowerTrace;
use std::fmt;

/// Identifies one slot of one day.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId {
    /// 0-based day index.
    pub day: u32,
    /// 0-based slot index within the day, `< N`.
    pub slot: u32,
}

impl SlotId {
    /// Creates a slot id.
    pub fn new(day: u32, slot: u32) -> Self {
        SlotId { day, slot }
    }

    /// The slot immediately after this one, wrapping into the next day.
    pub fn next(self, slots_per_day: usize) -> SlotId {
        if (self.slot as usize) + 1 == slots_per_day {
            SlotId::new(self.day + 1, 0)
        } else {
            SlotId::new(self.day, self.slot + 1)
        }
    }

    /// The flat index of this slot counted from day 0 slot 0.
    pub fn flat(self, slots_per_day: usize) -> usize {
        self.day as usize * slots_per_day + self.slot as usize
    }
}

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}s{}", self.day, self.slot)
    }
}

/// A read-only view of a [`PowerTrace`] discretized into `N` slots per day.
///
/// The view pre-computes, once, the two per-slot series every evaluation
/// needs (slot-start sample and mean slot power), so all accessors are
/// O(1).
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use solar_trace::{PowerTrace, Resolution, SlotsPerDay, SlotView};
///
/// // One day of 5-minute samples ramping 0,1,2,...
/// let samples: Vec<f64> = (0..288).map(f64::from).collect();
/// let trace = PowerTrace::new("ramp", Resolution::FIVE_MINUTES, samples)?;
/// let view = SlotView::new(&trace, SlotsPerDay::new(48)?)?;
///
/// // Slot 0 holds samples 0..6: start sample 0, mean 2.5.
/// assert_eq!(view.start_sample(0, 0), 0.0);
/// assert_eq!(view.mean_power(0, 0), 2.5);
/// assert_eq!(view.energy_j(0, 0), 2.5 * 1800.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct SlotView<'a> {
    trace: &'a PowerTrace,
    n: SlotsPerDay,
    samples_per_slot: usize,
    /// Per-slot boundary sample, flat-indexed (day*N + slot).
    starts: Vec<f64>,
    /// Per-slot mean power, flat-indexed.
    means: Vec<f64>,
}

impl<'a> SlotView<'a> {
    /// Builds a slot view of `trace` with `n` slots per day.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::IncompatibleSlots`] if the slot duration is
    /// not a whole multiple of the trace resolution (e.g. `N = 288`
    /// requested of a 5-minute trace is fine — exactly 1 sample per slot —
    /// but `N = 288` of a 7.5-minute trace is not).
    pub fn new(trace: &'a PowerTrace, n: SlotsPerDay) -> Result<Self, TraceError> {
        let slot_seconds = n.slot_seconds();
        let res = trace.resolution().as_seconds();
        if !slot_seconds.is_multiple_of(res) {
            return Err(TraceError::IncompatibleSlots {
                n: n.get() as u32,
                resolution_seconds: res,
            });
        }
        let samples_per_slot = (slot_seconds / res) as usize;
        let total_slots = trace.days() * n.get();
        let mut starts = Vec::with_capacity(total_slots);
        let mut means = Vec::with_capacity(total_slots);
        for chunk in trace.samples().chunks_exact(samples_per_slot) {
            starts.push(chunk[0]);
            means.push(chunk.iter().sum::<f64>() / samples_per_slot as f64);
        }
        Ok(SlotView {
            trace,
            n,
            samples_per_slot,
            starts,
            means,
        })
    }

    /// The underlying trace.
    pub fn trace(&self) -> &'a PowerTrace {
        self.trace
    }

    /// Slots per day (`N`).
    pub fn slots_per_day(&self) -> usize {
        self.n.get()
    }

    /// The validated slot count.
    pub fn n(&self) -> SlotsPerDay {
        self.n
    }

    /// Number of complete days in the view.
    pub fn days(&self) -> usize {
        self.trace.days()
    }

    /// Total number of slots (`days × N`).
    pub fn total_slots(&self) -> usize {
        self.starts.len()
    }

    /// Raw samples contained in one slot (`M` in the paper's Fig. 4).
    pub fn samples_per_slot(&self) -> usize {
        self.samples_per_slot
    }

    /// Slot duration in seconds (`T`, the prediction horizon).
    pub fn slot_seconds(&self) -> f64 {
        self.n.slot_seconds_f64()
    }

    /// The measured power sample at the *start* of the slot — the value
    /// the prediction algorithm observes (`e(i, j)` / `ẽ(j)`).
    ///
    /// # Panics
    ///
    /// Panics if `day`/`slot` are out of range.
    pub fn start_sample(&self, day: usize, slot: usize) -> f64 {
        assert!(slot < self.n.get(), "slot {slot} out of range");
        self.starts[day * self.n.get() + slot]
    }

    /// The mean power over the slot (`ē`), the reference the paper argues
    /// prediction error should be measured against (Eq. 7).
    ///
    /// # Panics
    ///
    /// Panics if `day`/`slot` are out of range.
    pub fn mean_power(&self, day: usize, slot: usize) -> f64 {
        assert!(slot < self.n.get(), "slot {slot} out of range");
        self.means[day * self.n.get() + slot]
    }

    /// The energy received during the slot in joules: `ē × T`.
    ///
    /// # Panics
    ///
    /// Panics if `day`/`slot` are out of range.
    pub fn energy_j(&self, day: usize, slot: usize) -> f64 {
        self.mean_power(day, slot) * self.slot_seconds()
    }

    /// Mean slot powers as a flat series (day-major).
    pub fn mean_series(&self) -> &[f64] {
        &self.means
    }

    /// Iterates over all slots in time order, yielding
    /// `(SlotId, start_sample, mean_power)`.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, f64, f64)> + '_ {
        let n = self.n.get();
        self.starts
            .iter()
            .zip(self.means.iter())
            .enumerate()
            .map(move |(flat, (&start, &mean))| {
                (
                    SlotId::new((flat / n) as u32, (flat % n) as u32),
                    start,
                    mean,
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Resolution;

    fn ramp_trace(days: usize) -> PowerTrace {
        let samples: Vec<f64> = (0..days * 288).map(|i| (i % 288) as f64).collect();
        PowerTrace::new("ramp", Resolution::FIVE_MINUTES, samples).unwrap()
    }

    #[test]
    fn slot_id_next_wraps_day() {
        let id = SlotId::new(3, 47);
        assert_eq!(id.next(48), SlotId::new(4, 0));
        assert_eq!(SlotId::new(3, 10).next(48), SlotId::new(3, 11));
    }

    #[test]
    fn slot_id_flat_roundtrip() {
        let id = SlotId::new(2, 5);
        assert_eq!(id.flat(48), 2 * 48 + 5);
        assert_eq!(id.to_string(), "d2s5");
    }

    #[test]
    fn view_rejects_incompatible_n() {
        let t = ramp_trace(1);
        // N=1440 would need 1-minute samples.
        let err = SlotView::new(&t, SlotsPerDay::new(1440).unwrap()).unwrap_err();
        assert!(matches!(err, TraceError::IncompatibleSlots { .. }));
    }

    #[test]
    fn view_n_equal_to_samples_per_day_is_identity() {
        let t = ramp_trace(1);
        let v = SlotView::new(&t, SlotsPerDay::new(288).unwrap()).unwrap();
        assert_eq!(v.samples_per_slot(), 1);
        for s in 0..288 {
            assert_eq!(v.start_sample(0, s), s as f64);
            assert_eq!(v.mean_power(0, s), s as f64);
        }
    }

    #[test]
    fn slot_mean_and_start_are_correct() {
        let t = ramp_trace(2);
        let v = SlotView::new(&t, SlotsPerDay::new(48).unwrap()).unwrap();
        assert_eq!(v.samples_per_slot(), 6);
        // Slot 3 of day 1 holds samples 18..24 (values 18..=23): mean 20.5.
        assert_eq!(v.start_sample(1, 3), 18.0);
        assert_eq!(v.mean_power(1, 3), 20.5);
        assert_eq!(v.energy_j(1, 3), 20.5 * 1800.0);
    }

    #[test]
    fn energy_is_conserved_across_slotting() {
        let t = ramp_trace(3);
        for n in [288u32, 96, 48, 24] {
            let v = SlotView::new(&t, SlotsPerDay::new(n).unwrap()).unwrap();
            let slot_total: f64 = (0..v.days())
                .flat_map(|d| (0..v.slots_per_day()).map(move |s| (d, s)))
                .map(|(d, s)| v.energy_j(d, s))
                .sum();
            let diff = (slot_total - t.total_energy_j()).abs();
            assert!(diff < 1e-6 * t.total_energy_j().max(1.0), "N={n}: {diff}");
        }
    }

    #[test]
    fn iter_yields_all_slots_in_order() {
        let t = ramp_trace(2);
        let v = SlotView::new(&t, SlotsPerDay::new(24).unwrap()).unwrap();
        let ids: Vec<SlotId> = v.iter().map(|(id, _, _)| id).collect();
        assert_eq!(ids.len(), 48);
        assert_eq!(ids[0], SlotId::new(0, 0));
        assert_eq!(ids[23], SlotId::new(0, 23));
        assert_eq!(ids[24], SlotId::new(1, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn start_sample_panics_out_of_range() {
        let t = ramp_trace(1);
        let v = SlotView::new(&t, SlotsPerDay::new(48).unwrap()).unwrap();
        let _ = v.start_sample(0, 48);
    }
}
