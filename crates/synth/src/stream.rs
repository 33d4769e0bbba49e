//! Streaming trace generation: slots on demand, bounded memory.
//!
//! [`TraceGenerator::generate_days`] materializes the whole horizon —
//! fine for the paper's 40-day studies, hopeless for multi-year fleet
//! scenarios where a single trace would dominate memory. A
//! [`SlotStream`] yields [`StreamedSlot`]s at a chosen discretization,
//! carrying the same `(start_sample, mean_power)` pair a
//! `solar_trace::SlotView` of the batch trace would expose
//! (property-tested bit-equal), while holding only one day of samples
//! at a time.
//!
//! Bit-equality holds because both paths run the identical per-day
//! generation core (same RNG draw order) and the slot mean is summed in
//! the same sample order as `SlotView`.

use crate::generator::{DayScratch, DayState, SynthCheckpoint, TraceGenerator};
use crate::lanes::SynthCounters;
use solar_trace::{SlotsPerDay, TraceError};

/// One slot of a streamed trace: the discretized view the evaluation
/// pipeline consumes, matching `solar_trace::SlotView` semantics.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct StreamedSlot {
    /// 0-based day.
    pub day: usize,
    /// 0-based slot within the day.
    pub slot: usize,
    /// The measured sample at the slot boundary (what predictors see).
    pub start_sample: f64,
    /// Mean power over the slot's samples (the paper's `ē` reference).
    pub mean_power: f64,
}

/// Slots of a synthetic trace, produced on demand with one day of raw
/// samples buffered at a time.
///
/// For the same `(config, seed, days, n)`, every yielded slot is
/// bit-identical to `SlotView::new(&generator.generate_days(days)?, n)`
/// — the buffered day (its raw samples, plus the synthesis panels of
/// clear-sky GHI and up to two normals per sample) is what replaces the
/// full-horizon trace allocation.
#[derive(Clone, Debug)]
pub struct SlotStream {
    generator: TraceGenerator,
    state: DayState,
    /// The day bodies' panels: stream-owned, so checkpoints skip them.
    scratch: DayScratch,
    day_buf: Vec<f64>,
    day: usize,
    days: usize,
    slot: usize,
    n: usize,
    samples_per_slot: usize,
    /// Counter reading at construction: zero for fresh streams,
    /// the checkpoint's cumulative position for resumed ones —
    /// [`SlotStream::counters`] reports work done by *this* stream.
    base: SynthCounters,
}

impl SlotStream {
    fn new(generator: TraceGenerator, days: usize, n: SlotsPerDay) -> Result<Self, TraceError> {
        let res = generator.config().resolution;
        if days == 0 {
            return Err(TraceError::TooShort {
                provided: 0,
                required: res.samples_per_day(),
            });
        }
        let samples_per_slot = Self::samples_per_slot(&generator, n)?;
        let state = generator.day_state();
        Ok(SlotStream {
            generator,
            state,
            scratch: DayScratch::default(),
            day_buf: Vec::new(),
            day: 0,
            days,
            slot: 0,
            n: n.get(),
            samples_per_slot,
            base: SynthCounters::default(),
        })
    }

    fn resume(
        generator: TraceGenerator,
        checkpoint: SynthCheckpoint,
        total_days: usize,
        n: SlotsPerDay,
    ) -> Result<Self, TraceError> {
        let res = generator.config().resolution;
        if total_days <= checkpoint.next_day {
            return Err(TraceError::TooShort {
                provided: total_days * res.samples_per_day(),
                required: (checkpoint.next_day + 1) * res.samples_per_day(),
            });
        }
        let samples_per_slot = Self::samples_per_slot(&generator, n)?;
        let base = checkpoint.state.counters();
        Ok(SlotStream {
            generator,
            state: checkpoint.state,
            scratch: DayScratch::default(),
            day_buf: Vec::new(),
            day: checkpoint.next_day,
            days: total_days,
            slot: 0,
            n: n.get(),
            samples_per_slot,
            base,
        })
    }

    fn samples_per_slot(generator: &TraceGenerator, n: SlotsPerDay) -> Result<usize, TraceError> {
        let res = generator.config().resolution;
        let slot_seconds = n.slot_seconds();
        if !slot_seconds.is_multiple_of(res.as_seconds()) {
            return Err(TraceError::IncompatibleSlots {
                n: n.get() as u32,
                resolution_seconds: res.as_seconds(),
            });
        }
        Ok((slot_seconds / res.as_seconds()) as usize)
    }

    /// Slots per day of the stream.
    pub fn slots_per_day(&self) -> usize {
        self.n
    }

    /// Total slots the stream will yield.
    pub fn total_slots(&self) -> usize {
        self.days * self.n
    }

    /// Synthesis-cost counters at the stream's current position —
    /// keystream blocks consumed and normal draws served so far. For
    /// a resumed stream this is the resumed segment's work alone (the
    /// checkpoint's position is subtracted), so per-segment readings
    /// sum exactly to the cold-run total. Read once after draining
    /// (or abandoning) the stream and merge into a run ledger per
    /// work unit; never sample this per slot.
    pub fn counters(&self) -> SynthCounters {
        self.state.counters().since(self.base)
    }

    /// The synthesis resume point at the stream's current position,
    /// or `None` mid-day: checkpoints exist only at day boundaries
    /// (before any slot of a day has been yielded — which includes a
    /// fully drained stream).
    pub fn checkpoint(&self) -> Option<SynthCheckpoint> {
        if self.slot != 0 {
            return None;
        }
        Some(SynthCheckpoint {
            state: self.state.clone(),
            next_day: self.day,
        })
    }
}

impl Iterator for SlotStream {
    type Item = StreamedSlot;

    fn next(&mut self) -> Option<StreamedSlot> {
        if self.slot == 0 {
            if self.day == self.days {
                return None;
            }
            self.generator.generate_day_into(
                &mut self.state,
                &mut self.scratch,
                self.day,
                &mut self.day_buf,
            );
        }
        let start = self.slot * self.samples_per_slot;
        let chunk = &self.day_buf[start..start + self.samples_per_slot];
        // Identical summation order to SlotView::new, so means are
        // bit-equal to the materialized path.
        let mean = chunk.iter().sum::<f64>() / self.samples_per_slot as f64;
        let item = StreamedSlot {
            day: self.day,
            slot: self.slot,
            start_sample: chunk[0],
            mean_power: mean,
        };
        self.slot += 1;
        if self.slot == self.n {
            self.slot = 0;
            self.day += 1;
        }
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let produced = self.day * self.n + self.slot;
        let total = self.total_slots();
        (total - produced, Some(total - produced))
    }
}

impl TraceGenerator {
    /// Streams `days` days discretized into `n` slots per day without
    /// materializing the trace; bit-identical to building a `SlotView`
    /// over the batch-generated trace.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if `days` is zero or the slot duration is
    /// not a whole multiple of the site resolution.
    pub fn slot_stream(&self, days: usize, n: SlotsPerDay) -> Result<SlotStream, TraceError> {
        SlotStream::new(self.clone(), days, n)
    }

    /// Streams the days `checkpoint.next_day()..total_days` discretized
    /// into `n` slots per day, continuing the keystream from
    /// `checkpoint` — every yielded slot is bit-identical to the
    /// corresponding slot of a fresh [`TraceGenerator::slot_stream`]
    /// over the full horizon, without regenerating the prefix.
    /// [`SlotStream::counters`] on the resumed stream reports the
    /// resumed segment's synthesis work alone.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if `total_days` does not extend past the
    /// checkpoint or the slot duration is not a whole multiple of the
    /// site resolution.
    pub fn slot_stream_from(
        &self,
        checkpoint: SynthCheckpoint,
        total_days: usize,
        n: SlotsPerDay,
    ) -> Result<SlotStream, TraceError> {
        SlotStream::resume(self.clone(), checkpoint, total_days, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::Site;
    use solar_trace::{SlotView, SlotsPerDay};

    #[test]
    fn slot_stream_matches_slot_view_bit_for_bit() {
        let generator = TraceGenerator::new(Site::Hsu.config(), 5);
        let days = 4;
        let n = SlotsPerDay::new(48).unwrap();
        let trace = generator.generate_days(days).unwrap();
        let view = SlotView::new(&trace, n).unwrap();
        let slots: Vec<StreamedSlot> = generator.slot_stream(days, n).unwrap().collect();
        assert_eq!(slots.len(), view.total_slots());
        for s in &slots {
            assert_eq!(
                s.start_sample.to_bits(),
                view.start_sample(s.day, s.slot).to_bits()
            );
            assert_eq!(
                s.mean_power.to_bits(),
                view.mean_power(s.day, s.slot).to_bits()
            );
        }
    }

    #[test]
    fn streams_reject_bad_parameters() {
        let generator = TraceGenerator::new(Site::Pfci.config(), 1);
        assert!(generator
            .slot_stream(0, SlotsPerDay::new(48).unwrap())
            .is_err());
        // N = 1440 needs 1-minute samples; PFCI is 1-minute, so use a
        // 5-minute site to provoke incompatibility.
        let five_min = TraceGenerator::new(Site::Spmd.config(), 1);
        assert!(five_min
            .slot_stream(3, SlotsPerDay::new(1440).unwrap())
            .is_err());
    }

    #[test]
    fn slot_stream_buffer_is_one_day() {
        let generator = TraceGenerator::new(Site::Pfci.config(), 1);
        let mut stream = generator
            .slot_stream(1000, SlotsPerDay::new(48).unwrap())
            .unwrap();
        for _ in stream.by_ref().take(3 * 48) {}
        // One day of 1-minute samples, its clear-sky panel and up to
        // two normals per sample (plus the day's few fronts and
        // transits), however long the horizon.
        let held = stream.day_buf.capacity() * 8 + stream.scratch.capacity_bytes();
        assert!((1440 * 8..=5 * 1440 * 8).contains(&held), "{held} bytes");
        assert_eq!(stream.total_slots(), 48_000);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// The slot stream reproduces the batch path bit-for-bit for
        /// any site, seed, horizon, and compatible discretization.
        #[test]
        fn streamed_equals_batch_for_any_site_seed_and_horizon(
            site_idx in 0usize..Site::ALL.len(),
            seed in 0u64..u64::MAX,
            days in 1usize..8,
            n_idx in 0usize..3,
        ) {
            let site = Site::ALL[site_idx];
            let n = SlotsPerDay::new([24u32, 48, 96][n_idx]).unwrap();
            let generator = TraceGenerator::new(site.config(), seed);
            let batch = generator.generate_days(days).unwrap();

            let view = SlotView::new(&batch, n).unwrap();
            let mut count = 0;
            for slot in generator.slot_stream(days, n).unwrap() {
                proptest::prop_assert_eq!(
                    slot.start_sample.to_bits(),
                    view.start_sample(slot.day, slot.slot).to_bits()
                );
                proptest::prop_assert_eq!(
                    slot.mean_power.to_bits(),
                    view.mean_power(slot.day, slot.slot).to_bits()
                );
                count += 1;
            }
            proptest::prop_assert_eq!(count, view.total_slots());
        }
    }

    #[test]
    fn slot_stream_counters_track_consumption() {
        let generator = TraceGenerator::new(Site::Hsu.config(), 5);
        let mut stream = generator
            .slot_stream(3, SlotsPerDay::new(48).unwrap())
            .unwrap();
        let before = stream.counters();
        assert_eq!(before.normal_draws, 0, "no draws before iteration");
        for _ in stream.by_ref() {}
        let after = stream.counters();
        assert!(after.keystream_blocks > before.keystream_blocks);
        assert!(after.normal_draws > 0);
        // Counters must match the batch path's accounting exactly.
        let (_, _, batch) = generator.generate_counted(3).unwrap();
        assert_eq!(after, batch);
    }

    #[test]
    fn resumed_slot_stream_is_bit_equal_to_fresh_tail() {
        use crate::weather::StreamVersion;
        for version in [StreamVersion::V1, StreamVersion::V2] {
            let mut config = Site::Hsu.config();
            config.weather.stream_version = version;
            let generator = TraceGenerator::new(config, 5);
            let n = SlotsPerDay::new(48).unwrap();
            let (prefix_days, total_days) = (3usize, 7usize);

            // Drain a prefix stream and checkpoint at its horizon.
            let mut prefix = generator.slot_stream(prefix_days, n).unwrap();
            for _ in prefix.by_ref() {}
            let prefix_counters = prefix.counters();
            let checkpoint = prefix
                .checkpoint()
                .expect("drained stream is at a boundary");
            assert_eq!(checkpoint.next_day(), prefix_days);

            let full: Vec<StreamedSlot> = generator.slot_stream(total_days, n).unwrap().collect();
            let mut resumed = generator
                .slot_stream_from(checkpoint, total_days, n)
                .unwrap();
            let tail: Vec<StreamedSlot> = resumed.by_ref().collect();
            assert_eq!(tail.len(), (total_days - prefix_days) * n.get());
            for (a, b) in tail.iter().zip(&full[prefix_days * n.get()..]) {
                assert_eq!(a.day, b.day);
                assert_eq!(a.slot, b.slot);
                assert_eq!(a.start_sample.to_bits(), b.start_sample.to_bits());
                assert_eq!(a.mean_power.to_bits(), b.mean_power.to_bits());
            }

            // Segment counters sum exactly to the cold-run total.
            let mut sum = prefix_counters;
            sum.add(resumed.counters());
            let (_, _, cold) = generator.generate_counted(total_days).unwrap();
            assert_eq!(sum, cold, "{version:?}: segment counters must add up");
        }
    }

    #[test]
    fn checkpoints_hold_no_day_scratch() {
        use crate::weather::StreamVersion;
        for (version, lane_batch_bytes) in [(StreamVersion::V1, 0), (StreamVersion::V2, 256 * 8)] {
            let mut config = Site::Hsu.config();
            config.weather.stream_version = version;
            let generator = TraceGenerator::new(config, 5);
            let mut stream = generator
                .slot_stream(3, SlotsPerDay::new(48).unwrap())
                .unwrap();
            for _ in stream.by_ref() {}
            assert!(
                stream.scratch.capacity_bytes() > 0,
                "{version:?}: the stream keeps its panels"
            );
            let checkpoint = stream.checkpoint().unwrap();
            // Only the v2 lane batch, which is stream state, is owned;
            // the hour grid is shared, not copied.
            assert_eq!(
                checkpoint.state.owned_heap_bytes(),
                lane_batch_bytes,
                "{version:?}"
            );
            assert!(checkpoint.state.shares_hour_grid(&stream.state));
            let other = TraceGenerator::new(Site::Ornl.config(), 6)
                .slot_stream(1, SlotsPerDay::new(48).unwrap())
                .unwrap();
            assert!(
                other.state.shares_hour_grid(&stream.state),
                "one grid per resolution"
            );
            let resumed = generator
                .slot_stream_from(checkpoint, 4, SlotsPerDay::new(48).unwrap())
                .unwrap();
            assert_eq!(resumed.scratch.capacity_bytes(), 0, "{version:?}");
        }
    }

    #[test]
    fn checkpoints_only_exist_at_day_boundaries() {
        let generator = TraceGenerator::new(Site::Hsu.config(), 5);
        let n = SlotsPerDay::new(48).unwrap();
        let mut stream = generator.slot_stream(2, n).unwrap();
        assert!(
            stream.checkpoint().is_some(),
            "unstarted stream is at day 0"
        );
        stream.next();
        assert!(stream.checkpoint().is_none(), "mid-day has no checkpoint");
        for _ in stream.by_ref() {}
        let checkpoint = stream.checkpoint().unwrap();
        // Resuming requires a horizon beyond the checkpoint.
        assert!(generator
            .slot_stream_from(checkpoint.clone(), 2, n)
            .is_err());
        assert!(generator.slot_stream_from(checkpoint, 3, n).is_ok());
    }

    #[test]
    fn resumed_size_hint_counts_the_tail_only() {
        let generator = TraceGenerator::new(Site::Spmd.config(), 3);
        let n = SlotsPerDay::new(24).unwrap();
        let mut prefix = generator.slot_stream(1, n).unwrap();
        for _ in prefix.by_ref() {}
        let resumed = generator
            .slot_stream_from(prefix.checkpoint().unwrap(), 3, n)
            .unwrap();
        assert_eq!(resumed.size_hint(), (48, Some(48)));
    }

    #[test]
    fn size_hints_are_exact() {
        let generator = TraceGenerator::new(Site::Spmd.config(), 3);
        let mut stream = generator
            .slot_stream(2, SlotsPerDay::new(24).unwrap())
            .unwrap();
        assert_eq!(stream.size_hint(), (48, Some(48)));
        stream.next();
        assert_eq!(stream.size_hint(), (47, Some(47)));
    }
}
