//! A scenario's slot series — the fleet engine's one slot source — and
//! the [`TraceCachePolicy`] that decides which series a
//! [`FleetCache`](crate::FleetCache) keeps across runs.

use crate::faults::FaultInjector;
use solar_synth::{SlotStream, SynthCheckpoint, SynthCounters, TraceGenerator};
use solar_trace::SlotsPerDay;

/// How much memory the [`FleetCache`](crate::FleetCache) may spend
/// keeping slot series across runs.
///
/// Scenarios are admitted greedily in matrix order — a deterministic
/// order depending only on the matrix and the budget; a scenario whose
/// series would push the running total past the budget is **not
/// retained**: its unit synthesizes the series, walks it, and drops it,
/// keeping only the generator tail. Outputs stay byte-identical across
/// policies, thread counts and cache warmth, because a kept and a fresh
/// series are bit-identical.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceCachePolicy {
    /// Retain every series (the engine default).
    #[default]
    Unbounded,
    /// Retain series until this many bytes of series data are held.
    Bounded(u64),
}

impl TraceCachePolicy {
    /// Retain every series.
    pub fn unbounded() -> Self {
        TraceCachePolicy::Unbounded
    }

    /// Retain series until `bytes` of series data are held.
    pub fn bounded(bytes: u64) -> Self {
        TraceCachePolicy::Bounded(bytes)
    }

    /// The budget in bytes; `None` means unbounded.
    pub fn budget_bytes(&self) -> Option<u64> {
        match *self {
            TraceCachePolicy::Unbounded => None,
            TraceCachePolicy::Bounded(bytes) => Some(bytes),
        }
    }

    /// Whether a series of `series_bytes` fits next to the
    /// `running_total` bytes already admitted.
    pub(crate) fn admits(&self, running_total: u64, series_bytes: u64) -> bool {
        match self.budget_bytes() {
            None => true,
            Some(budget) => running_total.saturating_add(series_bytes) <= budget,
        }
    }
}

/// One retained series' memory footprint: the struct itself and its
/// two slot vectors. **Both** the cache's accounting
/// ([`FleetCache::trace_bytes`](crate::FleetCache::trace_bytes)) and
/// the retention estimate (the admission loop in `FleetCache::admit`) go
/// through this helper, so the bytes a [`TraceCachePolicy`] budgets
/// against are the bytes the cache reports once the series is kept.
pub(crate) fn series_footprint_bytes(slots: usize) -> usize {
    std::mem::size_of::<SlotSeries>() + slots * 2 * std::mem::size_of::<f64>()
}

/// One scenario's slot sequence as the engine consumes it: the boundary
/// sample and the mean power of every slot, in time order, plus the
/// generator state at its end. Produced by draining a
/// [`SlotStream`]; a day-append extends it in place from `tail`.
#[derive(Clone, Debug)]
pub(crate) struct SlotSeries {
    /// Day of the first slot held: 0 for a full series, later for the
    /// appended days of a resume off a bare tail, and the horizon
    /// itself for a bare tail (no slots, only the generator state).
    pub(crate) first_day: usize,
    /// Sample at each slot boundary (what predictors observe).
    pub(crate) starts: Vec<f64>,
    /// Mean power over each slot (the paper's reference).
    pub(crate) means: Vec<f64>,
    /// Generator state at the series' end.
    tail: SynthCheckpoint,
}

impl SlotSeries {
    /// Synthesizes days `0..days` from day zero.
    pub(crate) fn cold(
        generator: &TraceGenerator,
        days: usize,
        slots: SlotsPerDay,
    ) -> Result<(SlotSeries, SynthCounters), String> {
        let stream = generator
            .slot_stream(days, slots)
            .map_err(|e| e.to_string())?;
        let mut series = SlotSeries {
            first_day: 0,
            starts: Vec::new(),
            means: Vec::new(),
            tail: stream
                .checkpoint()
                .expect("a fresh stream is at a day boundary"),
        };
        let counters = series.drain(stream);
        Ok((series, counters))
    }

    /// Synthesizes the days from the tail up to `days`, appending them.
    pub(crate) fn extend(
        &mut self,
        generator: &TraceGenerator,
        days: usize,
        slots: SlotsPerDay,
    ) -> Result<SynthCounters, String> {
        let stream = generator
            .slot_stream_from(self.tail.clone(), days, slots)
            .map_err(|e| e.to_string())?;
        Ok(self.drain(stream))
    }

    fn drain(&mut self, mut stream: SlotStream) -> SynthCounters {
        let remaining = stream.size_hint().0;
        self.starts.reserve_exact(remaining);
        self.means.reserve_exact(remaining);
        for slot in stream.by_ref() {
            self.starts.push(slot.start_sample);
            self.means.push(slot.mean_power);
        }
        self.tail = stream
            .checkpoint()
            .expect("a drained stream is at a day boundary");
        stream.counters()
    }

    /// The horizon in days (the day the tail resumes at).
    pub(crate) fn days(&self) -> usize {
        self.tail.next_day()
    }

    /// Whether the series holds every slot from day zero.
    pub(crate) fn is_full(&self) -> bool {
        self.first_day == 0
    }

    /// The series without its slots: only the generator tail, from which
    /// a later day-append synthesizes just the appended days.
    pub(crate) fn into_tail(self) -> SlotSeries {
        SlotSeries {
            first_day: self.days(),
            starts: Vec::new(),
            means: Vec::new(),
            tail: self.tail,
        }
    }

    pub(crate) fn footprint_bytes(&self) -> usize {
        series_footprint_bytes(self.starts.len())
    }

    /// `(day, starts, means)` for every day from `from_day` on, with one
    /// day's slots per slice.
    pub(crate) fn days_from(
        &self,
        from_day: usize,
        n: usize,
    ) -> impl Iterator<Item = (usize, &[f64], &[f64])> {
        let skip = (from_day - self.first_day) * n;
        (from_day..)
            .zip(self.starts[skip..].chunks_exact(n))
            .zip(self.means[skip..].chunks_exact(n))
            .map(|((day, starts), means)| (day, starts, means))
    }
}

/// The paper's ROI reference peak over a slot walk: the running maximum
/// of the dimmed reference means of every slot that becomes a
/// prediction record. That is every slot but the final one, whose mean
/// stays `pending` until a later slot — or a day-append — closes its
/// record. A day-append continues the maximum from the checkpointed
/// value, which equals the cold full walk (sequential max), so the
/// grown peak is never lower. The peak reaches a unit only through the
/// record filter, so a peak that rises leaves a resume exact as long as
/// every record the checkpointed machines opened still passes the
/// filter at it: the machines are then re-judged at the grown peak,
/// and a unit falls back to a cold walk only when one of those records
/// would drop out.
#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct RoiPeak {
    pub(crate) peak: f64,
    pub(crate) pending: Option<f64>,
}

impl RoiPeak {
    /// Absorbs the series' slots from `from_day` on. The injector is
    /// consulted only for its deterministic per-day sky factor.
    pub(crate) fn absorb(
        &mut self,
        series: &SlotSeries,
        from_day: usize,
        n: usize,
        sky: &FaultInjector,
    ) {
        for (day, _, means) in series.days_from(from_day, n) {
            let factor = sky.sky_factor(day);
            for &mean in means {
                if let Some(closed) = self.pending.replace(mean * factor) {
                    self.peak = self.peak.max(closed);
                }
            }
        }
    }
}
