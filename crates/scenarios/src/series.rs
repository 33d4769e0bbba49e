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
/// order depending only on the matrix and the resolved budget; a
/// scenario whose series would push the running total past the budget
/// is **not retained**: its unit synthesizes the series, walks it, and
/// drops it, keeping only the generator tail. Outputs stay
/// byte-identical across policies, thread counts and cache warmth,
/// because a kept and a fresh series are bit-identical.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceCachePolicy {
    /// Retain every series.
    Unbounded,
    /// Retain series until this many bytes of series data are held.
    Bounded(u64),
    /// Size the budget from a memory ceiling: `1/8` of the configured
    /// ceiling when given, else `1/8` of the machine's available memory
    /// detected at run start, else the fixed
    /// [`ADAPTIVE_FALLBACK_BUDGET_BYTES`] (4 MiB) default. The engine
    /// default — with byte-identical output either way (only the
    /// retained/dropped split moves with the machine).
    Adaptive {
        /// Optional configured memory ceiling in bytes; `None` detects
        /// available memory at run start.
        ceiling_bytes: Option<u64>,
    },
}

/// The adaptive policy's trace budget when no ceiling is configured and
/// the machine's available memory cannot be detected.
pub const ADAPTIVE_FALLBACK_BUDGET_BYTES: u64 = 4 << 20;

/// Where a run's trace budget came from — the previously invisible
/// half of the adaptive policy's decision, now recorded in the run
/// ledger (`admission/trace_budget_source`) and printed in scorecard
/// text output.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TraceBudgetSource {
    /// [`TraceCachePolicy::Unbounded`]: no budget at all.
    Unbounded,
    /// [`TraceCachePolicy::Bounded`]: the configured byte count.
    Configured,
    /// Adaptive with an explicit ceiling: `ceiling / 8`.
    AdaptiveCeiling,
    /// Adaptive from `/proc/meminfo` `MemAvailable`: `available / 8`.
    AdaptiveDetectedMemory,
    /// Adaptive with nothing to consult: the fixed 4 MiB fallback.
    AdaptiveFallback,
}

impl std::fmt::Display for TraceBudgetSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TraceBudgetSource::Unbounded => "unbounded",
            TraceBudgetSource::Configured => "configured",
            TraceBudgetSource::AdaptiveCeiling => "adaptive-ceiling",
            TraceBudgetSource::AdaptiveDetectedMemory => "adaptive-detected-memory",
            TraceBudgetSource::AdaptiveFallback => "adaptive-fallback",
        })
    }
}

/// A trace budget as one run enforces it: the byte count (`None` =
/// unbounded) plus where it came from. Resolved **once** per run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ResolvedTraceBudget {
    /// Enforced budget in bytes; `None` means unbounded.
    pub bytes: Option<u64>,
    /// How the bytes were chosen.
    pub source: TraceBudgetSource,
}

impl std::fmt::Display for ResolvedTraceBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.bytes {
            None => write!(f, "unbounded ({})", self.source),
            Some(bytes) => write!(f, "{bytes} bytes ({})", self.source),
        }
    }
}

/// Fraction of the memory ceiling the adaptive policy spends on
/// retained series (the denominator: budget = ceiling / 8).
const ADAPTIVE_CEILING_DIVISOR: u64 = 8;

impl TraceCachePolicy {
    /// Retain every series.
    pub fn unbounded() -> Self {
        TraceCachePolicy::Unbounded
    }

    /// Retain series until `bytes` of series data are held.
    pub fn bounded(bytes: u64) -> Self {
        TraceCachePolicy::Bounded(bytes)
    }

    /// Retain no series (a zero-byte budget).
    pub fn streaming_only() -> Self {
        Self::bounded(0)
    }

    /// Size the budget from the machine's available memory (default).
    pub fn adaptive() -> Self {
        TraceCachePolicy::Adaptive {
            ceiling_bytes: None,
        }
    }

    /// Size the budget from an explicit memory ceiling — deterministic
    /// across machines, unlike detection.
    pub fn adaptive_with_ceiling(ceiling_bytes: u64) -> Self {
        TraceCachePolicy::Adaptive {
            ceiling_bytes: Some(ceiling_bytes),
        }
    }

    /// The budget a run under this policy enforces, with its source.
    /// For [`TraceCachePolicy::Adaptive`] without a configured ceiling
    /// this consults the machine's available memory, so it may differ
    /// between calls; the engine resolves it **once** per run, keeping
    /// the retention split fixed within a run.
    pub fn resolve(&self) -> ResolvedTraceBudget {
        match *self {
            TraceCachePolicy::Unbounded => ResolvedTraceBudget {
                bytes: None,
                source: TraceBudgetSource::Unbounded,
            },
            TraceCachePolicy::Bounded(bytes) => ResolvedTraceBudget {
                bytes: Some(bytes),
                source: TraceBudgetSource::Configured,
            },
            TraceCachePolicy::Adaptive { ceiling_bytes } => {
                let (ceiling, source) = match ceiling_bytes {
                    Some(ceiling) => (Some(ceiling), TraceBudgetSource::AdaptiveCeiling),
                    None => match detected_available_memory_bytes() {
                        Some(available) => {
                            (Some(available), TraceBudgetSource::AdaptiveDetectedMemory)
                        }
                        None => (None, TraceBudgetSource::AdaptiveFallback),
                    },
                };
                ResolvedTraceBudget {
                    bytes: Some(
                        ceiling
                            .map(|c| c / ADAPTIVE_CEILING_DIVISOR)
                            .unwrap_or(ADAPTIVE_FALLBACK_BUDGET_BYTES),
                    ),
                    source,
                }
            }
        }
    }

    /// The resolved budget's byte count alone (see
    /// [`TraceCachePolicy::resolve`]).
    pub fn budget_bytes(&self) -> Option<u64> {
        self.resolve().bytes
    }

    pub(crate) fn admits(
        resolved_budget: Option<u64>,
        running_total: u64,
        series_bytes: u64,
    ) -> bool {
        match resolved_budget {
            None => true,
            Some(budget) => running_total.saturating_add(series_bytes) <= budget,
        }
    }
}

impl Default for TraceCachePolicy {
    fn default() -> Self {
        Self::adaptive()
    }
}

/// `MemAvailable` from `/proc/meminfo`, in bytes (`None` off Linux or
/// when unreadable).
fn detected_available_memory_bytes() -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let meminfo = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = meminfo
        .lines()
        .find(|line| line.starts_with("MemAvailable:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// One retained series' memory footprint: the struct itself and its
/// two slot vectors. **Both** the cache's accounting
/// ([`FleetCache::trace_bytes`](crate::FleetCache::trace_bytes)) and
/// the retention estimate (the admission loop in `evaluate_matrix`) go
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
/// value, which equals the cold full walk (sequential max).
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
