//! The observation half every batched WCMA kernel shares.
//!
//! Whatever a kernel does with Φ — the [`CandidateBank`](crate::CandidateBank)'s
//! θ-weighted windows, the grid sweep, the clairvoyant study or the
//! causal selector — it first needs the same pure function of the
//! observed slot stream: the `E_{D×N}` history, each slot's η frozen
//! against the history **before** today's row is pushed, the day rolled
//! over, and only then `μ_D` of the target slot. [`EtaPlane`] is that
//! half, written once.

use crate::history::DayHistory;
use crate::wcma::conditioning_ratio;
use std::collections::VecDeque;

/// The η ratios of one history depth D.
#[derive(Clone, Debug)]
struct EtaRing {
    days: usize,
    depth: usize,
    /// Last `depth` η ratios, most recent first (η depends only on D).
    ratios: VecDeque<f64>,
}

/// The shared observation state of the batched WCMA kernels: one
/// [`DayHistory`] sized to the deepest D, the current-day buffer and
/// cursor, and one η ring per history depth D.
///
/// Each [`EtaPlane::observe`] keeps the ordering of the solo
/// [`WcmaPredictor`](crate::WcmaPredictor), bit for bit:
///
/// 1. every ring's η is frozen against the history as of now (today's
///    row not yet pushed) — one prefix-sum column walk serves all D;
/// 2. at the last slot of a day, the day is pushed;
/// 3. the target slot's column is walked once more, so
///    [`EtaPlane::mu_next`] serves `μ_D(target)` for every ring
///    (`μ_d = prefix[d−1] / d`, the additions of a solo `mean`).
///
/// The caller then forms Φ from the ring itself (θ-weighted, as the
/// [`CandidateBank`](crate::CandidateBank) does) or from
/// [`EtaPlane::ratio_sums`] (the triangular recurrence).
///
/// # Example
///
/// ```
/// use solar_predict::EtaPlane;
///
/// // One ring at D = 2, deep enough for K ≤ 3, over 4 slots per day.
/// let mut plane = EtaPlane::new(4, [(2, 3)]);
/// for _ in 0..2 {
///     for sample in [0.0, 100.0, 200.0, 0.0] {
///         plane.observe(sample);
///     }
/// }
/// assert!(!plane.is_warming_up());
/// assert_eq!(plane.observe(50.0), 1); // slot 0 observed, slot 1 targeted
/// assert_eq!(plane.mu_next(0), 100.0);
/// let mut sums = [0.0; 3];
/// plane.ratio_sums(0, &mut sums);
/// assert_eq!(sums, [1.0, 3.0, 6.0]); // all η neutral: Sw(K) = K(K+1)/2
/// ```
#[derive(Clone, Debug)]
pub struct EtaPlane {
    slots_per_day: usize,
    max_days: usize,
    history: DayHistory,
    /// Slot-start measurements of the current (incomplete) day.
    current: Vec<f64>,
    /// The slot the next observation belongs to.
    cursor: usize,
    /// Ring entries since today's first slot, as of the latest
    /// observation — the clamp policy's renormalization boundary.
    entries_today: usize,
    rings: Vec<EtaRing>,
    /// Prefix-sum scratch for the column walks; after an observation, the
    /// target slot's sums over the most recent days.
    prefix: Vec<f64>,
}

impl EtaPlane {
    /// Builds a plane over `slots_per_day` slots with one η ring per
    /// `(D, depth)` pair, indexed in input order. `depth` is how many
    /// ratios the ring keeps: the largest K any caller reads from it.
    ///
    /// # Panics
    ///
    /// Panics if `slots_per_day` is zero, no ring is given, or any D or
    /// depth is zero.
    pub fn new(slots_per_day: usize, rings: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let rings: Vec<EtaRing> = rings
            .into_iter()
            .map(|(days, depth)| {
                assert!(days > 0 && depth > 0, "D and ring depth must be positive");
                EtaRing {
                    days,
                    depth,
                    ratios: VecDeque::with_capacity(depth),
                }
            })
            .collect();
        // No ring leaves max_days at 0, which `DayHistory::new` rejects.
        let max_days = rings.iter().map(|r| r.days).fold(0, usize::max);
        EtaPlane {
            slots_per_day,
            max_days,
            history: DayHistory::new(slots_per_day, max_days),
            current: vec![0.0; slots_per_day],
            cursor: 0,
            entries_today: 0,
            rings,
            prefix: Vec::with_capacity(max_days),
        }
    }

    /// Slots per day N.
    pub(crate) fn slots_per_day(&self) -> usize {
        self.slots_per_day
    }

    /// The slot index (within its day) the next observation belongs to.
    pub(crate) fn cursor(&self) -> usize {
        self.cursor
    }

    /// Observes one slot-start measurement: freezes every ring's η, rolls
    /// the day over at its last slot, and walks the target slot's column
    /// for [`EtaPlane::mu_next`]. Returns the target slot index.
    pub fn observe(&mut self, measured: f64) -> usize {
        self.current[self.cursor] = measured;
        self.entries_today = self.cursor + 1;

        let written = self
            .history
            .prefix_sums(self.cursor, self.max_days, &mut self.prefix);
        for ring in &mut self.rings {
            let take = ring.days.min(written);
            let mu = (take > 0).then(|| self.prefix[take - 1] / take as f64);
            if ring.ratios.len() == ring.depth {
                ring.ratios.pop_back();
            }
            ring.ratios.push_front(conditioning_ratio(measured, mu));
        }

        // Day rollover before looking up the target slot's mean.
        let target = (self.cursor + 1) % self.slots_per_day;
        if target == 0 {
            self.history.push_day(&self.current);
        }
        self.cursor = target;
        self.history
            .prefix_sums(target, self.max_days, &mut self.prefix);
        target
    }

    /// `true` while no day is stored: there is no `μ_D` yet and every
    /// kernel falls back to persistence.
    pub fn is_warming_up(&self) -> bool {
        self.history.is_empty()
    }

    /// `μ_D(target)` of ring `ring` for the latest observation, from the
    /// target slot's prefix sums (divided on demand, so a kernel that
    /// skips a slot pays nothing for it).
    ///
    /// # Panics
    ///
    /// Panics if `ring` is out of range or while
    /// [`EtaPlane::is_warming_up`].
    #[inline]
    pub fn mu_next(&self, ring: usize) -> f64 {
        let take = self.rings[ring].days.min(self.prefix.len());
        self.prefix[take - 1] / take as f64
    }

    /// Ring `ring`'s η ratios, most recent first (at most its depth).
    ///
    /// # Panics
    ///
    /// Panics if `ring` is out of range.
    pub(crate) fn ratios(&self, ring: usize) -> &VecDeque<f64> {
        &self.rings[ring].ratios
    }

    /// How many of the most recent ratios were observed today (the
    /// latest slot included): the boundary of
    /// [`KWindowPolicy::ClampRenormalize`](crate::KWindowPolicy).
    pub(crate) fn entries_today(&self) -> usize {
        self.entries_today
    }

    /// Writes the triangular ratio sums of ring `ring` into `out`:
    ///
    /// ```text
    /// S1(K) = S1(K−1) + r[K−1]           (plain ratio sum)
    /// Sw(K) = Sw(K−1) + S1(K)            (weighted ratio sum)
    /// ```
    ///
    /// for `K = 1 ..= out.len()`, where `r[i]` is the η ratio `i` slots
    /// back and ratios older than the ring count as neutral (1). With
    /// `T(K) = K (K + 1) / 2`, `Sw(K) / T(K)` is the wrap-previous-day
    /// Φ_K in O(K_max) for every K at once.
    ///
    /// # Panics
    ///
    /// Panics if `ring` is out of range.
    pub fn ratio_sums(&self, ring: usize, out: &mut [f64]) {
        let ratios = &self.rings[ring].ratios;
        let mut s1 = 0.0;
        let mut sw = 0.0;
        for (i, sum) in out.iter_mut().enumerate() {
            s1 += ratios.get(i).copied().unwrap_or(1.0);
            sw += s1;
            *sum = sw;
        }
    }

    /// Restores the freshly constructed state.
    pub(crate) fn reset(&mut self) {
        self.history.clear();
        self.current.fill(0.0);
        self.cursor = 0;
        self.entries_today = 0;
        self.rings.iter_mut().for_each(|ring| ring.ratios.clear());
        self.prefix.clear();
    }
}
