//! The one-pass grid sweep engine.

use crate::grid::ParamGrid;
use pred_metrics::EvalProtocol;
use solar_predict::EtaPlane;
use solar_trace::SlotView;

/// One optimized configuration with its achieved errors, as reported in
/// the paper's Tables II and III.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct OptimalConfig {
    /// The weighting parameter α.
    pub alpha: f64,
    /// The history depth D.
    pub days: usize,
    /// The conditioning window K.
    pub k: usize,
    /// Achieved MAPE (fraction) against mean slot power.
    pub mape: f64,
    /// Achieved MAPE′ (fraction) against slot-start samples.
    pub mape_prime: f64,
}

impl std::fmt::Display for OptimalConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "alpha={} D={} K={} MAPE={:.2}%",
            self.alpha,
            self.days,
            self.k,
            self.mape * 100.0
        )
    }
}

/// The dense result of a sweep: per-configuration error sums.
#[derive(Clone, Debug)]
pub struct SweepResult {
    grid: ParamGrid,
    slots_per_day: usize,
    count: usize,
    sum_mape: Vec<f64>,
    sum_prime: Vec<f64>,
}

impl SweepResult {
    /// The grid this result covers.
    pub fn grid(&self) -> &ParamGrid {
        &self.grid
    }

    /// The slot count per day the sweep ran at.
    pub fn slots_per_day(&self) -> usize {
        self.slots_per_day
    }

    /// Number of evaluation points that passed the protocol filters
    /// (identical for every configuration, as §IV-A requires).
    pub fn eval_count(&self) -> usize {
        self.count
    }

    #[inline]
    fn idx(&self, ai: usize, di: usize, ki: usize) -> usize {
        (ai * self.grid.days().len() + di) * self.grid.ks().len() + ki
    }

    /// MAPE (fraction) of the configuration at grid indices
    /// `(alpha_idx, days_idx, k_idx)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range for the grid.
    pub fn mape(&self, alpha_idx: usize, days_idx: usize, k_idx: usize) -> f64 {
        let v = self.sum_mape[self.idx(alpha_idx, days_idx, k_idx)];
        if self.count == 0 {
            0.0
        } else {
            v / self.count as f64
        }
    }

    /// MAPE′ (fraction) of the configuration at grid indices.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range for the grid.
    pub fn mape_prime(&self, alpha_idx: usize, days_idx: usize, k_idx: usize) -> f64 {
        let v = self.sum_prime[self.idx(alpha_idx, days_idx, k_idx)];
        if self.count == 0 {
            0.0
        } else {
            v / self.count as f64
        }
    }

    fn config_indices(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let na = self.grid.alphas().len();
        let nd = self.grid.days().len();
        let nk = self.grid.ks().len();
        (0..na).flat_map(move |ai| (0..nd).flat_map(move |di| (0..nk).map(move |ki| (ai, di, ki))))
    }

    fn config_at(&self, ai: usize, di: usize, ki: usize) -> OptimalConfig {
        OptimalConfig {
            alpha: self.grid.alphas()[ai],
            days: self.grid.days()[di],
            k: self.grid.ks()[ki],
            mape: self.mape(ai, di, ki),
            mape_prime: self.mape_prime(ai, di, ki),
        }
    }

    /// The configuration minimizing MAPE (the paper's optimization
    /// objective; first-found wins ties).
    pub fn best_by_mape(&self) -> OptimalConfig {
        let (ai, di, ki) = self
            .config_indices()
            .min_by(|&(a1, d1, k1), &(a2, d2, k2)| {
                self.mape(a1, d1, k1)
                    .partial_cmp(&self.mape(a2, d2, k2))
                    .expect("mape sums are finite")
            })
            .expect("grid is non-empty");
        self.config_at(ai, di, ki)
    }

    /// The configuration minimizing MAPE′ (the comparison objective of
    /// Table II's left half).
    pub fn best_by_mape_prime(&self) -> OptimalConfig {
        let (ai, di, ki) = self
            .config_indices()
            .min_by(|&(a1, d1, k1), &(a2, d2, k2)| {
                self.mape_prime(a1, d1, k1)
                    .partial_cmp(&self.mape_prime(a2, d2, k2))
                    .expect("mape sums are finite")
            })
            .expect("grid is non-empty");
        self.config_at(ai, di, ki)
    }

    /// The best configuration with K fixed to `k` (the paper's
    /// `MAPE@K=2` column). Returns `None` if `k` is not on the grid.
    pub fn best_at_k(&self, k: usize) -> Option<OptimalConfig> {
        let ki = self.grid.k_index(k)?;
        let (ai, di) = (0..self.grid.alphas().len())
            .flat_map(|ai| (0..self.grid.days().len()).map(move |di| (ai, di)))
            .min_by(|&(a1, d1), &(a2, d2)| {
                self.mape(a1, d1, ki)
                    .partial_cmp(&self.mape(a2, d2, ki))
                    .expect("mape sums are finite")
            })?;
        Some(self.config_at(ai, di, ki))
    }

    /// MAPE as a function of D at fixed α and K (the paper's Fig. 7
    /// curves). Returns `None` if α or K is not on the grid.
    pub fn mape_vs_days(&self, alpha: f64, k: usize) -> Option<Vec<(usize, f64)>> {
        let ai = self.grid.alpha_index(alpha)?;
        let ki = self.grid.k_index(k)?;
        Some(
            self.grid
                .days()
                .iter()
                .enumerate()
                .map(|(di, &d)| (d, self.mape(ai, di, ki)))
                .collect(),
        )
    }

    /// The best configuration with D fixed (used by the D-guideline
    /// analysis). Returns `None` if `days` is not on the grid.
    pub fn best_at_days(&self, days: usize) -> Option<OptimalConfig> {
        let di = self.grid.days_index(days)?;
        let (ai, ki) = (0..self.grid.alphas().len())
            .flat_map(|ai| (0..self.grid.ks().len()).map(move |ki| (ai, ki)))
            .min_by(|&(a1, k1), &(a2, k2)| {
                self.mape(a1, di, k1)
                    .partial_cmp(&self.mape(a2, di, k2))
                    .expect("mape sums are finite")
            })?;
        Some(self.config_at(ai, di, ki))
    }
}

/// Sweeps the full (α, D, K) grid over one slotted trace in a single
/// pass, under the paper's evaluation protocol.
///
/// The engine rides the shared [`EtaPlane`] (one η ring per D, `k_max`
/// deep), so it reproduces the streaming [`solar_predict::WcmaPredictor`]
/// exactly (wrap-previous-day policy): η ratios are frozen at observation
/// time, day rollover pushes the finished day before the next-slot mean
/// is read, and warm-up predictions are persistence.
///
/// # Panics
///
/// Panics if the grid's `k_max` is not below the view's slots per day.
pub fn sweep(view: &SlotView<'_>, grid: &ParamGrid, protocol: &EvalProtocol) -> SweepResult {
    let n = view.slots_per_day();
    let k_max = grid.k_max();
    assert!(k_max < n, "grid k_max {k_max} must be below N={n}");

    let n_alpha = grid.alphas().len();
    let n_days = grid.days().len();
    let n_k = grid.ks().len();
    let mut sum_mape = vec![0.0_f64; n_alpha * n_days * n_k];
    let mut sum_prime = vec![0.0_f64; n_alpha * n_days * n_k];

    let plane = EtaPlane::new(n, grid.days().iter().map(|&d| (d, k_max)));
    // Scratch: Sw(K) for one D, and the conditioned term per (D, K).
    let mut sums = vec![0.0_f64; k_max];
    let mut cond = vec![0.0_f64; n_days * n_k];

    let count = for_each_counted(view, protocol, plane, |plane, measured, mean, start| {
        let inv_mean = 1.0 / mean;
        if plane.is_warming_up() {
            // No history yet: every configuration predicts persistence,
            // as the streaming predictor does.
            let err = ((mean - measured) * inv_mean).abs();
            let err_prime = ((start - measured) * inv_mean).abs();
            sum_mape.iter_mut().for_each(|sum| *sum += err);
            sum_prime.iter_mut().for_each(|sum| *sum += err_prime);
            return;
        }

        for di in 0..n_days {
            plane.ratio_sums(di, &mut sums);
            let mu_next = plane.mu_next(di);
            for (ki, &k) in grid.ks().iter().enumerate() {
                let phi = sums[k - 1] / (k * (k + 1) / 2) as f64;
                cond[di * n_k + ki] = mu_next * phi;
            }
        }

        for (ai, &alpha) in grid.alphas().iter().enumerate() {
            let pers = alpha * measured;
            let beta = 1.0 - alpha;
            let base = ai * n_days * n_k;
            for (ci, &c) in cond.iter().enumerate() {
                let pred = pers + beta * c;
                sum_mape[base + ci] += ((mean - pred) * inv_mean).abs();
                sum_prime[base + ci] += ((start - pred) * inv_mean).abs();
            }
        }
    });

    SweepResult {
        grid: grid.clone(),
        slots_per_day: n,
        count,
        sum_mape,
        sum_prime,
    }
}

/// Drives `plane` over every slot of `view` and calls
/// `visit(plane, measured, mean, start)` for each prediction the paper's
/// protocol counts, returning how many that was. The prediction made at
/// the boundary of slot `(day, slot)` estimates that slot: `measured` is
/// its start sample, `mean` its mean power (the MAPE reference) and
/// `start` the sample at its closing boundary (the MAPE′ reference). It
/// counts when that boundary lies inside the trace, `day` is an
/// evaluation day, and `mean` is non-zero and inside the region of
/// interest, whose peak spans every slot with a closing boundary (as
/// `PredictionLog::peak_actual_mean` of a runner log does).
pub(crate) fn for_each_counted(
    view: &SlotView<'_>,
    protocol: &EvalProtocol,
    mut plane: EtaPlane,
    mut visit: impl FnMut(&EtaPlane, f64, f64, f64),
) -> usize {
    let total = view.total_slots();
    let peak = view.mean_series()[..total.saturating_sub(1)]
        .iter()
        .copied()
        .fold(0.0, f64::max);
    let threshold = protocol.roi().threshold(peak);
    let first_eval_day = protocol.first_eval_day() as usize;
    let mut count = 0;
    for day in 0..view.days() {
        for slot in 0..view.slots_per_day() {
            let measured = view.start_sample(day, slot);
            let b_slot = plane.observe(measured);
            let b_day = if b_slot == 0 { day + 1 } else { day };
            let mean = view.mean_power(day, slot);
            if b_day >= view.days() || day < first_eval_day || mean < threshold || mean == 0.0 {
                continue;
            }
            count += 1;
            visit(&plane, measured, mean, view.start_sample(b_day, b_slot));
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use pred_metrics::EvalProtocol;
    use solar_predict::{run_predictor, WcmaParams, WcmaPredictor};
    use solar_trace::{PowerTrace, Resolution, SlotsPerDay};

    /// Deterministic bumpy trace: solar envelope with pseudo-random
    /// day-to-day and slot-to-slot modulation.
    fn bumpy_trace(days: usize, n: usize) -> PowerTrace {
        let mut samples = Vec::with_capacity(days * n);
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for _ in 0..days {
            let day_scale = 1.0 + 0.5 * next();
            for s in 0..n {
                let x = (s as f64 / n as f64 - 0.5) * 6.0;
                let base = 900.0 * (-x * x).exp();
                let v = base * day_scale * (1.0 + 0.3 * next());
                samples.push(if base < 20.0 { 0.0 } else { v.max(0.0) });
            }
        }
        PowerTrace::new(
            "bumpy",
            Resolution::from_seconds(86_400 / n as u32).unwrap(),
            samples,
        )
        .unwrap()
    }

    #[test]
    fn sweep_matches_streaming_predictor_exactly() {
        let n = 24usize;
        let trace = bumpy_trace(40, n);
        let view = SlotView::new(&trace, SlotsPerDay::new(n as u32).unwrap()).unwrap();
        let grid = ParamGrid::builder()
            .alphas(vec![0.0, 0.3, 0.7, 1.0])
            .days(vec![2, 5, 11])
            .ks(vec![1, 3, 6])
            .build()
            .unwrap();
        let protocol = EvalProtocol::paper();
        let result = sweep(&view, &grid, &protocol);
        assert!(result.eval_count() > 100);

        for (ai, &alpha) in grid.alphas().iter().enumerate() {
            for (di, &d) in grid.days().iter().enumerate() {
                for (ki, &k) in grid.ks().iter().enumerate() {
                    let params = WcmaParams::new(alpha, d, k, n).unwrap();
                    let log = run_predictor(&view, &mut WcmaPredictor::new(params));
                    let summary = protocol.evaluate(&log);
                    assert_eq!(summary.count, result.eval_count());
                    let sweep_mape = result.mape(ai, di, ki);
                    assert!(
                        (summary.mape - sweep_mape).abs() < 1e-12,
                        "alpha {alpha} D {d} K {k}: streaming {} vs sweep {}",
                        summary.mape,
                        sweep_mape
                    );
                    let sweep_prime = result.mape_prime(ai, di, ki);
                    assert!(
                        (summary.mape_prime - sweep_prime).abs() < 1e-12,
                        "alpha {alpha} D {d} K {k} (prime)"
                    );
                }
            }
        }
    }

    #[test]
    fn best_by_mape_is_global_minimum() {
        let n = 24;
        let trace = bumpy_trace(30, n);
        let view = SlotView::new(&trace, SlotsPerDay::new(n as u32).unwrap()).unwrap();
        let grid = ParamGrid::builder()
            .alphas(vec![0.0, 0.5, 1.0])
            .days(vec![2, 8])
            .ks(vec![1, 2])
            .build()
            .unwrap();
        let result = sweep(&view, &grid, &EvalProtocol::paper());
        let best = result.best_by_mape();
        for ai in 0..3 {
            for di in 0..2 {
                for ki in 0..2 {
                    assert!(best.mape <= result.mape(ai, di, ki) + 1e-15);
                }
            }
        }
    }

    #[test]
    fn best_at_k_fixes_k() {
        let n = 24;
        let trace = bumpy_trace(30, n);
        let view = SlotView::new(&trace, SlotsPerDay::new(n as u32).unwrap()).unwrap();
        let result = sweep(
            &view,
            &ParamGrid::builder()
                .alphas(vec![0.0, 0.5, 1.0])
                .days(vec![3, 6])
                .ks(vec![1, 2, 4])
                .build()
                .unwrap(),
            &EvalProtocol::paper(),
        );
        let at2 = result.best_at_k(2).unwrap();
        assert_eq!(at2.k, 2);
        assert!(at2.mape >= result.best_by_mape().mape - 1e-15);
        assert!(result.best_at_k(5).is_none());
    }

    #[test]
    fn mape_vs_days_has_one_point_per_d() {
        let n = 24;
        let trace = bumpy_trace(30, n);
        let view = SlotView::new(&trace, SlotsPerDay::new(n as u32).unwrap()).unwrap();
        let grid = ParamGrid::builder()
            .alphas(vec![0.0, 0.5])
            .days(vec![2, 4, 8])
            .ks(vec![1, 2])
            .build()
            .unwrap();
        let result = sweep(&view, &grid, &EvalProtocol::paper());
        let curve = result.mape_vs_days(0.5, 2).unwrap();
        assert_eq!(curve.len(), 3);
        assert_eq!(curve[0].0, 2);
        assert_eq!(curve[2].0, 8);
        assert!(result.mape_vs_days(0.25, 2).is_none());
    }

    #[test]
    fn single_sample_slots_make_alpha_one_exact() {
        // One sample per slot: ē_n equals the boundary sample, so α = 1
        // gives MAPE = 0 for *any* data — the mechanism behind the
        // paper's Table III 0† rows at N = 288 on 5-minute traces.
        let n = 24;
        let trace = bumpy_trace(40, n);
        let view = SlotView::new(&trace, SlotsPerDay::new(n as u32).unwrap()).unwrap();
        let result = sweep(&view, &ParamGrid::paper(), &EvalProtocol::paper());
        let best = result.best_by_mape();
        assert_eq!(best.alpha, 1.0);
        assert!(best.mape < 1e-12, "mape {}", best.mape);
    }

    #[test]
    fn multi_sample_slots_favor_blended_alpha() {
        // With several samples per slot the boundary sample no longer
        // equals the slot mean, so the optimum moves off α = 1 and the
        // error is non-zero — the regime of the paper's N ≤ 96 results.
        let n = 24usize;
        let m = 4; // samples per slot
        let mut samples = Vec::new();
        let mut state = 0x5EEDu64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for _ in 0..40 {
            let scale = 1.0 + 0.5 * next();
            for s in 0..n * m {
                let x = (s as f64 / (n * m) as f64 - 0.5) * 6.0;
                let base = 900.0 * (-x * x).exp();
                let v = base * scale * (1.0 + 0.4 * next());
                samples.push(if base < 20.0 { 0.0 } else { v.max(0.0) });
            }
        }
        let trace = PowerTrace::new(
            "multi",
            Resolution::from_seconds(86_400 / (n * m) as u32).unwrap(),
            samples,
        )
        .unwrap();
        let view = SlotView::new(&trace, SlotsPerDay::new(n as u32).unwrap()).unwrap();
        let result = sweep(&view, &ParamGrid::paper(), &EvalProtocol::paper());
        let best = result.best_by_mape();
        assert!(best.mape > 0.01, "noisy data cannot be predicted exactly");
        assert!(
            best.alpha < 1.0,
            "slot-mean reference penalizes pure persistence"
        );
    }

    #[test]
    fn empty_eval_window_gives_zero_errors() {
        let n = 24;
        let trace = bumpy_trace(5, n); // fewer days than the 20-day warm-up
        let view = SlotView::new(&trace, SlotsPerDay::new(n as u32).unwrap()).unwrap();
        let result = sweep(
            &view,
            &ParamGrid::builder()
                .alphas(vec![0.5])
                .days(vec![2])
                .ks(vec![1])
                .build()
                .unwrap(),
            &EvalProtocol::paper(),
        );
        assert_eq!(result.eval_count(), 0);
        assert_eq!(result.mape(0, 0, 0), 0.0);
    }
}
