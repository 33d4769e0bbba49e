//! Clairvoyant dynamic-parameter evaluation (the paper's Table V).
//!
//! For every prediction instant the clairvoyant selector picks, from the
//! candidate grid, the (α, K) — or only K at fixed α, or only α at fixed
//! K — that minimizes *that instant's* error. The resulting MAPE is the
//! floor any causal dynamic-selection algorithm could reach, which is how
//! the paper motivates dynamic algorithms.

use crate::sweep::for_each_counted;
use pred_metrics::EvalProtocol;
use solar_predict::EtaPlane;
use solar_trace::SlotView;

/// Results of the clairvoyant dynamic study at one (trace, N, D), in the
/// layout of the paper's Table V.
#[derive(Clone, Debug, PartialEq)]
pub struct DynamicOutcome {
    /// History depth used.
    pub days: usize,
    /// MAPE (fraction) with both α and K chosen per prediction.
    pub both_mape: f64,
    /// Best fixed α when only K adapts, and the achieved MAPE.
    pub k_only: (f64, f64),
    /// Best fixed K when only α adapts, and the achieved MAPE.
    pub alpha_only: (usize, f64),
    /// Number of evaluation points.
    pub count: usize,
}

/// Evaluates the clairvoyant dynamic selectors over a slotted trace.
///
/// * `d` — history depth (the paper fixes D for the dynamic study; pass
///   the static optimum).
/// * `alphas` — candidate α grid (the paper's `0 ≤ α ≤ 1`, step 0.1).
/// * `k_max` — candidate `K ∈ [1, k_max]` (the paper's 6).
///
/// The same inclusion rules as the static protocol apply, so the numbers
/// are directly comparable to a sweep's static MAPE. One pass over the
/// shared [`EtaPlane`] yields, per instant, every K's conditioned term
/// `μ_D(n+1) · Φ_K`; any (α, K) prediction is then one multiply-add.
///
/// # Panics
///
/// Panics if `alphas` is empty, `d == 0`, or `k_max` is not in
/// `[1, N)`.
pub fn clairvoyant_eval(
    view: &SlotView<'_>,
    d: usize,
    alphas: &[f64],
    k_max: usize,
    protocol: &EvalProtocol,
) -> DynamicOutcome {
    assert!(!alphas.is_empty(), "alpha grid must be non-empty");
    let n = view.slots_per_day();
    assert!(k_max < n, "k_max must be in [1, N)");

    let mut sum_both = 0.0;
    // Per fixed α: sum of min-over-K errors.
    let mut sum_k_only = vec![0.0_f64; alphas.len()];
    // Per fixed K: sum of min-over-α errors.
    let mut sum_alpha_only = vec![0.0_f64; k_max];

    let plane = EtaPlane::new(n, [(d, k_max)]);
    // Scratch: `μ_D(n+1) · Φ_K` for K = 1 ..= k_max, and the best error
    // per K at the current instant.
    let mut cond = vec![0.0_f64; k_max];
    let mut best_per_k = vec![f64::INFINITY; k_max];

    let count = for_each_counted(view, protocol, plane, |plane, measured, actual_mean, _| {
        // Warm-up: persistence for every K.
        if plane.is_warming_up() {
            cond.fill(measured);
        } else {
            plane.ratio_sums(0, &mut cond);
            let mu_next = plane.mu_next(0);
            for (ki, c) in cond.iter_mut().enumerate() {
                *c = mu_next * (*c / ((ki + 1) * (ki + 2) / 2) as f64);
            }
        }

        let inv = 1.0 / actual_mean;
        let mut best_overall = f64::INFINITY;
        best_per_k.fill(f64::INFINITY);
        for (ai, &alpha) in alphas.iter().enumerate() {
            let mut best_for_alpha = f64::INFINITY;
            for (ki, &c) in cond.iter().enumerate() {
                let pred = alpha * measured + (1.0 - alpha) * c;
                let err = ((actual_mean - pred) * inv).abs();
                best_for_alpha = best_for_alpha.min(err);
                best_per_k[ki] = best_per_k[ki].min(err);
                best_overall = best_overall.min(err);
            }
            sum_k_only[ai] += best_for_alpha;
        }
        for (ki, &e) in best_per_k.iter().enumerate() {
            sum_alpha_only[ki] += e;
        }
        sum_both += best_overall;
    });

    let denom = count.max(1) as f64;
    let (best_alpha_idx, best_alpha_sum) = sum_k_only
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .expect("non-empty alpha grid");
    let (best_k_idx, best_k_sum) = sum_alpha_only
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .expect("k_max >= 1");

    DynamicOutcome {
        days: d,
        both_mape: sum_both / denom,
        k_only: (alphas[best_alpha_idx], best_alpha_sum / denom),
        alpha_only: (best_k_idx + 1, best_k_sum / denom),
        count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ParamGrid;
    use crate::sweep::sweep;
    use solar_trace::{PowerTrace, Resolution, SlotsPerDay};

    /// Noisy trace with 4 samples per slot, so the slot mean differs from
    /// the boundary sample and pure persistence is not trivially exact.
    fn bumpy_trace(days: usize, n: usize) -> PowerTrace {
        let m = 4;
        let mut samples = Vec::with_capacity(days * n * m);
        let mut state = 0xBEEFu64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for _ in 0..days {
            let day_scale = 1.0 + 0.5 * next();
            for s in 0..n * m {
                let x = (s as f64 / (n * m) as f64 - 0.5) * 6.0;
                let base = 900.0 * (-x * x).exp();
                let v = base * day_scale * (1.0 + 0.3 * next());
                samples.push(if base < 20.0 { 0.0 } else { v.max(0.0) });
            }
        }
        PowerTrace::new(
            "bumpy",
            Resolution::from_seconds(86_400 / (n * m) as u32).unwrap(),
            samples,
        )
        .unwrap()
    }

    #[test]
    fn clairvoyant_orderings_hold() {
        // The paper's Table V structure: both <= k_only, both <= alpha_only,
        // and every dynamic mode <= the static optimum at the same D.
        let n = 24;
        let trace = bumpy_trace(40, n);
        let view = SlotView::new(&trace, SlotsPerDay::new(n as u32).unwrap()).unwrap();
        let protocol = EvalProtocol::paper();
        let alphas: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
        let d = 10;
        let outcome = clairvoyant_eval(&view, d, &alphas, 6, &protocol);

        assert!(outcome.count > 100);
        assert!(outcome.both_mape <= outcome.k_only.1 + 1e-12);
        assert!(outcome.both_mape <= outcome.alpha_only.1 + 1e-12);

        // Static optimum at the same D over the same grid.
        let grid = ParamGrid::builder().days(vec![d]).build().unwrap();
        let static_best = sweep(&view, &grid, &protocol).best_by_mape();
        assert!(outcome.k_only.1 <= static_best.mape + 1e-12);
        assert!(outcome.alpha_only.1 <= static_best.mape + 1e-12);
        assert!(
            outcome.both_mape < static_best.mape,
            "dynamic must strictly win on noisy data"
        );
    }

    #[test]
    fn perfect_periodic_data_gives_zero_everywhere() {
        let n = 24;
        let day: Vec<f64> = (0..n)
            .map(|s| {
                let x = (s as f64 / n as f64 - 0.5) * 6.0;
                let v = 900.0 * (-x * x).exp();
                if v < 20.0 {
                    0.0
                } else {
                    v
                }
            })
            .collect();
        let samples: Vec<f64> = (0..30).flat_map(|_| day.clone()).collect();
        let trace = PowerTrace::new(
            "periodic",
            Resolution::from_seconds(86_400 / n as u32).unwrap(),
            samples,
        )
        .unwrap();
        let view = SlotView::new(&trace, SlotsPerDay::new(n as u32).unwrap()).unwrap();
        let outcome = clairvoyant_eval(&view, 5, &[0.0, 0.5, 1.0], 3, &EvalProtocol::paper());
        assert!(outcome.both_mape < 1e-12);
        assert!(outcome.k_only.1 < 1e-12);
        assert!(outcome.alpha_only.1 < 1e-12);
    }

    #[test]
    fn count_matches_static_sweep() {
        let n = 24;
        let trace = bumpy_trace(30, n);
        let view = SlotView::new(&trace, SlotsPerDay::new(n as u32).unwrap()).unwrap();
        let protocol = EvalProtocol::paper();
        let outcome = clairvoyant_eval(&view, 5, &[0.5], 2, &protocol);
        let grid = ParamGrid::builder()
            .alphas(vec![0.5])
            .days(vec![5])
            .ks(vec![1, 2])
            .build()
            .unwrap();
        let result = sweep(&view, &grid, &protocol);
        assert_eq!(outcome.count, result.eval_count());
    }
}
