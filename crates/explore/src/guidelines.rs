//! Extraction of the paper's §IV-B parameter-tuning guidelines from sweep
//! results.
//!
//! The paper distils its grid results into three rules of thumb:
//! D can be fixed at 10–11, K = 2 is near-optimal everywhere, and α
//! should grow with N (0.5–0.6 at N = 24 up to ≈1 at N = 288). These
//! helpers measure how much a given data set deviates from those rules.

use crate::sweep::SweepResult;

/// The smallest D on the grid whose best achievable MAPE (over α and K)
/// is within `margin` (absolute fraction, e.g. `0.01` = one MAPE point)
/// of the global optimum — the paper's justification for D ≈ 10–11.
///
/// Returns `None` for an empty evaluation.
pub fn smallest_adequate_d(result: &SweepResult, margin: f64) -> Option<usize> {
    if result.eval_count() == 0 {
        return None;
    }
    let best = result.best_by_mape().mape;
    result
        .grid()
        .days()
        .iter()
        .copied()
        .filter(|&d| {
            result
                .best_at_days(d)
                .map(|c| c.mape <= best + margin)
                .unwrap_or(false)
        })
        .min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ParamGrid;
    use crate::sweep::sweep;
    use pred_metrics::EvalProtocol;
    use solar_trace::{PowerTrace, Resolution, SlotView, SlotsPerDay};

    fn noisy_view_trace() -> PowerTrace {
        let n = 24;
        let mut samples = Vec::new();
        let mut state = 0xACEDu64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for _ in 0..35 {
            let scale = 1.0 + 0.4 * next();
            for s in 0..n {
                let x = (s as f64 / n as f64 - 0.5) * 6.0;
                let base = 900.0 * (-x * x).exp();
                samples.push(if base < 20.0 {
                    0.0
                } else {
                    (base * scale * (1.0 + 0.2 * next())).max(0.0)
                });
            }
        }
        PowerTrace::new("g", Resolution::from_minutes(60).unwrap(), samples).unwrap()
    }

    #[test]
    fn guideline_metrics_are_consistent() {
        let trace = noisy_view_trace();
        let view = SlotView::new(&trace, SlotsPerDay::new(24).unwrap()).unwrap();
        let result = sweep(&view, &ParamGrid::paper(), &EvalProtocol::paper());

        let best = result.best_by_mape();

        // A huge margin admits the smallest D; a zero margin admits at
        // least the optimum's D.
        assert_eq!(smallest_adequate_d(&result, 1.0), Some(2));
        let tight = smallest_adequate_d(&result, 0.0).unwrap();
        assert!(tight <= best.days);
    }
}
