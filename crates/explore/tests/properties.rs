//! Property tests for the exploration engines: the sweep
//! must equal naive per-configuration evaluation, and the clairvoyant
//! bound must never lose to any fixed configuration.

use param_explore::dynamic::clairvoyant_eval;
use param_explore::{sweep, ParamGrid};
use pred_metrics::EvalProtocol;
use proptest::prelude::*;
use solar_predict::{run_predictor, WcmaParams, WcmaPredictor};
use solar_trace::{PowerTrace, Resolution, SlotView, SlotsPerDay};

const N: usize = 12;
const M: usize = 3; // samples per slot

/// Random multi-day trace with M samples per slot and solar structure
/// (zeros outside a daylight window).
fn trace_strategy() -> impl Strategy<Value = PowerTrace> {
    (4usize..8).prop_flat_map(|days| {
        proptest::collection::vec(5.0f64..1200.0, days * N * M).prop_map(move |mut samples| {
            for (i, v) in samples.iter_mut().enumerate() {
                let slot = (i / M) % N;
                if !(3..9).contains(&slot) {
                    *v = 0.0;
                }
            }
            PowerTrace::new(
                "prop",
                Resolution::from_seconds(86_400 / (N * M) as u32).unwrap(),
                samples,
            )
            .unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sweep_equals_naive_on_random_traces(
        trace in trace_strategy(),
        alpha_idx in 0usize..3,
        d in 1usize..5,
        k in 1usize..4,
        first_eval_seed in 0u32..2,
    ) {
        // Day 0 is warm-up: evaluating it checks the persistence fallback.
        let first_eval_day = first_eval_seed * 2;
        let alphas = [0.0, 0.5, 1.0];
        let alpha = alphas[alpha_idx];
        let view = SlotView::new(&trace, SlotsPerDay::new(N as u32).unwrap()).unwrap();
        let protocol = EvalProtocol::new(0.10, first_eval_day);
        let grid = ParamGrid::builder()
            .alphas(vec![alpha])
            .days(vec![d])
            .ks(vec![k])
            .build()
            .unwrap();
        let result = sweep(&view, &grid, &protocol);
        let params = WcmaParams::new(alpha, d, k, N).unwrap();
        let log = run_predictor(&view, &mut WcmaPredictor::new(params));
        let summary = protocol.evaluate(&log);
        prop_assert_eq!(summary.count, result.eval_count());
        prop_assert!((summary.mape - result.mape(0, 0, 0)).abs() < 1e-12);
        prop_assert!((summary.mape_prime - result.mape_prime(0, 0, 0)).abs() < 1e-12);
    }

    #[test]
    fn clairvoyant_never_loses_to_any_fixed_config(trace in trace_strategy()) {
        let view = SlotView::new(&trace, SlotsPerDay::new(N as u32).unwrap()).unwrap();
        let protocol = EvalProtocol::new(0.10, 2);
        let alphas: Vec<f64> = vec![0.0, 0.25, 0.5, 0.75, 1.0];
        let d = 3;
        let k_max = 3;
        let outcome = clairvoyant_eval(&view, d, &alphas, k_max, &protocol);
        let grid = ParamGrid::builder()
            .alphas(alphas.clone())
            .days(vec![d])
            .ks((1..=k_max).collect())
            .build()
            .unwrap();
        let result = sweep(&view, &grid, &protocol);
        let static_best = result.best_by_mape();
        prop_assert!(outcome.both_mape <= static_best.mape + 1e-9);
        prop_assert!(outcome.k_only.1 <= static_best.mape + 1e-9);
        prop_assert!(outcome.alpha_only.1 <= static_best.mape + 1e-9);
        prop_assert!(outcome.both_mape <= outcome.k_only.1 + 1e-9);
        prop_assert!(outcome.both_mape <= outcome.alpha_only.1 + 1e-9);
    }

    #[test]
    fn best_at_k_and_days_are_consistent_restrictions(trace in trace_strategy()) {
        let view = SlotView::new(&trace, SlotsPerDay::new(N as u32).unwrap()).unwrap();
        let protocol = EvalProtocol::new(0.10, 2);
        let grid = ParamGrid::builder()
            .alphas(vec![0.0, 0.5, 1.0])
            .days(vec![2, 4])
            .ks(vec![1, 3])
            .build()
            .unwrap();
        let result = sweep(&view, &grid, &protocol);
        let best = result.best_by_mape();
        // Restricting to the optimum's own K or D reproduces the optimum.
        prop_assert!((result.best_at_k(best.k).unwrap().mape - best.mape).abs() < 1e-15);
        prop_assert!((result.best_at_days(best.days).unwrap().mape - best.mape).abs() < 1e-15);
        // Every restriction is no better than the global best.
        for k in [1usize, 3] {
            prop_assert!(result.best_at_k(k).unwrap().mape + 1e-15 >= best.mape);
        }
    }
}
