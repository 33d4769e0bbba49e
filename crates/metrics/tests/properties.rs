//! Property tests for the evaluation methodology.

use pred_metrics::{DiurnalProfile, EvalProtocol, PredictionLog, PredictionRecord};
use proptest::prelude::*;

fn log_strategy() -> impl Strategy<Value = PredictionLog> {
    proptest::collection::vec(
        (
            0u32..60,
            0u32..8,
            0.0f64..1000.0,
            0.0f64..1000.0,
            0.0f64..1000.0,
        ),
        1..300,
    )
    .prop_map(|records| {
        let mut log = PredictionLog::with_capacity(8, records.len());
        for (day, slot, predicted, actual_start, actual_mean) in records {
            log.push(PredictionRecord {
                day,
                slot,
                predicted,
                actual_start,
                actual_mean,
            });
        }
        log
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn evaluation_count_shrinks_with_stricter_filters(log in log_strategy()) {
        let loose = EvalProtocol::new(0.0, 0).evaluate(&log);
        let roi = EvalProtocol::new(0.3, 0).evaluate(&log);
        let warm = EvalProtocol::new(0.0, 30).evaluate(&log);
        let both = EvalProtocol::new(0.3, 30).evaluate(&log);
        prop_assert!(roi.count <= loose.count);
        prop_assert!(warm.count <= loose.count);
        prop_assert!(both.count <= roi.count.min(warm.count));
    }

    #[test]
    fn mape_is_scale_invariant_over_logs(log in log_strategy(), scale in 0.1f64..50.0) {
        let mut scaled = PredictionLog::with_capacity(log.slots_per_day(), log.len());
        for r in &log {
            scaled.push(PredictionRecord {
                day: r.day,
                slot: r.slot,
                predicted: r.predicted * scale,
                actual_start: r.actual_start * scale,
                actual_mean: r.actual_mean * scale,
            });
        }
        let protocol = EvalProtocol::new(0.1, 5);
        let a = protocol.evaluate(&log);
        let b = protocol.evaluate(&scaled);
        prop_assert_eq!(a.count, b.count);
        prop_assert!((a.mape - b.mape).abs() < 1e-9);
        prop_assert!((a.mape_prime - b.mape_prime).abs() < 1e-9);
        // RMSE/MAE scale linearly instead.
        prop_assert!((b.rmse - scale * a.rmse).abs() < 1e-6 * (1.0 + b.rmse));
    }

    #[test]
    fn diurnal_profile_counts_sum_to_summary_count(log in log_strategy()) {
        let protocol = EvalProtocol::new(0.1, 5);
        let summary = protocol.evaluate(&log);
        let profile = DiurnalProfile::of(&log, &protocol);
        let per_slot: usize = (0..profile.slots_per_day()).map(|s| profile.count(s)).sum();
        // MAPE skips actual_mean == 0 records; the protocol ROI already
        // removes them when the peak is positive, so counts agree.
        prop_assert_eq!(per_slot, summary.count);
    }

    #[test]
    fn perfect_predictions_have_zero_error(
        refs in proptest::collection::vec((0u32..50, 1.0f64..900.0), 1..100)
    ) {
        let mut log = PredictionLog::with_capacity(4, refs.len());
        for (day, value) in refs {
            log.push(PredictionRecord {
                day,
                slot: day % 4,
                predicted: value,
                actual_start: value,
                actual_mean: value,
            });
        }
        let summary = EvalProtocol::new(0.0, 0).evaluate(&log);
        prop_assert!(summary.mape < 1e-12);
        prop_assert!(summary.mape_prime < 1e-12);
        prop_assert!(summary.rmse < 1e-12);
    }

    #[test]
    fn error_functions_are_nonnegative(log in log_strategy()) {
        let summary = EvalProtocol::new(0.0, 0).evaluate(&log);
        for value in [summary.mape, summary.rmse, summary.mae] {
            prop_assert!(value.is_finite() && value >= 0.0, "{summary:?}");
        }
    }
}
