//! Property-based tests for the trace substrate invariants: slot
//! energies, slot means and slot-to-sample indexing agree with the
//! underlying samples.

use proptest::prelude::*;
use solar_trace::{PowerTrace, Resolution, SlotView, SlotsPerDay};

/// Strategy: a trace of `days` days at 30-minute resolution with
/// non-negative bounded samples.
fn trace_strategy(max_days: usize) -> impl Strategy<Value = PowerTrace> {
    (1..=max_days).prop_flat_map(|days| {
        proptest::collection::vec(0.0f64..1500.0, days * 48).prop_map(|samples| {
            PowerTrace::new("prop", Resolution::from_minutes(30).unwrap(), samples).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn slot_energy_sums_to_trace_energy(trace in trace_strategy(4)) {
        for n in [48u32, 24, 12, 8] {
            let view = SlotView::new(&trace, SlotsPerDay::new(n).unwrap()).unwrap();
            let total: f64 = (0..view.days())
                .flat_map(|d| (0..view.slots_per_day()).map(move |s| (d, s)))
                .map(|(d, s)| view.energy_j(d, s))
                .sum();
            let expect = trace.total_energy_j();
            prop_assert!((total - expect).abs() <= 1e-9 * expect.max(1.0));
        }
    }

    #[test]
    fn slot_mean_is_bounded_by_member_samples(trace in trace_strategy(2)) {
        let view = SlotView::new(&trace, SlotsPerDay::new(12).unwrap()).unwrap();
        let m = view.samples_per_slot();
        for (flat, mean) in view.mean_series().iter().enumerate() {
            let chunk = &trace.samples()[flat * m..(flat + 1) * m];
            let lo = chunk.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = chunk.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(*mean >= lo - 1e-12 && *mean <= hi + 1e-12);
        }
    }

    #[test]
    fn start_sample_matches_underlying_trace(trace in trace_strategy(2)) {
        let view = SlotView::new(&trace, SlotsPerDay::new(24).unwrap()).unwrap();
        let m = view.samples_per_slot();
        for d in 0..view.days() {
            for s in 0..24 {
                let flat = d * 24 + s;
                prop_assert_eq!(view.start_sample(d, s), trace.samples()[flat * m]);
            }
        }
    }
}
