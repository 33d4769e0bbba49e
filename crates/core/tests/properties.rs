//! Property-based tests for the predictor invariants: on random traces,
//! each predictor agrees with its naive or limiting form.

use proptest::prelude::*;
use solar_predict::fixed_point::FixedWcmaPredictor;
use solar_predict::{
    run_predictor, CandidateBank, EtaPlane, EwmaPredictor, KWindowPolicy, MovingAveragePredictor,
    PersistencePredictor, Predictor, WcmaParams, WcmaParamsBuilder, WcmaPredictor,
};
use solar_trace::{PowerTrace, Resolution, SlotView, SlotsPerDay};

const N: usize = 24;

/// A random multi-day trace at N slots/day (1 sample per slot).
fn trace_strategy(max_days: usize) -> impl Strategy<Value = PowerTrace> {
    (2..=max_days).prop_flat_map(|days| {
        proptest::collection::vec(0.0f64..1400.0, days * N).prop_map(|samples| {
            PowerTrace::new(
                "prop",
                Resolution::from_seconds(86_400 / N as u32).unwrap(),
                samples,
            )
            .unwrap()
        })
    })
}

fn view(trace: &PowerTrace) -> SlotView<'_> {
    SlotView::new(trace, SlotsPerDay::new(N as u32).unwrap()).unwrap()
}

/// A random trace with solar structure: slots 0..6 and 18..24 dark, the
/// rest daylight bounded away from zero.
fn solar_like_strategy(max_days: usize) -> impl Strategy<Value = PowerTrace> {
    (2..=max_days).prop_flat_map(|days| {
        proptest::collection::vec(30.0f64..1400.0, days * 12).prop_map(move |daylight| {
            let mut samples = Vec::with_capacity(days * N);
            let mut it = daylight.into_iter();
            for _ in 0..days {
                for slot in 0..N {
                    if (6..18).contains(&slot) {
                        samples.push(it.next().expect("sized above"));
                    } else {
                        samples.push(0.0);
                    }
                }
            }
            PowerTrace::new(
                "solar-like",
                Resolution::from_seconds(86_400 / N as u32).unwrap(),
                samples,
            )
            .unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wcma_alpha_one_equals_persistence(trace in trace_strategy(6)) {
        let v = view(&trace);
        let params = WcmaParams::new(1.0, 5, 3, N).unwrap();
        let wcma_log = run_predictor(&v, &mut WcmaPredictor::new(params));
        let pers_log = run_predictor(&v, &mut PersistencePredictor::new(N));
        for (a, b) in wcma_log.records().iter().zip(pers_log.records()) {
            prop_assert_eq!(a.predicted, b.predicted);
        }
    }

    #[test]
    fn wcma_predictions_are_finite_nonnegative(
        trace in trace_strategy(6),
        alpha in 0.0f64..=1.0,
        d in 1usize..8,
        k in 1usize..6,
    ) {
        let v = view(&trace);
        let params = WcmaParams::new(alpha, d, k, N).unwrap();
        let log = run_predictor(&v, &mut WcmaPredictor::new(params));
        for r in &log {
            prop_assert!(r.predicted.is_finite());
            prop_assert!(r.predicted >= 0.0);
        }
    }

    #[test]
    fn ensemble_agrees_with_streaming(trace in trace_strategy(5), alpha in 0.0f64..=1.0) {
        let v = view(&trace);
        let d = 4;
        let k_max = 4;
        let mut plane = EtaPlane::new(N, [(d, k_max)]);
        let mut sums = vec![0.0; k_max];
        let mut solos: Vec<WcmaPredictor> = (1..=k_max)
            .map(|k| WcmaPredictor::new(WcmaParams::new(alpha, d, k, N).unwrap()))
            .collect();
        for day in 0..v.days() {
            for slot in 0..N {
                let measured = v.start_sample(day, slot);
                plane.observe(measured);
                plane.ratio_sums(0, &mut sums);
                for (ki, solo) in solos.iter_mut().enumerate() {
                    let streamed = solo.observe_and_predict(measured);
                    let k = ki + 1;
                    if day == 0 && slot < k {
                        continue; // run-start window differences
                    }
                    let cond = if plane.is_warming_up() {
                        measured
                    } else {
                        plane.mu_next(0) * (sums[ki] / (k * (k + 1) / 2) as f64)
                    };
                    let ens = alpha * measured + (1.0 - alpha) * cond;
                    prop_assert!(
                        (streamed - ens).abs() < 1e-9,
                        "alpha {} K {} d{} s{}: {} vs {}",
                        alpha, k, day, slot, streamed, ens
                    );
                }
            }
        }
    }

    #[test]
    fn moving_average_equals_history_mean(trace in trace_strategy(6), d in 1usize..6) {
        let v = view(&trace);
        let mut p = MovingAveragePredictor::new(d, N).unwrap();
        let log = run_predictor(&v, &mut p);
        // After warm-up, every prediction is the true mean of the target
        // *boundary* slot over the last d days. Records are keyed by the
        // just-entered slot; the boundary is one slot later.
        for r in log.records().iter().filter(|r| r.day as usize > d) {
            let (day, slot) = (r.day as usize, r.slot as usize);
            let (b_day, b_slot) = if slot + 1 == N { (day + 1, 0) } else { (day, slot + 1) };
            let take = d.min(b_day);
            let mean: f64 = (1..=take)
                .map(|back| v.start_sample(b_day - back, b_slot))
                .sum::<f64>()
                / take as f64;
            prop_assert!((r.predicted - mean).abs() < 1e-9);
        }
    }

    #[test]
    fn fixed_point_tracks_float(trace in solar_like_strategy(6)) {
        // Q16.16 is only claimed for the solar domain: dark nights, day
        // samples bounded away from zero (a tiny historical mean would
        // blow the η ratio past the Q16 range — real MCU ports guard the
        // same way the region of interest does).
        let v = view(&trace);
        let params = WcmaParams::new(0.7, 4, 3, N).unwrap();
        let float_log = run_predictor(&v, &mut WcmaPredictor::new(params));
        let fixed_log = run_predictor(&v, &mut FixedWcmaPredictor::new(params));
        for (f, q) in float_log.records().iter().zip(fixed_log.records()) {
            let tol = 0.5 + 0.01 * f.predicted.abs();
            prop_assert!(
                (f.predicted - q.predicted).abs() < tol,
                "d{} s{}: {} vs {}", f.day, f.slot, f.predicted, q.predicted
            );
        }
    }

    #[test]
    fn ewma_estimates_stay_within_observed_range(trace in trace_strategy(6)) {
        let v = view(&trace);
        let mut p = EwmaPredictor::new(0.5, N).unwrap();
        // From day 1 on, every slot has an estimate, and the
        // prediction made at a slot's boundary is the next slot's.
        for r in run_predictor(&v, &mut p).iter().filter(|r| r.day >= 1) {
            let (est, slot) = (r.predicted, (r.slot as usize + 1) % N);
            let lo = (0..v.days()).map(|d| v.start_sample(d, slot)).fold(f64::INFINITY, f64::min);
            let hi = (0..v.days()).map(|d| v.start_sample(d, slot)).fold(0.0, f64::max);
            prop_assert!(est >= lo - 1e-9 && est <= hi + 1e-9);
        }
    }

    #[test]
    fn reset_reproduces_run(trace in trace_strategy(4), alpha in 0.0f64..=1.0) {
        let v = view(&trace);
        let params = WcmaParams::new(alpha, 3, 2, N).unwrap();
        let mut p = WcmaPredictor::new(params);
        let first = run_predictor(&v, &mut p);
        p.reset();
        let second = run_predictor(&v, &mut p);
        prop_assert_eq!(first, second);
    }

    /// The batched kernel is the solo kernel: over a random trace, a
    /// [`CandidateBank`] holding a whole (α, D, K) grid emits, for every
    /// candidate at every slot, the bit-identical prediction its solo
    /// [`WcmaPredictor`] emits — the contract that lets one trace pass
    /// score a tuner round's whole grid. Banks mix both K-window
    /// policies, so the plane's "entries since today's first slot"
    /// boundary is checked against every solo clamp window.
    #[test]
    fn candidate_bank_matches_solo_runs_on_random_traces(
        trace in trace_strategy(6),
        alpha_seed in 0u32..4,
        policy_seed in 0u32..3,
    ) {
        let alphas = [
            vec![0.0, 1.0],
            vec![0.3],
            vec![0.25, 0.5, 0.75],
            vec![0.7, 0.9],
        ][alpha_seed as usize].clone();
        // All wrap, all clamp, or alternating per candidate.
        let policy_of = |idx: usize| match (policy_seed, idx % 2) {
            (0, _) | (2, 0) => KWindowPolicy::WrapPreviousDay,
            _ => KWindowPolicy::ClampRenormalize,
        };
        let mut grid = Vec::new();
        for &alpha in &alphas {
            for days in [1usize, 4, 11] {
                for k in [1usize, 3, 6] {
                    let params = WcmaParamsBuilder::new()
                        .alpha(alpha)
                        .days(days)
                        .k(k)
                        .slots_per_day(N)
                        .k_policy(policy_of(grid.len()))
                        .build()
                        .unwrap();
                    grid.push(params);
                }
            }
        }
        let mut bank = CandidateBank::new(grid.clone()).unwrap();
        let mut solos: Vec<WcmaPredictor> =
            grid.into_iter().map(WcmaPredictor::new).collect();
        let v = view(&trace);
        for day in 0..v.days() {
            for slot in 0..N {
                let measured = v.start_sample(day, slot);
                let banked = bank.observe_and_predict(measured).to_vec();
                for (idx, solo) in solos.iter_mut().enumerate() {
                    let expected = solo.observe_and_predict(measured);
                    prop_assert_eq!(
                        banked[idx].to_bits(),
                        expected.to_bits(),
                        "day {} slot {} candidate {}: {} vs {}",
                        day, slot, idx, banked[idx], expected
                    );
                }
            }
        }
    }
}
