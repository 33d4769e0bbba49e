//! Qualitative paper-shape assertions: the trends the reproduction must
//! preserve regardless of absolute numbers.
//!
//! These run on ~110-day data sets to stay fast in debug builds; the
//! `repro` binary regenerates the full-year numbers.

use param_explore::dynamic::clairvoyant_eval;
use param_explore::{sweep, ParamGrid, SweepResult};
use pred_metrics::EvalProtocol;
use solar_predict::{run_predictor, CausalDynamicWcma};
use solar_synth::Site;
use solar_trace::hash::fnv1a_bytes;
use solar_trace::{SlotView, SlotsPerDay};
use std::collections::HashMap;
use std::sync::OnceLock;

const DAYS: usize = 110;

/// Shared sweep cache across the tests in this file (they are expensive).
fn sweeps() -> &'static HashMap<(Site, u32), SweepResult> {
    static CACHE: OnceLock<HashMap<(Site, u32), SweepResult>> = OnceLock::new();
    CACHE.get_or_init(|| {
        let mut map = HashMap::new();
        let grid = ParamGrid::paper();
        let protocol = EvalProtocol::paper();
        for site in Site::ALL {
            let trace = paper_repro::datasets::site_trace(site, DAYS);
            for n in [96u32, 48, 24] {
                let view = SlotView::new(&trace, SlotsPerDay::new(n).unwrap()).unwrap();
                map.insert((site, n), sweep(&view, &grid, &protocol));
            }
        }
        map
    })
}

#[test]
fn site_difficulty_ordering_matches_paper() {
    // Paper Table III at N=48: PFCI < NPCS << ECSU < HSU < SPMD < ORNL.
    // We assert the robust part: both desert sites are easier than every
    // humid site, and ORNL is the hardest overall.
    let mape = |site: Site| sweeps()[&(site, 48)].best_by_mape().mape;
    for desert in [Site::Pfci, Site::Npcs] {
        for humid in [Site::Ecsu, Site::Hsu, Site::Spmd, Site::Ornl] {
            assert!(
                mape(desert) < mape(humid),
                "{desert} ({:.3}) must be easier than {humid} ({:.3})",
                mape(desert),
                mape(humid)
            );
        }
    }
    let hardest = Site::ALL
        .into_iter()
        .max_by(|&a, &b| mape(a).partial_cmp(&mape(b)).unwrap());
    assert_eq!(hardest, Some(Site::Ornl));
}

#[test]
fn accuracy_improves_with_sampling_rate() {
    // Paper: "prediction accuracy increases with increase in N".
    for site in Site::ALL {
        let at = |n: u32| sweeps()[&(site, n)].best_by_mape().mape;
        assert!(
            at(96) < at(24),
            "{site}: MAPE at N=96 ({:.3}) must undercut N=24 ({:.3})",
            at(96),
            at(24)
        );
    }
}

#[test]
fn optimal_alpha_grows_with_sampling_rate() {
    // Paper: alpha 0.5-0.6 at N=24 rising toward 1 at N=288. Assert the
    // monotone direction on the site average.
    let mean_alpha = |n: u32| -> f64 {
        let v: Vec<f64> = Site::ALL
            .iter()
            .map(|&s| sweeps()[&(s, n)].best_by_mape().alpha)
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    assert!(
        mean_alpha(96) > mean_alpha(24),
        "mean alpha at N=96 ({}) vs N=24 ({})",
        mean_alpha(96),
        mean_alpha(24)
    );
    // And alpha at N=24 sits in the paper's 0.4-0.7 band on average.
    let a24 = mean_alpha(24);
    assert!((0.3..=0.8).contains(&a24), "alpha at N=24: {a24}");
}

#[test]
fn mape_prime_is_pessimistic_and_prefers_low_alpha() {
    // Paper Table II: MAPE' values are far higher and the optimizing
    // alpha far lower than under MAPE.
    for site in [Site::Spmd, Site::Ornl, Site::Pfci] {
        let result = &sweeps()[&(site, 48)];
        let by_mape = result.best_by_mape();
        let by_prime = result.best_by_mape_prime();
        assert!(
            by_prime.mape_prime > by_mape.mape * 1.2,
            "{site}: MAPE' {:.3} vs MAPE {:.3}",
            by_prime.mape_prime,
            by_mape.mape
        );
        assert!(
            by_prime.alpha < by_mape.alpha,
            "{site}: alpha' {} vs alpha {}",
            by_prime.alpha,
            by_mape.alpha
        );
    }
}

#[test]
fn d_has_diminishing_returns() {
    // Paper Fig. 7: gains beyond D ≈ 10-11 are small.
    for site in [Site::Spmd, Site::Hsu] {
        let result = &sweeps()[&(site, 48)];
        let best = result.best_by_mape();
        let curve = result.mape_vs_days(best.alpha, best.k).unwrap();
        let at = |d: usize| curve.iter().find(|&&(x, _)| x == d).unwrap().1;
        let early_gain = at(2) - at(11);
        let late_gain = (at(11) - at(20)).max(0.0);
        assert!(
            late_gain < early_gain.max(0.003),
            "{site}: early {early_gain:.4} vs late {late_gain:.4}"
        );
    }
}

#[test]
fn k2_guideline_is_near_optimal() {
    // Paper: "K = 2 gives an average error very close to minimum".
    for site in Site::ALL {
        let result = &sweeps()[&(site, 48)];
        let best = result.best_by_mape();
        let at2 = result.best_at_k(2).unwrap();
        assert!(
            at2.mape - best.mape < 0.012,
            "{site}: K=2 penalty {:.4}",
            at2.mape - best.mape
        );
    }
}

#[test]
fn dynamic_selection_gains_exceed_ten_points_of_accuracy() {
    // Paper §IV-C headline: >10% (relative to static error) gains from
    // dynamic parameters, growing as N shrinks; dynamic at N=48 beats
    // static at higher rates.
    let grid = ParamGrid::paper();
    let protocol = EvalProtocol::paper();
    for site in [Site::Spmd, Site::Ornl] {
        let trace = paper_repro::datasets::site_trace(site, DAYS);
        let gain_at = |n: u32| -> (f64, f64) {
            let view = SlotView::new(&trace, SlotsPerDay::new(n).unwrap()).unwrap();
            let best = sweeps()[&(site, n)].best_by_mape();
            let outcome =
                clairvoyant_eval(&view, best.days, grid.alphas(), grid.k_max(), &protocol);
            (best.mape, outcome.both_mape)
        };
        let (static48, dyn48) = gain_at(48);
        assert!(
            dyn48 < static48 * 0.6,
            "{site}: dynamic {dyn48:.3} must cut static {static48:.3} by >40%"
        );
        // Dynamic at N=48 beats static at N=96 (the paper notes dynamic
        // at N=48 even beats static at N=288).
        let static96 = sweeps()[&(site, 96)].best_by_mape().mape;
        assert!(
            dyn48 < static96,
            "{site}: dynamic@48 {dyn48:.3} vs static@96 {static96:.3}"
        );
        // Gains grow as N decreases.
        let (static24, dyn24) = gain_at(24);
        let (static96b, dyn96) = {
            let view = SlotView::new(&trace, SlotsPerDay::new(96).unwrap()).unwrap();
            let best = sweeps()[&(site, 96)].best_by_mape();
            let outcome =
                clairvoyant_eval(&view, best.days, grid.alphas(), grid.k_max(), &protocol);
            (best.mape, outcome.both_mape)
        };
        let abs_gain_24 = static24 - dyn24;
        let abs_gain_96 = static96b - dyn96;
        assert!(
            abs_gain_24 > abs_gain_96,
            "{site}: gain at N=24 ({abs_gain_24:.3}) vs N=96 ({abs_gain_96:.3})"
        );
    }
}

#[test]
fn paper_kernels_are_pinned_to_the_bit() {
    // The paper tables round to a few digits, so a kernel refactor that
    // drifts by an ulp leaves every CSV unchanged. This digest covers the
    // raw bits: every MAPE/MAPE' of the 18 cached sweeps, one clairvoyant
    // study and one causal dynamic-selector prediction stream.
    let grid = ParamGrid::paper();
    let protocol = EvalProtocol::paper();
    let mut bits: Vec<u8> = Vec::new();
    let mut push = |value: f64| bits.extend_from_slice(&value.to_bits().to_le_bytes());
    for site in Site::ALL {
        for n in [96u32, 48, 24] {
            let result = &sweeps()[&(site, n)];
            for ai in 0..grid.alphas().len() {
                for di in 0..grid.days().len() {
                    for ki in 0..grid.ks().len() {
                        push(result.mape(ai, di, ki));
                        push(result.mape_prime(ai, di, ki));
                    }
                }
            }
        }
    }

    let trace = paper_repro::datasets::site_trace(Site::Ornl, DAYS);
    let view = SlotView::new(&trace, SlotsPerDay::new(48).unwrap()).unwrap();
    let best = sweeps()[&(Site::Ornl, 48)].best_by_mape();
    let outcome = clairvoyant_eval(&view, best.days, grid.alphas(), grid.k_max(), &protocol);
    push(outcome.both_mape);
    push(outcome.k_only.0);
    push(outcome.k_only.1);
    push(outcome.alpha_only.0 as f64);
    push(outcome.alpha_only.1);
    push(outcome.count as f64);

    let mut causal =
        CausalDynamicWcma::new(best.days, grid.k_max(), grid.alphas().to_vec(), 0.98, 48).unwrap();
    for record in &run_predictor(&view, &mut causal) {
        push(record.predicted);
    }

    let digest = fnv1a_bytes(&bits);
    assert_eq!(
        digest, 0x0da1_72a9_667d_af78,
        "paper kernel digest {digest:#018x}"
    );
}
