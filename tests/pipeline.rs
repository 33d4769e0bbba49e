//! End-to-end pipeline tests: synthetic site → slotting → prediction →
//! paper protocol evaluation → grid optimization, all through the public
//! APIs.

use param_explore::{sweep, ParamGrid};
use pred_metrics::EvalProtocol;
use solar_predict::{
    run_predictor, EwmaPredictor, PersistencePredictor, WcmaParams, WcmaPredictor,
};
use solar_synth::{Site, TraceGenerator};
use solar_trace::{SlotView, SlotsPerDay};

const DAYS: usize = 60;

fn view_for(site: Site, n: u32) -> (solar_trace::PowerTrace, u32) {
    let trace = TraceGenerator::new(site.config(), 42)
        .generate_days(DAYS)
        .expect("days > 0");
    (trace, n)
}

#[test]
fn full_pipeline_produces_sane_numbers() {
    let (trace, n) = view_for(Site::Hsu, 48);
    let view = SlotView::new(&trace, SlotsPerDay::new(n).unwrap()).unwrap();
    let params = WcmaParams::new(0.7, 10, 2, 48).unwrap();
    let log = run_predictor(&view, &mut WcmaPredictor::new(params));
    // One record per slot except the trace's final slot.
    assert_eq!(log.len(), view.total_slots() - 1);
    let summary = EvalProtocol::paper().evaluate(&log);
    assert!(
        summary.count > 500,
        "enough evaluation points: {}",
        summary.count
    );
    // Sane solar prediction: MAPE within (0, 60%) and MAPE' above MAPE.
    assert!(summary.mape > 0.005 && summary.mape < 0.6, "{summary}");
    assert!(summary.mape_prime > summary.mape, "{summary}");
}

#[test]
fn sweep_and_streaming_agree_on_synthetic_data() {
    // The sweep engine's exactness on real synthetic data (not just the
    // unit-test fixtures): pick a few scattered grid points.
    let (trace, n) = view_for(Site::Pfci, 24);
    let view = SlotView::new(&trace, SlotsPerDay::new(n).unwrap()).unwrap();
    let grid = ParamGrid::builder()
        .alphas(vec![0.0, 0.6, 1.0])
        .days(vec![3, 11, 20])
        .ks(vec![1, 4])
        .build()
        .unwrap();
    let protocol = EvalProtocol::paper();
    let result = sweep(&view, &grid, &protocol);
    for (ai, &alpha) in grid.alphas().iter().enumerate() {
        for (di, &d) in grid.days().iter().enumerate() {
            for (ki, &k) in grid.ks().iter().enumerate() {
                let params = WcmaParams::new(alpha, d, k, 24).unwrap();
                let log = run_predictor(&view, &mut WcmaPredictor::new(params));
                let summary = protocol.evaluate(&log);
                assert!(
                    (summary.mape - result.mape(ai, di, ki)).abs() < 1e-12,
                    "({alpha}, {d}, {k})"
                );
                assert_eq!(summary.count, result.eval_count());
            }
        }
    }
}

#[test]
fn wcma_beats_naive_baselines_on_variable_site() {
    let (trace, n) = view_for(Site::Ornl, 48);
    let view = SlotView::new(&trace, SlotsPerDay::new(n).unwrap()).unwrap();
    let protocol = EvalProtocol::paper();
    let params = WcmaParams::new(0.7, 10, 2, 48).unwrap();
    let wcma = protocol
        .evaluate(&run_predictor(&view, &mut WcmaPredictor::new(params)))
        .mape;
    let pers = protocol
        .evaluate(&run_predictor(&view, &mut PersistencePredictor::new(48)))
        .mape;
    let ewma = protocol
        .evaluate(&run_predictor(
            &view,
            &mut EwmaPredictor::new(0.5, 48).unwrap(),
        ))
        .mape;
    assert!(wcma < pers, "WCMA {wcma} vs persistence {pers}");
    assert!(wcma < ewma, "WCMA {wcma} vs EWMA {ewma}");
}

#[test]
fn all_sites_generate_and_evaluate_at_all_paper_rates() {
    for site in Site::ALL {
        let trace = TraceGenerator::new(site.config(), 5)
            .generate_days(30)
            .unwrap();
        for n in SlotsPerDay::PAPER_VALUES {
            let view = SlotView::new(&trace, SlotsPerDay::new(n).unwrap()).unwrap();
            let params = WcmaParams::new(0.5, 5, 2, n as usize).unwrap();
            let log = run_predictor(&view, &mut WcmaPredictor::new(params));
            let summary = EvalProtocol::paper().evaluate(&log);
            assert!(summary.mape.is_finite(), "{site} N={n}");
        }
    }
}
