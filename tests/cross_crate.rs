//! Cross-crate consistency tests: the hardware model against the core
//! kernel, the simulator against synthetic traces, and fixed point
//! against f64 on realistic data.

use harvest_sim::{simulate_node, EnergyStorage, Load, ManagerSpec, NodeConfig, SolarPanel};
use msp430_energy::{CalibratedCycleModel, OpCostModel, PredictionKernel, Supply};
use pred_metrics::EvalProtocol;
use solar_predict::fixed_point::FixedWcmaPredictor;
use solar_predict::{run_predictor, WcmaParams, WcmaPredictor};
use solar_synth::{Site, TraceGenerator};
use solar_trace::{SlotView, SlotsPerDay};

#[test]
fn hw_cost_models_agree_on_scaling() {
    // The calibrated model and the analytic op-count model must agree on
    // the *structure* of the cost: linear growth in K with similar
    // per-K increments (both are one div + mul + add of the same
    // arithmetic), and a positive persistence-path cost.
    let calibrated = CalibratedCycleModel::paper();
    let float = OpCostModel::software_float();
    let per_k_calibrated = calibrated.cycles(&PredictionKernel::new(5, 0.5))
        - calibrated.cycles(&PredictionKernel::new(4, 0.5));
    let per_k_analytic = float.cycles(PredictionKernel::new(5, 0.5).op_counts())
        - float.cycles(PredictionKernel::new(4, 0.5).op_counts());
    let ratio = per_k_analytic / per_k_calibrated;
    assert!(
        (0.5..2.5).contains(&ratio),
        "per-K increments disagree: analytic {per_k_analytic}, calibrated {per_k_calibrated}"
    );
}

#[test]
fn prediction_energy_is_small_next_to_sampling() {
    // The paper's §IV-B conclusion: prediction adds a few µJ on top of
    // the 55 µJ acquisition for every sensible configuration.
    let supply = Supply::msp430f1611();
    let model = CalibratedCycleModel::paper();
    for k in 1..=6 {
        for alpha in [0.0, 0.5, 1.0] {
            let e = model.cycles(&PredictionKernel::new(k, alpha)) * supply.energy_per_cycle_j();
            assert!(e > 0.5e-6 && e < 12.0e-6, "K={k} alpha={alpha}: {e}");
        }
    }
}

#[test]
fn node_conserves_energy_on_every_site() {
    let config = NodeConfig {
        panel: SolarPanel::new(0.01, 0.15).unwrap(),
        storage: EnergyStorage::with_losses(3000.0, 1500.0, 0.85, 0.9, 0.002).unwrap(),
        load: Load::new(0.06, 0.0005).unwrap(),
    };
    for site in Site::ALL {
        let trace = TraceGenerator::new(site.config(), 13)
            .generate_days(40)
            .unwrap();
        let view = SlotView::new(&trace, SlotsPerDay::new(48).unwrap()).unwrap();
        let mut predictor = WcmaPredictor::new(WcmaParams::new(0.7, 10, 2, 48).unwrap());
        let mut manager = ManagerSpec::EnergyNeutral {
            target_soc: 0.5,
            gain: 0.25,
        };
        let report = simulate_node(&view, &mut predictor, &mut manager, &config);
        assert!(
            report.energy_balance_error_j() < 1e-6 * report.harvested_j.max(1.0),
            "{site}: residual {}",
            report.energy_balance_error_j()
        );
        assert!(report.harvested_j > 0.0);
        assert!(report.consumed_j > 0.0);
    }
}

#[test]
fn fixed_point_accuracy_penalty_is_negligible_on_solar_data() {
    let trace = TraceGenerator::new(Site::Hsu.config(), 21)
        .generate_days(60)
        .unwrap();
    let view = SlotView::new(&trace, SlotsPerDay::new(48).unwrap()).unwrap();
    let params = WcmaParams::new(0.7, 10, 2, 48).unwrap();
    let protocol = EvalProtocol::paper();
    let float = protocol
        .evaluate(&run_predictor(&view, &mut WcmaPredictor::new(params)))
        .mape;
    let fixed = protocol
        .evaluate(&run_predictor(&view, &mut FixedWcmaPredictor::new(params)))
        .mape;
    assert!(
        (float - fixed).abs() < 0.001,
        "fixed-point MAPE {fixed} vs float {float}"
    );
}

#[test]
fn overhead_stays_below_five_percent_across_paper_rates() {
    // Fig. 6's practical upshot: even at N = 288 the sampling+prediction
    // activity is under 5% of the sleep budget.
    use msp430_energy::{AdcModel, SamplingSchedule};
    let supply = Supply::msp430f1611();
    let adc = AdcModel::msp430_paper();
    let model = CalibratedCycleModel::paper();
    let kernel = PredictionKernel::new(2, 0.7);
    for n in SlotsPerDay::PAPER_VALUES {
        let budget = SamplingSchedule::new(n as usize).daily_budget(&supply, &adc, &model, &kernel);
        assert!(
            budget.overhead_pct() < 5.0,
            "N={n}: {:.2}%",
            budget.overhead_pct()
        );
    }
}
