//! Ablation — Q16.16 fixed-point WCMA vs the f64 reference.

use crate::context::{Context, ExperimentOutput};
use msp430_energy::{OpCostModel, PredictionKernel, Supply};
use param_explore::report::{pct, TextTable};
use solar_predict::fixed_point::FixedWcmaPredictor;
use solar_predict::{run_predictor, WcmaParams, WcmaPredictor};
use solar_trace::{SlotView, SlotsPerDay};

/// The sampling rate of the comparison.
pub const N: u32 = 48;

/// Compares, per site at N = 48 with the guideline parameters, the MAPE
/// of the f64 WCMA against the Q16.16 kernel an MCU would run, plus the
/// per-prediction cycle/energy cost of each arithmetic style.
///
/// Expected outcome: the accuracy penalty of
/// fixed point is orders of magnitude below the prediction error itself,
/// while the cycle cost drops several-fold — supporting fixed-point
/// deployment as the §IV-B cost discussion implies.
pub fn run(ctx: &Context) -> ExperimentOutput {
    let n = N as usize;
    let params = WcmaParams::new(0.7, 10, 2, n).expect("guideline parameters");
    let mut accuracy = TextTable::new(vec![
        "Data set",
        "MAPE f64",
        "MAPE Q16.16",
        "penalty (points)",
    ]);
    for ds in ctx.datasets() {
        let view =
            SlotView::new(&ds.trace, SlotsPerDay::new(N).expect("paper N")).expect("compatible N");
        let float = ctx
            .protocol()
            .evaluate(&run_predictor(&view, &mut WcmaPredictor::new(params)));
        let fixed = ctx
            .protocol()
            .evaluate(&run_predictor(&view, &mut FixedWcmaPredictor::new(params)));
        accuracy.push_row(vec![
            ds.site.code().to_string(),
            pct(float.mape),
            pct(fixed.mape),
            format!("{:.4}", (fixed.mape - float.mape) * 100.0),
        ]);
    }

    let supply = Supply::msp430f1611();
    let kernel = PredictionKernel::new(2, 0.7);
    let counts = kernel.op_counts();
    let mut cost = TextTable::new(vec!["Arithmetic", "cycles", "energy uJ"]);
    for (name, model) in [
        ("software float", OpCostModel::software_float()),
        ("Q16.16 fixed", OpCostModel::fixed_q16()),
    ] {
        let cycles = model.cycles(counts);
        cost.push_row(vec![
            name.to_string(),
            format!("{cycles:.0}"),
            format!("{:.2}", cycles * supply.energy_per_cycle_j() * 1e6),
        ]);
    }

    ExperimentOutput {
        id: "fixedpoint",
        title: "Ablation: Q16.16 fixed-point WCMA vs f64 (N = 48, guideline params)",
        tables: vec![("accuracy".into(), accuracy), ("cost".into(), cost)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_penalty_is_negligible() {
        let ctx = Context::with_days(60);
        let out = run(&ctx);
        for row in out.tables[0].1.rows() {
            let penalty: f64 = row[3].parse().unwrap();
            assert!(
                penalty.abs() < 0.05,
                "{}: quantization moved MAPE by {penalty} points",
                row[0]
            );
        }
    }

    #[test]
    fn fixed_point_is_cheaper() {
        let ctx = Context::with_days(25);
        let out = run(&ctx);
        let cost = &out.tables[1].1;
        let float: f64 = cost.rows()[0][1].parse().unwrap();
        let fixed: f64 = cost.rows()[1][1].parse().unwrap();
        assert!(fixed < 0.7 * float, "fixed {fixed} vs float {float}");
    }
}
