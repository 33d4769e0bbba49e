//! Ablation — WCMA against the predictors the paper's §I cites.

use crate::context::{Context, ExperimentOutput};
use param_explore::report::{pct, TextTable};
use pred_metrics::ErrorSummary;
use solar_predict::{
    run_predictor, EwmaPredictor, MovingAveragePredictor, PersistencePredictor, Predictor,
    WcmaParams, WcmaPredictor,
};
use solar_trace::{SlotView, SlotsPerDay};

/// The sampling rate of the comparison.
pub const N: u32 = 48;

fn evaluate(ctx: &Context, view: &SlotView<'_>, predictor: &mut dyn Predictor) -> ErrorSummary {
    let log = run_predictor(view, predictor);
    ctx.protocol().evaluate(&log)
}

/// Compares, per site at N = 48: the per-site-optimized WCMA, WCMA at the
/// paper's §IV-B guideline parameters (α = 0.7, D = 10, K = 2), Kansal's
/// EWMA (γ = 0.5), the D = 10 moving average, and persistence.
///
/// This reproduces the context of the paper's introduction: WCMA was
/// proposed as an improvement over EWMA-style predictors, and the
/// guideline configuration should stay close to the per-site optimum.
pub fn run(ctx: &Context) -> ExperimentOutput {
    let n = N as usize;
    let mut table = TextTable::new(vec![
        "Data set",
        "WCMA (opt)",
        "WCMA (guideline)",
        "EWMA g=0.5",
        "MovAvg D=10",
        "Persistence",
    ]);
    for ds in ctx.datasets() {
        let view =
            SlotView::new(&ds.trace, SlotsPerDay::new(N).expect("paper N")).expect("compatible N");
        let opt = ctx.sweep_for(ds.site, N).best_by_mape();
        let mut wcma_opt = WcmaPredictor::new(
            WcmaParams::new(opt.alpha, opt.days, opt.k, n).expect("grid values are valid"),
        );
        let mut wcma_guideline =
            WcmaPredictor::new(WcmaParams::new(0.7, 10, 2, n).expect("guideline values"));
        let mut ewma = EwmaPredictor::new(EwmaPredictor::DEFAULT_GAMMA, n).expect("valid gamma");
        let mut mavg = MovingAveragePredictor::new(10, n).expect("valid days");
        let mut pers = PersistencePredictor::new(n);
        table.push_row(vec![
            ds.site.code().to_string(),
            pct(evaluate(ctx, &view, &mut wcma_opt).mape),
            pct(evaluate(ctx, &view, &mut wcma_guideline).mape),
            pct(evaluate(ctx, &view, &mut ewma).mape),
            pct(evaluate(ctx, &view, &mut mavg).mape),
            pct(evaluate(ctx, &view, &mut pers).mape),
        ]);
    }
    ExperimentOutput {
        id: "baselines",
        title: "Ablation: WCMA vs EWMA / moving average / persistence (N = 48)",
        tables: vec![("main".into(), table)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pct_of(cell: &str) -> f64 {
        cell.trim_end_matches('%').parse().unwrap()
    }

    #[test]
    fn wcma_beats_baselines_on_average() {
        let ctx = Context::with_days(60);
        let out = run(&ctx);
        let table = &out.tables[0].1;
        assert_eq!(table.len(), 6);
        let mean =
            |col: usize| -> f64 { table.rows().iter().map(|r| pct_of(&r[col])).sum::<f64>() / 6.0 };
        let opt = mean(1);
        let guideline = mean(2);
        let ewma = mean(3);
        let mavg = mean(4);
        assert!(opt <= guideline + 1e-9, "optimum cannot lose to guideline");
        assert!(
            guideline < ewma,
            "guideline WCMA ({guideline}) should beat EWMA ({ewma})"
        );
        assert!(
            opt < mavg,
            "WCMA ({opt}) should beat the moving average ({mavg})"
        );
        // The guideline stays close to the optimum (paper §IV-B).
        assert!(
            guideline - opt < 3.0,
            "guideline within ~3 points of optimal"
        );
    }
}
