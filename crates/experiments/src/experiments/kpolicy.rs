//! Ablation — the day-start K-window policy is immaterial.
//!
//! The paper leaves the K window's behaviour at the first slots of a
//! day unspecified. This experiment runs both
//! readings and shows the MAPE difference is negligible inside the
//! region of interest (night surrounds midnight, so the wrapped ratios
//! are the neutral η = 1 either way).

use crate::context::{Context, ExperimentOutput};
use param_explore::report::{pct, TextTable};
use solar_predict::{run_predictor, KWindowPolicy, WcmaParamsBuilder, WcmaPredictor};
use solar_trace::{SlotView, SlotsPerDay};

/// The sampling rate of the comparison.
pub const N: u32 = 48;

/// Per site at N = 48 with guideline parameters: MAPE under
/// wrap-previous-day vs clamp-renormalize.
pub fn run(ctx: &Context) -> ExperimentOutput {
    let mut table = TextTable::new(vec!["Data set", "wrap", "clamp", "delta (points)"]);
    for ds in ctx.datasets() {
        let view =
            SlotView::new(&ds.trace, SlotsPerDay::new(N).expect("paper N")).expect("compatible N");
        let mape_for = |policy: KWindowPolicy| {
            let params = WcmaParamsBuilder::new()
                .alpha(0.7)
                .days(10)
                .k(6) // the widest window maximizes any boundary effect
                .slots_per_day(N as usize)
                .k_policy(policy)
                .build()
                .expect("valid parameters");
            ctx.protocol()
                .evaluate(&run_predictor(&view, &mut WcmaPredictor::new(params)))
                .mape
        };
        let wrap = mape_for(KWindowPolicy::WrapPreviousDay);
        let clamp = mape_for(KWindowPolicy::ClampRenormalize);
        table.push_row(vec![
            ds.site.code().to_string(),
            pct(wrap),
            pct(clamp),
            format!("{:.4}", (wrap - clamp).abs() * 100.0),
        ]);
    }
    ExperimentOutput {
        id: "kpolicy",
        title: "Ablation: K-window day-start policy (N = 48, K = 6)",
        tables: vec![("main".into(), table)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_agree_inside_roi() {
        let ctx = Context::with_days(60);
        let out = run(&ctx);
        for row in out.tables[0].1.rows() {
            let delta: f64 = row[3].parse().unwrap();
            assert!(delta < 0.1, "{}: policy delta {delta} points", row[0]);
        }
    }
}
