//! Context experiment — what prediction accuracy buys a harvesting node
//! (the paper's Fig. 1 motivation, closed-loop).

use crate::context::{Context, ExperimentOutput};
use harvest_sim::{
    simulate_node, EnergyStorage, Load, ManagerSpec, NodeConfig, PowerManager, SolarPanel,
};
use param_explore::report::TextTable;
use solar_predict::{
    EwmaPredictor, MovingAveragePredictor, PersistencePredictor, Predictor, WcmaParams,
    WcmaPredictor,
};
use solar_synth::Site;
use solar_trace::{SlotView, SlotsPerDay};

/// The sampling rate of the node loop.
pub const N: u32 = 48;
/// The site used (a variable one, where prediction quality matters).
pub const SITE: Site = Site::Hsu;

fn node_config() -> NodeConfig {
    NodeConfig {
        // 100 cm² panel at 15%: ~1.3 W peak under 900 W/m².
        panel: SolarPanel::new(0.01, 0.15).expect("valid panel"),
        // A small supercapacitor bank: ~25 minutes of full-duty autonomy,
        // so overnight survival requires honest daytime planning.
        storage: EnergyStorage::with_losses(4000.0, 2000.0, 0.9, 0.9, 0.001)
            .expect("valid storage"),
        load: Load::new(0.05, 0.0005).expect("valid load"),
    }
}

/// Runs the energy-neutral manager with four predictors (WCMA guideline,
/// EWMA, moving average, persistence) plus the greedy no-prediction
/// baseline, reporting brownout rate, mean duty and utilization.
pub fn run(ctx: &Context) -> ExperimentOutput {
    let ds = ctx.dataset(SITE);
    let view =
        SlotView::new(&ds.trace, SlotsPerDay::new(N).expect("paper N")).expect("compatible N");
    let n = N as usize;
    let mut table = TextTable::new(vec![
        "Predictor / policy",
        "brownout %",
        "mean duty",
        "utilization %",
    ]);

    let neutral = ManagerSpec::EnergyNeutral {
        target_soc: 0.5,
        gain: 0.25,
    };
    type Run = (String, Box<dyn Predictor>, Box<dyn PowerManager>);
    let mut runs: Vec<Run> = vec![
        (
            "WCMA + energy-neutral".into(),
            Box::new(WcmaPredictor::new(
                WcmaParams::new(0.7, 10, 2, n).expect("guideline"),
            )),
            neutral.build(),
        ),
        (
            "EWMA + energy-neutral".into(),
            Box::new(EwmaPredictor::new(EwmaPredictor::DEFAULT_GAMMA, n).expect("valid gamma")),
            neutral.build(),
        ),
        (
            "MovAvg + energy-neutral".into(),
            Box::new(MovingAveragePredictor::new(10, n).expect("valid days")),
            neutral.build(),
        ),
        (
            "Persistence + energy-neutral".into(),
            Box::new(PersistencePredictor::new(n)),
            neutral.build(),
        ),
        (
            "Greedy (no prediction)".into(),
            Box::new(PersistencePredictor::new(n)),
            ManagerSpec::Greedy.build(),
        ),
    ];
    for (name, predictor, manager) in &mut runs {
        let report = simulate_node(&view, predictor.as_mut(), manager.as_mut(), &node_config());
        table.push_row(vec![
            name.clone(),
            format!("{:.2}", report.brownout_rate() * 100.0),
            format!("{:.3}", report.mean_duty),
            format!("{:.1}", report.utilization * 100.0),
        ]);
    }

    ExperimentOutput {
        id: "sim-impact",
        title: "Context: prediction quality in the harvested-energy management loop (HSU, N = 48)",
        tables: vec![("main".into(), table)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn managed_node_beats_greedy() {
        let ctx = Context::with_days(45);
        let out = run(&ctx);
        let table = &out.tables[0].1;
        assert_eq!(table.len(), 5);
        let brownout = |row: usize| -> f64 { table.rows()[row][1].parse().unwrap() };
        let wcma = brownout(0);
        let greedy = brownout(4);
        assert!(
            wcma < greedy,
            "prediction-managed node ({wcma}%) must brown out less than greedy ({greedy}%)"
        );
    }
}
