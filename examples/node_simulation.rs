//! Node simulation: close the paper's Fig. 1 loop — a solar-harvesting
//! sensor node whose duty cycle is planned from WCMA predictions — and
//! compare power-management outcomes across predictors.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p paper-repro --example node_simulation
//! ```

use harvest_sim::{
    simulate_node, EnergyStorage, Load, ManagerSpec, NodeConfig, PowerManager, SolarPanel,
};
use solar_predict::{PersistencePredictor, Predictor, WcmaParams, WcmaPredictor};
use solar_synth::{Site, TraceGenerator};
use solar_trace::{SlotView, SlotsPerDay};
use std::error::Error;

fn run() -> Result<(), Box<dyn Error>> {
    let trace = TraceGenerator::new(Site::Spmd.config(), 99).generate_days(120)?;
    let view = SlotView::new(&trace, SlotsPerDay::new(48)?)?;

    // A realistic mote: 100 cm² panel, small supercap bank, 50 mW active.
    let config = NodeConfig {
        panel: SolarPanel::new(0.01, 0.15)?,
        storage: EnergyStorage::with_losses(4000.0, 2000.0, 0.9, 0.9, 0.001)?,
        load: Load::new(0.05, 0.0005)?,
    };

    println!("120 days on {} at N=48, {:?}\n", trace.label(), config.load);
    println!(
        "{:<34}{:>12}{:>12}{:>14}",
        "predictor + policy", "brownout %", "mean duty", "utilization %"
    );

    let neutral = ManagerSpec::EnergyNeutral {
        target_soc: 0.5,
        gain: 0.25,
    };
    type Run<'a> = (&'a str, Box<dyn Predictor>, Box<dyn PowerManager>);
    let mut runs: Vec<Run> = vec![
        (
            "WCMA + energy-neutral",
            Box::new(WcmaPredictor::new(WcmaParams::new(0.7, 10, 2, 48)?)),
            neutral.build(),
        ),
        (
            "persistence + energy-neutral",
            Box::new(PersistencePredictor::new(48)),
            neutral.build(),
        ),
        (
            "greedy (no prediction)",
            Box::new(PersistencePredictor::new(48)),
            ManagerSpec::Greedy.build(),
        ),
    ];

    for (name, predictor, manager) in &mut runs {
        let report = simulate_node(&view, predictor.as_mut(), manager.as_mut(), &config);
        assert!(report.energy_balance_error_j() < 1e-6);
        println!(
            "{:<34}{:>12.2}{:>12.3}{:>14.1}",
            name,
            report.brownout_rate() * 100.0,
            report.mean_duty,
            report.utilization * 100.0
        );
    }

    println!("\nA good predictor lets the node run hard *and* survive the night:");
    println!("greedy browns out nightly; prediction-driven planning does not.");
    Ok(())
}

fn main() {
    // Workspace exit codes (see `fleet_harness::exit`): 3 on failure.
    if let Err(e) = run() {
        eprintln!("node_simulation: {e}");
        std::process::exit(3);
    }
}
