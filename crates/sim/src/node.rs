//! The slot-stepped node simulation with full energy accounting.

use crate::hook::{NoFaults, SlotHook};
use crate::load::Load;
use crate::manager::PowerManager;
use crate::panel::SolarPanel;
use crate::storage::EnergyStorage;
use crate::stream::NodeSimulation;
use solar_predict::Predictor;
use solar_trace::SlotView;

/// The physical configuration of a harvesting node.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeConfig {
    /// The PV panel (irradiance → power).
    pub panel: SolarPanel,
    /// Energy storage (consumed by the simulation as its starting state).
    pub storage: EnergyStorage,
    /// The duty-cycled load.
    pub load: Load,
}

/// Aggregate outcome of one simulation run.
///
/// All energies in joules. The accounting identity
/// `harvested = stored_delta + charge_waste + withdrawn + leaked` (with
/// `withdrawn = consumed + discharge_loss`) holds to floating-point
/// precision; [`NodeReport::energy_balance_error_j`] measures the
/// residual and is property-tested to be ~0.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeReport {
    /// Slots simulated.
    pub slots: usize,
    /// Total energy produced by the panel.
    pub harvested_j: f64,
    /// Energy delivered to the load.
    pub consumed_j: f64,
    /// Energy lost at the charger (conversion + overflow when full).
    pub charge_waste_j: f64,
    /// Energy lost at the discharger.
    pub discharge_loss_j: f64,
    /// Energy lost to storage leakage.
    pub leaked_j: f64,
    /// Final minus initial storage level.
    pub stored_delta_j: f64,
    /// Slots where the store could not fully power the planned duty.
    pub brownouts: usize,
    /// Mean planned duty cycle.
    pub mean_duty: f64,
    /// Fraction of *released* energy (harvest plus net storage drawdown)
    /// that reached the load; bounded to `[0, 1]` by energy conservation.
    pub utilization: f64,
}

impl NodeReport {
    /// Residual of the energy-conservation identity (should be ~0).
    pub fn energy_balance_error_j(&self) -> f64 {
        (self.harvested_j
            - (self.stored_delta_j
                + self.charge_waste_j
                + self.consumed_j
                + self.discharge_loss_j
                + self.leaked_j))
            .abs()
    }

    /// Fraction of slots that browned out.
    pub fn brownout_rate(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.brownouts as f64 / self.slots as f64
        }
    }
}

impl std::fmt::Display for NodeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} slots: duty {:.2}, brownouts {} ({:.1}%), utilization {:.1}%",
            self.slots,
            self.mean_duty,
            self.brownouts,
            self.brownout_rate() * 100.0,
            self.utilization * 100.0
        )
    }
}

/// Simulates a harvesting node over a slotted irradiance trace.
///
/// Per slot, in order (mirroring the paper's Fig. 1 loop):
///
/// 1. the slot's actual harvest (panel power from the slot's *mean*
///    irradiance × slot length) charges the store;
/// 2. the load runs at the duty planned at the *previous* slot boundary,
///    drawing from the store; shortfall is a brownout (the load degrades
///    to whatever energy was available);
/// 3. leakage is applied;
/// 4. the predictor observes the slot-boundary sample and the manager
///    plans the next slot's duty from the predicted harvest.
///
/// # Panics
///
/// Panics if the predictor's slot count differs from the view's.
pub fn simulate_node(
    view: &SlotView<'_>,
    predictor: &mut dyn Predictor,
    manager: &mut dyn PowerManager,
    config: &NodeConfig,
) -> NodeReport {
    simulate_node_hooked(view, predictor, manager, config, &mut NoFaults)
}

/// [`simulate_node`] with a fault-injection [`SlotHook`].
///
/// The hook runs first in every slot and may rewrite the slot's
/// harvested energy and the predictor's measured sample; everything
/// downstream (accounting, prediction, planning) sees the hooked values,
/// so the energy-balance identity of [`NodeReport`] continues to hold
/// under arbitrary faults (property-tested).
///
/// Per slot it drives one [`NodeSimulation`] through the hooked harvest
/// step, the predictor, and [`NodeSimulation::plan_with`]. The fleet
/// engine's [`NodeLanes`](crate::NodeLanes) step the same accounting
/// value functions, so view-driven and engine-driven simulations share
/// one set of accounting steps.
///
/// # Panics
///
/// Panics if the predictor's slot count differs from the view's.
pub fn simulate_node_hooked(
    view: &SlotView<'_>,
    predictor: &mut dyn Predictor,
    manager: &mut dyn PowerManager,
    config: &NodeConfig,
    hook: &mut dyn SlotHook,
) -> NodeReport {
    let n = view.slots_per_day();
    assert_eq!(
        predictor.slots_per_day(),
        n,
        "predictor configured for N={} but view has N={}",
        predictor.slots_per_day(),
        n
    );
    let mut sim =
        NodeSimulation::with_external_predictions(manager, config, hook, view.slot_seconds(), n);
    for (id, start, mean) in view.iter() {
        let measured = sim.absorb_slot(id.day as usize, id.slot as usize, start, mean);
        sim.plan_with(predictor.observe_and_predict(measured));
    }
    sim.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::ManagerSpec;
    use solar_predict::{PersistencePredictor, WcmaParams, WcmaPredictor};
    use solar_trace::{PowerTrace, Resolution, SlotsPerDay};

    fn solar_trace(days: usize) -> PowerTrace {
        let day: Vec<f64> = (0..24)
            .map(|h| if (6..18).contains(&h) { 600.0 } else { 0.0 })
            .collect();
        let samples: Vec<f64> = (0..days).flat_map(|_| day.clone()).collect();
        PowerTrace::new("sim", Resolution::from_minutes(60).unwrap(), samples).unwrap()
    }

    fn config() -> NodeConfig {
        NodeConfig {
            panel: SolarPanel::new(0.01, 0.15).unwrap(),
            storage: EnergyStorage::new(500.0, 250.0).unwrap(),
            load: Load::new(0.05, 0.0001).unwrap(),
        }
    }

    #[test]
    fn energy_is_conserved() {
        let trace = solar_trace(20);
        let view = SlotView::new(&trace, SlotsPerDay::new(24).unwrap()).unwrap();
        let mut predictor = WcmaPredictor::new(WcmaParams::new(0.5, 5, 2, 24).unwrap());
        let mut manager = ManagerSpec::EnergyNeutral {
            target_soc: 0.5,
            gain: 0.25,
        };
        let report = simulate_node(&view, &mut predictor, &mut manager, &config());
        assert!(report.energy_balance_error_j() < 1e-6, "{report:?}");
        assert_eq!(report.slots, 480);
        assert!(report.harvested_j > 0.0);
    }

    #[test]
    fn greedy_browns_out_overnight() {
        // Greedy runs flat out; a small store cannot carry the night.
        let trace = solar_trace(10);
        let view = SlotView::new(&trace, SlotsPerDay::new(24).unwrap()).unwrap();
        let mut cfg = config();
        cfg.storage = EnergyStorage::new(100.0, 50.0).unwrap();
        let mut predictor = PersistencePredictor::new(24);
        let mut manager = ManagerSpec::Greedy;
        let report = simulate_node(&view, &mut predictor, &mut manager, &cfg);
        assert!(report.brownouts > 0, "{report}");
    }

    #[test]
    fn prediction_driven_manager_beats_greedy_on_brownouts() {
        let trace = solar_trace(20);
        let view = SlotView::new(&trace, SlotsPerDay::new(24).unwrap()).unwrap();
        let cfg = config();

        let mut wcma = WcmaPredictor::new(WcmaParams::new(0.3, 5, 2, 24).unwrap());
        let mut neutral = ManagerSpec::EnergyNeutral {
            target_soc: 0.5,
            gain: 0.25,
        };
        let managed = simulate_node(&view, &mut wcma, &mut neutral, &cfg);

        let mut pers = PersistencePredictor::new(24);
        let mut greedy = ManagerSpec::Greedy;
        let unmanaged = simulate_node(&view, &mut pers, &mut greedy, &cfg);

        assert!(
            managed.brownout_rate() < unmanaged.brownout_rate(),
            "managed {managed} vs greedy {unmanaged}"
        );
    }

    #[test]
    fn fixed_duty_mean_matches() {
        let trace = solar_trace(5);
        let view = SlotView::new(&trace, SlotsPerDay::new(24).unwrap()).unwrap();
        let mut predictor = PersistencePredictor::new(24);
        let mut manager = ManagerSpec::FixedDuty { duty: 0.3 };
        let report = simulate_node(&view, &mut predictor, &mut manager, &config());
        assert!((report.mean_duty - 0.3).abs() < 1e-12);
    }

    #[test]
    fn report_display_and_rates() {
        let report = NodeReport {
            slots: 10,
            brownouts: 2,
            ..Default::default()
        };
        assert!((report.brownout_rate() - 0.2).abs() < 1e-12);
        assert!(report.to_string().contains("10 slots"));
        assert_eq!(NodeReport::default().brownout_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "predictor configured for")]
    fn mismatched_n_panics() {
        let trace = solar_trace(2);
        let view = SlotView::new(&trace, SlotsPerDay::new(24).unwrap()).unwrap();
        let mut predictor = PersistencePredictor::new(48);
        let mut manager = ManagerSpec::Greedy;
        let _ = simulate_node(&view, &mut predictor, &mut manager, &config());
    }
}
