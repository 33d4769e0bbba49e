//! The slot-stepped node loop as a push-style state machine, and the
//! value functions that are the loop's one copy of the slot
//! accounting.
//!
//! [`simulate_node_hooked`](crate::simulate_node_hooked) drives one
//! machine over a view's slots; the fleet engine's job plane,
//! [`NodeLanes`](crate::NodeLanes), steps one lane per job through the
//! same [`absorb`] and duty rule, so view-driven runs and the engine
//! share one set of accounting steps.

use crate::hook::SlotHook;
use crate::manager::{PowerManager, SlotContext};
use crate::node::{NodeConfig, NodeReport};

/// The node simulation as an incremental state machine over a borrowed
/// manager and fault hook. Predictions are computed *outside* the
/// machine — by the caller's predictor or a shared multi-candidate
/// kernel such as `solar_predict::CandidateBank` — so a slot is two
/// calls: [`NodeSimulation::absorb_corrupted`] (or the hooked
/// `absorb_slot`) for steps 1–3, then [`NodeSimulation::plan_with`]
/// for step 4. Collect the report with [`NodeSimulation::finish`].
pub struct NodeSimulation<'a> {
    manager: &'a mut dyn PowerManager,
    hook: &'a mut dyn SlotHook,
    /// The node's parameters; its storage's level is the initial one.
    config: NodeConfig,
    level_j: f64,
    slot_s: f64,
    report: NodeReport,
    duty_sum: f64,
    planned_duty: f64,
}

impl<'a> NodeSimulation<'a> {
    /// Starts a simulation of `config` at slot duration `slot_seconds`
    /// for predictions made at `slots_per_day` slots per day.
    ///
    /// # Panics
    ///
    /// Panics if `slot_seconds` is not positive, or if `slots_per_day ×
    /// slot_seconds` is not one day — running a predictor at the wrong
    /// N is always a bug.
    pub fn with_external_predictions(
        manager: &'a mut dyn PowerManager,
        config: &NodeConfig,
        hook: &'a mut dyn SlotHook,
        slot_seconds: f64,
        slots_per_day: usize,
    ) -> Self {
        check_slotting(slot_seconds, slots_per_day);
        NodeSimulation {
            manager,
            hook,
            config: config.clone(),
            level_j: config.storage.level_j(),
            slot_s: slot_seconds,
            report: NodeReport::default(),
            duty_sum: 0.0,
            planned_duty: 0.0,
        }
    }

    /// The pre-prediction half of a slot (steps 0–3: fault hook,
    /// harvest, load, leakage) for the slot at `(day, slot)` with
    /// boundary sample `start_sample` and mean power `mean_power`,
    /// returning the fault-hooked measured sample the predictor
    /// observes. Pair with [`NodeSimulation::plan_with`].
    pub(crate) fn absorb_slot(
        &mut self,
        day: usize,
        slot: usize,
        start_sample: f64,
        mean_power: f64,
    ) -> f64 {
        // 0. Fault injection: the hook may rewrite what the panel
        //    produced and what the sensor will report.
        let harvest_w = self.config.panel.power_w(mean_power);
        let mut harvest_j = harvest_w * self.slot_s;
        let mut measured = start_sample;
        self.hook.on_slot(day, slot, &mut harvest_j, &mut measured);
        self.absorb_corrupted(harvest_j);
        measured
    }

    /// Steps 1–3 for an already fault-hooked harvest — what a caller
    /// realizing one shared corruption for many identical-fault
    /// machines feeds each of them. The hooked path used by
    /// [`crate::simulate_node_hooked`] is exactly this after its own
    /// hook, so the paths are bit-identical.
    #[inline]
    pub fn absorb_corrupted(&mut self, harvest_j: f64) {
        let harvest_j = harvest_j.max(0.0);
        self.report.harvested_j += harvest_j;
        let (level_j, flows) = absorb(
            &self.config,
            self.slot_s,
            self.level_j,
            self.planned_duty,
            harvest_j,
        );
        self.level_j = level_j;
        self.report.charge_waste_j += flows.charge_waste_j;
        self.report.consumed_j += flows.consumed_j;
        self.report.discharge_loss_j += flows.discharge_loss_j;
        self.report.brownouts += usize::from(flows.brownout);
        self.report.leaked_j += flows.leaked_j;
    }

    /// The post-prediction half of a slot (step 4): plan the next slot's
    /// duty from `predicted` — however it was computed.
    #[inline]
    pub fn plan_with(&mut self, predicted: f64) {
        let ctx = slot_context(&self.config, self.slot_s, self.level_j, predicted);
        self.planned_duty = self.manager.plan_duty(&ctx);
        assert!(
            (0.0..=1.0).contains(&self.planned_duty),
            "manager {} produced duty {}",
            self.manager.name(),
            self.planned_duty
        );
        self.duty_sum += self.planned_duty;
        self.report.slots += 1;
    }

    /// Finalizes the accounting and returns the report.
    pub fn finish(self) -> NodeReport {
        let initial_j = self.config.storage.level_j();
        finish_report(self.report, self.level_j - initial_j, self.duty_sum)
    }
}

/// The guard shared by every machine and lane set: slots of
/// `slot_seconds` must be positive and make `slots_per_day` one day.
pub(crate) fn check_slotting(slot_seconds: f64, slots_per_day: usize) {
    assert!(
        slot_seconds > 0.0,
        "slot duration {slot_seconds} must be positive"
    );
    let day_seconds = slots_per_day as f64 * slot_seconds;
    assert!(
        (day_seconds - 86_400.0).abs() < 1e-6,
        "predictor configured for N={slots_per_day} but slots of {slot_seconds} s make a {day_seconds} s day",
    );
}

/// What steps 1–3 of one slot add to a node's ledger.
#[derive(Copy, Clone, Debug)]
pub(crate) struct SlotFlows {
    pub(crate) charge_waste_j: f64,
    pub(crate) consumed_j: f64,
    pub(crate) discharge_loss_j: f64,
    pub(crate) leaked_j: f64,
    /// The store could not fully power the planned duty.
    pub(crate) brownout: bool,
}

/// Steps 1–3 of a slot as a value function: a store at `level_j` takes
/// the slot's (non-negative) `harvest_j`, runs the load at `duty`, and
/// leaks. Returns the new level and the slot's flows. The one copy of
/// the slot's accounting, shared by [`NodeSimulation`] and every lane of a
/// [`NodeLanes`](crate::NodeLanes); `config.storage` supplies only its
/// parameters.
#[inline]
pub(crate) fn absorb(
    config: &NodeConfig,
    slot_s: f64,
    level_j: f64,
    duty: f64,
    harvest_j: f64,
) -> (f64, SlotFlows) {
    let storage = &config.storage;
    // 1. Harvest the slot's actual energy.
    let (level_j, charge) = storage.charged(level_j, harvest_j);
    // 2. Run the load at the planned duty.
    let want_j = config.load.mean_power_w(duty) * slot_s;
    let (drawn_level_j, delivered) = storage.discharged(level_j, want_j);
    let withdrawn = level_j - drawn_level_j;
    // 3. Leakage.
    let (level_j, leaked_j) = storage.leaked(drawn_level_j, slot_s);
    let flows = SlotFlows {
        charge_waste_j: charge.wasted_j,
        consumed_j: delivered,
        discharge_loss_j: withdrawn - delivered,
        leaked_j,
        brownout: delivered + 1e-12 < want_j,
    };
    (level_j, flows)
}

/// What a manager sees when it plans from `predicted` with the store
/// at `level_j`.
#[inline]
pub(crate) fn slot_context(
    config: &NodeConfig,
    slot_s: f64,
    level_j: f64,
    predicted: f64,
) -> SlotContext {
    SlotContext {
        predicted_harvest_w: config.panel.power_w(predicted),
        storage_level_j: level_j,
        storage_capacity_j: config.storage.capacity_j(),
        slot_seconds: slot_s,
        load_active_w: config.load.active_w(),
        load_sleep_w: config.load.sleep_w(),
    }
}

/// Completes a report whose store moved by `stored_delta_j` and whose
/// planned duties summed to `duty_sum`.
pub(crate) fn finish_report(
    mut report: NodeReport,
    stored_delta_j: f64,
    duty_sum: f64,
) -> NodeReport {
    report.stored_delta_j = stored_delta_j;
    report.mean_duty = if report.slots > 0 {
        duty_sum / report.slots as f64
    } else {
        0.0
    };
    // Released energy = harvest + net storage drawdown = consumed +
    // every loss term, so the ratio is a true fraction.
    let released = report.harvested_j - report.stored_delta_j;
    report.utilization = if released > 0.0 {
        report.consumed_j / released
    } else {
        0.0
    };
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::NoFaults;
    use crate::manager::ManagerSpec;
    use crate::node::simulate_node;
    use crate::panel::SolarPanel;
    use crate::storage::EnergyStorage;
    use crate::Load;
    use solar_predict::{Predictor, WcmaParams, WcmaPredictor};
    use solar_trace::{PowerTrace, Resolution, SlotView, SlotsPerDay};

    const NEUTRAL: ManagerSpec = ManagerSpec::EnergyNeutral {
        target_soc: 0.5,
        gain: 0.25,
    };

    fn config() -> NodeConfig {
        NodeConfig {
            panel: SolarPanel::new(0.01, 0.15).unwrap(),
            storage: EnergyStorage::with_losses(500.0, 250.0, 0.9, 0.9, 0.001).unwrap(),
            load: Load::new(0.05, 0.0001).unwrap(),
        }
    }

    #[test]
    fn external_predictions_match_the_owned_predictor_path() {
        // Driving the machine through absorb_corrupted + plan_with with
        // the harvest and predictions computed outside must reproduce
        // simulate_node exactly — the contract the engine's shared
        // fault realization and banked candidates rely on.
        let day: Vec<f64> = (0..24)
            .map(|h| {
                if (7..17).contains(&h) {
                    480.0 + h as f64
                } else {
                    0.0
                }
            })
            .collect();
        let samples: Vec<f64> = (0..15).flat_map(|_| day.clone()).collect();
        let trace = PowerTrace::new("s", Resolution::from_minutes(60).unwrap(), samples).unwrap();
        let view = SlotView::new(&trace, SlotsPerDay::new(24).unwrap()).unwrap();

        let mut p1 = WcmaPredictor::new(WcmaParams::new(0.5, 5, 2, 24).unwrap());
        let mut m1 = NEUTRAL;
        let owned = simulate_node(&view, &mut p1, &mut m1, &config());

        let mut p2 = WcmaPredictor::new(WcmaParams::new(0.5, 5, 2, 24).unwrap());
        let mut m2 = NEUTRAL;
        let mut hook = NoFaults;
        let cfg = config();
        let mut external = NodeSimulation::with_external_predictions(
            &mut m2,
            &cfg,
            &mut hook,
            view.slot_seconds(),
            24,
        );
        for (_, start, mean) in view.iter() {
            external.absorb_corrupted(cfg.panel.power_w(mean) * view.slot_seconds());
            external.plan_with(p2.observe_and_predict(start));
        }
        assert_eq!(owned, external.finish());
    }

    #[test]
    fn empty_stream_yields_empty_report() {
        let mut m = NEUTRAL;
        let mut hook = NoFaults;
        let report =
            NodeSimulation::with_external_predictions(&mut m, &config(), &mut hook, 3600.0, 24)
                .finish();
        assert_eq!(report.slots, 0);
        assert_eq!(report.mean_duty, 0.0);
        assert_eq!(report.utilization, 0.0);
    }

    #[test]
    #[should_panic(expected = "manager fixed-duty produced duty 1.5")]
    fn an_out_of_range_duty_fails_at_its_first_plan() {
        let mut m = ManagerSpec::FixedDuty { duty: 1.5 };
        let cfg = config();
        let mut hook = NoFaults;
        let mut sim =
            NodeSimulation::with_external_predictions(&mut m, &cfg, &mut hook, 3600.0, 24);
        sim.plan_with(0.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_slot_duration_panics() {
        let mut m = NEUTRAL;
        let cfg = config();
        let mut hook = NoFaults;
        let _ = NodeSimulation::with_external_predictions(&mut m, &cfg, &mut hook, 0.0, 24);
    }

    #[test]
    #[should_panic(expected = "predictor configured for")]
    fn mismatched_discretization_panics() {
        // A predictor built for N=24 fed 48-slot (1800 s) days is the
        // silent-corruption case the guard exists for.
        let mut m = NEUTRAL;
        let cfg = config();
        let mut hook = NoFaults;
        let _ = NodeSimulation::with_external_predictions(&mut m, &cfg, &mut hook, 1800.0, 24);
    }
}
