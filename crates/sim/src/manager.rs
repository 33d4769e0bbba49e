//! Power-management policies: how predictions become duty cycles.

/// Everything a manager sees when planning the next slot.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SlotContext {
    /// Predicted harvested power over the next slot, in watts (already
    /// through the panel).
    pub predicted_harvest_w: f64,
    /// Current storage level in joules.
    pub storage_level_j: f64,
    /// Storage capacity in joules.
    pub storage_capacity_j: f64,
    /// Slot length in seconds.
    pub slot_seconds: f64,
    /// Load active power in watts.
    pub load_active_w: f64,
    /// Load sleep power in watts.
    pub load_sleep_w: f64,
}

/// A policy turning a [`SlotContext`] into the next slot's duty cycle in
/// `[0, 1]`.
///
/// Object-safe so heterogeneous policy sets can be compared.
pub trait PowerManager {
    /// Plans the duty cycle for the upcoming slot.
    fn plan_duty(&mut self, ctx: &SlotContext) -> f64;

    /// Short name for reports.
    fn name(&self) -> &str;
}

/// A buildable power-manager configuration.
///
/// The built-in policies as plain data: what fleet matrices, labels and
/// reports name, and the rule one lane of a
/// [`NodeLanes`](crate::NodeLanes) plans with. Every policy is
/// stateless, so the spec is the manager: as a [`PowerManager`] it plans
/// directly.
///
/// The energy-neutral controller (after Kansal et al.) spends what it
/// expects to harvest, corrected toward a target state of charge. The
/// power budget for the next slot is
///
/// ```text
/// budget = predicted_harvest + gain · (soc − target_soc) · capacity / slot
/// ```
///
/// and the duty cycle is whatever makes the load's average power equal
/// the budget (clamped to `[0, 1]`). With an accurate predictor this
/// keeps the store hovering at the target while consuming every
/// harvested joule — which is exactly why prediction accuracy matters
/// for management (paper §I).
#[derive(Clone, Debug, PartialEq)]
pub enum ManagerSpec {
    /// Prediction-driven energy-neutral control.
    EnergyNeutral {
        /// Target state of charge in `[0, 1]`.
        target_soc: f64,
        /// Proportional correction gain per slot.
        gain: f64,
    },
    /// Run flat out (no management).
    Greedy,
    /// Constant duty cycle.
    FixedDuty {
        /// Duty in `[0, 1]`.
        duty: f64,
    },
}

impl ManagerSpec {
    /// Short stable label for reports and JSON.
    pub fn label(&self) -> String {
        match *self {
            ManagerSpec::EnergyNeutral { target_soc, gain } => {
                format!("neutral(soc={target_soc},g={gain})")
            }
            ManagerSpec::Greedy => "greedy".to_string(),
            ManagerSpec::FixedDuty { duty } => format!("fixed(d={duty})"),
        }
    }

    /// Validates parameter ranges, so a bad spec fails at matrix
    /// assembly instead of panicking inside a fleet worker.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ManagerSpec::EnergyNeutral { target_soc, gain } => {
                if !(target_soc.is_finite() && (0.0..=1.0).contains(&target_soc)) {
                    return Err(format!(
                        "energy-neutral target_soc {target_soc} not in [0, 1]"
                    ));
                }
                if !(gain.is_finite() && gain >= 0.0) {
                    return Err(format!("energy-neutral gain {gain} must be non-negative"));
                }
            }
            ManagerSpec::Greedy => {}
            ManagerSpec::FixedDuty { duty } => {
                if !(duty.is_finite() && (0.0..=1.0).contains(&duty)) {
                    return Err(format!("fixed duty {duty} not in [0, 1]"));
                }
            }
        }
        Ok(())
    }

    /// A fresh manager: the spec itself, boxed — every policy is
    /// stateless, so the spec is the manager.
    ///
    /// # Panics
    ///
    /// A fixed duty outside `[0, 1]` fails the simulation at its first
    /// plan; call [`ManagerSpec::validate`] first (the fleet matrix
    /// does).
    pub fn build(&self) -> Box<dyn PowerManager> {
        Box::new(self.clone())
    }

    /// The default policy set: tuned energy-neutral plus both baselines.
    pub fn default_set() -> Vec<ManagerSpec> {
        vec![
            ManagerSpec::EnergyNeutral {
                target_soc: 0.5,
                gain: 0.25,
            },
            ManagerSpec::Greedy,
            ManagerSpec::FixedDuty { duty: 0.3 },
        ]
    }
}

impl PowerManager for ManagerSpec {
    fn plan_duty(&mut self, ctx: &SlotContext) -> f64 {
        match *self {
            ManagerSpec::EnergyNeutral { target_soc, gain } => {
                energy_neutral_duty(target_soc, gain, ctx)
            }
            ManagerSpec::Greedy => 1.0,
            ManagerSpec::FixedDuty { duty } => duty,
        }
    }

    fn name(&self) -> &str {
        match self {
            ManagerSpec::EnergyNeutral { .. } => "energy-neutral",
            ManagerSpec::Greedy => "greedy",
            ManagerSpec::FixedDuty { .. } => "fixed-duty",
        }
    }
}

/// The energy-neutral duty as a pure value function of `ctx`: the one
/// copy of the rule, which [`PowerManager::plan_duty`] and every
/// energy-neutral lane of a [`NodeLanes`](crate::NodeLanes) call.
///
/// The clamp to `[0, 1]` passes `-0.0` and NaN through, as
/// [`f64::clamp`] does, but is written as two compares: with
/// `f64::clamp` a one-lane block took 53 ns per job-slot instead of 24
/// (2-core x86-64, `target-cpu=native`).
#[inline]
#[allow(clippy::manual_clamp)]
pub(crate) fn energy_neutral_duty(target_soc: f64, gain: f64, ctx: &SlotContext) -> f64 {
    let soc = ctx.storage_level_j / ctx.storage_capacity_j;
    let correction_w = gain * (soc - target_soc) * ctx.storage_capacity_j / ctx.slot_seconds;
    let budget_w = (ctx.predicted_harvest_w + correction_w).max(0.0);
    let duty = (budget_w - ctx.load_sleep_w) / (ctx.load_active_w - ctx.load_sleep_w);
    if duty < 0.0 {
        0.0
    } else if duty > 1.0 {
        1.0
    } else {
        duty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(predicted_w: f64, level: f64) -> SlotContext {
        SlotContext {
            predicted_harvest_w: predicted_w,
            storage_level_j: level,
            storage_capacity_j: 200.0,
            slot_seconds: 1800.0,
            load_active_w: 0.05,
            load_sleep_w: 0.001,
        }
    }

    #[test]
    fn energy_neutral_spends_prediction() {
        let mut m = ManagerSpec::EnergyNeutral {
            target_soc: 0.5,
            gain: 0.0,
        };
        // Prediction exactly equals active power -> full duty.
        let duty = m.plan_duty(&ctx(0.05, 100.0));
        assert!((duty - 1.0).abs() < 1e-9);
        // No harvest, no correction -> minimum duty.
        let duty = m.plan_duty(&ctx(0.0, 100.0));
        assert_eq!(duty, 0.0);
    }

    #[test]
    fn correction_raises_duty_when_storage_is_high() {
        let mut m = ManagerSpec::EnergyNeutral {
            target_soc: 0.5,
            gain: 0.25,
        };
        let low = m.plan_duty(&ctx(0.02, 20.0)); // soc 0.1, below target
        let high = m.plan_duty(&ctx(0.02, 180.0)); // soc 0.9, above target
        assert!(high > low, "high-soc duty {high} vs low-soc duty {low}");
    }

    #[test]
    fn baselines_behave() {
        let mut g = ManagerSpec::Greedy;
        assert_eq!(g.plan_duty(&ctx(0.0, 0.0)), 1.0);
        assert_eq!(g.name(), "greedy");
        let mut f = ManagerSpec::FixedDuty { duty: 0.3 };
        assert_eq!(f.plan_duty(&ctx(10.0, 200.0)), 0.3);
        assert_eq!(f.name(), "fixed-duty");
    }

    #[test]
    fn managers_are_object_safe() {
        let mut policies: Vec<Box<dyn PowerManager>> = ManagerSpec::default_set()
            .iter()
            .map(ManagerSpec::build)
            .collect();
        for p in &mut policies {
            let d = p.plan_duty(&ctx(0.01, 100.0));
            assert!((0.0..=1.0).contains(&d), "{}: {d}", p.name());
        }
    }
}
