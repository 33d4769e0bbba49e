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

/// The prediction-driven energy-neutral controller (after Kansal et al.):
/// spend what you expect to harvest, corrected toward a target state of
/// charge.
///
/// The power budget for the next slot is
///
/// ```text
/// budget = predicted_harvest + gain · (soc − target_soc) · capacity / slot
/// ```
///
/// and the duty cycle is whatever makes the load's average power equal
/// the budget (clamped to `[min_duty, max_duty]`). With an accurate
/// predictor this keeps the store hovering at the target while consuming
/// every harvested joule — which is exactly why prediction accuracy
/// matters for management (paper §I).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct EnergyNeutralManager {
    /// Lower duty bound (application's minimum service level).
    pub min_duty: f64,
    /// Upper duty bound.
    pub max_duty: f64,
    /// Target state of charge in `[0, 1]`.
    pub target_soc: f64,
    /// Proportional correction gain per slot.
    pub gain: f64,
}

impl Default for EnergyNeutralManager {
    fn default() -> Self {
        EnergyNeutralManager {
            min_duty: 0.0,
            max_duty: 1.0,
            target_soc: 0.5,
            gain: 0.25,
        }
    }
}

impl EnergyNeutralManager {
    /// The planned duty as a pure value function of `ctx`: the one copy
    /// of the rule, which [`PowerManager::plan_duty`] and every
    /// energy-neutral lane of a [`NodeLanes`](crate::NodeLanes) call.
    ///
    /// The clamp is [`f64::clamp`] without its bounds check (which
    /// [`PowerManager::plan_duty`] keeps), so a loop of lanes stays
    /// branch-free: `-0.0` and NaN pass through exactly as `clamp`
    /// passes them.
    #[inline]
    pub(crate) fn duty(&self, ctx: &SlotContext) -> f64 {
        let soc = ctx.storage_level_j / ctx.storage_capacity_j;
        let correction_w =
            self.gain * (soc - self.target_soc) * ctx.storage_capacity_j / ctx.slot_seconds;
        let budget_w = (ctx.predicted_harvest_w + correction_w).max(0.0);
        let duty = (budget_w - ctx.load_sleep_w) / (ctx.load_active_w - ctx.load_sleep_w);
        if duty < self.min_duty {
            self.min_duty
        } else if duty > self.max_duty {
            self.max_duty
        } else {
            duty
        }
    }

    /// Whether the duty bounds can clamp: `min_duty ≤ max_duty`, neither
    /// NaN — what [`f64::clamp`] asserts.
    pub(crate) fn bounds_are_ordered(&self) -> bool {
        self.min_duty <= self.max_duty
    }
}

impl PowerManager for EnergyNeutralManager {
    fn plan_duty(&mut self, ctx: &SlotContext) -> f64 {
        assert!(
            self.bounds_are_ordered(),
            "min_duty {} > max_duty {}, or either is NaN",
            self.min_duty,
            self.max_duty
        );
        self.duty(ctx)
    }

    fn name(&self) -> &str {
        "energy-neutral"
    }
}

/// Always runs at the maximum duty — the "no management" baseline that
/// browns out whenever storage runs dry.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct GreedyManager;

impl PowerManager for GreedyManager {
    fn plan_duty(&mut self, _ctx: &SlotContext) -> f64 {
        1.0
    }

    fn name(&self) -> &str {
        "greedy"
    }
}

/// A constant duty cycle — the static-provisioning baseline.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct FixedDutyManager {
    duty: f64,
}

impl FixedDutyManager {
    /// Creates a fixed-duty policy.
    ///
    /// # Panics
    ///
    /// Panics if `duty` is outside `[0, 1]`.
    pub fn new(duty: f64) -> Self {
        assert!((0.0..=1.0).contains(&duty), "duty {duty} out of [0, 1]");
        FixedDutyManager { duty }
    }
}

impl PowerManager for FixedDutyManager {
    fn plan_duty(&mut self, _ctx: &SlotContext) -> f64 {
        self.duty
    }

    fn name(&self) -> &str {
        "fixed-duty"
    }
}

/// A built-in manager as plain data: the rule one lane of a
/// [`NodeLanes`](crate::NodeLanes) plans with. As a [`PowerManager`] it
/// plans exactly as the manager it names.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum DutyRule {
    /// [`EnergyNeutralManager`].
    EnergyNeutral(EnergyNeutralManager),
    /// [`GreedyManager`].
    Greedy,
    /// [`FixedDutyManager`] at this duty.
    FixedDuty(f64),
}

impl PowerManager for DutyRule {
    fn plan_duty(&mut self, ctx: &SlotContext) -> f64 {
        match self {
            DutyRule::EnergyNeutral(manager) => manager.plan_duty(ctx),
            DutyRule::Greedy => GreedyManager.plan_duty(ctx),
            DutyRule::FixedDuty(duty) => FixedDutyManager::new(*duty).plan_duty(ctx),
        }
    }

    fn name(&self) -> &str {
        match self {
            DutyRule::EnergyNeutral(manager) => manager.name(),
            DutyRule::Greedy => GreedyManager.name(),
            DutyRule::FixedDuty(_) => "fixed-duty",
        }
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
        let mut m = EnergyNeutralManager {
            gain: 0.0,
            ..Default::default()
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
        let mut m = EnergyNeutralManager::default();
        let low = m.plan_duty(&ctx(0.02, 20.0)); // soc 0.1, below target
        let high = m.plan_duty(&ctx(0.02, 180.0)); // soc 0.9, above target
        assert!(high > low, "high-soc duty {high} vs low-soc duty {low}");
    }

    #[test]
    fn duty_respects_bounds() {
        let mut m = EnergyNeutralManager {
            min_duty: 0.1,
            max_duty: 0.8,
            ..Default::default()
        };
        assert!(m.plan_duty(&ctx(0.0, 0.0)) >= 0.1);
        assert!(m.plan_duty(&ctx(10.0, 200.0)) <= 0.8);
    }

    #[test]
    fn baselines_behave() {
        let mut g = GreedyManager;
        assert_eq!(g.plan_duty(&ctx(0.0, 0.0)), 1.0);
        assert_eq!(g.name(), "greedy");
        let mut f = FixedDutyManager::new(0.3);
        assert_eq!(f.plan_duty(&ctx(10.0, 200.0)), 0.3);
        assert_eq!(f.name(), "fixed-duty");
    }

    #[test]
    #[should_panic(expected = "duty")]
    fn fixed_duty_validates() {
        let _ = FixedDutyManager::new(1.5);
    }

    #[test]
    fn managers_are_object_safe() {
        let mut policies: Vec<Box<dyn PowerManager>> = vec![
            Box::new(EnergyNeutralManager::default()),
            Box::new(GreedyManager),
            Box::new(FixedDutyManager::new(0.5)),
        ];
        for p in &mut policies {
            let d = p.plan_duty(&ctx(0.01, 100.0));
            assert!((0.0..=1.0).contains(&d), "{}: {d}", p.name());
        }
    }
}
