//! Per-slot intervention points for fault injection.
//!
//! The simulation loop itself stays fault-agnostic: a [`SlotHook`] sees
//! each slot's harvested energy and measured boundary sample *before*
//! they enter accounting and prediction, and may rewrite them. Because
//! the energy ledger records the post-hook harvest, the conservation
//! identity of [`NodeReport`](crate::NodeReport) holds under any hook —
//! a fault can only change *what happened*, never make joules appear.

/// Observer/mutator called once per simulated slot.
pub trait SlotHook {
    /// Called at the top of slot `(day, slot)`.
    ///
    /// * `harvest_j` — the slot's harvested energy (already through the
    ///   panel), which the hook may reduce (dead panel, shading) or zero.
    /// * `measured` — the slot-boundary irradiance sample the predictor
    ///   will observe, which the hook may corrupt (sensor dropout, stuck
    ///   readings) independently of the physical harvest.
    fn on_slot(&mut self, day: usize, slot: usize, harvest_j: &mut f64, measured: &mut f64);
}

/// The do-nothing hook: a faultless run.
#[derive(Copy, Clone, Debug, Default)]
pub struct NoFaults;

impl SlotHook for NoFaults {
    fn on_slot(&mut self, _day: usize, _slot: usize, _harvest_j: &mut f64, _measured: &mut f64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hooks_are_object_safe() {
        struct Halver;
        impl SlotHook for Halver {
            fn on_slot(&mut self, _d: usize, _s: usize, h: &mut f64, _m: &mut f64) {
                *h *= 0.5;
            }
        }
        let mut hooks: Vec<Box<dyn SlotHook>> = vec![Box::new(NoFaults), Box::new(Halver)];
        let mut h = 10.0;
        let mut m = 500.0;
        for hook in &mut hooks {
            hook.on_slot(0, 0, &mut h, &mut m);
        }
        assert_eq!(h, 5.0);
        assert_eq!(m, 500.0);
    }
}
