//! The streaming predictor abstraction.

/// A streaming slot-power predictor.
///
/// A predictor is driven once per slot, in time order: at the start of
/// slot `n` the harvested-power sample `ẽ(n)` is measured and passed to
/// [`observe_and_predict`](Predictor::observe_and_predict), which returns
/// the prediction `ê(n+1)` for the next slot. Day boundaries are tracked
/// internally from the configured slots-per-day, exactly like a deployed
/// firmware loop driven by a sampling timer (the paper's Fig. 5).
///
/// The trait is object-safe so heterogeneous predictor sets can be
/// benchmarked side by side (`Vec<Box<dyn Predictor>>`).
pub trait Predictor {
    /// Records the measured slot-start power of the current slot and
    /// returns the prediction for the next slot.
    ///
    /// Implementations must accept any finite non-negative `measured`
    /// value and must return a finite value.
    fn observe_and_predict(&mut self, measured: f64) -> f64;

    /// The day discretization `N` this predictor is configured for.
    fn slots_per_day(&self) -> usize;

    /// Resets all internal state to the just-constructed condition.
    fn reset(&mut self);

    /// A short human-readable name for reports ("wcma", "ewma", …).
    fn name(&self) -> &str;

    /// A boxed deep copy of the predictor's current state — the
    /// predictor half of a day-boundary checkpoint, which the caller
    /// pairs with its own metrics and simulation state to resume a run
    /// without replaying the prefix. The default returns `None`
    /// so external implementations stay source-compatible and
    /// object-safe without opting in; every predictor in this crate
    /// returns `Some`. A checkpoint/resume flow that receives `None`
    /// must fall back to replaying from the start. The snapshot is
    /// `Send + Sync` so checkpoints can cross worker threads (the
    /// fleet engine captures them inside its parallel units).
    fn snapshot(&self) -> Option<Box<dyn Predictor + Send + Sync>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trait must remain object-safe.
    #[test]
    fn predictor_is_object_safe() {
        struct Echo;
        impl Predictor for Echo {
            fn observe_and_predict(&mut self, measured: f64) -> f64 {
                measured
            }
            fn slots_per_day(&self) -> usize {
                48
            }
            fn reset(&mut self) {}
            fn name(&self) -> &str {
                "echo"
            }
        }
        let mut boxed: Box<dyn Predictor> = Box::new(Echo);
        assert_eq!(boxed.observe_and_predict(3.0), 3.0);
        assert_eq!(boxed.slots_per_day(), 48);
        assert_eq!(boxed.name(), "echo");
    }
}
