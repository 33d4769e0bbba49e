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
/// benchmarked side by side (`Vec<Box<dyn Predictor>>`). Every
/// predictor in this crate is also `Clone`, and a clone taken at a day
/// boundary is the predictor half of a resume checkpoint: fed the
/// remaining slots, it predicts exactly what the original does.
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
