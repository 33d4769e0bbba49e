//! Capacity-limited energy storage with conversion losses and leakage.

use crate::error::SimError;

/// Result of offering energy to the store.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct ChargeOutcome {
    /// Energy actually added to the store (after efficiency and capacity).
    pub stored_j: f64,
    /// Energy lost to conversion or overflow.
    pub wasted_j: f64,
}

/// A supercapacitor/battery model: finite capacity, charge/discharge
/// efficiencies, constant leakage power.
///
/// Invariants (property-tested): `0 ≤ level ≤ capacity` always.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use harvest_sim::EnergyStorage;
///
/// let mut store = EnergyStorage::new(100.0, 50.0)?;
/// let outcome = store.charge(10.0);
/// assert!(outcome.stored_j > 0.0);
/// let delivered = store.discharge(5.0);
/// assert!((delivered - 5.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct EnergyStorage {
    capacity_j: f64,
    level_j: f64,
    charge_efficiency: f64,
    discharge_efficiency: f64,
    leakage_w: f64,
}

impl EnergyStorage {
    /// Creates an ideal store (100% efficiencies, no leakage) with the
    /// given capacity and initial level.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidStorage`] if the capacity is not
    /// positive or the initial level is outside `[0, capacity]`.
    pub fn new(capacity_j: f64, initial_j: f64) -> Result<Self, SimError> {
        Self::with_losses(capacity_j, initial_j, 1.0, 1.0, 0.0)
    }

    /// Creates a store with explicit loss parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidStorage`] if any parameter is out of
    /// range (efficiencies must be in `(0, 1]`, leakage non-negative).
    pub fn with_losses(
        capacity_j: f64,
        initial_j: f64,
        charge_efficiency: f64,
        discharge_efficiency: f64,
        leakage_w: f64,
    ) -> Result<Self, SimError> {
        if !(capacity_j.is_finite() && capacity_j > 0.0) {
            return Err(SimError::InvalidStorage {
                message: format!("capacity {capacity_j} must be positive"),
            });
        }
        if !(initial_j.is_finite() && (0.0..=capacity_j).contains(&initial_j)) {
            return Err(SimError::InvalidStorage {
                message: format!("initial level {initial_j} must be in [0, {capacity_j}]"),
            });
        }
        for (name, eff) in [
            ("charge efficiency", charge_efficiency),
            ("discharge efficiency", discharge_efficiency),
        ] {
            if !(eff.is_finite() && 0.0 < eff && eff <= 1.0) {
                return Err(SimError::InvalidStorage {
                    message: format!("{name} {eff} must be in (0, 1]"),
                });
            }
        }
        if !(leakage_w.is_finite() && leakage_w >= 0.0) {
            return Err(SimError::InvalidStorage {
                message: format!("leakage {leakage_w} must be non-negative"),
            });
        }
        Ok(EnergyStorage {
            capacity_j,
            level_j: initial_j,
            charge_efficiency,
            discharge_efficiency,
            leakage_w,
        })
    }

    /// Current stored energy in joules.
    #[inline]
    pub fn level_j(&self) -> f64 {
        self.level_j
    }

    /// Capacity in joules.
    pub fn capacity_j(&self) -> f64 {
        self.capacity_j
    }

    /// State of charge in `[0, 1]`.
    pub fn soc(&self) -> f64 {
        self.level_j / self.capacity_j
    }

    /// Leakage power in watts.
    pub fn leakage_w(&self) -> f64 {
        self.leakage_w
    }

    /// Offers `energy_j` of harvested energy; returns how much was stored
    /// and how much was lost (conversion loss plus overflow).
    #[inline]
    pub fn charge(&mut self, energy_j: f64) -> ChargeOutcome {
        let (level_j, outcome) = self.charged(self.level_j, energy_j);
        self.level_j = level_j;
        outcome
    }

    /// Requests `energy_j` for the load; returns the energy actually
    /// delivered (≤ requested), draining the store by
    /// `delivered / discharge_efficiency`.
    #[inline]
    pub fn discharge(&mut self, energy_j: f64) -> f64 {
        let (level_j, delivered) = self.discharged(self.level_j, energy_j);
        self.level_j = level_j;
        delivered
    }

    // The three storage steps as value functions of a level, with this
    // store supplying only its parameters: the one copy of the storage
    // arithmetic, shared by the methods above, `NodeSimulation` and the
    // lanes of `NodeLanes`. Each is branch-light and pure, so a loop of
    // lanes if-converts and vectorizes.

    /// [`EnergyStorage::charge`] from `level_j`: the new level and the
    /// outcome.
    #[inline]
    pub(crate) fn charged(&self, level_j: f64, energy_j: f64) -> (f64, ChargeOutcome) {
        let energy_j = energy_j.max(0.0);
        let convertible = energy_j * self.charge_efficiency;
        // `room` is clamped at zero: filling to capacity can land one ulp
        // above it, and a negative room must never turn into a negative
        // store.
        let room = (self.capacity_j - level_j).max(0.0);
        let stored = convertible.min(room);
        let outcome = ChargeOutcome {
            stored_j: stored,
            wasted_j: energy_j - stored,
        };
        ((level_j + stored).min(self.capacity_j), outcome)
    }

    /// [`EnergyStorage::discharge`] from `level_j`: the new level and
    /// the energy delivered.
    #[inline]
    pub(crate) fn discharged(&self, level_j: f64, energy_j: f64) -> (f64, f64) {
        let energy_j = energy_j.max(0.0);
        let need = energy_j / self.discharge_efficiency;
        if level_j >= need {
            (level_j - need, energy_j)
        } else {
            (0.0, level_j * self.discharge_efficiency)
        }
    }

    /// Leakage over `dt_s` seconds from `level_j`: the new level and
    /// the energy leaked.
    #[inline]
    pub(crate) fn leaked(&self, level_j: f64, dt_s: f64) -> (f64, f64) {
        let loss = (self.leakage_w * dt_s).min(level_j);
        (level_j - loss, loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(EnergyStorage::new(0.0, 0.0).is_err());
        assert!(EnergyStorage::new(10.0, 11.0).is_err());
        assert!(EnergyStorage::new(10.0, -1.0).is_err());
        assert!(EnergyStorage::with_losses(10.0, 5.0, 0.0, 1.0, 0.0).is_err());
        assert!(EnergyStorage::with_losses(10.0, 5.0, 1.0, 1.1, 0.0).is_err());
        assert!(EnergyStorage::with_losses(10.0, 5.0, 1.0, 1.0, -0.1).is_err());
    }

    #[test]
    fn charge_respects_capacity() {
        let mut s = EnergyStorage::new(100.0, 95.0).unwrap();
        let out = s.charge(20.0);
        assert_eq!(out.stored_j, 5.0);
        assert_eq!(out.wasted_j, 15.0);
        assert_eq!(s.level_j(), 100.0);
    }

    #[test]
    fn charge_applies_efficiency() {
        let mut s = EnergyStorage::with_losses(100.0, 0.0, 0.8, 1.0, 0.0).unwrap();
        let out = s.charge(10.0);
        assert!((out.stored_j - 8.0).abs() < 1e-12);
        assert!((out.wasted_j - 2.0).abs() < 1e-12);
    }

    #[test]
    fn discharge_partial_when_depleted() {
        let mut s = EnergyStorage::new(100.0, 3.0).unwrap();
        let delivered = s.discharge(10.0);
        assert!((delivered - 3.0).abs() < 1e-12);
        assert_eq!(s.level_j(), 0.0);
    }

    #[test]
    fn discharge_applies_efficiency() {
        let mut s = EnergyStorage::with_losses(100.0, 50.0, 1.0, 0.5, 0.0).unwrap();
        let delivered = s.discharge(10.0);
        assert!((delivered - 10.0).abs() < 1e-12);
        // Store drained by 20 J to deliver 10 J.
        assert!((s.level_j() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn leak_is_bounded_by_level() {
        let s = EnergyStorage::with_losses(100.0, 1.0, 1.0, 1.0, 1.0).unwrap();
        let (level_j, leaked) = s.leaked(s.level_j(), 10.0);
        assert!((leaked - 1.0).abs() < 1e-12);
        assert_eq!(level_j, 0.0);
    }

    #[test]
    fn soc_tracks_level() {
        let s = EnergyStorage::new(200.0, 50.0).unwrap();
        assert!((s.soc() - 0.25).abs() < 1e-12);
        assert_eq!(s.capacity_j(), 200.0);
        assert_eq!(s.leakage_w(), 0.0);
    }

    #[test]
    fn negative_requests_are_clamped() {
        let mut s = EnergyStorage::new(100.0, 50.0).unwrap();
        assert_eq!(s.charge(-5.0).stored_j, 0.0);
        assert_eq!(s.discharge(-5.0), 0.0);
        assert_eq!(s.level_j(), 50.0);
    }
}
