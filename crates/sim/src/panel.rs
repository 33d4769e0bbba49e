//! Photovoltaic panel model.

use crate::error::SimError;

/// A PV panel converting irradiance (W/m²) into electrical power, with a
/// fixed conversion efficiency folding in the power-conditioning stage of
/// the paper's Fig. 1.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use harvest_sim::SolarPanel;
///
/// // A 100 cm² panel at 15% efficiency under full sun (1000 W/m²).
/// let panel = SolarPanel::new(0.01, 0.15)?;
/// assert!((panel.power_w(1000.0) - 1.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SolarPanel {
    area_m2: f64,
    efficiency: f64,
}

impl SolarPanel {
    /// Creates a panel with `area_m2` square metres at `efficiency`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidPanel`] unless area is positive and
    /// efficiency is in `(0, 1]`.
    pub fn new(area_m2: f64, efficiency: f64) -> Result<Self, SimError> {
        if !(area_m2.is_finite() && area_m2 > 0.0) {
            return Err(SimError::InvalidPanel {
                message: format!("area {area_m2} must be positive"),
            });
        }
        if !(efficiency.is_finite() && 0.0 < efficiency && efficiency <= 1.0) {
            return Err(SimError::InvalidPanel {
                message: format!("efficiency {efficiency} must be in (0, 1]"),
            });
        }
        Ok(SolarPanel {
            area_m2,
            efficiency,
        })
    }

    /// Panel area in m².
    pub fn area_m2(&self) -> f64 {
        self.area_m2
    }

    /// Conversion efficiency.
    pub fn efficiency(&self) -> f64 {
        self.efficiency
    }

    /// Electrical power in watts for an irradiance in W/m².
    #[inline]
    pub fn power_w(&self, irradiance_w_m2: f64) -> f64 {
        irradiance_w_m2.max(0.0) * self.area_m2 * self.efficiency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_parameters() {
        assert!(SolarPanel::new(0.0, 0.2).is_err());
        assert!(SolarPanel::new(-1.0, 0.2).is_err());
        assert!(SolarPanel::new(0.01, 0.0).is_err());
        assert!(SolarPanel::new(0.01, 1.5).is_err());
    }

    #[test]
    fn power_is_linear_in_irradiance() {
        let p = SolarPanel::new(0.02, 0.1).unwrap();
        assert_eq!(p.power_w(500.0), 2.0 * p.power_w(250.0));
        assert_eq!(p.power_w(0.0), 0.0);
        assert_eq!(p.power_w(-10.0), 0.0);
    }

    #[test]
    fn accessors() {
        let p = SolarPanel::new(0.02, 0.1).unwrap();
        assert_eq!(p.area_m2(), 0.02);
        assert_eq!(p.efficiency(), 0.1);
    }
}
