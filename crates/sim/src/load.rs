//! The duty-cycled consumer.

use crate::error::SimError;

/// A duty-cycled load (e.g. a sensing + radio task): `active_w` while
/// working, `sleep_w` otherwise.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use harvest_sim::Load;
///
/// let load = Load::new(0.05, 0.001)?;
/// // At 40% duty the average draw blends active and sleep power.
/// let avg = load.power_w(0.4);
/// assert!((avg - (0.4 * 0.05 + 0.6 * 0.001)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Load {
    active_w: f64,
    sleep_w: f64,
}

impl Load {
    /// Creates a load drawing `active_w` at full duty and `sleep_w` when
    /// idle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidLoad`] unless
    /// `0 ≤ sleep_w < active_w` and both are finite.
    pub fn new(active_w: f64, sleep_w: f64) -> Result<Self, SimError> {
        if !(active_w.is_finite() && sleep_w.is_finite() && 0.0 <= sleep_w && sleep_w < active_w) {
            return Err(SimError::InvalidLoad {
                message: format!("need 0 <= sleep ({sleep_w}) < active ({active_w})"),
            });
        }
        Ok(Load { active_w, sleep_w })
    }

    /// Active-mode power in watts.
    pub fn active_w(&self) -> f64 {
        self.active_w
    }

    /// Sleep-mode power in watts.
    pub fn sleep_w(&self) -> f64 {
        self.sleep_w
    }

    /// Average power at a duty cycle in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `duty` is outside `[0, 1]`.
    pub fn power_w(&self, duty: f64) -> f64 {
        assert!((0.0..=1.0).contains(&duty), "duty {duty} out of [0, 1]");
        self.mean_power_w(duty)
    }

    /// [`Load::power_w`] without the range check, for callers that
    /// check their duties themselves (a machine when it plans one, the
    /// lanes once per day).
    #[inline]
    pub(crate) fn mean_power_w(&self, duty: f64) -> f64 {
        duty * self.active_w + (1.0 - duty) * self.sleep_w
    }

    /// Energy over a slot of `dt_s` seconds at a duty cycle.
    #[inline]
    pub fn energy_j(&self, duty: f64, dt_s: f64) -> f64 {
        self.power_w(duty) * dt_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_parameters() {
        assert!(Load::new(0.0, 0.0).is_err());
        assert!(Load::new(0.05, 0.05).is_err());
        assert!(Load::new(0.05, -0.01).is_err());
        assert!(Load::new(f64::NAN, 0.0).is_err());
    }

    #[test]
    fn power_interpolates_between_sleep_and_active() {
        let l = Load::new(0.1, 0.01).unwrap();
        assert_eq!(l.power_w(0.0), 0.01);
        assert_eq!(l.power_w(1.0), 0.1);
        assert!((l.power_w(0.5) - 0.055).abs() < 1e-12);
    }

    #[test]
    fn energy_scales_with_time() {
        let l = Load::new(0.1, 0.0).unwrap();
        assert!((l.energy_j(0.5, 1800.0) - 0.05 * 1800.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "duty")]
    fn power_rejects_bad_duty() {
        let l = Load::new(0.1, 0.01).unwrap();
        let _ = l.power_w(1.5);
    }
}
