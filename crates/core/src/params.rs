//! WCMA parameters (α, D, K) with the paper's exploration ranges.

use crate::error::ParamError;

/// How the Φ ratio window behaves at the start of a day, when fewer than
/// `K` slots of the current day have elapsed.
///
/// The paper defines `K` as "the number of slots considered before slot
/// (n+1) of the current day" without pinning the day-start corner case;
/// both sensible readings are provided and an ablation experiment shows
/// the choice is immaterial inside the region of interest (night slots
/// surround midnight).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum KWindowPolicy {
    /// Ratios for slots before the first slot of today come from the most
    /// recent stored day (the window wraps across midnight).
    #[default]
    WrapPreviousDay,
    /// Only elapsed slots of today enter the window; the θ weights are
    /// renormalized over the available ratios. With no elapsed slots,
    /// Φ = 1.
    ClampRenormalize,
}

/// Validated parameters of the WCMA predictor.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use solar_predict::WcmaParams;
///
/// let params = WcmaParams::new(0.7, 20, 3, 48)?;
/// assert_eq!(params.alpha(), 0.7);
/// assert_eq!(params.days(), 20);
/// assert_eq!(params.k(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct WcmaParams {
    alpha: f64,
    days: usize,
    k: usize,
    slots_per_day: usize,
    k_policy: KWindowPolicy,
}

impl WcmaParams {
    /// Creates parameters, validating every field.
    ///
    /// # Errors
    ///
    /// * [`ParamError::InvalidAlpha`] unless `0 ≤ α ≤ 1` and finite.
    /// * [`ParamError::InvalidDays`] unless `D ≥ 1`.
    /// * [`ParamError::InvalidSlots`] unless `N ≥ 2`.
    /// * [`ParamError::InvalidK`] unless `1 ≤ K < N`.
    pub fn new(
        alpha: f64,
        days: usize,
        k: usize,
        slots_per_day: usize,
    ) -> Result<Self, ParamError> {
        WcmaParamsBuilder::new()
            .alpha(alpha)
            .days(days)
            .k(k)
            .slots_per_day(slots_per_day)
            .build()
    }

    /// The persistence weighting α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The history depth D (past days).
    pub fn days(&self) -> usize {
        self.days
    }

    /// The conditioning window K (past slots of the current day).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Slots per day N.
    pub fn slots_per_day(&self) -> usize {
        self.slots_per_day
    }

    /// The day-start window policy.
    pub fn k_policy(&self) -> KWindowPolicy {
        self.k_policy
    }
}

/// Builder for [`WcmaParams`], defaulting to the paper's N=48 pseudo-
/// optimal guideline values (α = 0.7, D = 10, K = 2).
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use solar_predict::WcmaParamsBuilder;
///
/// let params = WcmaParamsBuilder::new().slots_per_day(48).build()?;
/// assert_eq!(params.alpha(), 0.7);
/// assert_eq!(params.days(), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Copy, Clone, Debug)]
pub struct WcmaParamsBuilder {
    alpha: f64,
    days: usize,
    k: usize,
    slots_per_day: usize,
    k_policy: KWindowPolicy,
}

impl WcmaParamsBuilder {
    /// Starts from the paper's guideline defaults (α = 0.7, D = 10,
    /// K = 2, N = 48).
    pub fn new() -> Self {
        WcmaParamsBuilder {
            alpha: 0.7,
            days: 10,
            k: 2,
            slots_per_day: 48,
            k_policy: KWindowPolicy::default(),
        }
    }

    /// Sets the persistence weighting α.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the history depth D.
    pub fn days(mut self, days: usize) -> Self {
        self.days = days;
        self
    }

    /// Sets the conditioning window K.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the slots per day N.
    pub fn slots_per_day(mut self, slots_per_day: usize) -> Self {
        self.slots_per_day = slots_per_day;
        self
    }

    /// Sets the day-start window policy.
    pub fn k_policy(mut self, policy: KWindowPolicy) -> Self {
        self.k_policy = policy;
        self
    }

    /// Validates and builds the parameters.
    ///
    /// # Errors
    ///
    /// Same conditions as [`WcmaParams::new`].
    pub fn build(self) -> Result<WcmaParams, ParamError> {
        if !self.alpha.is_finite() || !(0.0..=1.0).contains(&self.alpha) {
            return Err(ParamError::InvalidAlpha { alpha: self.alpha });
        }
        if self.days < 1 {
            return Err(ParamError::InvalidDays { days: self.days });
        }
        if self.slots_per_day < 2 {
            return Err(ParamError::InvalidSlots {
                slots_per_day: self.slots_per_day,
            });
        }
        if self.k < 1 || self.k >= self.slots_per_day {
            return Err(ParamError::InvalidK {
                k: self.k,
                slots_per_day: self.slots_per_day,
            });
        }
        Ok(WcmaParams {
            alpha: self.alpha,
            days: self.days,
            k: self.k,
            slots_per_day: self.slots_per_day,
            k_policy: self.k_policy,
        })
    }
}

impl Default for WcmaParamsBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_params_build() {
        let p = WcmaParams::new(0.5, 20, 6, 288).unwrap();
        assert_eq!(p.days(), 20);
        assert_eq!(p.k(), 6);
        assert_eq!(p.slots_per_day(), 288);
        assert_eq!(p.k_policy(), KWindowPolicy::WrapPreviousDay);
    }

    #[test]
    fn alpha_bounds_are_enforced() {
        assert!(WcmaParams::new(-0.01, 10, 1, 48).is_err());
        assert!(WcmaParams::new(1.01, 10, 1, 48).is_err());
        assert!(WcmaParams::new(f64::NAN, 10, 1, 48).is_err());
        assert!(WcmaParams::new(0.0, 10, 1, 48).is_ok());
        assert!(WcmaParams::new(1.0, 10, 1, 48).is_ok());
    }

    #[test]
    fn structural_bounds_are_enforced() {
        assert!(matches!(
            WcmaParams::new(0.5, 0, 1, 48),
            Err(ParamError::InvalidDays { .. })
        ));
        assert!(matches!(
            WcmaParams::new(0.5, 10, 0, 48),
            Err(ParamError::InvalidK { .. })
        ));
        assert!(matches!(
            WcmaParams::new(0.5, 10, 48, 48),
            Err(ParamError::InvalidK { .. })
        ));
        assert!(matches!(
            WcmaParams::new(0.5, 10, 1, 1),
            Err(ParamError::InvalidSlots { .. })
        ));
    }

    #[test]
    fn paper_grids_match_section_iv() {
        // §IV-A explores α ∈ {0.0, 0.1, …, 1.0}, D ∈ [2, 20], K ∈ [1, 6]
        // at 48 slots per day; every point of that grid must be valid.
        let alphas: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
        assert_eq!(alphas.len(), 11);
        assert_eq!((alphas[0], alphas[10]), (0.0, 1.0));
        let mut built = 0;
        for &alpha in &alphas {
            for days in 2..=20 {
                for k in 1..=6 {
                    let p = WcmaParams::new(alpha, days, k, 48).unwrap();
                    assert_eq!((p.alpha(), p.days(), p.k()), (alpha, days, k));
                    built += 1;
                }
            }
        }
        assert_eq!(built, 11 * 19 * 6);
    }

    #[test]
    fn builder_defaults_are_guidelines() {
        let p = WcmaParamsBuilder::default().build().unwrap();
        assert_eq!(p.alpha(), 0.7);
        assert_eq!(p.days(), 10);
        assert_eq!(p.k(), 2);
        assert_eq!(p.slots_per_day(), 48);
    }
}
