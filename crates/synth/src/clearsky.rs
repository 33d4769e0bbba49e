//! Clear-sky global horizontal irradiance (GHI) models.
//!
//! These give the cloudless upper envelope that the stochastic
//! [`weather`](crate::weather) layer attenuates. Two classic low-parameter
//! models are provided; the generator default is Haurwitz, which is smooth
//! near the horizon and widely used as a clear-sky reference in solar
//! resource studies.

/// A clear-sky GHI model mapping solar elevation to irradiance.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum ClearSkyModel {
    /// Haurwitz (1945): `GHI = 1098 · sin h · exp(−0.057 / sin h)`.
    #[default]
    Haurwitz,
    /// Kasten–Czeplak (1980): `GHI = 910 · sin h − 30`, clamped at 0.
    KastenCzeplak,
}

impl ClearSkyModel {
    /// Clear-sky GHI in W/m² for a given sine of solar elevation.
    ///
    /// Returns `0.0` when the sun is at or below the horizon
    /// (`sin_elevation <= 0`).
    ///
    /// # Example
    ///
    /// ```
    /// use solar_synth::ClearSkyModel;
    ///
    /// let noonish = ClearSkyModel::Haurwitz.ghi(0.9);
    /// assert!(noonish > 800.0 && noonish < 1100.0);
    /// assert_eq!(ClearSkyModel::Haurwitz.ghi(-0.1), 0.0);
    /// ```
    pub fn ghi(self, sin_elevation: f64) -> f64 {
        if sin_elevation <= 0.0 {
            return 0.0;
        }
        match self {
            ClearSkyModel::Haurwitz => 1098.0 * sin_elevation * (-0.057 / sin_elevation).exp(),
            ClearSkyModel::KastenCzeplak => (910.0 * sin_elevation - 30.0).max(0.0),
        }
    }
}

impl std::fmt::Display for ClearSkyModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClearSkyModel::Haurwitz => write!(f, "Haurwitz"),
            ClearSkyModel::KastenCzeplak => write!(f, "Kasten-Czeplak"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_at_and_below_horizon() {
        for model in [ClearSkyModel::Haurwitz, ClearSkyModel::KastenCzeplak] {
            assert_eq!(model.ghi(0.0), 0.0);
            assert_eq!(model.ghi(-0.5), 0.0);
        }
    }

    #[test]
    fn monotone_in_elevation() {
        for model in [ClearSkyModel::Haurwitz, ClearSkyModel::KastenCzeplak] {
            let mut prev = 0.0;
            for i in 1..=100 {
                let s = i as f64 / 100.0;
                let g = model.ghi(s);
                assert!(g >= prev, "{model} not monotone at sin h = {s}");
                prev = g;
            }
        }
    }

    #[test]
    fn overhead_sun_magnitudes_are_physical() {
        // Both models should give ~1000 W/m² for overhead sun.
        let h = ClearSkyModel::Haurwitz.ghi(1.0);
        let k = ClearSkyModel::KastenCzeplak.ghi(1.0);
        assert!((900.0..1100.0).contains(&h), "haurwitz {h}");
        assert!((800.0..1000.0).contains(&k), "kasten {k}");
    }

    #[test]
    fn haurwitz_decays_smoothly_near_horizon() {
        // exp(−0.057/sin h) forces the value toward 0 faster than sin h.
        let low = ClearSkyModel::Haurwitz.ghi(0.01);
        assert!(low < 1098.0 * 0.01);
        assert!(low > 0.0);
    }
}
