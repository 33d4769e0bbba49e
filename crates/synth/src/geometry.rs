//! Solar position geometry.
//!
//! Standard textbook formulations (Duffie & Beckman) for declination,
//! hour angle and solar elevation, which together give the deterministic
//! diurnal/seasonal envelope of surface irradiance.

/// Solar constant in W/m².
pub const SOLAR_CONSTANT: f64 = 1367.0;

/// Solar declination in radians for a 1-based day of year (Cooper's
/// equation): `δ = 23.45° · sin(2π (284 + n) / 365)`.
///
/// # Example
///
/// ```
/// use solar_synth::geometry::declination_rad;
///
/// // Summer solstice (~day 172) is near +23.45°.
/// let summer = declination_rad(172).to_degrees();
/// assert!((summer - 23.45).abs() < 0.1);
/// ```
pub fn declination_rad(day_of_year: u32) -> f64 {
    let n = day_of_year as f64;
    23.45_f64.to_radians() * (std::f64::consts::TAU * (284.0 + n) / 365.0).sin()
}

/// Hour angle in radians for a local solar time in hours: 15° per hour
/// from solar noon, negative in the morning.
pub fn hour_angle_rad(solar_time_hours: f64) -> f64 {
    (15.0 * (solar_time_hours - 12.0)).to_radians()
}

/// Sine of the solar elevation angle:
/// `sin h = sin φ sin δ + cos φ cos δ cos ω`.
///
/// Returns a value in `[-1, 1]`; non-positive values mean the sun is at or
/// below the horizon.
pub fn sin_elevation(latitude_rad: f64, declination_rad: f64, hour_angle_rad: f64) -> f64 {
    latitude_rad.sin() * declination_rad.sin()
        + latitude_rad.cos() * declination_rad.cos() * hour_angle_rad.cos()
}

/// Extraterrestrial normal irradiance in W/m², accounting for the
/// Earth–Sun distance variation:
/// `G_on = G_sc (1 + 0.033 cos(2π n / 365))`.
pub fn extraterrestrial_normal(day_of_year: u32) -> f64 {
    SOLAR_CONSTANT * (1.0 + 0.033 * (std::f64::consts::TAU * day_of_year as f64 / 365.0).cos())
}

/// The day-invariant solar constants of one (latitude, day-of-year)
/// pair, hoisted out of per-slot loops.
///
/// Composed per sample, [`sin_elevation`] of a latitude, a day's
/// [`declination_rad`] and a time's [`hour_angle_rad`] spends four
/// transcendental calls per sample on
/// quantities that only change once per day (declination, `sin φ sin δ`,
/// `cos φ cos δ`) plus one on the hour angle, whose cosine grid depends
/// only on the slot spacing. Generators compute a `DayGeometry` once per
/// day and a cosine grid once per stream instead; the factored products
/// keep the exact multiplication order of [`sin_elevation`], so
/// [`DayGeometry::sin_elevation`] is **bit-identical** to the composed
/// per-sample path (property-tested across latitudes and days).
///
/// # Example
///
/// ```
/// use solar_synth::geometry::{declination_rad, hour_angle_rad, sin_elevation, DayGeometry};
///
/// let day = DayGeometry::new(40.0, 172);
/// let direct = sin_elevation(40f64.to_radians(), declination_rad(172), hour_angle_rad(9.5));
/// let hoisted = day.sin_elevation(hour_angle_rad(9.5).cos());
/// assert_eq!(direct.to_bits(), hoisted.to_bits());
/// ```
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct DayGeometry {
    /// Solar declination δ in radians (Cooper's equation).
    pub declination_rad: f64,
    /// `sin φ · sin δ`.
    pub sin_phi_sin_delta: f64,
    /// `cos φ · cos δ`.
    pub cos_phi_cos_delta: f64,
    /// Extraterrestrial normal irradiance `G_on` in W/m² — also
    /// day-invariant, carried for irradiance models that reference
    /// `G_on` (the built-in [`ClearSkyModel`](crate::ClearSkyModel)
    /// variants do not, so the generator's slot loop never reads it).
    pub extraterrestrial_normal: f64,
}

impl DayGeometry {
    /// Computes the constants for a site latitude (degrees) and 1-based
    /// day of year.
    pub fn new(latitude_deg: f64, day_of_year: u32) -> Self {
        let phi = latitude_deg.to_radians();
        let delta = declination_rad(day_of_year);
        DayGeometry {
            declination_rad: delta,
            sin_phi_sin_delta: phi.sin() * delta.sin(),
            cos_phi_cos_delta: phi.cos() * delta.cos(),
            extraterrestrial_normal: extraterrestrial_normal(day_of_year),
        }
    }

    /// Sine of the solar elevation for a precomputed `cos ω`:
    /// `sin h = sin φ sin δ + (cos φ cos δ) · cos ω` — the same
    /// left-associated product chain as [`sin_elevation`], so results
    /// are bit-identical.
    pub fn sin_elevation(&self, cos_hour_angle: f64) -> f64 {
        self.sin_phi_sin_delta + self.cos_phi_cos_delta * cos_hour_angle
    }
}

/// The `cos ω` grid of a uniform slot spacing: entry `i` is
/// `cos(hour_angle(i · step_hours))`, exactly the cosine
/// [`sin_elevation`] takes of [`hour_angle_rad`] for the sample at
/// `i · step_hours` local solar time. Depends only on the discretization, so one grid
/// serves every day of a stream.
pub fn hour_cosine_grid(samples_per_day: usize, step_hours: f64) -> Vec<f64> {
    (0..samples_per_day)
        .map(|idx| hour_angle_rad(idx as f64 * step_hours).cos())
        .collect()
}

/// Day length in hours for a latitude (degrees) and day of year, from the
/// sunset hour angle `cos ω_s = −tan φ tan δ`.
///
/// Polar day/night are clamped to 24 h / 0 h.
pub fn day_length_hours(latitude_deg: f64, day_of_year: u32) -> f64 {
    let phi = latitude_deg.to_radians();
    let delta = declination_rad(day_of_year);
    let cos_ws = -phi.tan() * delta.tan();
    if cos_ws <= -1.0 {
        24.0
    } else if cos_ws >= 1.0 {
        0.0
    } else {
        2.0 * cos_ws.acos().to_degrees() / 15.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sine of solar elevation for a site latitude (degrees), day of
    /// year and local solar time in hours: the composed per-sample path
    /// that [`DayGeometry`] hoists.
    fn sin_elevation_at(latitude_deg: f64, day_of_year: u32, solar_time_hours: f64) -> f64 {
        sin_elevation(
            latitude_deg.to_radians(),
            declination_rad(day_of_year),
            hour_angle_rad(solar_time_hours),
        )
    }

    #[test]
    fn declination_is_bounded() {
        for day in 1..=365 {
            let d = declination_rad(day).to_degrees();
            assert!(d.abs() <= 23.45 + 1e-9, "day {day}: {d}");
        }
    }

    #[test]
    fn declination_extremes_at_solstices() {
        // Winter solstice ~day 355, summer ~day 172.
        assert!(declination_rad(355).to_degrees() < -23.0);
        assert!(declination_rad(172).to_degrees() > 23.0);
        // Equinoxes near zero.
        assert!(declination_rad(81).to_degrees().abs() < 1.0);
    }

    #[test]
    fn hour_angle_sign_convention() {
        assert!(hour_angle_rad(6.0) < 0.0);
        assert_eq!(hour_angle_rad(12.0), 0.0);
        assert!(hour_angle_rad(18.0) > 0.0);
    }

    #[test]
    fn noon_elevation_matches_latitude_declination() {
        // At solar noon, elevation = 90° − |φ − δ|.
        let lat = 40.0_f64;
        for day in [1u32, 100, 200, 300] {
            let sin_h = sin_elevation_at(lat, day, 12.0);
            let expect = (90.0 - (lat - declination_rad(day).to_degrees()).abs()).to_radians();
            assert!((sin_h - expect.sin()).abs() < 1e-9, "day {day}");
        }
    }

    #[test]
    fn sun_below_horizon_at_midnight_midlatitudes() {
        for day in [1u32, 90, 180, 270] {
            assert!(sin_elevation_at(38.0, day, 0.0) < 0.0, "day {day}");
        }
    }

    #[test]
    fn extraterrestrial_within_3_3_percent() {
        for day in 1..=365 {
            let g = extraterrestrial_normal(day);
            assert!(g > SOLAR_CONSTANT * 0.966 && g < SOLAR_CONSTANT * 1.034);
        }
    }

    #[test]
    fn day_length_longer_in_summer_northern_hemisphere() {
        let summer = day_length_hours(40.0, 172);
        let winter = day_length_hours(40.0, 355);
        assert!(summer > 14.0, "summer {summer}");
        assert!(winter < 10.0, "winter {winter}");
        // Equator is always close to 12 h.
        assert!((day_length_hours(0.0, 100) - 12.0).abs() < 0.2);
    }

    #[test]
    fn polar_clamps() {
        assert_eq!(day_length_hours(80.0, 172), 24.0);
        assert_eq!(day_length_hours(80.0, 355), 0.0);
    }
}
