//! Property tests for the synthetic-irradiance substrate.

use proptest::prelude::*;
use solar_synth::{geometry, ClearSkyModel, Site, TraceGenerator};

/// Sine of solar elevation for a site latitude (degrees), day of year and
/// local solar time in hours, composed per sample.
fn sin_elevation_at(latitude_deg: f64, day_of_year: u32, solar_time_hours: f64) -> f64 {
    geometry::sin_elevation(
        latitude_deg.to_radians(),
        geometry::declination_rad(day_of_year),
        geometry::hour_angle_rad(solar_time_hours),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The hoisted day-constant geometry (`DayGeometry` + the hour-angle
    /// cosine grid) reproduces the composed per-sample
    /// `sin_elevation_at` **bit-for-bit** for any latitude, day of year
    /// and slot spacing — the contract that lets the generator compute
    /// four transcendentals per day instead of per sample without
    /// moving a single trace bit.
    #[test]
    fn day_constant_geometry_is_bit_identical_to_direct_elevation(
        latitude_deg in -90.0f64..90.0,
        day_of_year in 1u32..=366,
        spd_idx in 0usize..5,
    ) {
        let samples_per_day = [24usize, 48, 96, 288, 1440][spd_idx];
        let day = geometry::DayGeometry::new(latitude_deg, day_of_year);
        let step_hours = 24.0 / samples_per_day as f64;
        let grid = geometry::hour_cosine_grid(samples_per_day, step_hours);
        prop_assert_eq!(grid.len(), samples_per_day);
        for (idx, &cos_omega) in grid.iter().enumerate() {
            let t_h = idx as f64 * step_hours;
            let direct = sin_elevation_at(latitude_deg, day_of_year, t_h);
            let hoisted = day.sin_elevation(cos_omega);
            prop_assert_eq!(
                direct.to_bits(),
                hoisted.to_bits(),
                "lat {} doy {} sample {}: {} vs {}",
                latitude_deg, day_of_year, idx, direct, hoisted
            );
        }
        prop_assert_eq!(
            day.extraterrestrial_normal.to_bits(),
            geometry::extraterrestrial_normal(day_of_year).to_bits()
        );
        prop_assert_eq!(
            day.declination_rad.to_bits(),
            geometry::declination_rad(day_of_year).to_bits()
        );
    }

    #[test]
    fn traces_are_physical(site_idx in 0usize..6, seed in 0u64..1000, days in 1usize..10) {
        let site = Site::ALL[site_idx];
        let trace = TraceGenerator::new(site.config(), seed)
            .generate_days(days)
            .unwrap();
        prop_assert_eq!(trace.days(), days);
        // Non-negative and bounded by a generous clear-sky ceiling.
        for &v in trace.samples() {
            prop_assert!(v >= 0.0);
            prop_assert!(v < 1400.0, "sample {v} exceeds physical GHI");
        }
        // Midnight is dark on every day.
        for d in 0..days {
            prop_assert_eq!(trace.day(d).unwrap()[0], 0.0);
        }
    }

    #[test]
    fn determinism_holds_for_any_seed(site_idx in 0usize..6, seed in 0u64..1000) {
        let site = Site::ALL[site_idx];
        let a = TraceGenerator::new(site.config(), seed).generate_days(2).unwrap();
        let b = TraceGenerator::new(site.config(), seed).generate_days(2).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn longer_generation_extends_shorter(seed in 0u64..200) {
        // The first day of a 3-day trace equals the single-day trace:
        // generation is a prefix-stable stream per (site, seed)?  It is
        // not guaranteed by construction (per-day draws interleave with
        // per-sample draws), so assert the weaker but important property:
        // equal lengths of the common prefix structure — day count and
        // darkness pattern agree.
        let site = Site::Pfci;
        let short = TraceGenerator::new(site.config(), seed).generate_days(1).unwrap();
        let long = TraceGenerator::new(site.config(), seed).generate_days(3).unwrap();
        prop_assert_eq!(short.day(0).unwrap(), long.day(0).unwrap());
    }

    #[test]
    fn elevation_bounds(lat in -60.0f64..60.0, doy in 1u32..=365, hour in 0.0f64..24.0) {
        let s = sin_elevation_at(lat, doy, hour);
        prop_assert!((-1.0..=1.0).contains(&s));
    }

    #[test]
    fn clear_sky_bounded_by_extraterrestrial(doy in 1u32..=365, sin_h in 0.0f64..=1.0) {
        let g_on = geometry::extraterrestrial_normal(doy);
        for model in [ClearSkyModel::Haurwitz, ClearSkyModel::KastenCzeplak] {
            let ghi = model.ghi(sin_h);
            prop_assert!(ghi >= 0.0);
            prop_assert!(ghi <= g_on, "{model}: {ghi} vs extraterrestrial {g_on}");
        }
    }

    #[test]
    fn day_length_complements_across_equator(lat in 0.0f64..65.0, doy in 1u32..=365) {
        // Northern day + southern day at the same date ≈ 24 h (up to the
        // clamped polar cases).
        let north = geometry::day_length_hours(lat, doy);
        let south = geometry::day_length_hours(-lat, doy);
        prop_assert!((north + south - 24.0).abs() < 0.05, "{north} + {south}");
    }
}
