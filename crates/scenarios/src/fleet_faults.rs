//! Correlated fleet-wide fault events with spatial falloff.
//!
//! The per-scenario [`FaultSpec`](crate::FaultSpec) machinery draws each
//! scenario's faults from that scenario's own seed, so two scenarios
//! never fail *together* — yet the deployments that motivate fleet
//! evaluation (Basha et al.'s multi-node networks) fail together all the
//! time: one regional storm darkens every node in the region on the same
//! days, one pollen season soils every panel at once.
//!
//! A [`FleetFault`] is an event declared on the **matrix**, realized
//! from **one shared event seed**, and projected into each affected
//! scenario's fault list as plain [`FaultSpec`]s before the engine runs.
//! Correlation therefore costs nothing downstream: caching, streaming,
//! sharding, and byte-determinism all see ordinary scenarios whose JSON
//! (and hence cache identity) already carries the projected faults.
//! Events themselves are built in code and have no JSON form: a matrix
//! takes them through [`FleetMatrix::with_fleet_faults`].
//!
//! [`FleetMatrix::with_fleet_faults`]: crate::FleetMatrix::with_fleet_faults
//!
//! # Spatial falloff
//!
//! Every event carries a [`SpatialFalloff`] region: an epicenter
//! latitude, a geodesic radius, and a [`FalloffProfile`] describing how
//! severity decays with distance. Sites in this workspace carry latitude
//! only, so the geodesic distance between a site and the epicenter
//! reduces to the meridian arc `|Δlat| · 111.195 km`. Severity is
//! monotonically non-increasing in distance and exactly zero beyond the
//! radius (pinned by tests); the legacy hard latitude band is the
//! special case [`SpatialFalloff::band`] — a [`FalloffProfile::Flat`]
//! profile whose radius spans half the band — and a flat profile with an
//! effectively infinite radius ([`SpatialFalloff::global`]) reproduces
//! the old fleet-wide projection.

use crate::catalog::Scenario;
use crate::faults::FaultSpec;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// How an event's severity decays with geodesic distance from its
/// epicenter (inside the radius; beyond it severity is exactly zero).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FalloffProfile {
    /// Full severity everywhere inside the radius — the hard-edged
    /// legacy latitude band expressed in the falloff model.
    Flat,
    /// Severity decays linearly from the epicenter to zero at the
    /// radius.
    Linear,
    /// A raised-cosine taper: near-full severity close to the
    /// epicenter, smooth zero at the radius.
    Cosine,
}

impl FalloffProfile {
    /// Weight at normalized distance `frac = d / radius` in `[0, 1]`.
    fn weight_at(self, frac: f64) -> f64 {
        match self {
            FalloffProfile::Flat => 1.0,
            FalloffProfile::Linear => 1.0 - frac,
            FalloffProfile::Cosine => 0.5 * (1.0 + (std::f64::consts::PI * frac).cos()),
        }
    }
}

/// Where an event sits and how far it reaches: epicenter latitude,
/// geodesic radius, and a severity falloff profile.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SpatialFalloff {
    /// Epicenter latitude in degrees (north positive), within ±90.
    pub epicenter_latitude_deg: f64,
    /// Geodesic reach in kilometres (severity is zero beyond it).
    pub radius_km: f64,
    /// How severity decays between the epicenter and the radius.
    pub profile: FalloffProfile,
}

impl SpatialFalloff {
    /// Mean meridian arc length of one degree of latitude.
    pub const KM_PER_LATITUDE_DEGREE: f64 = 111.195;

    /// A radius covering every latitude pair on the globe (strictly
    /// above the 180° pole-to-pole arc).
    pub const GLOBAL_RADIUS_KM: f64 = 181.0 * Self::KM_PER_LATITUDE_DEGREE;

    /// A region from explicit parts.
    pub fn new(epicenter_latitude_deg: f64, radius_km: f64, profile: FalloffProfile) -> Self {
        SpatialFalloff {
            epicenter_latitude_deg,
            radius_km,
            profile,
        }
    }

    /// The legacy hard latitude band `[min, max]` expressed in the
    /// falloff model: a flat profile centred on the band with a radius
    /// spanning half of it. Projection is identical to the pre-falloff
    /// band (full severity inside, zero outside, edges inclusive).
    ///
    /// The radius derives from the *rounded* epicenter (not
    /// `(max − min) / 2` directly), so a site at exactly `min` or `max`
    /// computes a distance ≤ radius even when the midpoint is not
    /// representable — rounding monotonicity keeps every in-band
    /// latitude inside. A degenerate band (`min == max`) keeps its
    /// legacy meaning of covering exactly that latitude via a minimal
    /// positive radius.
    ///
    /// This constructor is **order-insensitive**: the covered band is
    /// the one between the two edges whichever way they are passed
    /// (the half-span takes the larger edge deviation).
    pub fn band(min_deg: f64, max_deg: f64) -> Self {
        let epicenter_latitude_deg = (min_deg + max_deg) / 2.0;
        let half_span_deg = (max_deg - epicenter_latitude_deg)
            .abs()
            .max((min_deg - epicenter_latitude_deg).abs());
        SpatialFalloff {
            epicenter_latitude_deg,
            radius_km: (half_span_deg * Self::KM_PER_LATITUDE_DEGREE).max(f64::MIN_POSITIVE),
            profile: FalloffProfile::Flat,
        }
    }

    /// Full severity at every latitude — the legacy fleet-wide event.
    pub fn global() -> Self {
        SpatialFalloff::new(0.0, Self::GLOBAL_RADIUS_KM, FalloffProfile::Flat)
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.epicenter_latitude_deg.is_finite() && self.epicenter_latitude_deg.abs() <= 90.0) {
            return Err(format!(
                "epicenter latitude {} must be finite and within ±90°",
                self.epicenter_latitude_deg
            ));
        }
        if !(self.radius_km.is_finite() && self.radius_km > 0.0) {
            return Err(format!(
                "falloff radius {} km must be finite and positive",
                self.radius_km
            ));
        }
        Ok(())
    }

    /// Meridian geodesic distance from the epicenter to a site
    /// latitude.
    pub fn distance_km(&self, latitude_deg: f64) -> f64 {
        (latitude_deg - self.epicenter_latitude_deg).abs() * Self::KM_PER_LATITUDE_DEGREE
    }

    /// Severity weight in `[0, 1]` at a site latitude: the profile's
    /// taper inside the radius, exactly zero beyond it. Monotonically
    /// non-increasing in distance for every profile (pinned by tests).
    pub fn weight(&self, latitude_deg: f64) -> f64 {
        let distance = self.distance_km(latitude_deg);
        if distance > self.radius_km {
            return 0.0;
        }
        self.profile.weight_at(distance / self.radius_km).max(0.0)
    }
}

/// One correlated fleet-wide event.
#[derive(Clone, Debug, PartialEq)]
pub enum FleetFault {
    /// A synoptic storm system: every scenario inside the storm's
    /// [`SpatialFalloff`] region gets a [`FaultSpec::ClimateDimming`]
    /// span with the *same* onset (drawn once from the shared event
    /// seed) and a depth graded by distance from the epicenter.
    RegionalStorm {
        /// Earliest possible onset day (0-based).
        window_start_day: usize,
        /// Latest possible onset day (exclusive).
        window_end_day: usize,
        /// Storm length in days.
        duration_days: usize,
        /// Fraction of light removed at the epicenter (in `(0, 1)`);
        /// scenarios farther out get `depth · weight`.
        depth: f64,
        /// Where the storm sits and how severity decays with distance.
        region: SpatialFalloff,
    },
    /// A soiling season (dust/pollen): every scenario inside the plume
    /// gets a [`FaultSpec::PanelSoiling`] ramp with the same onset and
    /// a peak loss graded by distance from the source.
    SeasonalSoiling {
        /// Earliest possible onset day (0-based).
        window_start_day: usize,
        /// Latest possible onset day (exclusive).
        window_end_day: usize,
        /// Days over which the loss ramps to its peak.
        duration_days: usize,
        /// Peak harvest fraction lost at the epicenter, in `(0, 1]`;
        /// scenarios farther out get `max_loss · weight`.
        max_loss: f64,
        /// Where the plume sits ([`SpatialFalloff::global`] keeps the
        /// legacy fleet-wide behaviour).
        region: SpatialFalloff,
    },
}

impl FleetFault {
    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            FleetFault::RegionalStorm {
                window_start_day,
                window_end_day,
                duration_days,
                depth,
                ref region,
            } => {
                if window_end_day <= window_start_day {
                    return Err("regional_storm onset window must be non-empty".to_string());
                }
                if duration_days == 0 {
                    return Err("regional_storm duration_days must be at least 1".to_string());
                }
                if !(depth.is_finite() && 0.0 < depth && depth < 1.0) {
                    return Err(format!("regional_storm depth {depth} must be in (0, 1)"));
                }
                region
                    .validate()
                    .map_err(|e| format!("regional_storm: {e}"))?;
            }
            FleetFault::SeasonalSoiling {
                window_start_day,
                window_end_day,
                duration_days,
                max_loss,
                ref region,
            } => {
                if window_end_day <= window_start_day {
                    return Err("seasonal_soiling onset window must be non-empty".to_string());
                }
                if duration_days == 0 {
                    return Err("seasonal_soiling duration_days must be at least 1".to_string());
                }
                if !(max_loss.is_finite() && 0.0 < max_loss && max_loss <= 1.0) {
                    return Err(format!(
                        "seasonal_soiling max_loss {max_loss} must be in (0, 1]"
                    ));
                }
                region
                    .validate()
                    .map_err(|e| format!("seasonal_soiling: {e}"))?;
            }
        }
        Ok(())
    }

    /// The event's spatial region.
    pub fn region(&self) -> &SpatialFalloff {
        match self {
            FleetFault::RegionalStorm { region, .. }
            | FleetFault::SeasonalSoiling { region, .. } => region,
        }
    }

    /// The event's realized onset day for a given shared event seed —
    /// one draw per event, identical for every scenario it touches.
    pub fn onset_day(&self, event_seed: u64) -> usize {
        let (start, end) = match *self {
            FleetFault::RegionalStorm {
                window_start_day,
                window_end_day,
                ..
            }
            | FleetFault::SeasonalSoiling {
                window_start_day,
                window_end_day,
                ..
            } => (window_start_day, window_end_day),
        };
        let mut rng = ChaCha8Rng::seed_from_u64(event_seed);
        start + (rng.gen::<f64>() * (end - start) as f64) as usize
    }

    /// The event's severity at a site latitude: dimming depth for
    /// storms, peak soiling loss for soiling, each scaled by the
    /// region's distance weight — monotonically non-increasing in
    /// distance from the epicenter and zero beyond the radius.
    pub fn severity_at(&self, latitude_deg: f64) -> f64 {
        match *self {
            FleetFault::RegionalStorm {
                depth, ref region, ..
            } => depth * region.weight(latitude_deg),
            FleetFault::SeasonalSoiling {
                max_loss,
                ref region,
                ..
            } => max_loss * region.weight(latitude_deg),
        }
    }

    /// Projects the realized event into `scenario`'s fault list: the
    /// [`FaultSpec`]s to append — severity graded by the scenario's
    /// distance from the epicenter — or empty when the scenario sits
    /// beyond the radius or the onset falls past its horizon.
    ///
    /// # Errors
    ///
    /// Propagates site-configuration errors from the latitude lookup.
    pub fn project(&self, event_seed: u64, scenario: &Scenario) -> Result<Vec<FaultSpec>, String> {
        let latitude = scenario.site_config()?.latitude_deg;
        if self.region().weight(latitude) <= 0.0 {
            return Ok(Vec::new());
        }
        let onset = self.onset_day(event_seed);
        if onset >= scenario.days {
            return Ok(Vec::new());
        }
        let severity = self.severity_at(latitude);
        Ok(match *self {
            FleetFault::RegionalStorm { duration_days, .. } => vec![FaultSpec::ClimateDimming {
                start_day: onset,
                duration_days,
                factor: 1.0 - severity,
            }],
            FleetFault::SeasonalSoiling { duration_days, .. } => vec![FaultSpec::PanelSoiling {
                start_day: onset,
                duration_days,
                max_loss: severity,
            }],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;

    fn storm() -> FleetFault {
        FleetFault::RegionalStorm {
            window_start_day: 22,
            window_end_day: 34,
            duration_days: 4,
            depth: 0.7,
            region: SpatialFalloff::band(30.0, 50.0),
        }
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let mut bad = storm();
        if let FleetFault::RegionalStorm { window_end_day, .. } = &mut bad {
            *window_end_day = 10;
        }
        assert!(bad.validate().is_err());
        let mut bad = storm();
        if let FleetFault::RegionalStorm { region, .. } = &mut bad {
            region.radius_km = 0.0;
        }
        assert!(bad.validate().is_err());
        let mut bad = storm();
        if let FleetFault::RegionalStorm { region, .. } = &mut bad {
            region.epicenter_latitude_deg = 95.0;
        }
        assert!(bad.validate().is_err());
        assert!(FleetFault::SeasonalSoiling {
            window_start_day: 0,
            window_end_day: 10,
            duration_days: 0,
            max_loss: 0.5,
            region: SpatialFalloff::global(),
        }
        .validate()
        .is_err());
        assert!(FleetFault::SeasonalSoiling {
            window_start_day: 0,
            window_end_day: 10,
            duration_days: 5,
            max_loss: 1.5,
            region: SpatialFalloff::global(),
        }
        .validate()
        .is_err());
    }

    #[test]
    fn severity_is_monotone_in_distance_and_zero_beyond_radius() {
        for profile in [
            FalloffProfile::Flat,
            FalloffProfile::Linear,
            FalloffProfile::Cosine,
        ] {
            let region = SpatialFalloff::new(40.0, 2000.0, profile);
            region.validate().unwrap();
            // Weight at the epicenter is full for every profile.
            assert!((region.weight(40.0) - 1.0).abs() < 1e-12, "{profile:?}");
            // Monotonically non-increasing while walking away.
            let mut previous = f64::INFINITY;
            for step in 0..200 {
                let latitude = 40.0 + step as f64 * 0.25;
                let weight = region.weight(latitude);
                assert!((0.0..=1.0).contains(&weight));
                assert!(
                    weight <= previous + 1e-12,
                    "{profile:?}: weight rose at {latitude}"
                );
                previous = weight;
            }
            // Exactly zero strictly beyond the radius (2000 km ≈ 18°).
            assert_eq!(region.weight(40.0 + 18.1), 0.0, "{profile:?}");
            assert_eq!(region.weight(40.0 - 18.1), 0.0, "{profile:?}");
            // Symmetric north/south of the epicenter.
            assert_eq!(region.weight(45.0), region.weight(35.0), "{profile:?}");
        }
    }

    #[test]
    fn band_edges_stay_inclusive_despite_midpoint_rounding() {
        // (30.1 + 52.3) / 2 rounds up to 41.200000000000003; a radius
        // computed from (max − min) / 2 instead of the rounded
        // epicenter would exclude a site at exactly 30.1°. The legacy
        // band was edge-inclusive, so the falloff form must be too.
        let region = SpatialFalloff::band(30.1, 52.3);
        region.validate().unwrap();
        assert_eq!(region.weight(30.1), 1.0);
        assert_eq!(region.weight(52.3), 1.0);
        assert_eq!(region.weight(41.2), 1.0);
        assert_eq!(region.weight(29.9), 0.0);
        assert_eq!(region.weight(52.5), 0.0);
    }

    #[test]
    fn degenerate_legacy_band_still_covers_exactly_its_latitude() {
        // The old validation allowed min == max (a single-latitude
        // band); the falloff form keeps that meaning instead of
        // rejecting a zero radius.
        let region = SpatialFalloff::band(40.0, 40.0);
        region.validate().unwrap();
        assert_eq!(region.weight(40.0), 1.0);
        assert_eq!(region.weight(40.1), 0.0);
        assert_eq!(region.weight(39.9), 0.0);
        // A storm over that band hits exactly that latitude.
        let storm = FleetFault::RegionalStorm {
            window_start_day: 21,
            window_end_day: 35,
            duration_days: 6,
            depth: 0.75,
            region,
        };
        storm.validate().unwrap();
        assert_eq!(storm.severity_at(40.0), 0.75);
        assert_eq!(storm.severity_at(40.5), 0.0);
    }

    #[test]
    fn flat_band_reproduces_the_legacy_latitude_band_projection() {
        // Regression pin: the pre-falloff RegionalStorm applied full
        // depth to every scenario whose latitude sat inside
        // [30°, 52°] (edges inclusive) and nothing elsewhere. The
        // flat-profile band must project identically on the builtin
        // catalog.
        let fault = FleetFault::RegionalStorm {
            window_start_day: 21,
            window_end_day: 35,
            duration_days: 6,
            depth: 0.75,
            region: SpatialFalloff::band(30.0, 52.0),
        };
        for scenario in Catalog::builtin().scenarios() {
            let latitude = scenario.site_config().unwrap().latitude_deg;
            let in_band = (30.0..=52.0).contains(&latitude);
            let projected = fault.project(99, scenario).unwrap();
            if !in_band {
                assert!(projected.is_empty(), "{}", scenario.name);
                continue;
            }
            assert_eq!(projected.len(), 1, "{}", scenario.name);
            match projected[0] {
                FaultSpec::ClimateDimming {
                    duration_days,
                    factor,
                    ..
                } => {
                    assert_eq!(duration_days, 6);
                    // Full depth, bit-exactly: 1.0 - 0.75 * 1.0.
                    assert_eq!(factor, 1.0 - 0.75, "{}", scenario.name);
                }
                ref other => panic!("unexpected projection {other:?}"),
            }
        }
        // Radius → ∞ with flat weighting: every scenario is hit at full
        // severity — the legacy whole-globe band.
        let global = FleetFault::RegionalStorm {
            window_start_day: 21,
            window_end_day: 35,
            duration_days: 6,
            depth: 0.75,
            region: SpatialFalloff::global(),
        };
        for scenario in Catalog::builtin().scenarios() {
            let projected = global.project(99, scenario).unwrap();
            assert_eq!(projected.len(), 1, "{}", scenario.name);
        }
    }

    #[test]
    fn graded_profiles_project_distance_weighted_severity() {
        let fault = FleetFault::RegionalStorm {
            window_start_day: 22,
            window_end_day: 30,
            duration_days: 4,
            depth: 0.8,
            region: SpatialFalloff::new(45.0, 2500.0, FalloffProfile::Cosine),
        };
        let catalog = Catalog::builtin();
        let near = catalog.get("four-seasons").unwrap(); // 45°N
        let far = catalog.get("desert-clear-sky").unwrap(); // 33.45°N
        let factor = |scenario| match fault.project(7, scenario).unwrap()[..] {
            [FaultSpec::ClimateDimming { factor, .. }] => factor,
            ref other => panic!("unexpected {other:?}"),
        };
        let near_factor = factor(near);
        let far_factor = factor(far);
        // The epicentral scenario is dimmed at full depth; the distant
        // one is dimmed strictly less (higher remaining-light factor).
        assert!((near_factor - 0.2).abs() < 1e-12, "{near_factor}");
        assert!(
            far_factor > near_factor && far_factor < 1.0,
            "graded: {far_factor} vs {near_factor}"
        );
        // Severity matches the weight math exactly.
        assert!(
            (fault.severity_at(33.45) - (1.0 - far_factor)).abs() < 1e-12,
            "severity_at must agree with the projection"
        );
    }

    #[test]
    fn one_event_seed_hits_every_affected_scenario_on_the_same_days() {
        let catalog = Catalog::builtin();
        let fault = storm();
        let desert = catalog.get("desert-clear-sky").unwrap(); // 33.4°N
        let fourseasons = catalog.get("four-seasons").unwrap(); // 45°N
        let a = fault.project(99, desert).unwrap();
        let b = fault.project(99, fourseasons).unwrap();
        assert_eq!(a, b, "correlated flat-band event must project identically");
        assert_eq!(a.len(), 1);
        // A southern-hemisphere site is outside the region.
        let southern = catalog.get("southern-four-seasons").unwrap();
        assert!(fault.project(99, southern).unwrap().is_empty());
        // Different event seeds move the onset.
        let onsets: std::collections::BTreeSet<usize> =
            (0..40).map(|seed| fault.onset_day(seed)).collect();
        assert!(onsets.len() > 1, "onset must depend on the event seed");
    }

    #[test]
    fn onset_past_the_horizon_projects_nothing() {
        let mut catalog_entry = Catalog::builtin().get("desert-clear-sky").unwrap().clone();
        catalog_entry.days = 25;
        let fault = FleetFault::RegionalStorm {
            window_start_day: 30,
            window_end_day: 31,
            duration_days: 2,
            depth: 0.5,
            region: SpatialFalloff::global(),
        };
        assert!(fault.project(1, &catalog_entry).unwrap().is_empty());
    }
}
