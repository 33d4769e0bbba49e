//! Stochastic weather layer: day conditions, slow attenuation, cloud
//! transits.
//!
//! The model has three time scales, matching what measured irradiance
//! exhibits and what the prediction study is sensitive to:
//!
//! * **day scale** — a Markov chain over [`DayCondition`]s gives
//!   persistence ("sunny spells") and day-to-day variability; each day
//!   draws a base clearness index from its condition,
//! * **hour scale** — an AR(1) process wanders around the base clearness,
//! * **minute scale** — discrete cloud transits carve smooth notches into
//!   the profile; these create the intra-slot variance that makes the
//!   paper's MAPE′ (slot-boundary sample) much worse than MAPE (slot
//!   mean).

use rand::Rng;

/// Which RNG draw order the trace generator uses.
///
/// The generator's stream is part of its public contract: same seed ⇒
/// same trace, everywhere, forever. Making the draw order faster meant
/// *reordering* it (lane-batched Box–Muller consumes the sin half that
/// the scalar path discards), so the order is versioned explicitly
/// instead of silently changed:
///
/// * [`StreamVersion::V1`] — the original scalar order: one
///   Box–Muller normal per two uniforms (cos half only), normals
///   interleaved with trace math slot by slot. The default; every
///   pre-existing golden digest pins this stream.
/// * [`StreamVersion::V2`] — the lane order: normals drawn in batches
///   from the bulk keystream, pairwise Box–Muller consuming both the
///   cos and sin halves, and per-day panels (AR innovations, sensor
///   noise) drawn vectorwise ahead of the slot loop. ~2× faster
///   synthesis; its own golden digest is pinned separately.
///
/// Both versions are deterministic and platform-stable; they are
/// simply *different* streams. Catalog JSON and generated-scenario ids
/// carry the version, so an id never silently changes meaning.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum StreamVersion {
    /// Scalar draw order (the original stream); the default.
    #[default]
    V1,
    /// Lane-batched draw order (bulk keystream, pairwise Box–Muller).
    V2,
}

/// Gross sky condition of one day.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum DayCondition {
    /// Mostly cloudless; high, stable clearness.
    Clear,
    /// Broken clouds; medium clearness, high intra-day volatility.
    Mixed,
    /// Solid overcast; low clearness, moderate volatility.
    Overcast,
}

impl DayCondition {
    /// All conditions in index order (matches transition-matrix rows).
    pub const ALL: [DayCondition; 3] = [
        DayCondition::Clear,
        DayCondition::Mixed,
        DayCondition::Overcast,
    ];

    fn index(self) -> usize {
        match self {
            DayCondition::Clear => 0,
            DayCondition::Mixed => 1,
            DayCondition::Overcast => 2,
        }
    }
}

impl std::fmt::Display for DayCondition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DayCondition::Clear => write!(f, "clear"),
            DayCondition::Mixed => write!(f, "mixed"),
            DayCondition::Overcast => write!(f, "overcast"),
        }
    }
}

/// Per-condition clearness statistics and intra-day noise parameters.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ConditionParams {
    /// Mean base clearness index (fraction of clear-sky GHI).
    pub clearness_mean: f64,
    /// Standard deviation of the base clearness index.
    pub clearness_std: f64,
    /// AR(1) innovation standard deviation (per minute step).
    pub ar_sigma: f64,
    /// Expected cloud transits per daylight hour.
    pub transits_per_hour: f64,
}

/// The full stochastic weather model of a site.
///
/// # Example
///
/// ```
/// use solar_synth::WeatherModel;
///
/// let model = WeatherModel::desert();
/// // A clear desert day is most likely followed by another.
/// assert!(model.transition[0][0] > 0.7);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct WeatherModel {
    /// Row-stochastic transition matrix over `DayCondition::ALL` order.
    pub transition: [[f64; 3]; 3],
    /// Per-condition parameters, `DayCondition::ALL` order.
    pub conditions: [ConditionParams; 3],
    /// AR(1) correlation per minute (0 disables the slow wander).
    pub ar_rho_per_minute: f64,
    /// Standard deviation of the per-day linear clearness trend (slow
    /// synoptic evolution: mornings and afternoons differ
    /// systematically). The slope is drawn once per day in clearness
    /// units over ±12 h.
    pub daily_drift_std: f64,
    /// Expected frontal passages per day (Poisson). A front is a *step*
    /// change in base clearness persisting for the rest of the day — the
    /// feature that makes hours-old conditioning ratios actively
    /// misleading and pushes the optimal K down to the paper's 1–3.
    pub fronts_per_day: f64,
    /// Standard deviation of a front's clearness step.
    pub front_std: f64,
    /// Mean cloud transit duration in minutes.
    pub transit_mean_minutes: f64,
    /// Transit attenuation depth range (fraction of light removed at the
    /// transit centre), `0 < lo <= hi < 1`.
    pub transit_depth: (f64, f64),
    /// Multiplicative sensor noise standard deviation.
    pub sensor_noise_std: f64,
    /// Seasonal clearness modulation amplitude (added to base clearness,
    /// peaking mid-summer).
    pub seasonal_amplitude: f64,
    /// Which RNG draw order the generator uses for this model
    /// ([`StreamVersion::V1`] is the pinned legacy stream and the
    /// default).
    pub stream_version: StreamVersion,
}

impl WeatherModel {
    /// A stable desert climate (Nevada/Arizona style): clear most days,
    /// occasional convective clouds (monsoon-season afternoons).
    pub fn desert() -> Self {
        WeatherModel {
            transition: [[0.84, 0.13, 0.03], [0.52, 0.36, 0.12], [0.40, 0.35, 0.25]],
            conditions: [
                ConditionParams {
                    clearness_mean: 0.96,
                    clearness_std: 0.03,
                    ar_sigma: 0.022,
                    transits_per_hour: 0.5,
                },
                ConditionParams {
                    clearness_mean: 0.72,
                    clearness_std: 0.11,
                    ar_sigma: 0.050,
                    transits_per_hour: 2.0,
                },
                ConditionParams {
                    clearness_mean: 0.38,
                    clearness_std: 0.09,
                    ar_sigma: 0.035,
                    transits_per_hour: 0.9,
                },
            ],
            ar_rho_per_minute: 0.995,
            daily_drift_std: 0.05,
            fronts_per_day: 0.3,
            front_std: 0.25,
            transit_mean_minutes: 9.0,
            transit_depth: (0.25, 0.70),
            sensor_noise_std: 0.004,
            seasonal_amplitude: 0.01,
            stream_version: StreamVersion::V1,
        }
    }

    /// A temperate/continental climate (Colorado/Tennessee/North Carolina
    /// style): frequent mixed days, deep convective clouds.
    pub fn temperate() -> Self {
        WeatherModel {
            transition: [[0.50, 0.38, 0.12], [0.36, 0.45, 0.19], [0.28, 0.45, 0.27]],
            conditions: [
                ConditionParams {
                    clearness_mean: 0.93,
                    clearness_std: 0.04,
                    ar_sigma: 0.012,
                    transits_per_hour: 0.5,
                },
                ConditionParams {
                    clearness_mean: 0.62,
                    clearness_std: 0.16,
                    ar_sigma: 0.080,
                    transits_per_hour: 3.6,
                },
                ConditionParams {
                    clearness_mean: 0.28,
                    clearness_std: 0.10,
                    ar_sigma: 0.045,
                    transits_per_hour: 1.5,
                },
            ],
            ar_rho_per_minute: 0.99,
            daily_drift_std: 0.10,
            fronts_per_day: 2.2,
            front_std: 0.34,
            transit_mean_minutes: 7.0,
            transit_depth: (0.35, 0.85),
            sensor_noise_std: 0.006,
            seasonal_amplitude: 0.03,
            stream_version: StreamVersion::V1,
        }
    }

    /// A marine/foggy climate (coastal California style): persistent
    /// morning attenuation, volatile afternoons.
    pub fn marine() -> Self {
        WeatherModel {
            transition: [[0.48, 0.37, 0.15], [0.34, 0.44, 0.22], [0.26, 0.42, 0.32]],
            conditions: [
                ConditionParams {
                    clearness_mean: 0.90,
                    clearness_std: 0.05,
                    ar_sigma: 0.015,
                    transits_per_hour: 0.6,
                },
                ConditionParams {
                    clearness_mean: 0.58,
                    clearness_std: 0.13,
                    ar_sigma: 0.065,
                    transits_per_hour: 2.6,
                },
                ConditionParams {
                    clearness_mean: 0.30,
                    clearness_std: 0.09,
                    ar_sigma: 0.040,
                    transits_per_hour: 1.2,
                },
            ],
            ar_rho_per_minute: 0.99,
            daily_drift_std: 0.09,
            fronts_per_day: 1.8,
            front_std: 0.30,
            transit_mean_minutes: 11.0,
            transit_depth: (0.30, 0.75),
            sensor_noise_std: 0.005,
            seasonal_amplitude: 0.04,
            stream_version: StreamVersion::V1,
        }
    }

    /// A monsoon climate (subtropical wet/dry, Indian-plateau style):
    /// clear and stable through the dry winter, then persistently
    /// overcast with deep convective transits — the strong *negative*
    /// seasonal clearness swing peaking mid-summer is the defining
    /// feature, and is what stresses history-based predictors whose `D`
    /// window straddles the monsoon onset.
    pub fn monsoon() -> Self {
        WeatherModel {
            transition: [[0.62, 0.27, 0.11], [0.28, 0.44, 0.28], [0.14, 0.36, 0.50]],
            conditions: [
                ConditionParams {
                    clearness_mean: 0.95,
                    clearness_std: 0.04,
                    ar_sigma: 0.018,
                    transits_per_hour: 0.4,
                },
                ConditionParams {
                    clearness_mean: 0.60,
                    clearness_std: 0.15,
                    ar_sigma: 0.085,
                    transits_per_hour: 4.0,
                },
                ConditionParams {
                    clearness_mean: 0.24,
                    clearness_std: 0.09,
                    ar_sigma: 0.050,
                    transits_per_hour: 1.8,
                },
            ],
            ar_rho_per_minute: 0.99,
            daily_drift_std: 0.11,
            fronts_per_day: 2.6,
            front_std: 0.36,
            transit_mean_minutes: 8.0,
            transit_depth: (0.40, 0.88),
            sensor_noise_std: 0.006,
            // Negative: clearness *drops* toward the summer solstice
            // (wet season), the mirror image of the temperate presets.
            seasonal_amplitude: -0.18,
            stream_version: StreamVersion::V1,
        }
    }

    /// A high-latitude maritime climate (coastal-arctic style): solid
    /// overcast most of the time, weak and slow-moving convection. The
    /// interesting stress for predictors comes from the site latitude
    /// pairing — near-polar winters compress daylight to a few low-sun
    /// hours, so almost every slot sits near the ROI floor.
    pub fn arctic() -> Self {
        WeatherModel {
            transition: [[0.38, 0.38, 0.24], [0.24, 0.42, 0.34], [0.12, 0.30, 0.58]],
            conditions: [
                ConditionParams {
                    clearness_mean: 0.82,
                    clearness_std: 0.06,
                    ar_sigma: 0.020,
                    transits_per_hour: 0.7,
                },
                ConditionParams {
                    clearness_mean: 0.48,
                    clearness_std: 0.13,
                    ar_sigma: 0.055,
                    transits_per_hour: 2.2,
                },
                ConditionParams {
                    clearness_mean: 0.20,
                    clearness_std: 0.07,
                    ar_sigma: 0.035,
                    transits_per_hour: 1.0,
                },
            ],
            ar_rho_per_minute: 0.995,
            daily_drift_std: 0.08,
            fronts_per_day: 1.2,
            front_std: 0.26,
            transit_mean_minutes: 14.0,
            transit_depth: (0.30, 0.80),
            sensor_noise_std: 0.006,
            seasonal_amplitude: 0.05,
            stream_version: StreamVersion::V1,
        }
    }

    /// Returns this model tilted toward cloudier (`factor > 1`) or
    /// clearer (`factor < 1`) skies — the catalog generators' continuous
    /// cloudiness axis. Each transition row re-weights the chance of
    /// landing in the clear state by `1/factor` and the overcast state
    /// by `factor` (then renormalizes), and convective churn
    /// (`transits_per_hour`) scales with `√factor`. `factor = 1.0`
    /// returns the model bit-unchanged, so existing presets keep their
    /// exact trace streams. The result validates whenever `self` does
    /// and `factor` is finite and positive.
    pub fn with_cloudiness(mut self, factor: f64) -> WeatherModel {
        if factor == 1.0 {
            return self;
        }
        for row in &mut self.transition {
            row[0] /= factor;
            row[2] *= factor;
            let sum: f64 = row.iter().sum();
            for p in row.iter_mut() {
                *p /= sum;
            }
        }
        for condition in &mut self.conditions {
            condition.transits_per_hour *= factor.sqrt();
        }
        self
    }

    /// Validates that the transition matrix is row-stochastic and all
    /// parameters are in range. Returns a description of the first
    /// violation, if any.
    pub fn validate(&self) -> Result<(), String> {
        for (i, row) in self.transition.iter().enumerate() {
            let sum: f64 = row.iter().sum();
            if (sum - 1.0).abs() > 1e-9 {
                return Err(format!("transition row {i} sums to {sum}, not 1"));
            }
            if row.iter().any(|&p| !(0.0..=1.0).contains(&p)) {
                return Err(format!("transition row {i} has out-of-range probability"));
            }
        }
        for (i, c) in self.conditions.iter().enumerate() {
            if !(0.0..=1.2).contains(&c.clearness_mean) || c.clearness_std < 0.0 {
                return Err(format!("condition {i} clearness parameters out of range"));
            }
            if c.ar_sigma < 0.0 || c.transits_per_hour < 0.0 {
                return Err(format!("condition {i} noise parameters out of range"));
            }
        }
        if !(0.0..1.0).contains(&self.ar_rho_per_minute.abs()) {
            return Err("ar_rho_per_minute must be in [0, 1)".to_string());
        }
        if self.fronts_per_day < 0.0 || self.front_std < 0.0 || self.daily_drift_std < 0.0 {
            return Err("front/drift parameters must be non-negative".to_string());
        }
        let (lo, hi) = self.transit_depth;
        if !(0.0 < lo && lo <= hi && hi < 1.0) {
            return Err("transit_depth must satisfy 0 < lo <= hi < 1".to_string());
        }
        Ok(())
    }

    /// Parameters of a condition.
    pub fn params(&self, condition: DayCondition) -> ConditionParams {
        self.conditions[condition.index()]
    }

    /// Samples the next day's condition given the current one.
    pub fn step<R: Rng + ?Sized>(&self, current: DayCondition, rng: &mut R) -> DayCondition {
        let row = self.transition[current.index()];
        let draw: f64 = rng.gen();
        let mut acc = 0.0;
        for (idx, &p) in row.iter().enumerate() {
            acc += p;
            if draw < acc {
                return DayCondition::ALL[idx];
            }
        }
        DayCondition::Overcast
    }
}

#[cfg(test)]
impl WeatherModel {
    /// Stationary distribution of the day-condition chain (power
    /// iteration), in `DayCondition::ALL` order: the reference the
    /// per-site climate tests check their presets against.
    pub(crate) fn stationary_distribution(&self) -> [f64; 3] {
        let mut pi = [1.0 / 3.0; 3];
        for _ in 0..500 {
            let mut next = [0.0; 3];
            for (&p, row) in pi.iter().zip(&self.transition) {
                for (n, &t) in next.iter_mut().zip(row) {
                    *n += p * t;
                }
            }
            pi = next;
        }
        pi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn presets_validate() {
        for model in [
            WeatherModel::desert(),
            WeatherModel::temperate(),
            WeatherModel::marine(),
        ] {
            model.validate().expect("preset must be valid");
        }
    }

    #[test]
    fn validate_catches_bad_rows() {
        let mut m = WeatherModel::desert();
        m.transition[1][0] = 0.9; // row no longer sums to 1
        assert!(m.validate().is_err());
    }

    #[test]
    fn validate_catches_bad_depth() {
        let mut m = WeatherModel::desert();
        m.transit_depth = (0.9, 0.2);
        assert!(m.validate().is_err());
    }

    #[test]
    fn markov_chain_visits_states_proportionally() {
        let model = WeatherModel::desert();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut state = DayCondition::Clear;
        let mut counts = [0usize; 3];
        let steps = 200_000;
        for _ in 0..steps {
            state = model.step(state, &mut rng);
            counts[state.index()] += 1;
        }
        let pi = model.stationary_distribution();
        for i in 0..3 {
            let freq = counts[i] as f64 / steps as f64;
            assert!(
                (freq - pi[i]).abs() < 0.02,
                "state {i}: empirical {freq} vs stationary {}",
                pi[i]
            );
        }
    }

    #[test]
    fn cloudiness_tilt_orders_stationary_clearness() {
        let base = WeatherModel::temperate();
        let clear_frac = |m: &WeatherModel| m.stationary_distribution()[0];
        let cloudier = base.clone().with_cloudiness(2.0);
        let clearer = base.clone().with_cloudiness(0.5);
        cloudier.validate().unwrap();
        clearer.validate().unwrap();
        assert!(clear_frac(&cloudier) < clear_frac(&base));
        assert!(clear_frac(&clearer) > clear_frac(&base));
        // Identity is bit-exact: existing presets keep their streams.
        assert_eq!(base.clone().with_cloudiness(1.0), base);
        // Every factor in the generators' range yields a valid model.
        for factor in [0.125, 0.25, 0.75, 1.5, 4.0, 8.0] {
            base.clone().with_cloudiness(factor).validate().unwrap();
        }
    }

    #[test]
    fn desert_is_clearer_than_temperate() {
        let d = WeatherModel::desert().stationary_distribution();
        let t = WeatherModel::temperate().stationary_distribution();
        assert!(d[0] > t[0] + 0.2, "desert {d:?} vs temperate {t:?}");
    }

    #[test]
    fn stationary_distribution_sums_to_one() {
        for model in [
            WeatherModel::desert(),
            WeatherModel::temperate(),
            WeatherModel::marine(),
        ] {
            let pi = model.stationary_distribution();
            assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn condition_display_and_all_order() {
        assert_eq!(DayCondition::Clear.to_string(), "clear");
        for (i, c) in DayCondition::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
