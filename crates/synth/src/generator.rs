//! Deterministic synthetic-trace generation.

use crate::geometry;
use crate::lanes::{NormalSource, SynthCounters};
use crate::sampling::{poisson, poisson_inversion};
use crate::site::SiteConfig;
use crate::weather::{DayCondition, StreamVersion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use solar_trace::{PowerTrace, TraceError};

/// A seeded generator producing irradiance traces for one site.
///
/// The generated unit is W/m² global horizontal irradiance. The same
/// `(config, seed)` pair always produces the same trace, independent of
/// platform, because the stream uses `ChaCha8Rng` and no
/// distribution-sampling code outside this crate.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use solar_synth::{Site, TraceGenerator};
///
/// let a = TraceGenerator::new(Site::Npcs.config(), 1).generate_days(3)?;
/// let b = TraceGenerator::new(Site::Npcs.config(), 1).generate_days(3)?;
/// assert_eq!(a, b); // fully deterministic
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct TraceGenerator {
    config: SiteConfig,
    seed: u64,
}

/// A cloud transit event: a smooth notch carved into the day's profile.
#[derive(Copy, Clone, Debug)]
struct Transit {
    /// Centre of the event in hours.
    centre_h: f64,
    /// Half-width in hours.
    half_width_h: f64,
    /// Fraction of light removed at the centre, in (0, 1).
    depth: f64,
}

impl Transit {
    /// Multiplicative attenuation at time `t_h` (1 = no effect). The notch
    /// is a raised-cosine window so profiles stay smooth.
    fn factor(&self, t_h: f64) -> f64 {
        let x = (t_h - self.centre_h) / self.half_width_h;
        if x.abs() >= 1.0 {
            1.0
        } else {
            let window = 0.5 * (1.0 + (std::f64::consts::PI * x).cos());
            1.0 - self.depth * window
        }
    }
}

impl TraceGenerator {
    /// Creates a generator for `config` with a user seed.
    pub fn new(config: SiteConfig, seed: u64) -> Self {
        TraceGenerator { config, seed }
    }

    /// The site configuration.
    pub fn config(&self) -> &SiteConfig {
        &self.config
    }

    /// Generates `days` whole days of irradiance starting at day-of-year 1.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if `days` is zero (the trace would be empty).
    pub fn generate_days(&self, days: usize) -> Result<PowerTrace, TraceError> {
        self.generate_with_conditions(days).map(|(trace, _)| trace)
    }

    /// Generates a trace together with the sampled per-day conditions,
    /// useful for analyses that need the hidden weather state.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if `days` is zero.
    pub fn generate_with_conditions(
        &self,
        days: usize,
    ) -> Result<(PowerTrace, Vec<DayCondition>), TraceError> {
        self.generate_counted(days)
            .map(|(trace, conditions, _)| (trace, conditions))
    }

    /// Like [`TraceGenerator::generate_days`], but also returns the
    /// deterministic synthesis-cost counters (keystream blocks
    /// consumed, normal draws served) for the whole generation — the
    /// values the fleet engine merges into its run ledger once per
    /// work unit.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if `days` is zero.
    pub fn generate_days_counted(
        &self,
        days: usize,
    ) -> Result<(PowerTrace, SynthCounters), TraceError> {
        self.generate_counted(days)
            .map(|(trace, _, counters)| (trace, counters))
    }

    fn generate_counted(
        &self,
        days: usize,
    ) -> Result<(PowerTrace, Vec<DayCondition>, SynthCounters), TraceError> {
        let res = self.config.resolution;
        let spd = res.samples_per_day();
        let mut state = self.day_state();
        let mut samples = Vec::with_capacity(days * spd);
        let mut conditions = Vec::with_capacity(days);
        let mut day_buf = Vec::with_capacity(spd);
        for day in 0..days {
            conditions.push(self.generate_day_into(&mut state, day, &mut day_buf));
            samples.extend_from_slice(&day_buf);
        }
        let counters = state.counters();
        let trace = PowerTrace::new(self.config.name.clone(), res, samples)?;
        Ok((trace, conditions, counters))
    }

    /// The carried generator state at day 0, burn-in included. Both the
    /// batch path and the streaming path start here, so their RNG
    /// streams are identical by construction.
    pub(crate) fn day_state(&self) -> DayState {
        let res = self.config.resolution;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ self.config.seed_stream);
        let weather = &self.config.weather;

        // Burn in the day-condition chain so the first day is drawn close
        // to the stationary distribution.
        let mut condition = DayCondition::Clear;
        for _ in 0..16 {
            condition = weather.step(condition, &mut rng);
        }

        let rho = weather.ar_rho_per_minute.powf(res.as_seconds_f64() / 60.0);
        let step_h = res.as_seconds_f64() / 3600.0;
        DayState {
            rng,
            condition,
            // AR(1) deviation, persisted across days so dawn continues
            // the previous evening's air mass rather than resetting.
            ar_state: 0.0,
            rho,
            innovation_scale: (1.0 - rho * rho).sqrt(),
            // The hour-angle cosine grid depends only on the sample
            // spacing: computed once here, shared by every generated day
            // (the per-day transcendentals live in `DayGeometry`).
            cos_hour: geometry::hour_cosine_grid(res.samples_per_day(), step_h),
            fronts: Vec::new(),
            transits: Vec::new(),
            // The normal supply fixes the draw order for the life of
            // the stream: scalar per-draw Box–Muller on v1, batched
            // pairwise lanes on v2.
            normals: match weather.stream_version {
                StreamVersion::V1 => NormalSource::scalar(),
                StreamVersion::V2 => NormalSource::lanes(),
            },
            clear_panel: Vec::new(),
            innovation_panel: Vec::new(),
            noise_panel: Vec::new(),
        }
    }

    /// Generates one day of samples into `out` (replacing its contents),
    /// advancing the carried state; returns the day's condition. This is
    /// the single source of every sample both `generate_*` and the
    /// streaming [`crate::SlotStream`] emit.
    ///
    /// Dispatches on the site's
    /// [`StreamVersion`](crate::weather::StreamVersion): the two bodies
    /// sample the same model, but consume the keystream in different
    /// orders and must never be cross-edited (each order is pinned by
    /// its own golden digest).
    pub(crate) fn generate_day_into(
        &self,
        state: &mut DayState,
        day: usize,
        out: &mut Vec<f64>,
    ) -> DayCondition {
        match self.config.weather.stream_version {
            StreamVersion::V1 => self.generate_day_v1(state, day, out),
            StreamVersion::V2 => self.generate_day_v2(state, day, out),
        }
    }

    /// The v1 (scalar-order) day body. Every RNG call here is in the
    /// exact sequence the original scalar generator used — one
    /// Box–Muller draw at a time with the sin half discarded, Knuth
    /// Poisson counts — because the pinned v1 golden digests depend on
    /// that consumption byte-for-byte.
    fn generate_day_v1(
        &self,
        state: &mut DayState,
        day: usize,
        out: &mut Vec<f64>,
    ) -> DayCondition {
        let res = self.config.resolution;
        let spd = res.samples_per_day();
        let step_h = res.as_seconds_f64() / 3600.0;
        let weather = &self.config.weather;
        let DayState {
            rng,
            condition: day_condition,
            ar_state,
            rho,
            innovation_scale,
            cos_hour,
            fronts,
            transits,
            normals,
            ..
        } = state;
        out.clear();

        let doy = (day % 365) as u32 + 1;
        *day_condition = weather.step(*day_condition, rng);
        let condition = *day_condition;
        let params = weather.params(condition);
        // Declination, sin φ sin δ, cos φ cos δ and the extraterrestrial
        // irradiance are day-invariant: computed once here instead of
        // inside the slot loop (bit-identical to the composed per-sample
        // geometry; see `DayGeometry`).
        let day_geom = geometry::DayGeometry::new(self.config.latitude_deg, doy);

        // Seasonal clearness modulation peaking at the *local* summer
        // solstice: the phase flips south of the equator (a −18%
        // monsoon swing means an austral wet season in austral summer,
        // not a copy of the northern calendar).
        let hemisphere = if self.config.latitude_deg < 0.0 {
            -1.0
        } else {
            1.0
        };
        let seasonal = hemisphere
            * self.config.weather.seasonal_amplitude
            * (std::f64::consts::TAU * (doy as f64 - 172.0) / 365.0).cos();
        let base_clearness =
            (params.clearness_mean + seasonal + params.clearness_std * normals.next(rng))
                .clamp(0.03, 1.08);
        // Per-day linear trend: slow synoptic evolution across the
        // day.
        let drift_slope = weather.daily_drift_std * normals.next(rng);
        // Frontal passages: step changes in base clearness that
        // persist for the rest of the day. These make hours-old
        // conditioning ratios actively misleading, which is what
        // bounds the useful Φ window (the paper's small optimal K).
        let front_count = poisson(weather.fronts_per_day, rng);
        fronts.clear();
        fronts.extend((0..front_count).map(|_| {
            let t_h = 6.0 + rng.gen::<f64>() * 12.0; // daylight hours
            (t_h, weather.front_std * normals.next(rng))
        }));
        fronts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("front times are finite"));

        self.sample_transits(
            doy,
            params.transits_per_hour,
            rng,
            transits,
            StreamVersion::V1,
        );

        debug_assert_eq!(cos_hour.len(), spd);
        for (idx, &cos_omega) in cos_hour.iter().enumerate() {
            let t_h = idx as f64 * step_h;
            let sin_h = day_geom.sin_elevation(cos_omega);
            // Turbidity scales the cloudless ceiling itself; at the
            // default 0.0 the factor is exactly 1.0, so legacy streams
            // are bit-unchanged.
            let clear = self.config.clear_sky.ghi(sin_h) * (1.0 - self.config.turbidity);
            if clear <= 0.0 {
                *ar_state *= *rho; // decay quietly overnight
                out.push(0.0);
                continue;
            }
            *ar_state = *rho * *ar_state + params.ar_sigma * *innovation_scale * normals.next(rng);
            let drift = drift_slope * (t_h - 12.0) / 12.0;
            let front_shift: f64 = fronts
                .iter()
                .take_while(|&&(t_f, _)| t_f <= t_h)
                .map(|&(_, delta)| delta)
                .sum();
            let mut attenuation =
                (base_clearness + drift + front_shift + *ar_state).clamp(0.02, 1.08);
            for transit in transits.iter() {
                attenuation *= transit.factor(t_h);
            }
            let noise = 1.0 + weather.sensor_noise_std * normals.next(rng);
            let value = (clear * attenuation * noise).max(0.0);
            // Pyranometer noise floor: real instruments report ~0
            // below ~1 W/m²; without this, grazing-sun samples of
            // 1e-20 W/m² would appear and historical means at dawn
            // slots would be meaninglessly tiny.
            out.push(if value < 1.0 { 0.0 } else { value });
        }
        condition
    }

    /// The v2 (lane-order) day body: the same weather model as v1, but
    /// the keystream is consumed in structure-of-arrays order. The day
    /// header (condition step, clearness, drift, fronts, transits)
    /// draws first — with Poisson counts from the single-uniform
    /// inversion sampler — then three flat panels are built for the
    /// slot loop: the clear-sky GHI vector, one batched AR(1)
    /// innovation per daylight slot, and one batched sensor-noise
    /// normal per daylight slot. Normals come pairwise from the lane
    /// source (both Box–Muller halves consumed), which is what makes
    /// this a different — and faster — stream from v1.
    fn generate_day_v2(
        &self,
        state: &mut DayState,
        day: usize,
        out: &mut Vec<f64>,
    ) -> DayCondition {
        let res = self.config.resolution;
        let spd = res.samples_per_day();
        let step_h = res.as_seconds_f64() / 3600.0;
        let weather = &self.config.weather;
        let DayState {
            rng,
            condition: day_condition,
            ar_state,
            rho,
            innovation_scale,
            cos_hour,
            fronts,
            transits,
            normals,
            clear_panel,
            innovation_panel,
            noise_panel,
        } = state;
        out.clear();

        let doy = (day % 365) as u32 + 1;
        *day_condition = weather.step(*day_condition, rng);
        let condition = *day_condition;
        let params = weather.params(condition);
        let day_geom = geometry::DayGeometry::new(self.config.latitude_deg, doy);

        let hemisphere = if self.config.latitude_deg < 0.0 {
            -1.0
        } else {
            1.0
        };
        let seasonal = hemisphere
            * weather.seasonal_amplitude
            * (std::f64::consts::TAU * (doy as f64 - 172.0) / 365.0).cos();
        let base_clearness =
            (params.clearness_mean + seasonal + params.clearness_std * normals.next(rng))
                .clamp(0.03, 1.08);
        let drift_slope = weather.daily_drift_std * normals.next(rng);
        let front_count = poisson_inversion(weather.fronts_per_day, rng);
        fronts.clear();
        fronts.extend((0..front_count).map(|_| {
            let t_h = 6.0 + rng.gen::<f64>() * 12.0; // daylight hours
            (t_h, weather.front_std * normals.next(rng))
        }));
        fronts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("front times are finite"));

        self.sample_transits(
            doy,
            params.transits_per_hour,
            rng,
            transits,
            StreamVersion::V2,
        );

        // Panel 1: the clear-sky GHI vector. Pure geometry — no RNG —
        // so it vectorizes, and it tells us exactly how many daylight
        // slots need stochastic draws.
        debug_assert_eq!(cos_hour.len(), spd);
        clear_panel.clear();
        let mut daylight = 0usize;
        for &cos_omega in cos_hour.iter() {
            let sin_h = day_geom.sin_elevation(cos_omega);
            let clear = self.config.clear_sky.ghi(sin_h) * (1.0 - self.config.turbidity);
            if clear > 0.0 {
                daylight += 1;
            }
            clear_panel.push(clear);
        }

        // Panels 2 + 3: one bulk normal fill each — AR(1) innovations
        // and sensor noise for the daylight slots, in that order.
        innovation_panel.resize(daylight, 0.0);
        normals.fill(rng, innovation_panel.as_mut_slice());
        noise_panel.resize(daylight, 0.0);
        normals.fill(rng, noise_panel.as_mut_slice());

        // Assembly: pure trace math over the panels. Front shifts are
        // accumulated with a moving pointer (fronts are time-sorted,
        // and adding deltas in the same order as v1's prefix sum keeps
        // the arithmetic identical). Transits are applied afterwards,
        // per event over its own sample window, so the main loop never
        // scans the transit list.
        let mut front_ptr = 0usize;
        let mut front_shift = 0.0f64;
        let mut lane = 0usize;
        for (idx, &clear) in clear_panel.iter().enumerate() {
            if clear <= 0.0 {
                *ar_state *= *rho; // decay quietly overnight
                out.push(0.0);
                continue;
            }
            let t_h = idx as f64 * step_h;
            *ar_state =
                *rho * *ar_state + params.ar_sigma * *innovation_scale * innovation_panel[lane];
            let drift = drift_slope * (t_h - 12.0) / 12.0;
            while front_ptr < fronts.len() && fronts[front_ptr].0 <= t_h {
                front_shift += fronts[front_ptr].1;
                front_ptr += 1;
            }
            let attenuation = (base_clearness + drift + front_shift + *ar_state).clamp(0.02, 1.08);
            let noise = 1.0 + weather.sensor_noise_std * noise_panel[lane];
            lane += 1;
            out.push(clear * attenuation * noise);
        }

        // Transit pass: each event only touches the samples inside its
        // raised-cosine window (the factor is exactly 1 outside, so the
        // conservative index bounds lose nothing). Night samples are 0
        // and stay 0 under multiplication.
        for transit in transits.iter() {
            let lo = ((transit.centre_h - transit.half_width_h) / step_h)
                .floor()
                .max(0.0) as usize;
            let hi =
                (((transit.centre_h + transit.half_width_h) / step_h).ceil() as usize).min(spd - 1);
            for (offset, value) in out[lo.min(hi)..=hi].iter_mut().enumerate() {
                *value *= transit.factor((lo + offset) as f64 * step_h);
            }
        }

        // Pyranometer floor, vectorized over the day (subsumes the
        // `max(0)` guard: negatives are < 1 W/m² too).
        for value in out.iter_mut() {
            if *value < 1.0 {
                *value = 0.0;
            }
        }
        condition
    }

    /// Samples the day's cloud-transit events over the daylight window
    /// into `out` (replacing its contents — the buffer is carried in
    /// [`DayState`] so day generation allocates nothing per day). The
    /// stream version selects the count sampler (Knuth on v1, CDF
    /// inversion on v2); the per-event draws are uniform-only and
    /// shared.
    fn sample_transits(
        &self,
        doy: u32,
        rate_per_hour: f64,
        rng: &mut ChaCha8Rng,
        out: &mut Vec<Transit>,
        version: StreamVersion,
    ) {
        out.clear();
        let day_len = geometry::day_length_hours(self.config.latitude_deg, doy);
        if day_len <= 0.0 || rate_per_hour <= 0.0 {
            return;
        }
        let sunrise = 12.0 - day_len / 2.0;
        let count = match version {
            StreamVersion::V1 => poisson(rate_per_hour * day_len, rng),
            StreamVersion::V2 => poisson_inversion(rate_per_hour * day_len, rng),
        };
        let (depth_lo, depth_hi) = self.config.weather.transit_depth;
        out.extend((0..count).map(|_| {
            let centre_h = sunrise + rng.gen::<f64>() * day_len;
            let duration_min = (-self.config.weather.transit_mean_minutes
                * rng.gen::<f64>().max(1e-12).ln())
            .clamp(1.0, 90.0);
            Transit {
                centre_h,
                half_width_h: duration_min / 60.0 / 2.0,
                depth: depth_lo + rng.gen::<f64>() * (depth_hi - depth_lo),
            }
        }));
    }
}

/// The RNG/weather state carried from one generated day into the next.
/// Shared by the batch and streaming generation paths. Besides the
/// weather chain it owns the stream-invariant hour-angle cosine grid and
/// the per-day scratch buffers, so generating a day performs no heap
/// allocation in steady state.
#[derive(Clone, Debug)]
pub(crate) struct DayState {
    rng: ChaCha8Rng,
    condition: DayCondition,
    ar_state: f64,
    rho: f64,
    innovation_scale: f64,
    /// `cos ω` per sample index; depends only on the resolution.
    cos_hour: Vec<f64>,
    /// Reused frontal-passage scratch: `(time_h, clearness_shift)`.
    fronts: Vec<(f64, f64)>,
    /// Reused cloud-transit scratch.
    transits: Vec<Transit>,
    /// The stream's normal supply (scalar on v1, batched lanes on v2).
    normals: NormalSource,
    /// Reused v2 SoA panels: clear-sky GHI per slot, then one AR(1)
    /// innovation and one sensor-noise normal per *daylight* slot.
    clear_panel: Vec<f64>,
    innovation_panel: Vec<f64>,
    noise_panel: Vec<f64>,
}

impl DayState {
    /// Synthesis-cost counters at the stream's current position.
    pub(crate) fn counters(&self) -> SynthCounters {
        SynthCounters::at(&self.rng, self.normals.draws())
    }
}

/// A resume point for trace synthesis at a day boundary: the carried
/// generator state after some prefix of days, from which generation
/// continues bit-identically to a cold run over the longer horizon.
///
/// Produced by [`crate::SlotStream::checkpoint`]; consumed by
/// [`TraceGenerator::slot_stream_from`]. Opaque — a checkpoint is
/// only meaningful for the exact `(config, seed)` generator that
/// produced it; resuming with a different generator silently yields a
/// foreign stream, so callers key stored checkpoints by the full
/// scenario identity.
#[derive(Clone, Debug)]
pub struct SynthCheckpoint {
    pub(crate) state: DayState,
    pub(crate) next_day: usize,
}

impl SynthCheckpoint {
    /// The first ungenerated day — equivalently, how many days of the
    /// stream lie behind this checkpoint.
    pub fn next_day(&self) -> usize {
        self.next_day
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::Site;
    use solar_trace::stats::TraceStats;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = TraceGenerator::new(Site::Spmd.config(), 9)
            .generate_days(5)
            .unwrap();
        let b = TraceGenerator::new(Site::Spmd.config(), 9)
            .generate_days(5)
            .unwrap();
        let c = TraceGenerator::new(Site::Spmd.config(), 10)
            .generate_days(5)
            .unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sites_with_same_seed_differ() {
        let a = TraceGenerator::new(Site::Npcs.config(), 3)
            .generate_days(2)
            .unwrap();
        let b = TraceGenerator::new(Site::Pfci.config(), 3)
            .generate_days(2)
            .unwrap();
        assert_ne!(a.samples(), b.samples());
    }

    #[test]
    fn night_is_dark_and_day_is_bright() {
        let trace = TraceGenerator::new(Site::Pfci.config(), 1)
            .generate_days(10)
            .unwrap();
        let spd = trace.samples_per_day();
        for day in 0..trace.days() {
            let d = trace.day(day).unwrap();
            // Midnight and ~3am are dark.
            assert_eq!(d[0], 0.0);
            assert_eq!(d[spd / 8], 0.0);
            // Noon is bright on every desert day.
            assert!(d[spd / 2] > 50.0, "day {day}: noon {}", d[spd / 2]);
        }
    }

    #[test]
    fn clear_desert_noon_is_physical() {
        // Winter-only noon peaks near 600 W/m² at 33°N; spanning into
        // summer the annual peak must reach the ~1 kW/m² regime.
        let trace = TraceGenerator::new(Site::Pfci.config(), 2)
            .generate_days(200)
            .unwrap();
        let peak = trace.peak_power();
        assert!(peak > 800.0 && peak < 1250.0, "peak {peak}");
    }

    #[test]
    fn variability_ordering_matches_paper() {
        // Desert sites must have lower day-to-day and intra-day
        // variability than the temperate/marine sites.
        let cv = |site: Site| {
            let t = TraceGenerator::new(site.config(), 11)
                .generate_days(60)
                .unwrap();
            TraceStats::of(&t).daily_energy_cv
        };
        let pfci = cv(Site::Pfci);
        let ornl = cv(Site::Ornl);
        let spmd = cv(Site::Spmd);
        assert!(
            pfci < ornl,
            "PFCI {pfci} should be steadier than ORNL {ornl}"
        );
        assert!(
            pfci < spmd,
            "PFCI {pfci} should be steadier than SPMD {spmd}"
        );
    }

    #[test]
    fn conditions_are_reported_per_day() {
        let (trace, conditions) = TraceGenerator::new(Site::Hsu.config(), 5)
            .generate_with_conditions(14)
            .unwrap();
        assert_eq!(conditions.len(), trace.days());
    }

    #[test]
    fn zero_days_is_an_error() {
        assert!(TraceGenerator::new(Site::Hsu.config(), 5)
            .generate_days(0)
            .is_err());
    }

    #[test]
    fn transit_factor_is_bounded_and_local() {
        let t = Transit {
            centre_h: 12.0,
            half_width_h: 0.25,
            depth: 0.5,
        };
        assert_eq!(t.factor(11.0), 1.0);
        assert_eq!(t.factor(13.0), 1.0);
        let centre = t.factor(12.0);
        assert!((centre - 0.5).abs() < 1e-12);
        for i in 0..100 {
            let x = 11.5 + i as f64 * 0.01;
            let f = t.factor(x);
            assert!((0.5..=1.0).contains(&f));
        }
    }

    #[test]
    fn poisson_mean_is_close() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let lambda = 4.0;
        let n = 20_000;
        let total: usize = (0..n).map(|_| poisson(lambda, &mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - lambda).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let n = 50_000;
        let draws: Vec<f64> = (0..n)
            .map(|_| crate::lanes::scalar_normal(&mut rng))
            .collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    fn v2_config(site: Site) -> SiteConfig {
        let mut config = site.config();
        config.weather.stream_version = StreamVersion::V2;
        config
    }

    #[test]
    fn v2_stream_is_deterministic_and_differs_from_v1() {
        let v1 = TraceGenerator::new(Site::Spmd.config(), 9)
            .generate_days(5)
            .unwrap();
        let a = TraceGenerator::new(v2_config(Site::Spmd), 9)
            .generate_days(5)
            .unwrap();
        let b = TraceGenerator::new(v2_config(Site::Spmd), 9)
            .generate_days(5)
            .unwrap();
        assert_eq!(a, b);
        // The lane order is a different stream by design.
        assert_ne!(a.samples(), v1.samples());
    }

    #[test]
    fn v2_stream_is_physical() {
        let trace = TraceGenerator::new(v2_config(Site::Pfci), 2)
            .generate_days(200)
            .unwrap();
        let spd = trace.samples_per_day();
        for day in 0..trace.days() {
            let d = trace.day(day).unwrap();
            assert_eq!(d[0], 0.0, "day {day}: midnight must be dark");
            assert!(d[spd / 2] > 50.0, "day {day}: noon {}", d[spd / 2]);
        }
        let peak = trace.peak_power();
        assert!(peak > 800.0 && peak < 1250.0, "peak {peak}");
    }

    #[test]
    fn v2_statistics_match_v1_closely() {
        // Same model, different draw order: summary statistics must
        // agree even though individual samples differ.
        for site in [Site::Pfci, Site::Spmd] {
            let v1 = TraceGenerator::new(site.config(), 11)
                .generate_days(120)
                .unwrap();
            let v2 = TraceGenerator::new(v2_config(site), 11)
                .generate_days(120)
                .unwrap();
            let s1 = TraceStats::of(&v1);
            let s2 = TraceStats::of(&v2);
            let rel = (s1.mean_power - s2.mean_power).abs() / s1.mean_power;
            assert!(rel < 0.1, "{site:?}: mean power diverged by {rel}");
            let cv_gap = (s1.daily_energy_cv - s2.daily_energy_cv).abs();
            assert!(cv_gap < 0.1, "{site:?}: energy CV gap {cv_gap}");
        }
    }

    #[test]
    fn counted_generation_reports_stream_costs() {
        for (version, site_config) in [
            (StreamVersion::V1, Site::Hsu.config()),
            (StreamVersion::V2, v2_config(Site::Hsu)),
        ] {
            let (trace, counters) = TraceGenerator::new(site_config, 7)
                .generate_days_counted(10)
                .unwrap();
            assert_eq!(trace.days(), 10);
            assert!(
                counters.keystream_blocks > 0,
                "{version:?}: no keystream accounted"
            );
            // At least one innovation + one noise normal per daylight
            // slot, plus the per-day header draws.
            assert!(
                counters.normal_draws > 2 * 10,
                "{version:?}: draws {}",
                counters.normal_draws
            );
        }
    }
}
