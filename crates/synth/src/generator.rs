//! Deterministic synthetic-trace generation.

use crate::geometry;
use crate::lanes::{NormalSource, SynthCounters};
use crate::sampling::{poisson, poisson_inversion};
use crate::site::SiteConfig;
use crate::weather::{ConditionParams, DayCondition, StreamVersion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use solar_trace::{PowerTrace, Resolution, TraceError};
use std::sync::{Arc, Mutex, Weak};

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

    /// Multiplies the factor into `day` (one value per sample, `step_h`
    /// hours apart) over the samples of the event's window only. The
    /// index bounds are conservative by a whole sample, and outside the
    /// window the factor is exactly 1.0, so the result is bit-identical
    /// to multiplying every sample.
    fn attenuate(&self, day: &mut [f64], step_h: f64) {
        let last = day.len() - 1;
        let lo = ((self.centre_h - self.half_width_h) / step_h)
            .floor()
            .max(0.0) as usize;
        let hi = (((self.centre_h + self.half_width_h) / step_h).ceil() as usize).min(last);
        let lo = lo.min(hi);
        for (offset, value) in day[lo..=hi].iter_mut().enumerate() {
            *value *= self.factor((lo + offset) as f64 * step_h);
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

    /// The batch generation with its per-day conditions and its
    /// deterministic synthesis-cost counters (keystream blocks
    /// consumed, normal draws served), which match a slot stream's over
    /// the same days.
    pub(crate) fn generate_counted(
        &self,
        days: usize,
    ) -> Result<(PowerTrace, Vec<DayCondition>, SynthCounters), TraceError> {
        let res = self.config.resolution;
        let spd = res.samples_per_day();
        let mut state = self.day_state();
        let mut scratch = DayScratch::default();
        let mut samples = Vec::with_capacity(days * spd);
        let mut conditions = Vec::with_capacity(days);
        let mut day_buf = Vec::with_capacity(spd);
        for day in 0..days {
            conditions.push(self.generate_day_into(&mut state, &mut scratch, day, &mut day_buf));
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
        DayState {
            rng,
            condition,
            // AR(1) deviation, persisted across days so dawn continues
            // the previous evening's air mass rather than resetting.
            ar_state: 0.0,
            rho,
            innovation_scale: (1.0 - rho * rho).sqrt(),
            // The per-day transcendentals live in `DayGeometry`.
            cos_hour: shared_hour_grid(res),
            // The normal supply fixes the draw order for the life of
            // the stream: scalar per-draw Box–Muller on v1, batched
            // pairwise lanes on v2.
            normals: match weather.stream_version {
                StreamVersion::V1 => NormalSource::scalar(),
                StreamVersion::V2 => NormalSource::lanes(),
            },
        }
    }

    /// Generates one day of samples into `out` (replacing its contents),
    /// advancing the carried state; returns the day's condition. This is
    /// the single source of every sample both `generate_*` and the
    /// streaming [`crate::SlotStream`] emit. `scratch` holds the day's
    /// panels; its contents on entry do not matter.
    ///
    /// Both stream versions draw the same day header first (see
    /// [`TraceGenerator::day_header`]), then dispatch on the site's
    /// [`StreamVersion`](crate::weather::StreamVersion): the two bodies
    /// sample the same model through the same passes, but consume the
    /// keystream in different orders (each order is pinned by its own
    /// golden digest and, sample by sample, by `tests/raw_stream_pin.rs`).
    pub(crate) fn generate_day_into(
        &self,
        state: &mut DayState,
        scratch: &mut DayScratch,
        day: usize,
        out: &mut Vec<f64>,
    ) -> DayCondition {
        let version = self.config.weather.stream_version;
        let header = self.day_header(state, scratch, day, version);
        match version {
            StreamVersion::V1 => self.generate_day_v1(state, scratch, &header, out),
            StreamVersion::V2 => self.generate_day_v2(state, scratch, &header, out),
        }
        header.condition
    }

    /// Draws the day header: the condition step, base clearness, drift
    /// slope, the time-sorted frontal passages (into `scratch.fronts`)
    /// and the cloud transits (into `scratch.transits`), in that RNG
    /// order. The version only selects the Poisson count sampler: Knuth
    /// on v1, CDF inversion on v2.
    fn day_header(
        &self,
        state: &mut DayState,
        scratch: &mut DayScratch,
        day: usize,
        version: StreamVersion,
    ) -> DayHeader {
        let weather = &self.config.weather;
        let DayState {
            rng,
            condition,
            normals,
            ..
        } = state;
        let count = |lambda: f64, rng: &mut ChaCha8Rng| match version {
            StreamVersion::V1 => poisson(lambda, rng),
            StreamVersion::V2 => poisson_inversion(lambda, rng),
        };

        let doy = (day % 365) as u32 + 1;
        *condition = weather.step(*condition, rng);
        let params = weather.params(*condition);
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
            * weather.seasonal_amplitude
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
        let front_count = count(weather.fronts_per_day, rng);
        let fronts = &mut scratch.fronts;
        fronts.clear();
        fronts.extend((0..front_count).map(|_| {
            let t_h = 6.0 + rng.gen::<f64>() * 12.0; // daylight hours
            (t_h, weather.front_std * normals.next(rng))
        }));
        fronts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("front times are finite"));

        // Cloud transits over the daylight window: the per-event draws
        // are uniform-only.
        let transits = &mut scratch.transits;
        transits.clear();
        let day_len = geometry::day_length_hours(self.config.latitude_deg, doy);
        if day_len > 0.0 && params.transits_per_hour > 0.0 {
            let sunrise = 12.0 - day_len / 2.0;
            let transit_count = count(params.transits_per_hour * day_len, rng);
            let (depth_lo, depth_hi) = weather.transit_depth;
            transits.extend((0..transit_count).map(|_| {
                let centre_h = sunrise + rng.gen::<f64>() * day_len;
                let duration_min = (-weather.transit_mean_minutes
                    * rng.gen::<f64>().max(1e-12).ln())
                .clamp(1.0, 90.0);
                Transit {
                    centre_h,
                    half_width_h: duration_min / 60.0 / 2.0,
                    depth: depth_lo + rng.gen::<f64>() * (depth_hi - depth_lo),
                }
            }));
        }

        DayHeader {
            condition: *condition,
            params,
            geometry: geometry::DayGeometry::new(self.config.latitude_deg, doy),
            base_clearness,
            drift_slope,
        }
    }

    /// Passes 1–2 of both day bodies: the clear-sky GHI per sample into
    /// `scratch.clear` (pure geometry, no RNG; turbidity scales the
    /// cloudless ceiling itself, and at the default 0.0 the factor is
    /// exactly 1.0), then one bulk fill of two normals per daylight
    /// sample (positive GHI) into `scratch.normal_panel`. Returns the
    /// daylight count.
    fn day_panels(
        &self,
        state: &mut DayState,
        scratch: &mut DayScratch,
        header: &DayHeader,
    ) -> usize {
        let clear = &mut scratch.clear;
        clear.clear();
        clear.extend(state.cos_hour.iter().map(|&cos_omega| {
            self.config
                .clear_sky
                .ghi(header.geometry.sin_elevation(cos_omega))
                * (1.0 - self.config.turbidity)
        }));
        let daylight = clear.iter().filter(|&&ghi| ghi > 0.0).count();
        scratch.normal_panel.resize(2 * daylight, 0.0);
        state
            .normals
            .fill(&mut state.rng, &mut scratch.normal_panel);
        daylight
    }

    /// The v1 (scalar-order) day body. Its draw order is pinned byte for
    /// byte by the v1 golden digests, so the passes below are the
    /// contract — each keeps, per sample, the exact draws, libm calls
    /// and float ops of the original one-sample-at-a-time loop. After the
    /// shared day header (Knuth Poisson counts):
    ///
    /// 1. clear-sky GHI per sample;
    /// 2. one bulk scalar Box–Muller fill of `2 × daylight` normals —
    ///    for each daylight sample in time order, its AR(1) innovation
    ///    then its sensor noise, exactly the order the per-sample loop
    ///    drew them (the sin half of every pair is discarded);
    /// 3. the AR(1) walk writing each daylight sample's clamped
    ///    clearness into `out` (night samples decay the AR state and
    ///    stay 0);
    /// 4. each transit, in list order, multiplied into the clearness over
    ///    its own window only — outside it the factor is exactly 1.0, so
    ///    skipping those samples leaves every product bit-unchanged;
    /// 5. `GHI × clearness × noise`, then the pyranometer floor.
    fn generate_day_v1(
        &self,
        state: &mut DayState,
        scratch: &mut DayScratch,
        header: &DayHeader,
        out: &mut Vec<f64>,
    ) {
        let step_h = self.config.resolution.as_seconds_f64() / 3600.0;
        self.day_panels(state, scratch, header);
        let panel = &scratch.normal_panel;
        state.clearness_walk(
            header,
            &scratch.fronts,
            &scratch.clear,
            step_h,
            panel.iter().step_by(2),
            out,
        );
        for transit in &scratch.transits {
            transit.attenuate(out, step_h);
        }
        let noise = panel.iter().skip(1).step_by(2);
        apply_noise(
            out,
            &scratch.clear,
            self.config.weather.sensor_noise_std,
            noise,
        );
        pyranometer_floor(out);
    }

    /// The v2 (lane-order) day body: the same weather model as v1, but
    /// the keystream is consumed in structure-of-arrays order. After the
    /// shared day header (whose Poisson counts use the single-uniform
    /// inversion sampler), one bulk fill draws every AR(1) innovation of
    /// the day's daylight samples, then every sensor-noise normal.
    /// Normals come pairwise from the lane source (both Box–Muller
    /// halves consumed), and transits multiply the noisy value rather
    /// than the clearness, which is what makes this a different — and
    /// faster — stream from v1.
    fn generate_day_v2(
        &self,
        state: &mut DayState,
        scratch: &mut DayScratch,
        header: &DayHeader,
        out: &mut Vec<f64>,
    ) {
        let step_h = self.config.resolution.as_seconds_f64() / 3600.0;
        let daylight = self.day_panels(state, scratch, header);
        let (innovations, noise) = scratch.normal_panel.split_at(daylight);
        state.clearness_walk(
            header,
            &scratch.fronts,
            &scratch.clear,
            step_h,
            innovations.iter(),
            out,
        );
        apply_noise(
            out,
            &scratch.clear,
            self.config.weather.sensor_noise_std,
            noise.iter(),
        );
        // Night samples are 0 and stay 0 under the transit products.
        for transit in &scratch.transits {
            transit.attenuate(out, step_h);
        }
        pyranometer_floor(out);
    }
}

/// Multiplies each daylight sample's clearness in `day` by its
/// clear-sky GHI and then by its sensor-noise factor `1 + σ·n`, taking
/// `n` from `noise` in time order; night samples stay 0.
fn apply_noise<'a>(
    day: &mut [f64],
    clear: &[f64],
    sensor_noise_std: f64,
    mut noise: impl Iterator<Item = &'a f64>,
) {
    for (value, &ghi) in day.iter_mut().zip(clear) {
        if ghi > 0.0 {
            let draw = noise.next().expect("one noise normal per daylight sample");
            *value = ghi * *value * (1.0 + sensor_noise_std * draw);
        }
    }
}

/// The pyranometer noise floor: real instruments report ~0 below
/// ~1 W/m²; without this, grazing-sun samples of 1e-20 W/m² would
/// appear and historical means at dawn slots would be meaninglessly
/// tiny. Negative values are below 1 W/m² too.
fn pyranometer_floor(day: &mut [f64]) {
    for value in day.iter_mut() {
        if *value < 1.0 {
            *value = 0.0;
        }
    }
}

/// The `cos ω` grid of `resolution`, one per resolution for the whole
/// process: the grid depends only on the sample spacing, so every stream
/// and every checkpoint at that resolution shares it, and a cached tail
/// holds no grid of its own. A grid nothing holds any more is dropped
/// and rebuilt on the next request.
fn shared_hour_grid(resolution: Resolution) -> Arc<[f64]> {
    static GRIDS: Mutex<Vec<(Resolution, Weak<[f64]>)>> = Mutex::new(Vec::new());
    let mut grids = GRIDS
        .lock()
        .expect("no thread panics while holding the grid registry");
    if let Some(grid) = grids
        .iter()
        .find(|(res, _)| *res == resolution)
        .and_then(|(_, grid)| grid.upgrade())
    {
        return grid;
    }
    let step_h = resolution.as_seconds_f64() / 3600.0;
    let grid: Arc<[f64]> = geometry::hour_cosine_grid(resolution.samples_per_day(), step_h).into();
    grids.retain(|(res, held)| *res != resolution && held.strong_count() > 0);
    grids.push((resolution, Arc::downgrade(&grid)));
    grid
}

/// The day-constant draws and geometry a day body works from.
struct DayHeader {
    condition: DayCondition,
    params: ConditionParams,
    geometry: geometry::DayGeometry,
    base_clearness: f64,
    drift_slope: f64,
}

/// The RNG/weather state carried from one generated day into the next —
/// everything a [`SynthCheckpoint`] has to keep, and nothing else.
/// Shared by the batch and streaming generation paths.
#[derive(Clone, Debug)]
pub(crate) struct DayState {
    rng: ChaCha8Rng,
    condition: DayCondition,
    ar_state: f64,
    rho: f64,
    innovation_scale: f64,
    /// `cos ω` per sample index, shared by every state at the same
    /// resolution ([`shared_hour_grid`]).
    cos_hour: Arc<[f64]>,
    /// The stream's normal supply (scalar on v1, batched lanes on v2).
    normals: NormalSource,
}

impl DayState {
    /// Pass 3 of both day bodies, the AR(1) clearness walk: writes into
    /// `out`, per sample, the clamped clearness `base + drift + fronts
    /// so far + AR(1)` of a daylight sample (positive `clear`), taking
    /// one innovation from `innovations` for each; night samples decay
    /// the AR state and write 0. Front shifts accumulate with a moving
    /// pointer over the time-sorted fronts, in prefix-sum order (a fresh
    /// per-sample sum could differ only in the sign of a zero, which the
    /// clamp erases).
    fn clearness_walk<'a>(
        &mut self,
        header: &DayHeader,
        fronts: &[(f64, f64)],
        clear: &[f64],
        step_h: f64,
        mut innovations: impl Iterator<Item = &'a f64>,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        let mut front_ptr = 0usize;
        let mut front_shift = 0.0f64;
        for (idx, &ghi) in clear.iter().enumerate() {
            if ghi <= 0.0 {
                self.ar_state *= self.rho; // decay quietly overnight
                out.push(0.0);
                continue;
            }
            let t_h = idx as f64 * step_h;
            let innovation = innovations
                .next()
                .expect("one innovation per daylight sample");
            self.ar_state = self.rho * self.ar_state
                + header.params.ar_sigma * self.innovation_scale * innovation;
            let drift = header.drift_slope * (t_h - 12.0) / 12.0;
            while front_ptr < fronts.len() && fronts[front_ptr].0 <= t_h {
                front_shift += fronts[front_ptr].1;
                front_ptr += 1;
            }
            out.push(
                (header.base_clearness + drift + front_shift + self.ar_state).clamp(0.02, 1.08),
            );
        }
    }

    /// Synthesis-cost counters at the stream's current position.
    pub(crate) fn counters(&self) -> SynthCounters {
        SynthCounters::at(&self.rng, self.normals.draws())
    }

    /// Heap bytes this state owns outright (the shared hour grid is not
    /// counted).
    #[cfg(test)]
    pub(crate) fn owned_heap_bytes(&self) -> usize {
        self.normals.heap_bytes()
    }

    /// Whether `other` reads the same hour-cosine grid allocation.
    #[cfg(test)]
    pub(crate) fn shares_hour_grid(&self, other: &DayState) -> bool {
        Arc::ptr_eq(&self.cos_hour, &other.cos_hour)
    }
}

/// Per-day scratch: the buffers a day body rebuilds from nothing every
/// day. It lives with the generating loop or stream, never in
/// [`DayState`], so a checkpoint copies none of it; reusing one across
/// days makes day generation allocation-free in steady state.
#[derive(Clone, Debug, Default)]
pub(crate) struct DayScratch {
    /// Frontal passages: `(time_h, clearness_shift)`, time-sorted.
    fronts: Vec<(f64, f64)>,
    /// Cloud transits, in draw order.
    transits: Vec<Transit>,
    /// Clear-sky GHI per sample.
    clear: Vec<f64>,
    /// Two normals per daylight sample, in draw order (v1: innovation
    /// and noise per sample; v2: all innovations, then all noise).
    normal_panel: Vec<f64>,
}

impl DayScratch {
    /// Heap bytes the scratch currently holds.
    #[cfg(test)]
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.fronts.capacity() * std::mem::size_of::<(f64, f64)>()
            + self.transits.capacity() * std::mem::size_of::<Transit>()
            + (self.clear.capacity() + self.normal_panel.capacity()) * std::mem::size_of::<f64>()
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
            let (trace, _, counters) = TraceGenerator::new(site_config, 7)
                .generate_counted(10)
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
