//! Fault and perturbation injectors.
//!
//! Faults come in two flavours that the engine treats differently:
//!
//! * **physical** faults change what actually happens to the node —
//!   [`FaultSpec::PanelOutage`] and [`FaultSpec::TraceGap`] zero the
//!   harvested energy, [`FaultSpec::StorageFade`] shrinks the store.
//! * **measurement** faults corrupt only what the predictor observes —
//!   [`FaultSpec::SensorDropout`] makes the sensor read zero while the
//!   panel keeps producing.
//!
//! The realization of stochastic faults (dropout draws, gap placement)
//! is a pure function of the injector seed, so every job evaluating the
//! same scenario — and both the prediction-metrics and the simulation
//! pass within one job — sees the *same* fault sequence.

use crate::json::Json;
use harvest_sim::SlotHook;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One declarative fault in a scenario.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultSpec {
    /// The panel produces nothing for `duration_days` starting at
    /// `start_day` (0-based) — a blown fuse, deep snow cover.
    PanelOutage {
        /// First affected day.
        start_day: usize,
        /// Number of affected days.
        duration_days: usize,
    },
    /// Storage capacity (and initial level) scaled by `capacity_factor`
    /// in `(0, 1]` — an aged supercap bank.
    StorageFade {
        /// Remaining fraction of nameplate capacity.
        capacity_factor: f64,
    },
    /// Each slot's measured sample independently reads 0 with
    /// probability `rate` — a flaky sensor or ADC brownout.
    SensorDropout {
        /// Per-slot dropout probability in `[0, 1]`.
        rate: f64,
    },
    /// Randomly placed spans where both harvest and measurement are zero
    /// — node resets, data-logger gaps.
    TraceGap {
        /// Expected gap count per 100 days.
        gaps_per_100_days: f64,
        /// Mean gap length in slots (exponential).
        mean_slots: f64,
    },
    /// The sky itself dims for a span of days: harvest *and* measurement
    /// scale by `factor` — a persistent storm system or a year-over-year
    /// climate anomaly (la-niña-style cloudier year). Unlike the sensor
    /// faults, this is physical ground truth, so the engine also scales
    /// the metrics-pass references by the same factor (see
    /// [`FaultInjector::sky_factor`]): accuracy is judged against the
    /// dimmed sky, not the counterfactual clean one. Deterministic (no
    /// RNG): the same span in several scenarios hits them all on the
    /// same days.
    ClimateDimming {
        /// First affected day (0-based).
        start_day: usize,
        /// Number of affected days.
        duration_days: usize,
        /// Remaining light fraction in `(0, 1]`.
        factor: f64,
    },
    /// Dust/pollen accumulates on the panel, linearly ramping harvest
    /// loss to `max_loss` over the span, then the panel is cleaned (rain
    /// or maintenance). The pyranometer is mounted separately and stays
    /// clean, so the predictor never sees the loss — the adversarial
    /// gap between observed irradiance and harvested energy.
    PanelSoiling {
        /// First affected day (0-based).
        start_day: usize,
        /// Days over which the loss ramps to `max_loss`.
        duration_days: usize,
        /// Peak harvest fraction lost, in `(0, 1]`.
        max_loss: f64,
    },
}

impl FaultSpec {
    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            FaultSpec::PanelOutage { duration_days, .. } => {
                if duration_days == 0 {
                    return Err("panel_outage duration_days must be at least 1".to_string());
                }
            }
            FaultSpec::StorageFade { capacity_factor } => {
                if !(capacity_factor.is_finite() && 0.0 < capacity_factor && capacity_factor <= 1.0)
                {
                    return Err(format!(
                        "storage_fade capacity_factor {capacity_factor} must be in (0, 1]"
                    ));
                }
            }
            FaultSpec::SensorDropout { rate } => {
                if !(rate.is_finite() && (0.0..=1.0).contains(&rate)) {
                    return Err(format!("sensor_dropout rate {rate} must be in [0, 1]"));
                }
            }
            FaultSpec::TraceGap {
                gaps_per_100_days,
                mean_slots,
            } => {
                if !(gaps_per_100_days.is_finite() && gaps_per_100_days >= 0.0) {
                    return Err("trace_gap gaps_per_100_days must be non-negative".to_string());
                }
                if !(mean_slots.is_finite() && mean_slots >= 1.0) {
                    return Err("trace_gap mean_slots must be at least 1".to_string());
                }
            }
            FaultSpec::ClimateDimming {
                duration_days,
                factor,
                ..
            } => {
                if duration_days == 0 {
                    return Err("climate_dimming duration_days must be at least 1".to_string());
                }
                if !(factor.is_finite() && 0.0 < factor && factor <= 1.0) {
                    return Err(format!("climate_dimming factor {factor} must be in (0, 1]"));
                }
            }
            FaultSpec::PanelSoiling {
                duration_days,
                max_loss,
                ..
            } => {
                if duration_days == 0 {
                    return Err("panel_soiling duration_days must be at least 1".to_string());
                }
                if !(max_loss.is_finite() && 0.0 < max_loss && max_loss <= 1.0) {
                    return Err(format!(
                        "panel_soiling max_loss {max_loss} must be in (0, 1]"
                    ));
                }
            }
        }
        Ok(())
    }

    /// JSON form (`{"kind": ..., ...}`).
    pub fn to_json(&self) -> Json {
        match *self {
            FaultSpec::PanelOutage {
                start_day,
                duration_days,
            } => Json::obj([
                ("kind", Json::Str("panel_outage".into())),
                ("start_day", Json::Num(start_day as f64)),
                ("duration_days", Json::Num(duration_days as f64)),
            ]),
            FaultSpec::StorageFade { capacity_factor } => Json::obj([
                ("kind", Json::Str("storage_fade".into())),
                ("capacity_factor", Json::Num(capacity_factor)),
            ]),
            FaultSpec::SensorDropout { rate } => Json::obj([
                ("kind", Json::Str("sensor_dropout".into())),
                ("rate", Json::Num(rate)),
            ]),
            FaultSpec::TraceGap {
                gaps_per_100_days,
                mean_slots,
            } => Json::obj([
                ("kind", Json::Str("trace_gap".into())),
                ("gaps_per_100_days", Json::Num(gaps_per_100_days)),
                ("mean_slots", Json::Num(mean_slots)),
            ]),
            FaultSpec::ClimateDimming {
                start_day,
                duration_days,
                factor,
            } => Json::obj([
                ("kind", Json::Str("climate_dimming".into())),
                ("start_day", Json::Num(start_day as f64)),
                ("duration_days", Json::Num(duration_days as f64)),
                ("factor", Json::Num(factor)),
            ]),
            FaultSpec::PanelSoiling {
                start_day,
                duration_days,
                max_loss,
            } => Json::obj([
                ("kind", Json::Str("panel_soiling".into())),
                ("start_day", Json::Num(start_day as f64)),
                ("duration_days", Json::Num(duration_days as f64)),
                ("max_loss", Json::Num(max_loss)),
            ]),
        }
    }

    /// Parses the JSON form.
    pub fn from_json(value: &Json) -> Result<FaultSpec, String> {
        let spec = match value.req_str("kind")? {
            "panel_outage" => FaultSpec::PanelOutage {
                start_day: value.req_index("start_day")? as usize,
                duration_days: value.req_index("duration_days")? as usize,
            },
            "storage_fade" => FaultSpec::StorageFade {
                capacity_factor: value.req_num("capacity_factor")?,
            },
            "sensor_dropout" => FaultSpec::SensorDropout {
                rate: value.req_num("rate")?,
            },
            "trace_gap" => FaultSpec::TraceGap {
                gaps_per_100_days: value.req_num("gaps_per_100_days")?,
                mean_slots: value.req_num("mean_slots")?,
            },
            "climate_dimming" => FaultSpec::ClimateDimming {
                start_day: value.req_index("start_day")? as usize,
                duration_days: value.req_index("duration_days")? as usize,
                factor: value.req_num("factor")?,
            },
            "panel_soiling" => FaultSpec::PanelSoiling {
                start_day: value.req_index("start_day")? as usize,
                duration_days: value.req_index("duration_days")? as usize,
                max_loss: value.req_num("max_loss")?,
            },
            other => return Err(format!("unknown fault kind {other:?}")),
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// Combined storage-capacity factor of a fault list (fades multiply).
pub fn storage_capacity_factor(faults: &[FaultSpec]) -> f64 {
    faults
        .iter()
        .map(|f| match *f {
            FaultSpec::StorageFade { capacity_factor } => capacity_factor,
            _ => 1.0,
        })
        .product()
}

/// The runtime realization of a scenario's fault list: a
/// [`SlotHook`] driving outages, gaps, and dropouts.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    /// Day ranges `[start, end)` with zero harvest.
    outage_days: Vec<(usize, usize)>,
    /// Absolute slot ranges `[start, end)` with zero harvest and zero
    /// measurement.
    gap_slots: Vec<(usize, usize)>,
    /// Day ranges `[start, end)` where harvest and measurement scale by
    /// a factor (dimming factors of overlapping spans multiply).
    dimming_days: Vec<(usize, usize, f64)>,
    /// Soiling ramps `(start, end, max_loss)` scaling harvest only.
    soiling_days: Vec<(usize, usize, f64)>,
    /// Per-slot measurement dropout probability (probabilities of
    /// multiple dropout faults combine as independent events).
    dropout_rate: f64,
    slots_per_day: usize,
    rng: ChaCha8Rng,
}

impl FaultInjector {
    /// Realizes `faults` over a `days × slots_per_day` horizon, with all
    /// randomness derived from `seed`.
    pub fn new(faults: &[FaultSpec], seed: u64, days: usize, slots_per_day: usize) -> Self {
        let mut placement_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6761_7073); // "gaps"
        let total_slots = days * slots_per_day;
        let mut outage_days = Vec::new();
        let mut gap_slots = Vec::new();
        let mut dimming_days = Vec::new();
        let mut soiling_days = Vec::new();
        let mut keep_rate = 1.0; // probability a sample survives all dropout faults
        for fault in faults {
            match *fault {
                FaultSpec::PanelOutage {
                    start_day,
                    duration_days,
                } => outage_days.push((start_day, start_day.saturating_add(duration_days))),
                FaultSpec::StorageFade { .. } => {} // applied to hardware, not slots
                FaultSpec::ClimateDimming {
                    start_day,
                    duration_days,
                    factor,
                } => {
                    dimming_days.push((start_day, start_day.saturating_add(duration_days), factor))
                }
                FaultSpec::PanelSoiling {
                    start_day,
                    duration_days,
                    max_loss,
                } => soiling_days.push((
                    start_day,
                    start_day.saturating_add(duration_days),
                    max_loss,
                )),
                FaultSpec::SensorDropout { rate } => keep_rate *= 1.0 - rate,
                FaultSpec::TraceGap {
                    gaps_per_100_days,
                    mean_slots,
                } => {
                    let expected = gaps_per_100_days * days as f64 / 100.0;
                    let count = solar_synth::sampling::poisson(expected, &mut placement_rng);
                    for _ in 0..count {
                        let start = (placement_rng.gen::<f64>() * total_slots as f64) as usize;
                        let len = (-mean_slots * placement_rng.gen::<f64>().max(1e-12).ln())
                            .ceil()
                            .max(1.0) as usize;
                        gap_slots.push((start, (start + len).min(total_slots)));
                    }
                }
            }
        }
        gap_slots.sort_unstable();
        FaultInjector {
            outage_days,
            gap_slots,
            dimming_days,
            soiling_days,
            dropout_rate: 1.0 - keep_rate,
            slots_per_day,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x6472_6f70), // "drop"
        }
    }

    /// The realized gap spans (absolute slot ranges), for diagnostics.
    pub fn gap_slots(&self) -> &[(usize, usize)] {
        &self.gap_slots
    }

    /// The day on which the first realized gap starts, if any gap was
    /// realized: every slot before that day is gap-free.
    pub(crate) fn first_gap_day(&self) -> Option<usize> {
        let first = self.gap_slots.first();
        first.map(|&(start, _)| start / self.slots_per_day)
    }

    /// Carries this injector on at `grown`'s horizon: it takes the gap
    /// list `grown` realized and keeps its own dropout RNG. From this
    /// injector's position on, it corrupts every slot exactly as
    /// `grown` does after walking the same slots: `on_slot` draws the
    /// dropout RNG once per slot whatever the horizon, gap placement
    /// has its own RNG, and every other fault is a function of the
    /// fault list alone. The slots already walked were corrupted alike
    /// only if no gap of either realization starts before this
    /// position; that is the caller's check.
    pub(crate) fn regap(&mut self, grown: &FaultInjector) {
        self.gap_slots.clone_from(&grown.gap_slots);
    }

    /// The sky's brightness factor on `day`: the product of every
    /// active [`FaultSpec::ClimateDimming`] span (1.0 outside them).
    /// Dimming is *physical sky state* — the engine scales the
    /// metrics-pass ground-truth references by this factor so accuracy
    /// is judged against the sky that actually existed, not the
    /// counterfactual clean one. Sensor faults and panel soiling do
    /// not contribute: they corrupt observation or harvest, not truth.
    pub fn sky_factor(&self, day: usize) -> f64 {
        let mut factor = 1.0;
        for &(start, end, f) in &self.dimming_days {
            if (start..end).contains(&day) {
                factor *= f;
            }
        }
        factor
    }

    /// The harvest fraction a soiling ramp leaves at `day`: loss ramps
    /// linearly from 0 at `start` to `max_loss` at `end`, then the panel
    /// is cleaned.
    fn soiling_factor(day: usize, start: usize, end: usize, max_loss: f64) -> f64 {
        if !(start..end).contains(&day) {
            return 1.0;
        }
        let span = (end - start) as f64;
        let progress = (day - start + 1) as f64 / span;
        1.0 - max_loss * progress
    }
}

impl SlotHook for FaultInjector {
    fn on_slot(&mut self, day: usize, slot: usize, harvest_j: &mut f64, measured: &mut f64) {
        // Unconditional draw: keeps the RNG stream aligned between the
        // metrics pass and the simulation pass of the same job.
        let dropout_draw: f64 = self.rng.gen();
        if self
            .outage_days
            .iter()
            .any(|&(start, end)| (start..end).contains(&day))
        {
            *harvest_j = 0.0;
        }
        let abs_slot = day * self.slots_per_day + slot;
        if self
            .gap_slots
            .iter()
            .any(|&(start, end)| (start..end).contains(&abs_slot))
        {
            *harvest_j = 0.0;
            *measured = 0.0;
        }
        for &(start, end, factor) in &self.dimming_days {
            if (start..end).contains(&day) {
                *harvest_j *= factor;
                *measured *= factor;
            }
        }
        for &(start, end, max_loss) in &self.soiling_days {
            *harvest_j *= Self::soiling_factor(day, start, end, max_loss);
        }
        if self.dropout_rate > 0.0 && dropout_draw < self.dropout_rate {
            *measured = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_bad_parameters() {
        assert!(FaultSpec::PanelOutage {
            start_day: 0,
            duration_days: 0
        }
        .validate()
        .is_err());
        assert!(FaultSpec::StorageFade {
            capacity_factor: 0.0
        }
        .validate()
        .is_err());
        assert!(FaultSpec::SensorDropout { rate: 1.5 }.validate().is_err());
        assert!(FaultSpec::TraceGap {
            gaps_per_100_days: -1.0,
            mean_slots: 4.0
        }
        .validate()
        .is_err());
        assert!(FaultSpec::TraceGap {
            gaps_per_100_days: 1.0,
            mean_slots: 0.5
        }
        .validate()
        .is_err());
        assert!(FaultSpec::ClimateDimming {
            start_day: 0,
            duration_days: 0,
            factor: 0.8
        }
        .validate()
        .is_err());
        assert!(FaultSpec::ClimateDimming {
            start_day: 0,
            duration_days: 10,
            factor: 1.5
        }
        .validate()
        .is_err());
        assert!(FaultSpec::PanelSoiling {
            start_day: 0,
            duration_days: 10,
            max_loss: 0.0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn measured_corruption_is_independent_of_the_harvest_argument() {
        // The single-pass engine realizes one corruption per slot and
        // shares the corrupted `measured` between the metrics pass
        // (which historically passed a dummy zero harvest) and the
        // simulation pass (which passes the physical harvest). That is
        // sound only while no fault's measured-mutation *reads* the
        // harvest argument — this test pins the invariant for every
        // fault kind at once. Extending `FaultInjector::on_slot` with a
        // measured-mutation that depends on harvest requires giving the
        // engine's pass halves separate injectors again.
        let faults = vec![
            FaultSpec::PanelOutage {
                start_day: 1,
                duration_days: 3,
            },
            FaultSpec::SensorDropout { rate: 0.4 },
            FaultSpec::TraceGap {
                gaps_per_100_days: 40.0,
                mean_slots: 6.0,
            },
            FaultSpec::ClimateDimming {
                start_day: 2,
                duration_days: 5,
                factor: 0.6,
            },
            FaultSpec::PanelSoiling {
                start_day: 0,
                duration_days: 8,
                max_loss: 0.5,
            },
            FaultSpec::StorageFade {
                capacity_factor: 0.5,
            },
        ];
        let (days, n) = (10usize, 24usize);
        let mut with_zero_harvest = FaultInjector::new(&faults, 99, days, n);
        let mut with_real_harvest = FaultInjector::new(&faults, 99, days, n);
        for day in 0..days {
            for slot in 0..n {
                let sample = (day * n + slot) as f64 * 3.5;
                let mut harvest_a = 0.0;
                let mut measured_a = sample;
                with_zero_harvest.on_slot(day, slot, &mut harvest_a, &mut measured_a);
                let mut harvest_b = 1.0e6 + slot as f64;
                let mut measured_b = sample;
                with_real_harvest.on_slot(day, slot, &mut harvest_b, &mut measured_b);
                assert_eq!(
                    measured_a.to_bits(),
                    measured_b.to_bits(),
                    "day {day} slot {slot}: measured depends on harvest"
                );
            }
        }
    }

    #[test]
    fn sky_factor_is_the_dimming_product_and_ignores_other_faults() {
        let faults = [
            FaultSpec::ClimateDimming {
                start_day: 2,
                duration_days: 4,
                factor: 0.5,
            },
            FaultSpec::ClimateDimming {
                start_day: 4,
                duration_days: 2,
                factor: 0.8,
            },
            FaultSpec::PanelSoiling {
                start_day: 0,
                duration_days: 10,
                max_loss: 0.9,
            },
            FaultSpec::SensorDropout { rate: 0.5 },
        ];
        let injector = FaultInjector::new(&faults, 1, 10, 24);
        assert_eq!(injector.sky_factor(0), 1.0);
        assert_eq!(injector.sky_factor(2), 0.5);
        assert!((injector.sky_factor(4) - 0.4).abs() < 1e-12);
        assert_eq!(injector.sky_factor(6), 1.0);
    }

    #[test]
    fn dimming_scales_both_harvest_and_measurement() {
        let faults = [FaultSpec::ClimateDimming {
            start_day: 2,
            duration_days: 3,
            factor: 0.5,
        }];
        let mut injector = FaultInjector::new(&faults, 1, 10, 24);
        let (mut h, mut m) = (10.0, 600.0);
        injector.on_slot(3, 0, &mut h, &mut m);
        assert_eq!((h, m), (5.0, 300.0));
        let (mut h, mut m) = (10.0, 600.0);
        injector.on_slot(6, 0, &mut h, &mut m);
        assert_eq!((h, m), (10.0, 600.0));
    }

    #[test]
    fn soiling_ramps_harvest_only_then_cleans() {
        let faults = [FaultSpec::PanelSoiling {
            start_day: 0,
            duration_days: 10,
            max_loss: 0.5,
        }];
        let mut injector = FaultInjector::new(&faults, 1, 20, 24);
        // Day 9 is fully soiled: loss = max_loss.
        let (mut h, mut m) = (10.0, 600.0);
        injector.on_slot(9, 0, &mut h, &mut m);
        assert!((h - 5.0).abs() < 1e-12, "h {h}");
        assert_eq!(m, 600.0, "sensor stays clean");
        // Day 4 is half-way: loss = 0.25.
        let (mut h, mut m) = (10.0, 600.0);
        injector.on_slot(4, 0, &mut h, &mut m);
        assert!((h - 7.5).abs() < 1e-12, "h {h}");
        let _ = m;
        // Day 10: cleaned.
        let (mut h, mut m) = (10.0, 600.0);
        injector.on_slot(10, 0, &mut h, &mut m);
        assert_eq!(h, 10.0);
        let _ = m;
    }

    #[test]
    fn json_round_trips_every_kind() {
        let specs = [
            FaultSpec::PanelOutage {
                start_day: 25,
                duration_days: 5,
            },
            FaultSpec::StorageFade {
                capacity_factor: 0.5,
            },
            FaultSpec::SensorDropout { rate: 0.05 },
            FaultSpec::TraceGap {
                gaps_per_100_days: 3.0,
                mean_slots: 4.0,
            },
            FaultSpec::ClimateDimming {
                start_day: 365,
                duration_days: 365,
                factor: 0.82,
            },
            FaultSpec::PanelSoiling {
                start_day: 30,
                duration_days: 60,
                max_loss: 0.4,
            },
        ];
        for spec in specs {
            let back = FaultSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(back, spec);
        }
        assert!(FaultSpec::from_json(&Json::obj([("kind", Json::Str("meteor".into()))])).is_err());
    }

    #[test]
    fn outage_zeroes_harvest_not_measurement() {
        let faults = [FaultSpec::PanelOutage {
            start_day: 2,
            duration_days: 1,
        }];
        let mut injector = FaultInjector::new(&faults, 1, 5, 24);
        let mut harvest = 10.0;
        let mut measured = 700.0;
        injector.on_slot(2, 5, &mut harvest, &mut measured);
        assert_eq!(harvest, 0.0);
        assert_eq!(measured, 700.0);
        let mut harvest = 10.0;
        injector.on_slot(3, 5, &mut harvest, &mut measured);
        assert_eq!(harvest, 10.0);
    }

    #[test]
    fn injectors_with_equal_seeds_realize_identical_faults() {
        let faults = [
            FaultSpec::SensorDropout { rate: 0.2 },
            FaultSpec::TraceGap {
                gaps_per_100_days: 50.0,
                mean_slots: 6.0,
            },
        ];
        let mut a = FaultInjector::new(&faults, 99, 30, 48);
        let mut b = FaultInjector::new(&faults, 99, 30, 48);
        assert_eq!(a.gap_slots(), b.gap_slots());
        for day in 0..30 {
            for slot in 0..48 {
                let (mut ha, mut ma) = (5.0, 400.0);
                let (mut hb, mut mb) = (5.0, 400.0);
                a.on_slot(day, slot, &mut ha, &mut ma);
                b.on_slot(day, slot, &mut hb, &mut mb);
                assert_eq!((ha, ma), (hb, mb));
            }
        }
    }

    #[test]
    fn regapped_injector_continues_at_the_grown_horizon() {
        // Walk a 30-day realization to the day of its first gap, then
        // regap it with the 31-day realization: when no 31-day gap
        // starts earlier, every later slot corrupts as the 31-day
        // injector walked from day zero corrupts it.
        let faults = [
            FaultSpec::SensorDropout { rate: 0.2 },
            FaultSpec::TraceGap {
                gaps_per_100_days: 20.0,
                mean_slots: 30.0,
            },
        ];
        let mut continued = 0;
        for seed in 0..40 {
            let mut base = FaultInjector::new(&faults, seed, 30, 48);
            let mut grown = FaultInjector::new(&faults, seed, 31, 48);
            let Some(rung) = base.first_gap_day() else {
                continue;
            };
            if grown.first_gap_day().is_some_and(|day| day < rung) {
                continue;
            }
            for day in 0..31 {
                if day == rung {
                    base.regap(&grown);
                }
                for slot in 0..48 {
                    let (mut ha, mut ma) = (5.0, 400.0);
                    let (mut hb, mut mb) = (5.0, 400.0);
                    base.on_slot(day, slot, &mut ha, &mut ma);
                    grown.on_slot(day, slot, &mut hb, &mut mb);
                    assert_eq!((ha, ma), (hb, mb), "seed {seed} day {day} slot {slot}");
                }
            }
            continued += usize::from(rung > 0);
        }
        assert!(continued > 5, "only {continued} seeds continued past day 0");
    }

    #[test]
    fn dropout_rate_is_roughly_respected() {
        let faults = [FaultSpec::SensorDropout { rate: 0.25 }];
        let mut injector = FaultInjector::new(&faults, 7, 100, 48);
        let mut dropped = 0;
        let total = 100 * 48;
        for day in 0..100 {
            for slot in 0..48 {
                let mut h = 1.0;
                let mut m = 500.0;
                injector.on_slot(day, slot, &mut h, &mut m);
                if m == 0.0 {
                    dropped += 1;
                }
            }
        }
        let rate = dropped as f64 / total as f64;
        assert!((rate - 0.25).abs() < 0.03, "observed dropout {rate}");
    }

    #[test]
    fn fade_factors_multiply() {
        let faults = [
            FaultSpec::StorageFade {
                capacity_factor: 0.5,
            },
            FaultSpec::StorageFade {
                capacity_factor: 0.8,
            },
            FaultSpec::SensorDropout { rate: 0.1 },
        ];
        assert!((storage_capacity_factor(&faults) - 0.4).abs() < 1e-12);
        assert_eq!(storage_capacity_factor(&[]), 1.0);
    }
}
