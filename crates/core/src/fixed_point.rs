//! Q16.16 fixed-point WCMA kernel — what a deployed MSP430 actually runs.
//!
//! The paper measures the prediction algorithm's energy on an MSP430F1611,
//! a 16-bit MCU with no FPU: real deployments run either software floating
//! point (the paper's measured numbers) or fixed-point arithmetic. This
//! module provides a faithful Q16.16 kernel so that
//!
//! * the `msp430-energy` crate can cost both arithmetic styles, and
//! * the accuracy cost of quantization can be measured (the
//!   `fixedpoint` ablation experiment shows it is negligible next to the
//!   prediction error itself).

use crate::history::DayHistory;
use crate::params::WcmaParams;
use crate::predictor::Predictor;
use std::collections::VecDeque;

/// A Q16.16 fixed-point number (16 integer bits, 16 fractional bits),
/// with saturating arithmetic.
///
/// Range: ±32767.99998; resolution: ~1.5e-5. Solar irradiance in W/m²
/// (≤ ~1400) fits comfortably.
///
/// # Example
///
/// ```
/// use solar_predict::fixed_point::Q16;
///
/// let a = Q16::from_f64(1.5);
/// let b = Q16::from_f64(2.0);
/// assert_eq!((a * b).to_f64(), 3.0);
/// assert!(((b / a).to_f64() - 2.0 / 1.5).abs() < 1e-4);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Q16(i32);

impl Q16 {
    /// The value 0.
    pub const ZERO: Q16 = Q16(0);
    /// The value 1.
    pub const ONE: Q16 = Q16(1 << 16);
    /// Largest representable value.
    pub const MAX: Q16 = Q16(i32::MAX);
    /// Smallest representable value.
    pub const MIN: Q16 = Q16(i32::MIN);

    /// Converts from `f64`, saturating outside the representable range.
    pub fn from_f64(value: f64) -> Q16 {
        if value.is_nan() {
            return Q16::ZERO;
        }
        let scaled = value * 65536.0;
        if scaled >= i32::MAX as f64 {
            Q16::MAX
        } else if scaled <= i32::MIN as f64 {
            Q16::MIN
        } else {
            Q16(scaled.round() as i32)
        }
    }

    /// The ratio `num / den` as Q16, saturating; `den == 0` yields
    /// [`Q16::ONE`] (the WCMA-neutral value).
    pub fn from_ratio(num: i32, den: i32) -> Q16 {
        if den == 0 {
            return Q16::ONE;
        }
        let raw = ((num as i64) << 16) / den as i64;
        Q16(raw.clamp(i32::MIN as i64, i32::MAX as i64) as i32)
    }

    /// Converts to `f64`.
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / 65536.0
    }

    /// The raw fixed-point bits.
    pub fn raw(self) -> i32 {
        self.0
    }

    /// Saturating multiplication.
    pub fn saturating_mul(self, rhs: Q16) -> Q16 {
        let wide = (self.0 as i64 * rhs.0 as i64) >> 16;
        Q16(wide.clamp(i32::MIN as i64, i32::MAX as i64) as i32)
    }

    /// Saturating division; division by zero returns [`Q16::MAX`] (or
    /// `MIN` for a negative numerator) rather than panicking, mirroring
    /// what guarded MCU code does.
    pub fn saturating_div(self, rhs: Q16) -> Q16 {
        if rhs.0 == 0 {
            return if self.0 >= 0 { Q16::MAX } else { Q16::MIN };
        }
        let wide = ((self.0 as i64) << 16) / rhs.0 as i64;
        Q16(wide.clamp(i32::MIN as i64, i32::MAX as i64) as i32)
    }

    /// `true` if the value is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl std::ops::Add for Q16 {
    type Output = Q16;
    fn add(self, rhs: Q16) -> Q16 {
        Q16(self.0.saturating_add(rhs.0))
    }
}

impl std::ops::Sub for Q16 {
    type Output = Q16;
    fn sub(self, rhs: Q16) -> Q16 {
        Q16(self.0.saturating_sub(rhs.0))
    }
}

impl std::ops::Mul for Q16 {
    type Output = Q16;
    fn mul(self, rhs: Q16) -> Q16 {
        self.saturating_mul(rhs)
    }
}

impl std::ops::Div for Q16 {
    type Output = Q16;
    fn div(self, rhs: Q16) -> Q16 {
        self.saturating_div(rhs)
    }
}

impl std::fmt::Display for Q16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.5}", self.to_f64())
    }
}

impl From<Q16> for f64 {
    fn from(value: Q16) -> f64 {
        value.to_f64()
    }
}

/// WCMA computed entirely in Q16.16 — bit-faithful to an MCU fixed-point
/// port, exposed through the same [`Predictor`] interface as the `f64`
/// version so the two can be compared record-for-record.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use solar_predict::fixed_point::FixedWcmaPredictor;
/// use solar_predict::{Predictor, WcmaParams};
///
/// let params = WcmaParams::new(0.7, 5, 2, 24)?;
/// let mut fixed = FixedWcmaPredictor::new(params);
/// let pred = fixed.observe_and_predict(640.0);
/// assert!((pred - 640.0).abs() < 0.01); // warm-up persistence
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct FixedWcmaPredictor {
    params: WcmaParams,
    alpha: Q16,
    one_minus_alpha: Q16,
    history: DayHistory,
    current: Vec<f64>,
    /// Current-day values in fixed point (kept alongside `current` so the
    /// day can be pushed into the shared f64 history container — the
    /// quantization already happened on the way in).
    cursor: usize,
    ratios: VecDeque<Q16>,
}

impl FixedWcmaPredictor {
    /// Creates a fixed-point WCMA predictor. The α weight and every input
    /// sample are quantized to Q16.16 on entry.
    pub fn new(params: WcmaParams) -> Self {
        FixedWcmaPredictor {
            alpha: Q16::from_f64(params.alpha()),
            one_minus_alpha: Q16::from_f64(1.0 - params.alpha()),
            history: DayHistory::new(params.slots_per_day(), params.days()),
            current: vec![0.0; params.slots_per_day()],
            cursor: 0,
            ratios: VecDeque::with_capacity(params.k()),
            params,
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &WcmaParams {
        &self.params
    }

    /// Quantized mean of the target slot in Q16.
    fn mu_q(&self, slot: usize) -> Option<Q16> {
        self.history
            .mean(slot, self.params.days())
            .map(Q16::from_f64)
    }

    fn phi_q(&self) -> Q16 {
        let k_total = self.params.k();
        let mut num = Q16::ZERO;
        let mut den = Q16::ZERO;
        for i in 0..k_total {
            let theta = Q16::from_ratio((k_total - i) as i32, k_total as i32);
            let eta = self.ratios.get(i).copied().unwrap_or(Q16::ONE);
            num = num + theta * eta;
            den = den + theta;
        }
        if den.is_zero() {
            Q16::ONE
        } else {
            num / den
        }
    }
}

impl Predictor for FixedWcmaPredictor {
    fn observe_and_predict(&mut self, measured: f64) -> f64 {
        let n = self.params.slots_per_day();
        let measured_q = Q16::from_f64(measured);
        // Store the quantized value so history means reflect what the MCU
        // would hold.
        self.current[self.cursor] = measured_q.to_f64();

        let eta = match self.mu_q(self.cursor) {
            Some(mu) if !mu.is_zero() => {
                let cap = Q16::from_f64(crate::wcma::MAX_CONDITIONING_RATIO);
                (measured_q / mu).min(cap)
            }
            _ => Q16::ONE,
        };
        if self.ratios.len() == self.params.k() {
            self.ratios.pop_back();
        }
        self.ratios.push_front(eta);

        let phi = self.phi_q();

        let target = (self.cursor + 1) % n;
        if self.cursor + 1 == n {
            let finished = std::mem::replace(&mut self.current, vec![0.0; n]);
            self.history.push_day(&finished);
            self.cursor = 0;
        } else {
            self.cursor += 1;
        }

        match self.mu_q(target) {
            Some(mu_next) => {
                let conditioned = mu_next * phi;
                let pred = self.alpha * measured_q + self.one_minus_alpha * conditioned;
                pred.to_f64().max(0.0)
            }
            None => measured_q.to_f64(),
        }
    }

    fn slots_per_day(&self) -> usize {
        self.params.slots_per_day()
    }

    fn reset(&mut self) {
        self.history.clear();
        self.current.fill(0.0);
        self.cursor = 0;
        self.ratios.clear();
    }

    fn name(&self) -> &str {
        "wcma-q16"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_predictor;
    use crate::wcma::WcmaPredictor;
    use solar_trace::{PowerTrace, Resolution, SlotView, SlotsPerDay};

    #[test]
    fn q16_round_trips_representable_values() {
        for v in [0.0, 1.0, -1.0, 0.5, 1023.25, -512.75, 32767.0] {
            assert!((Q16::from_f64(v).to_f64() - v).abs() < 1.0 / 65536.0, "{v}");
        }
    }

    #[test]
    fn q16_saturates() {
        assert_eq!(Q16::from_f64(1e9), Q16::MAX);
        assert_eq!(Q16::from_f64(-1e9), Q16::MIN);
        assert_eq!(Q16::MAX + Q16::ONE, Q16::MAX);
        assert_eq!(Q16::from_f64(30000.0) * Q16::from_f64(30000.0), Q16::MAX);
        assert_eq!(Q16::from_f64(f64::NAN), Q16::ZERO);
    }

    #[test]
    fn q16_arithmetic_basics() {
        let a = Q16::from_f64(3.0);
        let b = Q16::from_f64(1.5);
        assert_eq!((a * b).to_f64(), 4.5);
        assert_eq!((a / b).to_f64(), 2.0);
        assert_eq!((a - b).to_f64(), 1.5);
        assert_eq!((a + b).to_f64(), 4.5);
    }

    #[test]
    fn q16_division_by_zero_saturates() {
        assert_eq!(Q16::ONE / Q16::ZERO, Q16::MAX);
        assert_eq!(Q16::from_f64(-1.0) / Q16::ZERO, Q16::MIN);
        assert_eq!(Q16::from_ratio(1, 0), Q16::ONE);
    }

    #[test]
    fn q16_from_ratio_matches_float() {
        for (n, d) in [(1, 2), (2, 3), (5, 6), (6, 6)] {
            let q = Q16::from_ratio(n, d).to_f64();
            assert!((q - n as f64 / d as f64).abs() < 1e-4);
        }
    }

    #[test]
    fn fixed_wcma_tracks_float_wcma_closely() {
        // A noisy but deterministic solar-like trace.
        let n = 24usize;
        let days = 15usize;
        let mut samples = Vec::new();
        for d in 0..days {
            for s in 0..n {
                let x = (s as f64 / n as f64 - 0.5) * 6.0;
                let base = 900.0 * (-x * x).exp();
                let wob = 1.0 + 0.25 * (((d * 5 + s * 3) % 17) as f64 / 17.0 - 0.5);
                samples.push((base * wob).max(0.0));
            }
        }
        let trace = PowerTrace::new(
            "fx",
            Resolution::from_seconds(86_400 / n as u32).unwrap(),
            samples,
        )
        .unwrap();
        let view = SlotView::new(&trace, SlotsPerDay::new(n as u32).unwrap()).unwrap();
        let params = WcmaParams::new(0.7, 5, 3, n).unwrap();
        let float_log = run_predictor(&view, &mut WcmaPredictor::new(params));
        let fixed_log = run_predictor(&view, &mut FixedWcmaPredictor::new(params));
        assert_eq!(float_log.len(), fixed_log.len());
        for (f, q) in float_log.records().iter().zip(fixed_log.records()) {
            // Absolute tolerance scales with magnitude; Q16.16 resolution
            // on ~1000 W/m² values with a handful of ops stays well under
            // 0.5 W/m².
            assert!(
                (f.predicted - q.predicted).abs() < 0.5,
                "d{} s{}: float {} vs fixed {}",
                f.day,
                f.slot,
                f.predicted,
                q.predicted
            );
        }
    }

    #[test]
    fn fixed_wcma_is_a_predictor() {
        let params = WcmaParams::new(0.5, 3, 2, 24).unwrap();
        let mut p = FixedWcmaPredictor::new(params);
        assert_eq!(p.name(), "wcma-q16");
        assert_eq!(p.slots_per_day(), 24);
        let pred = p.observe_and_predict(100.0);
        assert!((pred - 100.0).abs() < 0.01);
        p.reset();
        let pred = p.observe_and_predict(50.0);
        assert!((pred - 50.0).abs() < 0.01);
    }

    #[test]
    fn display_and_raw_round_trip() {
        let q = Q16::from_f64(1.25);
        assert_eq!(q.raw(), 5 << 14);
        assert_eq!(q.to_string(), "1.25000");
        assert_eq!(f64::from(q), 1.25);
    }
}
