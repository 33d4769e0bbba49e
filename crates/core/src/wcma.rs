//! The WCMA predictor of Recas et al. — the algorithm the paper
//! evaluates (its Eq. 1–5).

use crate::history::DayHistory;
use crate::params::{KWindowPolicy, WcmaParams};
use crate::predictor::Predictor;
use std::collections::VecDeque;

/// Upper bound on a single conditioning ratio `η = ẽ / μ_D`.
///
/// At dawn the historical mean of a slot can be arbitrarily small (the
/// sun only just started reaching it on recent days), which would let a
/// single ratio blow `Φ` — and the next K predictions — up by orders of
/// magnitude. Deployed WCMA implementations bound the ratio; "today is
/// 50× brighter than usual" already carries no extra information for
/// conditioning. The bound is shared by every engine in the workspace
/// (streaming, batched, fixed point).
pub const MAX_CONDITIONING_RATIO: f64 = 50.0;

/// The η ratio of Eq. 4 with the night/warm-up guard (`μ = 0 → η = 1`)
/// and the [`MAX_CONDITIONING_RATIO`] bound applied.
///
/// # Example
///
/// ```
/// use solar_predict::conditioning_ratio;
///
/// assert_eq!(conditioning_ratio(450.0, Some(300.0)), 1.5);
/// assert_eq!(conditioning_ratio(450.0, None), 1.0);       // warm-up
/// assert_eq!(conditioning_ratio(450.0, Some(0.0)), 1.0);  // night slot
/// assert_eq!(conditioning_ratio(450.0, Some(1e-9)), 50.0); // dawn guard
/// ```
pub fn conditioning_ratio(measured: f64, mu: Option<f64>) -> f64 {
    match mu {
        Some(mu) if mu > 0.0 => (measured / mu).min(MAX_CONDITIONING_RATIO),
        _ => 1.0,
    }
}

/// The intermediate quantities of one WCMA prediction, exposed so studies
/// (and the paper's §IV-C analysis of which term dominates) don't have to
/// recompute them.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct WcmaTerms {
    /// The persistence term input `ẽ(n)` (the weighted contribution is
    /// `α · ẽ(n)`).
    pub persistence: f64,
    /// The mean of the target slot over the last D days, `μ_D(n+1)`.
    pub mu_next: f64,
    /// The conditioning factor `Φ_K` (Eq. 3).
    pub phi: f64,
    /// The full conditioned-average term `μ_D(n+1) · Φ_K`.
    pub conditioned_average: f64,
}

/// Weighted Conditioned Moving-Average predictor (Recas et al., VITAE'09):
///
/// ```text
/// ê(n+1) = α · ẽ(n) + (1 − α) · μ_D(n+1) · Φ_K
/// Φ_K    = Σ θ(k) η(k) / Σ θ(k),   θ(k) = k / K,
/// η(k)   = ẽ(n−K+k) / μ_D(n−K+k)
/// ```
///
/// Implementation notes (these mirror what deployed MCU firmware does and
/// are shared with the batched kernels over [`EtaPlane`](crate::EtaPlane),
/// which are tested to agree exactly):
///
/// * each slot's η ratio is computed **once, when the slot is observed**,
///   against the history as of that moment, and kept in a K-deep ring —
///   so a ratio never changes retroactively when the day rolls over;
/// * night slots (historical mean 0) and the warm-up period use the
///   neutral ratio η = 1;
/// * until one full day of history exists there is no `μ_D`, so the
///   predictor degenerates to persistence (`ê = ẽ(n)`). The paper's
///   protocol skips the first 20 days, so warm-up never affects reported
///   numbers.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use solar_predict::{Predictor, WcmaParams, WcmaPredictor};
///
/// let params = WcmaParams::new(0.7, 4, 2, 24)?;
/// let mut wcma = WcmaPredictor::new(params);
/// // Feed a few identical days of a toy profile.
/// let day: Vec<f64> = (0..24).map(|h| if (6..18).contains(&h) { 500.0 } else { 0.0 }).collect();
/// let mut last = 0.0;
/// for _ in 0..5 {
///     for &sample in &day {
///         last = wcma.observe_and_predict(sample);
///     }
/// }
/// // After identical days, midnight is predicted dark.
/// assert_eq!(last, wcma.last_terms().unwrap().persistence * 0.7);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct WcmaPredictor {
    params: WcmaParams,
    history: DayHistory,
    /// Slot-start measurements of the current (incomplete) day.
    current: Vec<f64>,
    /// Next slot index to observe.
    cursor: usize,
    /// Last K η ratios, most recent first.
    ratios: VecDeque<f64>,
    /// How many of the ring entries belong to the current day.
    ratios_today: usize,
    /// The θ weight vector `(K − i) / K`, a pure function of (K): built
    /// once at construction instead of K divisions per slot.
    thetas: Vec<f64>,
    last_terms: Option<WcmaTerms>,
}

impl WcmaPredictor {
    /// Creates a WCMA predictor with the given parameters.
    pub fn new(params: WcmaParams) -> Self {
        WcmaPredictor {
            history: DayHistory::new(params.slots_per_day(), params.days()),
            current: vec![0.0; params.slots_per_day()],
            cursor: 0,
            ratios: VecDeque::with_capacity(params.k()),
            ratios_today: 0,
            thetas: theta_weights(params.k()),
            last_terms: None,
            params,
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &WcmaParams {
        &self.params
    }

    /// The intermediate terms of the most recent prediction, if any.
    pub fn last_terms(&self) -> Option<WcmaTerms> {
        self.last_terms
    }

    /// Computes `Φ_K` from the ratio ring. Entry `i` (most recent first)
    /// carries weight `θ(i) = (K − i) / K`; missing or out-of-policy
    /// entries are treated per the configured [`KWindowPolicy`].
    fn phi(&self) -> f64 {
        phi_over_ring(
            &self.thetas,
            &self.ratios,
            self.ratios_today,
            self.params.k_policy(),
        )
    }
}

/// The θ weight vector of Eq. 3 for a window of `k`: entry `i` (most
/// recent ratio first) is `(k − i) / k`.
pub(crate) fn theta_weights(k: usize) -> Vec<f64> {
    (0..k).map(|i| (k - i) as f64 / k as f64).collect()
}

/// The Φ computation shared by [`WcmaPredictor`] and the
/// [`CandidateBank`](crate::CandidateBank): a weighted mean over the
/// most recent `thetas.len()` ring entries, with `today` saying how many
/// ring entries belong to the current day (the clamp policy excludes
/// older ones). The ring may be deeper than the window — only the first
/// `thetas.len()` entries are read — which is what lets one ring serve
/// every K of a candidate bank.
pub(crate) fn phi_over_ring(
    thetas: &[f64],
    ratios: &VecDeque<f64>,
    today: usize,
    policy: KWindowPolicy,
) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, &theta) in thetas.iter().enumerate() {
        let eta = match ratios.get(i) {
            Some(&r) => {
                if matches!(policy, KWindowPolicy::ClampRenormalize) && i >= today {
                    // Entry from before today's first slot: excluded,
                    // weights renormalized over the rest.
                    continue;
                }
                r
            }
            // Start of the run: neutral ratio, matching
            // `EtaPlane::ratio_sums`.
            None => match policy {
                KWindowPolicy::WrapPreviousDay => 1.0,
                KWindowPolicy::ClampRenormalize => continue,
            },
        };
        num += theta * eta;
        den += theta;
    }
    if den > 0.0 {
        num / den
    } else {
        1.0
    }
}

impl Predictor for WcmaPredictor {
    fn observe_and_predict(&mut self, measured: f64) -> f64 {
        let n = self.params.slots_per_day();
        let d = self.params.days();
        self.current[self.cursor] = measured;

        // Freeze this slot's η against the history as of now.
        let eta = conditioning_ratio(measured, self.history.mean(self.cursor, d));
        if self.ratios.len() == self.params.k() {
            self.ratios.pop_back();
        }
        self.ratios.push_front(eta);
        self.ratios_today = (self.ratios_today + 1).min(self.params.k());

        let phi = self.phi();

        // Identify the target slot; at the last slot of the day, today
        // becomes the most recent history row before predicting tomorrow's
        // first slot.
        let target = (self.cursor + 1) % n;
        if self.cursor + 1 == n {
            // The day buffer is pushed in place and reused — no per-day
            // allocation on the hot path.
            self.history.push_day(&self.current);
            self.current.fill(0.0);
            self.cursor = 0;
            self.ratios_today = 0;
        } else {
            self.cursor += 1;
        }

        match self.history.mean(target, d) {
            Some(mu_next) => {
                let alpha = self.params.alpha();
                let conditioned = mu_next * phi;
                self.last_terms = Some(WcmaTerms {
                    persistence: measured,
                    mu_next,
                    phi,
                    conditioned_average: conditioned,
                });
                alpha * measured + (1.0 - alpha) * conditioned
            }
            None => {
                // Warm-up: no history yet, fall back to persistence.
                self.last_terms = Some(WcmaTerms {
                    persistence: measured,
                    mu_next: measured,
                    phi: 1.0,
                    conditioned_average: measured,
                });
                measured
            }
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
        self.ratios_today = 0;
        self.last_terms = None;
    }

    fn name(&self) -> &str {
        "wcma"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(alpha: f64, days: usize, k: usize, n: usize) -> WcmaParams {
        WcmaParams::new(alpha, days, k, n).unwrap()
    }

    /// Feeds `days` copies of `day` and returns predictions from the last
    /// fed day.
    fn run_days(predictor: &mut WcmaPredictor, day: &[f64], days: usize) -> Vec<f64> {
        let mut last = Vec::new();
        for _ in 0..days {
            last.clear();
            for &s in day {
                last.push(predictor.observe_and_predict(s));
            }
        }
        last
    }

    fn toy_day(n: usize) -> Vec<f64> {
        (0..n)
            .map(|s| {
                let x = (s as f64 / n as f64 - 0.5) * 6.0;
                (900.0 * (-x * x).exp() * 100.0).round() / 100.0
            })
            .collect()
    }

    #[test]
    fn alpha_one_is_pure_persistence() {
        let mut p = WcmaPredictor::new(params(1.0, 5, 2, 24));
        let day = toy_day(24);
        let preds = run_days(&mut p, &day, 4);
        for (s, &pred) in preds.iter().enumerate() {
            assert_eq!(pred, day[s], "slot {s}");
        }
    }

    #[test]
    fn alpha_zero_is_exact_on_periodic_days() {
        let mut p = WcmaPredictor::new(params(0.0, 5, 2, 24));
        let day = toy_day(24);
        let preds = run_days(&mut p, &day, 8);
        // Prediction emitted at slot s targets slot s+1 (wrapping).
        for (s, &pred) in preds.iter().enumerate() {
            let target = (s + 1) % 24;
            assert!(
                (pred - day[target]).abs() < 1e-9,
                "slot {s} -> {target}: {pred} vs {}",
                day[target]
            );
        }
    }

    #[test]
    fn warmup_first_day_is_persistence() {
        let mut p = WcmaPredictor::new(params(0.3, 5, 2, 24));
        let day = toy_day(24);
        for (s, &sample) in day.iter().enumerate().take(23) {
            let pred = p.observe_and_predict(sample);
            assert_eq!(pred, sample, "slot {s} during warm-up");
        }
    }

    #[test]
    fn brighter_day_scales_prediction_up() {
        // History: dim days. Current day: 50% brighter. Φ should push the
        // conditioned term above the historical mean.
        let n = 24;
        let dim = toy_day(n);
        let bright: Vec<f64> = dim.iter().map(|v| v * 1.5).collect();
        let mut p = WcmaPredictor::new(params(0.0, 5, 3, n));
        run_days(&mut p, &dim, 6);
        // Walk the bright day to noon.
        let mut pred_noon = 0.0;
        for &sample in bright.iter().take(n / 2 + 1) {
            pred_noon = p.observe_and_predict(sample);
        }
        let terms = p.last_terms().unwrap();
        assert!(
            terms.phi > 1.4 && terms.phi < 1.6,
            "phi {} should track the 1.5x brightening",
            terms.phi
        );
        let target = n / 2 + 1;
        let rel = (pred_noon - bright[target]).abs() / bright[target];
        assert!(rel < 0.05, "prediction {pred_noon} vs {}", bright[target]);
    }

    #[test]
    fn terms_compose_into_prediction() {
        let n = 24;
        let day = toy_day(n);
        let alpha = 0.6;
        let mut p = WcmaPredictor::new(params(alpha, 4, 2, n));
        let mut pred = 0.0;
        for _ in 0..3 {
            for &s in &day {
                pred = p.observe_and_predict(s);
            }
        }
        let t = p.last_terms().unwrap();
        let recomposed = alpha * t.persistence + (1.0 - alpha) * t.conditioned_average;
        assert!((pred - recomposed).abs() < 1e-12);
        assert!((t.conditioned_average - t.mu_next * t.phi).abs() < 1e-12);
    }

    #[test]
    fn reset_restores_initial_state() {
        let n = 24;
        let day = toy_day(n);
        let mut p = WcmaPredictor::new(params(0.5, 4, 2, n));
        run_days(&mut p, &day, 3);
        p.reset();
        assert!(p.last_terms().is_none());
        // Behaves like a fresh predictor: warm-up persistence.
        assert_eq!(p.observe_and_predict(123.0), 123.0);
    }

    #[test]
    fn predictions_are_finite_and_nonnegative() {
        let n = 48;
        let mut p = WcmaPredictor::new(params(0.4, 10, 6, n));
        // Adversarial profile with zeros and spikes.
        for i in 0..(n * 30) {
            let v = match i % 7 {
                0 => 0.0,
                1 => 1200.0,
                _ => (i % 13) as f64 * 37.0,
            };
            let pred = p.observe_and_predict(v);
            assert!(pred.is_finite() && pred >= 0.0, "step {i}: {pred}");
        }
    }

    #[test]
    fn clamp_policy_matches_wrap_mid_day() {
        // Away from the day boundary the two policies see identical
        // windows, so predictions must agree.
        let n = 24;
        let day = toy_day(n);
        let base = params(0.5, 4, 3, n);
        let clamped = crate::params::WcmaParamsBuilder::new()
            .alpha(0.5)
            .days(4)
            .k(3)
            .slots_per_day(n)
            .k_policy(KWindowPolicy::ClampRenormalize)
            .build()
            .unwrap();
        let mut a = WcmaPredictor::new(base);
        let mut b = WcmaPredictor::new(clamped);
        for d in 0..4 {
            for (s, &v) in day.iter().enumerate() {
                let pa = a.observe_and_predict(v);
                let pb = b.observe_and_predict(v);
                if s >= 3 {
                    assert!((pa - pb).abs() < 1e-12, "day {d} slot {s}");
                }
            }
        }
    }

    #[test]
    fn phi_uses_weighted_recent_ratios() {
        // Hand-computed Φ: history of constant 100s, then a day starting
        // 120, 110 with K = 2: η ring = [1.1 (recent), 1.2], weights 1 and
        // 0.5 → Φ = (1·1.1 + 0.5·1.2) / 1.5.
        let n = 4;
        let mut p = WcmaPredictor::new(params(0.0, 3, 2, n));
        for _ in 0..3 {
            for _ in 0..n {
                p.observe_and_predict(100.0);
            }
        }
        p.observe_and_predict(120.0);
        let pred = p.observe_and_predict(110.0);
        let phi = (1.0 * 1.1 + 0.5 * 1.2) / 1.5;
        assert!((p.last_terms().unwrap().phi - phi).abs() < 1e-12);
        assert!((pred - 100.0 * phi).abs() < 1e-9);
    }

    #[test]
    fn name_is_wcma() {
        let p = WcmaPredictor::new(params(0.5, 4, 2, 24));
        assert_eq!(p.name(), "wcma");
        assert_eq!(p.slots_per_day(), 24);
    }
}
