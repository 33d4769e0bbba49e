//! Batched WCMA kernel evaluation: every tuner grid point over **one**
//! observation pass.
//!
//! A parameter search scores dozens of (α, D, K) candidates against the
//! same observed slot stream. Run solo, each candidate re-derives the
//! same `E_{D×N}` history, the same `μ_D` column means and the same η
//! ratios from scratch — `candidate_count()` full passes over the
//! trace. The [`CandidateBank`] folds them into one pass by sharing
//! everything that is a pure function of the observations:
//!
//! * one [`EtaPlane`]: one day buffer and one
//!   [`DayHistory`](crate::DayHistory) sized to the deepest D, one
//!   prefix-sum column walk per slot serving every distinct D, and one
//!   η ring per distinct D (η depends only on D), deep enough for the
//!   largest K that conditions on it;
//! * one θ-weighted Φ per distinct (D, K, policy), shared by every α.
//!
//! **Per-candidate arithmetic is unchanged**: each prediction is
//! composed from the identical intermediate values a solo
//! [`WcmaPredictor`](crate::WcmaPredictor) computes, in the identical floating-point order,
//! so every candidate's prediction stream is bit-identical to its solo
//! run (property-tested). Per-slot cost drops from
//! `Σ_candidates O(D + K)` to `O(max D + Σ distinct (D,K))` plus one
//! multiply-add per candidate.

use crate::error::ParamError;
use crate::params::{KWindowPolicy, WcmaParams};
use crate::plane::EtaPlane;
use crate::wcma::{phi_over_ring, theta_weights};

/// One Φ window: a distinct (D, K, policy) triple, the η ring it reads
/// and its precomputed θ weights. `phi` is per-slot scratch.
#[derive(Clone, Debug)]
struct KWindow {
    ring: usize,
    k: usize,
    policy: KWindowPolicy,
    thetas: Vec<f64>,
    phi: f64,
}

/// A registered candidate: its α plus indices into the shared state.
#[derive(Clone, Debug)]
struct Candidate {
    alpha: f64,
    ring: usize,
    window: usize,
}

/// Evaluates many WCMA parameterizations over a single slot stream,
/// bit-identically to running each [`WcmaPredictor`](crate::WcmaPredictor) solo.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use solar_predict::{CandidateBank, Predictor, WcmaParams, WcmaPredictor};
///
/// let grid = vec![
///     WcmaParams::new(0.3, 5, 2, 24)?,
///     WcmaParams::new(0.7, 10, 3, 24)?,
/// ];
/// let mut bank = CandidateBank::new(grid.clone())?;
/// let mut solo: Vec<WcmaPredictor> = grid.into_iter().map(WcmaPredictor::new).collect();
/// for step in 0..100 {
///     let measured = (step % 24) as f64 * 10.0;
///     let banked = bank.observe_and_predict(measured).to_vec();
///     for (candidate, predictor) in banked.iter().zip(&mut solo) {
///         assert_eq!(candidate.to_bits(), predictor.observe_and_predict(measured).to_bits());
///     }
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct CandidateBank {
    plane: EtaPlane,
    windows: Vec<KWindow>,
    candidates: Vec<Candidate>,
    /// Per-candidate output of the latest slot, in registration order.
    predictions: Vec<f64>,
}

impl CandidateBank {
    /// Builds a bank over `candidates` (evaluated in input order by
    /// [`CandidateBank::observe_and_predict`]).
    ///
    /// # Errors
    ///
    /// * [`ParamError::EmptyBank`] for an empty candidate list.
    /// * [`ParamError::MixedBankSlots`] unless every candidate shares
    ///   one discretization N.
    pub fn new(candidates: Vec<WcmaParams>) -> Result<Self, ParamError> {
        let Some(first) = candidates.first() else {
            return Err(ParamError::EmptyBank);
        };
        let slots_per_day = first.slots_per_day();
        // Distinct D as (D, ring depth = largest K conditioning on it).
        let mut rings: Vec<(usize, usize)> = Vec::new();
        let mut windows: Vec<KWindow> = Vec::new();
        let mut registered = Vec::with_capacity(candidates.len());
        for params in &candidates {
            if params.slots_per_day() != slots_per_day {
                return Err(ParamError::MixedBankSlots {
                    expected: slots_per_day,
                    got: params.slots_per_day(),
                });
            }
            let ring = match rings.iter().position(|&(d, _)| d == params.days()) {
                Some(idx) => idx,
                None => {
                    rings.push((params.days(), 0));
                    rings.len() - 1
                }
            };
            rings[ring].1 = rings[ring].1.max(params.k());
            let window = match windows
                .iter()
                .position(|w| w.ring == ring && w.k == params.k() && w.policy == params.k_policy())
            {
                Some(idx) => idx,
                None => {
                    windows.push(KWindow {
                        ring,
                        k: params.k(),
                        policy: params.k_policy(),
                        thetas: theta_weights(params.k()),
                        phi: 1.0,
                    });
                    windows.len() - 1
                }
            };
            registered.push(Candidate {
                alpha: params.alpha(),
                ring,
                window,
            });
        }
        Ok(CandidateBank {
            plane: EtaPlane::new(slots_per_day, rings),
            windows,
            predictions: vec![0.0; candidates.len()],
            candidates: registered,
        })
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// `true` when the bank holds no candidates (unreachable through
    /// [`CandidateBank::new`], which rejects empty input).
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// The shared discretization N.
    pub fn slots_per_day(&self) -> usize {
        self.plane.slots_per_day()
    }

    /// Observes one slot-boundary measurement and returns every
    /// candidate's prediction for the next slot, in registration order.
    /// Each entry is bit-identical to what a solo
    /// [`observe_and_predict`](crate::Predictor::observe_and_predict)
    /// with those parameters returns for the same measurement sequence.
    pub fn observe_and_predict(&mut self, measured: f64) -> &[f64] {
        self.plane.observe(measured);
        let today = self.plane.entries_today();
        for window in &mut self.windows {
            window.phi = phi_over_ring(
                &window.thetas,
                self.plane.ratios(window.ring),
                today,
                window.policy,
            );
        }
        if self.plane.is_warming_up() {
            // No history yet: persistence — as solo.
            self.predictions.fill(measured);
        } else {
            for (candidate, prediction) in self.candidates.iter().zip(&mut self.predictions) {
                let mu_next = self.plane.mu_next(candidate.ring);
                let phi = self.windows[candidate.window].phi;
                *prediction =
                    candidate.alpha * measured + (1.0 - candidate.alpha) * (mu_next * phi);
            }
        }
        &self.predictions
    }

    /// Restores the bank to its freshly constructed state.
    pub fn reset(&mut self) {
        self.plane.reset();
        self.predictions.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::WcmaParamsBuilder;
    use crate::predictor::Predictor;
    use crate::wcma::WcmaPredictor;

    fn grid(n: usize) -> Vec<WcmaParams> {
        let mut params = Vec::new();
        for &alpha in &[0.0, 0.3, 0.7, 1.0] {
            for &days in &[1usize, 3, 10] {
                for &k in &[1usize, 2, 5] {
                    params.push(WcmaParams::new(alpha, days, k, n).unwrap());
                }
            }
        }
        params
    }

    /// A deterministic pseudo-trace with zeros, spikes and a diurnal
    /// bump — adversarial for warm-up, night slots and the dawn guard.
    fn sample(step: usize, n: usize) -> f64 {
        let slot = step % n;
        let x = (slot as f64 / n as f64 - 0.5) * 6.0;
        let diurnal = 900.0 * (-x * x).exp();
        match step % 11 {
            0 => 0.0,
            1 => diurnal * 3.0,
            _ => diurnal * (0.5 + ((step * 7919) % 97) as f64 / 97.0),
        }
    }

    #[test]
    fn bank_matches_solo_predictors_bit_for_bit() {
        let n = 24;
        let params = grid(n);
        let mut bank = CandidateBank::new(params.clone()).unwrap();
        let mut solos: Vec<WcmaPredictor> = params.into_iter().map(WcmaPredictor::new).collect();
        for step in 0..(n * 30) {
            let measured = sample(step, n);
            let banked = bank.observe_and_predict(measured).to_vec();
            for (idx, solo) in solos.iter_mut().enumerate() {
                let expected = solo.observe_and_predict(measured);
                assert_eq!(
                    banked[idx].to_bits(),
                    expected.to_bits(),
                    "step {step}, candidate {idx}: {} vs {expected}",
                    banked[idx]
                );
            }
        }
    }

    #[test]
    fn clamp_policy_candidates_match_solo() {
        let n = 12;
        let params: Vec<WcmaParams> = [(0.4, 3, 2), (0.9, 5, 4)]
            .iter()
            .map(|&(alpha, days, k)| {
                WcmaParamsBuilder::new()
                    .alpha(alpha)
                    .days(days)
                    .k(k)
                    .slots_per_day(n)
                    .k_policy(KWindowPolicy::ClampRenormalize)
                    .build()
                    .unwrap()
            })
            .collect();
        let mut bank = CandidateBank::new(params.clone()).unwrap();
        let mut solos: Vec<WcmaPredictor> = params.into_iter().map(WcmaPredictor::new).collect();
        for step in 0..(n * 9) {
            let measured = sample(step, n);
            let banked = bank.observe_and_predict(measured).to_vec();
            for (idx, solo) in solos.iter_mut().enumerate() {
                assert_eq!(
                    banked[idx].to_bits(),
                    solo.observe_and_predict(measured).to_bits(),
                    "step {step}, candidate {idx}"
                );
            }
        }
    }

    #[test]
    fn duplicate_candidates_agree_with_each_other() {
        let n = 24;
        let p = WcmaParams::new(0.6, 4, 2, n).unwrap();
        let mut bank = CandidateBank::new(vec![p, p]).unwrap();
        for step in 0..(n * 5) {
            let preds = bank.observe_and_predict(sample(step, n));
            assert_eq!(preds[0].to_bits(), preds[1].to_bits());
        }
    }

    #[test]
    fn reset_restores_fresh_behaviour() {
        let n = 24;
        let params = vec![WcmaParams::new(0.5, 3, 2, n).unwrap()];
        let mut bank = CandidateBank::new(params.clone()).unwrap();
        let fresh: Vec<f64> = (0..n * 4)
            .map(|step| bank.observe_and_predict(sample(step, n))[0])
            .collect();
        bank.reset();
        for (step, &expected) in fresh.iter().enumerate() {
            let again = bank.observe_and_predict(sample(step, n))[0];
            assert_eq!(again.to_bits(), expected.to_bits(), "step {step}");
        }
    }

    #[test]
    fn invalid_banks_are_rejected() {
        assert!(matches!(
            CandidateBank::new(vec![]),
            Err(ParamError::EmptyBank)
        ));
        let mixed = vec![
            WcmaParams::new(0.5, 3, 2, 24).unwrap(),
            WcmaParams::new(0.5, 3, 2, 48).unwrap(),
        ];
        assert!(matches!(
            CandidateBank::new(mixed),
            Err(ParamError::MixedBankSlots {
                expected: 24,
                got: 48
            })
        ));
    }

    #[test]
    fn accessors_report_the_configuration() {
        let bank = CandidateBank::new(grid(48)).unwrap();
        assert_eq!(bank.len(), 36);
        assert!(!bank.is_empty());
        assert_eq!(bank.slots_per_day(), 48);
    }
}
