//! The Fig. 5 duty sequence and daily energy budgets (Table IV, Fig. 6).

use crate::kernel::{CalibratedCycleModel, PredictionKernel};
use crate::supply::{AdcModel, Supply};

/// The per-day sampling/prediction schedule: `n` wake-ups per day, one
/// acquisition and one prediction each.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SamplingSchedule {
    /// Wake-ups (slots) per day — the paper's N.
    pub n: usize,
}

impl SamplingSchedule {
    /// Creates a schedule with `n` wake-ups per day.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "n must be positive");
        SamplingSchedule { n }
    }

    /// Computes the full daily energy budget for a kernel shape under a
    /// supply/ADC/cycle model.
    pub fn daily_budget(
        &self,
        supply: &Supply,
        adc: &AdcModel,
        cycles: &CalibratedCycleModel,
        kernel: &PredictionKernel,
    ) -> DailyBudget {
        let adc_j = adc.energy_j(supply);
        let prediction_j = cycles.cycles(kernel) * supply.energy_per_cycle_j();
        let per_wake_j = adc_j + prediction_j;
        let active_per_day_j = per_wake_j * self.n as f64;
        let sleep_per_day_j = supply.sleep_energy_per_day_j();
        DailyBudget {
            n: self.n,
            adc_j,
            prediction_j,
            per_wake_j,
            active_per_day_j,
            sleep_per_day_j,
            overhead_fraction: active_per_day_j / sleep_per_day_j,
        }
    }
}

/// The daily energy budget of harvested-power sampling + prediction —
/// everything in the paper's Table IV bottom rows and Fig. 6.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct DailyBudget {
    /// Wake-ups per day.
    pub n: usize,
    /// Energy of one acquisition in joules.
    pub adc_j: f64,
    /// Energy of one prediction in joules.
    pub prediction_j: f64,
    /// Energy of one full wake-up (acquisition + prediction).
    pub per_wake_j: f64,
    /// Total sampling + prediction energy per day.
    pub active_per_day_j: f64,
    /// Deep-sleep energy per day.
    pub sleep_per_day_j: f64,
    /// `active_per_day / sleep_per_day` — the paper's Fig. 6 overhead.
    pub overhead_fraction: f64,
}

impl DailyBudget {
    /// Overhead as a percentage, as printed in Fig. 6.
    pub fn overhead_pct(&self) -> f64 {
        self.overhead_fraction * 100.0
    }
}

impl std::fmt::Display for DailyBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "N={}: {:.1} µJ/wake, {:.2} mJ/day active, {:.2}% of sleep",
            self.n,
            self.per_wake_j * 1e6,
            self.active_per_day_j * 1e3,
            self.overhead_pct()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget(n: usize, k: usize, alpha: f64) -> DailyBudget {
        SamplingSchedule::new(n).daily_budget(
            &Supply::msp430f1611(),
            &AdcModel::msp430_paper(),
            &CalibratedCycleModel::paper(),
            &PredictionKernel::new(k, alpha),
        )
    }

    #[test]
    fn per_wake_energy_near_paper_60_microjoules() {
        // The paper takes "roughly 60 µJ" per wake (55 ADC + ~5
        // prediction) for its Fig. 6 arithmetic.
        let b = budget(48, 2, 0.7);
        assert!((b.per_wake_j - 60.0e-6).abs() < 2.0e-6, "{}", b.per_wake_j);
    }

    #[test]
    fn table_iv_daily_totals() {
        // Paper: 48 samples/day @55 µJ = 2640 µJ; with prediction @60 µJ
        // = 2880 µJ per day.
        let b = budget(48, 2, 0.7);
        let adc_only = b.adc_j * 48.0;
        assert!((adc_only - 2640e-6).abs() < 30e-6, "{adc_only}");
        assert!((b.active_per_day_j - 2880e-6).abs() < 100e-6);
    }

    #[test]
    fn fig6_overhead_shape() {
        // Paper Fig. 6: 4.85%, 1.62%, 1.21%, 0.81%, 0.40% at
        // N = 288, 96, 72, 48, 24 (with sleep rounded to 356 mJ; we use
        // the exact 362.9 mJ, landing within 3%).
        let paper = [(288, 4.85), (96, 1.62), (72, 1.21), (48, 0.81), (24, 0.40)];
        for (n, expect) in paper {
            let b = budget(n, 2, 0.7);
            let got = b.overhead_pct();
            assert!(
                (got - expect).abs() / expect < 0.06,
                "N={n}: got {got:.2}%, paper {expect}%"
            );
        }
    }

    #[test]
    fn overhead_scales_linearly_in_n() {
        let b24 = budget(24, 2, 0.7);
        let b288 = budget(288, 2, 0.7);
        let ratio = b288.overhead_fraction / b24.overhead_fraction;
        assert!((ratio - 12.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_dominates_prediction_at_high_n() {
        // The paper's §IV-B observation: at N = 288 the overhead is
        // dominated by the ADC, not the prediction.
        let b = budget(288, 1, 1.0);
        assert!(b.adc_j / b.per_wake_j > 0.9);
    }

    #[test]
    fn display_is_informative() {
        let b = budget(48, 2, 0.7);
        let s = b.to_string();
        assert!(s.contains("N=48"));
        assert!(s.contains('%'));
    }

    #[test]
    #[should_panic(expected = "n must be positive")]
    fn zero_n_panics() {
        let _ = SamplingSchedule::new(0);
    }
}
