//! Summary statistics for traces.
//!
//! Used to characterise data sets (the Table I inventory) and to verify
//! that synthetic sites reproduce the qualitative variability ordering of
//! the paper's NREL sites.

use crate::trace::PowerTrace;
use std::fmt;

/// Summary statistics of a power trace.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use solar_trace::{stats::TraceStats, PowerTrace, Resolution};
///
/// let trace = PowerTrace::new("t", Resolution::from_minutes(60)?, vec![10.0; 48])?;
/// let stats = TraceStats::of(&trace);
/// assert_eq!(stats.peak_power, 10.0);
/// assert_eq!(stats.daily_energy_cv, 0.0); // perfectly repeatable days
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct TraceStats {
    /// Number of samples.
    pub observations: usize,
    /// Number of complete days.
    pub days: usize,
    /// Largest sample.
    pub peak_power: f64,
    /// Mean of all samples.
    pub mean_power: f64,
    /// Total energy in joules.
    pub total_energy_j: f64,
    /// Mean daily energy in joules.
    pub mean_daily_energy_j: f64,
    /// Coefficient of variation (σ/μ) of daily energy — the day-to-day
    /// variability that drives how hard a site is to predict.
    pub daily_energy_cv: f64,
    /// Mean absolute sample-to-sample change divided by mean power — the
    /// intra-day "choppiness" that separates MAPE from MAPE′.
    pub ramp_index: f64,
}

impl TraceStats {
    /// Computes statistics of `trace`.
    pub fn of(trace: &PowerTrace) -> TraceStats {
        let samples = trace.samples();
        let observations = samples.len();
        let days = trace.days();
        let peak_power = trace.peak_power();
        let sum: f64 = samples.iter().sum();
        let mean_power = sum / observations as f64;
        let total_energy_j = trace.total_energy_j();

        let daily: Vec<f64> = trace
            .iter_days()
            .map(|d| d.iter().sum::<f64>() * trace.resolution().as_seconds_f64())
            .collect();
        let mean_daily = daily.iter().sum::<f64>() / days as f64;
        let var = daily
            .iter()
            .map(|&e| (e - mean_daily) * (e - mean_daily))
            .sum::<f64>()
            / days as f64;
        let daily_energy_cv = if mean_daily > 0.0 {
            var.sqrt() / mean_daily
        } else {
            0.0
        };

        let ramp_sum: f64 = samples.windows(2).map(|w| (w[1] - w[0]).abs()).sum();
        let ramp_index = if mean_power > 0.0 && observations > 1 {
            ramp_sum / (observations - 1) as f64 / mean_power
        } else {
            0.0
        };

        TraceStats {
            observations,
            days,
            peak_power,
            mean_power,
            total_energy_j,
            mean_daily_energy_j: mean_daily,
            daily_energy_cv,
            ramp_index,
        }
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} obs / {} days, peak {:.1}, daily CV {:.3}, ramp {:.4}",
            self.observations, self.days, self.peak_power, self.daily_energy_cv, self.ramp_index
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Resolution;

    #[test]
    fn constant_trace_has_zero_variability() {
        let t = PowerTrace::new(
            "c",
            Resolution::from_minutes(60).unwrap(),
            vec![5.0; 24 * 4],
        )
        .unwrap();
        let s = TraceStats::of(&t);
        assert_eq!(s.days, 4);
        assert_eq!(s.daily_energy_cv, 0.0);
        assert_eq!(s.ramp_index, 0.0);
        assert_eq!(s.mean_power, 5.0);
        assert_eq!(s.mean_daily_energy_j, 5.0 * 86_400.0);
    }

    #[test]
    fn alternating_days_have_positive_cv() {
        let mut samples = vec![2.0; 24];
        samples.extend(vec![6.0; 24]);
        let t = PowerTrace::new("a", Resolution::from_minutes(60).unwrap(), samples).unwrap();
        let s = TraceStats::of(&t);
        assert!(s.daily_energy_cv > 0.4);
    }

    #[test]
    fn choppier_trace_has_higher_ramp_index() {
        let smooth: Vec<f64> = (0..48).map(|i| 100.0 + i as f64).collect();
        let choppy: Vec<f64> = (0..48)
            .map(|i| if i % 2 == 0 { 50.0 } else { 200.0 })
            .collect();
        let res = Resolution::from_minutes(30).unwrap();
        let rs = TraceStats::of(&PowerTrace::new("s", res, smooth).unwrap());
        let rc = TraceStats::of(&PowerTrace::new("c", res, choppy).unwrap());
        assert!(rc.ramp_index > rs.ramp_index);
    }

    #[test]
    fn display_is_nonempty() {
        let t = PowerTrace::new("c", Resolution::from_minutes(60).unwrap(), vec![1.0; 24]).unwrap();
        assert!(!TraceStats::of(&t).to_string().is_empty());
    }
}
