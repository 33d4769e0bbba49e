//! Supply, clock and ADC electrical parameters.

/// Electrical operating point of the microcontroller.
///
/// # Example
///
/// ```
/// use msp430_energy::Supply;
///
/// let supply = Supply::msp430f1611();
/// // 3 V, 5 MHz, 0.5 mA/MHz active: 1.5 nJ per cycle.
/// assert!((supply.energy_per_cycle_j() - 1.5e-9).abs() < 1e-15);
/// ```
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Supply {
    /// Supply voltage in volts.
    pub voltage_v: f64,
    /// CPU clock in hertz.
    pub frequency_hz: f64,
    /// Active-mode current in amperes at this voltage/clock.
    pub active_current_a: f64,
    /// Deep-sleep (LPM3, wake-up timer running) current in amperes.
    pub sleep_current_a: f64,
}

impl Supply {
    /// The paper's operating point: MSP430F1611 at 3 V / 5 MHz, active
    /// current 0.5 mA/MHz, sleep current 1.4 µA (the paper's stated
    /// figure).
    pub fn msp430f1611() -> Self {
        Supply {
            voltage_v: 3.0,
            frequency_hz: 5.0e6,
            active_current_a: 2.5e-3,
            sleep_current_a: 1.4e-6,
        }
    }

    /// Energy of one active CPU cycle in joules: `V · I_active / f`.
    pub fn energy_per_cycle_j(&self) -> f64 {
        self.voltage_v * self.active_current_a / self.frequency_hz
    }

    /// Deep-sleep power draw in watts.
    pub fn sleep_power_w(&self) -> f64 {
        self.voltage_v * self.sleep_current_a
    }

    /// Deep-sleep energy over one day in joules. With the paper's 1.4 µA
    /// at 3 V this is 362.9 mJ (the paper rounds to 356 mJ).
    pub fn sleep_energy_per_day_j(&self) -> f64 {
        self.sleep_power_w() * 86_400.0
    }
}

/// Energy model of one harvested-power acquisition: voltage-reference
/// settling (the dominant term — the MCU sleeps with the reference
/// powered for 45 ms) plus the conversion itself.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct AdcModel {
    /// Reference settling time in seconds (paper: 45 ms).
    pub vref_settle_s: f64,
    /// Current drawn while the reference settles, in amperes.
    pub vref_current_a: f64,
    /// Conversion time in seconds.
    pub conversion_s: f64,
    /// Current during conversion in amperes.
    pub conversion_current_a: f64,
}

impl AdcModel {
    /// Calibrated to the paper's 55 µJ per acquisition at 3 V: the
    /// 45 ms settle at ~405 µA (reference + timer) dominates; the
    /// conversion itself contributes well under a microjoule.
    pub fn msp430_paper() -> Self {
        AdcModel {
            vref_settle_s: 45.0e-3,
            vref_current_a: 405.0e-6,
            conversion_s: 130.0e-6,
            conversion_current_a: 800.0e-6,
        }
    }

    /// Energy of one acquisition in joules at a given supply.
    pub fn energy_j(&self, supply: &Supply) -> f64 {
        supply.voltage_v
            * (self.vref_settle_s * self.vref_current_a
                + self.conversion_s * self.conversion_current_a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_energy_matches_hand_computation() {
        let s = Supply::msp430f1611();
        assert!((s.energy_per_cycle_j() - 3.0 * 2.5e-3 / 5.0e6).abs() < 1e-18);
    }

    #[test]
    fn sleep_day_energy_near_paper_value() {
        let s = Supply::msp430f1611();
        let day = s.sleep_energy_per_day_j();
        // 1.4 µA · 3 V · 86400 s = 362.88 mJ; the paper rounds to 356 mJ.
        assert!((day - 0.36288).abs() < 1e-9);
        assert!((day - 0.356).abs() / 0.356 < 0.03, "within 3% of the paper");
    }

    #[test]
    fn adc_energy_is_55_microjoules() {
        let adc = AdcModel::msp430_paper();
        let e = adc.energy_j(&Supply::msp430f1611());
        assert!((e - 55.0e-6).abs() < 0.5e-6, "adc energy {e}");
    }

    #[test]
    fn vref_settle_dominates_adc_energy() {
        let adc = AdcModel::msp430_paper();
        let s = Supply::msp430f1611();
        let settle = s.voltage_v * adc.vref_settle_s * adc.vref_current_a;
        assert!(settle / adc.energy_j(&s) > 0.95);
    }
}
