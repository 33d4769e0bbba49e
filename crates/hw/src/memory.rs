//! Memory footprint of the prediction algorithm's state.
//!
//! The paper motivates the D ≈ 10–11 guideline partly by the "samples
//! storage memory requirement of prediction algorithm": the `E_{D×N}`
//! history matrix is the dominant RAM consumer, and the MSP430F1611 has
//! only 10 KiB of RAM to share with the application. This module prices
//! the predictor state for the storage formats an MCU port would use.

/// How one power sample is stored in the history matrix.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SampleFormat {
    /// IEEE-754 single precision (4 bytes) — the software-float port.
    F32,
    /// Q16.16 fixed point (4 bytes).
    Q16,
    /// Raw 12-bit ADC counts packed in 16 bits (2 bytes) — what a
    /// memory-tight port stores, converting on use.
    AdcU16,
}

impl SampleFormat {
    /// Bytes per stored sample.
    pub const fn bytes(self) -> usize {
        match self {
            SampleFormat::F32 | SampleFormat::Q16 => 4,
            SampleFormat::AdcU16 => 2,
        }
    }
}

impl std::fmt::Display for SampleFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SampleFormat::F32 => write!(f, "f32"),
            SampleFormat::Q16 => write!(f, "Q16.16"),
            SampleFormat::AdcU16 => write!(f, "u16 ADC"),
        }
    }
}

/// MSP430F1611 RAM size in bytes (10 KiB).
pub const MSP430F1611_RAM_BYTES: usize = 10 * 1024;

/// Memory footprint of one WCMA predictor configuration.
///
/// # Example
///
/// ```
/// use msp430_energy::memory::{MemoryFootprint, SampleFormat};
///
/// let fp = MemoryFootprint::wcma(20, 48, 6, SampleFormat::F32);
/// // The paper's D=20, N=48 history alone is 20·48·4 = 3840 bytes.
/// assert_eq!(fp.history_bytes, 3840);
/// assert!(fp.fits_msp430f1611());
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Bytes of the `E_{D×N}` history matrix.
    pub history_bytes: usize,
    /// Bytes of the current-day vector (`Ẽ_N`).
    pub current_day_bytes: usize,
    /// Bytes of per-slot running means (the incremental-μ optimization
    /// that keeps the kernel O(K)).
    pub means_bytes: usize,
    /// Bytes of the K-deep ratio ring and scalar state.
    pub scratch_bytes: usize,
}

impl MemoryFootprint {
    /// Footprint of a WCMA configuration (history depth `d`, `n` slots
    /// per day, window `k`) with samples stored in `format`.
    ///
    /// Running means and ratios always use the arithmetic word (4 bytes):
    /// they are computed quantities, not raw samples.
    pub fn wcma(d: usize, n: usize, k: usize, format: SampleFormat) -> Self {
        MemoryFootprint {
            history_bytes: d * n * format.bytes(),
            current_day_bytes: n * format.bytes(),
            means_bytes: n * 4,
            scratch_bytes: k * 4 + 16,
        }
    }

    /// Footprint of the Kansal EWMA baseline (one estimate per slot).
    pub fn ewma(n: usize) -> Self {
        MemoryFootprint {
            history_bytes: 0,
            current_day_bytes: 0,
            means_bytes: n * 4,
            scratch_bytes: 8,
        }
    }

    /// Total bytes.
    pub fn total_bytes(&self) -> usize {
        self.history_bytes + self.current_day_bytes + self.means_bytes + self.scratch_bytes
    }

    /// Fraction of the MSP430F1611's RAM this state occupies.
    pub fn msp430f1611_fraction(&self) -> f64 {
        self.total_bytes() as f64 / MSP430F1611_RAM_BYTES as f64
    }

    /// Whether the state leaves at least half the MSP430F1611 RAM to the
    /// application — the practical deployability bar.
    pub fn fits_msp430f1611(&self) -> bool {
        self.total_bytes() * 2 <= MSP430F1611_RAM_BYTES
    }
}

impl std::fmt::Display for MemoryFootprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} B total ({} history + {} day + {} means + {} scratch)",
            self.total_bytes(),
            self.history_bytes,
            self.current_day_bytes,
            self.means_bytes,
            self.scratch_bytes
        )
    }
}

/// The largest history depth D whose WCMA state still passes
/// [`MemoryFootprint::fits_msp430f1611`] at the given `n`, `k` and
/// `format`; `None` if even D = 1 does not fit.
pub fn max_feasible_d(n: usize, k: usize, format: SampleFormat) -> Option<usize> {
    (1..=512)
        .take_while(|&d| MemoryFootprint::wcma(d, n, k, format).fits_msp430f1611())
        .last()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_sizes() {
        // D=20, N=48 floats: 3840 B history + 192 day + 192 means ≈ 4.2 KiB.
        let fp = MemoryFootprint::wcma(20, 48, 2, SampleFormat::F32);
        assert_eq!(fp.history_bytes, 3840);
        assert_eq!(fp.current_day_bytes, 192);
        assert!(fp.total_bytes() < 4500);
        assert!(fp.fits_msp430f1611());
    }

    #[test]
    fn n288_is_memory_hungry() {
        // D=20 at N=288 in f32 is 23 KiB of history alone — more than
        // twice the MSP430F1611's RAM: the memory side of the paper's
        // N trade-off. Packed ADC storage with a modest D is what keeps
        // N=288 deployable at all.
        let fat = MemoryFootprint::wcma(20, 288, 2, SampleFormat::F32);
        assert!(!fat.fits_msp430f1611());
        let lean = MemoryFootprint::wcma(5, 288, 2, SampleFormat::AdcU16);
        assert!(
            lean.fits_msp430f1611(),
            "lean config uses {} B",
            lean.total_bytes()
        );
        // The guideline D=10 at N=288 exceeds the half-RAM bar even
        // packed — the honest cost of the highest sampling rate.
        let guideline = MemoryFootprint::wcma(10, 288, 2, SampleFormat::AdcU16);
        assert!(!guideline.fits_msp430f1611());
    }

    #[test]
    fn max_feasible_d_monotone_in_n() {
        let d48 = max_feasible_d(48, 2, SampleFormat::F32).unwrap();
        let d288 = max_feasible_d(288, 2, SampleFormat::F32).unwrap();
        assert!(d48 > d288, "d48 {d48} vs d288 {d288}");
        // The paper's D=20 at N=48 is feasible in f32.
        assert!(d48 >= 20);
    }

    #[test]
    fn adc_format_halves_history() {
        let f = MemoryFootprint::wcma(10, 96, 2, SampleFormat::F32);
        let u = MemoryFootprint::wcma(10, 96, 2, SampleFormat::AdcU16);
        assert_eq!(u.history_bytes * 2, f.history_bytes);
    }

    #[test]
    fn ewma_is_tiny() {
        let fp = MemoryFootprint::ewma(288);
        assert!(fp.total_bytes() < 1200);
        assert!(fp.fits_msp430f1611());
    }

    #[test]
    fn formats_display_and_bytes() {
        assert_eq!(SampleFormat::F32.bytes(), 4);
        assert_eq!(SampleFormat::AdcU16.bytes(), 2);
        assert_eq!(SampleFormat::Q16.to_string(), "Q16.16");
        let fp = MemoryFootprint::wcma(2, 4, 1, SampleFormat::F32);
        assert!(fp.to_string().contains("history"));
    }
}
