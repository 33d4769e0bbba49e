//! Deterministic log-scale histograms for the ledger plane.
//!
//! A [`Histogram`] records a *distribution* (per-scenario MAPE, slots
//! per work unit, tuner candidates per round) under the same contract
//! as ledger counters: every observation is a pure function of the
//! run's inputs, merge is bucket-wise summation (commutative and
//! associative), and the JSON form renders in sorted bucket order — so
//! a histogram is byte-identical across thread counts and shard
//! splits whenever its observations are.
//!
//! # The bucket-edge contract
//!
//! Bucket edges are **part of the byte-pinned schema**: changing them
//! changes every committed ledger, so they are fixed, not
//! configurable. A finite value `v > 0` lands in the bucket indexed
//!
//! ```text
//! index = 4·e + m
//! ```
//!
//! where `e` is the unbiased IEEE-754 exponent of `v` and `m` is the
//! top two mantissa bits — four log-spaced buckets per octave, with
//! bucket `index` covering the half-open range
//!
//! ```text
//! [ 2^⌊index/4⌋ · (1 + (index mod 4)/4),  next edge )
//! ```
//!
//! The index is computed by bit manipulation alone (no `log2`, no
//! libm), so bucketing is exact and identical on every platform.
//! Indices clamp to `[MIN_BUCKET, MAX_BUCKET]` (≈ `9.3e-10` to
//! `2.2e12`); zero, negative, and non-finite observations count in a
//! separate `zeros` bucket rather than poisoning a numeric one.

use crate::json::Json;
use std::collections::BTreeMap;

/// Lowest bucket index: values below ~2^-30 clamp here.
pub const MIN_BUCKET: i32 = 4 * -30;
/// Highest bucket index: values at or above ~2^41 clamp here.
pub const MAX_BUCKET: i32 = 4 * 40 + 3;

/// Glyphs for [`Histogram::sparkline`], lowest to highest.
const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Widest sparkline rendered before buckets are grouped into cells.
const SPARK_CELLS: usize = 32;

/// A deterministic log-scale histogram; merge sums bucket-wise.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Observation counts keyed by bucket index (sparse; sorted).
    buckets: BTreeMap<i32, u64>,
    /// Observations that have no log-scale bucket: zero, negative,
    /// NaN, and infinite values.
    zeros: u64,
}

/// The bucket index for a finite positive value, clamped to the fixed
/// range; `None` for zero, negative, and non-finite values.
pub fn bucket_index(value: f64) -> Option<i32> {
    if !value.is_finite() || value <= 0.0 {
        return None;
    }
    let bits = value.to_bits();
    let exponent = ((bits >> 52) & 0x7ff) as i32 - 1023;
    let mantissa_top = ((bits >> 50) & 0x3) as i32;
    // Subnormals decode as exponent -1023, far below MIN_BUCKET, so
    // the clamp handles them without a special case.
    Some((4 * exponent + mantissa_top).clamp(MIN_BUCKET, MAX_BUCKET))
}

/// The inclusive lower edge of bucket `index` (exact: a power of two
/// scaled by 1, 1.25, 1.5, or 1.75).
pub fn bucket_lower_edge(index: i32) -> f64 {
    let exponent = index.div_euclid(4);
    let quarter = index.rem_euclid(4);
    let pow2 = f64::from_bits(((exponent + 1023) as u64) << 52);
    pow2 * (1.0 + quarter as f64 / 4.0)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Whether nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty() && self.zeros == 0
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        match bucket_index(value) {
            Some(index) => *self.buckets.entry(index).or_default() += 1,
            None => self.zeros += 1,
        }
    }

    /// Total observations, including the `zeros` bucket.
    pub fn count(&self) -> u64 {
        self.buckets
            .values()
            .fold(self.zeros, |sum, &n| sum.saturating_add(n))
    }

    /// Observations that had no log-scale bucket.
    pub fn zeros(&self) -> u64 {
        self.zeros
    }

    /// The count in bucket `index` (0 when never hit).
    pub fn bucket(&self, index: i32) -> u64 {
        self.buckets.get(&index).copied().unwrap_or(0)
    }

    /// Sorted `(bucket index, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (i32, u64)> + '_ {
        self.buckets.iter().map(|(&k, &v)| (k, v))
    }

    /// Bucket-wise sum; the histogram analogue of counter merge.
    pub fn merge(&mut self, other: &Histogram) {
        self.zeros += other.zeros;
        for (&index, &n) in &other.buckets {
            *self.buckets.entry(index).or_default() += n;
        }
    }

    /// Deterministic JSON: `{"zeros": n, "buckets": {"<index>": n}}`,
    /// bucket keys in ascending numeric order.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("zeros", Json::Num(self.zeros as f64)),
            (
                "buckets",
                Json::Obj(
                    self.buckets
                        .iter()
                        .map(|(index, n)| (index.to_string(), Json::Num(*n as f64)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses the JSON form.
    ///
    /// # Errors
    ///
    /// Rejects non-integer bucket keys, out-of-range indices, and
    /// counts that are not non-negative integers.
    pub fn from_json(value: &Json) -> Result<Histogram, String> {
        let zeros = value.req_index("zeros")?;
        let section = value.req("buckets")?;
        let buckets = match section {
            Json::Obj(pairs) => {
                let mut map = BTreeMap::new();
                for (key, _) in pairs {
                    let index: i32 = key
                        .parse()
                        .map_err(|_| format!("histogram bucket key {key:?} is not an integer"))?;
                    if !(MIN_BUCKET..=MAX_BUCKET).contains(&index) {
                        return Err(format!("histogram bucket index {index} out of range"));
                    }
                    map.insert(index, section.req_index(key)?);
                }
                map
            }
            _ => return Err("histogram field \"buckets\" must be an object".to_string()),
        };
        Ok(Histogram { buckets, zeros })
    }

    /// A unicode sparkline over the occupied bucket range (≤
    /// `SPARK_CELLS` cells; adjacent buckets group when the range is
    /// wider). Empty string when nothing has been observed.
    pub fn sparkline(&self) -> String {
        let (Some((&lo, _)), Some((&hi, _))) = (
            self.buckets.first_key_value(),
            self.buckets.last_key_value(),
        ) else {
            return String::new();
        };
        let span = (hi - lo + 1) as usize;
        let cells = span.min(SPARK_CELLS);
        let mut grouped = vec![0u64; cells];
        for (&index, &n) in &self.buckets {
            let cell = ((index - lo) as usize * cells) / span;
            grouped[cell] = grouped[cell].saturating_add(n);
        }
        // Widened: a count from a report file may be near 2^64.
        let max = u128::from(grouped.iter().copied().max().unwrap_or(0).max(1));
        grouped
            .iter()
            .map(|&n| {
                if n == 0 {
                    '·'
                } else {
                    let level = (u128::from(n) * SPARK.len() as u128 - 1) / max;
                    SPARK[(level as usize).min(SPARK.len() - 1)]
                }
            })
            .collect()
    }

    /// One-line summary: count, zeros, edge range, sparkline.
    pub fn render_line(&self) -> String {
        if self.buckets.is_empty() {
            return format!("count {} (all zero/out-of-range)", self.count());
        }
        let lo = *self.buckets.first_key_value().expect("non-empty").0;
        let hi = *self.buckets.last_key_value().expect("non-empty").0;
        format!(
            "count {} [{:.3e}, {:.3e}) {}{}",
            self.count(),
            bucket_lower_edge(lo),
            bucket_lower_edge(hi + 1),
            self.sparkline(),
            if self.zeros > 0 {
                format!(" (+{} zero)", self.zeros)
            } else {
                String::new()
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_the_documented_edges() {
        // 1.0 = 2^0 with top mantissa bits 00 → index 0.
        assert_eq!(bucket_index(1.0), Some(0));
        assert_eq!(bucket_index(1.25), Some(1));
        assert_eq!(bucket_index(1.5), Some(2));
        assert_eq!(bucket_index(1.75), Some(3));
        assert_eq!(bucket_index(2.0), Some(4));
        assert_eq!(bucket_index(0.5), Some(-4));
        // Every value lands at or above its bucket's lower edge and
        // below the next bucket's edge.
        for &v in &[1e-6, 0.037, 0.99, 1.0, 3.2, 240.0, 86400.0] {
            let index = bucket_index(v).unwrap();
            assert!(bucket_lower_edge(index) <= v, "edge ≤ {v}");
            assert!(v < bucket_lower_edge(index + 1), "{v} < next edge");
        }
    }

    #[test]
    fn out_of_range_values_clamp_and_specials_go_to_zeros() {
        assert_eq!(bucket_index(1e-300), Some(MIN_BUCKET));
        assert_eq!(bucket_index(f64::MIN_POSITIVE / 4.0), Some(MIN_BUCKET));
        assert_eq!(bucket_index(1e300), Some(MAX_BUCKET));
        assert_eq!(bucket_index(0.0), None);
        assert_eq!(bucket_index(-1.0), None);
        assert_eq!(bucket_index(f64::NAN), None);
        assert_eq!(bucket_index(f64::INFINITY), None);
        let mut hist = Histogram::new();
        hist.observe(0.0);
        hist.observe(f64::NAN);
        hist.observe(2.0);
        assert_eq!(hist.zeros(), 2);
        assert_eq!(hist.count(), 3);
        assert_eq!(hist.bucket(4), 1);
    }

    #[test]
    fn merge_is_bucket_wise_summation() {
        let mut a = Histogram::new();
        a.observe(1.0);
        a.observe(3.0);
        a.observe(0.0);
        let mut b = Histogram::new();
        b.observe(3.0);
        b.observe(3.1);
        let mut merged = a.clone();
        merged.merge(&b);
        // Merge equals observing everything into one histogram.
        let mut whole = Histogram::new();
        for v in [1.0, 3.0, 0.0, 3.0, 3.1] {
            whole.observe(v);
        }
        assert_eq!(merged, whole);
        assert_eq!(merged.count(), 5);
        // And it commutes.
        let mut swapped = b.clone();
        swapped.merge(&a);
        assert_eq!(swapped, merged);
    }

    #[test]
    fn json_round_trips_and_is_deterministic() {
        let mut hist = Histogram::new();
        for v in [0.0037, 0.04, 0.04, 1.9, 240.0, 0.0] {
            hist.observe(v);
        }
        let text = hist.to_json().render_pretty();
        let back = Histogram::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, hist);
        assert_eq!(back.to_json().render_pretty(), text);
        // Observation order never shows through.
        let mut reversed = Histogram::new();
        for v in [0.0, 240.0, 1.9, 0.04, 0.04, 0.0037] {
            reversed.observe(v);
        }
        assert_eq!(reversed.to_json().render_pretty(), text);
    }

    #[test]
    fn from_json_rejects_malformed_histograms() {
        let parse = |s: &str| Histogram::from_json(&Json::parse(s).unwrap());
        assert!(parse(r#"{"zeros": 0}"#).is_err());
        assert!(parse(r#"{"zeros": 0, "buckets": {"x": 1}}"#).is_err());
        assert!(parse(r#"{"zeros": 0, "buckets": {"9999": 1}}"#).is_err());
        assert!(parse(r#"{"zeros": 0, "buckets": {"0": -2}}"#).is_err());
        assert!(parse(r#"{"zeros": -1, "buckets": {}}"#).is_err());
    }

    #[test]
    fn sparkline_spans_the_occupied_range() {
        let mut hist = Histogram::new();
        for _ in 0..50 {
            hist.observe(1.0);
        }
        hist.observe(16.0);
        let line = hist.sparkline();
        assert_eq!(line.chars().count(), 17, "one cell per bucket in range");
        assert_eq!(line.chars().next(), Some('█'));
        assert_eq!(line.chars().last(), Some('▁'));
        assert!(line.contains('·'), "unoccupied buckets render hollow");
        assert_eq!(Histogram::new().sparkline(), "");
        // A wide range groups down to the cell budget.
        let mut wide = Histogram::new();
        wide.observe(1e-6);
        wide.observe(1e6);
        assert_eq!(wide.sparkline().chars().count(), SPARK_CELLS);
    }
}
