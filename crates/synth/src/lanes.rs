//! Bulk Gaussian sampling over the ChaCha8 keystream.
//!
//! Both stream versions draw their per-sample normals as one panel per
//! day, with the keystream words taken in bulk via
//! [`ChaCha8Rng::fill_u32s`] (which the vendored crate services from a
//! 4-block interleaved refill). What differs is the Box–Muller they
//! feed:
//!
//! * **v1** keeps the scalar draw its golden digests pin: two uniforms
//!   in, `sqrt(−2 ln u₁) · cos(τ u₂)` out, the sine half discarded, libm
//!   `ln` and `cos`. The bulk fill ([`scalar_normals`]) only reorders
//!   *when* each op runs — words, then uniforms, then every `ln`, then
//!   every `cos`, then the combine, as flat loops over a chunk — never
//!   which ops run on which values, so each normal keeps its bits.
//! * **v2** ([`StreamVersion::V2`](crate::weather::StreamVersion::V2))
//!   computes Box–Muller **pairwise** — each `(u1, u2)` pair yields
//!   `r·cos θ` *and* `r·sin θ`, so the `ln`/`sqrt` and the keystream
//!   words are amortized over two normals instead of one — with a
//!   branch-free polynomial angle, so the loop over pairs is
//!   straight-line array arithmetic LLVM vectorizes.
//!
//! [`NormalSource`] is the abstraction the generator threads through
//! its `DayState`: the `Scalar` variant reproduces the v1 draw order
//! bit-for-bit, the `Lanes` variant serves normals from the batched
//! buffer. Both count draws, which is what the `synth/normal_draws`
//! ledger counter reports.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Normals produced per batch refill. Each pairwise Box–Muller pair
/// consumes two `f64` uniforms = four keystream words, so one batch
/// drains `2 × BATCH` words — a whole number of ChaCha blocks, keeping
/// the bulk fill on whole-buffer copies. Must be even.
const BATCH: usize = 256;

/// A single scalar Box–Muller draw — the v1 stream's normal. Two
/// uniforms in, the cosine half out (the sine half is discarded; that
/// discard is baked into every v1 golden digest).
#[inline]
pub(crate) fn scalar_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Fills `out` with v1 scalar Box–Muller normals — bit for bit the
/// values, and the keystream words, of `out.len()` successive
/// [`scalar_normal`] calls. Each normal takes four words (`u₁` then `u₂`,
/// lo word first); a chunk of them arrives in one bulk copy, then flat
/// passes compute the uniforms, every libm `ln`, every libm `cos`, and
/// the `sqrt` combine. libm stays: it defines the v1 bits.
///
/// The `cos` calls run in ascending-angle bins rather than in draw
/// order. libm's `cos` branches on the argument's range, and random
/// angles mispredict those branches on most calls; near-sorted ones do
/// not. Each call is pure, so the order changes no bit.
fn scalar_normals(rng: &mut ChaCha8Rng, out: &mut [f64]) {
    const CHUNK: usize = 512;
    let mut words = [0u32; 4 * CHUNK];
    let mut angle = [0.0f64; CHUNK];
    let mut order = [0u16; CHUNK];
    for chunk in out.chunks_mut(CHUNK) {
        let words = &mut words[..4 * chunk.len()];
        let angle = &mut angle[..chunk.len()];
        let order = &mut order[..chunk.len()];
        rng.fill_u32s(words);
        for ((u1, u2), w) in chunk
            .iter_mut()
            .zip(angle.iter_mut())
            .zip(words.chunks_exact(4))
        {
            *u1 = uniform_from_words(w[0], w[1]).max(f64::MIN_POSITIVE);
            *u2 = uniform_from_words(w[2], w[3]);
        }
        for value in chunk.iter_mut() {
            *value = value.ln();
        }
        ascending_bins(angle, order);
        for &i in order.iter() {
            let a = &mut angle[i as usize];
            *a = (std::f64::consts::TAU * *a).cos();
        }
        for (value, &cos_t) in chunk.iter_mut().zip(angle.iter()) {
            *value = (-2.0 * *value).sqrt() * cos_t;
        }
    }
}

/// Writes into `order` the indices of `u` (values in `[0, 1)`) grouped
/// by eight equal-width bins in ascending order: a one-pass counting
/// sort, stable within each bin.
fn ascending_bins(u: &[f64], order: &mut [u16]) {
    const BINS: usize = 8;
    let bin = |x: f64| (x * BINS as f64) as usize;
    let mut next = [0usize; BINS + 1];
    for &x in u {
        next[bin(x) + 1] += 1;
    }
    for b in 1..BINS {
        next[b] += next[b - 1];
    }
    for (i, &x) in u.iter().enumerate() {
        let slot = &mut next[bin(x)];
        order[*slot] = i as u16;
        *slot += 1;
    }
}

/// One f64 uniform from two keystream words, exactly as the vendored
/// `rand` `Standard` distribution converts `next_u64` (lo word first).
#[inline(always)]
fn uniform_from_words(lo: u32, hi: u32) -> f64 {
    let bits = lo as u64 | ((hi as u64) << 32);
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// `(sin θ, cos θ)` for `θ = τ·u`, `u ∈ [0, 1)` — the Box–Muller angle
/// pair, computed branch-free so the batch sweep vectorizes (libm
/// `sin`/`cos` calls would serialize the whole loop).
///
/// Quadrant reduction: `θ = (π/2)(q + ½ + g)` with `q ∈ {0,1,2,3}` and
/// `g ∈ [−½, ½)`, so `a = (π/2)g ∈ [−π/4, π/4)` where the Taylor
/// series below are accurate to < 1 ulp·|a| (the sin tail is
/// `a¹⁷/17! < 5·10⁻¹⁷` at `π/4`). The quadrant then only swaps and
/// flips signs of `(cos a ∓ sin a)/√2`, done with integer masks. This
/// polynomial — not libm — *defines* the v2 stream's angle values;
/// accuracy vs. libm is pinned by a test, bit-agreement is not
/// required.
#[inline(always)]
pub(crate) fn sincos_tau(u: f64) -> (f64, f64) {
    let x = 4.0 * u;
    let q = x as u64; // quadrant index; x < 4 by construction
    let g = (x - q as f64) - 0.5;
    let a = std::f64::consts::FRAC_PI_2 * g;
    let z = a * a;
    // sin a = a·S(z), cos a = C(z); Taylor in z = a², Horner order.
    let s = a
        * (1.0
            + z * (-1.6666666666666666e-1
                + z * (8.333333333333333e-3
                    + z * (-1.984126984126984e-4
                        + z * (2.7557319223985893e-6
                            + z * (-2.505210838544172e-8
                                + z * (1.6059043836821613e-10 + z * -7.647163731819816e-13)))))));
    let c = 1.0
        + z * (-5.0e-1
            + z * (4.1666666666666664e-2
                + z * (-1.388888888888889e-3
                    + z * (2.48015873015873e-5
                        + z * (-2.755731922398589e-7
                            + z * (2.08767569878681e-9
                                + z * (-1.1470745597729725e-11 + z * 4.779477332387385e-14)))))));
    // (cos θ, sin θ) over the four quadrants is (±p|±m, ±m|±p) with
    // p = (c − s)/√2, m = (c + s)/√2 — select and sign-flip via masks.
    const R: f64 = std::f64::consts::FRAC_1_SQRT_2;
    let p = (c - s) * R;
    let m = (c + s) * R;
    let swap = 0u64.wrapping_sub(q & 1);
    let base_cos = (p.to_bits() & !swap) | (m.to_bits() & swap);
    let base_sin = (m.to_bits() & !swap) | (p.to_bits() & swap);
    let sign_cos = (((q + 1) >> 1) & 1) << 63; // negative in quadrants 1, 2
    let sign_sin = ((q >> 1) & 1) << 63; // negative in quadrants 2, 3
    (
        f64::from_bits(base_sin ^ sign_sin),
        f64::from_bits(base_cos ^ sign_cos),
    )
}

/// Fills `out` (length must be even) with pairwise Box–Muller normals
/// from `words`, which must hold `2 × out.len()` keystream words. Pair
/// `i` consumes words `4i..4i+4` and produces `out[2i] = r·cos θ`,
/// `out[2i+1] = r·sin θ` with `θ` from [`sincos_tau`] — the draw order
/// and arithmetic the v2 stream pins.
///
/// Structured as flat passes over chunk panels — uniforms, radii,
/// angles, combine — so everything except the `ln` call runs as
/// vectorized array arithmetic.
fn box_muller_pairs(words: &[u32], out: &mut [f64]) {
    debug_assert_eq!(out.len() % 2, 0);
    debug_assert_eq!(words.len(), 2 * out.len());
    const CHUNK: usize = BATCH / 2;
    let mut u1 = [0.0f64; CHUNK];
    let mut radius = [0.0f64; CHUNK];
    let mut sin_t = [0.0f64; CHUNK];
    let mut cos_t = [0.0f64; CHUNK];
    for (wchunk, ochunk) in words.chunks(4 * CHUNK).zip(out.chunks_mut(2 * CHUNK)) {
        let pairs = ochunk.len() / 2;
        for i in 0..pairs {
            u1[i] = uniform_from_words(wchunk[4 * i], wchunk[4 * i + 1]).max(f64::MIN_POSITIVE);
            let u2 = uniform_from_words(wchunk[4 * i + 2], wchunk[4 * i + 3]);
            let (s, c) = sincos_tau(u2);
            sin_t[i] = s;
            cos_t[i] = c;
        }
        for i in 0..pairs {
            radius[i] = (-2.0 * u1[i].ln()).sqrt();
        }
        for (i, pair) in ochunk.chunks_exact_mut(2).enumerate() {
            pair[0] = radius[i] * cos_t[i];
            pair[1] = radius[i] * sin_t[i];
        }
    }
}

/// Where a generator's standard-normal draws come from.
///
/// Carried in the generator's `DayState`; the variant is fixed by the
/// site's [`StreamVersion`](crate::weather::StreamVersion) at stream
/// construction and never changes mid-stream.
#[derive(Clone, Debug)]
pub(crate) enum NormalMode {
    /// v1: scalar Box–Muller, one normal per uniform pair — single
    /// draws straight off the RNG, bulk fills through [`scalar_normals`].
    Scalar,
    /// v2: draws served from a batched pairwise Box–Muller buffer.
    Lanes {
        /// The batch panel; refilled `BATCH` normals at a time.
        buf: Vec<f64>,
        /// Next unread normal in `buf`.
        pos: usize,
    },
}

/// A counting normal supply over a borrowed RNG.
#[derive(Clone, Debug)]
pub(crate) struct NormalSource {
    mode: NormalMode,
    /// Total normals handed out (the `synth/normal_draws` counter).
    draws: u64,
}

impl NormalSource {
    /// The v1 scalar source (bit-identical to calling
    /// [`scalar_normal`] per draw).
    pub(crate) fn scalar() -> Self {
        NormalSource {
            mode: NormalMode::Scalar,
            draws: 0,
        }
    }

    /// The v2 lane source.
    pub(crate) fn lanes() -> Self {
        NormalSource {
            mode: NormalMode::Lanes {
                buf: Vec::new(),
                pos: 0,
            },
            draws: 0,
        }
    }

    /// Total normals handed out so far.
    pub(crate) fn draws(&self) -> u64 {
        self.draws
    }

    /// Heap bytes the source owns: the v2 lane batch, which is stream
    /// state (a day can end mid-batch).
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        match &self.mode {
            NormalMode::Scalar => 0,
            NormalMode::Lanes { buf, .. } => buf.capacity() * std::mem::size_of::<f64>(),
        }
    }

    /// One standard-normal draw.
    pub(crate) fn next(&mut self, rng: &mut ChaCha8Rng) -> f64 {
        self.draws += 1;
        match &mut self.mode {
            NormalMode::Scalar => scalar_normal(rng),
            NormalMode::Lanes { buf, pos } => {
                if *pos == buf.len() {
                    refill(buf, rng);
                    *pos = 0;
                }
                let value = buf[*pos];
                *pos += 1;
                value
            }
        }
    }

    /// Fills `out` with standard normals — the bulk path the SoA day
    /// panels use. Identical draw sequence to `out.len()` calls of
    /// [`NormalSource::next`].
    pub(crate) fn fill(&mut self, rng: &mut ChaCha8Rng, out: &mut [f64]) {
        self.draws += out.len() as u64;
        match &mut self.mode {
            NormalMode::Scalar => scalar_normals(rng, out),
            NormalMode::Lanes { buf, pos } => {
                let mut filled = 0;
                while filled < out.len() {
                    if *pos == buf.len() {
                        refill(buf, rng);
                        *pos = 0;
                    }
                    let take = (buf.len() - *pos).min(out.len() - filled);
                    out[filled..filled + take].copy_from_slice(&buf[*pos..*pos + take]);
                    *pos += take;
                    filled += take;
                }
            }
        }
    }
}

/// Refills the lane batch: one bulk keystream fill, then the pairwise
/// Box–Muller panel sweep.
fn refill(buf: &mut Vec<f64>, rng: &mut ChaCha8Rng) {
    let mut words = [0u32; 2 * BATCH];
    rng.fill_u32s(&mut words);
    buf.resize(BATCH, 0.0);
    box_muller_pairs(&words, buf);
}

/// Deterministic synthesis-cost counters for one generation stream:
/// merged into the run ledger once per work unit (never per slot).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SynthCounters {
    /// 16-word ChaCha blocks consumed from the keystream (rounded up
    /// to the block the stream position sits in).
    pub keystream_blocks: u64,
    /// Standard-normal draws handed to the generator.
    pub normal_draws: u64,
}

impl SynthCounters {
    /// The counters for a stream positioned at `word_pos` keystream
    /// words with `normal_draws` normals served.
    pub(crate) fn at(rng: &ChaCha8Rng, normal_draws: u64) -> SynthCounters {
        SynthCounters {
            keystream_blocks: rng.get_word_pos().div_ceil(16) as u64,
            normal_draws,
        }
    }

    /// Component-wise sum.
    pub fn add(&mut self, other: SynthCounters) {
        self.keystream_blocks += other.keystream_blocks;
        self.normal_draws += other.normal_draws;
    }

    /// Component-wise difference against an earlier reading of the
    /// same stream (`self − base`) — attributes resumed generation to
    /// the resumed segment alone, so segment counters sum exactly to
    /// the cold-run total. Saturating, so a foreign base never wraps.
    pub fn since(&self, base: SynthCounters) -> SynthCounters {
        SynthCounters {
            keystream_blocks: self.keystream_blocks.saturating_sub(base.keystream_blocks),
            normal_draws: self.normal_draws.saturating_sub(base.normal_draws),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    /// The scalar pairwise reference: the same word-consumption and
    /// arithmetic the lane batch performs, expressed one pair at a
    /// time straight off the RNG.
    fn pairwise_reference(rng: &mut ChaCha8Rng, len: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(len + 1);
        while out.len() < len {
            let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = rng.gen();
            let r = (-2.0 * u1.ln()).sqrt();
            let (sin_t, cos_t) = sincos_tau(u2);
            out.push(r * cos_t);
            out.push(r * sin_t);
        }
        out.truncate(len);
        out
    }

    #[test]
    fn sincos_tau_matches_libm_closely() {
        // The polynomial defines the v2 angle values; this pins its
        // accuracy against libm across all quadrants and edges.
        let mut worst = 0.0f64;
        for i in 0..100_000 {
            let u = i as f64 / 100_000.0;
            let (s, c) = sincos_tau(u);
            let theta = std::f64::consts::TAU * u;
            worst = worst.max((s - theta.sin()).abs());
            worst = worst.max((c - theta.cos()).abs());
            assert!((s * s + c * c - 1.0).abs() < 1e-12, "u = {u}");
        }
        assert!(worst < 1e-13, "worst sincos error {worst:e}");
    }

    #[test]
    fn lane_batch_equals_scalar_pairwise_reference() {
        // Deterministic spot-check across batch boundaries; the
        // property test below drives random seeds and lengths.
        for len in [1usize, 2, 255, 256, 257, 1000] {
            let mut lane_rng = ChaCha8Rng::seed_from_u64(99);
            let mut ref_rng = ChaCha8Rng::seed_from_u64(99);
            let mut source = NormalSource::lanes();
            let lane: Vec<f64> = (0..len).map(|_| source.next(&mut lane_rng)).collect();
            let reference = pairwise_reference(&mut ref_rng, len);
            assert!(
                lane.iter()
                    .zip(&reference)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "len {len}"
            );
            assert_eq!(source.draws(), len as u64);
        }
    }

    #[test]
    fn bulk_fill_equals_repeated_next() {
        let mut a_rng = ChaCha8Rng::seed_from_u64(5);
        let mut b_rng = ChaCha8Rng::seed_from_u64(5);
        let mut a = NormalSource::lanes();
        let mut b = NormalSource::lanes();
        // Stagger the start so the fill begins mid-batch.
        for _ in 0..7 {
            a.next(&mut a_rng);
            b.next(&mut b_rng);
        }
        let mut bulk = vec![0.0; 600];
        a.fill(&mut a_rng, &mut bulk);
        let single: Vec<f64> = (0..600).map(|_| b.next(&mut b_rng)).collect();
        assert!(bulk
            .iter()
            .zip(&single)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_eq!(a.draws(), b.draws());
    }

    #[test]
    fn scalar_source_matches_free_function() {
        let mut a_rng = ChaCha8Rng::seed_from_u64(21);
        let mut b_rng = ChaCha8Rng::seed_from_u64(21);
        let mut source = NormalSource::scalar();
        for _ in 0..100 {
            let a = source.next(&mut a_rng);
            let b = scalar_normal(&mut b_rng);
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(source.draws(), 100);
    }

    #[test]
    fn scalar_bulk_fill_equals_successive_scalar_draws() {
        // Every fill length up to 300 (plus chunk-boundary lengths),
        // starting at every word offset of the 64-word ChaCha refill,
        // so fills that straddle a refill are covered.
        let lengths = (0..=300).chain([511, 512, 513, 1100]);
        for len in lengths {
            for offset in 0..64 {
                let mut bulk_rng = ChaCha8Rng::seed_from_u64(len as u64);
                for _ in 0..offset {
                    bulk_rng.next_u32();
                }
                let mut draw_rng = bulk_rng.clone();
                let mut source = NormalSource::scalar();
                let mut bulk = vec![0.0; len];
                source.fill(&mut bulk_rng, &mut bulk);
                for (i, value) in bulk.iter().enumerate() {
                    let draw = scalar_normal(&mut draw_rng);
                    assert_eq!(
                        value.to_bits(),
                        draw.to_bits(),
                        "len {len}, offset {offset}, draw {i}"
                    );
                }
                assert_eq!(source.draws(), len as u64);
                assert_eq!(bulk_rng.get_word_pos(), draw_rng.get_word_pos());
            }
        }
    }

    #[test]
    fn ascending_bins_is_a_stable_bin_sort() {
        let u = [0.9, 0.1, 0.95, 0.0, 0.5, 0.12, 0.999];
        let mut order = [0u16; 7];
        ascending_bins(&u, &mut order);
        // Bin 0 holds indices 1, 3 and 5 in index order, not value order.
        assert_eq!(order, [1, 3, 5, 4, 0, 2, 6]);
    }

    #[test]
    fn lane_moments_are_standard_normal() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut source = NormalSource::lanes();
        let n = 50_000;
        let draws: Vec<f64> = (0..n).map(|_| source.next(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn counters_account_blocks_and_draws() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let mut source = NormalSource::lanes();
        for _ in 0..10 {
            source.next(&mut rng);
        }
        let counters = SynthCounters::at(&rng, source.draws());
        // One batch refill = 512 words = 32 blocks.
        assert_eq!(counters.keystream_blocks, 32);
        assert_eq!(counters.normal_draws, 10);
        let mut sum = SynthCounters::default();
        sum.add(counters);
        sum.add(counters);
        assert_eq!(sum.normal_draws, 20);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Lane-batched Box–Muller equals the scalar pairwise reference
        /// bit-for-bit on random seed and length.
        #[test]
        fn lane_batch_equals_reference_for_any_seed_and_length(
            seed in 0u64..u64::MAX,
            len in 1usize..2000,
        ) {
            let mut lane_rng = ChaCha8Rng::seed_from_u64(seed);
            let mut ref_rng = ChaCha8Rng::seed_from_u64(seed);
            let mut source = NormalSource::lanes();
            let lane: Vec<f64> = (0..len).map(|_| source.next(&mut lane_rng)).collect();
            let reference = pairwise_reference(&mut ref_rng, len);
            for (a, b) in lane.iter().zip(&reference) {
                proptest::prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
