//! Standard-normal sampling.
//!
//! Two forms are needed by the LSH crate:
//!
//! * a streaming sampler over any [`Rng`] (dataset generators, tests);
//! * a **counter-based** sampler [`gaussian_at`] that maps a
//!   `(seed, function, dimension)` triple directly to a N(0,1) deviate.
//!   This is what lets SimHash evaluate `sign(Σ_i x_i · r_i)` for a
//!   d ≈ 10⁵-dimensional Gaussian hyperplane without ever storing `r`:
//!   `r_i = gaussian_at(seed, f, i)` is recomputed on demand and is
//!   identical across calls, machines and threads.
//!
//! The two forms use two exact transforms, each the cheaper one for its
//! access pattern:
//!
//! * The counter-based form is the inverse CDF: `r_i = Φ⁻¹(p)` of the one
//!   53-bit uniform `p = ((mix3(seed, f, i) >> 11) + ½)·2⁻⁵³`
//!   ([`gaussian_from_word`]), evaluated by Wichura's AS241
//!   ([`inverse_normal_cdf`], accurate to about 1e-16). SimHash realises
//!   `k × nnz` coordinates per row and keeps none of them, so each
//!   coordinate pays its whole transform: AS241's central 85 % is one
//!   rational polynomial, and only the tails call `ln` and `sqrt`.
//!   Box–Muller paid a second uniform, `ln`, `sqrt` and `cos` for every
//!   coordinate and discarded half its pair (a per-dimension counter
//!   has no use for the second deviate). Φ⁻¹ is about 3× cheaper per
//!   coordinate: 36 ns → 12.6 ns on one thread of a 2-vCPU Xeon host.
//! * The streaming form stays Box–Muller. The corpus generators
//!   (`vsj_datasets::textgen`) draw through [`standard_normal`], so a
//!   change would move every generated corpus and the byte pins on them;
//!   and [`fill_standard_normal`] keeps both deviates of a pair, so a
//!   bulk deviate costs one uniform and half a `ln`/`sqrt`/`cos`.

use crate::rng::{Rng, SplitMix64};

/// Converts two uniform words into one standard-normal deviate via
/// Box–Muller. The second deviate of the pair is discarded — callers that
/// need bulk deviates should use [`fill_standard_normal`].
#[inline]
fn box_muller(u1: u64, u2: u64) -> f64 {
    // Map u1 to (0, 1] so ln() is finite; u2 to [0, 1).
    let x = ((u1 >> 11) as f64 + 1.0) * (1.0 / (1u64 << 53) as f64);
    let y = (u2 >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    (-2.0 * x.ln()).sqrt() * (2.0 * std::f64::consts::PI * y).cos()
}

/// One standard-normal deviate from a streaming RNG.
#[inline]
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1 = rng.next_u64();
    let u2 = rng.next_u64();
    box_muller(u1, u2)
}

/// Fills a slice with independent N(0,1) deviates, using both Box–Muller
/// outputs per uniform pair.
pub fn fill_standard_normal<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
    let mut i = 0;
    while i < out.len() {
        let x = ((rng.next_u64() >> 11) as f64 + 1.0) * (1.0 / (1u64 << 53) as f64);
        let y = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let r = (-2.0 * x.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * y;
        out[i] = r * theta.cos();
        i += 1;
        if i < out.len() {
            out[i] = r * theta.sin();
            i += 1;
        }
    }
}

// AS241's coefficients, constant term first (Wichura 1988, PPND16).
/// Central numerator, in `0.180625 − q²`.
const AS241_A: [f64; 8] = [
    3.3871328727963665,
    1.3314166789178438e2,
    1.9715909503065513e3,
    1.373169376550946e4,
    4.592195393154987e4,
    6.72657709270087e4,
    3.343057558358813e4,
    2.5090809287301227e3,
];
/// Central denominator.
const AS241_B: [f64; 8] = [
    1.0,
    4.231333070160091e1,
    6.871870074920579e2,
    5.394196021424751e3,
    2.1213794301586597e4,
    3.930789580009271e4,
    2.8729085735721943e4,
    5.226495278852854e3,
];
/// Near-tail numerator, in `√(−ln p) − 1.6`.
const AS241_C: [f64; 8] = [
    1.4234371107496835,
    4.630337846156546,
    5.769497221460691,
    3.6478483247632045,
    1.2704582524523684,
    2.417807251774506e-1,
    2.2723844989269184e-2,
    7.745450142783414e-4,
];
/// Near-tail denominator.
const AS241_D: [f64; 8] = [
    1.0,
    2.053191626637759,
    1.6763848301838038,
    6.897673349851e-1,
    1.4810397642748008e-1,
    1.5198666563616457e-2,
    5.475938084995345e-4,
    1.0507500716444169e-9,
];
/// Far-tail numerator, in `√(−ln p) − 5`.
const AS241_E: [f64; 8] = [
    6.657904643501103,
    5.463784911164114,
    1.7848265399172913,
    2.9656057182850487e-1,
    2.6532189526576124e-2,
    1.2426609473880784e-3,
    2.7115555687434876e-5,
    2.0103343992922881e-7,
];
/// Far-tail denominator.
const AS241_F: [f64; 8] = [
    1.0,
    5.99832206555888e-1,
    1.369298809227358e-1,
    1.4875361290850615e-2,
    7.868691311456133e-4,
    1.8463183175100548e-5,
    1.421511758316446e-7,
    2.0442631033899397e-15,
];

/// `Σ c_i · r^i` by Horner's rule, highest power first.
#[inline(always)]
fn horner(c: &[f64; 8], r: f64) -> f64 {
    c[..7].iter().rev().fold(c[7], |acc, &ci| acc * r + ci)
}

/// The standard-normal quantile `Φ⁻¹(p)`: Wichura's algorithm AS241
/// (PPND16, Applied Statistics 37(3), 1988), relative error about 1e-16.
///
/// `|p − ½| ≤ 0.425` is one rational polynomial of degree 7 in
/// `0.180625 − (p − ½)²`; the tails are rational polynomials in
/// `√(−ln min(p, 1 − p))`. Returns `−∞` at 0, `+∞` at 1 and NaN outside
/// `[0, 1]`.
#[inline]
pub fn inverse_normal_cdf(p: f64) -> f64 {
    let q = p - 0.5;
    if q.abs() <= 0.425 {
        let r = 0.180625 - q * q;
        return q * horner(&AS241_A, r) / horner(&AS241_B, r);
    }
    if p <= 0.0 || p >= 1.0 || p.is_nan() {
        return match p {
            0.0 => f64::NEG_INFINITY,
            1.0 => f64::INFINITY,
            _ => f64::NAN,
        };
    }
    let r = (-(if q < 0.0 { p } else { 1.0 - p }).ln()).sqrt();
    let z = if r <= 5.0 {
        let r = r - 1.6;
        horner(&AS241_C, r) / horner(&AS241_D, r)
    } else {
        let r = r - 5.0;
        horner(&AS241_E, r) / horner(&AS241_F, r)
    };
    if q < 0.0 {
        -z
    } else {
        z
    }
}

/// One N(0,1) deviate from one uniform word: `Φ⁻¹(p)` with
/// `p = ((word >> 11) + ½)·2⁻⁵³`, the midpoint of the word's 53-bit cell,
/// so `p` is never 0 or 1 and the result lies within ±8.3.
///
/// The upper half of the cells is evaluated by reflection,
/// `Φ⁻¹(1 − p) = −Φ⁻¹(p)`, so `p` is exact in `f64` for every word and
/// `gaussian_from_word(!w) == −gaussian_from_word(w)` to the bit.
#[inline]
pub fn gaussian_from_word(word: u64) -> f64 {
    let cell = word >> 11;
    // `upper` is 1 for the cells at or above ½: their mirror cell
    // 2⁵³ − 1 − cell lies below ½ and takes the sign flip.
    let upper = cell >> 52;
    let lower = cell ^ (upper.wrapping_neg() >> 11);
    let p = (lower as f64 + 0.5) * (1.0 / (1u64 << 53) as f64);
    f64::from_bits(inverse_normal_cdf(p).to_bits() ^ (upper << 63))
}

/// Deterministic N(0,1) deviate for a `(seed, stream, counter)` triple.
///
/// The LSH crate calls this as `gaussian_at(index_seed, function_id,
/// dimension)` to realize hyperplane coordinates lazily. Distinct triples
/// give (statistically) independent deviates; equal triples give identical
/// deviates.
#[inline]
pub fn gaussian_at(seed: u64, stream: u64, counter: u64) -> f64 {
    gaussian_at_base(SplitMix64::mix3_base(seed, stream), counter)
}

/// [`gaussian_at`] with the `(seed, stream)` half of the hash hoisted out
/// via [`SplitMix64::mix3_base`]: `gaussian_from_word(mix3_apply(base,
/// counter))`. Hyperplane sweeps call this once per dimension with a base
/// precomputed at function-construction time, halving the mixing work in
/// the inner loop; the result is bit-identical to [`gaussian_at`] on the
/// corresponding triple.
#[inline]
pub fn gaussian_at_base(base: u64, counter: u64) -> f64 {
    gaussian_from_word(SplitMix64::mix3_apply(base, counter))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn moments(samples: &[f64]) -> (f64, f64, f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let skew = samples.iter().map(|x| (x - mean).powi(3)).sum::<f64>() / n / var.powf(1.5);
        let kurt = samples.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n / var.powi(2);
        (mean, var, skew, kurt)
    }

    #[test]
    fn streaming_normal_moments() {
        let mut rng = Xoshiro256::seeded(1);
        let samples: Vec<f64> = (0..200_000).map(|_| standard_normal(&mut rng)).collect();
        let (mean, var, skew, kurt) = moments(&samples);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
        assert!(skew.abs() < 0.03, "skew {skew}");
        assert!((kurt - 3.0).abs() < 0.1, "kurtosis {kurt}");
    }

    #[test]
    fn fill_uses_both_box_muller_outputs() {
        let mut rng = Xoshiro256::seeded(2);
        let mut out = vec![0.0; 100_001]; // odd length exercises the tail
        fill_standard_normal(&mut rng, &mut out);
        let (mean, var, _, _) = moments(&out);
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn counter_based_is_deterministic() {
        let a = gaussian_at(1, 2, 3);
        let b = gaussian_at(1, 2, 3);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_ne!(gaussian_at(1, 2, 4).to_bits(), a.to_bits());
    }

    #[test]
    fn base_form_is_bit_identical() {
        for seed in [0u64, 7, u64::MAX] {
            for stream in [0u64, 3, 1 << 40] {
                let base = SplitMix64::mix3_base(seed, stream);
                for counter in 0..256u64 {
                    assert_eq!(
                        gaussian_at_base(base, counter).to_bits(),
                        gaussian_at(seed, stream, counter).to_bits(),
                        "seed={seed} stream={stream} counter={counter}"
                    );
                }
            }
        }
    }

    #[test]
    fn counter_based_moments() {
        let samples: Vec<f64> = (0..200_000u64).map(|c| gaussian_at(77, 3, c)).collect();
        let (mean, var, skew, kurt) = moments(&samples);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
        assert!(skew.abs() < 0.03, "skew {skew}");
        assert!((kurt - 3.0).abs() < 0.1, "kurtosis {kurt}");
    }

    #[test]
    fn counter_based_streams_are_decorrelated() {
        // Correlation between streams 0 and 1 over matched counters.
        let n = 50_000u64;
        let (mut sxy, mut sx, mut sy, mut sxx, mut syy) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for c in 0..n {
            let x = gaussian_at(5, 0, c);
            let y = gaussian_at(5, 1, c);
            sxy += x * y;
            sx += x;
            sy += y;
            sxx += x * x;
            syy += y * y;
        }
        let nf = n as f64;
        let corr =
            (sxy - sx * sy / nf) / ((sxx - sx * sx / nf).sqrt() * (syy - sy * sy / nf).sqrt());
        assert!(corr.abs() < 0.02, "cross-stream correlation {corr}");
    }

    #[test]
    fn all_outputs_finite() {
        for c in 0..10_000u64 {
            assert!(gaussian_at(0, 0, c).is_finite());
        }
        let mut rng = Xoshiro256::seeded(3);
        for _ in 0..10_000 {
            assert!(standard_normal(&mut rng).is_finite());
        }
    }

    #[test]
    fn inverse_cdf_hits_reference_quantiles() {
        // Reference quantiles to 16 digits; AS241 is good to ~1e-16
        // relative, so 2e-15 relative leaves room for the last bits.
        for (p, want) in [
            (0.975, 1.959_963_984_540_054),
            (0.001, -3.090_232_306_167_813_5),
            (1e-10, -6.361_340_902_404_056),
            (0.3, -0.524_400_512_708_041_2),
            (0.075, -1.439_531_470_938_456),
            (0.02, -2.053_748_910_631_823),
            (0.9, 1.281_551_565_544_601),
        ] {
            let got = inverse_normal_cdf(p);
            assert!(
                (got - want).abs() <= 2e-15 * want.abs(),
                "Φ⁻¹({p}) = {got}, want {want}"
            );
        }
        assert_eq!(inverse_normal_cdf(0.5), 0.0);
        assert_eq!(inverse_normal_cdf(0.0), f64::NEG_INFINITY);
        assert_eq!(inverse_normal_cdf(1.0), f64::INFINITY);
        assert!(inverse_normal_cdf(-0.1).is_nan());
        assert!(inverse_normal_cdf(1.5).is_nan());
        assert!(inverse_normal_cdf(f64::NAN).is_nan());
    }

    #[test]
    fn inverse_cdf_is_odd_and_monotone() {
        // Dyadic p, so 1 − p is exact and the mirror is bit-exact.
        let mut prev = f64::NEG_INFINITY;
        for i in 1..(1u32 << 12) {
            let p = f64::from(i) / f64::from(1u32 << 12);
            let z = inverse_normal_cdf(p);
            assert!(z > prev, "Φ⁻¹ not increasing at {p}");
            prev = z;
            assert_eq!(inverse_normal_cdf(1.0 - p), -z, "p={p}");
        }
    }

    #[test]
    fn word_form_is_finite_symmetric_and_pinned() {
        // The extreme cells sit at p = 2⁻⁵⁴ and 1 − 2⁻⁵⁴.
        let lowest = gaussian_from_word(0);
        assert!((lowest + 8.292_361_075_813_595).abs() < 1e-13, "{lowest}");
        assert_eq!(gaussian_from_word(u64::MAX), -lowest);
        // The two middle cells straddle ½ symmetrically.
        let below_half = gaussian_from_word((1u64 << 63) - 1);
        assert!(below_half < 0.0 && below_half > -1e-15, "{below_half}");
        assert_eq!(gaussian_from_word(1 << 63), -below_half);
        let mut rng = Xoshiro256::seeded(4);
        for _ in 0..100_000 {
            let w = rng.next_u64();
            let z = gaussian_from_word(w);
            assert!(z.is_finite());
            assert_eq!(gaussian_from_word(!w).to_bits(), (-z).to_bits(), "{w:#x}");
            // The word's 11 low bits are not part of its cell.
            assert_eq!(gaussian_from_word(w | 0x7FF).to_bits(), z.to_bits());
        }
        // Monotone in the cell across the central/tail switch.
        let mut prev = f64::NEG_INFINITY;
        for cell in (0..1u64 << 53).step_by((1 << 40) + 12_345) {
            let z = gaussian_from_word(cell << 11);
            assert!(z > prev, "cell {cell}");
            prev = z;
        }
        // Pin a coordinate, so a change of transform or mix is loud.
        assert_eq!(
            gaussian_at(1, 2, 3).to_bits(),
            gaussian_from_word(0x1FCD_AED7_4C1F_0D83).to_bits()
        );
    }

    #[test]
    fn gaussian_tail_probabilities() {
        // P(|Z| > 2) ≈ 0.0455, P(|Z| > 3) ≈ 0.0027.
        let n = 400_000u64;
        let mut gt2 = 0u64;
        let mut gt3 = 0u64;
        for c in 0..n {
            let z = gaussian_at(123, 9, c).abs();
            if z > 2.0 {
                gt2 += 1;
            }
            if z > 3.0 {
                gt3 += 1;
            }
        }
        let p2 = gt2 as f64 / n as f64;
        let p3 = gt3 as f64 / n as f64;
        assert!((p2 - 0.0455).abs() < 0.004, "P(|Z|>2) = {p2}");
        assert!((p3 - 0.0027).abs() < 0.001, "P(|Z|>3) = {p3}");
    }
}
