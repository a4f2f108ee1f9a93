//! The one sorted-merge kernel of the crate.
//!
//! Every pairwise operation over two coordinate-sorted lists — `dot`,
//! `intersection_size` — is "find the positions whose keys are equal",
//! and both get it from here:
//! [`count_matches`] when only the number of matches is wanted,
//! [`for_each_match`] when the matching positions are.
//!
//! The merge is **block-wise and branch-free**. One step compares a block
//! of keys from each side all-against-all and then advances whichever
//! block ends on the smaller key (both on a tie) by adding
//! `width * usize::from(..)`, not by branching: the three-way
//! `match a[i].cmp(&b[j])` this replaces paid one mispredicted branch per
//! step, which was the whole cost of the loop. Two steps share that shape:
//!
//! * the **portable** step, [`BLOCK`] keys a side: 16 `==` whose operands
//!   do not depend on each other's outcome, which the compiler emits as
//!   four SIMD compares of one side against each key of the other. It is
//!   the only step on other targets and on CPUs without AVX2, and it
//!   finishes whatever the wide step leaves;
//! * the **wide** step, [`WIDE`] keys a side, on `x86_64` CPUs that have
//!   AVX2 (checked at run time), once the shorter list has
//!   [`WIDE_MIN_LEN`] keys: `a`'s block is compared with `b`'s and with
//!   seven rotations of it — independent permutes, not a chain — and one
//!   movemask of the OR names `a`'s matching lanes. Only a block with a
//!   match also takes the mask of `b`'s lanes, the same way with the
//!   roles swapped.
//!
//! Once either side has fewer keys left than a block, the same
//! branch-free advance finishes the merge one key at a time.
//!
//! **Order.** Both lists are strictly increasing, so a key matches at most
//! one key of the other side, the matches of a block read row by row
//! (`a`'s positions ascending) are in ascending key order, and the k-th
//! set bit of a wide block's `a`-mask pairs with the k-th of its `b`-mask.
//! Blocks are visited in ascending order too, hence [`for_each_match`]
//! reports every match exactly once and in ascending key order — the
//! order the scalar merge used. `dot` adds its products in the order they
//! are reported, so its floating-point sum is bit-identical to the scalar
//! merge's, whichever of the paths below runs and whichever argument is
//! the shorter one.
//!
//! **Representation.** Each side brings its own key function, so the two
//! lists need not share a type: a [`SparseVector`](crate::SparseVector)'s
//! `u32` indices merge against the little-endian words of a stored row
//! ([`Row`](crate::Row)) with neither side copied or decoded first. The
//! keys compared, and so the path taken and the matches reported, are the
//! same whichever representation each side has.

/// Keys compared all-against-all per portable step: four `u32` fill one
/// SSE2 register, the widest unit every x86-64 (and NEON) target has.
const BLOCK: usize = 4;

/// Keys compared all-against-all per wide step: eight `u32` fill one
/// AVX2 register.
const WIDE: usize = 8;

/// Shorter-list length from which a merge takes the wide step.
///
/// Below it the wide step is no faster: the lists run out of whole
/// 8-key blocks after a step or two and the portable walk does the
/// rest. Measured per pair on uniform pairs of DBLP-like and NYT-like
/// rows in the checkpoint's block layout, binned by the shorter row's
/// length (one pinned core, medians of 9 rounds, measured twice), the
/// wide step against the portable one:
///
/// | shorter row | `dot` | counting |
/// |---|---|---|
/// | 8–11 keys | +2 % | +3 to +6 % |
/// | 12–15 | −2 to −3 % | −8 to +1 % |
/// | 16–19 | −8 to −9 % | −6 to +1 % |
/// | 24–31 | −18 to −22 % | −7 to −19 % |
/// | 64–95 | −28 % | −13 to −20 % |
/// | 128 and more | −34 to −36 % | −22 to −25 % |
pub(crate) const WIDE_MIN_LEN: usize = 16;

/// Length ratio from which the shorter list is binary-searched into the
/// longer one instead of merged.
///
/// A merge costs ≈ `(long + short) / width` steps, a search
/// `short · log2(long)` probes, so the break-even ratio grows slowly with
/// the longer length. Measured in cache against the merge as it runs
/// (the wide step once the short side has [`WIDE_MIN_LEN`] keys), a
/// quarter of the short side matching, long side of 256 / 1 024 /
/// 2 048 / 4 096 keys: `dot` breaks even at ratio ≈ 17 / 21 / 31 / 43,
/// counting at ≈ 18 / 31 / 42 / above 64 (against the 4-key merge
/// alone: ≈ 20 / 24 / 30 / 32 and ≈ 20 / 36 / 38 / 42). At 32 the search
/// is between 34 % slower (counting, 4 096 keys) and 3.8× faster (`dot`,
/// 256 keys) than the merge; at 48 it is 0.80–5.4×, at 64 0.93–6.5×.
/// Long sides of 2 048 keys and more are rare in the corpora, and a
/// higher ratio gives up the search's gain on the common short ones, so
/// the constant stays at 32, and counting takes the same cut-over as
/// `dot`.
pub(crate) const GALLOP_RATIO: usize = 32;

/// Which block step a merge runs while both lists have a block left.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Walk {
    /// [`Walk::Wide`] when the shorter list has at least [`WIDE_MIN_LEN`]
    /// keys, else [`Walk::Portable`]: what scoring runs.
    Auto,
    /// The portable step only.
    Portable,
    /// The wide step whatever the lengths, on a CPU that has AVX2.
    Wide,
}

impl Walk {
    /// The step for lists of `a` and `b` keys.
    #[inline(always)]
    fn resolve(self, a: usize, b: usize) -> Walk {
        match self {
            Walk::Auto if a.min(b) >= WIDE_MIN_LEN => Walk::Wide,
            Walk::Auto => Walk::Portable,
            walk => walk,
        }
    }
}

/// The step long rows are scored with on this CPU: `"avx2"` when it
/// has AVX2 (the wide step runs), else `"portable"`.
pub fn scoring_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "portable"
}

/// Per-row outcome of one portable step: lane `r` describes `a[i + r]`.
type Lanes = [u32; BLOCK];

/// Walks two lists with strictly increasing keys from positions `(i, j)`
/// on and calls `on_block(i, j, hit, col)` once per step: `hit[r]` is 1 iff
/// the key at `a[i + r]` equals one at `b[j..j + BLOCK]`, namely the one
/// at `b[j + col[r]]`. Single-key steps of the tail report in lane 0.
#[inline(always)]
fn walk_blocks<A: Copy, B: Copy>(
    a: &[A],
    b: &[B],
    (mut i, mut j): (usize, usize),
    key_a: impl Fn(A) -> u32,
    key_b: impl Fn(B) -> u32,
    mut on_block: impl FnMut(usize, usize, Lanes, Lanes),
) {
    while let (Some(x), Some(y)) = (a[i..].first_chunk::<BLOCK>(), b[j..].first_chunk::<BLOCK>()) {
        let (x, y) = (x.map(&key_a), y.map(&key_b));
        let (mut hit, mut col) = ([0u32; BLOCK], [0u32; BLOCK]);
        for (c, &other) in (0u32..).zip(&y) {
            for r in 0..BLOCK {
                let eq = u32::from(x[r] == other);
                hit[r] += eq;
                col[r] += eq * c;
            }
        }
        on_block(i, j, hit, col);
        i += BLOCK * usize::from(x[BLOCK - 1] <= y[BLOCK - 1]);
        j += BLOCK * usize::from(y[BLOCK - 1] <= x[BLOCK - 1]);
    }
    while i < a.len() && j < b.len() {
        let (x, y) = (key_a(a[i]), key_b(b[j]));
        let mut hit = [0u32; BLOCK];
        hit[0] = u32::from(x == y);
        on_block(i, j, hit, [0; BLOCK]);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
}

/// Runs the wide step from the heads of both lists while each has a
/// block of [`WIDE`] keys left, if `walk` is [`Walk::Wide`] and the CPU
/// has AVX2, and returns the positions the portable walk goes on from
/// (`(0, 0)` when the wide step did not run). `on_hit(i, j, in_a, in_b)`
/// is called per step: bit `r` of `in_a` is set iff `a[i + r]` matches a
/// key of `b[j..j + WIDE]`, and bit `r` of `in_b` iff `b[j + r]` matches
/// one of `a[i..i + WIDE]`. With `PAIRS` it is called only for a step
/// with a match; without, for every step, with `in_b` 0 and no branch.
#[allow(unsafe_code)]
#[inline(always)]
fn walk_wide<const PAIRS: bool, A: Copy, B: Copy>(
    walk: Walk,
    a: &[A],
    b: &[B],
    key_a: impl Fn(A) -> u32,
    key_b: impl Fn(B) -> u32,
    on_hit: impl FnMut(usize, usize, u32, u32),
) -> (usize, usize) {
    #[cfg(target_arch = "x86_64")]
    if walk == Walk::Wide && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `avx2::walk` enables no target feature beyond AVX2, and
        // the condition above has just found it on this CPU.
        return unsafe { avx2::walk::<PAIRS, A, B>(a, b, key_a, key_b, on_hit) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (walk, a, b, key_a, key_b, on_hit);
    (0, 0)
}

/// The wide step. Its keys reach the registers through
/// `_mm256_setr_epi32`, never a pointer load, so every intrinsic here is
/// a safe call inside an AVX2 function.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::WIDE;
    use std::arch::x86_64::{
        __m256i, _mm256_castsi256_ps, _mm256_cmpeq_epi32, _mm256_movemask_ps, _mm256_or_si256,
        _mm256_permutevar8x32_epi32, _mm256_setr_epi32,
    };

    /// Eight keys in one register, `keys[r]` in lane `r`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn register(keys: [u32; WIDE]) -> __m256i {
        let k = keys.map(|key| key as i32);
        _mm256_setr_epi32(k[0], k[1], k[2], k[3], k[4], k[5], k[6], k[7])
    }

    /// Bit `r` set iff lane `r` of `x` equals some lane of `y`: `x` is
    /// compared with `y` and with its rotations by 1..8 lanes, each
    /// permuted from `y` itself so that no compare waits for another.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn lanes_found(x: __m256i, y: __m256i) -> u32 {
        let mut any = _mm256_cmpeq_epi32(x, y);
        for k in 1..WIDE as i32 {
            let rotation = _mm256_setr_epi32(
                k,
                (k + 1) % 8,
                (k + 2) % 8,
                (k + 3) % 8,
                (k + 4) % 8,
                (k + 5) % 8,
                (k + 6) % 8,
                (k + 7) % 8,
            );
            let rotated = _mm256_permutevar8x32_epi32(y, rotation);
            any = _mm256_or_si256(any, _mm256_cmpeq_epi32(x, rotated));
        }
        _mm256_movemask_ps(_mm256_castsi256_ps(any)) as u32
    }

    /// The wide walk of [`walk_wide`](super::walk_wide).
    #[target_feature(enable = "avx2")]
    pub(super) fn walk<const PAIRS: bool, A: Copy, B: Copy>(
        a: &[A],
        b: &[B],
        key_a: impl Fn(A) -> u32,
        key_b: impl Fn(B) -> u32,
        mut on_hit: impl FnMut(usize, usize, u32, u32),
    ) -> (usize, usize) {
        let (mut i, mut j) = (0usize, 0usize);
        while let (Some(x), Some(y)) = (a[i..].first_chunk::<WIDE>(), b[j..].first_chunk::<WIDE>())
        {
            let (x, y) = (x.map(&key_a), y.map(&key_b));
            let (vx, vy) = (register(x), register(y));
            let in_a = lanes_found(vx, vy);
            if !PAIRS {
                on_hit(i, j, in_a, 0);
            } else if in_a != 0 {
                on_hit(i, j, in_a, lanes_found(vy, vx));
            }
            i += WIDE * usize::from(x[WIDE - 1] <= y[WIDE - 1]);
            j += WIDE * usize::from(y[WIDE - 1] <= x[WIDE - 1]);
        }
        (i, j)
    }
}

/// Binary-searches each key of `short` in the not yet passed part of
/// `long`; `on_match(i, j)` gets the positions in `short` and `long`.
#[inline(always)]
fn gallop<S: Copy, L: Copy>(
    short: &[S],
    long: &[L],
    key_short: impl Fn(S) -> u32,
    key_long: impl Fn(L) -> u32,
    mut on_match: impl FnMut(usize, usize),
) {
    let mut lo = 0usize;
    for (i, &probe) in short.iter().enumerate() {
        match long[lo..].binary_search_by_key(&key_short(probe), |&t| key_long(t)) {
            Ok(pos) => {
                on_match(i, lo + pos);
                lo += pos + 1;
            }
            Err(pos) => lo += pos,
        }
        if lo >= long.len() {
            break;
        }
    }
}

/// True when one list is at least [`GALLOP_RATIO`] times the other.
#[inline(always)]
fn lopsided(a: usize, b: usize) -> bool {
    a.max(b) / GALLOP_RATIO >= a.min(b)
}

/// Calls `on_match(i, j)` for every pair of positions with
/// `key_a(a[i]) == key_b(b[j])`, in ascending key order. Both lists must
/// be strictly increasing in their key.
#[inline(always)]
pub(crate) fn for_each_match<A: Copy, B: Copy>(
    walk: Walk,
    a: &[A],
    b: &[B],
    key_a: impl Fn(A) -> u32,
    key_b: impl Fn(B) -> u32,
    mut on_match: impl FnMut(usize, usize),
) {
    if lopsided(a.len(), b.len()) {
        if a.len() <= b.len() {
            gallop(a, b, key_a, key_b, on_match);
        } else {
            gallop(b, a, key_b, key_a, |j, i| on_match(i, j));
        }
        return;
    }
    let walk = walk.resolve(a.len(), b.len());
    let start = walk_wide::<true, A, B>(walk, a, b, &key_a, &key_b, |i, j, mut in_a, mut in_b| {
        // Both lists strictly increase: the k-th match in `a`'s block is
        // the k-th in `b`'s.
        while in_a != 0 {
            on_match(
                i + in_a.trailing_zeros() as usize,
                j + in_b.trailing_zeros() as usize,
            );
            in_a &= in_a - 1;
            in_b &= in_b - 1;
        }
    });
    walk_blocks(a, b, start, key_a, key_b, |i, j, hit, col| {
        if hit != [0; BLOCK] {
            for r in 0..BLOCK {
                if hit[r] != 0 {
                    on_match(i + r, j + col[r] as usize);
                }
            }
        }
    });
}

/// Number of keys the two lists share. Both must be strictly increasing
/// in their key.
#[inline(always)]
pub(crate) fn count_matches<A: Copy, B: Copy>(
    walk: Walk,
    a: &[A],
    b: &[B],
    key_a: impl Fn(A) -> u32,
    key_b: impl Fn(B) -> u32,
) -> usize {
    if lopsided(a.len(), b.len()) {
        let mut count = 0usize;
        for_each_match(walk, a, b, key_a, key_b, |_, _| count += 1);
        return count;
    }
    let walk = walk.resolve(a.len(), b.len());
    let mut count = 0usize;
    let start = walk_wide::<false, A, B>(walk, a, b, &key_a, &key_b, |_, _, in_a, _| {
        count += in_a.count_ones() as usize;
    });
    // One counter per lane keeps the sum in a SIMD register. Lane `r`
    // counts matches at positions `4k + r` of a list of at most 2^32
    // distinct keys (lane 0 also the tail's, at most three), so it cannot
    // overflow.
    let mut lanes = [0u32; BLOCK];
    walk_blocks(a, b, start, key_a, key_b, |_, _, hit, _| {
        for r in 0..BLOCK {
            lanes[r] += hit[r];
        }
    });
    count + lanes.iter().map(|&lane| lane as usize).sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::{block_words, Row};
    use crate::SparseVector;
    use proptest::prelude::*;

    /// `len` keyed entries, keys `offset, offset + step, …`; the payload
    /// is there so the key closure has something to skip.
    fn keyed(len: usize, step: u32, offset: u32) -> Vec<(u32, u8)> {
        (0..len as u32).map(|k| (k * step + offset, 7)).collect()
    }

    /// Every equal-key position pair by exhaustive search, in `a`'s order.
    fn all_pairs(a: &[(u32, u8)], b: &[(u32, u8)]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (i, x) in a.iter().enumerate() {
            for (j, y) in b.iter().enumerate() {
                if x.0 == y.0 {
                    out.push((i, j));
                }
            }
        }
        out
    }

    #[test]
    fn matches_are_reported_once_and_in_ascending_order() {
        // Merge path, both tails, and the search path in both directions.
        let lengths = [0usize, 1, 3, 4, 5, 8, 13, 64, 13 * GALLOP_RATIO];
        for la in lengths {
            for lb in lengths {
                for (step_a, step_b) in [(1, 1), (2, 3), (3, 2), (5, 1), (2, 2)] {
                    let (a, b) = (keyed(la, step_a, 0), keyed(lb, step_b, step_a % 2));
                    let mut seen = Vec::new();
                    let key = |(k, _): (u32, u8)| k;
                    for_each_match(Walk::Auto, &a, &b, key, key, |i, j| seen.push((i, j)));
                    assert_eq!(
                        seen,
                        all_pairs(&a, &b),
                        "{la} × {lb}, steps {step_a}/{step_b}"
                    );
                    assert_eq!(count_matches(Walk::Auto, &a, &b, key, key), seen.len());
                }
            }
        }
    }

    /// Strictly increasing indices `offset, offset + step, …` with
    /// weights over thirty binades, so every addition of a `dot` rounds
    /// and a kernel that adds out of order is caught.
    fn ragged(len: usize, step: u32, offset: u32, salt: u32) -> SparseVector {
        weighted((0..len as u32).map(|k| k * step + offset).collect(), salt)
    }

    /// Strictly increasing `indices` with the weights of [`ragged`]:
    /// thirty binades of weights, sixty of products.
    fn weighted(indices: Vec<u32>, salt: u32) -> SparseVector {
        let values = (0..indices.len() as u32)
            .map(|k| {
                let mantissa = 1.0 + ((k * 37 + salt * 11) % 101) as f32 / 101.0;
                let sign = if (k + salt).is_multiple_of(3) {
                    -1.0
                } else {
                    1.0
                };
                sign * mantissa * 2.0f32.powi(((k * 7 + salt) % 31) as i32 - 15)
            })
            .collect();
        SparseVector::from_sorted(indices, values).expect("increasing indices")
    }

    #[test]
    fn mixed_representations_score_bit_identically_to_native_rows() {
        // (len_a, len_b): the block path with its tails, the tail path
        // alone, and the search path in both directions (ratio ≥ 32).
        let shapes = [
            (64, 64),
            (17, 23),
            (3, 2),
            (5, 1),
            (2, 2 * GALLOP_RATIO),
            (3 * GALLOP_RATIO + 1, 3),
        ];
        for (la, lb) in shapes {
            for (step_a, step_b) in [(1, 1), (2, 3), (3, 2), (1, 5)] {
                let a = ragged(la, step_a, 0, 1);
                let b = ragged(lb, step_b, 0, 2);
                let (block_a, block_b): (Vec<_>, Vec<_>) =
                    (block_words(&a).collect(), block_words(&b).collect());
                let stored_a = Row::from_block(&block_a, a.norm());
                let stored_b = Row::from_block(&block_b, b.norm());
                let dot = a.as_row().dot(b.as_row());
                let common = a.as_row().intersection_size(b.as_row());
                assert!(common > 0, "{la} × {lb}: the case must share keys");
                for (u, v) in [
                    (a.as_row(), stored_b),
                    (stored_a, b.as_row()),
                    (stored_a, stored_b),
                ] {
                    let case = format!("{la} × {lb}, steps {step_a}/{step_b}");
                    assert_eq!(u.dot(v).to_bits(), dot.to_bits(), "{case}");
                    assert_eq!(v.dot(u).to_bits(), dot.to_bits(), "{case}, swapped");
                    assert_eq!(u.intersection_size(v), common, "{case}");
                    assert_eq!(v.intersection_size(u), common, "{case}, swapped");
                }
            }
        }
    }

    #[test]
    fn lopsided_is_the_integer_ratio_test() {
        assert!(lopsided(0, 0));
        assert!(lopsided(0, 5));
        assert!(!lopsided(1, GALLOP_RATIO - 1));
        assert!(lopsided(1, GALLOP_RATIO));
        assert!(lopsided(3 * GALLOP_RATIO, 3));
        assert!(!lopsided(3 * GALLOP_RATIO - 1, 3));
    }

    /// The two walks a merge can take. On a CPU without AVX2 the wide one
    /// runs the portable step, and these tests compare it with itself.
    const WALKS: [Walk; 2] = [Walk::Portable, Walk::Wide];

    /// Asserts that both walks report exactly the equal-key position
    /// pairs of `a` and `b`, in ascending order, and count them; then
    /// that they score `a` and `b`, weighted, to the same `dot` bits and
    /// intersection size in all four representation pairs, both ways.
    fn assert_walks_agree(a: &[u32], b: &[u32], case: &str) {
        let key = |k: u32| k;
        let mut want = Vec::new();
        for (i, x) in a.iter().enumerate() {
            if let Some(j) = b.iter().position(|y| y == x) {
                want.push((i, j));
            }
        }
        for walk in WALKS {
            let mut seen = Vec::new();
            for_each_match(walk, a, b, key, key, |i, j| seen.push((i, j)));
            assert_eq!(seen, want, "{case}, {walk:?}");
            assert_eq!(
                count_matches(walk, a, b, key, key),
                want.len(),
                "{case}, {walk:?}"
            );
        }
        let (a, b) = (weighted(a.to_vec(), 1), weighted(b.to_vec(), 2));
        let (block_a, block_b): (Vec<_>, Vec<_>) =
            (block_words(&a).collect(), block_words(&b).collect());
        let (stored_a, stored_b) = (
            Row::from_block(&block_a, a.norm()),
            Row::from_block(&block_b, b.norm()),
        );
        let dot = a.as_row().dot_by(b.as_row(), Walk::Portable).to_bits();
        for (u, v) in [
            (a.as_row(), b.as_row()),
            (a.as_row(), stored_b),
            (stored_a, b.as_row()),
            (stored_a, stored_b),
        ] {
            for walk in WALKS {
                assert_eq!(u.dot_by(v, walk).to_bits(), dot, "{case}, {walk:?}");
                assert_eq!(
                    v.dot_by(u, walk).to_bits(),
                    dot,
                    "{case}, {walk:?}, swapped"
                );
                assert_eq!(
                    u.intersection_size_by(v, walk),
                    want.len(),
                    "{case}, {walk:?}"
                );
                assert_eq!(
                    v.intersection_size_by(u, walk),
                    want.len(),
                    "{case}, {walk:?}, swapped"
                );
            }
        }
    }

    /// `len` keys `offset, offset + step, …`.
    fn run(len: usize, step: u32, offset: u32) -> Vec<u32> {
        (0..len as u32).map(|k| k * step + offset).collect()
    }

    #[test]
    fn walks_agree_on_every_short_length_and_layout() {
        for la in (0..=40).chain([195]) {
            for lb in (0..=40).chain([195]) {
                let layouts = [
                    ("identical", run(la, 3, 1), run(la, 3, 1)),
                    ("disjoint", run(la, 2, 0), run(lb, 2, 2 * la as u32)),
                    ("alternating", run(la, 2, 0), run(lb, 2, 1)),
                    ("interleaved", run(la, 2, 0), run(lb, 3, 0)),
                    ("nested", run(la, 8, 0), run(lb, 1, 4 * la as u32)),
                ];
                for (layout, a, b) in layouts {
                    assert_walks_agree(&a, &b, &format!("{layout} {la} × {lb}"));
                }
            }
        }
    }

    #[test]
    fn walks_agree_around_the_search_cut_over() {
        for short in [1, 3, 8, 16, 17] {
            for ratio in [GALLOP_RATIO - 1, GALLOP_RATIO, GALLOP_RATIO + 1] {
                let long = run(short * ratio, 1, 0);
                for (step, offset) in [(ratio as u32, 0), (5, 2), (1, long.len() as u32)] {
                    let a = run(short, step, offset);
                    let case = format!("{short} × {}, steps {step}/1", long.len());
                    assert_walks_agree(&a, &long, &case);
                    assert_walks_agree(&long, &a, &format!("{case}, swapped"));
                }
            }
        }
    }

    #[test]
    fn a_match_at_every_lane_pairs_with_its_lane() {
        // Two wide blocks a side with one common key: at lane `r` of
        // `a` and lane `c` of `b`, for every (r, c).
        let a = run(2 * WIDE, 20, 100);
        for r in 0..2 * WIDE {
            for c in 0..2 * WIDE as u32 {
                let b = run(2 * WIDE, 1, a[r] - c);
                assert_walks_agree(&a, &b, &format!("match at a[{r}], b[{c}]"));
                assert_walks_agree(&b, &a, &format!("match at b[{c}], a[{r}]"));
            }
        }
    }

    /// Strictly increasing keys, running sums of gaps of 1–3 so that two
    /// lists keep meeting.
    fn gapped() -> impl Strategy<Value = Vec<u32>> {
        proptest::collection::vec(1u32..4, 0..200).prop_map(|gaps| {
            gaps.iter()
                .scan(0u32, |next, &gap| {
                    *next += gap;
                    Some(*next)
                })
                .collect()
        })
    }

    proptest! {
        #[test]
        fn prop_walks_agree_on_gapped_lists(a in gapped(), b in gapped()) {
            assert_walks_agree(&a, &b, &format!("{a:?} × {b:?}"));
        }
    }

    #[test]
    fn the_scoring_kernel_is_the_wide_step_iff_the_cpu_has_avx2() {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        assert_eq!(scoring_kernel(), if avx2 { "avx2" } else { "portable" });
    }
}
