//! The one sorted-merge kernel of the crate.
//!
//! Every pairwise operation over two coordinate-sorted lists — `dot`,
//! `intersection_size` — is "find the positions whose keys are equal",
//! and both get it from here:
//! [`count_matches`] when only the number of matches is wanted,
//! [`for_each_match`] when the matching positions are.
//!
//! The merge is **block-wise and branch-free**. One step compares a block
//! of [`BLOCK`] keys from each side all-against-all — 16 `==` whose
//! operands do not depend on each other's outcome, which the compiler
//! emits as four SIMD compares of one side against each key of the other —
//! and then advances whichever block ends on the smaller key (both on a
//! tie) by adding `BLOCK * usize::from(..)`, not by branching: the
//! three-way `match a[i].cmp(&b[j])` this replaces paid one mispredicted
//! branch per step, which was the whole cost of the loop. Once either side
//! has fewer than `BLOCK` keys left, the same branch-free advance finishes
//! the merge one key at a time.
//!
//! **Order.** Both lists are strictly increasing, so a key matches at most
//! one key of the other side, and the matches of a block, read row by row
//! (`a`'s positions ascending), are in ascending key order. Blocks are
//! visited in ascending order too, hence [`for_each_match`] reports every
//! match exactly once and in ascending key order — the order the scalar
//! merge used. `dot` adds its products in the order they are reported, so
//! its floating-point sum is bit-identical to the scalar merge's, whichever
//! of the paths below runs and whichever argument is the shorter one.
//!
//! **Representation.** Each side brings its own key function, so the two
//! lists need not share a type: a [`SparseVector`](crate::SparseVector)'s
//! `u32` indices merge against the little-endian words of a stored row
//! ([`Row`](crate::Row)) with neither side copied or decoded first. The
//! keys compared, and so the path taken and the matches reported, are the
//! same whichever representation each side has.

/// Keys compared all-against-all per step: four `u32` fill one SSE2
/// register, the widest unit every x86-64 (and NEON) target has.
const BLOCK: usize = 4;

/// Length ratio from which the shorter list is binary-searched into the
/// longer one instead of merged.
///
/// A merge costs ≈ `(long + short) / BLOCK` steps, a search
/// `short · log2(long)` probes, so the break-even ratio grows slowly with
/// the longer length. Measured in cache, a quarter of the short side
/// matching, long side of 256 / 1 024 / 2 048 / 4 096 keys: `dot` breaks
/// even at ratio ≈ 20 / 24 / 30 / 32 (against the three-way merge this
/// kernel replaced: ≈ 18 / 22 / 24 / 28), counting at ≈ 20 / 36 / 38 / 42.
/// At 32 the search is between 20 % slower (counting, 2 048 keys) and
/// 1.7× faster (`dot`, 256 keys) than the merge; at 64 it is 1.4–2.8×
/// faster for both, at 128 at least 2.4×. So the constant stays at 32,
/// and counting takes the same cut-over as `dot`.
pub(crate) const GALLOP_RATIO: usize = 32;

/// Per-row outcome of one block step: lane `r` describes `a[i + r]`.
type Lanes = [u32; BLOCK];

/// Walks two lists with strictly increasing keys and calls
/// `on_block(i, j, hit, col)` once per step: `hit[r]` is 1 iff the key at
/// `a[i + r]` equals one at `b[j..j + BLOCK]`, namely the one at
/// `b[j + col[r]]`. Single-key steps of the tail report in lane 0.
#[inline(always)]
fn walk_blocks<A: Copy, B: Copy>(
    a: &[A],
    b: &[B],
    key_a: impl Fn(A) -> u32,
    key_b: impl Fn(B) -> u32,
    mut on_block: impl FnMut(usize, usize, Lanes, Lanes),
) {
    let (mut i, mut j) = (0usize, 0usize);
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
    walk_blocks(a, b, key_a, key_b, |i, j, hit, col| {
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
    a: &[A],
    b: &[B],
    key_a: impl Fn(A) -> u32,
    key_b: impl Fn(B) -> u32,
) -> usize {
    if lopsided(a.len(), b.len()) {
        let mut count = 0usize;
        for_each_match(a, b, key_a, key_b, |_, _| count += 1);
        return count;
    }
    // One counter per lane keeps the sum in a SIMD register. Lane `r`
    // counts matches at positions `4k + r` of a list of at most 2^32
    // distinct keys (lane 0 also the tail's, at most three), so it cannot
    // overflow.
    let mut lanes = [0u32; BLOCK];
    walk_blocks(a, b, key_a, key_b, |_, _, hit, _| {
        for r in 0..BLOCK {
            lanes[r] += hit[r];
        }
    });
    lanes.iter().map(|&lane| lane as usize).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::{block_words, Row};
    use crate::SparseVector;

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
                    for_each_match(&a, &b, key, key, |i, j| seen.push((i, j)));
                    assert_eq!(
                        seen,
                        all_pairs(&a, &b),
                        "{la} × {lb}, steps {step_a}/{step_b}"
                    );
                    assert_eq!(count_matches(&a, &b, key, key), seen.len());
                }
            }
        }
    }

    /// Strictly increasing indices `offset, offset + step, …` with
    /// weights over thirty binades, so every addition of a `dot` rounds
    /// and a kernel that adds out of order is caught.
    fn ragged(len: usize, step: u32, offset: u32, salt: u32) -> SparseVector {
        let (indices, values) = (0..len as u32)
            .map(|k| {
                let mantissa = 1.0 + ((k * 37 + salt * 11) % 101) as f32 / 101.0;
                let sign = if (k + salt).is_multiple_of(3) {
                    -1.0
                } else {
                    1.0
                };
                let weight = sign * mantissa * 2.0f32.powi(((k * 7 + salt) % 31) as i32 - 15);
                (k * step + offset, weight)
            })
            .unzip();
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
}
