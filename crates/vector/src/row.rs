//! Borrowed sparse rows, whichever way they are stored, and the one
//! codec of a stored row.
//!
//! A similarity reads two things of a row: its coordinates (strictly
//! increasing indices with their weights) and its L2 norm. [`Row`]
//! borrows them from either place a row lives: a [`SparseVector`] on the
//! heap, or a stored row's **block** — `nnz | indices | values`, one
//! little-endian word each — so a memory-mapped row is scored where it
//! lies, with no decode and no allocation. [`Cosine`](crate::Cosine) and
//! [`Jaccard`](crate::Jaccard) are written once over it.
//!
//! The block is the one stored form of a row: a checkpoint's payload
//! section, a heap payload slab, a collection file's `COLL` section and
//! a WAL insert or upsert record all hold it, and this module is the only
//! code that knows its layout:
//!
//! * [`block_words`] encodes a vector as its block;
//! * [`split_block`] splits the block at the head of some words and
//!   checks it as a stored row — the one validation policy: indices
//!   strictly increasing, every weight finite and non-zero;
//! * [`Row::from_block`] borrows a block already checked, and
//!   [`Row::to_vector`] decodes a row into an owned vector.
//!
//! Every pair goes through the one merge kernel with a key function per
//! side, so a pair scores to the same bits whatever mix of
//! representations it is: the keys, the matches and the order in which
//! `dot` adds its products do not depend on how either side is stored.

use crate::merge::{count_matches, for_each_match, Walk};
use crate::sparse::{l2_norm, SparseVector, SparseVectorError};

/// The block of `v`, word by word: `nnz`, then the indices, then the
/// weights, each one little-endian word — the one encoder of a stored
/// row.
pub fn block_words(v: &SparseVector) -> impl Iterator<Item = [u8; 4]> + '_ {
    std::iter::once((v.nnz() as u32).to_le_bytes())
        .chain(v.indices().iter().map(|i| i.to_le_bytes()))
        .chain(v.values().iter().map(|w| w.to_le_bytes()))
}

/// The block starting at word `at` of `words`, a run of blocks (a
/// payload slab): its `nnz` prefix fixes its length. Nothing is checked.
#[inline]
pub(crate) fn block_at(words: &[[u8; 4]], at: usize) -> &[[u8; 4]] {
    let nnz = u32::from_le_bytes(words[at]) as usize;
    &words[at..at + 1 + 2 * nnz]
}

/// Splits the block at the head of `words` — its `nnz` prefix fixes its
/// length — and checks it as a stored row: indices strictly increasing,
/// every weight finite ([`SparseVector::check_sorted`]) and non-zero (a
/// writer never stores a zero, and a [`SparseVector`] never holds one).
/// Returns the row, whose norm is bit-identical to the one the decoded
/// vector caches, and the words after the block.
///
/// This is the one check of a stored row: every reader of a checkpoint,
/// a collection file or a WAL record splits its blocks here.
///
/// # Errors
/// [`SparseVectorError::TruncatedBlock`] when `words` is shorter than
/// the prefix says, else the [`SparseVectorError`] of the first
/// violation.
pub fn split_block(words: &[[u8; 4]]) -> Result<(Row<'_>, &[[u8; 4]]), SparseVectorError> {
    let (&nnz, rest) = words
        .split_first()
        .ok_or(SparseVectorError::TruncatedBlock)?;
    let nnz = u32::from_le_bytes(nnz) as usize;
    if rest.len() / 2 < nnz {
        return Err(SparseVectorError::TruncatedBlock);
    }
    let (indices, rest) = rest.split_at(nnz);
    let (values, rest) = rest.split_at(nnz);
    let weights = || values.iter().map(|&w| f32::from_le_bytes(w));
    SparseVector::check_sorted(indices.iter().map(|&i| u32::from_le_bytes(i)), weights())?;
    if let Some(position) = weights().position(|w| w == 0.0) {
        return Err(SparseVectorError::ZeroValue { position });
    }
    let row = Row {
        coords: Coords::Le(Parts { indices, values }),
        norm: l2_norm(weights()),
    };
    Ok((row, rest))
}

/// A borrowed sparse row: strictly increasing `u32` coordinates with
/// finite, non-zero `f32` weights, and its L2 norm.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    coords: Coords<'a>,
    norm: f64,
}

#[derive(Debug, Clone, Copy)]
enum Coords<'a> {
    /// The native slices of a [`SparseVector`].
    Native(Parts<'a, u32, f32>),
    /// Little-endian words, as a checkpoint payload block stores them.
    Le(Parts<'a, [u8; 4], [u8; 4]>),
}

/// Parallel index and weight slices of one representation.
#[derive(Debug, Clone, Copy)]
struct Parts<'a, I, W> {
    indices: &'a [I],
    values: &'a [W],
}

/// A stored coordinate.
trait Index: Copy {
    fn key(self) -> u32;
}

impl Index for u32 {
    #[inline(always)]
    fn key(self) -> u32 {
        self
    }
}

impl Index for [u8; 4] {
    #[inline(always)]
    fn key(self) -> u32 {
        u32::from_le_bytes(self)
    }
}

/// A stored weight, widened to the `f64` similarities are computed in.
trait Weight: Copy {
    fn weight(self) -> f64;
}

impl Weight for f32 {
    #[inline(always)]
    fn weight(self) -> f64 {
        f64::from(self)
    }
}

impl Weight for [u8; 4] {
    #[inline(always)]
    fn weight(self) -> f64 {
        f64::from(f32::from_le_bytes(self))
    }
}

#[inline(always)]
fn dot<I: Index, W: Weight, J: Index, X: Weight>(
    a: Parts<'_, I, W>,
    b: Parts<'_, J, X>,
    walk: Walk,
) -> f64 {
    let mut acc = 0.0f64;
    for_each_match(walk, a.indices, b.indices, I::key, J::key, |i, j| {
        acc += a.values[i].weight() * b.values[j].weight()
    });
    acc
}

#[inline(always)]
fn common<I: Index, W, J: Index, X>(a: Parts<'_, I, W>, b: Parts<'_, J, X>, walk: Walk) -> usize {
    count_matches(walk, a.indices, b.indices, I::key, J::key)
}

impl<'a> Row<'a> {
    /// The row of a vector.
    #[inline]
    pub(crate) fn native(v: &'a SparseVector) -> Self {
        Self {
            coords: Coords::Native(Parts {
                indices: v.indices(),
                values: v.values(),
            }),
            norm: v.norm(),
        }
    }

    /// A stored row: its block (exactly `1 + 2 · nnz` words) and the
    /// norm [`split_block`] returned for it.
    ///
    /// Nothing is checked here — scoring trusts the words. A block that
    /// was not checked scores to a meaningless number (never to undefined
    /// behaviour), so a reader checks every stored row once, when it
    /// opens the store.
    #[inline]
    pub fn from_block(block: &'a [[u8; 4]], norm: f64) -> Self {
        let (indices, values) = block[1..].split_at(block.len() / 2);
        debug_assert_eq!(indices.len(), values.len());
        Self {
            coords: Coords::Le(Parts { indices, values }),
            norm,
        }
    }

    /// The row decoded into an owned vector — the one decoder of a
    /// stored row. The row must hold what a vector may: a block that
    /// [`split_block`] checked, or one [`block_words`] wrote.
    pub fn to_vector(self) -> SparseVector {
        match self.coords {
            Coords::Native(p) => SparseVector::trusted(p.indices.to_vec(), p.values.to_vec()),
            Coords::Le(p) => SparseVector::trusted(
                p.indices.iter().map(|&i| i.key()).collect(),
                p.values.iter().map(|&w| f32::from_le_bytes(w)).collect(),
            ),
        }
    }

    /// Number of stored coordinates.
    #[inline]
    pub fn nnz(&self) -> usize {
        match self.coords {
            Coords::Native(p) => p.indices.len(),
            Coords::Le(p) => p.indices.len(),
        }
    }

    /// L2 norm `‖u‖ = sqrt(Σ u[i]²)`.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm
    }

    /// Dot product over the shared coordinates, accumulated in `f64` in
    /// ascending coordinate order ([`SparseVector::dot`]).
    #[inline]
    pub fn dot(self, other: Row<'_>) -> f64 {
        self.dot_by(other, Walk::Auto)
    }

    /// Number of shared coordinates `|u ∩ v|` (weights ignored).
    #[inline]
    pub fn intersection_size(self, other: Row<'_>) -> usize {
        self.intersection_size_by(other, Walk::Auto)
    }

    /// [`Row::dot`] on the merge step `walk` selects.
    #[inline]
    pub(crate) fn dot_by(self, other: Row<'_>, walk: Walk) -> f64 {
        match (self.coords, other.coords) {
            (Coords::Native(a), Coords::Native(b)) => dot(a, b, walk),
            (Coords::Native(a), Coords::Le(b)) => dot(a, b, walk),
            (Coords::Le(a), Coords::Native(b)) => dot(a, b, walk),
            (Coords::Le(a), Coords::Le(b)) => dot(a, b, walk),
        }
    }

    /// [`Row::intersection_size`] on the merge step `walk` selects.
    #[inline]
    pub(crate) fn intersection_size_by(self, other: Row<'_>, walk: Walk) -> usize {
        match (self.coords, other.coords) {
            (Coords::Native(a), Coords::Native(b)) => common(a, b, walk),
            (Coords::Native(a), Coords::Le(b)) => common(a, b, walk),
            (Coords::Le(a), Coords::Native(b)) => common(a, b, walk),
            (Coords::Le(a), Coords::Le(b)) => common(a, b, walk),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A block from raw indices and weights.
    fn block(indices: &[u32], weights: &[f32]) -> Vec<[u8; 4]> {
        let mut words = vec![(indices.len() as u32).to_le_bytes()];
        words.extend(indices.iter().map(|i| i.to_le_bytes()));
        words.extend(weights.iter().map(|w| w.to_le_bytes()));
        words
    }

    #[test]
    fn checked_words_report_the_vectors_norm() {
        for v in [
            SparseVector::empty(),
            SparseVector::from_sorted(vec![1, 5, 9], vec![0.1, -2.5, 3e-7]).unwrap(),
        ] {
            let mut words: Vec<[u8; 4]> = block_words(&v).collect();
            assert_eq!(words, block(v.indices(), v.values()));
            words.push(*b"next");
            let (row, rest) = split_block(&words).unwrap();
            assert_eq!(rest, [*b"next"]);
            assert_eq!(row.norm().to_bits(), v.norm().to_bits());
            assert_eq!(row.nnz(), v.nnz());
            assert_eq!(row.to_vector(), v);
            let stored = Row::from_block(&words[..words.len() - 1], row.norm());
            assert_eq!(stored.to_vector(), v);
            assert_eq!(v.as_row().to_vector(), v);
        }
    }

    #[test]
    fn checking_words_refuses_what_no_vector_holds() {
        let check = |i: &[u32], w: &[f32]| split_block(&block(i, w)).map(|(row, _)| row.norm());
        assert_eq!(
            split_block(&[]).err(),
            Some(SparseVectorError::TruncatedBlock)
        );
        let mut short = block(&[1, 2], &[1.0, 1.0]);
        short.pop();
        assert_eq!(
            split_block(&short).err(),
            Some(SparseVectorError::TruncatedBlock)
        );
        let mut huge = block(&[1], &[1.0]);
        huge[0] = u32::MAX.to_le_bytes();
        assert_eq!(
            split_block(&huge).err(),
            Some(SparseVectorError::TruncatedBlock)
        );
        assert_eq!(
            check(&[2, 2], &[1.0, 1.0]),
            Err(SparseVectorError::UnsortedIndices { position: 1 })
        );
        assert_eq!(
            check(&[1, 2], &[1.0, f32::NAN]),
            Err(SparseVectorError::NonFiniteValue { position: 1 })
        );
        for zero in [0.0, -0.0] {
            assert_eq!(
                check(&[1, 2, 3], &[1.0, zero, 1.0]),
                Err(SparseVectorError::ZeroValue { position: 1 })
            );
        }
        assert!(check(&[1, 2, 3], &[1.0, -1.0, 0.5]).is_ok());
    }
}
