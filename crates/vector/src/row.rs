//! Borrowed sparse rows, whichever way they are stored.
//!
//! A similarity reads two things of a row: its coordinates (strictly
//! increasing indices with their weights) and its L2 norm. [`Row`]
//! borrows them from either place a row lives: a [`SparseVector`] on the
//! heap, or the `indices | values` words of a stored row — little-endian,
//! as a checkpoint's payload block holds them — so a memory-mapped row is
//! scored where it lies, with no decode and no allocation.
//! [`Cosine`](crate::Cosine) and [`Jaccard`](crate::Jaccard) are written
//! once over it.
//!
//! Every pair goes through the one merge kernel with a key function per
//! side, so a pair scores to the same bits whatever mix of
//! representations it is: the keys, the matches and the order in which
//! `dot` adds its products do not depend on how either side is stored.

use crate::merge::{count_matches, for_each_match};
use crate::sparse::{l2_norm, SparseVector, SparseVectorError};

/// The index and value words of a stored row's payload block — `nnz |
/// indices | values`, one little-endian word each, the layout of a
/// checkpoint's payload section and of a heap payload slab. Both storage
/// tiers split a block through this one function.
///
/// The block must be exactly `1 + 2 · nnz` words long; a block that is
/// not yields slices of unequal length (never undefined behaviour).
#[inline]
pub fn row_words(block: &[[u8; 4]]) -> (&[[u8; 4]], &[[u8; 4]]) {
    block[1..].split_at(block.len() / 2)
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
fn dot<I: Index, W: Weight, J: Index, X: Weight>(a: Parts<'_, I, W>, b: Parts<'_, J, X>) -> f64 {
    let mut acc = 0.0f64;
    for_each_match(a.indices, b.indices, I::key, J::key, |i, j| {
        acc += a.values[i].weight() * b.values[j].weight()
    });
    acc
}

#[inline(always)]
fn common<I: Index, W, J: Index, X>(a: Parts<'_, I, W>, b: Parts<'_, J, X>) -> usize {
    count_matches(a.indices, b.indices, I::key, J::key)
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

    /// A stored row: its little-endian index and weight words and the
    /// norm [`Row::check_le_words`] returned for them.
    ///
    /// Nothing is checked here — scoring trusts the words. A row that was
    /// not checked scores to a meaningless number (never to undefined
    /// behaviour), so a reader checks every stored row once, when it
    /// opens the store.
    #[inline]
    pub fn from_le_words(indices: &'a [[u8; 4]], values: &'a [[u8; 4]], norm: f64) -> Self {
        debug_assert_eq!(indices.len(), values.len());
        Self {
            coords: Coords::Le(Parts { indices, values }),
            norm,
        }
    }

    /// Checks little-endian index and weight words as a stored row:
    /// equal lengths, indices strictly increasing, every weight finite
    /// ([`SparseVector::check_sorted`]) and non-zero — a writer never
    /// stores a zero, and a [`SparseVector`] never holds one. Returns the
    /// row's L2 norm, bit-identical to the one the decoded vector caches.
    ///
    /// # Errors
    /// The [`SparseVectorError`] of the first violation.
    pub fn check_le_words(
        indices: &[[u8; 4]],
        values: &[[u8; 4]],
    ) -> Result<f64, SparseVectorError> {
        if indices.len() != values.len() {
            return Err(SparseVectorError::LengthMismatch {
                indices: indices.len(),
                values: values.len(),
            });
        }
        let weights = || values.iter().map(|&w| f32::from_le_bytes(w));
        SparseVector::check_sorted(indices.iter().map(|&i| u32::from_le_bytes(i)), weights())?;
        if let Some(position) = weights().position(|w| w == 0.0) {
            return Err(SparseVectorError::ZeroValue { position });
        }
        Ok(l2_norm(weights()))
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
        match (self.coords, other.coords) {
            (Coords::Native(a), Coords::Native(b)) => dot(a, b),
            (Coords::Native(a), Coords::Le(b)) => dot(a, b),
            (Coords::Le(a), Coords::Native(b)) => dot(a, b),
            (Coords::Le(a), Coords::Le(b)) => dot(a, b),
        }
    }

    /// Number of shared coordinates `|u ∩ v|` (weights ignored).
    #[inline]
    pub fn intersection_size(self, other: Row<'_>) -> usize {
        match (self.coords, other.coords) {
            (Coords::Native(a), Coords::Native(b)) => common(a, b),
            (Coords::Native(a), Coords::Le(b)) => common(a, b),
            (Coords::Le(a), Coords::Native(b)) => common(a, b),
            (Coords::Le(a), Coords::Le(b)) => common(a, b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A vector's row as stored words: indices, then values.
    fn le_words(v: &SparseVector) -> (Vec<[u8; 4]>, Vec<[u8; 4]>) {
        (
            v.indices().iter().map(|i| i.to_le_bytes()).collect(),
            v.values().iter().map(|w| w.to_le_bytes()).collect(),
        )
    }

    #[test]
    fn checked_words_report_the_vectors_norm() {
        for v in [
            SparseVector::empty(),
            SparseVector::from_sorted(vec![1, 5, 9], vec![0.1, -2.5, 3e-7]).unwrap(),
        ] {
            let (indices, values) = le_words(&v);
            let norm = Row::check_le_words(&indices, &values).unwrap();
            assert_eq!(norm.to_bits(), v.norm().to_bits());
            let row = Row::from_le_words(&indices, &values, norm);
            assert_eq!(row.nnz(), v.nnz());
        }
    }

    #[test]
    fn checking_words_refuses_what_no_vector_holds() {
        let words = |xs: &[u32]| xs.iter().map(|x| x.to_le_bytes()).collect::<Vec<_>>();
        let weights = |xs: &[f32]| xs.iter().map(|x| x.to_le_bytes()).collect::<Vec<_>>();
        let check = |i: &[u32], w: &[f32]| Row::check_le_words(&words(i), &weights(w));
        assert_eq!(
            check(&[1, 2], &[1.0]),
            Err(SparseVectorError::LengthMismatch {
                indices: 2,
                values: 1
            })
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
