//! Walker/Vose alias tables: O(1) sampling from a fixed discrete
//! distribution after O(n) preprocessing.
//!
//! `SampleH` of the paper's Algorithm 1 draws a bucket `B_j` with
//! probability proportional to `weight(B_j) = C(b_j, 2)` on every one of
//! its `m_H = n` iterations. A linear scan per draw would make SampleH
//! O(n·#buckets); the alias table makes the whole loop O(n + #buckets),
//! which is what keeps LSH-SS in the sub-second regime the paper reports
//! (§6.2) while RS spends minutes.

use crate::rng::Rng;

/// Error constructing an [`AliasTable`].
#[derive(Debug, Clone, PartialEq)]
pub enum AliasError {
    /// The weight vector was empty.
    Empty,
    /// A weight was negative, NaN or infinite at the reported position.
    InvalidWeight {
        /// Offending position.
        position: usize,
        /// Offending value.
        value: f64,
    },
    /// All weights were zero — no distribution to sample.
    ZeroMass,
}

impl std::fmt::Display for AliasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Empty => write!(f, "alias table requires at least one weight"),
            Self::InvalidWeight { position, value } => {
                write!(f, "invalid weight {value} at position {position}")
            }
            Self::ZeroMass => write!(f, "all weights are zero"),
        }
    }
}

impl std::error::Error for AliasError {}

/// A Walker alias table over indices `0..n` with the given weights.
///
/// Each column keeps its probability and its alias side by side, so a
/// draw reads one 16-byte entry (one cache line) after its column pick.
#[derive(Debug, Clone, PartialEq)]
pub struct AliasTable {
    columns: Box<[Column]>,
    total: f64,
}

/// One column of an [`AliasTable`]. 16-byte aligned, so no entry
/// straddles a cache line.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(align(16))]
struct Column {
    /// Probability of keeping the column's own index (scaled to [0,1]).
    prob: f64,
    /// Alias index taken when the column's own index is rejected.
    alias: u32,
}

impl AliasTable {
    /// Builds the table with Vose's stable two-worklist construction.
    ///
    /// # Errors
    /// See [`AliasError`]. Zero weights are allowed (those indices are
    /// simply never drawn) as long as the total mass is positive.
    pub fn new(weights: &[f64]) -> Result<Self, AliasError> {
        Self::from_weights(weights.iter().copied())
    }

    /// [`AliasTable::new`] over weights streamed straight into the
    /// table's columns, with no intermediate weight buffer.
    ///
    /// # Errors
    /// As [`AliasTable::new`].
    pub fn from_weights(weights: impl IntoIterator<Item = f64>) -> Result<Self, AliasError> {
        let weights = weights.into_iter();
        let mut total = 0.0f64;
        let mut columns: Vec<Column> = Vec::with_capacity(weights.size_hint().0);
        for (position, w) in weights.enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(AliasError::InvalidWeight { position, value: w });
            }
            total += w;
            columns.push(Column {
                prob: w,
                alias: position as u32,
            });
        }
        if columns.is_empty() {
            return Err(AliasError::Empty);
        }
        if total <= 0.0 {
            return Err(AliasError::ZeroMass);
        }
        let n = columns.len();
        assert!(n <= u32::MAX as usize, "alias table limited to u32 indices");
        let scale = n as f64 / total;
        columns.iter_mut().for_each(|c| c.prob *= scale);

        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, c) in columns.iter().enumerate() {
            if c.prob < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            columns[s as usize].alias = l;
            // Donate mass from the large column to fill the small one.
            let p = (columns[l as usize].prob + columns[s as usize].prob) - 1.0;
            columns[l as usize].prob = p;
            if p < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Numerical leftovers: both lists should drain together; anything
        // remaining is within rounding of probability 1.
        for i in large.into_iter().chain(small) {
            columns[i as usize].prob = 1.0;
        }

        Ok(Self {
            columns: columns.into_boxed_slice(),
            total,
        })
    }

    /// Number of columns (the `n` of the distribution).
    #[inline]
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the table has no columns (never constructed — kept for API
    /// completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Total input mass (e.g. `N_H` when weights are `C(b_j, 2)`).
    #[inline]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Draws an index with probability `weight[i] / total`, in O(1).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.below_usize(self.columns.len());
        let col = self.columns[i];
        if rng.next_f64() < col.prob {
            i
        } else {
            col.alias as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;
    use proptest::prelude::*;

    fn empirical_distribution(weights: &[f64], draws: usize, seed: u64) -> Vec<f64> {
        let table = AliasTable::new(weights).expect("valid weights");
        let mut rng = Xoshiro256::seeded(seed);
        let mut counts = vec![0u64; weights.len()];
        for _ in 0..draws {
            counts[table.sample(&mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn empty_weights_rejected() {
        assert_eq!(AliasTable::new(&[]).unwrap_err(), AliasError::Empty);
    }

    #[test]
    fn negative_weight_rejected() {
        let err = AliasTable::new(&[1.0, -0.5]).unwrap_err();
        assert_eq!(
            err,
            AliasError::InvalidWeight {
                position: 1,
                value: -0.5
            }
        );
    }

    #[test]
    fn nan_weight_rejected() {
        assert!(matches!(
            AliasTable::new(&[f64::NAN]).unwrap_err(),
            AliasError::InvalidWeight { position: 0, .. }
        ));
    }

    #[test]
    fn zero_mass_rejected() {
        assert_eq!(
            AliasTable::new(&[0.0, 0.0]).unwrap_err(),
            AliasError::ZeroMass
        );
    }

    #[test]
    fn single_column_always_drawn() {
        let t = AliasTable::new(&[3.5]).unwrap();
        let mut rng = Xoshiro256::seeded(1);
        for _ in 0..100 {
            assert_eq!(t.sample(&mut rng), 0);
        }
        assert_eq!(t.total(), 3.5);
    }

    #[test]
    fn zero_weight_columns_never_drawn() {
        let t = AliasTable::new(&[0.0, 1.0, 0.0, 2.0]).unwrap();
        let mut rng = Xoshiro256::seeded(2);
        for _ in 0..10_000 {
            let i = t.sample(&mut rng);
            assert!(i == 1 || i == 3, "drew zero-weight column {i}");
        }
    }

    #[test]
    fn uniform_weights_sample_uniformly() {
        let dist = empirical_distribution(&[1.0; 8], 200_000, 3);
        for (i, &p) in dist.iter().enumerate() {
            assert!((p - 0.125).abs() < 0.005, "column {i}: {p}");
        }
    }

    #[test]
    fn skewed_weights_match_expectation() {
        // The bucket-size distribution in an LSH table is heavily skewed;
        // mimic that shape.
        let weights = [1000.0, 100.0, 10.0, 1.0, 1.0, 1.0];
        let total: f64 = weights.iter().sum();
        let dist = empirical_distribution(&weights, 400_000, 4);
        for (i, (&p, &w)) in dist.iter().zip(&weights).enumerate() {
            let expected = w / total;
            assert!(
                (p - expected).abs() < 0.01 * (1.0 + expected * 50.0),
                "column {i}: got {p}, want {expected}"
            );
        }
    }

    #[test]
    fn pair_weight_use_case() {
        // Weights C(b,2) for bucket sizes [2, 3, 5]: 1, 3, 10 -> total 14.
        let weights: Vec<f64> = [2u64, 3, 5]
            .iter()
            .map(|&b| (b * (b - 1) / 2) as f64)
            .collect();
        let t = AliasTable::new(&weights).unwrap();
        assert!((t.total() - 14.0).abs() < 1e-12);
        let dist = empirical_distribution(&weights, 280_000, 5);
        assert!((dist[0] - 1.0 / 14.0).abs() < 0.005);
        assert!((dist[1] - 3.0 / 14.0).abs() < 0.005);
        assert!((dist[2] - 10.0 / 14.0).abs() < 0.005);
        assert_eq!(
            AliasTable::from_weights(weights.iter().copied()),
            Ok(t),
            "streamed weights"
        );
    }

    proptest! {
        #[test]
        fn prop_samples_in_range(weights in proptest::collection::vec(0.0f64..100.0, 1..64), seed in 0u64..1000) {
            prop_assume!(weights.iter().sum::<f64>() > 0.0);
            let t = AliasTable::new(&weights).unwrap();
            let mut rng = Xoshiro256::seeded(seed);
            for _ in 0..100 {
                prop_assert!(t.sample(&mut rng) < weights.len());
            }
        }

        #[test]
        fn prop_empirical_tv_distance_small(
            raw in proptest::collection::vec(0.01f64..20.0, 2..12),
        ) {
            // Total-variation distance between empirical and target
            // distributions shrinks with sample count; 100k draws on ≤12
            // columns should be within 2%.
            let total: f64 = raw.iter().sum();
            let dist = empirical_distribution(&raw, 100_000, 42);
            let tv: f64 = dist
                .iter()
                .zip(&raw)
                .map(|(&p, &w)| (p - w / total).abs())
                .sum::<f64>()
                / 2.0;
            prop_assert!(tv < 0.02, "TV distance {tv}");
        }
    }
}
