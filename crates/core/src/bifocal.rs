//! Bifocal sampling adapted to the VSJ problem.
//!
//! Ganguly, Gibbons, Matias & Silberschatz's bifocal sampling (SIGMOD
//! 1996; reference \[9\] of the paper) estimates equi-join sizes by
//! treating *dense* and *sparse* join values with separate procedures.
//! The paper cites it as the closest prior art whose guarantees do **not**
//! transfer: bifocal assumes a join size of `Ω(n log n)`, which at DBLP
//! scale corresponds to τ ≈ 0.4 — far below the interesting range (§3.1).
//!
//! This module is the natural adaptation, included as an extra baseline
//! (and to let the bench harness demonstrate the §3.1 claim): buckets of
//! an LSH table play the role of join values,
//!
//! * **dense focus** — buckets with `b_j ≥ threshold` members: their pair
//!   populations are sampled (or enumerated when small) bucket by bucket;
//! * **sparse focus** — all remaining pairs, estimated by plain random
//!   sampling over the complement.
//!
//! At high τ the sparse focus inherits RS's collapse — the same
//! fluctuation LSH-SS's SampleL guards against with its safe bound.

use crate::estimate::Estimate;
use vsj_lsh::{IndexView, LshTable};
use vsj_sampling::{pairs::sample_distinct_pair, AliasTable, Rng};
use vsj_vector::{pairs_of, Similarity, VectorCollection};

/// Bifocal estimator over an LSH table's bucket structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bifocal {
    /// Buckets with at least this many members form the dense focus.
    pub dense_threshold: usize,
    /// Samples spent inside the dense focus.
    pub dense_samples: u64,
    /// Samples spent on the sparse focus.
    pub sparse_samples: u64,
}

impl Bifocal {
    /// A budget-matched default: dense threshold `√n`, `n` samples per
    /// focus.
    pub fn with_defaults(n: usize) -> Self {
        Self {
            dense_threshold: ((n as f64).sqrt().ceil() as usize).max(2),
            dense_samples: n as u64,
            sparse_samples: n as u64,
        }
    }

    /// Estimates the self-join size at `τ`.
    pub fn estimate<S, R>(
        &self,
        collection: &VectorCollection,
        table: &LshTable,
        measure: &S,
        tau: f64,
        rng: &mut R,
    ) -> Estimate
    where
        S: Similarity,
        R: Rng + ?Sized,
    {
        assert_eq!(collection.len(), table.len(), "table/collection mismatch");
        let m_total = table.total_pairs();
        let n = collection.len() as u64;
        if n < 2 {
            return Estimate::scaled(0.0, m_total);
        }

        // Dense focus: per-bucket pair populations of the large buckets.
        let dense: Vec<&vsj_lsh::table::Bucket> = table
            .buckets()
            .filter(|b| b.count() >= self.dense_threshold)
            .collect();
        let dense_pairs: u64 = dense.iter().map(|b| b.pair_weight()).sum();
        let j_dense = if dense_pairs == 0 || self.dense_samples == 0 {
            0.0
        } else {
            let alias = AliasTable::new(
                &dense
                    .iter()
                    .map(|b| b.pair_weight() as f64)
                    .collect::<Vec<_>>(),
            )
            .expect("dense buckets have positive pair weights");
            let mut hits = 0u64;
            for _ in 0..self.dense_samples {
                let bucket = dense[alias.sample(rng)];
                let sz = bucket.members.len();
                let i = rng.below_usize(sz);
                let mut j = rng.below_usize(sz - 1);
                if j >= i {
                    j += 1;
                }
                if collection.sim(measure, bucket.members[i], bucket.members[j]) >= tau {
                    hits += 1;
                }
            }
            hits as f64 * (dense_pairs as f64 / self.dense_samples as f64)
        };

        // Sparse focus: uniform pairs, rejecting dense-bucket pairs.
        let sparse_pairs = m_total - dense_pairs;
        let j_sparse = if sparse_pairs == 0 || self.sparse_samples == 0 {
            0.0
        } else {
            let dense_floor = self.dense_threshold;
            let mut hits = 0u64;
            let mut taken = 0u64;
            while taken < self.sparse_samples {
                let (i, j) = sample_distinct_pair(rng, n);
                let (i, j) = (i as u32, j as u32);
                let in_dense =
                    table.same_bucket(i, j) && table.bucket_count(table.key_of(i)) >= dense_floor;
                if in_dense {
                    continue;
                }
                taken += 1;
                if collection.sim(measure, i, j) >= tau {
                    hits += 1;
                }
            }
            hits as f64 * (sparse_pairs as f64 / self.sparse_samples as f64)
        };

        Estimate::scaled(j_dense + j_sparse, m_total)
    }

    /// The number of pairs in the dense focus (diagnostic; `Ω(n log n)`
    /// is the regime bifocal's guarantees assume).
    pub fn dense_pair_count(&self, table: &LshTable) -> u64 {
        table
            .buckets()
            .filter(|b| b.count() >= self.dense_threshold)
            .map(|b| pairs_of(b.count() as u64))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vsj_lsh::{Composite, MinHashFamily};
    use vsj_sampling::Xoshiro256;
    use vsj_vector::{Jaccard, SparseVector};

    fn corpus() -> VectorCollection {
        let mut rng = Xoshiro256::seeded(21);
        let mut vectors = Vec::new();
        for _ in 0..300 {
            let start = rng.below(150) as u32;
            let len = 6 + rng.below(6) as u32;
            vectors.push(SparseVector::binary_from_members(
                (start..start + len).collect(),
            ));
        }
        // A big duplicate cluster -> one dense bucket.
        for _ in 0..25 {
            vectors.push(SparseVector::binary_from_members((900..910).collect()));
        }
        VectorCollection::from_vectors(vectors)
    }

    fn table(coll: &VectorCollection) -> LshTable {
        let hasher = Arc::new(Composite::derive(MinHashFamily::new(), 5, 0, 6));
        LshTable::build(coll, hasher, Some(1))
    }

    fn exact(coll: &VectorCollection, tau: f64) -> u64 {
        let n = coll.len() as u32;
        let mut c = 0;
        for a in 0..n {
            for b in (a + 1)..n {
                if Jaccard.sim(coll.vector(a), coll.vector(b)) >= tau {
                    c += 1;
                }
            }
        }
        c
    }

    #[test]
    fn dense_focus_detects_large_buckets() {
        let coll = corpus();
        let t = table(&coll);
        let bf = Bifocal {
            dense_threshold: 20,
            dense_samples: 1000,
            sparse_samples: 1000,
        };
        // The 25-duplicate cluster forms a dense bucket: C(25,2) = 300.
        assert!(bf.dense_pair_count(&t) >= 300);
    }

    #[test]
    fn accurate_at_moderate_tau() {
        let coll = corpus();
        let t = table(&coll);
        let tau = 0.4;
        let truth = exact(&coll, tau) as f64;
        assert!(truth > 50.0);
        let bf = Bifocal::with_defaults(coll.len());
        let mut rng = Xoshiro256::seeded(22);
        let mut sum = 0.0;
        let trials = 20;
        for _ in 0..trials {
            sum += bf.estimate(&coll, &t, &Jaccard, tau, &mut rng).value;
        }
        let mean = sum / trials as f64;
        assert!(
            (mean - truth).abs() / truth < 0.3,
            "mean {mean} vs truth {truth}"
        );
    }

    #[test]
    fn dense_cluster_estimated_reliably_at_high_tau() {
        // The duplicate cluster dominates J(0.95); bifocal's dense focus
        // must capture it even when the sparse focus sees nothing.
        let coll = corpus();
        let t = table(&coll);
        let tau = 0.95;
        let truth = exact(&coll, tau) as f64;
        assert!(truth >= 300.0);
        let bf = Bifocal::with_defaults(coll.len());
        let mut rng = Xoshiro256::seeded(23);
        let mut sum = 0.0;
        for _ in 0..20 {
            sum += bf.estimate(&coll, &t, &Jaccard, tau, &mut rng).value;
        }
        let mean = sum / 20.0;
        assert!(
            mean > truth * 0.5 && mean < truth * 2.0,
            "mean {mean} vs truth {truth}"
        );
    }

    #[test]
    fn degenerate_inputs() {
        let coll = VectorCollection::from_vectors(vec![SparseVector::binary_from_members(vec![1])]);
        let t = table(&coll);
        let bf = Bifocal::with_defaults(1);
        let mut rng = Xoshiro256::seeded(24);
        assert_eq!(bf.estimate(&coll, &t, &Jaccard, 0.5, &mut rng).value, 0.0);
    }
}
