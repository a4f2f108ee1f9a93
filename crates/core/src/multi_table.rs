//! Multi-table estimators (Appendix B.2.1 of the paper).
//!
//! A production LSH index carries `ℓ > 1` tables. Two ways to exploit
//! them:
//!
//! * [`MedianEstimator`] — run LSH-SS independently per table and take
//!   the median. By the Chernoff median argument, if each per-table
//!   estimate deviates with probability `p < 1/2`, the median deviates
//!   with probability `≤ 2^(−ℓ/2)` — reliability amplification at the
//!   cost of splitting the sample budget.
//!   The median carries the per-table kind: an exhausted S_L reads as
//!   a safe lower bound under LSH-SS and as dampened under LSH-SS(D).
//! * [`VirtualBucketEstimator`] — redefine the `H` event as *sharing a
//!   bucket in any table*. `S_H` grows (union over tables), capturing
//!   more of the true-pair mass when `k` is larger than necessary, with
//!   `N_H^∪` estimated by multiplicity-corrected union sampling (see
//!   `vsj_lsh::LshIndex`). The estimator draws its own pairs from the
//!   union stratum and its complement, and the per-τ accounting is
//!   Algorithm 1's own, shared with [`LshSs`].

use crate::estimate::{clamp_estimate, Estimate, EstimateKind};
use crate::lshss::{LshSs, LshSsConfig};
use vsj_lsh::LshIndex;
use vsj_sampling::Rng;
use vsj_vector::{Similarity, VectorCollection, VectorId};

/// Median-of-tables LSH-SS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MedianEstimator {
    /// Per-table LSH-SS configuration (the paper samples `n` pairs per
    /// table, multiplying the effective sample size by `ℓ`).
    pub per_table: LshSsConfig,
}

impl MedianEstimator {
    /// Paper defaults for database size `n`.
    pub fn with_defaults(n: usize) -> Self {
        Self {
            per_table: LshSsConfig::paper_defaults(n),
        }
    }

    /// Median of per-table LSH-SS estimates over all tables of `index`.
    pub fn estimate<S, R>(
        &self,
        collection: &VectorCollection,
        index: &LshIndex,
        measure: &S,
        tau: f64,
        rng: &mut R,
    ) -> Estimate
    where
        S: Similarity,
        R: Rng + ?Sized,
    {
        let est = LshSs {
            config: self.per_table,
        };
        let mut values: Vec<f64> = Vec::with_capacity(index.num_tables());
        let mut kind = EstimateKind::Scaled;
        for t in index.tables() {
            let e = est.estimate(collection, t, measure, tau, rng);
            if e.kind != EstimateKind::Scaled {
                kind = e.kind;
            }
            values.push(e.value);
        }
        values.sort_by(|a, b| a.partial_cmp(b).expect("estimates are finite"));
        let mid = values.len() / 2;
        let median = if values.len() % 2 == 1 {
            values[mid]
        } else {
            (values[mid - 1] + values[mid]) / 2.0
        };
        Estimate {
            value: clamp_estimate(median, collection.total_pairs()),
            kind,
        }
    }
}

/// Virtual-bucket LSH-SS over the union stratum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VirtualBucketEstimator {
    /// Sampling parameters (same roles as in plain LSH-SS).
    pub config: LshSsConfig,
    /// Union-size estimation samples for `N_H^∪` (exact when `ℓ = 1`).
    pub union_samples: u64,
}

impl VirtualBucketEstimator {
    /// Paper defaults for database size `n`.
    pub fn with_defaults(n: usize) -> Self {
        Self {
            config: LshSsConfig::paper_defaults(n),
            union_samples: (n as u64).max(1000),
        }
    }

    /// Runs the stratified scheme against virtual buckets.
    pub fn estimate<S, R>(
        &self,
        collection: &VectorCollection,
        index: &LshIndex,
        measure: &S,
        tau: f64,
        rng: &mut R,
    ) -> Estimate
    where
        S: Similarity,
        R: Rng + ?Sized,
    {
        assert_eq!(collection.len(), index.len(), "index/collection mismatch");
        let m_total = collection.total_pairs();
        let n = collection.len() as u64;
        let score = |(i, j): (VectorId, VectorId)| collection.sim(measure, i, j);

        // N_H^∪ (estimated; exact for one table).
        let nh_virtual = index.estimate_virtual_nh(rng, self.union_samples.max(1));

        // SampleH over the union stratum.
        let m_h = if nh_virtual <= 0.0 {
            0
        } else {
            self.config.m_h
        };
        let h_sims: Vec<f64> = (0..m_h)
            .map(|_| {
                index
                    .sample_virtual_bucket_pair(rng)
                    .expect("nh_virtual > 0 implies pairs exist")
            })
            .map(score)
            .collect();

        // SampleL over the complement: uniform pairs rejected while in
        // *any* common bucket, drawn as the accounting reads them.
        let nl_virtual = (m_total as f64 - nh_virtual).max(0.0);
        let m_l = if nl_virtual <= 0.0 {
            0
        } else {
            self.config.m_l
        };
        let l_sims = (0..m_l)
            .map(|_| loop {
                let (i, j) = vsj_sampling::sample_distinct_pair(rng, n);
                let (i, j) = (i as VectorId, j as VectorId);
                if !index.same_bucket_any(i, j) {
                    return (i, j);
                }
            })
            .map(score);

        LshSs {
            config: self.config,
        }
        .replay_detailed(h_sims, l_sims, nh_virtual, nl_virtual.round(), tau, m_total)
        .estimate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsj_lsh::{LshIndex, LshParams, MinHashFamily};
    use vsj_sampling::Xoshiro256;
    use vsj_vector::{Jaccard, SparseVector};

    fn corpus(seed: u64) -> VectorCollection {
        let mut rng = Xoshiro256::seeded(seed);
        let mut vectors = Vec::new();
        for _ in 0..400 {
            let start = rng.below(250) as u32;
            let len = 6 + rng.below(8) as u32;
            vectors.push(SparseVector::binary_from_members(
                (start..start + len).collect(),
            ));
        }
        for c in 0..12u32 {
            let base: Vec<u32> = (0..10).map(|j| 3000 + c * 25 + j).collect();
            vectors.push(SparseVector::binary_from_members(base.clone()));
            vectors.push(SparseVector::binary_from_members(base));
        }
        VectorCollection::from_vectors(vectors)
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

    fn index(coll: &VectorCollection, k: usize, l: usize) -> LshIndex {
        LshIndex::build_with_family(
            coll,
            MinHashFamily::new(),
            LshParams::new(k, l).with_seed(31).with_threads(1),
        )
    }

    #[test]
    fn median_estimator_accurate_and_stable() {
        let coll = corpus(1);
        let idx = index(&coll, 8, 3);
        let tau = 0.9;
        let truth = exact(&coll, tau) as f64;
        assert!(truth >= 10.0, "need duplicate tail, got {truth}");
        let est = MedianEstimator::with_defaults(coll.len());
        let mut rng = Xoshiro256::seeded(2);
        let mut vals = Vec::new();
        for _ in 0..15 {
            vals.push(est.estimate(&coll, &idx, &Jaccard, tau, &mut rng).value);
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!(
            mean > truth * 0.4 && mean < truth * 2.5,
            "mean {mean} vs truth {truth}"
        );
    }

    #[test]
    fn median_of_even_table_count() {
        let coll = corpus(3);
        let idx = index(&coll, 8, 2);
        let est = MedianEstimator::with_defaults(coll.len());
        let mut rng = Xoshiro256::seeded(4);
        let e = est.estimate(&coll, &idx, &Jaccard, 0.5, &mut rng);
        assert!(e.value.is_finite() && e.value >= 0.0);
    }

    #[test]
    fn virtual_buckets_capture_more_tail_when_k_too_large() {
        // The B.2.1 motivation: at over-selective k, a single table's S_H
        // misses true pairs that *some* table catches. The virtual
        // stratum must be at least as large as any single table's.
        let coll = corpus(5);
        let idx = index(&coll, 16, 4);
        let single_nh = idx.table(0).nh();
        let mut rng = Xoshiro256::seeded(6);
        let union_nh = idx.estimate_virtual_nh(&mut rng, 40_000);
        assert!(
            union_nh >= single_nh as f64 * 0.99,
            "union {union_nh} < single {single_nh}"
        );
    }

    #[test]
    fn virtual_estimator_accurate_at_high_tau() {
        let coll = corpus(7);
        let idx = index(&coll, 12, 3);
        let tau = 0.9;
        let truth = exact(&coll, tau) as f64;
        assert!(truth >= 10.0);
        let est = VirtualBucketEstimator::with_defaults(coll.len());
        let mut rng = Xoshiro256::seeded(8);
        let mut sum = 0.0;
        let trials = 15;
        for _ in 0..trials {
            sum += est.estimate(&coll, &idx, &Jaccard, tau, &mut rng).value;
        }
        let mean = sum / trials as f64;
        assert!(
            mean > truth * 0.4 && mean < truth * 2.5,
            "mean {mean} vs truth {truth}"
        );
    }

    #[test]
    fn virtual_estimator_single_table_equals_lshss_regime() {
        // With ℓ = 1 the virtual stratum is exactly the table stratum;
        // the estimator must behave like plain LSH-SS (same expected
        // value; compare means).
        let coll = corpus(9);
        let idx = index(&coll, 8, 1);
        let tau = 0.5;
        let est_v = VirtualBucketEstimator::with_defaults(coll.len());
        let est_p = LshSs::with_defaults(coll.len());
        let mut rng = Xoshiro256::seeded(10);
        let trials = 20;
        let mut sv = 0.0;
        let mut sp = 0.0;
        for _ in 0..trials {
            sv += est_v.estimate(&coll, &idx, &Jaccard, tau, &mut rng).value;
            sp += est_p
                .estimate(&coll, idx.table(0), &Jaccard, tau, &mut rng)
                .value;
        }
        let (mv, mp) = (sv / trials as f64, sp / trials as f64);
        assert!(
            (mv - mp).abs() < 0.5 * mp.max(1.0),
            "virtual {mv} vs plain {mp}"
        );
    }

    #[test]
    fn empty_index_handled() {
        let coll = VectorCollection::from_vectors(
            (0..4)
                .map(|i| SparseVector::binary_from_members(vec![i * 100]))
                .collect(),
        );
        let idx = index(&coll, 24, 2);
        assert_eq!(idx.sum_nh(), 0);
        let est = VirtualBucketEstimator::with_defaults(4);
        let mut rng = Xoshiro256::seeded(12);
        let e = est.estimate(&coll, &idx, &Jaccard, 0.9, &mut rng);
        assert!(e.value >= 0.0);
    }

    #[test]
    fn median_reports_the_per_table_kind() {
        // Every table exhausts S_L (δ out of reach): LSH-SS(D) per table
        // makes the median dampened, plain LSH-SS a safe lower bound.
        use crate::lshss::Dampening;
        let coll = corpus(13);
        let idx = index(&coll, 8, 3);
        let kind = |dampening| {
            let per_table = LshSsConfig {
                m_h: 50,
                m_l: 50,
                delta: 1_000,
                dampening,
            };
            let mut rng = Xoshiro256::seeded(14);
            MedianEstimator { per_table }
                .estimate(&coll, &idx, &Jaccard, 0.9, &mut rng)
                .kind
        };
        assert_eq!(kind(Dampening::NlOverDelta), EstimateKind::Dampened);
        assert_eq!(kind(Dampening::Constant(0.5)), EstimateKind::Dampened);
        assert_eq!(
            kind(Dampening::SafeLowerBound),
            EstimateKind::SafeLowerBound
        );
    }
}
