//! Measurement of the stratum probabilities — Tables 1 and 2 of the
//! paper.
//!
//! For a collection, a threshold and a bucket-counted table, the joint
//! distribution of the two binary events `T` (`sim ≥ τ`) and `H` (same
//! bucket) determines everything the analysis of §5.2 needs:
//!
//! * `P(T)` — the join selectivity (why plain RS fails);
//! * `α = P(T|H)` — why SampleH works at high τ;
//! * `P(H|T)` — why discarding `Ĵ_L` at high τ is affordable;
//! * `β = P(T|L)` — why SampleL needs the adaptive guard.
//!
//! [`StratumProbabilities::compute_exact`] enumerates all pairs
//! (threaded); [`StratumProbabilities::estimate_sampled`] samples each
//! stratum for large `n`. The regime classifier of
//! `vsj_sampling::bounds` consumes the `(α, β)` pair.

use std::sync::atomic::{AtomicUsize, Ordering};

use vsj_lsh::{IndexView, LshTable};
use vsj_sampling::bounds::{classify_regime, ThresholdRegime};
use vsj_sampling::Rng;
use vsj_vector::{Similarity, VectorCollection};

/// Row-block size for the threaded pairwise pass.
const ROW_BLOCK: usize = 16;

/// The joint `(T, H)` counts and derived probabilities at one threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StratumProbabilities {
    /// Threshold the probabilities refer to.
    pub tau: f64,
    /// `N_T` — true pairs (the exact join size when computed exactly).
    pub nt: f64,
    /// `N_{H∩T}` — true pairs sharing a bucket.
    pub nht: f64,
    /// `N_H` — same-bucket pairs.
    pub nh: f64,
    /// `M` — all pairs.
    pub m: f64,
}

impl StratumProbabilities {
    /// `P(T) = N_T / M`.
    pub fn p_t(&self) -> f64 {
        safe_div(self.nt, self.m)
    }

    /// `α = P(T|H) = N_{H∩T} / N_H`.
    pub fn alpha(&self) -> f64 {
        safe_div(self.nht, self.nh)
    }

    /// `P(H|T) = N_{H∩T} / N_T`.
    pub fn p_h_given_t(&self) -> f64 {
        safe_div(self.nht, self.nt)
    }

    /// `β = P(T|L) = (N_T − N_{H∩T}) / (M − N_H)`.
    pub fn beta(&self) -> f64 {
        safe_div(self.nt - self.nht, self.m - self.nh)
    }

    /// The §5.2 regime for a database of `n` vectors.
    pub fn regime(&self, n: usize) -> ThresholdRegime {
        classify_regime(self.alpha(), self.beta(), n)
    }

    /// Exact computation by threaded pair enumeration.
    pub fn compute_exact<S: Similarity + Sync>(
        collection: &VectorCollection,
        table: &LshTable,
        measure: &S,
        tau: f64,
        threads: usize,
    ) -> Self {
        assert_eq!(collection.len(), table.len(), "table/collection mismatch");
        let n = collection.len();
        let threads = threads.max(1);
        let cursor = AtomicUsize::new(0);
        // (nt, nht) per worker.
        let scan = |acc: &mut (u64, u64)| {
            let vectors = collection.vectors();
            loop {
                let start = cursor.fetch_add(ROW_BLOCK, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + ROW_BLOCK).min(n);
                for i in start..end {
                    let vi = &vectors[i];
                    for (off, vj) in vectors[i + 1..].iter().enumerate() {
                        if measure.sim(vi, vj) >= tau {
                            acc.0 += 1;
                            let j = i + 1 + off;
                            if table.same_bucket(i as u32, j as u32) {
                                acc.1 += 1;
                            }
                        }
                    }
                }
            }
        };
        let (nt, nht) = if threads == 1 || n < 256 {
            let mut acc = (0u64, 0u64);
            scan(&mut acc);
            acc
        } else {
            let mut parts = vec![(0u64, 0u64); threads];
            std::thread::scope(|scope| {
                for p in &mut parts {
                    let scan = &scan;
                    scope.spawn(move || scan(p));
                }
            });
            parts
                .into_iter()
                .fold((0, 0), |(a, b), (c, d)| (a + c, b + d))
        };
        Self {
            tau,
            nt: nt as f64,
            nht: nht as f64,
            nh: table.nh() as f64,
            m: table.total_pairs() as f64,
        }
    }

    /// Sampled estimation for large collections: `P(T|H)` from
    /// `samples_h` stratum-H draws, `β` from `samples_l` stratum-L draws.
    /// `N_T` is reconstructed from the two stratum estimates
    /// (`N̂_T = α̂·N_H + β̂·N_L`), keeping all five probabilities
    /// consistent.
    pub fn estimate_sampled<S, R>(
        collection: &VectorCollection,
        table: &LshTable,
        measure: &S,
        tau: f64,
        samples_h: u64,
        samples_l: u64,
        rng: &mut R,
    ) -> Self
    where
        S: Similarity,
        R: Rng + ?Sized,
    {
        assert_eq!(collection.len(), table.len(), "table/collection mismatch");
        let nh = table.nh();
        let nl = table.nl();
        let alpha_hat = if nh == 0 || samples_h == 0 {
            0.0
        } else {
            let mut hits = 0u64;
            for _ in 0..samples_h {
                let (u, v) = table
                    .sample_same_bucket_pair(rng)
                    .expect("nh > 0 yields pairs");
                if collection.sim(measure, u, v) >= tau {
                    hits += 1;
                }
            }
            hits as f64 / samples_h as f64
        };
        let beta_hat = if nl == 0 || samples_l == 0 {
            0.0
        } else {
            let mut hits = 0u64;
            for _ in 0..samples_l {
                let (u, v) = table
                    .sample_cross_bucket_pair(rng)
                    .expect("nl > 0 yields pairs");
                if collection.sim(measure, u, v) >= tau {
                    hits += 1;
                }
            }
            hits as f64 / samples_l as f64
        };
        let nht = alpha_hat * nh as f64;
        let nt = nht + beta_hat * nl as f64;
        Self {
            tau,
            nt,
            nht,
            nh: nh as f64,
            m: table.total_pairs() as f64,
        }
    }
}

fn safe_div(a: f64, b: f64) -> f64 {
    if b <= 0.0 {
        0.0
    } else {
        a / b
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
        let mut rng = Xoshiro256::seeded(3);
        let mut vectors = Vec::new();
        for _ in 0..300 {
            let start = rng.below(150) as u32;
            let len = 5 + rng.below(8) as u32;
            vectors.push(SparseVector::binary_from_members(
                (start..start + len).collect(),
            ));
        }
        for _ in 0..8 {
            vectors.push(SparseVector::binary_from_members((500..512).collect()));
        }
        VectorCollection::from_vectors(vectors)
    }

    fn table(coll: &VectorCollection) -> LshTable {
        let hasher = Arc::new(Composite::derive(MinHashFamily::new(), 9, 0, 6));
        LshTable::build(coll, hasher, Some(1))
    }

    #[test]
    fn identities_hold_exactly() {
        let coll = corpus();
        let t = table(&coll);
        let p = StratumProbabilities::compute_exact(&coll, &t, &Jaccard, 0.5, 1);
        // Bayes consistency: P(H|T)·N_T = α·N_H = N_{H∩T}.
        assert!((p.p_h_given_t() * p.nt - p.nht).abs() < 1e-9);
        assert!((p.alpha() * p.nh - p.nht).abs() < 1e-9);
        // Decomposition: N_T = α·N_H + β·N_L.
        let recon = p.alpha() * p.nh + p.beta() * (p.m - p.nh);
        assert!((recon - p.nt).abs() < 1e-6 * (1.0 + p.nt));
        // All probabilities in [0, 1].
        for v in [p.p_t(), p.alpha(), p.p_h_given_t(), p.beta()] {
            assert!((0.0..=1.0).contains(&v), "{p:?}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let coll = corpus();
        let t = table(&coll);
        let a = StratumProbabilities::compute_exact(&coll, &t, &Jaccard, 0.4, 1);
        let b = StratumProbabilities::compute_exact(&coll, &t, &Jaccard, 0.4, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn table1_shape_alpha_exceeds_beta() {
        // The LSH property in Table 1: P(T|H) ≥ P(T|L) at every τ, and
        // P(H|T) grows with τ.
        let coll = corpus();
        let t = table(&coll);
        let mut prev_h_given_t = 0.0;
        for tau in [0.2, 0.5, 0.8] {
            let p = StratumProbabilities::compute_exact(&coll, &t, &Jaccard, tau, 1);
            assert!(
                p.alpha() >= p.beta(),
                "τ={tau}: α {} < β {}",
                p.alpha(),
                p.beta()
            );
            assert!(
                p.p_h_given_t() >= prev_h_given_t - 0.05,
                "P(H|T) should grow with τ"
            );
            prev_h_given_t = p.p_h_given_t();
        }
    }

    #[test]
    fn sampled_matches_exact() {
        let coll = corpus();
        let t = table(&coll);
        let tau = 0.5;
        let exact = StratumProbabilities::compute_exact(&coll, &t, &Jaccard, tau, 1);
        let mut rng = Xoshiro256::seeded(5);
        let sampled = StratumProbabilities::estimate_sampled(
            &coll, &t, &Jaccard, tau, 40_000, 120_000, &mut rng,
        );
        assert!(
            (sampled.alpha() - exact.alpha()).abs() < 0.02,
            "α: {} vs {}",
            sampled.alpha(),
            exact.alpha()
        );
        assert!(
            (sampled.beta() - exact.beta()).abs() < 0.01 + exact.beta() * 0.3,
            "β: {} vs {}",
            sampled.beta(),
            exact.beta()
        );
    }

    #[test]
    fn regime_classification_wired_through() {
        let coll = corpus();
        let t = table(&coll);
        let p = StratumProbabilities::compute_exact(&coll, &t, &Jaccard, 0.1, 1);
        // Low τ on this corpus: plenty of true pairs everywhere.
        assert_eq!(p.regime(coll.len()), ThresholdRegime::Low);
    }

    #[test]
    fn empty_strata_safe() {
        let coll = VectorCollection::from_vectors(vec![
            SparseVector::binary_from_members(vec![1]),
            SparseVector::binary_from_members(vec![2]),
        ]);
        let t = table(&coll);
        let p = StratumProbabilities::compute_exact(&coll, &t, &Jaccard, 0.5, 1);
        assert_eq!(p.alpha(), 0.0);
        assert_eq!(p.p_t(), 0.0);
    }
}
