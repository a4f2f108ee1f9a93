//! The Optimal-k problem (Definition 4, Appendix B.1 of the paper).
//!
//! `k` trades precision for recall in the bucket stratum:
//!
//! * larger `k` → sharper buckets → higher `P(T|H)` (precision), lower
//!   `P(H|T)` (recall);
//! * smaller `k` → fatter buckets → the reverse; at `k = 0` the stratum
//!   is the whole population and LSH contributes nothing.
//!
//! Definition 4 asks for the minimum `k` with `P(T|H) ≥ ρ`: the smallest
//! (cheapest, highest-recall) table that still makes SampleH reliable.
//! The paper notes the optimum is data-dependent; this module solves it
//! empirically — build tables of increasing `k`, measure `α̂ = P(T|H)` by
//! stratum sampling, return the first `k` that clears `ρ`.

use std::sync::Arc;

use vsj_lsh::{BucketHasher, Composite, IndexView, LshFamily, LshTable};
use vsj_sampling::Rng;
use vsj_vector::{Similarity, VectorCollection};

/// One probed `k` with its measured precision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KProbe {
    /// Number of hash functions.
    pub k: usize,
    /// Estimated `α = P(T|H)`.
    pub alpha: f64,
    /// Same-bucket pairs `N_H` at this `k` (the recall proxy: larger is
    /// better as long as `α` clears ρ).
    pub nh: u64,
}

/// Result of an optimal-k search.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalKResult {
    /// The minimum probed `k` with `α ≥ ρ`, if any cleared it.
    pub optimal_k: Option<usize>,
    /// Every probe, in increasing `k` (diagnostics / ablation plots).
    pub probes: Vec<KProbe>,
}

/// The search configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimalKSearch {
    /// Required bucket precision `ρ = ρ(ε, p)` of Definition 4.
    pub rho: f64,
    /// Largest `k` to probe.
    pub k_max: usize,
    /// Stratum-H samples per probe.
    pub samples: u64,
}

impl OptimalKSearch {
    /// Runs the search over `k = 1..=k_max` for the given family.
    pub fn run<F, S, R>(
        &self,
        collection: &VectorCollection,
        family: F,
        measure: &S,
        tau: f64,
        seed: u64,
        rng: &mut R,
    ) -> OptimalKResult
    where
        F: LshFamily + Clone + 'static,
        S: Similarity,
        R: Rng + ?Sized,
    {
        assert!(self.k_max >= 1, "need k_max ≥ 1");
        assert!((0.0..=1.0).contains(&self.rho), "ρ must be a probability");
        let mut probes = Vec::with_capacity(self.k_max);
        let mut optimal_k = None;
        for k in 1..=self.k_max {
            let hasher: Arc<dyn BucketHasher> =
                Arc::new(Composite::derive(family.clone(), seed, 0, k));
            let table = LshTable::build(collection, hasher, Some(1));
            let alpha = estimate_alpha(collection, &table, measure, tau, self.samples, rng);
            probes.push(KProbe {
                k,
                alpha,
                nh: table.nh(),
            });
            if optimal_k.is_none() && alpha >= self.rho && table.nh() > 0 {
                optimal_k = Some(k);
                // Keep probing to fill the diagnostic curve only if the
                // caller asked for a small k_max; large sweeps stop here.
                if self.k_max > 16 {
                    break;
                }
            }
        }
        OptimalKResult { optimal_k, probes }
    }
}

/// `α̂ = P(T|H)` by uniform stratum-H sampling (0 when the stratum is
/// empty).
pub fn estimate_alpha<S, R>(
    collection: &VectorCollection,
    table: &LshTable,
    measure: &S,
    tau: f64,
    samples: u64,
    rng: &mut R,
) -> f64
where
    S: Similarity,
    R: Rng + ?Sized,
{
    if table.nh() == 0 || samples == 0 {
        return 0.0;
    }
    let mut hits = 0u64;
    for _ in 0..samples {
        let (u, v) = table
            .sample_same_bucket_pair(rng)
            .expect("nh > 0 yields pairs");
        if collection.sim(measure, u, v) >= tau {
            hits += 1;
        }
    }
    hits as f64 / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsj_lsh::MinHashFamily;
    use vsj_sampling::Xoshiro256;
    use vsj_vector::{Jaccard, SparseVector};

    /// Corpus where larger k visibly sharpens buckets: noisy duplicate
    /// clusters over a backdrop of overlapping sets.
    fn corpus() -> VectorCollection {
        let mut rng = Xoshiro256::seeded(31);
        let mut vectors = Vec::new();
        for _ in 0..250 {
            let start = rng.below(120) as u32;
            vectors.push(SparseVector::binary_from_members(
                (start..start + 8).collect(),
            ));
        }
        for c in 0..10u32 {
            let base: Vec<u32> = (0..10).map(|j| 5000 + c * 30 + j).collect();
            for _ in 0..3 {
                vectors.push(SparseVector::binary_from_members(base.clone()));
            }
        }
        VectorCollection::from_vectors(vectors)
    }

    #[test]
    fn alpha_grows_with_k() {
        // The B.1 trade-off: precision P(T|H) increases with k.
        let coll = corpus();
        let mut rng = Xoshiro256::seeded(1);
        let search = OptimalKSearch {
            rho: 1.0, // k_max ≤ 16 keeps probing after clearing ρ
            k_max: 12,
            samples: 20_000,
        };
        let res = search.run(&coll, MinHashFamily::new(), &Jaccard, 0.8, 3, &mut rng);
        assert_eq!(res.probes.len(), 12);
        // Compare small-k and large-k precision.
        let early = res.probes[0].alpha;
        let late = res.probes[11].alpha;
        assert!(
            late > early,
            "α must grow with k: α(1) = {early}, α(12) = {late}"
        );
        // Recall proxy N_H shrinks with k.
        assert!(res.probes[0].nh > res.probes[11].nh);
    }

    #[test]
    fn finds_minimum_k_clearing_rho() {
        let coll = corpus();
        let mut rng = Xoshiro256::seeded(2);
        let search = OptimalKSearch {
            rho: 0.5,
            k_max: 16,
            samples: 20_000,
        };
        let res = search.run(&coll, MinHashFamily::new(), &Jaccard, 0.8, 3, &mut rng);
        let k_star = res.optimal_k.expect("ρ = 0.5 must be reachable");
        // Minimality: every probed smaller k fell short.
        for p in &res.probes {
            if p.k < k_star {
                assert!(p.alpha < 0.5, "k = {} already clears ρ", p.k);
            }
        }
        // And k* itself clears it.
        let at = res.probes.iter().find(|p| p.k == k_star).unwrap();
        assert!(at.alpha >= 0.5);
    }

    #[test]
    fn alpha_estimator_handles_empty_stratum() {
        let coll = VectorCollection::from_vectors(
            (0..5)
                .map(|i| SparseVector::binary_from_members(vec![i * 99]))
                .collect(),
        );
        let hasher: Arc<dyn BucketHasher> =
            Arc::new(Composite::derive(MinHashFamily::new(), 1, 0, 16));
        let table = LshTable::build(&coll, hasher, Some(1));
        let mut rng = Xoshiro256::seeded(3);
        assert_eq!(
            estimate_alpha(&coll, &table, &Jaccard, 0.5, 100, &mut rng),
            0.0
        );
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_rho_rejected() {
        let search = OptimalKSearch {
            rho: 1.5,
            k_max: 4,
            samples: 10,
        };
        search.run(
            &corpus(),
            MinHashFamily::new(),
            &Jaccard,
            0.5,
            0,
            &mut Xoshiro256::seeded(0),
        );
    }
}
