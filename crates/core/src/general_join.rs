//! Non-self joins `U ⋈ V` (Appendix B.2.2 of the paper).
//!
//! Two collections, two LSH tables `D_g` (on `U`) and `E_g` (on `V`)
//! built with the *same* composite `g`. The population is `U × V`
//! (`N = n₁·n₂` ordered cross pairs), and the strata become:
//!
//! * `S_H = {(u,v) : g(u) = g(v)}` with
//!   `N_H = Σ_{keys} b_j·c_j` over key-matched buckets;
//! * `S_L` — the rest, sampled by rejection.
//!
//! `SampleH` draws a matched key pair with weight `b_j·c_j` (alias
//! table), then one member uniformly from each side; `SampleL` draws
//! uniform cross pairs by rejection, each only when the accounting reads
//! it. Only the draws are this module's: the per-τ accounting —
//! adaptive stop at `δ`, safe lower bound, dampening — is Algorithm 1's
//! own, shared with [`LshSs`].

use std::sync::Arc;

use crate::estimate::Estimate;
use crate::lshss::{LshSs, LshSsConfig};
use vsj_lsh::{BucketHasher, LshTable};
use vsj_sampling::{AliasTable, Rng};
use vsj_vector::{Similarity, VectorCollection, VectorId};

/// The paired-table structure for a general join.
pub struct GeneralJoinIndex {
    table_u: LshTable,
    table_v: LshTable,
    /// Matched-key bucket pairs: (key, b_j, c_j).
    matched: Vec<(u64, u32, u32)>,
    /// `N_H = Σ b_j·c_j`.
    nh: u64,
    /// Alias over `matched` with weight `b_j·c_j`.
    alias: Option<AliasTable>,
}

impl GeneralJoinIndex {
    /// Builds both tables with one shared hasher and matches their
    /// buckets by key.
    pub fn build(
        u: &VectorCollection,
        v: &VectorCollection,
        hasher: Arc<dyn BucketHasher>,
        threads: Option<usize>,
    ) -> Self {
        let table_u = LshTable::build(u, Arc::clone(&hasher), threads);
        let table_v = LshTable::build(v, hasher, threads);
        let mut matched = Vec::new();
        let mut nh = 0u64;
        for bucket in table_u.buckets() {
            let c = table_v.bucket_count(bucket.key);
            if c > 0 {
                let b = bucket.count();
                matched.push((bucket.key, b as u32, c as u32));
                nh += b as u64 * c as u64;
            }
        }
        let alias = if matched.is_empty() {
            None
        } else {
            Some(
                AliasTable::new(
                    &matched
                        .iter()
                        .map(|&(_, b, c)| u64::from(b) as f64 * u64::from(c) as f64)
                        .collect::<Vec<_>>(),
                )
                .expect("positive b·c weights"),
            )
        };
        Self {
            table_u,
            table_v,
            matched,
            nh,
            alias,
        }
    }

    /// `N_H` — cross pairs sharing a `g` value.
    pub fn nh(&self) -> u64 {
        self.nh
    }

    /// Total cross pairs `N = n₁·n₂`.
    pub fn total_pairs(&self) -> u64 {
        self.table_u.len() as u64 * self.table_v.len() as u64
    }

    /// `N_L = N − N_H`.
    pub fn nl(&self) -> u64 {
        self.total_pairs() - self.nh
    }

    /// The `U`-side table.
    pub fn table_u(&self) -> &LshTable {
        &self.table_u
    }

    /// The `V`-side table.
    pub fn table_v(&self) -> &LshTable {
        &self.table_v
    }

    /// Whether a cross pair shares a `g` value.
    #[inline]
    pub fn same_bucket(&self, u: VectorId, v: VectorId) -> bool {
        self.table_u.key_of(u) == self.table_v.key_of(v)
    }

    /// Uniform cross pair from `S_H` (`None` when `N_H = 0`).
    pub fn sample_same_bucket_pair<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Option<(VectorId, VectorId)> {
        let alias = self.alias.as_ref()?;
        let (key, _, _) = self.matched[alias.sample(rng)];
        let bu = self
            .table_u
            .bucket_by_key(key)
            .expect("matched bucket in U");
        let bv = self
            .table_v
            .bucket_by_key(key)
            .expect("matched bucket in V");
        Some((*rng.choose(bu.members), *rng.choose(bv.members)))
    }

    /// Uniform cross pair from `S_L` by rejection (`None` when
    /// `N_L = 0`).
    pub fn sample_cross_bucket_pair<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Option<(VectorId, VectorId)> {
        if self.nl() == 0 {
            return None;
        }
        let (n1, n2) = (self.table_u.len() as u64, self.table_v.len() as u64);
        loop {
            let u = rng.below(n1) as VectorId;
            let v = rng.below(n2) as VectorId;
            if !self.same_bucket(u, v) {
                return Some((u, v));
            }
        }
    }
}

/// LSH-SS for general joins (Algorithm 1 with the B.2.2 modifications).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneralLshSs {
    /// Sampling parameters (`m_H`, `m_L`, `δ`, dampening).
    pub config: LshSsConfig,
}

impl GeneralLshSs {
    /// Paper-style defaults: Appendix B.2.2 gives no explicit budgets, so
    /// mirror the self-join rule (`m = n`, `δ = log₂ n`) with `n` the
    /// *larger* relation — the population is `n₁·n₂` pairs and the
    /// smaller relation alone under-samples it.
    pub fn with_defaults(n1: usize, n2: usize) -> Self {
        Self {
            config: LshSsConfig::paper_defaults(n1.max(n2).max(2)),
        }
    }

    /// Estimates `|{(u,v) ∈ U×V : sim(u,v) ≥ τ}|`.
    pub fn estimate<S, R>(
        &self,
        u: &VectorCollection,
        v: &VectorCollection,
        index: &GeneralJoinIndex,
        measure: &S,
        tau: f64,
        rng: &mut R,
    ) -> Estimate
    where
        S: Similarity,
        R: Rng + ?Sized,
    {
        assert_eq!(u.len(), index.table_u.len(), "U/table mismatch");
        assert_eq!(v.len(), index.table_v.len(), "V/table mismatch");
        let score = |(a, b): (VectorId, VectorId)| measure.sim(u.vector(a), v.vector(b));

        // SampleH.
        let m_h = if index.nh() == 0 { 0 } else { self.config.m_h };
        let h_sims: Vec<f64> = (0..m_h)
            .map(|_| {
                index
                    .sample_same_bucket_pair(rng)
                    .expect("nh > 0 yields pairs")
            })
            .map(score)
            .collect();

        // SampleL, drawn as the accounting reads it.
        let m_l = if index.nl() == 0 { 0 } else { self.config.m_l };
        let l_sims = (0..m_l)
            .map(|_| {
                index
                    .sample_cross_bucket_pair(rng)
                    .expect("nl > 0 yields pairs")
            })
            .map(score);

        LshSs {
            config: self.config,
        }
        .replay_detailed(
            h_sims,
            l_sims,
            index.nh() as f64,
            index.nl() as f64,
            tau,
            index.total_pairs(),
        )
        .estimate
    }
}

/// `RS(pop)` for general joins — the natural baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneralRsPop {
    /// Number of cross-pair samples.
    pub samples: u64,
}

impl GeneralRsPop {
    /// Estimates the general join size by uniform cross-pair sampling.
    pub fn estimate<S, R>(
        &self,
        u: &VectorCollection,
        v: &VectorCollection,
        measure: &S,
        tau: f64,
        rng: &mut R,
    ) -> Estimate
    where
        S: Similarity,
        R: Rng + ?Sized,
    {
        let total = u.len() as u64 * v.len() as u64;
        if total == 0 || self.samples == 0 {
            return Estimate::scaled(0.0, total);
        }
        let mut hits = 0u64;
        for _ in 0..self.samples {
            let a = rng.below(u.len() as u64) as VectorId;
            let b = rng.below(v.len() as u64) as VectorId;
            if measure.sim(u.vector(a), v.vector(b)) >= tau {
                hits += 1;
            }
        }
        Estimate::scaled(hits as f64 * (total as f64 / self.samples as f64), total)
    }
}

/// Exact general join size (nested loop) — testing/ground-truth helper.
pub fn exact_general_join<S: Similarity>(
    u: &VectorCollection,
    v: &VectorCollection,
    measure: &S,
    tau: f64,
) -> u64 {
    let mut count = 0u64;
    for (_, a) in u.iter() {
        for (_, b) in v.iter() {
            if measure.sim(a, b) >= tau {
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsj_lsh::{Composite, MinHashFamily};
    use vsj_sampling::Xoshiro256;
    use vsj_vector::{Jaccard, SparseVector};

    fn collection(seed: u64, n: u32, shared_pool: u32) -> VectorCollection {
        let mut rng = Xoshiro256::seeded(seed);
        VectorCollection::from_vectors(
            (0..n)
                .map(|_| {
                    let start = rng.below(u64::from(shared_pool)) as u32;
                    let len = 5 + rng.below(6) as u32;
                    SparseVector::binary_from_members((start..start + len).collect())
                })
                .collect(),
        )
    }

    fn build_index(u: &VectorCollection, v: &VectorCollection, k: usize) -> GeneralJoinIndex {
        let hasher = Arc::new(Composite::derive(MinHashFamily::new(), 17, 0, k));
        GeneralJoinIndex::build(u, v, hasher, Some(1))
    }

    #[test]
    fn nh_matches_enumeration() {
        let u = collection(1, 120, 80);
        let v = collection(2, 90, 80);
        let idx = build_index(&u, &v, 4);
        let mut nh = 0u64;
        for a in 0..u.len() as u32 {
            for b in 0..v.len() as u32 {
                if idx.same_bucket(a, b) {
                    nh += 1;
                }
            }
        }
        assert_eq!(idx.nh(), nh);
        assert_eq!(idx.total_pairs(), 120 * 90);
        assert_eq!(idx.nl(), idx.total_pairs() - nh);
    }

    #[test]
    fn same_bucket_pairs_are_uniform() {
        let u = collection(3, 40, 30);
        let v = collection(4, 35, 30);
        let idx = build_index(&u, &v, 3);
        if idx.nh() < 4 {
            return; // fixture too sparse for a distribution check
        }
        let mut counts = std::collections::HashMap::new();
        let mut rng = Xoshiro256::seeded(5);
        let trials = 30_000 * idx.nh().min(50);
        for _ in 0..trials {
            let (a, b) = idx.sample_same_bucket_pair(&mut rng).unwrap();
            assert!(idx.same_bucket(a, b));
            *counts.entry((a, b)).or_insert(0u64) += 1;
        }
        assert_eq!(counts.len() as u64, idx.nh());
        let expected = trials as f64 / idx.nh() as f64;
        for (&pair, &c) in &counts {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.2, "pair {pair:?} deviates {dev}");
        }
    }

    #[test]
    fn cross_bucket_pairs_valid() {
        let u = collection(6, 50, 40);
        let v = collection(7, 45, 40);
        let idx = build_index(&u, &v, 4);
        let mut rng = Xoshiro256::seeded(8);
        for _ in 0..2000 {
            let (a, b) = idx.sample_cross_bucket_pair(&mut rng).unwrap();
            assert!(!idx.same_bucket(a, b));
        }
    }

    #[test]
    fn general_lshss_accurate() {
        // Shared pool gives substantial cross-join mass at moderate τ.
        let u = collection(9, 300, 100);
        let v = collection(10, 250, 100);
        let idx = build_index(&u, &v, 4);
        let tau = 0.5;
        let truth = exact_general_join(&u, &v, &Jaccard, tau) as f64;
        assert!(truth > 20.0, "fixture needs join mass: {truth}");
        let est = GeneralLshSs::with_defaults(u.len(), v.len());
        let mut rng = Xoshiro256::seeded(11);
        let mut sum = 0.0;
        let trials = 20;
        for _ in 0..trials {
            sum += est.estimate(&u, &v, &idx, &Jaccard, tau, &mut rng).value;
        }
        let mean = sum / trials as f64;
        assert!(
            mean > truth * 0.4 && mean < truth * 2.5,
            "mean {mean} vs truth {truth}"
        );
    }

    #[test]
    fn general_rs_unbiased_at_moderate_tau() {
        let u = collection(12, 200, 90);
        let v = collection(13, 180, 90);
        let tau = 0.4;
        let truth = exact_general_join(&u, &v, &Jaccard, tau) as f64;
        assert!(truth > 10.0);
        let est = GeneralRsPop { samples: 50_000 };
        let mut rng = Xoshiro256::seeded(14);
        let mut sum = 0.0;
        for _ in 0..10 {
            sum += est.estimate(&u, &v, &Jaccard, tau, &mut rng).value;
        }
        let mean = sum / 10.0;
        assert!(
            (mean - truth).abs() / truth < 0.25,
            "mean {mean} vs truth {truth}"
        );
    }

    #[test]
    fn disjoint_collections_have_empty_sh() {
        let u = VectorCollection::from_vectors(
            (0..10)
                .map(|i| SparseVector::binary_from_members(vec![i]))
                .collect(),
        );
        let v = VectorCollection::from_vectors(
            (0..10)
                .map(|i| SparseVector::binary_from_members(vec![5000 + i]))
                .collect(),
        );
        let idx = build_index(&u, &v, 8);
        assert_eq!(idx.nh(), 0);
        let mut rng = Xoshiro256::seeded(15);
        assert!(idx.sample_same_bucket_pair(&mut rng).is_none());
        let est = GeneralLshSs::with_defaults(10, 10);
        let e = est.estimate(&u, &v, &idx, &Jaccard, 0.5, &mut rng);
        assert_eq!(e.value, 0.0);
    }

    #[test]
    fn empty_collection_handled() {
        let u = VectorCollection::new();
        let v = collection(16, 10, 20);
        let idx = build_index(&u, &v, 4);
        assert_eq!(idx.total_pairs(), 0);
        let mut rng = Xoshiro256::seeded(17);
        let est = GeneralRsPop { samples: 10 };
        assert_eq!(est.estimate(&u, &v, &Jaccard, 0.5, &mut rng).value, 0.0);
    }
}
