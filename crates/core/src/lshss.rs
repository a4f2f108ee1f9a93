//! LSH-SS: stratified sampling using the LSH index — Algorithm 1, the
//! paper's main contribution (§5).
//!
//! The index partitions the `M` pairs into two fixed, disjoint strata:
//!
//! * `S_H` — pairs sharing a bucket (`N_H = Σ_j C(b_j,2)` of them), where
//!   the LSH property concentrates true pairs: `P(T|H)` stays workably
//!   large even when the global selectivity is 1e-7 (Table 1);
//! * `S_L` — everything else, which dominates the join at low thresholds.
//!
//! `Ĵ = Ĵ_H + Ĵ_L` with a *different* procedure per stratum:
//!
//! * `SampleH`: `m_H` uniform draws from `S_H` (bucket by `C(b_j,2)`
//!   weight via alias table, then a uniform pair inside), scaled by
//!   `N_H/m_H`. Plain Chernoff analysis applies (Lemma 1).
//! * `SampleL`: *adaptive* sampling (Lipton et al.) — stop at `δ` true
//!   pairs (scale by `N_L/i`, Theorem 3 regime) or at the budget `m_L`
//!   with fewer, in which case the scaled estimate would be garbage
//!   (Example 1) and the algorithm returns the **safe lower bound**
//!   `Ĵ_L = n_L` — or the dampened `c_s·n_L·N_L/m_L` for LSH-SS(D)
//!   (Theorem 2).
//!
//! Defaults are the paper's: `m_H = m_L = n`, `δ = log₂ n`,
//! LSH-SS(D) uses `c_s = n_L/δ` (§6.1).

use crate::estimate::{clamp_estimate, Estimate, EstimateKind};
use crate::view::IndexView;
use vsj_pool::WorkPool;
use vsj_sampling::Rng;
use vsj_sampling::{AdaptiveOutcome, AdaptiveSampler, Summary};
use vsj_vector::{Similarity, VectorId, VectorStore};

/// Variance of the scaled stratum estimate `(N/m)·X` from the Welford
/// accumulator over the per-draw indicator contributions.
///
/// With `X ~ Binomial(m, p)`, `Var((N/m)·X) = N²·p(1−p)/m`. The success
/// rate is read back from the accumulated mean with a Jeffreys-style
/// `+½` smoothing, so a degenerate sample (0 or `m` positives) still
/// reports the sampling uncertainty it carries instead of a zero-width
/// interval — the point estimate itself never uses the smoothed rate.
fn stratum_variance(acc: &Summary, stratum: u64) -> f64 {
    let m = acc.count() as f64;
    if acc.count() == 0 || stratum == 0 {
        return 0.0;
    }
    let positives = acc.mean() * m;
    let p = (positives + 0.5) / (m + 1.0);
    let n = stratum as f64;
    n * n * p * (1.0 - p) / m
}

/// Scale-up policy for an exhausted `SampleL` (fewer than `δ` true pairs
/// within the budget).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dampening {
    /// Return the raw count `n_L` — the safe lower bound of Algorithm 1
    /// (plain LSH-SS).
    SafeLowerBound,
    /// Scale by `c_s · N_L/m_L` with a fixed `0 < c_s ≤ 1`.
    Constant(f64),
    /// The paper's LSH-SS(D) experimental setting: `c_s = n_L/δ`
    /// (adaptive confidence — the closer the run got to `δ`, the more of
    /// the full scale-up it keeps).
    NlOverDelta,
}

/// Tunable parameters of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LshSsConfig {
    /// `m_H` — sample size in stratum H.
    pub m_h: u64,
    /// `m_L` — maximum sample size in stratum L.
    pub m_l: u64,
    /// `δ` — answer-size threshold in stratum L.
    pub delta: u64,
    /// Exhaustion policy.
    pub dampening: Dampening,
}

impl LshSsConfig {
    /// The paper's defaults for database size `n`: `m_H = m_L = n`,
    /// `δ = log₂ n`, safe lower bound.
    pub fn paper_defaults(n: usize) -> Self {
        let sampler = AdaptiveSampler::paper_defaults(n);
        Self {
            m_h: n as u64,
            m_l: sampler.max_samples,
            delta: sampler.target_positives,
            dampening: Dampening::SafeLowerBound,
        }
    }
}

/// The LSH-SS estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LshSs {
    /// Algorithm parameters.
    pub config: LshSsConfig,
}

/// Full decomposition of one LSH-SS run — what Figure 2's analysis needs
/// and what a query optimizer can use to judge reliability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LshSsEstimate {
    /// Stratum-H estimate `Ĵ_H`.
    pub jh: f64,
    /// Stratum-L estimate `Ĵ_L`.
    pub jl: f64,
    /// True pairs found by SampleH.
    pub h_positives: u64,
    /// True pairs found by SampleL.
    pub l_positives: u64,
    /// Draws consumed by SampleL.
    pub l_samples: u64,
    /// Whether SampleL terminated by reaching `δ` (reliable scaling).
    pub l_reliable: bool,
    /// Total pairs `M` (for clamping / selectivity).
    pub total_pairs: u64,
    /// Which policy produced `jl` when unreliable.
    pub dampening: Dampening,
    /// Normal-approximation variance of `Ĵ_H` (`N_H²·p̂(1−p̂)/m_H`,
    /// Jeffreys-smoothed rate). Zero when stratum H is empty.
    pub h_variance: f64,
    /// Normal-approximation variance of `Ĵ_L` over the draws SampleL
    /// consumed. When SampleL exhausted its budget the spread is that of
    /// the *fully scaled* estimator at the full budget — deliberately
    /// conservative around the lower-bound / dampened point value.
    pub l_variance: f64,
}

impl LshSsEstimate {
    /// The combined estimate `Ĵ = Ĵ_H + Ĵ_L` as an [`Estimate`].
    pub fn estimate(&self) -> Estimate {
        let kind = if self.l_reliable {
            EstimateKind::Scaled
        } else {
            match self.dampening {
                Dampening::SafeLowerBound => EstimateKind::SafeLowerBound,
                _ => EstimateKind::Dampened,
            }
        };
        Estimate {
            value: clamp_estimate(self.jh + self.jl, self.total_pairs),
            kind,
        }
    }

    /// Combined variance of `Ĵ` — the strata are sampled independently,
    /// so the components add.
    pub fn variance(&self) -> f64 {
        self.h_variance + self.l_variance
    }

    /// Standard error `√Var(Ĵ)` — the half-width unit of a
    /// normal-approximation confidence interval around the estimate.
    pub fn std_err(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// One point of a detailed threshold curve: the per-τ estimate together
/// with its variance decomposition, from
/// [`LshSs::estimate_curve_detailed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurveEstimate {
    /// The join-size estimate at this τ.
    pub estimate: Estimate,
    /// Normal-approximation variance of the stratum-H component.
    pub h_variance: f64,
    /// Normal-approximation variance of the stratum-L component (see
    /// [`LshSsEstimate::l_variance`] for the exhausted-budget
    /// convention).
    pub l_variance: f64,
}

impl CurveEstimate {
    /// Combined variance (the strata are sampled independently).
    pub fn variance(&self) -> f64 {
        self.h_variance + self.l_variance
    }

    /// Standard error `√Var(Ĵ)`.
    pub fn std_err(&self) -> f64 {
        self.variance().sqrt()
    }
}

impl LshSs {
    /// LSH-SS with the paper's defaults for database size `n`.
    pub fn with_defaults(n: usize) -> Self {
        Self {
            config: LshSsConfig::paper_defaults(n),
        }
    }

    /// LSH-SS(D): the dampened variant as configured in §6.1
    /// (`c_s = n_L/δ`).
    pub fn dampened_with_defaults(n: usize) -> Self {
        let mut config = LshSsConfig::paper_defaults(n);
        config.dampening = Dampening::NlOverDelta;
        Self { config }
    }

    /// Runs Algorithm 1 and returns the combined estimate.
    pub fn estimate<C, V, S, R>(
        &self,
        collection: &C,
        table: &V,
        measure: &S,
        tau: f64,
        rng: &mut R,
    ) -> Estimate
    where
        C: VectorStore + ?Sized,
        V: IndexView + ?Sized,
        S: Similarity,
        R: Rng + ?Sized,
    {
        self.estimate_detailed(collection, table, measure, tau, rng)
            .estimate()
    }

    /// Runs Algorithm 1 and returns the full decomposition.
    pub fn estimate_detailed<C, V, S, R>(
        &self,
        collection: &C,
        table: &V,
        measure: &S,
        tau: f64,
        rng: &mut R,
    ) -> LshSsEstimate
    where
        C: VectorStore + ?Sized,
        V: IndexView + ?Sized,
        S: Similarity,
        R: Rng + ?Sized,
    {
        assert_eq!(
            collection.len(),
            table.len(),
            "table must index exactly this collection"
        );
        let total_pairs = table.total_pairs();
        let (jh, h_positives, h_variance) = self.sample_h(collection, table, measure, tau, rng);
        let (jl, l_positives, l_samples, l_reliable, l_variance) =
            self.sample_l(collection, table, measure, tau, rng);
        LshSsEstimate {
            jh,
            jl,
            h_positives,
            l_positives,
            l_samples,
            l_reliable,
            total_pairs,
            dampening: self.config.dampening,
            h_variance,
            l_variance,
        }
    }

    /// Estimates the join size at *several* thresholds from **one**
    /// sampling pass: similarities of the `m_H + m_L` drawn pairs are
    /// recorded once and the per-τ accounting of Algorithm 1 (including
    /// the adaptive stopping rule of SampleL, replayed over the recorded
    /// draw order) is evaluated per threshold.
    ///
    /// This is what a query optimizer probing a selectivity curve or a
    /// dedup workflow sweeping τ wants: ~|τ grid|× fewer similarity
    /// evaluations than calling [`Self::estimate`] per threshold, with
    /// per-τ results distributed identically to a single-τ run whose RNG
    /// happened to draw this sample.
    ///
    /// Returned estimates are in the order of `taus`.
    pub fn estimate_curve<C, V, S, R>(
        &self,
        collection: &C,
        table: &V,
        measure: &S,
        taus: &[f64],
        rng: &mut R,
    ) -> Vec<Estimate>
    where
        C: VectorStore + ?Sized,
        V: IndexView + ?Sized,
        S: Similarity,
        R: Rng + ?Sized,
    {
        self.estimate_curve_detailed(collection, table, measure, taus, rng)
            .into_iter()
            .map(|point| point.estimate)
            .collect()
    }

    /// [`Self::estimate_curve`] with the per-τ variance decomposition
    /// attached to every point. Consumes the RNG identically to
    /// `estimate_curve` (the variance is pure arithmetic over the same
    /// recorded draws), so the point estimates are bit-identical.
    pub fn estimate_curve_detailed<C, V, S, R>(
        &self,
        collection: &C,
        table: &V,
        measure: &S,
        taus: &[f64],
        rng: &mut R,
    ) -> Vec<CurveEstimate>
    where
        C: VectorStore + ?Sized,
        V: IndexView + ?Sized,
        S: Similarity,
        R: Rng + ?Sized,
    {
        // One shared pass: record similarities in draw order.
        let (h_sims, l_sims) =
            self.draw_pass(collection, table, rng, |u, v| collection.sim(measure, u, v));
        taus.iter()
            .map(|&tau| {
                self.replay_detailed(
                    &h_sims,
                    &l_sims,
                    table.nh(),
                    table.nl(),
                    tau,
                    table.total_pairs(),
                )
            })
            .collect()
    }

    /// The `m_H` SampleH draws followed by the `m_L` SampleL draws of
    /// one curve pass, each mapped through `on_pair` in draw order. The
    /// RNG is consumed by the draws alone, so what `on_pair` does with a
    /// pair — score it on the spot, or keep it for a pool to score —
    /// cannot change which pairs are drawn.
    fn draw_pass<C, V, R, T>(
        &self,
        collection: &C,
        table: &V,
        rng: &mut R,
        mut on_pair: impl FnMut(VectorId, VectorId) -> T,
    ) -> (Vec<T>, Vec<T>)
    where
        C: VectorStore + ?Sized,
        V: IndexView + ?Sized,
        R: Rng + ?Sized,
    {
        assert_eq!(
            collection.len(),
            table.len(),
            "table must index exactly this collection"
        );
        let h = if table.nh() == 0 {
            Vec::new()
        } else {
            (0..self.config.m_h)
                .map(|_| {
                    let (u, v) = table
                        .sample_same_bucket_pair(rng)
                        .expect("nh > 0 guarantees a same-bucket pair");
                    on_pair(u, v)
                })
                .collect()
        };
        let l = if table.nl() == 0 {
            Vec::new()
        } else {
            (0..self.config.m_l)
                .map(|_| {
                    let (u, v) = table
                        .sample_cross_bucket_pair(rng)
                        .expect("nl > 0 guarantees a cross-bucket pair");
                    on_pair(u, v)
                })
                .collect()
        };
        (h, l)
    }

    /// [`Self::estimate_curve_detailed`] with the similarity evaluations
    /// and per-τ replays fanned out across `pool`, **bit-identical** to
    /// the serial pass at any thread count.
    ///
    /// Why this is safe to parallelize: only the pair *draws* consume the
    /// RNG; evaluating `sim(u, v)` and replaying the recorded draws at a
    /// threshold are pure. So the draws run serially here in exactly the
    /// serial method's order (same RNG consumption, same pairs), while
    /// the expensive parts — one similarity per drawn pair, one replay
    /// per τ — are mapped on the pool with ordered collection. A
    /// one-thread pool delegates to the serial method outright.
    pub fn estimate_curve_detailed_pooled<C, V, S, R>(
        &self,
        collection: &C,
        table: &V,
        measure: &S,
        taus: &[f64],
        rng: &mut R,
        pool: &WorkPool,
    ) -> Vec<CurveEstimate>
    where
        C: VectorStore + Sync + ?Sized,
        V: IndexView + ?Sized,
        S: Similarity + Sync,
        R: Rng + ?Sized,
    {
        if pool.threads() <= 1 {
            return self.estimate_curve_detailed(collection, table, measure, taus, rng);
        }
        // Serial draw pass, scoring deferred to the pool.
        let (h_pairs, l_pairs) = self.draw_pass(collection, table, rng, |u, v| (u, v));
        let h_sims =
            pool.parallel_map_indexed(&h_pairs, |_, &(u, v)| collection.sim(measure, u, v));
        let l_sims =
            pool.parallel_map_indexed(&l_pairs, |_, &(u, v)| collection.sim(measure, u, v));
        let (nh, nl, total_pairs) = (table.nh(), table.nl(), table.total_pairs());
        pool.parallel_map_indexed(taus, |_, &tau| {
            self.replay_detailed(&h_sims, &l_sims, nh, nl, tau, total_pairs)
        })
    }

    /// Per-τ accounting over recorded similarities, estimate only
    /// (separated for direct testing of the replay semantics).
    #[cfg(test)]
    fn replay(
        &self,
        h_sims: &[f64],
        l_sims: &[f64],
        nh: u64,
        nl: u64,
        tau: f64,
        total_pairs: u64,
    ) -> Estimate {
        self.replay_detailed(h_sims, l_sims, nh, nl, tau, total_pairs)
            .estimate
    }

    /// Per-τ accounting over recorded similarities (shared by
    /// [`Self::estimate_curve_detailed`]): the point estimate plus the
    /// per-stratum variance, accumulated by Welford over the indicator
    /// contributions of the draws this τ consumed.
    fn replay_detailed(
        &self,
        h_sims: &[f64],
        l_sims: &[f64],
        nh: u64,
        nl: u64,
        tau: f64,
        total_pairs: u64,
    ) -> CurveEstimate {
        // SampleH: plain scaled count.
        let (jh, h_variance) = if h_sims.is_empty() {
            (0.0, 0.0)
        } else {
            let mut acc = Summary::new();
            let mut positives = 0u64;
            for &s in h_sims {
                let hit = s >= tau;
                acc.push(if hit { 1.0 } else { 0.0 });
                if hit {
                    positives += 1;
                }
            }
            (
                positives as f64 * (nh as f64 / h_sims.len() as f64),
                stratum_variance(&acc, nh),
            )
        };
        // SampleL: replay the adaptive rule over the draw order. The
        // Welford accumulator sees exactly the draws this τ consumed —
        // up to the adaptive stop, or the whole budget on exhaustion.
        let (jl, reliable, l_variance) = if l_sims.is_empty() {
            (0.0, true, 0.0)
        } else {
            let mut acc = Summary::new();
            let mut positives = 0u64;
            let mut stopped_at = None;
            for (i, &s) in l_sims.iter().enumerate() {
                let hit = s >= tau;
                acc.push(if hit { 1.0 } else { 0.0 });
                if hit {
                    positives += 1;
                    if positives >= self.config.delta && self.config.delta > 0 {
                        stopped_at = Some(i as u64 + 1);
                        break;
                    }
                }
            }
            let l_variance = stratum_variance(&acc, nl);
            match stopped_at {
                Some(i) => (positives as f64 * (nl as f64 / i as f64), true, l_variance),
                None => {
                    let jl = match self.config.dampening {
                        Dampening::SafeLowerBound => positives as f64,
                        Dampening::Constant(cs) => (cs.clamp(0.0, 1.0)
                            * positives as f64
                            * (nl as f64 / l_sims.len() as f64))
                            .max(positives as f64),
                        Dampening::NlOverDelta => {
                            let cs = if self.config.delta == 0 {
                                1.0
                            } else {
                                positives as f64 / self.config.delta as f64
                            };
                            (cs.clamp(0.0, 1.0)
                                * positives as f64
                                * (nl as f64 / l_sims.len() as f64))
                                .max(positives as f64)
                        }
                    };
                    (jl, false, l_variance)
                }
            }
        };
        let kind = if reliable {
            EstimateKind::Scaled
        } else {
            match self.config.dampening {
                Dampening::SafeLowerBound => EstimateKind::SafeLowerBound,
                _ => EstimateKind::Dampened,
            }
        };
        CurveEstimate {
            estimate: Estimate {
                value: clamp_estimate(jh + jl, total_pairs),
                kind,
            },
            h_variance,
            l_variance,
        }
    }

    /// `SampleH` (Algorithm 1): uniform sampling in `S_H`, scaled by
    /// `N_H/m_H`.
    fn sample_h<C, V, S, R>(
        &self,
        collection: &C,
        table: &V,
        measure: &S,
        tau: f64,
        rng: &mut R,
    ) -> (f64, u64, f64)
    where
        C: VectorStore + ?Sized,
        V: IndexView + ?Sized,
        S: Similarity,
        R: Rng + ?Sized,
    {
        if table.nh() == 0 || self.config.m_h == 0 {
            return (0.0, 0, 0.0);
        }
        let mut acc = Summary::new();
        let mut positives = 0u64;
        for _ in 0..self.config.m_h {
            let (u, v) = table
                .sample_same_bucket_pair(rng)
                .expect("nh > 0 guarantees a same-bucket pair");
            let hit = collection.sim(measure, u, v) >= tau;
            acc.push(if hit { 1.0 } else { 0.0 });
            if hit {
                positives += 1;
            }
        }
        (
            positives as f64 * (table.nh() as f64 / self.config.m_h as f64),
            positives,
            stratum_variance(&acc, table.nh()),
        )
    }

    /// `SampleL` (Algorithm 1): adaptive sampling in `S_L` with safe
    /// lower bound / dampening on exhaustion.
    fn sample_l<C, V, S, R>(
        &self,
        collection: &C,
        table: &V,
        measure: &S,
        tau: f64,
        rng: &mut R,
    ) -> (f64, u64, u64, bool, f64)
    where
        C: VectorStore + ?Sized,
        V: IndexView + ?Sized,
        S: Similarity,
        R: Rng + ?Sized,
    {
        let nl = table.nl();
        if nl == 0 || self.config.m_l == 0 {
            return (0.0, 0, 0, true, 0.0);
        }
        let mut acc = Summary::new();
        let sampler = AdaptiveSampler::new(self.config.delta, self.config.m_l);
        let outcome = sampler.run(nl, || {
            let (u, v) = table
                .sample_cross_bucket_pair(rng)
                .expect("nl > 0 guarantees a cross-bucket pair");
            let hit = collection.sim(measure, u, v) >= tau;
            acc.push(if hit { 1.0 } else { 0.0 });
            hit
        });
        let reliable = outcome.is_reliable();
        let jl = match (&outcome, self.config.dampening) {
            (_, Dampening::SafeLowerBound) => outcome.safe_estimate(),
            (AdaptiveOutcome::Scaled { .. }, _) => outcome.safe_estimate(),
            (AdaptiveOutcome::Exhausted { positives, .. }, Dampening::Constant(cs)) => outcome
                .dampened_estimate(nl, cs.clamp(0.0, 1.0))
                .max(*positives as f64),
            (AdaptiveOutcome::Exhausted { positives, .. }, Dampening::NlOverDelta) => {
                let cs = if self.config.delta == 0 {
                    1.0
                } else {
                    *positives as f64 / self.config.delta as f64
                };
                outcome
                    .dampened_estimate(nl, cs.clamp(0.0, 1.0))
                    .max(*positives as f64)
            }
        };
        (
            jl,
            outcome.positives(),
            outcome.samples(),
            reliable,
            stratum_variance(&acc, nl),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vsj_lsh::{Composite, LshTable, MinHashFamily, SimHashFamily};
    use vsj_sampling::Xoshiro256;
    use vsj_vector::{Cosine, Jaccard, SparseVector, VectorCollection};

    /// DBLP-in-miniature: skewed similarity with duplicate clusters.
    fn corpus(n_base: u32, seed: u64) -> VectorCollection {
        let mut rng = Xoshiro256::seeded(seed);
        let mut vectors = Vec::new();
        for _ in 0..n_base {
            let start = rng.below(400) as u32;
            let len = 6 + rng.below(10) as u32;
            let members: Vec<u32> = (0..len).map(|j| start + j * 3).collect();
            vectors.push(SparseVector::binary_from_members(members));
        }
        // Duplicate clusters: ~4% of base, pairs at Jaccard ∈ [0.6, 1].
        for c in 0..(n_base / 25).max(1) {
            let base: Vec<u32> = (0..10).map(|j| 2000 + c * 40 + j).collect();
            vectors.push(SparseVector::binary_from_members(base.clone()));
            let mut copy = base;
            if c % 2 == 0 {
                copy.pop();
                copy.push(9000 + c);
            }
            vectors.push(SparseVector::binary_from_members(copy));
        }
        let mut v = vectors;
        rng.shuffle(&mut v);
        VectorCollection::from_vectors(v)
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

    fn minhash_table(coll: &VectorCollection, k: usize, seed: u64) -> LshTable {
        let hasher = Arc::new(Composite::derive(MinHashFamily::new(), seed, 0, k));
        LshTable::build(coll, hasher, Some(1))
    }

    #[test]
    fn accurate_at_high_threshold() {
        // The headline claim: reliable estimates at τ where RS collapses.
        let coll = corpus(800, 1);
        let n = coll.len();
        let table = minhash_table(&coll, 8, 5);
        let tau = 0.85;
        let truth = exact(&coll, tau) as f64;
        assert!(truth >= 10.0, "fixture needs a duplicate tail: {truth}");
        let est = LshSs::with_defaults(n);
        let mut rng = Xoshiro256::seeded(2);
        let mut vals = Vec::new();
        for _ in 0..20 {
            vals.push(est.estimate(&coll, &table, &Jaccard, tau, &mut rng).value);
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!(
            mean > truth * 0.5 && mean < truth * 2.0,
            "mean {mean} vs truth {truth}"
        );
        // And low variance relative to RS-style all-or-nothing: no single
        // estimate an order of magnitude off.
        for &v in &vals {
            assert!(v < truth * 15.0, "wild overestimate {v} (truth {truth})");
        }
    }

    #[test]
    fn accurate_at_low_threshold() {
        let coll = corpus(600, 3);
        let n = coll.len();
        let table = minhash_table(&coll, 8, 7);
        let tau = 0.15;
        let truth = exact(&coll, tau) as f64;
        assert!(truth > 100.0);
        let est = LshSs::with_defaults(n);
        let mut rng = Xoshiro256::seeded(4);
        let mut vals = Vec::new();
        for _ in 0..20 {
            vals.push(est.estimate(&coll, &table, &Jaccard, tau, &mut rng).value);
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!(
            (mean - truth).abs() / truth < 0.35,
            "mean {mean} vs truth {truth}"
        );
    }

    #[test]
    fn rarely_overestimates() {
        // §6.2: "LSH-SS hardly overestimates". Count big overestimates
        // across thresholds and trials.
        let coll = corpus(500, 5);
        let n = coll.len();
        let table = minhash_table(&coll, 8, 9);
        let est = LshSs::with_defaults(n);
        let mut rng = Xoshiro256::seeded(6);
        let mut big_over = 0;
        let mut trials = 0;
        for tau in [0.3, 0.5, 0.7, 0.9] {
            let truth = exact(&coll, tau) as f64;
            for _ in 0..25 {
                let v = est.estimate(&coll, &table, &Jaccard, tau, &mut rng).value;
                trials += 1;
                if truth > 0.0 && v / truth >= 10.0 {
                    big_over += 1;
                }
            }
        }
        assert!(
            big_over <= trials / 20,
            "{big_over}/{trials} big overestimates"
        );
    }

    #[test]
    fn safe_lower_bound_engages_in_the_grey_zone() {
        // Construct a regime where SampleL must exhaust: high τ, tiny
        // budget.
        let coll = corpus(400, 7);
        let table = minhash_table(&coll, 8, 11);
        let est = LshSs {
            config: LshSsConfig {
                m_h: 200,
                m_l: 200,
                delta: 64, // unreachable at this τ within 200 draws
                dampening: Dampening::SafeLowerBound,
            },
        };
        let mut rng = Xoshiro256::seeded(8);
        let d = est.estimate_detailed(&coll, &table, &Jaccard, 0.9, &mut rng);
        assert!(!d.l_reliable);
        // Safe lower bound: jl is the raw count, tiny.
        assert!(d.jl <= 64.0);
        assert_eq!(d.estimate().kind, EstimateKind::SafeLowerBound);
    }

    #[test]
    fn dampening_interpolates_between_bound_and_full_scale() {
        let coll = corpus(400, 9);
        let table = minhash_table(&coll, 8, 13);
        let base = LshSsConfig {
            m_h: 100,
            m_l: 300,
            delta: 1000, // always exhausts
            dampening: Dampening::SafeLowerBound,
        };
        let tau = 0.4;
        let mut safe_rng = Xoshiro256::seeded(10);
        let mut damp_rng = Xoshiro256::seeded(10); // same stream
        let safe =
            LshSs { config: base }.estimate_detailed(&coll, &table, &Jaccard, tau, &mut safe_rng);
        let damp = LshSs {
            config: LshSsConfig {
                dampening: Dampening::Constant(0.5),
                ..base
            },
        }
        .estimate_detailed(&coll, &table, &Jaccard, tau, &mut damp_rng);
        // Identical RNG stream ⇒ identical samples ⇒ jl ordering is
        // deterministic: safe ≤ dampened ≤ full scale.
        assert_eq!(safe.l_positives, damp.l_positives);
        assert!(!safe.l_reliable && !damp.l_reliable);
        let full = safe.l_positives as f64 * (table.nl() as f64 / safe.l_samples as f64);
        assert!(
            safe.jl <= damp.jl + 1e-9,
            "safe {} damp {}",
            safe.jl,
            damp.jl
        );
        assert!(damp.jl <= full + 1e-9, "damp {} full {full}", damp.jl);
        assert_eq!(damp.estimate().kind, EstimateKind::Dampened);
    }

    #[test]
    fn nl_over_delta_dampening_scales_with_evidence() {
        // cs = n_L/δ: with zero positives the dampened estimate is 0
        // (equals the safe bound); with positives it exceeds it.
        let coll = corpus(400, 11);
        let table = minhash_table(&coll, 8, 15);
        let est = LshSs {
            config: LshSsConfig {
                m_h: 50,
                m_l: 400,
                delta: 1_000,
                dampening: Dampening::NlOverDelta,
            },
        };
        let mut rng = Xoshiro256::seeded(12);
        let d = est.estimate_detailed(&coll, &table, &Jaccard, 0.35, &mut rng);
        assert!(!d.l_reliable);
        if d.l_positives > 0 {
            let cs = d.l_positives as f64 / 1000.0;
            let full = d.l_positives as f64 * (table.nl() as f64 / d.l_samples as f64);
            assert!((d.jl - (cs * full).max(d.l_positives as f64)).abs() < 1e-9);
        } else {
            assert_eq!(d.jl, 0.0);
        }
    }

    #[test]
    fn strata_decompose_exactly() {
        // J = J_H + J_L must hold for the *true* quantities; verify the
        // estimator's strata against brute force on a small instance.
        let coll = corpus(120, 13);
        let table = minhash_table(&coll, 6, 17);
        let tau = 0.5;
        let n = coll.len() as u32;
        let (mut jh_true, mut jl_true) = (0u64, 0u64);
        for a in 0..n {
            for b in (a + 1)..n {
                if Jaccard.sim(coll.vector(a), coll.vector(b)) >= tau {
                    if table.same_bucket(a, b) {
                        jh_true += 1;
                    } else {
                        jl_true += 1;
                    }
                }
            }
        }
        assert_eq!(jh_true + jl_true, exact(&coll, tau));
        // With exhaustive sampling budgets the estimates converge to the
        // per-stratum truths.
        let est = LshSs {
            config: LshSsConfig {
                m_h: 60_000,
                m_l: 60_000,
                delta: 30,
                dampening: Dampening::SafeLowerBound,
            },
        };
        let mut rng = Xoshiro256::seeded(14);
        let mut jh_sum = 0.0;
        let mut jl_sum = 0.0;
        let trials = 15;
        for _ in 0..trials {
            let d = est.estimate_detailed(&coll, &table, &Jaccard, tau, &mut rng);
            jh_sum += d.jh;
            jl_sum += d.jl;
        }
        let jh_mean = jh_sum / trials as f64;
        let jl_mean = jl_sum / trials as f64;
        if jh_true > 0 {
            assert!(
                (jh_mean - jh_true as f64).abs() / jh_true as f64 > -1.0
                    && (jh_mean - jh_true as f64).abs() < jh_true as f64 * 0.5 + 3.0,
                "ĴH {jh_mean} vs {jh_true}"
            );
        }
        if jl_true > 0 {
            assert!(
                (jl_mean - jl_true as f64).abs() < jl_true as f64 * 0.5 + 3.0,
                "ĴL {jl_mean} vs {jl_true}"
            );
        }
    }

    #[test]
    fn works_with_simhash_and_cosine() {
        // The paper's actual configuration: SimHash buckets + cosine.
        let coll = corpus(500, 15);
        let n = coll.len();
        let hasher = Arc::new(Composite::derive(SimHashFamily::new(), 21, 0, 12));
        let table = LshTable::build(&coll, hasher, Some(1));
        let tau = 0.9;
        let n_ids = coll.len() as u32;
        let mut truth = 0u64;
        for a in 0..n_ids {
            for b in (a + 1)..n_ids {
                if Cosine.sim(coll.vector(a), coll.vector(b)) >= tau {
                    truth += 1;
                }
            }
        }
        assert!(truth >= 5, "fixture needs a cosine tail: {truth}");
        let est = LshSs::with_defaults(n);
        let mut rng = Xoshiro256::seeded(16);
        let mut sum = 0.0;
        for _ in 0..20 {
            sum += est.estimate(&coll, &table, &Cosine, tau, &mut rng).value;
        }
        let mean = sum / 20.0;
        assert!(
            mean > truth as f64 * 0.3 && mean < truth as f64 * 3.0,
            "mean {mean} vs truth {truth}"
        );
    }

    #[test]
    fn empty_strata_are_handled() {
        // All-identical collection: S_L empty.
        let coll =
            VectorCollection::from_vectors(vec![SparseVector::binary_from_members(vec![1, 2]); 5]);
        let table = minhash_table(&coll, 4, 19);
        assert_eq!(table.nl(), 0);
        let est = LshSs::with_defaults(5);
        let mut rng = Xoshiro256::seeded(18);
        let d = est.estimate_detailed(&coll, &table, &Jaccard, 0.5, &mut rng);
        assert_eq!(d.jl, 0.0);
        assert!(
            (d.jh - 10.0).abs() < 1e-9,
            "all 10 pairs are true: {}",
            d.jh
        );

        // All-distinct collection at high k: S_H empty.
        let coll2 = VectorCollection::from_vectors(
            (0..6)
                .map(|i| SparseVector::binary_from_members(vec![100 * i]))
                .collect(),
        );
        let table2 = minhash_table(&coll2, 24, 23);
        assert_eq!(table2.nh(), 0);
        let d2 = est.estimate_detailed(&coll2, &table2, &Jaccard, 0.5, &mut rng);
        assert_eq!(d2.jh, 0.0);
    }

    #[test]
    #[should_panic(expected = "exactly this collection")]
    fn mismatched_table_rejected() {
        let coll = corpus(50, 17);
        let other = corpus(60, 19);
        let table = minhash_table(&other, 4, 25);
        let est = LshSs::with_defaults(50);
        let mut rng = Xoshiro256::seeded(20);
        est.estimate(&coll, &table, &Jaccard, 0.5, &mut rng);
    }

    #[test]
    fn curve_replay_semantics() {
        // Direct test of the per-τ accounting over crafted similarities.
        let est = LshSs {
            config: LshSsConfig {
                m_h: 4,
                m_l: 6,
                delta: 2,
                dampening: Dampening::SafeLowerBound,
            },
        };
        let h_sims = [0.9, 0.2, 0.9, 0.5];
        let l_sims = [0.1, 0.6, 0.1, 0.7, 0.1, 0.1];
        let (nh, nl, m) = (100u64, 1000u64, 10_000u64);
        // τ = 0.5: SampleH sees 3/4 positives -> jh = 75. SampleL reaches
        // δ = 2 at draw 4 (0.6 and 0.7) -> jl = 2 * 1000/4 = 500.
        let e = est.replay(&h_sims, &l_sims, nh, nl, 0.5, m);
        assert_eq!(e.kind, EstimateKind::Scaled);
        assert!((e.value - (75.0 + 500.0)).abs() < 1e-9, "{}", e.value);
        // τ = 0.8: SampleH 2/4 -> jh = 50. SampleL finds 0 positives ->
        // exhausted -> safe lower bound 0.
        let e = est.replay(&h_sims, &l_sims, nh, nl, 0.8, m);
        assert_eq!(e.kind, EstimateKind::SafeLowerBound);
        assert!((e.value - 50.0).abs() < 1e-9, "{}", e.value);
        // τ = 0.65: SampleL finds exactly 1 positive (0.7) < δ -> safe
        // bound contributes the raw count 1.
        let e = est.replay(&h_sims, &l_sims, nh, nl, 0.65, m);
        assert!((e.value - (50.0 + 1.0)).abs() < 1e-9, "{}", e.value);
    }

    #[test]
    fn replay_variance_pins() {
        // Same crafted fixture as curve_replay_semantics, now pinning the
        // variance components (Jeffreys-smoothed p̃ = (k + ½)/(m + 1)).
        let est = LshSs {
            config: LshSsConfig {
                m_h: 4,
                m_l: 6,
                delta: 2,
                dampening: Dampening::SafeLowerBound,
            },
        };
        let h_sims = [0.9, 0.2, 0.9, 0.5];
        let l_sims = [0.1, 0.6, 0.1, 0.7, 0.1, 0.1];
        let (nh, nl, m) = (100u64, 1000u64, 10_000u64);

        // τ = 0.5: SampleH sees 3/4 -> p̃ = 3.5/5 = 0.7,
        // var_h = 100² · 0.7 · 0.3 / 4 = 525. SampleL stops at draw 4
        // with 2 positives -> p̃ = 2.5/5 = 0.5,
        // var_l = 1000² · 0.25 / 4 = 62500.
        let d = est.replay_detailed(&h_sims, &l_sims, nh, nl, 0.5, m);
        assert!((d.h_variance - 525.0).abs() < 1e-9, "{}", d.h_variance);
        assert!((d.l_variance - 62_500.0).abs() < 1e-9, "{}", d.l_variance);
        assert!((d.variance() - 63_025.0).abs() < 1e-9);
        assert!((d.std_err() - 63_025.0_f64.sqrt()).abs() < 1e-9);

        // τ = 0.8: SampleL exhausts all 6 draws with 0 positives. The
        // smoothing keeps the interval open: p̃ = 0.5/7,
        // var_l = 1000² · p̃(1 − p̃) / 6 > 0 even on a degenerate sample.
        let d = est.replay_detailed(&h_sims, &l_sims, nh, nl, 0.8, m);
        let p = 0.5 / 7.0;
        let want = 1000.0 * 1000.0 * p * (1.0 - p) / 6.0;
        assert!((d.l_variance - want).abs() < 1e-6, "{}", d.l_variance);
        assert!(d.std_err() > 0.0, "degenerate sample must keep CI open");

        // Empty strata contribute zero variance.
        let d = est.replay_detailed(&[], &l_sims, 0, nl, 0.5, m);
        assert_eq!(d.h_variance, 0.0);
        let d = est.replay_detailed(&h_sims, &[], nh, 0, 0.5, m);
        assert_eq!(d.l_variance, 0.0);
    }

    #[test]
    fn curve_detailed_is_bit_identical_to_curve() {
        // estimate_curve is a thin wrapper over estimate_curve_detailed;
        // the point estimates must agree bit-for-bit from equal RNG state.
        let coll = corpus(400, 41);
        let table = minhash_table(&coll, 8, 43);
        let est = LshSs::with_defaults(coll.len());
        let taus = [0.2, 0.5, 0.8, 0.95];
        let mut rng_a = Xoshiro256::seeded(77);
        let mut rng_b = Xoshiro256::seeded(77);
        let curve = est.estimate_curve(&coll, &table, &Jaccard, &taus, &mut rng_a);
        let detailed = est.estimate_curve_detailed(&coll, &table, &Jaccard, &taus, &mut rng_b);
        assert_eq!(curve.len(), detailed.len());
        for (e, d) in curve.iter().zip(&detailed) {
            assert_eq!(e.value.to_bits(), d.estimate.value.to_bits());
            assert_eq!(e.kind, d.estimate.kind);
            assert!(d.h_variance >= 0.0 && d.l_variance >= 0.0);
            assert!(d.std_err().is_finite());
        }
    }

    #[test]
    fn pooled_curve_is_bit_identical_to_serial() {
        // The pool must not change a single bit of any curve point — the
        // whole parallel estimate path rests on this equivalence. Checked
        // at several thread counts, RNG states, and a τ grid wide enough
        // to exercise both strata and the adaptive stop.
        let coll = corpus(500, 61);
        let table = minhash_table(&coll, 6, 67);
        let est = LshSs::with_defaults(coll.len());
        let taus = [0.05, 0.2, 0.5, 0.8, 0.95, 1.0];
        for seed in [7u64, 77, 777] {
            let mut serial_rng = Xoshiro256::seeded(seed);
            let serial =
                est.estimate_curve_detailed(&coll, &table, &Jaccard, &taus, &mut serial_rng);
            for threads in [1usize, 2, 8] {
                let pool = vsj_pool::WorkPool::new(threads);
                let mut rng = Xoshiro256::seeded(seed);
                let pooled = est.estimate_curve_detailed_pooled(
                    &coll, &table, &Jaccard, &taus, &mut rng, &pool,
                );
                // The pooled pass consumes the RNG identically.
                assert_eq!(rng, serial_rng, "threads={threads} seed={seed}");
                assert_eq!(pooled.len(), serial.len());
                for (p, s) in pooled.iter().zip(&serial) {
                    assert_eq!(
                        p.estimate.value.to_bits(),
                        s.estimate.value.to_bits(),
                        "threads={threads} seed={seed}"
                    );
                    assert_eq!(p.estimate.kind, s.estimate.kind);
                    assert_eq!(p.h_variance.to_bits(), s.h_variance.to_bits());
                    assert_eq!(p.l_variance.to_bits(), s.l_variance.to_bits());
                }
            }
        }
    }

    #[test]
    fn estimate_detailed_variance_is_positive_on_real_corpora() {
        let coll = corpus(300, 47);
        let table = minhash_table(&coll, 8, 53);
        let est = LshSs::with_defaults(coll.len());
        let mut rng = Xoshiro256::seeded(91);
        let d = est.estimate_detailed(&coll, &table, &Jaccard, 0.7, &mut rng);
        assert!(d.h_variance >= 0.0);
        assert!(d.l_variance >= 0.0);
        assert!(
            d.std_err() > 0.0,
            "a sampled estimate on a non-degenerate corpus carries spread"
        );
        assert!((d.variance() - (d.h_variance + d.l_variance)).abs() < 1e-12);
    }

    #[test]
    fn curve_matches_componentwise_bounds_and_h_monotonicity() {
        let coll = corpus(500, 21);
        let table = minhash_table(&coll, 8, 27);
        let est = LshSs::with_defaults(coll.len());
        let taus = [0.1, 0.3, 0.5, 0.7, 0.9];
        let mut rng = Xoshiro256::seeded(30);
        let curve = est.estimate_curve(&coll, &table, &Jaccard, &taus, &mut rng);
        assert_eq!(curve.len(), taus.len());
        let m = coll.total_pairs() as f64;
        for e in &curve {
            assert!(e.value.is_finite() && e.value >= 0.0 && e.value <= m);
        }
        // Same recorded sample ⇒ the stratum-H component is monotone in τ,
        // and here S_H dominates at high τ: spot-check global ordering on
        // the high end where jl is a lower bound.
        assert!(
            curve[4].value <= curve[2].value + 1e-9,
            "curve rose from τ=0.5 to τ=0.9: {:?}",
            curve.iter().map(|e| e.value).collect::<Vec<_>>()
        );
    }

    #[test]
    fn curve_mean_matches_single_tau_estimates() {
        // Distributional agreement: curve estimates at one τ average to
        // the same place as independent single-τ runs.
        let coll = corpus(600, 23);
        let table = minhash_table(&coll, 8, 29);
        let est = LshSs::with_defaults(coll.len());
        let tau = 0.85;
        let mut rng = Xoshiro256::seeded(31);
        let trials = 15;
        let mut curve_sum = 0.0;
        let mut single_sum = 0.0;
        for _ in 0..trials {
            curve_sum += est.estimate_curve(&coll, &table, &Jaccard, &[tau], &mut rng)[0].value;
            single_sum += est.estimate(&coll, &table, &Jaccard, tau, &mut rng).value;
        }
        let (mc, ms) = (curve_sum / trials as f64, single_sum / trials as f64);
        // Same estimator, same distribution: means within 50% of each
        // other (both near truth per the accuracy tests).
        assert!(
            (mc - ms).abs() <= 0.5 * ms.max(1.0),
            "curve mean {mc} vs single-τ mean {ms}"
        );
    }

    #[test]
    fn paper_defaults_shape() {
        let c = LshSsConfig::paper_defaults(34_000);
        assert_eq!(c.m_h, 34_000);
        assert_eq!(c.m_l, 34_000);
        assert_eq!(c.delta, 16);
        assert_eq!(c.dampening, Dampening::SafeLowerBound);
        let d = LshSs::dampened_with_defaults(34_000);
        assert_eq!(d.config.dampening, Dampening::NlOverDelta);
    }
}
