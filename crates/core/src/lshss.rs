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
//! * `SampleL`: *adaptive* sampling (Lipton, Naughton & Schneider,
//!   SIGMOD 1990, \[15\] in the paper), which fixes the *answer* size
//!   instead of the sample size: stop at the `δ`-th true pair and scale by
//!   `N_L/i` (Theorem 3 regime), or run out of the budget `m_L` with fewer.
//!   Then the scaled estimate would be garbage (Example 1), and instead of
//!   \[15\]'s loose upper bound the algorithm returns the **safe lower
//!   bound** `Ĵ_L = n_L` — or, for LSH-SS(D), the dampened
//!   `c_s·n_L·N_L/m_L`, never below `n_L` (Theorem 2).
//!
//! # One accounting, recorded or lazy draws
//!
//! That per-τ accounting is written once. It reads each stratum's
//! similarities as an iterator in draw order, so it serves two kinds of
//! draws:
//!
//! * **recorded** — the curve methods, and so every answer the service
//!   serves, draw and score all `m_H + m_L` pairs once, then replay the
//!   accounting per τ over the recorded similarities;
//! * **lazy** — [`LshSs::estimate_detailed`] (one τ) draws an `S_L` pair
//!   only when the accounting reads it, so it stops drawing at the `δ`-th
//!   hit.
//!
//! Both draw all of `S_H` first, then `S_L`, through the same index calls,
//! and the accounting reads the same `S_L` prefix up to its stop; the
//! recorded pass only draws the pairs after it without reading them. From
//! one RNG state both therefore give the same answer, and only the RNG
//! state they leave behind differs. The [general join](crate::general_join)
//! and the [virtual buckets](crate::multi_table) draw their own pairs and
//! share the same accounting.
//!
//! Defaults are the paper's: `m_H = m_L = n`, `δ = log₂ n`,
//! LSH-SS(D) uses `c_s = n_L/δ` (§6.1).

use crate::estimate::{clamp_estimate, Estimate, EstimateKind};
use crate::view::IndexView;
use vsj_pool::WorkPool;
use vsj_sampling::{Rng, Summary};
use vsj_vector::{Similarity, VectorId, VectorStore};

/// Variance of the scaled stratum estimate `(N/m)·X` from the Welford
/// accumulator over the per-draw indicator contributions.
///
/// With `X ~ Binomial(m, p)`, `Var((N/m)·X) = N²·p(1−p)/m`. The success
/// rate is read back from the accumulated mean with a Jeffreys-style
/// `+½` smoothing, so a degenerate sample (0 or `m` positives) still
/// reports the sampling uncertainty it carries instead of a zero-width
/// interval — the point estimate itself never uses the smoothed rate.
fn stratum_variance(acc: &Summary, stratum: f64) -> f64 {
    let m = acc.count() as f64;
    if acc.count() == 0 || stratum == 0.0 {
        return 0.0;
    }
    let positives = acc.mean() * m;
    let p = (positives + 0.5) / (m + 1.0);
    stratum * stratum * p * (1.0 - p) / m
}

/// Scale-up policy for an exhausted `SampleL` (fewer than `δ` true pairs
/// within the budget).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dampening {
    /// Return the raw count `n_L` — the safe lower bound of Algorithm 1
    /// (plain LSH-SS).
    SafeLowerBound,
    /// Scale by `c_s · N_L/m_L` with a fixed `0 < c_s ≤ 1`, never below
    /// the raw count `n_L`.
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
    /// `δ` — answer-size threshold in stratum L. `δ = 0` never stops:
    /// SampleL reads its whole budget `m_L` and answers as exhausted,
    /// through the [`Dampening`] policy.
    pub delta: u64,
    /// Exhaustion policy.
    pub dampening: Dampening,
}

impl LshSsConfig {
    /// The paper's defaults for database size `n`: `m_H = m_L = n`,
    /// `δ = max(1, ⌈log₂ n⌉)` (all logarithms in the paper are base 2),
    /// safe lower bound.
    pub fn paper_defaults(n: usize) -> Self {
        let log2_ceil = usize::BITS - n.saturating_sub(1).leading_zeros();
        Self {
            m_h: n as u64,
            m_l: n as u64,
            delta: u64::from(log2_ceil.max(1)),
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

/// One LSH-SS answer at one τ with its full decomposition — what
/// Figure 2's analysis needs and what a query optimizer can use to judge
/// reliability. [`LshSs::estimate_detailed`] returns one; the curve
/// methods return one per τ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LshSsEstimate {
    /// The combined estimate `Ĵ = Ĵ_H + Ĵ_L`, clamped to `[0, M]`.
    pub estimate: Estimate,
    /// Stratum-H estimate `Ĵ_H`.
    pub jh: f64,
    /// Stratum-L estimate `Ĵ_L`.
    pub jl: f64,
    /// True pairs found by SampleH.
    pub h_positives: u64,
    /// True pairs found by SampleL.
    pub l_positives: u64,
    /// Draws SampleL read: up to its stop at `δ`, else the budget.
    pub l_samples: u64,
    /// Whether SampleL stopped at `δ` (reliable scaling); also true when
    /// it read nothing (empty stratum or zero budget).
    pub l_reliable: bool,
    /// Normal-approximation variance of `Ĵ_H` (`N_H²·p̂(1−p̂)/m_H`,
    /// Jeffreys-smoothed rate). Zero when stratum H is empty.
    pub h_variance: f64,
    /// Normal-approximation variance of `Ĵ_L` over the draws SampleL
    /// read. When SampleL exhausted its budget the spread is that of the
    /// *fully scaled* estimator at the full budget — deliberately
    /// conservative around the lower-bound / dampened point value.
    pub l_variance: f64,
}

impl LshSsEstimate {
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
            .estimate
    }

    /// Runs Algorithm 1 at one τ and returns the full decomposition.
    ///
    /// `S_L` pairs are drawn only as the accounting reads them, so the
    /// call stops drawing at the `δ`-th hit. The answer equals
    /// `estimate_curve_detailed(…, &[τ], …)[0]` from the same RNG state.
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
        let score = |(u, v): (VectorId, VectorId)| collection.sim(measure, u, v);
        // SampleH is read whole, so it is drawn before S_L's first draw.
        let h_sims: Vec<f64> = self.h_draws(table, rng).map(score).collect();
        let l_sims = self.l_draws(table, rng).map(score);
        self.replay_detailed(
            h_sims,
            l_sims,
            table.nh() as f64,
            table.nl() as f64,
            tau,
            table.total_pairs(),
        )
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
    /// each τ's answer equal to a single-τ run from the same RNG state.
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

    /// [`Self::estimate_curve`] with the per-τ decomposition attached to
    /// every point. Consumes the RNG identically to `estimate_curve`, so
    /// the point estimates are bit-identical.
    pub fn estimate_curve_detailed<C, V, S, R>(
        &self,
        collection: &C,
        table: &V,
        measure: &S,
        taus: &[f64],
        rng: &mut R,
    ) -> Vec<LshSsEstimate>
    where
        C: VectorStore + ?Sized,
        V: IndexView + ?Sized,
        S: Similarity,
        R: Rng + ?Sized,
    {
        // One shared pass: record similarities in draw order.
        let (h_sims, l_sims) =
            self.draw_pass(collection, table, rng, |u, v| collection.sim(measure, u, v));
        let (nh, nl, total_pairs) = (table.nh() as f64, table.nl() as f64, table.total_pairs());
        taus.iter()
            .map(|&tau| {
                self.replay_detailed(
                    h_sims.iter().copied(),
                    l_sims.iter().copied(),
                    nh,
                    nl,
                    tau,
                    total_pairs,
                )
            })
            .collect()
    }

    /// SampleH's draws in order: `m_H` uniform `S_H` pairs, none when the
    /// stratum is empty.
    fn h_draws<'a, V, R>(
        &self,
        table: &'a V,
        rng: &'a mut R,
    ) -> impl Iterator<Item = (VectorId, VectorId)> + 'a
    where
        V: IndexView + ?Sized,
        R: Rng + ?Sized,
    {
        let m = if table.nh() == 0 { 0 } else { self.config.m_h };
        (0..m).map(move |_| {
            table
                .sample_same_bucket_pair(rng)
                .expect("nh > 0 guarantees a same-bucket pair")
        })
    }

    /// SampleL's draws in order: up to `m_L` uniform `S_L` pairs, none
    /// when the stratum is empty. Lazy — a pair is drawn when read.
    fn l_draws<'a, V, R>(
        &self,
        table: &'a V,
        rng: &'a mut R,
    ) -> impl Iterator<Item = (VectorId, VectorId)> + 'a
    where
        V: IndexView + ?Sized,
        R: Rng + ?Sized,
    {
        let m = if table.nl() == 0 { 0 } else { self.config.m_l };
        (0..m).map(move |_| {
            table
                .sample_cross_bucket_pair(rng)
                .expect("nl > 0 guarantees a cross-bucket pair")
        })
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
        let h = self
            .h_draws(table, rng)
            .map(|(u, v)| on_pair(u, v))
            .collect();
        let l = self
            .l_draws(table, rng)
            .map(|(u, v)| on_pair(u, v))
            .collect();
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
    ) -> Vec<LshSsEstimate>
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
        let (nh, nl, total_pairs) = (table.nh() as f64, table.nl() as f64, table.total_pairs());
        pool.parallel_map_indexed(taus, |_, &tau| {
            self.replay_detailed(
                h_sims.iter().copied(),
                l_sims.iter().copied(),
                nh,
                nl,
                tau,
                total_pairs,
            )
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
        self.replay_detailed(
            h_sims.iter().copied(),
            l_sims.iter().copied(),
            nh as f64,
            nl as f64,
            tau,
            total_pairs,
        )
        .estimate
    }

    /// Algorithm 1's per-τ accounting — the crate's only one, shared by
    /// every LSH-SS path, the general join and the virtual buckets.
    ///
    /// SampleH: every similarity in `h_sims` is read, `Ĵ_H = n_H·N_H/m_H`.
    /// SampleL: `l_sims` is read in draw order up to the `δ`-th hit,
    /// `Ĵ_L = δ·N_L/i`; nothing after the stop is pulled, so a lazy
    /// iterator stops drawing exactly there. If the iterator ends first,
    /// the [`Dampening`] policy answers, never below the raw count `n_L`.
    /// An empty stratum contributes zero. Each stratum's variance is
    /// accumulated by Welford over the indicator contributions of the
    /// draws it read. `N_H` and `N_L` are stratum sizes (an estimator of
    /// the virtual union stratum passes a fractional `N_H`).
    pub(crate) fn replay_detailed(
        &self,
        h_sims: impl IntoIterator<Item = f64>,
        l_sims: impl IntoIterator<Item = f64>,
        nh: f64,
        nl: f64,
        tau: f64,
        total_pairs: u64,
    ) -> LshSsEstimate {
        // SampleH: plain scaled count.
        let mut h_acc = Summary::new();
        let mut h_positives = 0u64;
        for s in h_sims {
            let hit = s >= tau;
            h_acc.push(if hit { 1.0 } else { 0.0 });
            h_positives += u64::from(hit);
        }
        let jh = if h_acc.count() == 0 {
            0.0
        } else {
            h_positives as f64 * (nh / h_acc.count() as f64)
        };
        // SampleL: adaptive — stop at the δ-th hit (never, for δ = 0).
        let delta = self.config.delta;
        let mut l_acc = Summary::new();
        let mut l_positives = 0u64;
        let mut stopped = false;
        for s in l_sims {
            let hit = s >= tau;
            l_acc.push(if hit { 1.0 } else { 0.0 });
            l_positives += u64::from(hit);
            if hit && delta > 0 && l_positives >= delta {
                stopped = true;
                break;
            }
        }
        let l_samples = l_acc.count();
        let n_l = l_positives as f64;
        let l_reliable = stopped || l_samples == 0;
        let jl = if l_samples == 0 {
            0.0
        } else if stopped {
            n_l * (nl / l_samples as f64)
        } else {
            // Exhausted: scale by c_s·N_L/m_L, never below the raw count;
            // c_s = 0 is the safe lower bound itself.
            let cs = match self.config.dampening {
                Dampening::SafeLowerBound => 0.0,
                Dampening::Constant(cs) => cs,
                Dampening::NlOverDelta if delta == 0 => 1.0,
                Dampening::NlOverDelta => n_l / delta as f64,
            };
            (cs.clamp(0.0, 1.0) * n_l * (nl / l_samples as f64)).max(n_l)
        };
        let kind = match (l_reliable, self.config.dampening) {
            (true, _) => EstimateKind::Scaled,
            (false, Dampening::SafeLowerBound) => EstimateKind::SafeLowerBound,
            (false, _) => EstimateKind::Dampened,
        };
        LshSsEstimate {
            estimate: Estimate {
                value: clamp_estimate(jh + jl, total_pairs),
                kind,
            },
            jh,
            jl,
            h_positives,
            l_positives,
            l_samples,
            l_reliable,
            h_variance: stratum_variance(&h_acc, nh),
            l_variance: stratum_variance(&l_acc, nl),
        }
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
        assert_eq!(d.estimate.kind, EstimateKind::SafeLowerBound);
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
        assert_eq!(damp.estimate.kind, EstimateKind::Dampened);
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
        let d = est.replay_detailed(h_sims, l_sims, nh as f64, nl as f64, 0.5, m);
        assert!((d.h_variance - 525.0).abs() < 1e-9, "{}", d.h_variance);
        assert!((d.l_variance - 62_500.0).abs() < 1e-9, "{}", d.l_variance);
        assert!((d.variance() - 63_025.0).abs() < 1e-9);
        assert!((d.std_err() - 63_025.0_f64.sqrt()).abs() < 1e-9);

        // τ = 0.8: SampleL exhausts all 6 draws with 0 positives. The
        // smoothing keeps the interval open: p̃ = 0.5/7,
        // var_l = 1000² · p̃(1 − p̃) / 6 > 0 even on a degenerate sample.
        let d = est.replay_detailed(h_sims, l_sims, nh as f64, nl as f64, 0.8, m);
        let p = 0.5 / 7.0;
        let want = 1000.0 * 1000.0 * p * (1.0 - p) / 6.0;
        assert!((d.l_variance - want).abs() < 1e-6, "{}", d.l_variance);
        assert!(d.std_err() > 0.0, "degenerate sample must keep CI open");

        // Empty strata contribute zero variance.
        let d = est.replay_detailed([], l_sims, 0.0, nl as f64, 0.5, m);
        assert_eq!(d.h_variance, 0.0);
        let d = est.replay_detailed(h_sims, [], nh as f64, 0.0, 0.5, m);
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

    /// `SplitMix64`-folded fingerprint of a run's bits.
    fn digest(words: &[u64]) -> u64 {
        words
            .iter()
            .fold(0, |h, &w| vsj_sampling::SplitMix64::mix(h ^ w))
    }

    /// Fingerprint of one `estimate_detailed` call from `seed`: value,
    /// kind, both components, both variances, the hit and draw counts,
    /// reliability — and the RNG's next word after the call, which moves
    /// whenever the call consumed a different number of draws.
    fn detailed_fingerprint<V, S>(
        est: &LshSs,
        coll: &VectorCollection,
        table: &V,
        measure: &S,
        tau: f64,
        seed: u64,
    ) -> u64
    where
        V: IndexView + ?Sized,
        S: Similarity,
    {
        let mut rng = Xoshiro256::seeded(seed);
        let e = est.estimate(coll, table, measure, tau, &mut rng.clone());
        let d = est.estimate_detailed(coll, table, measure, tau, &mut rng);
        digest(&[
            e.value.to_bits(),
            e.kind as u64,
            d.jh.to_bits(),
            d.jl.to_bits(),
            d.h_variance.to_bits(),
            d.l_variance.to_bits(),
            d.h_positives,
            d.l_positives,
            d.l_samples,
            u64::from(d.l_reliable),
            rng.next_u64(),
        ])
    }

    /// Fingerprint of one plain estimate plus the RNG word after it.
    fn estimate_fingerprint(e: Estimate, rng: &mut Xoshiro256) -> u64 {
        digest(&[e.value.to_bits(), e.kind as u64, rng.next_u64()])
    }

    const GOLDEN_TAUS: [f64; 6] = [0.05, 0.3, 0.5, 0.8, 0.95, 1.0];
    const GOLDEN_DAMPENINGS: [Dampening; 3] = [
        Dampening::SafeLowerBound,
        Dampening::Constant(0.5),
        Dampening::NlOverDelta,
    ];

    /// Fails naming every moved entry, and prints the whole table.
    fn check_golden(name: &str, got: &[u64], want: &[u64]) {
        if got == want {
            return;
        }
        let moved: Vec<usize> = (0..got.len().max(want.len()))
            .filter(|&i| got.get(i) != want.get(i))
            .collect();
        let table: Vec<String> = got.iter().map(|g| format!("0x{g:016x},")).collect();
        panic!(
            "{name}: entries {moved:?} moved; got:\n{}",
            table.join("\n")
        );
    }

    #[test]
    fn golden_estimate_detailed_grid() {
        // 2 families × 3 dampenings × 3 seeds × 6 τ, every field to the
        // bit, paper-default budgets.
        let coll = corpus(200, 101);
        let minhash = minhash_table(&coll, 6, 103);
        let simhash = LshTable::build(
            &coll,
            Arc::new(Composite::derive(SimHashFamily::new(), 107, 0, 8)),
            Some(1),
        );
        let mut got = Vec::new();
        for family in 0..2 {
            for dampening in GOLDEN_DAMPENINGS {
                let mut config = LshSsConfig::paper_defaults(coll.len());
                config.dampening = dampening;
                let est = LshSs { config };
                for seed in [1u64, 2, 3] {
                    for tau in GOLDEN_TAUS {
                        got.push(if family == 0 {
                            detailed_fingerprint(&est, &coll, &minhash, &Jaccard, tau, seed)
                        } else {
                            detailed_fingerprint(&est, &coll, &simhash, &Cosine, tau, seed)
                        });
                    }
                }
            }
        }
        const WANT: [u64; 108] = [
            // Entries 0–53: MinHash.
            0xc20e714632a55f39,
            0x4fd5c005a4bafd32,
            0x4fd5c005a4bafd32,
            0x666280bfd9887b4b,
            0xeb15c388bb388f88,
            0xeb15c388bb388f88,
            0xe6f0def746d202ff,
            0x174b1b10bd2b97f4,
            0xb90ac99de623cd8d,
            0xe495df530a8c1527,
            0x1edb3bdc7f8c5e6f,
            0x1edb3bdc7f8c5e6f,
            0x8e3690acdae1497d,
            0x5414194e85b5cb3b,
            0x329ca75e2d103ed3,
            0x506c51905f881038,
            0x67b5cef2e0b2a520,
            0x67b5cef2e0b2a520,
            0x4257883d13e7c9eb,
            0x59e9c8e6dec89e6c,
            0x59e9c8e6dec89e6c,
            0x018cd9451f0c709c,
            0xa6399018e7b5ebc8,
            0xa6399018e7b5ebc8,
            0x311e629fd9c54a36,
            0x30600f78b67c4150,
            0xd749327000464fe9,
            0x3c4163a369c8234b,
            0x9cc9accd6ad30196,
            0x9cc9accd6ad30196,
            0x8e3690acdae1497d,
            0x5414194e85b5cb3b,
            0x0653718fd3c00e95,
            0xc133bda37f1b2ede,
            0xb3fe092494c1d4b0,
            0xb3fe092494c1d4b0,
            0xe9ffaa9d472fce32,
            0xaa1b4760b52ecffe,
            0xaa1b4760b52ecffe,
            0x018cd9451f0c709c,
            0xa6399018e7b5ebc8,
            0xa6399018e7b5ebc8,
            0xcfb0282520c7f7ee,
            0x51179dfc45ec0e3e,
            0x39834e563460f64c,
            0x364a26bbabb008bd,
            0x9cc9accd6ad30196,
            0x9cc9accd6ad30196,
            0x8e3690acdae1497d,
            0x5414194e85b5cb3b,
            0x0653718fd3c00e95,
            0xc1a98e5f27a5b841,
            0xb3fe092494c1d4b0,
            0xb3fe092494c1d4b0,
            // Entries 54–107: SimHash, hyperplane coordinates Φ⁻¹ of one uniform.
            0xe82a3f467c320414,
            0xc90f0728e4391261,
            0xd8cd5c0415af185b,
            0x73299123aa43ed54,
            0x8afafc048a7c2d73,
            0xf3099c5941f88ab2,
            0xeead572fbafb100f,
            0xfc5a21df3737045d,
            0xd5ad04608f36385d,
            0x1c7f340752612dd6,
            0x1b4cbd65ba836d27,
            0x050901c67638c36a,
            0x22839ef93901e96d,
            0x862a20164ffc3010,
            0x66aaf4734189851a,
            0x2668293197a48c7c,
            0xad84be83477e6336,
            0x13ea0ed4adfd7e28,
            0xe82a3f467c320414,
            0xaa7b75ed34079713,
            0xf002f6f72510411d,
            0x26a0fdce271646cc,
            0xb5595ad572ccb92a,
            0xd2d9f5b724eb4d4e,
            0x69221b9f1263ddaf,
            0xc04260166a4a3f46,
            0x2daabae99da8b5a6,
            0xd7284baa72b2fb63,
            0x70f86e6b4bbe924b,
            0x4db274039397881d,
            0x22839ef93901e96d,
            0x862a20164ffc3010,
            0x66aaf4734189851a,
            0x18730d7d9a093e05,
            0x2328e2422d8502a5,
            0xafa5ffb2eef8c209,
            0xe82a3f467c320414,
            0x5d9de7f626ecc616,
            0x4e16c0ca081229f3,
            0x37562c8e9c593091,
            0xb5595ad572ccb92a,
            0xd2d9f5b724eb4d4e,
            0x40da2669b1b404e4,
            0x803e6ffe8bc335b7,
            0x2cf2c7ebbd78af8c,
            0x46c51771b6c76767,
            0x70f86e6b4bbe924b,
            0x4db274039397881d,
            0x22839ef93901e96d,
            0x862a20164ffc3010,
            0x66aaf4734189851a,
            0x4d269e381d8457d3,
            0x2328e2422d8502a5,
            0xafa5ffb2eef8c209,
        ];
        check_golden("estimate_detailed grid", &got, &WANT);
    }

    #[test]
    fn golden_degenerate_strata() {
        // N_L = 0 (all duplicates) and N_H = 0 (all distinct).
        let dups =
            VectorCollection::from_vectors(vec![SparseVector::binary_from_members(vec![1, 2]); 9]);
        let dups_table = minhash_table(&dups, 4, 19);
        assert_eq!(dups_table.nl(), 0);
        let distinct = VectorCollection::from_vectors(
            (0..12)
                .map(|i| SparseVector::binary_from_members(vec![100 * i]))
                .collect(),
        );
        let distinct_table = minhash_table(&distinct, 24, 23);
        assert_eq!(distinct_table.nh(), 0);
        let mut got = Vec::new();
        for (coll, table) in [(&dups, &dups_table), (&distinct, &distinct_table)] {
            for dampening in GOLDEN_DAMPENINGS {
                let mut config = LshSsConfig::paper_defaults(coll.len());
                config.dampening = dampening;
                let est = LshSs { config };
                for tau in GOLDEN_TAUS {
                    got.push(detailed_fingerprint(&est, coll, table, &Jaccard, tau, 5));
                }
            }
        }
        const WANT: [u64; 36] = [
            0xf15d387206be2d76,
            0xf15d387206be2d76,
            0xf15d387206be2d76,
            0xf15d387206be2d76,
            0xf15d387206be2d76,
            0xf15d387206be2d76,
            0xf15d387206be2d76,
            0xf15d387206be2d76,
            0xf15d387206be2d76,
            0xf15d387206be2d76,
            0xf15d387206be2d76,
            0xf15d387206be2d76,
            0xf15d387206be2d76,
            0xf15d387206be2d76,
            0xf15d387206be2d76,
            0xf15d387206be2d76,
            0xf15d387206be2d76,
            0xf15d387206be2d76,
            0x69be1cd188a9dfd9,
            0x69be1cd188a9dfd9,
            0x69be1cd188a9dfd9,
            0x69be1cd188a9dfd9,
            0x69be1cd188a9dfd9,
            0x69be1cd188a9dfd9,
            0x805f306742271bea,
            0x805f306742271bea,
            0x805f306742271bea,
            0x805f306742271bea,
            0x805f306742271bea,
            0x805f306742271bea,
            0x805f306742271bea,
            0x805f306742271bea,
            0x805f306742271bea,
            0x805f306742271bea,
            0x805f306742271bea,
            0x805f306742271bea,
        ];
        check_golden("degenerate strata", &got, &WANT);
    }

    #[test]
    fn golden_general_join_virtual_and_median() {
        // Default-config answers and the RNG word after each call.
        use crate::general_join::{GeneralJoinIndex, GeneralLshSs};
        use crate::multi_table::{MedianEstimator, VirtualBucketEstimator};
        use vsj_lsh::{LshIndex, LshParams};

        let coll = corpus(200, 109);
        let index = LshIndex::build_with_family(
            &coll,
            MinHashFamily::new(),
            LshParams::new(6, 3).with_seed(113).with_threads(1),
        );
        let (u, v) = (corpus(80, 127), corpus(70, 131));
        let join = GeneralJoinIndex::build(
            &u,
            &v,
            Arc::new(Composite::derive(MinHashFamily::new(), 137, 0, 4)),
            Some(1),
        );
        let virtual_buckets = VirtualBucketEstimator::with_defaults(coll.len());
        let median = MedianEstimator::with_defaults(coll.len());
        let general = GeneralLshSs::with_defaults(u.len(), v.len());
        let mut got = Vec::new();
        for tau in GOLDEN_TAUS {
            let mut rng = Xoshiro256::seeded(7);
            let e = virtual_buckets.estimate(&coll, &index, &Jaccard, tau, &mut rng);
            got.push(estimate_fingerprint(e, &mut rng));
            let mut rng = Xoshiro256::seeded(7);
            let e = median.estimate(&coll, &index, &Jaccard, tau, &mut rng);
            got.push(estimate_fingerprint(e, &mut rng));
            let mut rng = Xoshiro256::seeded(7);
            let e = general.estimate(&u, &v, &join, &Jaccard, tau, &mut rng);
            got.push(estimate_fingerprint(e, &mut rng));
        }
        const WANT: [u64; 18] = [
            0x4ba8f77a67530f20,
            0xef0fd992ca16b086,
            0x47f56c37e845e909,
            0x3c5e4327db66f149,
            0xfdc6a9cfdf395a62,
            0x0577901c2978af01,
            0xf6bbd357c5cdbc31,
            0xf4098e1af931c9b1,
            0xe91b7c442b7aa8c7,
            0x2ced9af83f2e208a,
            0xbf386b77621e30dc,
            0xe1f7e01a102855b9,
            0xadfc55cfcfe1e525,
            0x8bf71d89b39b99b7,
            0x929b231a61d1d45b,
            0xadfc55cfcfe1e525,
            0x8bf71d89b39b99b7,
            0x929b231a61d1d45b,
        ];
        check_golden("general join, virtual buckets, median", &got, &WANT);
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

    #[test]
    fn paper_defaults_delta_is_log2_ceil() {
        // δ = max(1, ⌈log₂ n⌉); DBLP scale: log₂ 800 000 ≈ 19.6 → 20.
        for (n, delta) in [
            (0, 1),
            (1, 1),
            (2, 1),
            (3, 2),
            (1024, 10),
            (1025, 11),
            (800_000, 20),
        ] {
            assert_eq!(LshSsConfig::paper_defaults(n).delta, delta, "n = {n}");
        }
    }

    /// Fixture for the accounting alone, which takes its budgets from the
    /// streams it reads: only δ and the dampening matter.
    fn sample_l_only(delta: u64, dampening: Dampening) -> LshSs {
        LshSs {
            config: LshSsConfig {
                m_h: 0,
                m_l: 0,
                delta,
                dampening,
            },
        }
    }

    #[test]
    fn sample_l_stops_at_the_delta_th_hit_and_scales() {
        // Every 10th draw a hit, an endless stream: the accounting stops
        // pulling at the 5th hit, draw 50, and scales 5/50 of 1M = 100k.
        let mut pulled = 0u64;
        let stream = (1u64..).map(|i| {
            pulled += 1;
            if i % 10 == 0 {
                1.0
            } else {
                0.0
            }
        });
        let d = sample_l_only(5, Dampening::SafeLowerBound).replay_detailed(
            [],
            stream,
            0.0,
            1e6,
            0.5,
            u64::MAX,
        );
        assert_eq!(pulled, 50);
        assert_eq!((d.l_positives, d.l_samples), (5, 50));
        assert!(d.l_reliable);
        assert_eq!(d.estimate.kind, EstimateKind::Scaled);
        assert!((d.jl - 100_000.0).abs() < 1e-9, "{}", d.jl);
    }

    #[test]
    fn sample_l_paper_defaults_stop_at_16_hits_within_34000_draws() {
        // n = 34 000: δ = ⌈log₂ 34 000⌉ = 16 and m_L = n. An all-hit
        // budget stops at draw 16; a hitless one reads all 34 000 draws.
        let est = LshSs {
            config: LshSsConfig::paper_defaults(34_000),
        };
        let m_l = usize::try_from(est.config.m_l).unwrap();
        let mut pulled = 0usize;
        let hits = std::iter::repeat_n(1.0, m_l).inspect(|_| pulled += 1);
        let d = est.replay_detailed([], hits, 0.0, 1e6, 0.5, u64::MAX);
        assert_eq!(pulled, 16);
        assert_eq!((d.l_positives, d.l_samples), (16, 16));
        assert!(d.l_reliable);
        let d = est.replay_detailed([], std::iter::repeat_n(0.0, m_l), 0.0, 1e6, 0.5, u64::MAX);
        assert_eq!((d.l_positives, d.l_samples), (0, 34_000));
        assert!(!d.l_reliable);
    }

    #[test]
    fn sample_l_exhaustion_returns_the_safe_lower_bound() {
        let d = sample_l_only(3, Dampening::SafeLowerBound).replay_detailed(
            [],
            [0.0; 100],
            0.0,
            1e6,
            0.5,
            u64::MAX,
        );
        assert_eq!((d.l_positives, d.l_samples), (0, 100));
        assert!(!d.l_reliable);
        assert_eq!(d.jl, 0.0);
        assert_eq!(d.estimate.kind, EstimateKind::SafeLowerBound);
    }

    #[test]
    fn sample_l_exhaustion_with_partial_positives() {
        // Example 1 of the paper: N_L = 1e6, one true pair among the ten
        // draws, δ = 10. The safe reading is 1, never the naive 100 000.
        let mut draws = [0.0; 10];
        draws[3] = 1.0;
        let jl = |dampening| {
            let d =
                sample_l_only(10, dampening).replay_detailed([], draws, 0.0, 1e6, 0.5, u64::MAX);
            assert_eq!((d.l_positives, d.l_samples), (1, 10));
            d.jl
        };
        assert_eq!(jl(Dampening::SafeLowerBound), 1.0);
        // c_s = 0.1 (given, or n_L/δ = 1/10): 0.1 · 1 · 1e6/10 = 10 000.
        assert!((jl(Dampening::Constant(0.1)) - 10_000.0).abs() < 1e-9);
        assert!((jl(Dampening::NlOverDelta) - 10_000.0).abs() < 1e-9);
        // c_s = 1 recovers full scaling; a tiny c_s stays at the count.
        assert!((jl(Dampening::Constant(1.0)) - 100_000.0).abs() < 1e-9);
        assert_eq!(jl(Dampening::Constant(1e-9)), 1.0);
    }

    #[test]
    fn sample_l_zero_budget_draws_nothing() {
        // m_L = 0 on a table with S_L pairs: SampleL reads nothing and the
        // call consumes exactly SampleH's draws.
        let coll = corpus(200, 81);
        let table = minhash_table(&coll, 8, 83);
        assert!(table.nl() > 0);
        let est = LshSs {
            config: LshSsConfig {
                m_h: 50,
                m_l: 0,
                delta: 5,
                dampening: Dampening::Constant(0.5),
            },
        };
        let mut rng = Xoshiro256::seeded(85);
        let d = est.estimate_detailed(&coll, &table, &Jaccard, 0.3, &mut rng);
        assert_eq!((d.l_samples, d.l_positives), (0, 0));
        assert_eq!((d.jl, d.l_variance), (0.0, 0.0));
        assert!(d.l_reliable);
        let mut h_only = Xoshiro256::seeded(85);
        assert_eq!(est.h_draws(&table, &mut h_only).count(), 50);
        assert_eq!(rng, h_only);
    }

    #[test]
    fn delta_zero_reads_the_whole_budget_on_both_paths() {
        // δ = 0 never stops SampleL: the lazy one-τ call reads the whole
        // budget exactly as the recorded curve does, and both answer as
        // exhausted. At the paper's δ the two paths agree as well.
        let coll = corpus(300, 71);
        let table = minhash_table(&coll, 8, 73);
        let tau = 0.3;
        for delta in [0, LshSsConfig::paper_defaults(coll.len()).delta] {
            for dampening in GOLDEN_DAMPENINGS {
                let est = LshSs {
                    config: LshSsConfig {
                        m_h: 100,
                        m_l: 400,
                        delta,
                        dampening,
                    },
                };
                let one = est.estimate_detailed(
                    &coll,
                    &table,
                    &Jaccard,
                    tau,
                    &mut Xoshiro256::seeded(75),
                );
                let curve = est.estimate_curve_detailed(
                    &coll,
                    &table,
                    &Jaccard,
                    &[tau],
                    &mut Xoshiro256::seeded(75),
                );
                assert_eq!(one, curve[0], "δ = {delta}, {dampening:?}");
                assert!(one.l_positives > 0, "fixture needs an S_L hit");
                if delta == 0 {
                    assert_eq!(one.l_samples, 400);
                    assert!(!one.l_reliable);
                }
            }
        }
    }

    #[test]
    fn sample_l_estimate_converges_on_a_bernoulli_stream() {
        // True rate 2 %: with δ = 256 the scaled estimate has relative σ
        // ≈ 1/√256 ≈ 6 %, so 25 % is > 4σ — essentially every run lands.
        let est = sample_l_only(256, Dampening::SafeLowerBound);
        let population = 500_000.0;
        let truth = 0.02 * population;
        let mut ok = 0;
        for seed in 0..20 {
            let mut rng = Xoshiro256::seeded(seed);
            let stream = std::iter::repeat_with(|| f64::from(u8::from(rng.bernoulli(0.02))));
            let d = est.replay_detailed([], stream, 0.0, population, 0.5, u64::MAX);
            if (d.jl - truth).abs() / truth < 0.25 {
                ok += 1;
            }
        }
        assert!(ok >= 19, "only {ok}/20 runs within 25%");
    }

    #[test]
    fn sample_l_draws_track_the_inverse_rate() {
        // E[draws to δ hits] = δ/p; check within 20 %.
        let mut rng = Xoshiro256::seeded(99);
        let stream = std::iter::repeat_with(|| f64::from(u8::from(rng.bernoulli(0.05))));
        let d = sample_l_only(100, Dampening::SafeLowerBound).replay_detailed(
            [],
            stream,
            0.0,
            1.0,
            0.5,
            u64::MAX,
        );
        let expected = 100.0 / 0.05;
        let got = d.l_samples as f64;
        assert!(
            (got - expected).abs() / expected < 0.2,
            "draws {got} vs expected {expected}"
        );
    }
}
