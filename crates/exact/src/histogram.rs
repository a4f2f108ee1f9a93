//! Pair-similarity histograms.
//!
//! The distribution of `sim(u,v)` over all `C(n,2)` pairs is the object
//! the paper reasons about throughout: Figure 1 integrates over it, §4.2's
//! JU estimator assumes it uniform, LC fits a power law to it, and the
//! dataset generators in `vsj-datasets` are validated against its shape
//! (most pairs near zero, a thin high-similarity tail). This module
//! computes it exactly (threaded O(n²) pass) or by uniform pair sampling.

use std::sync::atomic::{AtomicUsize, Ordering};

use vsj_sampling::{sample_distinct_pair, Rng};
use vsj_vector::{Similarity, VectorCollection};

/// Row-block size for the atomic work-stealing cursor (see `naive.rs`).
const ROW_BLOCK: usize = 16;

/// A fixed-bin histogram over similarity values in `[0, 1]`.
///
/// Bin `b` covers `[b/B, (b+1)/B)` except the last, which is closed at 1.
/// Similarities below 0 (possible for signed vectors under cosine) are
/// clamped into bin 0 and counted in [`Self::negative_count`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimilarityHistogram {
    bins: Vec<u64>,
    negative: u64,
    total: u64,
}

impl SimilarityHistogram {
    /// Creates an empty histogram with `num_bins ≥ 1` bins.
    pub fn new(num_bins: usize) -> Self {
        assert!(num_bins >= 1, "histogram needs at least one bin");
        Self {
            bins: vec![0; num_bins],
            negative: 0,
            total: 0,
        }
    }

    /// Exact histogram over all pairs, threaded.
    pub fn exact<S: Similarity + Sync>(
        collection: &VectorCollection,
        measure: &S,
        num_bins: usize,
        threads: usize,
    ) -> Self {
        let threads = threads.max(1);
        let n = collection.len();
        let cursor = AtomicUsize::new(0);
        let scan = |hist: &mut SimilarityHistogram| {
            let vectors = collection.vectors();
            loop {
                let start = cursor.fetch_add(ROW_BLOCK, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + ROW_BLOCK).min(n);
                for i in start..end {
                    let vi = &vectors[i];
                    for vj in &vectors[i + 1..] {
                        hist.record(measure.sim(vi, vj));
                    }
                }
            }
        };
        if threads == 1 || n < 256 {
            let mut hist = Self::new(num_bins);
            scan(&mut hist);
            return hist;
        }
        let mut partials: Vec<SimilarityHistogram> =
            (0..threads).map(|_| Self::new(num_bins)).collect();
        std::thread::scope(|scope| {
            for part in &mut partials {
                let scan = &scan;
                scope.spawn(move || scan(part));
            }
        });
        let mut out = Self::new(num_bins);
        for p in &partials {
            out.merge(p);
        }
        out
    }

    /// Histogram from `samples` uniform random pairs (with replacement).
    pub fn sampled<S: Similarity, R: Rng + ?Sized>(
        collection: &VectorCollection,
        measure: &S,
        num_bins: usize,
        samples: u64,
        rng: &mut R,
    ) -> Self {
        assert!(collection.len() >= 2, "need at least two vectors");
        let mut hist = Self::new(num_bins);
        let n = collection.len() as u64;
        for _ in 0..samples {
            let (i, j) = sample_distinct_pair(rng, n);
            hist.record(collection.sim(measure, i as u32, j as u32));
        }
        hist
    }

    /// Records one similarity observation.
    pub fn record(&mut self, s: f64) {
        self.total += 1;
        if s < 0.0 {
            self.negative += 1;
            self.bins[0] += 1;
            return;
        }
        let b = ((s * self.bins.len() as f64) as usize).min(self.bins.len() - 1);
        self.bins[b] += 1;
    }

    /// Merges another histogram with the same binning.
    ///
    /// # Panics
    /// Panics on bin-count mismatch.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.bins.len(), other.bins.len(), "bin counts differ");
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.negative += other.negative;
        self.total += other.total;
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// Raw bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Observations with negative similarity (clamped into bin 0).
    pub fn negative_count(&self) -> u64 {
        self.negative
    }

    /// Count of observations in bins overlapping `[τ, 1]` — the histogram
    /// approximation of the join size. Exact when `τ` lies on a bin
    /// boundary `< 1`; otherwise the straddling bin is included in full
    /// (a conservative overcount). `τ = 1` itself is not representable
    /// (the last bin is closed at 1 and cannot be split); callers wanting
    /// exact-duplicate counts should use the exact join.
    pub fn count_at_least(&self, tau: f64) -> u64 {
        if tau <= 0.0 {
            return self.total;
        }
        let b = (tau * self.bins.len() as f64).floor() as usize;
        if b >= self.bins.len() {
            return 0;
        }
        self.bins[b..].iter().sum()
    }

    /// Mean similarity approximated from bin midpoints.
    pub fn approx_mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let width = 1.0 / self.bins.len() as f64;
        self.bins
            .iter()
            .enumerate()
            .map(|(b, &c)| (b as f64 + 0.5) * width * c as f64)
            .sum::<f64>()
            / self.total as f64
    }

    /// Fraction of mass at or above `τ` (selectivity view).
    pub fn selectivity_at_least(&self, tau: f64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count_at_least(tau) as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsj_sampling::Xoshiro256;
    use vsj_vector::{Cosine, SparseVector};

    fn corpus(n: u32) -> VectorCollection {
        VectorCollection::from_vectors(
            (0..n)
                .map(|i| {
                    let mut entries = Vec::new();
                    for w in 0..5u32 {
                        let dim = (i.wrapping_mul(48271).wrapping_add(w * 1103)) % 48;
                        entries.push((dim, 1.0));
                    }
                    SparseVector::from_entries(entries).unwrap()
                })
                .collect(),
        )
    }

    #[test]
    fn record_places_values_in_bins() {
        let mut h = SimilarityHistogram::new(10);
        h.record(0.0); // bin 0
        h.record(0.05); // bin 0
        h.record(0.15); // bin 1
        h.record(0.95); // bin 9
        h.record(1.0); // clamped into last bin
        assert_eq!(h.bins()[0], 2);
        assert_eq!(h.bins()[1], 1);
        assert_eq!(h.bins()[9], 2);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn negative_similarities_clamp_to_bin_zero() {
        let mut h = SimilarityHistogram::new(4);
        h.record(-0.5);
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.negative_count(), 1);
    }

    #[test]
    fn exact_total_is_all_pairs() {
        let coll = corpus(50);
        let h = SimilarityHistogram::exact(&coll, &Cosine, 20, 1);
        assert_eq!(h.total(), coll.total_pairs());
    }

    #[test]
    fn parallel_exact_matches_sequential() {
        let coll = corpus(300);
        let a = SimilarityHistogram::exact(&coll, &Cosine, 25, 1);
        let b = SimilarityHistogram::exact(&coll, &Cosine, 25, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn count_at_least_matches_exact_join_on_boundaries() {
        use crate::naive::ExactJoin;
        let coll = corpus(60);
        let bins = 20;
        let h = SimilarityHistogram::exact(&coll, &Cosine, bins, 1);
        let join = ExactJoin::new(&coll, Cosine).with_threads(1);
        // On exact bin boundaries below 1 the histogram count equals the
        // join size (τ = 1 is not representable; see count_at_least docs).
        for b in 0..bins {
            let tau = b as f64 / bins as f64;
            assert_eq!(h.count_at_least(tau), join.count(tau), "boundary τ={tau}");
        }
    }

    #[test]
    fn count_at_least_zero_returns_total() {
        let coll = corpus(20);
        let h = SimilarityHistogram::exact(&coll, &Cosine, 10, 1);
        assert_eq!(h.count_at_least(0.0), h.total());
        assert_eq!(h.count_at_least(-1.0), h.total());
    }

    #[test]
    fn sampled_tracks_exact_shape() {
        let coll = corpus(120);
        let exact = SimilarityHistogram::exact(&coll, &Cosine, 5, 1);
        let mut rng = Xoshiro256::seeded(3);
        let sampled = SimilarityHistogram::sampled(&coll, &Cosine, 5, 200_000, &mut rng);
        for b in 0..5 {
            let pe = exact.bins()[b] as f64 / exact.total() as f64;
            let ps = sampled.bins()[b] as f64 / sampled.total() as f64;
            assert!(
                (pe - ps).abs() < 0.01,
                "bin {b}: exact frac {pe:.4}, sampled {ps:.4}"
            );
        }
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = SimilarityHistogram::new(4);
        a.record(0.1);
        let mut b = SimilarityHistogram::new(4);
        b.record(0.9);
        b.record(-0.2);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.negative_count(), 1);
        assert_eq!(a.bins()[3], 1);
    }

    #[test]
    #[should_panic(expected = "bin counts differ")]
    fn merge_rejects_mismatched_bins() {
        let mut a = SimilarityHistogram::new(4);
        a.merge(&SimilarityHistogram::new(5));
    }

    #[test]
    fn approx_mean_reasonable() {
        let mut h = SimilarityHistogram::new(100);
        for _ in 0..100 {
            h.record(0.25);
        }
        assert!((h.approx_mean() - 0.255).abs() < 0.01);
        assert_eq!(SimilarityHistogram::new(10).approx_mean(), 0.0);
    }

    #[test]
    fn selectivity_fraction() {
        let mut h = SimilarityHistogram::new(10);
        for _ in 0..90 {
            h.record(0.05);
        }
        for _ in 0..10 {
            h.record(0.95);
        }
        assert!((h.selectivity_at_least(0.9) - 0.1).abs() < 1e-12);
    }
}
