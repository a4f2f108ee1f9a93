//! The O(n²) exact join: every pair, every similarity, no approximation.
//!
//! This is the reference everything else is validated against. The
//! threaded variants use an atomic row cursor (work stealing in blocks) —
//! row `i` costs `O((n−i)·d̄)`, so static chunking would leave the last
//! thread idle for half the wall-clock.

use std::sync::atomic::{AtomicUsize, Ordering};

use vsj_vector::{Similarity, VectorCollection, VectorId};

/// Rows are claimed from the shared cursor in blocks of this many to keep
/// contention negligible while still load-balancing the triangular cost.
const ROW_BLOCK: usize = 16;

/// Exact join runner over a collection and similarity measure.
pub struct ExactJoin<'a, S> {
    collection: &'a VectorCollection,
    measure: S,
    threads: usize,
}

impl<'a, S: Similarity + Sync> ExactJoin<'a, S> {
    /// Creates a runner using all available cores.
    pub fn new(collection: &'a VectorCollection, measure: S) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        Self {
            collection,
            measure,
            threads,
        }
    }

    /// Caps worker threads (1 = sequential; useful for deterministic
    /// benchmarks).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Exact join size `J(τ) = |{(u,v) : sim(u,v) ≥ τ, u ≠ v}|` over
    /// unordered pairs.
    pub fn count(&self, tau: f64) -> u64 {
        self.count_multi(&[tau])[0]
    }

    /// Join sizes for several thresholds in one pairwise pass.
    ///
    /// `thresholds` need not be sorted; results are returned in the input
    /// order. Cost is one similarity evaluation per pair plus a binary
    /// search over the thresholds.
    pub fn count_multi(&self, thresholds: &[f64]) -> Vec<u64> {
        if thresholds.is_empty() {
            return Vec::new();
        }
        // Sort thresholds ascending, remembering input positions.
        let mut order: Vec<usize> = (0..thresholds.len()).collect();
        order.sort_by(|&a, &b| {
            thresholds[a]
                .partial_cmp(&thresholds[b])
                .expect("thresholds must not be NaN")
        });
        let sorted: Vec<f64> = order.iter().map(|&i| thresholds[i]).collect();

        // delta[pos] = #pairs whose similarity admits exactly the first
        // `pos` sorted thresholds (i.e. upper_bound position == pos).
        let delta = self.pass_deltas(&sorted);

        // counts_sorted[j] = Σ_{pos > j} delta[pos].
        let mut counts_sorted = vec![0u64; sorted.len()];
        let mut suffix = 0u64;
        for j in (0..sorted.len()).rev() {
            suffix += delta[j + 1];
            counts_sorted[j] = suffix;
        }
        // Un-permute to input order.
        let mut out = vec![0u64; thresholds.len()];
        for (rank, &input_pos) in order.iter().enumerate() {
            out[input_pos] = counts_sorted[rank];
        }
        out
    }

    /// Shared pairwise pass: returns `delta[0..=T]` where `delta[pos]`
    /// counts pairs with exactly `pos` sorted thresholds ≤ sim.
    fn pass_deltas(&self, sorted: &[f64]) -> Vec<u64> {
        let n = self.collection.len();
        let run_rows = |range_start: &AtomicUsize, delta: &mut [u64]| {
            let vectors = self.collection.vectors();
            loop {
                let start = range_start.fetch_add(ROW_BLOCK, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + ROW_BLOCK).min(n);
                for i in start..end {
                    let vi = &vectors[i];
                    for vj in &vectors[i + 1..] {
                        let s = self.measure.sim(vi, vj);
                        let pos = sorted.partition_point(|&t| t <= s);
                        delta[pos] += 1;
                    }
                }
            }
        };

        let cursor = AtomicUsize::new(0);
        if self.threads == 1 || n < 256 {
            let mut delta = vec![0u64; sorted.len() + 1];
            run_rows(&cursor, &mut delta);
            return delta;
        }
        let mut partials: Vec<Vec<u64>> = vec![vec![0u64; sorted.len() + 1]; self.threads];
        std::thread::scope(|scope| {
            for part in &mut partials {
                let cursor = &cursor;
                scope.spawn(move || run_rows(cursor, part));
            }
        });
        let mut delta = vec![0u64; sorted.len() + 1];
        for part in &partials {
            for (d, p) in delta.iter_mut().zip(part) {
                *d += p;
            }
        }
        delta
    }

    /// Materializes the joining pairs (use only when the result fits in
    /// memory — intended for tests and small-τ-range workloads).
    pub fn pairs(&self, tau: f64) -> Vec<(VectorId, VectorId, f64)> {
        let n = self.collection.len();
        let vectors = self.collection.vectors();
        let mut out = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let s = self.measure.sim(&vectors[i], &vectors[j]);
                if s >= tau {
                    out.push((i as VectorId, j as VectorId, s));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsj_vector::{Cosine, Jaccard, SparseVector};

    fn sv(entries: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_entries(entries.to_vec()).expect("valid test vector")
    }

    /// Deterministic pseudo-random collection (no RNG dependency).
    fn synthetic(n: u32, vocab: u32, words: u32) -> VectorCollection {
        VectorCollection::from_vectors(
            (0..n)
                .map(|i| {
                    let mut entries = Vec::new();
                    for w in 0..words {
                        let dim = (i.wrapping_mul(2654435761).wrapping_add(w * 40503)) % vocab;
                        entries.push((dim, 1.0 + (w % 3) as f32));
                    }
                    SparseVector::from_entries(entries).unwrap()
                })
                .collect(),
        )
    }

    #[test]
    fn count_matches_pairs_len() {
        let coll = synthetic(60, 40, 6);
        let join = ExactJoin::new(&coll, Cosine).with_threads(1);
        for tau in [0.1, 0.3, 0.5, 0.8] {
            assert_eq!(join.count(tau), join.pairs(tau).len() as u64, "tau={tau}");
        }
    }

    #[test]
    fn count_is_monotone_in_tau() {
        let coll = synthetic(80, 50, 5);
        let join = ExactJoin::new(&coll, Cosine).with_threads(1);
        let taus = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
        let counts = join.count_multi(&taus);
        for w in counts.windows(2) {
            assert!(w[0] >= w[1], "counts must be non-increasing: {counts:?}");
        }
        // τ = 0 admits all pairs.
        assert_eq!(counts[0], coll.total_pairs());
    }

    #[test]
    fn count_multi_matches_individual_counts() {
        let coll = synthetic(70, 30, 4);
        let join = ExactJoin::new(&coll, Cosine).with_threads(1);
        let taus = [0.75, 0.25, 0.5]; // deliberately unsorted
        let multi = join.count_multi(&taus);
        for (i, &t) in taus.iter().enumerate() {
            assert_eq!(multi[i], join.count(t), "tau={t}");
        }
    }

    #[test]
    fn parallel_count_matches_sequential() {
        let coll = synthetic(300, 60, 6);
        let seq = ExactJoin::new(&coll, Cosine).with_threads(1);
        let par = ExactJoin::new(&coll, Cosine).with_threads(4);
        let taus = [0.1, 0.5, 0.9];
        assert_eq!(seq.count_multi(&taus), par.count_multi(&taus));
    }

    #[test]
    fn works_with_jaccard() {
        let coll = VectorCollection::from_vectors(vec![
            SparseVector::binary_from_members(vec![1, 2, 3]),
            SparseVector::binary_from_members(vec![2, 3, 4]),
            SparseVector::binary_from_members(vec![9, 10]),
        ]);
        let join = ExactJoin::new(&coll, Jaccard).with_threads(1);
        // J(0,1) = 0.5; other pairs 0.
        assert_eq!(join.count(0.4), 1);
        assert_eq!(join.count(0.6), 0);
        assert_eq!(join.count(0.0), 3);
    }

    #[test]
    fn identical_vectors_count_at_tau_one() {
        let coll = VectorCollection::from_vectors(vec![
            sv(&[(0, 1.0)]),
            sv(&[(0, 2.0)]), // same direction, cosine 1
            sv(&[(1, 1.0)]),
        ]);
        let join = ExactJoin::new(&coll, Cosine).with_threads(1);
        assert_eq!(join.count(1.0), 1);
    }

    #[test]
    fn empty_and_tiny_collections() {
        let empty = VectorCollection::new();
        assert_eq!(ExactJoin::new(&empty, Cosine).count(0.5), 0);
        let single = VectorCollection::from_vectors(vec![sv(&[(0, 1.0)])]);
        assert_eq!(ExactJoin::new(&single, Cosine).count(0.0), 0);
    }

    #[test]
    fn empty_threshold_list() {
        let coll = synthetic(10, 10, 3);
        assert!(ExactJoin::new(&coll, Cosine).count_multi(&[]).is_empty());
    }

    #[test]
    fn pairs_report_exact_similarities() {
        let coll = synthetic(30, 20, 4);
        let join = ExactJoin::new(&coll, Cosine).with_threads(1);
        for (i, j, s) in join.pairs(0.3) {
            let direct = coll.sim(&Cosine, i, j);
            assert!((s - direct).abs() < 1e-12);
            assert!(s >= 0.3);
            assert!(i < j);
        }
    }
}
