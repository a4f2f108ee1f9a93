//! Bag-of-words corpus generation.
//!
//! A document is a multiset of tokens drawn from a Zipf vocabulary with a
//! log-normally distributed length; the corpus is then weighted either as
//! binary presence vectors (DBLP) or TF-IDF vectors (NYT, PubMed), with
//! IDF computed from the *generated* corpus — the same pipeline the
//! paper's real datasets went through.
//!
//! The pipeline has three stages, and [`CorpusPreset`](crate::preset::CorpusPreset)
//! runs them in this order:
//!
//! 1. **Count** ([`TextModel::generate_token_docs`]): a length, then that
//!    many Zipf ranks per document, counted in one dense per-vocabulary
//!    array plus the list of dimensions the document touched.
//! 2. **Plant** ([`DuplicatePlanter::plant`](crate::dupes::DuplicatePlanter::plant)):
//!    mutated copies of some documents, still as token lists.
//! 3. **Weight** ([`TextModel::weight_docs`]): binary presence, or TF-IDF
//!    from one IDF per dimension and one `1 + ln tf` per frequency, each
//!    row built in index order with no sort.
//!
//! **Byte identity.** A corpus is a pure function of the model, `n` and
//! the RNG state: every stage draws the same RNG words in the same order,
//! and every weight is the one f64 expression `(1 + ln tf) · ln(1 + N/df)`
//! rounded once to `f32`. A faster stage must keep both, so the bytes of
//! every generated corpus stay fixed; `tests/persistence.rs` pins them
//! (`corpus_bytes_are_pinned`, `zipf_draws_are_pinned`).

use crate::zipf::Zipf;
use vsj_sampling::{gauss::standard_normal, Rng};
use vsj_vector::{SparseVector, VectorCollection};

/// Document-length model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LengthModel {
    /// Fixed length.
    Fixed(usize),
    /// `exp(N(mu, sigma²))`, rounded, clamped to `[min, max]`. Matches the
    /// heavy-tailed length profiles the paper reports (DBLP: avg 14,
    /// min 3, max 219).
    LogNormal {
        /// Mean of the underlying normal (log-tokens).
        mu: f64,
        /// Std of the underlying normal.
        sigma: f64,
        /// Smallest permitted token count.
        min: usize,
        /// Largest permitted token count.
        max: usize,
    },
}

impl LengthModel {
    /// Draws a document length.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        match *self {
            Self::Fixed(n) => n,
            Self::LogNormal {
                mu,
                sigma,
                min,
                max,
            } => {
                let z = standard_normal(rng);
                let len = (mu + sigma * z).exp().round() as usize;
                len.clamp(min, max)
            }
        }
    }
}

/// Term-weighting scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Weighting {
    /// Presence/absence (set semantics) — the DBLP configuration.
    Binary,
    /// `(1 + ln tf) · ln(1 + N/df)`, IDF from the generated corpus.
    TfIdf,
}

/// Corpus generator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TextModel {
    /// Vocabulary size (dimensionality bound).
    pub vocab: usize,
    /// Zipf exponent of the word-frequency law.
    pub zipf_exponent: f64,
    /// Document length model.
    pub length: LengthModel,
    /// Weighting scheme.
    pub weighting: Weighting,
}

impl TextModel {
    /// Generates `n` documents as raw token multisets
    /// (`(dimension, term frequency)` lists, dimensions strictly
    /// increasing).
    ///
    /// Tokens are counted in one dense per-vocabulary array shared by all
    /// documents; the dimensions a document touched are sorted and their
    /// counts read back (and zeroed) in that order.
    pub fn generate_token_docs<R: Rng + ?Sized>(
        &self,
        n: usize,
        rng: &mut R,
    ) -> Vec<Vec<(u32, u32)>> {
        let zipf = Zipf::new(self.vocab, self.zipf_exponent);
        let mut docs = Vec::with_capacity(n);
        let mut counts = vec![0u32; self.vocab];
        let mut touched: Vec<u32> = Vec::new();
        for _ in 0..n {
            let len = self.length.sample(rng);
            // Every token is written to the next free slot, which only a
            // first occurrence keeps: no branch on whether it is new.
            touched.resize(len, 0);
            let mut distinct = 0;
            for _ in 0..len {
                let d = zipf.sample(rng);
                let count = &mut counts[d as usize];
                touched[distinct] = d;
                distinct += usize::from(*count == 0);
                *count += 1;
            }
            touched.truncate(distinct);
            touched.sort_unstable();
            docs.push(
                touched
                    .drain(..)
                    .map(|d| (d, std::mem::take(&mut counts[d as usize])))
                    .collect(),
            );
        }
        docs
    }

    /// Weights token documents into vectors according to the configured
    /// scheme. Exposed separately so duplicate planting can operate on the
    /// token level (mutating *words*, like a real near-duplicate record)
    /// before weighting.
    ///
    /// Each document must list strictly increasing dimensions below
    /// `vocab` with term frequencies of at least 1, as
    /// [`generate_token_docs`](Self::generate_token_docs) and
    /// [`DuplicatePlanter::plant`](crate::dupes::DuplicatePlanter::plant)
    /// return them.
    ///
    /// # Panics
    /// Panics on a document that breaks that contract.
    pub fn weight_docs(&self, docs: &[Vec<(u32, u32)>]) -> VectorCollection {
        match self.weighting {
            Weighting::Binary => docs
                .iter()
                .map(|doc| SparseVector::binary_from_members(doc.iter().map(|&(d, _)| d).collect()))
                .collect(),
            Weighting::TfIdf => {
                let n = docs.len() as f64;
                let mut df = vec![0u32; self.vocab];
                let mut max_tf = 0;
                for doc in docs {
                    for &(d, tf) in doc {
                        df[d as usize] += 1;
                        max_tf = max_tf.max(tf);
                    }
                }
                // `ln(1 + N/df)` once per dimension and `1 + ln tf` once
                // per frequency: the same f64 expressions a per-term
                // evaluation would compute, so every weight keeps its bits.
                let idf: Vec<f64> = df
                    .iter()
                    .map(|&df| (1.0 + n / f64::from(df.max(1))).ln())
                    .collect();
                let log_tf: Vec<f64> = (0..=max_tf).map(|tf| 1.0 + f64::from(tf).ln()).collect();
                docs.iter()
                    .map(|doc| {
                        let (indices, values) = doc
                            .iter()
                            .map(|&(d, tf)| (d, (log_tf[tf as usize] * idf[d as usize]) as f32))
                            .unzip();
                        SparseVector::from_sorted(indices, values)
                            .expect("sorted token documents with finite tf-idf weights")
                    })
                    .collect()
            }
        }
    }

    /// Full pipeline: tokens → weighted collection.
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> VectorCollection {
        let docs = self.generate_token_docs(n, rng);
        self.weight_docs(&docs)
    }
}

/// Derives the log-normal `(mu, sigma)` hitting a target mean length with
/// a given shape parameter sigma: `E[len] = exp(mu + sigma²/2)` ⇒
/// `mu = ln(mean) − sigma²/2`.
pub fn lognormal_for_mean(mean: f64, sigma: f64) -> (f64, f64) {
    assert!(mean > 0.0 && sigma >= 0.0);
    ((mean.ln()) - sigma * sigma / 2.0, sigma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsj_sampling::Xoshiro256;

    fn model(weighting: Weighting) -> TextModel {
        let (mu, sigma) = lognormal_for_mean(14.0, 0.5);
        TextModel {
            vocab: 2000,
            zipf_exponent: 1.05,
            length: LengthModel::LogNormal {
                mu,
                sigma,
                min: 3,
                max: 219,
            },
            weighting,
        }
    }

    #[test]
    fn lognormal_mean_is_hit() {
        let (mu, sigma) = lognormal_for_mean(14.0, 0.5);
        let lm = LengthModel::LogNormal {
            mu,
            sigma,
            min: 1,
            max: 10_000,
        };
        let mut rng = Xoshiro256::seeded(1);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| lm.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        assert!((mean - 14.0).abs() < 0.5, "mean length {mean}");
    }

    #[test]
    fn lengths_respect_clamps() {
        let lm = LengthModel::LogNormal {
            mu: 2.0,
            sigma: 2.0,
            min: 3,
            max: 50,
        };
        let mut rng = Xoshiro256::seeded(2);
        for _ in 0..5000 {
            let l = lm.sample(&mut rng);
            assert!((3..=50).contains(&l));
        }
    }

    #[test]
    fn fixed_length_is_fixed() {
        let mut rng = Xoshiro256::seeded(3);
        assert_eq!(LengthModel::Fixed(7).sample(&mut rng), 7);
    }

    #[test]
    fn binary_corpus_is_binary_with_sane_stats() {
        let mut rng = Xoshiro256::seeded(4);
        let coll = model(Weighting::Binary).generate(500, &mut rng);
        let stats = coll.stats();
        assert_eq!(stats.n, 500);
        assert!(stats.is_binary);
        assert!(stats.min_nnz >= 1); // dedup can shrink below `min` tokens
        assert!(stats.max_nnz <= 219);
        // Mean features slightly below mean tokens (duplicate words merge).
        assert!(
            stats.avg_nnz > 7.0 && stats.avg_nnz < 15.0,
            "avg_nnz {}",
            stats.avg_nnz
        );
    }

    #[test]
    fn tfidf_corpus_has_positive_weights() {
        let mut rng = Xoshiro256::seeded(5);
        let coll = model(Weighting::TfIdf).generate(300, &mut rng);
        assert!(!coll.stats().is_binary);
        for (_, v) in coll.iter() {
            for (_, w) in v.iter() {
                assert!(w > 0.0 && w.is_finite());
            }
        }
    }

    #[test]
    fn tfidf_downweights_frequent_words() {
        // Rank-0 (most frequent) should get smaller idf than a rare rank.
        let mut rng = Xoshiro256::seeded(6);
        let m = model(Weighting::TfIdf);
        let docs = m.generate_token_docs(2000, &mut rng);
        let coll = m.weight_docs(&docs);
        // Collect average weight of dimension 0 vs a high dimension where
        // present with tf == 1 (pure idf comparison).
        let mut w_frequent: Vec<f32> = Vec::new();
        let mut w_rare: Vec<f32> = Vec::new();
        for (id, doc) in docs.iter().enumerate() {
            for &(d, tf) in doc {
                if tf != 1 {
                    continue;
                }
                let w = coll.vector(id as u32).get(d);
                if d == 0 {
                    w_frequent.push(w);
                } else if d > 500 {
                    w_rare.push(w);
                }
            }
        }
        assert!(!w_frequent.is_empty() && !w_rare.is_empty());
        let avg = |v: &[f32]| v.iter().map(|&x| f64::from(x)).sum::<f64>() / v.len() as f64;
        assert!(
            avg(&w_frequent) < avg(&w_rare),
            "frequent word weight {} !< rare {}",
            avg(&w_frequent),
            avg(&w_rare)
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let m = model(Weighting::TfIdf);
        let a = m.generate(50, &mut Xoshiro256::seeded(9));
        let b = m.generate(50, &mut Xoshiro256::seeded(9));
        for (x, y) in a.vectors().iter().zip(b.vectors()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn token_docs_are_sorted_and_deduped() {
        let m = model(Weighting::Binary);
        let docs = m.generate_token_docs(100, &mut Xoshiro256::seeded(10));
        for doc in &docs {
            for w in doc.windows(2) {
                assert!(w[0].0 < w[1].0);
            }
            for &(_, tf) in doc {
                assert!(tf >= 1);
            }
        }
    }
}
