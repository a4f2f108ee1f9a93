//! Shared machinery for the three dataset presets.
//!
//! [`CorpusPreset::generate_n`] runs the [`textgen`](crate::textgen)
//! pipeline on one RNG stream: count base token documents, plant
//! near-duplicate clusters into them, truncate to `n`, then weight (the
//! IDF needs every document frequency of the planted corpus). Every
//! stage runs on the calling thread, so the rows are allocated there
//! too. The corpus a preset generates for `(n, vocab, seed)` is fixed
//! byte for byte: see the byte-identity contract in
//! [`textgen`](crate::textgen).

use crate::dupes::DuplicatePlanter;
use crate::textgen::{lognormal_for_mean, LengthModel, TextModel, Weighting};
use vsj_sampling::Xoshiro256;
use vsj_vector::VectorCollection;

/// A fully specified corpus recipe: text model statistics plus duplicate
/// structure, parameterized only by the output size `n` and a seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusPreset {
    /// The real corpus size this preset imitates at `scale = 1`.
    pub full_size: usize,
    /// Vocabulary at full size; scaled by Heaps' law (`vocab ∝ √scale`)
    /// so that word-sharing statistics survive downscaling.
    pub full_vocab: usize,
    /// Smallest vocabulary regardless of scale.
    pub min_vocab: usize,
    /// Zipf exponent of word frequencies.
    pub zipf_exponent: f64,
    /// Mean token count per document.
    pub mean_tokens: f64,
    /// Log-normal sigma of token counts.
    pub sigma_tokens: f64,
    /// Length clamp (tokens).
    pub min_tokens: usize,
    /// Length clamp (tokens).
    pub max_tokens: usize,
    /// Weighting scheme.
    pub weighting: Weighting,
    /// Fraction of base documents seeding duplicate clusters.
    pub dup_seed_fraction: f64,
    /// Max copies per cluster.
    pub dup_max_copies: usize,
    /// Mutation intensity range across clusters.
    pub dup_mutation: (f64, f64),
}

impl CorpusPreset {
    /// Output size for a scale factor, with a floor so tiny scales remain
    /// statistically meaningful.
    pub fn size_for_scale(&self, scale: f64) -> usize {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        ((self.full_size as f64 * scale).round() as usize).max(64)
    }

    /// Vocabulary for a scale factor (Heaps'-law shrink).
    pub fn vocab_for_scale(&self, scale: f64) -> usize {
        ((self.full_vocab as f64 * scale.sqrt()).round() as usize).max(self.min_vocab)
    }

    /// Generates exactly `n` vectors deterministically from `seed`.
    pub fn generate_n(&self, n: usize, vocab: usize, seed: u64) -> VectorCollection {
        let mut rng = Xoshiro256::seeded(seed ^ 0x5A5A_0F0F_C3C3_9696);
        let model = TextModel {
            vocab,
            zipf_exponent: self.zipf_exponent,
            length: LengthModel::LogNormal {
                mu: lognormal_for_mean(self.mean_tokens, self.sigma_tokens).0,
                sigma: self.sigma_tokens,
                min: self.min_tokens,
                max: self.max_tokens,
            },
            weighting: self.weighting,
        };
        let planter = DuplicatePlanter {
            seed_fraction: self.dup_seed_fraction,
            max_copies: self.dup_max_copies,
            min_mutation: self.dup_mutation.0,
            max_mutation: self.dup_mutation.1,
            vocab,
        };

        // The planter grows the corpus by an expected factor g; generate
        // enough base documents that the planted corpus reaches n, then
        // truncate (the planter shuffles, so truncation is unbiased).
        let growth = 1.0 + self.dup_seed_fraction * (1.0 + self.dup_max_copies as f64) / 2.0;
        let mut base = ((n as f64 / growth) * 1.02).ceil() as usize;
        loop {
            let docs = model.generate_token_docs(base, &mut rng);
            let mut planted = planter.plant(docs, &mut rng);
            if planted.len() >= n {
                planted.truncate(n);
                return model.weight_docs(&planted);
            }
            // Rare under-shoot: enlarge the base and retry (still
            // deterministic — the RNG sequence continues).
            base = base + base / 10 + 8;
        }
    }
}

/// Shared validation helper for preset tests: basic shape of a generated
/// collection.
#[cfg(test)]
pub(crate) fn check_shape(coll: &VectorCollection, n: usize, binary: bool, avg_range: (f64, f64)) {
    let stats = coll.stats();
    assert_eq!(stats.n, n);
    assert_eq!(stats.is_binary, binary);
    assert!(
        stats.avg_nnz >= avg_range.0 && stats.avg_nnz <= avg_range.1,
        "avg_nnz {} outside {:?}",
        stats.avg_nnz,
        avg_range
    );
    assert!(stats.min_nnz >= 1, "empty vectors generated");
}

/// Shared validation helper: the high-similarity tail exists but is thin.
#[cfg(test)]
pub(crate) fn check_similarity_tail(coll: &VectorCollection, tau: f64, lo: u64, hi_frac: f64) {
    use vsj_vector::{Cosine, Similarity};
    let n = coll.len() as u32;
    let mut high = 0u64;
    let mut total = 0u64;
    for a in 0..n {
        for b in (a + 1)..n {
            total += 1;
            if Cosine.sim(coll.vector(a), coll.vector(b)) >= tau {
                high += 1;
            }
        }
    }
    assert!(high >= lo, "too few pairs at τ={tau}: {high} (need ≥ {lo})");
    let frac = high as f64 / total as f64;
    assert!(
        frac <= hi_frac,
        "high-similarity tail too fat at τ={tau}: {frac} > {hi_frac}"
    );
}
