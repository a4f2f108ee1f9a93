//! The uniform estimator interface the experiment harness drives.
//!
//! Each paper algorithm has a natural inherent API (different estimators
//! need different resources — a table, an index, only the collection).
//! The harness, however, runs *rows of estimators* through identical
//! trial loops, so this module provides the object-safe common
//! denominator: an [`EstimationContext`] bundling everything any of them
//! might need, and the [`Estimator`] trait dispatching on it.

use crate::estimate::Estimate;
use crate::lshs::LshS;
use crate::lshss::LshSs;
use crate::multi_table::{MedianEstimator, VirtualBucketEstimator};
use crate::rs::{RsCross, RsPop};
use crate::uniform::UniformLsh;
use vsj_lsh::LshIndex;
use vsj_sampling::Xoshiro256;
use vsj_vector::{Cosine, Similarity, VectorCollection};

/// Everything an estimator might need for one experiment configuration.
/// The similarity measure is fixed to the paper's cosine; estimators'
/// inherent methods stay generic for other measures.
pub struct EstimationContext<'a> {
    /// The vector database `V`.
    pub collection: &'a VectorCollection,
    /// A pre-built LSH index (estimators that need one panic with a clear
    /// message when absent, mirroring a missing-index plan error).
    pub index: Option<&'a LshIndex>,
}

impl<'a> EstimationContext<'a> {
    /// Context with an index.
    pub fn with_index(collection: &'a VectorCollection, index: &'a LshIndex) -> Self {
        Self {
            collection,
            index: Some(index),
        }
    }

    /// Context without an index (pure-sampling baselines).
    pub fn sampling_only(collection: &'a VectorCollection) -> Self {
        Self {
            collection,
            index: None,
        }
    }

    fn require_index(&self) -> &'a LshIndex {
        self.index
            .expect("this estimator requires an LSH index in the EstimationContext")
    }

    /// The cosine measure used throughout the paper's evaluation.
    pub fn measure(&self) -> impl Similarity + Copy {
        Cosine
    }
}

/// Object-safe estimator interface for the harness.
pub trait Estimator {
    /// Short stable name for table rows ("LSH-SS", "RS(pop)", …).
    fn name(&self) -> String;

    /// Produces one estimate at `τ`.
    fn estimate(&self, ctx: &EstimationContext<'_>, tau: f64, rng: &mut Xoshiro256) -> Estimate;
}

impl Estimator for RsPop {
    fn name(&self) -> String {
        "RS(pop)".into()
    }

    fn estimate(&self, ctx: &EstimationContext<'_>, tau: f64, rng: &mut Xoshiro256) -> Estimate {
        RsPop::estimate(self, ctx.collection, &Cosine, tau, rng)
    }
}

impl Estimator for RsCross {
    fn name(&self) -> String {
        "RS(cross)".into()
    }

    fn estimate(&self, ctx: &EstimationContext<'_>, tau: f64, rng: &mut Xoshiro256) -> Estimate {
        RsCross::estimate(self, ctx.collection, &Cosine, tau, rng)
    }
}

impl Estimator for UniformLsh {
    fn name(&self) -> String {
        "JU".into()
    }

    fn estimate(&self, ctx: &EstimationContext<'_>, tau: f64, _rng: &mut Xoshiro256) -> Estimate {
        UniformLsh::estimate(self, ctx.require_index().table(0), tau)
    }
}

impl Estimator for LshS {
    fn name(&self) -> String {
        "LSH-S".into()
    }

    fn estimate(&self, ctx: &EstimationContext<'_>, tau: f64, rng: &mut Xoshiro256) -> Estimate {
        LshS::estimate(
            self,
            ctx.collection,
            &Cosine,
            ctx.require_index().table(0),
            tau,
            rng,
        )
    }
}

impl Estimator for LshSs {
    fn name(&self) -> String {
        match self.config.dampening {
            crate::lshss::Dampening::SafeLowerBound => "LSH-SS".into(),
            _ => "LSH-SS(D)".into(),
        }
    }

    fn estimate(&self, ctx: &EstimationContext<'_>, tau: f64, rng: &mut Xoshiro256) -> Estimate {
        LshSs::estimate(
            self,
            ctx.collection,
            ctx.require_index().table(0),
            &Cosine,
            tau,
            rng,
        )
    }
}

impl Estimator for MedianEstimator {
    fn name(&self) -> String {
        "LSH-SS(median)".into()
    }

    fn estimate(&self, ctx: &EstimationContext<'_>, tau: f64, rng: &mut Xoshiro256) -> Estimate {
        MedianEstimator::estimate(self, ctx.collection, ctx.require_index(), &Cosine, tau, rng)
    }
}

impl Estimator for VirtualBucketEstimator {
    fn name(&self) -> String {
        "LSH-SS(virtual)".into()
    }

    fn estimate(&self, ctx: &EstimationContext<'_>, tau: f64, rng: &mut Xoshiro256) -> Estimate {
        VirtualBucketEstimator::estimate(
            self,
            ctx.collection,
            ctx.require_index(),
            &Cosine,
            tau,
            rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsj_lsh::LshParams;
    use vsj_vector::SparseVector;

    fn fixture() -> (VectorCollection, LshIndex) {
        let mut vectors = Vec::new();
        for i in 0..200u32 {
            let entries: Vec<(u32, f32)> = (0..6u32)
                .map(|w| ((i.wrapping_mul(97).wrapping_add(w * 31)) % 64, 1.0))
                .collect();
            vectors.push(SparseVector::from_entries(entries).unwrap());
        }
        let coll = VectorCollection::from_vectors(vectors);
        let idx = LshIndex::build(&coll, LshParams::new(10, 2).with_seed(3).with_threads(1));
        (coll, idx)
    }

    #[test]
    fn all_estimators_run_through_the_trait() {
        let (coll, idx) = fixture();
        let ctx = EstimationContext::with_index(&coll, &idx);
        let n = coll.len();
        let estimators: Vec<Box<dyn Estimator>> = vec![
            Box::new(RsPop::paper_default(n)),
            Box::new(RsCross::with_pair_budget((n as u64) * 3 / 2)),
            Box::new(UniformLsh::idealized()),
            Box::new(LshS::paper_default(n)),
            Box::new(LshSs::with_defaults(n)),
            Box::new(LshSs::dampened_with_defaults(n)),
            Box::new(MedianEstimator::with_defaults(n)),
            Box::new(VirtualBucketEstimator::with_defaults(n)),
        ];
        let mut rng = Xoshiro256::seeded(1);
        for e in &estimators {
            let est = e.estimate(&ctx, 0.5, &mut rng);
            assert!(
                est.value.is_finite() && est.value >= 0.0,
                "{} produced {est:?}",
                e.name()
            );
            assert!(!e.name().is_empty());
        }
    }

    #[test]
    fn names_distinguish_damping() {
        let a = LshSs::with_defaults(100);
        let b = LshSs::dampened_with_defaults(100);
        assert_eq!(Estimator::name(&a), "LSH-SS");
        assert_eq!(Estimator::name(&b), "LSH-SS(D)");
    }

    #[test]
    #[should_panic(expected = "requires an LSH index")]
    fn index_requirement_enforced() {
        let (coll, _) = fixture();
        let ctx = EstimationContext::sampling_only(&coll);
        let mut rng = Xoshiro256::seeded(2);
        Estimator::estimate(&LshSs::with_defaults(coll.len()), &ctx, 0.5, &mut rng);
    }

    #[test]
    fn sampling_only_context_serves_rs() {
        let (coll, _) = fixture();
        let ctx = EstimationContext::sampling_only(&coll);
        let mut rng = Xoshiro256::seeded(3);
        let e = Estimator::estimate(&RsPop::paper_default(coll.len()), &ctx, 0.3, &mut rng);
        assert!(e.value >= 0.0);
    }
}
