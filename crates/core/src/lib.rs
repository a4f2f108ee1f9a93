//! Similarity-join size estimators — the contribution of *"Similarity
//! Join Size Estimation using Locality Sensitive Hashing"* (Lee, Ng,
//! Shim; PVLDB 4(6), 2011).
//!
//! Estimators, in the order the paper develops them:
//!
//! | Paper | Type | Idea |
//! |---|---|---|
//! | §3.1 | [`RsPop`] | uniform pair sampling, scaled by `M/m` |
//! | §3.1 | [`RsCross`] | sample `√m` records, compare all their pairs |
//! | §4.2 | [`UniformLsh`] | closed-form `ĴU` from `N_H` under a uniform similarity assumption (Eq. 4) |
//! | §4.3 | [`LshS`] | `ĴU`'s conditional probabilities re-weighted by a pair sample (Eqs. 5–6), both variants of §4.3 |
//! | §5 | [`LshSs`] | **LSH-SS**: stratified sampling over `S_H`/`S_L` with adaptive sampling and a safe lower bound (Algorithm 1) |
//! | §5.1.2 | [`LshSs`] with [`Dampening`] | LSH-SS(D): dampened scale-up `c_s` |
//! | App. B.2.1 | [`MedianEstimator`], [`VirtualBucketEstimator`] | multi-table extensions |
//! | App. B.2.2 | [`general_join`] | non-self joins `U ⋈ V` |
//! | App. B.1 | [`optimal_k`] | the Optimal-k search problem |
//!
//! Plus [`probabilities`] — exact/sampled measurement of `P(T)`,
//! `P(T|H)`, `P(H|T)`, `P(T|L)` (`α`, `β`), reproducing Tables 1 and 2.
//!
//! All estimators are deterministic given their RNG, take the threshold
//! `τ` per call (indexes and samples are reusable across thresholds where
//! the paper allows it), and return an [`Estimate`] carrying the value
//! plus how it was formed (scaled / lower-bounded / dampened / analytic).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimate;
pub mod estimator;
pub mod general_join;
pub mod lshs;
pub mod lshss;
pub mod multi_table;
pub mod optimal_k;
pub mod probabilities;
#[cfg(test)]
mod proptests;
pub mod rs;
pub mod uniform;
pub mod view;

pub use estimate::{Estimate, EstimateKind};
pub use estimator::{EstimationContext, Estimator};
pub use lshs::{LshS, LshSVariant};
pub use lshss::{Dampening, LshSs, LshSsConfig, LshSsEstimate};
pub use multi_table::{MedianEstimator, VirtualBucketEstimator};
pub use rs::{RsCross, RsPop};
pub use uniform::{CollisionModel, UniformLsh};
pub use view::IndexView;
